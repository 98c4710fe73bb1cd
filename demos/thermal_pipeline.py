# The full sequential pipeline: velocity first, temperature second.
#
# The temperature equation is linear in theta with the velocity frozen,
# so the velocity series is fitted first and handed to the thermal
# objective.  The temperature series is affine in C8..C13 as well: its
# seed, first correction and one second-correction column per constant
# come from one stage pass, and the thermal fit is one linear
# least-squares solve on their samples at the quadrature nodes.  Each fit
# returns the series it fitted, so nothing is re-assembled.  The thermal decomposition
# used here is the scale-consistent one: the seed solves the homogeneous
# stage, so every stage inherits the tiny dissipation scale instead of
# mixing it with an order-one source.

import numpy as np

from jhflow import (
    fit,
    get_case,
    shoot_thermal,
    shoot_velocity,
    thermal_objective_spec,
    velocity_objective_spec,
)

case = get_case("5.2")
params = case.params

vel_spec = velocity_objective_spec(params)
vel_fit = fit(vel_spec, params)
F = vel_fit.series
print("velocity objective: %.3e" % vel_fit.objective_value)

th_spec = thermal_objective_spec(params, mode=case.mode, velocity_polynomial=F)
th_fit = fit(th_spec, params)
theta = th_fit.series
print("thermal objective: %.3e" % th_fit.objective_value)

vel_oracle = shoot_velocity(params, h=1e-4)
th_oracle = shoot_thermal(params, vel_oracle, h=1e-4)
grid = np.round(np.linspace(0.0, 1.0, 11), 1)
scale = max(abs(th_oracle.at(float(e), "theta")) for e in grid)
err = max(abs(theta.evaluate(float(e)) - th_oracle.at(float(e), "theta")) for e in grid)
print("temperature scale: %.3e" % scale)
print("max error vs oracle: %.3e (relative %.3e)" % (err, err / scale))

# The profile is proportional to the dissipation group: doubling beta
# doubles theta everywhere, which is why the objective is normalized by
# that group before fitting.
print("theta(0) =", theta.evaluate(0.0))
print("theta(0.5) =", theta.evaluate(0.5))
