# Identifying the free series parameters by least squares.
#
# The residual of the governing equation, squared and integrated over the
# channel with Gauss-Legendre weights, is minimized with a damped
# Gauss-Newton loop started once, from zero.  The loop runs in the
# products z = (C1, C1*C2, ..., C1*C7), in which the series is affine, so
# the residual is quadratic in z and its Jacobian is exact.  The result is
# mapped back to C1..C7, and the fitted series that fit returns is judged
# against the shooting solution on a uniform grid.

import time

import numpy as np

from jhflow import (
    fit,
    get_case,
    shoot_velocity,
    velocity_objective_spec,
)

case = get_case("5.6")
params = case.params

t0 = time.time()
spec = velocity_objective_spec(params)
result = fit(spec, params)
print(
    "fit in %.2fs, %d iterations, converged=%s, objective=%.3e"
    % (time.time() - t0, result.iterations, result.converged, result.objective_value)
)
for name, value in result.parameters.items():
    print("  %s = % .10f" % (name, value))

F = result.series
oracle = shoot_velocity(params, h=1e-4)
grid = np.round(np.linspace(0.0, 1.0, 11), 1)
err = max(abs(F.evaluate(float(e)) - oracle.at(float(e), "F")) for e in grid)
print("max grid error vs oracle: %.3e" % err)

# The iteration log keeps every accepted and rejected step; accepted
# objectives never increase.
accepted = [rec.objective for rec in result.iteration_log if rec.accepted]
print("accepted steps:", len(accepted), "monotone:", all(b <= a for a, b in zip(accepted, accepted[1:])))
