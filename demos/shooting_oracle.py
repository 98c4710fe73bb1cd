# The independent ground truth: classic RK4 with shooting.
#
# F''' + A F F' + B F' = 0 integrates once: from F(0) = 1, F'(0) = 0 and
# F''(0) = s it gives the first integral F'' = s + (1 - F)(A(1 + F)/2 + B).
# RK4 runs on the two states (F, F') of that equation, in the Nystrom form
# that needs one curvature evaluation per stage.
# The centerline curvature s is unknown, so the solver brackets it,
# runs secant steps with bisection fallback, and accepts once the wall
# value |F(1)| drops below 1e-12.  The secant first converges on coarser
# grids (n/100, then n/10 steps, keeping those with at least 100 steps),
# where a trial keeps only F(1).  With two such roots, Richardson
# extrapolation by the h^4 error of RK4 predicts the full-grid root, so the
# full-grid secant usually needs one trial, whose rows it returns.  At the
# h = 1e-3 used here the only coarse grid has 100 steps.  Halving the step
# should shrink the error about sixteen-fold for a fourth-order scheme; the
# Richardson ratio below checks that without knowing the exact solution.

import numpy as np

from jhflow import get_case, shoot_velocity, shoot_thermal
from jhflow.oracle import velocity_terminal

case = get_case("5.1")
params = case.params

sol = shoot_velocity(params, h=1e-3)
print("F''(0) =", sol.shooting_parameter)
print("wall miss:", sol.terminal_miss)
for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
    print("F(%.2f) = %.12f" % (eta, sol.at(eta, "F")))

# Richardson: with the shooting parameter frozen, compare wall values at
# h, h/2, h/4.  The ratio of successive differences estimates 2^order.
# The steps start at 4e-3: much finer, the differences sink into rounding.
s = sol.shooting_parameter
f1 = velocity_terminal(params, s, h=4e-3)
f2 = velocity_terminal(params, s, h=2e-3)
f3 = velocity_terminal(params, s, h=1e-3)
print("Richardson ratio:", (f1 - f2) / (f2 - f3), "(sixteen for fourth order)")

# The temperature rides on the frozen velocity profile.  Its equation is
# linear, so every RK4 step is an affine map of (theta, theta') built from
# the velocity rows, and a prefix scan of those maps gives a particular
# solution (theta(0) = 0) and a homogeneous one (theta(0) = 1, no source)
# without integrating the velocity again; the combination that vanishes
# at the wall pins the center value, and the wall value of the combined
# column is checked against 1e-12.
th = shoot_thermal(params, sol, h=1e-3)
print("theta(0) =", th.at(0.0, "theta"))
print("theta(1) =", th.at(1.0, "theta"))

# Off-grid queries interpolate with a cubic Hermite built from the
# stored values and derivatives, keeping fourth-order accuracy.
print("theta(1/3) =", th.at(1.0 / 3.0, "theta"))
