# Assembling the velocity series stage by stage.
#
# The series solution is a seed plus two corrections.  Each correction
# solves a third-order two-point problem whose right-hand side is the
# remainder of the previous stage weighted by an auxiliary multiplier
# carrying free parameters C1..C7.  The multipliers are linear in those
# parameters, so one pass (model.velocity_basis) solves each correction
# once per parameter, and velocity_solution weights the columns:
# u1 = C1*a and u2 = sum_k C1*Ck*b_k.  This script builds the stages for
# bench case 5.1 with its published parameter values and checks the
# closed forms the construction implies.

from jhflow import get_case, velocity_solution
from jhflow.cases import PAPER_PARAMS_VELOCITY
from jhflow.model import velocity_seed

case = get_case("5.1")
params = case.params
A, B = params.A, params.B
c = PAPER_PARAMS_VELOCITY["5.1"]

stages = velocity_solution(params, c)
print("seed:", velocity_seed().to_pairs())

# The first correction is a quintic with no odd terms below eta^4:
#   2 A C1 eta^5 - 5 (A + B) C1 eta^4 + (3A + 5B) C1 eta^2
u1 = stages.u1
print("u1 eta^5 coefficient:", u1.coefficient(5), "expected:", 2 * A * c["C1"])
print("u1 eta^4 coefficient:", u1.coefficient(4), "expected:", -5 * (A + B) * c["C1"])
print("u1 eta^2 coefficient:", u1.coefficient(2), "expected:", (3 * A + 5 * B) * c["C1"])

# The assembled series keeps the boundary conditions of every stage:
# value 1 and slope 0 at the center line, 0 at the wall.
F = stages.assembled
print("F(0) =", F.evaluate(0.0))
print("F'(0) =", F.differentiate().evaluate(0.0))
print("F(1) =", F.evaluate(1.0))

# Its top coefficient comes from the second correction: the eta^11 term
# is A C1 C2 / 495 for these multipliers.
print(
    "eta^11 coefficient:",
    F.coefficient(11),
    "expected:",
    A * c["C1"] * c["C2"] / 495.0,
)
