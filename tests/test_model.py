"""Model layer: parameter groups, seeds, remainders, stage closed forms."""

import math

import numpy as np
import pytest

from jhflow.model import (
    MODE_PAPER,
    MODE_SCALE_CONSISTENT,
    FlowParams,
    THERMAL_MODES,
    THERMAL_PARAM_NAMES,
    ValidationError,
    build_thermal_aux_set,
    build_velocity_aux_set,
    residual_thermal,
    residual_velocity,
    thermal_constants_derived,
    thermal_constants_stated,
    thermal_nonlinear,
    thermal_seed,
    thermal_solution,
    velocity_nonlinear,
    velocity_seed,
    velocity_series_expansion,
    velocity_solution,
)
from jhflow.polyalg import ZERO, LaurentPoly

PARAMS = FlowParams(alpha=math.pi / 24, Re=50.0, H=1000.0, Pr=1.0, beta=3.492161428e-13)


# -- FlowParams ---------------------------------------------------------------


def test_flow_params_groups():
    p = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0)
    assert p.A == pytest.approx(2.0 * math.pi / 24 * 50.0)
    assert p.B == pytest.approx((4.0 - 250.0) * (math.pi / 24) ** 2)


def test_flow_params_validation():
    with pytest.raises(ValidationError):
        FlowParams(alpha=0.0, Re=50.0, H=0.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=math.pi / 2, Re=50.0, H=0.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=-0.1, Re=50.0, H=0.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=0.1, Re=0.0, H=0.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=0.1, Re=50.0, H=-1.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=0.1, Re=50.0, H=0.0, Pr=0.0)
    with pytest.raises(ValidationError):
        FlowParams(alpha=0.1, Re=50.0, H=0.0, beta=-1e-12)


@pytest.mark.parametrize(
    "fields",
    [
        {"Re": math.inf},
        {"Re": math.nan},
        {"H": math.inf},
        {"H": math.nan},
        {"Pr": math.inf},
        {"beta": math.nan},
        {"alpha": 1e-173, "Re": 1e-173},  # 2*alpha*Re underflows to 0
    ],
)
def test_flow_params_rejects_non_finite_and_underflowing_groups(fields):
    with pytest.raises(ValidationError):
        FlowParams(**{"alpha": 0.1, "Re": 50.0, "H": 0.0, **fields})


# -- seeds --------------------------------------------------------------------


def test_velocity_seed_is_one_minus_eta_squared():
    seed = velocity_seed()
    assert seed.coefficient(0) == pytest.approx(1.0, abs=1e-14)
    assert seed.coefficient(2) == pytest.approx(-1.0, abs=1e-14)
    assert abs(seed.coefficient(1)) < 1e-14
    assert abs(seed.coefficient(3)) < 1e-14


def test_thermal_seed_by_mode():
    stated = thermal_seed(MODE_PAPER)
    assert stated.coefficient(0) == pytest.approx(-0.5, abs=1e-14)
    assert stated.coefficient(2) == pytest.approx(0.5, abs=1e-14)
    assert thermal_seed(MODE_SCALE_CONSISTENT) == ZERO
    assert thermal_seed() == ZERO


def test_mode_is_validated():
    with pytest.raises(ValidationError):
        thermal_seed("exotic")
    with pytest.raises(ValidationError):
        thermal_solution(PARAMS, {"C8": 0.0}, mode="exotic")
    with pytest.raises(ValidationError):
        thermal_nonlinear(PARAMS, velocity_seed(), ZERO, mode="exotic")


# -- remainders ---------------------------------------------------------------


def test_velocity_remainder_exact_at_seed():
    A, B = PARAMS.A, PARAMS.B
    exp = velocity_nonlinear(PARAMS, velocity_seed())
    # N(1 - eta^2) = A (1 - eta^2)(-2 eta) + B (-2 eta) = 2A eta^3 - 2(A+B) eta
    assert exp.value.coefficient(3) == pytest.approx(2.0 * A, rel=1e-13)
    assert exp.value.coefficient(1) == pytest.approx(-2.0 * (A + B), rel=1e-13)
    assert exp.value.coefficient(2) == 0.0
    # Partials: dN/dF = A F', dN/dF' = A F + B.
    assert exp.partials[0] == LaurentPoly({1: -2.0 * A})
    assert exp.partials[1].coefficient(0) == pytest.approx(A + B, rel=1e-13)
    assert exp.partials[1].coefficient(2) == pytest.approx(-A, rel=1e-13)


def test_velocity_series_expansion_uses_quadratic_remainder():
    A, B = PARAMS.A, PARAMS.B
    series = velocity_series_expansion(PARAMS)
    exact = velocity_nonlinear(PARAMS, velocity_seed())
    # Same linear term, but the cubic term sits one power lower.
    assert series.value.coefficient(1) == pytest.approx(-2.0 * (A + B), rel=1e-13)
    assert series.value.coefficient(2) == pytest.approx(2.0 * A, rel=1e-13)
    assert series.value.coefficient(3) == 0.0
    # The partials are shared with the exact expansion.
    assert series.partials == exact.partials


def test_thermal_remainder_modes_differ_by_unit_source():
    theta0 = LaurentPoly({0: 0.5, 2: -0.5})
    stated = thermal_nonlinear(PARAMS, velocity_seed(), theta0, MODE_PAPER)
    plain = thermal_nonlinear(PARAMS, velocity_seed(), theta0, MODE_SCALE_CONSISTENT)
    diff = stated.value - plain.value
    assert diff == LaurentPoly.constant(1.0)
    assert stated.partials == plain.partials


def test_thermal_remainder_scales_with_beta():
    base = FlowParams(alpha=PARAMS.alpha, Re=PARAMS.Re, H=PARAMS.H, Pr=1.0, beta=1.0)
    doubled = FlowParams(alpha=PARAMS.alpha, Re=PARAMS.Re, H=PARAMS.H, Pr=1.0, beta=2.0)
    d1 = thermal_nonlinear(base, velocity_seed(), ZERO, MODE_SCALE_CONSISTENT).value
    d2 = thermal_nonlinear(doubled, velocity_seed(), ZERO, MODE_SCALE_CONSISTENT).value
    assert d2 == d1 * 2.0


# -- constants ----------------------------------------------------------------


def test_thermal_constants_disagree_only_in_D():
    for H in (0.0, 250.0, 1000.0):
        p = FlowParams(alpha=math.pi / 24, Re=50.0, H=H, Pr=1.0, beta=3.492161428e-13)
        stated = thermal_constants_stated(p)
        derived = thermal_constants_derived(p)
        assert stated.C == pytest.approx(derived.C, rel=1e-12)
        assert stated.E == pytest.approx(derived.E, rel=1e-12)
        assert stated.L == pytest.approx(derived.L, rel=1e-12)
        assert stated.K == pytest.approx(derived.K, rel=1e-12)
        # The stated D doubles the alpha*Re*Pr contribution.
        assert stated.D - derived.D == pytest.approx(p.alpha * p.Re * p.Pr, rel=1e-12)
    assert stated.provenance == "stated"
    assert derived.provenance == "derived"


# -- auxiliary multiplier sets --------------------------------------------------


def test_velocity_aux_structure():
    h0, h1, h2 = build_velocity_aux_set(PARAMS)
    assert h0.assemble({"C1": 2.0}) == LaurentPoly.constant(-120.0)
    assert h1.parameter_names() == ("C2", "C3", "C4", "C5", "C7")
    ladder = {name: shape.terms() for name, shape in h1.basis}
    inv2a = 1.0 / (2.0 * PARAMS.A)
    assert ladder["C2"] == ((2, inv2a),)
    assert ladder["C3"] == ((1, inv2a),)
    assert ladder["C4"] == ((0, inv2a),)
    assert ladder["C5"] == ((-1, inv2a),)
    assert ladder["C7"] == ((-2, inv2a),)
    assert h2.assemble({"C6": 3.0}) == LaurentPoly.constant(1.5)


def test_thermal_aux_structure():
    h0, h1 = build_thermal_aux_set()
    assert h0.assemble({"C8": 1.5}) == LaurentPoly.constant(-45.0)
    assert h1.parameter_names() == ("C9", "C10", "C11", "C12", "C13")
    built = h1.assemble({"C9": 2.0, "C10": 0.0, "C11": 0.0, "C12": 0.0, "C13": 4.0})
    assert built == LaurentPoly({0: 2.0, 4: 4.0})  # not divided by C8


# -- assembled solutions --------------------------------------------------------


def test_velocity_solution_boundary_conditions():
    rng = np.random.default_rng(11)
    names = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
    for _ in range(20):
        c = {n: float(rng.normal()) * 1e-2 for n in names}
        sol = velocity_solution(PARAMS, c)
        assert sol.assembled.evaluate(0.0) == pytest.approx(1.0, abs=1e-10)
        assert sol.assembled.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-10)
        assert sol.assembled.evaluate(1.0) == pytest.approx(0.0, abs=1e-10)
        assert sol.assembled.min_exponent >= 0


def test_velocity_first_correction_closed_form():
    A, B = PARAMS.A, PARAMS.B
    c1 = -0.0123
    c = {n: 0.0 for n in ("C2", "C3", "C4", "C5", "C6", "C7")}
    sol = velocity_solution(PARAMS, dict(c, C1=c1))
    u1 = sol.u1
    assert u1.coefficient(5) == pytest.approx(2.0 * A * c1, rel=1e-12)
    assert u1.coefficient(4) == pytest.approx(-5.0 * (A + B) * c1, rel=1e-12)
    assert u1.coefficient(2) == pytest.approx((3.0 * A + 5.0 * B) * c1, rel=1e-12)
    assert abs(u1.coefficient(3)) < 1e-12
    # Only C1 set: the second correction collapses.
    assert sol.u2 == ZERO


def test_velocity_solution_zero_parameters_is_seed():
    zeros = {n: 0.0 for n in ("C1", "C2", "C3", "C4", "C5", "C6", "C7")}
    sol = velocity_solution(PARAMS, zeros)
    assert sol.u1 == ZERO
    assert sol.u2 == ZERO
    assert sol.assembled == sol.u0


def test_velocity_solution_requires_every_parameter():
    from jhflow.engine import MissingParameter

    with pytest.raises(MissingParameter):
        velocity_solution(PARAMS, {"C1": 0.01})


def test_thermal_solution_boundary_conditions():
    rng = np.random.default_rng(5)
    p = FlowParams(alpha=math.pi / 36, Re=50.0, H=500.0, Pr=1.0, beta=1e-3)
    names = ("C8", "C9", "C10", "C11", "C12", "C13")
    for mode in (MODE_PAPER, MODE_SCALE_CONSISTENT):
        for _ in range(10):
            c = {n: float(rng.normal()) for n in names}
            sol = thermal_solution(p, c, mode=mode)
            assert sol.assembled.evaluate(1.0) == pytest.approx(0.0, abs=1e-10)
            assert sol.assembled.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-10)


def test_thermal_first_correction_stage_equation():
    p = FlowParams(alpha=math.pi / 36, Re=50.0, H=250.0, Pr=1.0, beta=1e-2)
    c = {"C8": 0.7, "C9": 0.1, "C10": -0.2, "C11": 0.05, "C12": 0.0, "C13": 0.3}
    sol = thermal_solution(p, c, mode=MODE_PAPER)
    remainder = thermal_nonlinear(p, velocity_seed(), sol.u0, MODE_PAPER).value
    # theta1'' - 30 C8 N(theta0) = 0
    defect = sol.u1.differentiate(2) - 30.0 * c["C8"] * remainder
    worst = max((abs(co) for _, co in defect.terms()), default=0.0)
    assert worst < 1e-10


@pytest.mark.parametrize("mode", THERMAL_MODES)
def test_thermal_solution_is_continuous_in_c8(mode):
    # theta = u0 + C8*a + sum_j Cj*b_j: C8 only scales the first correction,
    # so theta neither jumps nor overflows as C8 passes through 0, and C9
    # still acts at C8 = 0.
    p = FlowParams(alpha=math.pi / 36, Re=50.0, H=250.0, Pr=1.0, beta=1e-2)
    eta = np.linspace(0.0, 1.0, 11)

    def stages(c8):
        c = {**dict.fromkeys(THERMAL_PARAM_NAMES, 0.0), "C8": c8, "C9": 5.0}
        return thermal_solution(p, c, mode=mode)

    at_zero = stages(0.0)
    assert at_zero.u1 == ZERO
    assert at_zero.u2 != ZERO
    theta0 = at_zero.assembled.evaluate(eta)
    a = np.max(np.abs(stages(1.0).u1.evaluate(eta)))
    rounding = 1e-14 * np.max(np.abs(theta0))
    for c8 in (1e-6, 1e-300, 5e-324, -1e-300):
        gap = np.max(np.abs(stages(c8).assembled.evaluate(eta) - theta0))
        assert gap <= abs(c8) * a + rounding, c8


# -- residuals ------------------------------------------------------------------


def test_residual_velocity_vanishes_for_manufactured_solution():
    # Pick F, then define the groups so the defect cancels at two powers; easier:
    # check the defect is the definition, term by term, for a simple F.
    F = LaurentPoly({0: 1.0, 2: -1.0})
    res = residual_velocity(F, PARAMS)
    expected = velocity_nonlinear(PARAMS, F).value  # F''' = 0 here
    assert res == expected


def test_residual_thermal_matches_definition():
    p = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=1e-2)
    F = LaurentPoly({0: 1.0, 2: -1.0})
    theta = LaurentPoly({0: 0.3, 2: -0.2, 4: -0.1})
    res = residual_thermal(theta, F, p)
    manual = theta.differentiate(2) + thermal_nonlinear(p, F, theta, MODE_SCALE_CONSISTENT).value
    diff = res - manual
    worst = max((abs(co) for _, co in diff.terms()), default=0.0)
    assert worst < 1e-14
