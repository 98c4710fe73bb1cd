"""Stage solver checks: closed forms, boundary conditions, failure modes."""

import numpy as np
import pytest

from jhflow.engine import (
    AuxFunction,
    BoundaryCondition,
    EngineError,
    LinearProblemSpec,
    MissingParameter,
    NonlinearExpansion,
    PoleNotCancelled,
    SingularBoundarySystem,
    apply_aux_function,
    run_stages,
    solve_linear_stage,
    stage_basis,
)
from jhflow.polyalg import ZERO, LaurentPoly


def second_order_spec(forcing=ZERO, u_at_1=0.0, du_at_0=0.0):
    return LinearProblemSpec(
        derivative_order=2,
        conditions=(
            BoundaryCondition(1.0, 0, u_at_1),
            BoundaryCondition(0.0, 1, du_at_0),
        ),
        forcing=forcing,
    )


def third_order_spec(forcing=ZERO, values=(1.0, 0.0, 0.0)):
    return LinearProblemSpec(
        derivative_order=3,
        conditions=(
            BoundaryCondition(0.0, 0, values[0]),
            BoundaryCondition(0.0, 1, values[1]),
            BoundaryCondition(1.0, 0, values[2]),
        ),
        forcing=forcing,
    )


# -- solve_linear_stage ------------------------------------------------------


def test_constant_forcing_second_order_closed_form():
    # u'' - 1 = 0, u(1) = 0, u'(0) = 0  =>  u = (eta^2 - 1) / 2
    sol = solve_linear_stage(second_order_spec(LaurentPoly.constant(-1.0)))
    assert sol == LaurentPoly({0: -0.5, 2: 0.5})


def test_zero_forcing_third_order_closed_form():
    # u''' = 0 with u(0) = 1, u'(0) = 0, u(1) = 0  =>  u = 1 - eta^2
    sol = solve_linear_stage(third_order_spec())
    assert sol.coefficient(0) == pytest.approx(1.0)
    assert sol.coefficient(2) == pytest.approx(-1.0)
    assert abs(sol.coefficient(1)) < 1e-14
    assert abs(sol.coefficient(3)) < 1e-14


def test_monomial_forcing_closed_form():
    # u'' + eta = 0, u(1) = 0, u'(0) = 0  =>  u = (1 - eta^3) / 6
    sol = solve_linear_stage(second_order_spec(LaurentPoly.monomial(1)))
    assert sol.coefficient(3) == pytest.approx(-1.0 / 6.0)
    assert sol.coefficient(0) == pytest.approx(1.0 / 6.0)


def test_boundary_conditions_satisfied_for_random_rhs():
    rng = np.random.default_rng(4242)
    spec = third_order_spec(values=(0.7, -0.3, 0.2))
    for _ in range(40):
        degree = int(rng.integers(0, 7))
        rhs = LaurentPoly({e: float(rng.normal()) for e in range(degree + 1)})
        sol = solve_linear_stage(spec, rhs)
        assert sol.evaluate(0.0) == pytest.approx(0.7, abs=1e-12)
        assert sol.differentiate().evaluate(0.0) == pytest.approx(-0.3, abs=1e-12)
        assert sol.evaluate(1.0) == pytest.approx(0.2, abs=1e-12)
        # And the operator itself: u''' + rhs = 0 coefficient-wise.
        back = sol.differentiate(3) + rhs
        worst = max((abs(c) for _, c in back.terms()), default=0.0)
        assert worst < 1e-9


def test_homogeneous_flag_zeroes_conditions_and_forcing():
    spec = third_order_spec(LaurentPoly.constant(5.0), values=(1.0, 2.0, 3.0))
    sol = solve_linear_stage(spec, LaurentPoly.monomial(2, -6.0), homogeneous=True)
    # Forcing dropped: u''' = 6 eta^2 integrates to 0.1 eta^5 + cubic correction.
    assert sol.coefficient(5) == pytest.approx(0.1)
    assert sol.evaluate(0.0) == pytest.approx(0.0, abs=1e-14)
    assert sol.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-14)
    assert sol.evaluate(1.0) == pytest.approx(0.0, abs=1e-14)


def test_stage_solver_is_linear_in_rhs():
    spec = second_order_spec()
    r1 = LaurentPoly({0: 1.0, 2: -3.0})
    r2 = LaurentPoly({1: 2.0, 4: 0.5})
    combined = solve_linear_stage(spec, r1 + r2, homogeneous=True)
    split = solve_linear_stage(spec, r1, homogeneous=True) + solve_linear_stage(
        spec, r2, homogeneous=True
    )
    for e in range(7):
        assert combined.coefficient(e) == pytest.approx(split.coefficient(e), abs=1e-14)


def test_rhs_with_pole_rejected():
    with pytest.raises(EngineError):
        solve_linear_stage(second_order_spec(), LaurentPoly.monomial(-1), homogeneous=True)


def test_spec_validation():
    with pytest.raises(EngineError):
        LinearProblemSpec(0, ())
    with pytest.raises(EngineError):
        LinearProblemSpec(2, (BoundaryCondition(0.0, 0, 0.0),))
    with pytest.raises(EngineError):
        # Condition differentiates as often as the operator order.
        LinearProblemSpec(
            1, (BoundaryCondition(0.0, 1, 0.0),)
        )
    with pytest.raises(EngineError):
        BoundaryCondition(0.5, 0, 0.0)
    with pytest.raises(EngineError):
        BoundaryCondition(0.0, -1, 0.0)


def test_singular_condition_system():
    with pytest.raises(SingularBoundarySystem):
        LinearProblemSpec(
            2,
            (
                BoundaryCondition(1.0, 0, 0.0),
                BoundaryCondition(1.0, 0, 1.0),
            ),
        )


# -- auxiliary functions -----------------------------------------------------


def test_aux_assemble_and_parameter_names():
    aux = AuxFunction(
        basis=(
            ("C1", LaurentPoly.monomial(1)),
            ("C2", LaurentPoly.constant(1.0)),
        ),
        constant_part=LaurentPoly.constant(0.25),
    )
    assert aux.parameter_names() == ("C1", "C2")
    built = aux.assemble({"C1": 2.0, "C2": -1.0})
    assert built == LaurentPoly({0: -0.75, 1: 2.0})


def test_aux_missing_parameter():
    aux = AuxFunction(basis=(("C9", LaurentPoly.constant(1.0)),))
    with pytest.raises(MissingParameter):
        aux.assemble({"C1": 1.0})


def test_apply_aux_cancels_pole_or_raises():
    aux = AuxFunction(basis=(("C5", LaurentPoly.monomial(-1)),))
    carrier = LaurentPoly.monomial(3, 2.0)
    out = apply_aux_function(aux, {"C5": 0.5}, carrier)
    assert out == LaurentPoly({2: 1.0})
    with pytest.raises(PoleNotCancelled):
        apply_aux_function(aux, {"C5": 0.5}, LaurentPoly.constant(1.0))


# -- run_stages ---------------------------------------------------------------


def quadratic_nonlinearity(u0: LaurentPoly) -> NonlinearExpansion:
    # N(u) = u^2 expanded at the seed: value u0^2, first partial 2 u0.
    return NonlinearExpansion(value=u0 * u0, partials=(u0 * 2.0,))


def test_run_stages_reconstructs_each_stage_equation():
    spec = third_order_spec()
    aux_set = (
        AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),)),
        AuxFunction(basis=(("C2", LaurentPoly.monomial(1)),)),
    )
    params = {"C1": -0.3, "C2": 0.8}
    sol = run_stages(spec, quadratic_nonlinearity, aux_set, params)

    # Stage one: u1''' + H0 N(u0) = 0 with homogeneous conditions.
    h0 = aux_set[0].assemble(params)
    res1 = sol.u1.differentiate(3) + h0 * quadratic_nonlinearity(sol.u0).value
    assert max((abs(c) for _, c in res1.terms()), default=0.0) < 1e-9

    # Stage two: u2''' + H1 u1 dN/du = 0.
    h1 = aux_set[1].assemble(params)
    res2 = sol.u2.differentiate(3) + h1 * sol.u1 * (sol.u0 * 2.0)
    assert max((abs(c) for _, c in res2.terms()), default=0.0) < 1e-9

    assert sol.assembled == sol.u0 + sol.u1 + sol.u2


def test_run_stages_homogeneous_corrections():
    spec = third_order_spec(values=(1.0, 0.0, 0.0))
    aux_set = (
        AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),)),
        AuxFunction(basis=(("C2", LaurentPoly.constant(1.0)),)),
    )
    sol = run_stages(spec, quadratic_nonlinearity, aux_set, {"C1": 0.4, "C2": -0.6})
    for u in (sol.u1, sol.u2):
        assert u.evaluate(0.0) == pytest.approx(0.0, abs=1e-13)
        assert u.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-13)
        assert u.evaluate(1.0) == pytest.approx(0.0, abs=1e-13)
    # The assembled sum therefore satisfies the original conditions.
    assert sol.assembled.evaluate(0.0) == pytest.approx(1.0, abs=1e-13)
    assert sol.assembled.evaluate(1.0) == pytest.approx(0.0, abs=1e-13)


def test_run_stages_zero_parameters_collapse_to_seed():
    spec = third_order_spec()
    aux_set = (
        AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),)),
        AuxFunction(basis=(("C2", LaurentPoly.constant(1.0)),)),
    )
    sol = run_stages(spec, quadratic_nonlinearity, aux_set, {"C1": 0.0, "C2": 0.0})
    assert sol.u1 == ZERO
    assert sol.u2 == ZERO
    assert sol.assembled == sol.u0


def test_run_stages_requires_first_aux():
    spec = third_order_spec()
    with pytest.raises(EngineError):
        run_stages(spec, quadratic_nonlinearity, (), {})
    with pytest.raises(EngineError):
        run_stages(spec, quadratic_nonlinearity, (None,), {})


def test_run_stages_skips_missing_second_slot():
    spec = third_order_spec()
    aux0 = AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),))
    short = run_stages(spec, quadratic_nonlinearity, (aux0,), {"C1": 0.5})
    with_none = run_stages(spec, quadratic_nonlinearity, (aux0, None), {"C1": 0.5})
    assert short.u2 == ZERO
    assert with_none.u2 == ZERO
    assert short.u1 == with_none.u1


def test_run_stages_ignores_extra_slots():
    spec = third_order_spec()
    aux_set = (
        AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),)),
        AuxFunction(basis=(("C2", LaurentPoly.constant(1.0)),)),
        AuxFunction(basis=(("C3", LaurentPoly.constant(1.0)),)),  # beyond partials
    )
    sol = run_stages(spec, quadratic_nonlinearity, aux_set, {"C1": 0.4, "C2": 0.2, "C3": 9.0})
    res2 = sol.u2.differentiate(3) + aux_set[1].assemble({"C2": 0.2}) * sol.u1 * (sol.u0 * 2.0)
    assert max((abs(c) for _, c in res2.terms()), default=0.0) < 1e-9


# -- stage_basis --------------------------------------------------------------


def test_stage_basis_columns_rebuild_run_stages():
    # u1 = L*a and u2 = L*sum_k Ck*b_k, so the columns of one pass weight
    # back to the staged solution at any parameters.
    spec = third_order_spec()
    ladder = (("C2", LaurentPoly.monomial(1)), ("C3", LaurentPoly.monomial(-1, 0.5)))
    aux_set = (
        AuxFunction(basis=(("C1", LaurentPoly.constant(-2.0)),)),
        AuxFunction(basis=ladder),
    )
    u0, columns = stage_basis(spec, quadratic_nonlinearity, aux_set)
    assert list(columns) == ["C1", "C2", "C3"]
    eta = np.linspace(0.0, 1.0, 21)
    for c in ({"C1": 0.7, "C2": -1.3, "C3": 2.1}, {"C1": -3.0, "C2": 0.25, "C3": 0.0}):
        sol = run_stages(spec, quadratic_nonlinearity, aux_set, c)
        assert u0 == sol.u0
        u1 = c["C1"] * columns["C1"]
        u2 = c["C1"] * (c["C2"] * columns["C2"] + c["C3"] * columns["C3"])
        assert np.max(np.abs(u1.evaluate(eta) - sol.u1.evaluate(eta))) <= 1e-13
        assert np.max(np.abs(u2.evaluate(eta) - sol.u2.evaluate(eta))) <= 1e-12


def test_stage_basis_rejects_multipliers_it_cannot_split():
    spec = third_order_spec()
    lead = AuxFunction(basis=(("C1", LaurentPoly.constant(1.0)),))
    with pytest.raises(EngineError):
        stage_basis(spec, quadratic_nonlinearity, ())
    with pytest.raises(EngineError):  # two parameters in the first multiplier
        stage_basis(spec, quadratic_nonlinearity, (AuxFunction(basis=lead.basis * 2),))
    with pytest.raises(EngineError):  # a constant part is not linear in the parameters
        shifted = AuxFunction(basis=(("C2", LaurentPoly.monomial(1)),), constant_part=LaurentPoly.constant(1.0))
        stage_basis(spec, quadratic_nonlinearity, (lead, shifted))
    with pytest.raises(PoleNotCancelled):  # the carrier has no eta factor to cancel 1/eta
        forced = second_order_spec(forcing=LaurentPoly.constant(-1.0))
        pole = AuxFunction(basis=(("C2", LaurentPoly.monomial(-1)),))
        stage_basis(forced, quadratic_nonlinearity, (lead, pole))
