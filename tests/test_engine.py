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


def test_condition_checked_once_per_spec(monkeypatch):
    # A spec is frozen and checked when it is built, so its stage solves
    # never condition-check the boundary system again.
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m) or cond(m))
    spec = third_order_spec()
    assert len(calls) == 1
    solve_linear_stage(spec)
    solve_linear_stage(spec, LaurentPoly.monomial(2), homogeneous=True)
    assert len(calls) == 1


# -- auxiliary functions -----------------------------------------------------


def test_aux_assemble_and_parameter_names():
    aux = AuxFunction(
        basis=(
            ("C1", LaurentPoly.monomial(1)),
            ("C2", LaurentPoly.constant(1.0)),
        ),
    )
    assert aux.parameter_names() == ("C1", "C2")
    built = aux.assemble({"C1": 2.0, "C2": -1.0})
    assert built == LaurentPoly({0: -1.0, 1: 2.0})


def test_aux_missing_parameter():
    aux = AuxFunction(basis=(("C9", LaurentPoly.constant(1.0)),))
    with pytest.raises(MissingParameter):
        aux.assemble({"C1": 1.0})


# -- stage_basis --------------------------------------------------------------


def quadratic_nonlinearity(u0: LaurentPoly) -> NonlinearExpansion:
    # N(u) = u^2 expanded at the seed: value u0^2, first partial 2 u0.
    return NonlinearExpansion(value=u0 * u0, partials=(u0 * 2.0,))


def largest_coefficient(p: LaurentPoly) -> float:
    return max((abs(c) for _, c in p.terms()), default=0.0)


def lead_aux(name="C1", shape=LaurentPoly.constant(1.0)):
    return AuxFunction(basis=((name, shape),))


def test_run_stages_reconstructs_each_stage_equation():
    spec = third_order_spec()
    ladder = (("C2", LaurentPoly.monomial(1)), ("C3", LaurentPoly.monomial(-1, 0.5)))
    aux_set = (lead_aux(shape=LaurentPoly.constant(-2.0)), AuxFunction(basis=ladder))
    u0, columns = stage_basis(spec, quadratic_nonlinearity, aux_set)
    assert u0 == solve_linear_stage(spec)
    assert list(columns) == ["C1", "C2", "C3"]

    # Each column solves its own stage equation:
    # a''' + h0 N(u0) = 0 and b_k''' + shape_k * a * dN/du = 0.
    a = columns["C1"]
    res_a = a.differentiate(3) + LaurentPoly.constant(-2.0) * quadratic_nonlinearity(u0).value
    assert largest_coefficient(res_a) < 1e-9
    for name, shape in ladder:
        res_b = columns[name].differentiate(3) + shape * (a * (u0 * 2.0))
        assert largest_coefficient(res_b) < 1e-9, name

    # Weighted at any parameters, the stages are u1 = C1*a and
    # u2 = C1*sum_k Ck*b_k, and they solve u1''' + H0 N(u0) = 0 and
    # u2''' + H1 u1 dN/du = 0 with the multipliers assembled at those values.
    params = {"C1": -0.3, "C2": 0.8, "C3": 1.7}
    u1 = params["C1"] * a
    u2 = params["C1"] * (params["C2"] * columns["C2"] + params["C3"] * columns["C3"])
    h0 = aux_set[0].assemble(params)
    h1 = aux_set[1].assemble(params)
    res1 = u1.differentiate(3) + h0 * quadratic_nonlinearity(u0).value
    res2 = u2.differentiate(3) + h1 * u1 * (u0 * 2.0)
    assert largest_coefficient(res1) < 1e-9
    assert largest_coefficient(res2) < 1e-9


def test_apply_aux_cancels_pole_or_raises():
    # u0 = 1 - eta^2 and a ~ eta^2, so the second stage's carrier a * 2 u0
    # cancels a 1/eta shape.
    spec = third_order_spec(values=(1.0, 0.0, 0.0))
    cancels = AuxFunction(basis=(("C2", LaurentPoly.monomial(-1, 0.5)),))
    u0, columns = stage_basis(spec, quadratic_nonlinearity, (lead_aux(), cancels))
    b = columns["C2"]
    assert b.min_exponent >= 0
    res = b.differentiate(3) + LaurentPoly.monomial(-1, 0.5) * (columns["C1"] * (u0 * 2.0))
    assert largest_coefficient(res) < 1e-9

    with pytest.raises(PoleNotCancelled):  # here a(0) != 0, so a * 2 u0 keeps 1/eta^2
        forced = second_order_spec(forcing=LaurentPoly.constant(-1.0))
        keeps = AuxFunction(basis=(("C2", LaurentPoly.monomial(-2)),))
        stage_basis(forced, quadratic_nonlinearity, (lead_aux(), keeps))
    with pytest.raises(PoleNotCancelled):  # N(u0) = u0^2 is 1 at eta = 0
        stage_basis(spec, quadratic_nonlinearity, (lead_aux(shape=LaurentPoly.monomial(-1)),))


def test_stage_basis_columns_rebuild_run_stages():
    # The staged solution solved stage by stage at fixed parameters must
    # equal the columns of one pass weighted by C1 and C1*Ck.
    spec = third_order_spec()
    ladder = (("C2", LaurentPoly.monomial(1)), ("C3", LaurentPoly.monomial(-1, 0.5)))
    aux_set = (lead_aux(shape=LaurentPoly.constant(-2.0)), AuxFunction(basis=ladder))
    u0, columns = stage_basis(spec, quadratic_nonlinearity, aux_set)
    eta = np.linspace(0.0, 1.0, 21)
    for c in ({"C1": 0.7, "C2": -1.3, "C3": 2.1}, {"C1": -3.0, "C2": 0.25, "C3": 0.0}):
        expansion = quadratic_nonlinearity(u0)
        ref_u1 = solve_linear_stage(
            spec, aux_set[0].assemble(c) * expansion.value, homogeneous=True
        )
        ref_u2 = solve_linear_stage(
            spec, aux_set[1].assemble(c) * ref_u1 * expansion.partials[0], homogeneous=True
        )
        u1 = c["C1"] * columns["C1"]
        u2 = c["C1"] * (c["C2"] * columns["C2"] + c["C3"] * columns["C3"])
        assert np.max(np.abs(u1.evaluate(eta) - ref_u1.evaluate(eta))) <= 1e-13
        assert np.max(np.abs(u2.evaluate(eta) - ref_u2.evaluate(eta))) <= 1e-12


def test_stage_basis_corrections_are_homogeneous():
    spec = third_order_spec(values=(1.0, 0.0, 0.0))
    aux_set = (lead_aux(), lead_aux("C2"))
    u0, columns = stage_basis(spec, quadratic_nonlinearity, aux_set)
    for name, u in columns.items():
        assert u.evaluate(0.0) == pytest.approx(0.0, abs=1e-13), name
        assert u.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-13), name
        assert u.evaluate(1.0) == pytest.approx(0.0, abs=1e-13), name
    # Any weighted sum therefore satisfies the original conditions.
    assembled = u0 + 0.4 * columns["C1"] + (0.4 * -0.6) * columns["C2"]
    assert assembled.evaluate(0.0) == pytest.approx(1.0, abs=1e-13)
    assert assembled.evaluate(1.0) == pytest.approx(0.0, abs=1e-13)


def test_stage_basis_requires_first_aux():
    spec = third_order_spec()
    for aux_set in ((), (None,), (None, lead_aux("C2"))):
        with pytest.raises(EngineError):
            stage_basis(spec, quadratic_nonlinearity, aux_set)


def test_stage_basis_skips_missing_second_slot():
    spec = third_order_spec()
    u0, short = stage_basis(spec, quadratic_nonlinearity, (lead_aux(),))
    u0_none, with_none = stage_basis(spec, quadratic_nonlinearity, (lead_aux(), None))
    assert list(short) == list(with_none) == ["C1"]
    assert u0 == u0_none
    assert short["C1"] == with_none["C1"]

    # A zero partial gives its slot no column either.
    def flat(u):
        return NonlinearExpansion(value=u * u, partials=(ZERO,))

    assert list(stage_basis(spec, flat, (lead_aux(), lead_aux("C2")))[1]) == ["C1"]


def test_stage_basis_ignores_extra_slots():
    spec = third_order_spec()
    aux_set = (lead_aux(), lead_aux("C2"), lead_aux("C3"))  # C3 is beyond the partials
    u0, columns = stage_basis(spec, quadratic_nonlinearity, aux_set)
    assert list(columns) == ["C1", "C2"]
    res2 = columns["C2"].differentiate(3) + columns["C1"] * (u0 * 2.0)
    assert largest_coefficient(res2) < 1e-9


def test_stage_basis_rejects_multipliers_it_cannot_split():
    spec = third_order_spec()
    lead = lead_aux()
    with pytest.raises(EngineError):  # two parameters in the first multiplier
        stage_basis(spec, quadratic_nonlinearity, (AuxFunction(basis=lead.basis * 2),))
    with pytest.raises(PoleNotCancelled):  # the carrier has no eta factor to cancel 1/eta
        forced = second_order_spec(forcing=LaurentPoly.constant(-1.0))
        pole = AuxFunction(basis=(("C2", LaurentPoly.monomial(-1)),))
        stage_basis(forced, quadratic_nonlinearity, (lead, pole))
