"""Reference-solution checks: RK4 accuracy, shooting, superposition, interpolation."""

import dataclasses
import math

import numpy as np
import pytest

from jhflow import oracle
from jhflow.cases import CASE_IDS, case_from_dict, get_case
from jhflow.model import FlowParams
from jhflow.oracle import (
    DEFAULT_STEP,
    NonFiniteState,
    OracleSolution,
    ShootingDiverged,
    _check_step,
    shoot_thermal,
    shoot_velocity,
    velocity_terminal,
)
from jhflow.polyalg import LaurentPoly

CASE51 = FlowParams(alpha=math.pi / 24, Re=50.0, H=0.0, Pr=1.0, beta=3.492161428e-13)


# -- rk4_step and fit_polynomial: independent tools the oracle is checked with --


def rk4_step(state, eta: float, h: float, derivs) -> np.ndarray:
    """One classical fourth-order Runge-Kutta update of a state vector."""
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(derivs(eta, y))
    k2 = np.asarray(derivs(eta + h / 2, y + h / 2 * k1))
    k3 = np.asarray(derivs(eta + h / 2, y + h / 2 * k2))
    k4 = np.asarray(derivs(eta + h, y + h * k3))
    out = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState(f"state became non-finite near eta = {eta}")
    return out


def fit_polynomial(solution: OracleSolution, degree: int = 14) -> LaurentPoly:
    """Least-squares polynomial through the dense value column.

    Fitted in a Chebyshev basis for conditioning, then converted exactly
    to monomial coefficients.
    """
    cheb = np.polynomial.chebyshev.Chebyshev.fit(
        solution.grid, solution.values[:, 0], degree, domain=[0.0, 1.0]
    )
    mono = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    return LaurentPoly({e: c for e, c in enumerate(mono.coef)})


def test_rk4_single_step_exponential():
    # y' = y, y(0) = 1, one step h = 0.1: classical RK4 gives the quartic
    # Taylor value 1 + h + h^2/2 + h^3/6 + h^4/24.
    out = rk4_step(np.array([1.0]), 0.0, 0.1, lambda x, y: y)
    assert out[0] == pytest.approx(1.1051708333333333, rel=1e-15)


def test_rk4_is_fourth_order():
    # Integrate y' = y over [0, 1] at two steps; the error ratio ~ 2^4.
    def integrate(n):
        y = np.array([1.0])
        h = 1.0 / n
        for i in range(n):
            y = rk4_step(y, i * h, h, lambda x, v: v)
        return abs(y[0] - math.e)

    ratio = integrate(50) / integrate(100)
    assert 14.0 < ratio < 18.0


def test_rk4_rejects_non_finite():
    with pytest.raises(NonFiniteState):
        rk4_step(np.array([1.0]), 0.0, 1.0, lambda x, y: np.array([math.inf]))


# -- velocity shooting ----------------------------------------------------------


def test_velocity_shooting_meets_wall_condition():
    sol = shoot_velocity(CASE51, h=1e-3)
    assert sol.terminal_miss <= 1e-12
    assert sol.at(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sol.at(0.0, "dF") == pytest.approx(0.0, abs=1e-15)
    assert abs(sol.at(1.0)) <= 1e-12


def test_velocity_shooting_parameter_value():
    # The centreline curvature for the first bundled configuration.
    sol = shoot_velocity(CASE51, h=1e-3)
    assert sol.shooting_parameter == pytest.approx(-4.62170583122845, rel=1e-9)


def test_velocity_grid_independence():
    coarse = shoot_velocity(CASE51, h=1e-3)
    fine = shoot_velocity(CASE51, h=1e-4)
    for eta in (0.25, 0.5, 0.75):
        assert coarse.at(eta) == pytest.approx(fine.at(eta), abs=1e-10)


def test_velocity_small_groups_limit():
    # With A and B nearly zero the equation degenerates to F''' = 0,
    # whose solution under these conditions is 1 - eta^2.
    tiny = FlowParams(alpha=1e-8, Re=1e-4, H=0.0)
    sol = shoot_velocity(tiny, h=1e-3)
    for eta in (0.0, 0.3, 0.6, 0.9):
        assert sol.at(eta) == pytest.approx(1.0 - eta * eta, abs=1e-9)


def test_velocity_terminal_matches_shot():
    sol = shoot_velocity(CASE51, h=1e-3)
    assert velocity_terminal(CASE51, sol.shooting_parameter, h=1e-3) == pytest.approx(
        0.0, abs=1e-12
    )


# F''(0) of the eight bundled cases at h = 1e-4, as computed by shooting
# with the full-grid secant alone.
PINNED_CURVATURE = {
    "5.1": -4.621705831227583,
    "5.2": -3.2766892031204713,
    "5.3": -2.344963913013516,
    "5.4": -1.2436274335936468,
    "5.5": -3.5394156290204175,
    "5.6": -3.0222269990961856,
    "5.7": -2.5884480715407663,
    "5.8": -1.9163527804478069,
}


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_velocity_shooting_parameter_pinned(case_id):
    sol = shoot_velocity(get_case(case_id).params, h=1e-4)
    assert sol.shooting_parameter == pytest.approx(PINNED_CURVATURE[case_id], rel=1e-10)


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_velocity_shot_integrates_full_grid_at_most_three_times(h, monkeypatch):
    # The secant runs on the coarse grid first, so the full grid only
    # refines its root.
    n = round(1.0 / h)
    full = []
    kernel = oracle._integrate_velocity

    def counted(A, B, s, steps, *args, **kwargs):
        if steps == n:
            full.append(s)
        return kernel(A, B, s, steps, *args, **kwargs)

    monkeypatch.setattr("jhflow.oracle._integrate_velocity", counted)
    for case_id in CASE_IDS:
        full.clear()
        sol = shoot_velocity(get_case(case_id).params, h=h)
        assert 1 <= len(full) <= 3, case_id
        assert full[-1] == sol.shooting_parameter


def _record_integrations(monkeypatch, n):
    """Lists of the s of every n-step integration and of every step count."""
    full, steps = [], []
    kernel = oracle._integrate_velocity

    def counted(A, B, s, m, *args, **kwargs):
        steps.append(m)
        if m == n:
            full.append(s)
        return kernel(A, B, s, m, *args, **kwargs)

    monkeypatch.setattr("jhflow.oracle._integrate_velocity", counted)
    return full, steps


def test_velocity_shot_integrates_full_grid_once_at_default_step(monkeypatch):
    # The Richardson seed from the 100- and 1000-step roots already meets
    # the terminal tolerance, so the one full-grid pass is the solution.
    full, _ = _record_integrations(monkeypatch, 10**4)
    for case_id in CASE_IDS:
        full.clear()
        sol = shoot_velocity(get_case(case_id).params, h=1e-4)
        assert full == [sol.shooting_parameter], case_id


# The coarse grids of the secant ladder at each step: levels under 100
# steps are dropped, and without any left the ladder is one grid of n // 10.
LADDER = {1e-2: [10], 5e-3: [20], 2e-3: [50], 1e-3: [100], 2e-4: [500], 1e-4: [100, 1000]}


@pytest.mark.parametrize("case_id", ["5.1", "5.4"])
@pytest.mark.parametrize("h", sorted(LADDER, reverse=True))
def test_velocity_step_ladder(case_id, h, monkeypatch):
    n = round(1.0 / h)
    _, steps = _record_integrations(monkeypatch, n)
    sol = shoot_velocity(get_case(case_id).params, h=h)
    assert sol.terminal_miss <= 1e-12
    # Each level is entered once, coarsest first, before the full grid.
    assert [m for i, m in enumerate(steps) if i == 0 or steps[i - 1] != m] == LADDER[h] + [n]


@pytest.mark.parametrize("s", [-4.62, -1.2436, 0.0])
def test_dense_rows_end_in_the_terminal_value(s):
    p = get_case("5.4").params
    rows = oracle._integrate_velocity(p.A, p.B, s, 1000, dense=True)
    assert rows.shape == (1001, 3)
    assert tuple(rows[0]) == (1.0, 0.0, s)
    assert rows[-1, 0] == oracle._integrate_velocity(p.A, p.B, s, 1000)


def _rk4_rows(derivs, state, n):
    """The n + 1 states of n rk4_step updates of size 1/n from state."""
    rows = [np.asarray(state, dtype=float)]
    for i in range(n):
        rows.append(rk4_step(rows[-1], i / n, 1.0 / n, derivs))
    return np.array(rows)


@pytest.mark.parametrize("case_id", CASE_IDS)
@pytest.mark.parametrize("n", [1, 7, 100])
def test_velocity_kernel_is_rk4_on_the_first_integral(case_id, n):
    # F'' = s + (1 - F)(A (1 + F)/2 + B) integrates F''' + A F F' + B F' = 0
    # once; the kernel must be classical RK4 on (F, F') of that equation.
    p = get_case(case_id).params
    A, B, s = p.A, p.B, PINNED_CURVATURE[case_id]

    def curvature(f):
        return s + (1.0 - f) * (A * (1.0 + f) / 2 + B)

    expected = _rk4_rows(lambda eta, y: (y[1], curvature(y[0])), (1.0, 0.0), n)
    rows = oracle._integrate_velocity(A, B, s, n, dense=True)
    for column, values in enumerate((*expected.T, curvature(expected[:, 0]))):
        scale = np.max(np.abs(values))
        assert np.max(np.abs(rows[:, column] - values)) <= 1e-14 * scale, column


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_velocity_kernel_tracks_the_three_state_system(case_id):
    # The reduction's signs and its A/2 against F''' = -A F F' - B F'
    # stepped directly at h = 1e-3.
    p = get_case(case_id).params
    A, B, s = p.A, p.B, PINNED_CURVATURE[case_id]
    expected = _rk4_rows(
        lambda eta, y: (y[1], y[2], -A * y[0] * y[1] - B * y[1]), (1.0, 0.0, s), 1000
    )
    rows = oracle._integrate_velocity(A, B, s, 1000, dense=True)
    assert np.max(np.abs(rows - expected)) <= 1e-10


def test_secant_collapsed_bracket_raises():
    # A terminal value that never drops below 1e-11 in magnitude: bisection
    # shrinks the bracket to adjacent floats, where the next trial would
    # repeat s.
    def terminal(s):
        return 1e-11 if s > 0.1 else -1e-11

    with pytest.raises(ShootingDiverged, match="collapsed.*1.000e-11"):
        oracle._secant(terminal, 0.0, 1.0, -1.0, 1.0, 1e-11, 1.0)


# alpha, Re and H at which the secant's bracket shrinks to adjacent floats
# near s = -25.582426 while |F(1)| stays above 1e-11.
COLLAPSING_CASE = {"id": "zd", "alpha": 1.1834594725616916, "Re": 1641.9174924544782,
                   "H": 2411.142874874958}


def test_velocity_collapsed_bracket_raises_shooting_diverged():
    with pytest.raises(ShootingDiverged, match="collapsed"):
        shoot_velocity(case_from_dict(COLLAPSING_CASE).params, h=1e-4)


def test_velocity_formerly_collapsing_case_converges():
    # This input collapsed the bracket of the three-state RK4 kernel, a
    # rounding accident that the first-integral kernel does not repeat.
    params = case_from_dict(
        {"id": "zd", "alpha": 1.093485762963036, "Re": 1139.484962553355,
         "H": 1932.5739439501933}
    ).params
    assert shoot_velocity(params, h=1e-4).terminal_miss <= 1e-12


def test_bad_bracket_raises():
    with pytest.raises(ShootingDiverged):
        shoot_velocity(CASE51, h=1e-2, bracket=(-30.0, -29.0))
    with pytest.raises(ValueError):
        shoot_velocity(CASE51, h=1e-2, bracket=(0.0, -30.0))


def test_step_must_divide_unit_interval():
    with pytest.raises(ValueError):
        shoot_velocity(CASE51, h=3e-4)
    with pytest.raises(ValueError):
        velocity_terminal(CASE51, -4.0, h=0.7)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, 0.6, 1e-8, 5e-324])
def test_invalid_step_rejected_before_integrating(h, monkeypatch):
    F = shoot_velocity(CASE51, h=1e-2)

    def never(*args, **kwargs):
        raise AssertionError("integrated with an invalid step")

    monkeypatch.setattr("jhflow.oracle._integrate_velocity", never)
    monkeypatch.setattr("jhflow.oracle._thermal_rows", never)
    with pytest.raises(ValueError):
        shoot_velocity(CASE51, h=h)
    with pytest.raises(ValueError):
        velocity_terminal(CASE51, -4.0, h=h)
    with pytest.raises(ValueError):
        shoot_thermal(CASE51, F, h=h)


def test_step_bounds_are_inclusive():
    assert _check_step(0.5) == 2
    assert _check_step(1e-6) == 10**6


# -- thermal superposition --------------------------------------------------------


def test_thermal_solution_boundary_conditions():
    p = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=3.492161428e-13)
    F = shoot_velocity(p, h=1e-3)
    theta = shoot_thermal(p, F, h=1e-3)
    assert theta.terminal_miss <= 1e-12
    assert abs(theta.at(1.0)) <= 1e-12
    assert theta.at(0.0, "dtheta") == pytest.approx(0.0, abs=1e-15)


def test_thermal_zero_beta_gives_zero_temperature():
    p = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=0.0)
    F = shoot_velocity(p, h=1e-3)
    theta = shoot_thermal(p, F, h=1e-3)
    assert np.max(np.abs(theta.values[:, 0])) <= 1e-15


def test_thermal_linear_in_beta():
    base = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=1e-6)
    double = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=2e-6)
    F = shoot_velocity(base, h=1e-3)
    t1 = shoot_thermal(base, F, h=1e-3)
    t2 = shoot_thermal(double, F, h=1e-3)
    for eta in (0.0, 0.4, 0.8):
        assert t2.at(eta) == pytest.approx(2.0 * t1.at(eta), rel=1e-9, abs=1e-300)


def _check_against_direct_integration(case_id, h):
    # The scanned superposition against the coupled five-state system
    # (F, F', F'', theta, theta') stepped by rk4_step from theta(0) = c.
    params = get_case(case_id).params
    F = shoot_velocity(params, h=h)
    theta = shoot_thermal(params, F, h=h)
    A, B = params.A, params.B
    a, re, pr = params.alpha, params.Re, params.Pr
    d0 = params.beta * pr * (params.H + 4.0 * a * a)
    d1 = params.beta * pr

    def derivs(eta, y):
        f0, f1, f2, t, u = y
        return (
            f1,
            f2,
            -A * f0 * f1 - B * f1,
            u,
            -(4.0 * a * a + 2.0 * a * re * pr * f0) * t - (d0 * f0 * f0 + d1 * f1 * f1),
        )

    y = np.array([1.0, 0.0, F.shooting_parameter, theta.shooting_parameter, 0.0])
    direct = [y[3]]
    for i in range(len(F.grid) - 1):
        y = rk4_step(y, i * h, h, derivs)
        direct.append(y[3])
    scale = np.max(np.abs(theta.values[:, 0]))
    assert np.max(np.abs(np.array(direct) - theta.values[:, 0])) <= 1e-12 * scale
    assert abs(direct[-1]) <= 1e-12 * scale


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_thermal_superposition_matches_direct_integration(case_id):
    _check_against_direct_integration(case_id, 1e-3)


def test_thermal_superposition_matches_direct_integration_at_default_step():
    _check_against_direct_integration("5.6", DEFAULT_STEP)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_prefix_composition_matches_sequential(n):
    # Maps near the identity, so a thousand of them stay of order one.
    rng = np.random.default_rng(n)
    maps = np.empty((6, n))
    maps[:4] = np.array([1.0, 0.0, 0.0, 1.0])[:, None] + 0.01 * rng.standard_normal((4, n))
    maps[4:] = 0.01 * rng.standard_normal((2, n))
    expected = np.empty((6, n))
    M, g = np.eye(2), np.zeros(2)
    for k in range(n):
        step = maps[:4, k].reshape(2, 2)
        M, g = step @ M, step @ g + maps[4:, k]
        expected[:4, k], expected[4:, k] = M.ravel(), g
    got = oracle._compose_prefix(maps.copy())
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_thermal_reads_velocity_rows_without_integrating(monkeypatch):
    F = shoot_velocity(CASE51, h=1e-3)
    expected = shoot_thermal(CASE51, F, h=1e-3)

    def never(*args, **kwargs):
        raise AssertionError("integrated the velocity again")

    monkeypatch.setattr("jhflow.oracle._integrate_velocity", never)
    theta = shoot_thermal(CASE51, F, h=1e-3)
    assert np.array_equal(theta.values, expected.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("row", [500, 1000])
def test_thermal_rejects_non_finite_velocity(bad, row):
    F = shoot_velocity(CASE51, h=1e-3)
    values = F.values.copy()
    values[row, 1] = bad
    with pytest.raises(NonFiniteState):
        shoot_thermal(CASE51, dataclasses.replace(F, values=values), h=1e-3)


def test_thermal_rejects_solution_without_velocity_columns():
    F = shoot_velocity(CASE51, h=1e-3)
    theta = shoot_thermal(CASE51, F, h=1e-3)
    with pytest.raises(ValueError):
        shoot_thermal(CASE51, theta, h=1e-3)


def test_thermal_grid_mismatch_rejected():
    F = shoot_velocity(CASE51, h=1e-3)
    with pytest.raises(ValueError):
        shoot_thermal(CASE51, F, h=1e-4)


# -- OracleSolution access ---------------------------------------------------------


def test_at_grid_nodes_exact_and_between_hermite():
    sol = shoot_velocity(CASE51, h=1e-3)
    # On-node lookups return the stored value bit-for-bit.
    i = 500
    assert sol.at(0.5) == sol.values[i, 0]
    assert sol.at(0.5, 1) == sol.values[i, 1]
    # Between nodes the cubic Hermite value tracks a finer grid closely.
    fine = shoot_velocity(CASE51, h=1e-4)
    x = 0.50047
    assert sol.at(x) == pytest.approx(fine.at(x), abs=1e-10)


def test_at_component_by_name_and_index_agree():
    sol = shoot_velocity(CASE51, h=1e-2)
    assert sol.at(0.3, "F") == sol.at(0.3, 0)
    assert sol.at(0.3, "dF") == sol.at(0.3, 1)


def test_at_domain_and_component_errors():
    sol = shoot_velocity(CASE51, h=1e-2)
    with pytest.raises(ValueError):
        sol.at(-0.1)
    with pytest.raises(ValueError):
        sol.at(1.2)
    with pytest.raises(ValueError):
        sol.at(0.305, "d2F")  # no stored derivative above the last column
    with pytest.raises(ValueError):
        sol.at(0.3, "missing")


def test_to_csv_full_precision(tmp_path):
    sol = shoot_velocity(CASE51, h=1e-2)
    path = tmp_path / "velocity.csv"
    sol.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "eta,F,dF,d2F"
    assert len(lines) == 102
    row = lines[51].split(",")
    assert float(row[0]) == 0.5
    # 17 significant digits round-trip the float64 exactly.
    assert float(row[1]) == sol.values[50, 0]


# -- polynomial condensation ---------------------------------------------------


def test_fit_polynomial_tracks_solution():
    sol = shoot_velocity(CASE51, h=1e-3)
    poly = fit_polynomial(sol, degree=14)
    grid = np.linspace(0.0, 1.0, 101)
    dense = np.array([sol.at(x) for x in grid])
    assert np.max(np.abs(poly.evaluate(grid) - dense)) < 1e-9


def test_fit_polynomial_recovers_exact_polynomial():
    # A solution whose value column is itself a cubic comes back exactly.
    grid = np.linspace(0.0, 1.0, 101)
    vals = 1.0 - 0.5 * grid**2 + 0.25 * grid**3
    deriv = -grid + 0.75 * grid**2
    sol = OracleSolution(
        grid=grid,
        values=np.column_stack([vals, deriv]),
        columns=("F", "dF"),
        shooting_parameter=0.0,
        terminal_miss=0.0,
    )
    poly = fit_polynomial(sol, degree=3)
    assert poly.coefficient(0) == pytest.approx(1.0, abs=1e-12)
    assert poly.coefficient(2) == pytest.approx(-0.5, abs=1e-12)
    assert poly.coefficient(3) == pytest.approx(0.25, abs=1e-12)
