"""Identification layer: quadrature, objective invariants, optimizer behavior."""

import functools
import math
from collections import Counter

import numpy as np
import pytest

from jhflow.cases import CASE_IDS, PAPER_PARAMS_VELOCITY, get_case
from jhflow import engine, model
from jhflow.fitting import (
    FitResult,
    ObjectiveSpec,
    _stage_basis,
    _thermal_residual_from_basis,
    _velocity_residual_from_basis,
    fit,
    gauss_legendre_01,
    levenberg_marquardt,
    objective,
    residual_vector,
    thermal_objective_spec,
    uniform_collocation,
    velocity_objective_spec,
)
from jhflow.model import (
    MODE_PAPER,
    MODE_SCALE_CONSISTENT,
    THERMAL_MODES,
    THERMAL_PARAM_NAMES,
    FlowParams,
    thermal_solution,
    velocity_solution,
)

CASE52 = get_case("5.2")


# -- quadrature rules ------------------------------------------------------------


def test_gauss_nodes_and_weights():
    nodes, weights = gauss_legendre_01()
    assert len(nodes) == len(weights) == 30
    assert all(0.0 < x < 1.0 for x in nodes)
    assert all(w > 0.0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-14)


def test_gauss_exactness_on_polynomials():
    nodes, weights = gauss_legendre_01(30)
    x = np.asarray(nodes)
    w = np.asarray(weights)
    # Exact for polynomials up to degree 59: int_0^1 eta^k = 1/(k+1).
    for k in (0, 1, 3, 10, 40, 59):
        assert float(w @ x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_uniform_collocation_rule():
    nodes, weights = uniform_collocation()
    assert len(nodes) == len(weights) == 31
    assert all(0.0 < x < 1.0 for x in nodes)
    assert sum(weights) == pytest.approx(1.0, abs=1e-14)
    assert nodes[0] == pytest.approx(1.0 / 32.0)
    assert nodes[-1] == pytest.approx(31.0 / 32.0)


def test_unknown_quadrature_rejected():
    with pytest.raises(ValueError):
        velocity_objective_spec(CASE52.params, quadrature="chebyshev")


# -- ObjectiveSpec invariants ------------------------------------------------------


def valid_spec(**overrides):
    nodes, weights = gauss_legendre_01(5)
    kwargs = dict(
        problem="velocity",
        nodes=nodes,
        weights=weights,
        parameter_names=("C1",),
    )
    kwargs.update(overrides)
    return ObjectiveSpec(**kwargs)


def test_objective_spec_accepts_valid():
    spec = valid_spec()
    assert spec.problem == "velocity"


def test_objective_spec_rejects_bad_problem():
    with pytest.raises(ValueError):
        valid_spec(problem="pressure")


def test_objective_spec_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        valid_spec(nodes=(), weights=())
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.5,), weights=(0.5, 0.5))


def test_objective_spec_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.3, 0.7), weights=(1.5, -0.5))
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.3, 0.7), weights=(1.0, 0.0))


def test_objective_spec_rejects_boundary_nodes():
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.0, 0.5), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.5, 1.0), weights=(0.5, 0.5))


def test_objective_spec_rejects_unnormalized_weights():
    with pytest.raises(ValueError):
        valid_spec(nodes=(0.3, 0.7), weights=(0.6, 0.6))


def test_objective_spec_rejects_bad_normalization():
    with pytest.raises(ValueError):
        valid_spec(normalization=0.0)


def test_thermal_normalization_positive_even_for_zero_beta():
    p = FlowParams(alpha=0.1, Re=10.0, H=0.0, Pr=1.0, beta=0.0)
    spec = thermal_objective_spec(p)
    assert spec.normalization > 0.0


# -- objective ---------------------------------------------------------------------


def test_objective_requires_every_parameter():
    spec = velocity_objective_spec(CASE52.params)
    with pytest.raises(KeyError):
        objective({"C1": 0.0}, spec, CASE52.params)


def test_objective_published_parameters_beat_zeros():
    spec = velocity_objective_spec(CASE52.params)
    zeros = {name: 0.0 for name in spec.parameter_names}
    published = PAPER_PARAMS_VELOCITY["5.2"]
    assert objective(published, spec, CASE52.params) < objective(zeros, spec, CASE52.params)


def test_objective_zero_beta_thermal_vanishes_at_zero_parameters():
    p = FlowParams(alpha=math.pi / 24, Re=50.0, H=250.0, Pr=1.0, beta=0.0)
    spec = thermal_objective_spec(p)
    zeros = {name: 0.0 for name in spec.parameter_names}
    assert objective(zeros, spec, p) == 0.0


def basis_check_points() -> list[np.ndarray]:
    """Zeros, a +/-0.01 nudge on C1, then seeded draws at three scales."""
    nudge = np.eye(7)[0] * 0.01
    points = [np.zeros(7), nudge, -nudge]
    points += list(np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 7)) * 1e-2)
    rng = np.random.default_rng(11)
    points += [rng.uniform(-1.0, 1.0, size=7) * s for s in (1e-2, 1e-1, 1.0)]
    return points


def products(x: np.ndarray) -> np.ndarray:
    """z = (C1, C1*C2, ..., C1*C7) of a coefficient vector."""
    z = x[0] * x
    z[0] = x[0]
    return z


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_basis_velocity_residual_matches_residual_vector(case_id):
    # fit minimizes the velocity residual sampled from a precomputed stage
    # basis in z = (C1, C1*C2, ..., C1*C7); it must be the residual_vector
    # objective, not an approximation.
    params = get_case(case_id).params
    spec = velocity_objective_spec(params)
    basis = _velocity_residual_from_basis(spec, params, _stage_basis(spec, params))
    for x in basis_check_points():
        reference = residual_vector(x, spec, params)
        r, _ = basis(products(x))
        assert np.max(np.abs(r - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_basis_velocity_jacobian_matches_central_difference(case_id):
    # r is quadratic in z, so a central difference is exact up to rounding.
    params = get_case(case_id).params
    spec = velocity_objective_spec(params)
    basis = _velocity_residual_from_basis(spec, params, _stage_basis(spec, params))
    for x in basis_check_points():
        z = products(x)
        _, J = basis(z)
        for j in range(z.size):
            step = 1e-3 * max(1.0, abs(z[j]))
            dz = np.eye(z.size)[j] * step
            central = (basis(z + dz)[0] - basis(z - dz)[0]) / (2.0 * step)
            assert np.max(np.abs(J[:, j] - central)) <= 1e-8 * np.max(np.abs(J)), j


def basis_specs(params):
    """The velocity spec and a thermal spec per mode, by name."""
    return {
        "velocity": velocity_objective_spec(params),
        MODE_SCALE_CONSISTENT: thermal_objective_spec(params, mode=MODE_SCALE_CONSISTENT),
        MODE_PAPER: thermal_objective_spec(params, mode=MODE_PAPER),
    }


def test_stage_basis_solves_each_stage_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("stage_basis", "solve_linear_stage"):
        wrapped = counted(name, getattr(engine, name))
        for module in (engine, model):
            monkeypatch.setattr(module, name, wrapped)
    # _stage_basis and each series solution make one stage pass apiece.
    params = CASE52.params
    c = dict.fromkeys(model.VELOCITY_PARAM_NAMES + THERMAL_PARAM_NAMES, 0.5)
    for kind, spec in basis_specs(params).items():
        if spec.problem == "velocity":
            solution = functools.partial(velocity_solution, params, c)
        else:
            solution = functools.partial(thermal_solution, params, c, mode=spec.mode)
        for build in (functools.partial(_stage_basis, spec, params), solution):
            calls.clear()
            build()
            assert calls["stage_basis"] == 1, kind
            assert 0 < calls["solve_linear_stage"] <= 3 + len(spec.parameter_names), kind


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_basis_thermal_residual_matches_residual_vector(velocity_fits, case_id):
    # fit solves its thermal least squares on node samples of the basis
    # columns; r0 + M @ C must be the residual_vector objective.  Both
    # paths round at the size of the summands r0 and M_j*C_j; at the
    # fitted C those cancel to a residual up to 1e4 times smaller, so the
    # tolerance is relative to the largest summand.
    params = get_case(case_id).params
    carrier = velocity_fits[case_id]["result"].series
    rng = np.random.default_rng(17)
    for mode in THERMAL_MODES:
        spec = thermal_objective_spec(params, mode=mode, velocity_polynomial=carrier)
        r0, M = _thermal_residual_from_basis(spec, params, _stage_basis(spec, params))
        fitted = np.array(list(fit(spec, params).parameters.values()))
        drawn = [rng.uniform(-1.0, 1.0, size=6) * 10.0 ** rng.uniform(-3, 1, size=6) for _ in range(3)]
        for c in [fitted] + drawn:
            reference = residual_vector(c, spec, params)
            gap = np.max(np.abs(r0 + M @ c - reference))
            summands = max(np.max(np.abs(r0)), np.max(np.abs(M * c)))
            assert gap <= 1e-12 * summands, (mode, c)


@pytest.mark.parametrize("mode", THERMAL_MODES)
def test_thermal_solution_is_affine_in_parameters(mode):
    # The thermal fit is one linear solve because theta is exactly
    # u0 + C8*a + sum_j Cj*b_j; check that against thermal_solution.
    params = CASE52.params
    names = THERMAL_PARAM_NAMES

    def theta(values):
        return thermal_solution(params, dict(zip(names, values)), mode=mode).assembled

    u0 = theta(np.zeros(6))
    a = theta(np.eye(6)[0]) - u0
    b = [theta(np.eye(6)[0] + np.eye(6)[j]) - u0 - a for j in range(1, 6)]
    rng = np.random.default_rng(5)
    eta = np.linspace(0.0, 1.0, 41)
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, size=6) * 10.0 ** rng.uniform(-3, 3, size=6)
        series = u0 + c[0] * a
        for cj, bj in zip(c[1:], b):
            series = series + cj * bj
        want = theta(c).evaluate(eta)
        assert np.max(np.abs(series.evaluate(eta) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", THERMAL_MODES)
def test_thermal_fit_is_a_minimum(mode):
    params = CASE52.params
    spec = thermal_objective_spec(params, mode=mode)
    result = fit(spec, params)
    assert result.converged and result.iterations == 0 and result.iteration_log == ()
    best = result.objective_value
    for name, value in result.parameters.items():
        for sign in (1.0, -1.0):
            moved = {**result.parameters, name: value * (1.0 + sign * 1e-6)}
            assert objective(moved, spec, params) >= best, f"{name} {sign:+}"


# -- levenberg_marquardt -------------------------------------------------------------


def test_lm_solves_linear_least_squares_exactly():
    M = np.array([[2.0, 0.0], [0.0, 1.0], [0.5, 0.5]])

    def fun(x):
        r = np.array([2.0 * (x[0] - 3.0), x[1] + 1.0, 0.5 * (x[0] + x[1] - 2.0)])
        return r, M

    x, iterations, converged, log = levenberg_marquardt(fun, np.zeros(2))
    assert converged
    # Normal-equations solution of the 3x2 system.
    expected = np.linalg.lstsq(
        np.array([[2.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        np.array([6.0, -1.0, 1.0]),
        rcond=None,
    )[0]
    assert x == pytest.approx(expected, abs=1e-6)


def test_lm_monotone_acceptance():
    def fun(x):
        r = np.array([x[0] ** 2 - 2.0, math.sin(x[0]) - 0.4, x[0] * 0.1])
        return r, np.array([[2.0 * x[0]], [math.cos(x[0])], [0.1]])

    _, _, _, log = levenberg_marquardt(fun, np.array([3.0]))
    objectives = [record.objective for record in log]
    assert all(b <= a + 1e-300 for a, b in zip(objectives, objectives[1:]))
    assert any(record.accepted for record in log)


def test_lm_stall_is_not_convergence():
    # The Jacobian points uphill, so every step raises the objective and
    # every damping value is rejected: a stall, not a converged fit.
    def fun(x):
        return np.array([1.0 + x[0]]), np.array([[-1.0]])

    x, iterations, converged, log = levenberg_marquardt(fun, np.zeros(1))
    assert not converged
    assert x[0] == 0.0
    assert iterations == 1 and not log[-1].accepted


def test_lm_cap_exit_is_not_convergence():
    def fun(x):
        e = math.exp(0.01 * x[0])
        return np.array([e - 0.5]), np.array([[0.01 * e]])  # slow crawl to the left

    _, iterations, converged, _ = levenberg_marquardt(
        fun, np.zeros(1), max_iterations=2
    )
    assert iterations == 2
    assert not converged


# -- fit ------------------------------------------------------------------------------


def test_fit_validates_inputs():
    # fit takes no optimizer options; a caller passing one is told so
    # rather than having it silently ignored.
    spec = velocity_objective_spec(CASE52.params)
    for option in ("seed", "starts", "method", "max_iterations"):
        with pytest.raises(TypeError):
            fit(spec, CASE52.params, **{option: 0})


def test_fit_deterministic_rerun(velocity_fits):
    entry = velocity_fits["5.2"]
    fresh = fit(entry["spec"], entry["case"].params)
    assert fresh.parameters == entry["result"].parameters  # bit-identical floats
    assert fresh.objective_value == entry["result"].objective_value
    assert fresh.residual_profile == entry["result"].residual_profile


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_fit_velocity_is_a_minimum(velocity_fits, case_id):
    # Independent of how the optimizer stopped: the exact scaled gradient
    # vanishes at the fitted z, and no +/-1e-6 relative step of a Ck lowers
    # the objective (the smallest rise seen is 2.9e-10 relative, case 5.8).
    entry = velocity_fits[case_id]
    spec, params, result = entry["spec"], entry["case"].params, entry["result"]
    assert result.converged
    c = np.array([result.parameters[name] for name in spec.parameter_names])
    fun = _velocity_residual_from_basis(spec, params, _stage_basis(spec, params))
    r, J = fun(products(c))
    cosines = np.abs(J.T @ r) / (np.linalg.norm(J, axis=0) * np.linalg.norm(r))
    assert np.max(cosines) <= 1e-10
    best = result.objective_value
    for name, value in result.parameters.items():
        for sign in (1.0, -1.0):
            moved = {**result.parameters, name: value * (1.0 + sign * 1e-6)}
            assert objective(moved, spec, params) >= best, f"{name} {sign:+}"


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_fit_series_is_the_assembled_series(velocity_fits, thermal_fits, case_id):
    # fit returns u0 plus its stage-basis columns weighted by the fitted
    # coefficients; that is the stage solution at the fitted parameters.
    eta = np.linspace(0.0, 1.0, 101)
    vel, th = velocity_fits[case_id]["result"], thermal_fits[case_id]["result"]
    params = velocity_fits[case_id]["case"].params
    F = velocity_solution(params, vel.parameters).assembled.evaluate(eta)
    assert np.max(np.abs(vel.series.evaluate(eta) - F)) <= 1e-13
    mode = thermal_fits[case_id]["spec"].mode
    theta = thermal_solution(params, th.parameters, mode=mode).assembled.evaluate(eta)
    assert np.max(np.abs(th.series.evaluate(eta) - theta)) <= 1e-13 * np.max(np.abs(theta))


def test_fit_objective_value_is_recomputed(velocity_fits):
    entry = velocity_fits["5.2"]
    reported = entry["result"].objective_value
    recomputed = objective(entry["result"].parameters, entry["spec"], entry["case"].params)
    assert abs(reported - recomputed) <= 1e-10 * max(abs(recomputed), 1e-300)


def test_fit_iteration_cap_reports_unconverged():
    spec = velocity_objective_spec(CASE52.params)
    fun = _velocity_residual_from_basis(spec, CASE52.params, _stage_basis(spec, CASE52.params))
    _, iterations, converged, _ = levenberg_marquardt(fun, np.zeros(7), max_iterations=1)
    assert iterations == 1
    assert not converged


def test_fit_residual_profile_shape(velocity_fits):
    profile = velocity_fits["5.2"]["result"].residual_profile
    assert len(profile) == 101
    assert all(math.isfinite(v) for v in profile)


def test_quadrature_doubling_stability(velocity_fits):
    entry = velocity_fits["5.7"]
    doubled_spec = velocity_objective_spec(entry["case"].params, n=60)
    doubled = fit(doubled_spec, entry["case"].params)
    base = entry["result"].objective_value
    rel = abs(base - doubled.objective_value) / max(abs(base), 1e-300)
    assert rel < 0.01


def test_thermal_fit_sequential(thermal_fits):
    entry = thermal_fits["5.2"]
    assert entry["result"].converged
    # The identified temperature respects the wall and symmetry conditions.
    theta = entry["theta"]
    assert theta.evaluate(1.0) == pytest.approx(0.0, abs=1e-10)
    assert theta.differentiate().evaluate(0.0) == pytest.approx(0.0, abs=1e-10)


def test_fit_result_record_schema(velocity_fits):
    record = velocity_fits["5.2"]["result"].to_record("5.2", "velocity", 1.23e-6)
    assert set(record) == {
        "case",
        "problem",
        "parameters",
        "objective",
        "converged",
        "maxGridErrorVsOracle",
    }
    assert record["case"] == "5.2"
    assert record["problem"] == "velocity"
    assert record["maxGridErrorVsOracle"] == 1.23e-6
