"""Least-squares identification of the solution-series control parameters.

The assembled two-correction solution depends on a small vector of free
constants.  This module picks those constants by minimizing the integrated
squared defect of the governing equation over [0, 1], sampled with a fixed
quadrature rule.  Both series are affine in a known parameter vector, and
the identification uses that structure:

- theta = u0 + C8*a + sum_j Cj*b_j and the temperature equation is linear,
  so the thermal defect is affine in C8..C13 and one linear least-squares
  solve gives the exact minimizer.
- F = u0 + z1*a + sum_k zk*b_k in the products z = (C1, C1*C2, ..., C1*C7),
  so the velocity defect is quadratic in z and its Jacobian is exact.  One
  Levenberg-Marquardt run from z = 0 minimizes it, and it reports
  converged only when MINPACK's scaled-gradient or relative-step test
  passed (More, "The Levenberg-Marquardt algorithm: implementation and
  theory", 1978).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .model import (
    MODE_SCALE_CONSISTENT,
    THERMAL_PARAM_NAMES,
    VELOCITY_PARAM_NAMES,
    FlowParams,
    residual_thermal,
    residual_velocity,
    thermal_solution,
    velocity_seed,
    velocity_solution,
)
from .polyalg import LaurentPoly


# Tighter tests (1e-14 on the gradient, 1e-12 on the step) leave bundled
# cases in a rounding stall short of both; re-measure before lowering them.
_GRAD_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-10
_MAX_ITERATIONS = 500
_MAX_DAMPING = 1e14


def gauss_legendre_01(n: int = 30) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights mapped to (0, 1); weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple((x + 1.0) / 2.0), tuple(w / 2.0)


def uniform_collocation(n: int = 31) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Equal-weight interior collocation nodes k/(n+1); weights sum to 1."""
    nodes = tuple(k / (n + 1.0) for k in range(1, n + 1))
    return nodes, tuple(1.0 / n for _ in range(n))


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to minimize: problem, sampling rule, parameters and scaling.

    For the thermal problem the governing equation consumes a velocity
    profile; the identification is sequential (velocity first), so the
    profile is carried here as a fixed polynomial.  When absent, the
    velocity seed 1 - eta^2 is used.
    """

    problem: str
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    parameter_names: tuple[str, ...]
    normalization: float = 1.0
    mode: str = MODE_SCALE_CONSISTENT
    velocity_polynomial: LaurentPoly | None = None

    def __post_init__(self):
        if self.problem not in ("velocity", "thermal"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise ValueError("nodes and weights must be non-empty and paired")
        if any(w <= 0 for w in self.weights):
            raise ValueError("quadrature weights must be positive")
        if any(not 0.0 < x < 1.0 for x in self.nodes):
            raise ValueError("quadrature nodes must lie strictly inside (0, 1)")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")


def velocity_objective_spec(
    params: FlowParams, quadrature: str = "gauss", n: int | None = None
) -> ObjectiveSpec:
    nodes, weights = _quadrature(quadrature, n)
    return ObjectiveSpec(
        problem="velocity",
        nodes=nodes,
        weights=weights,
        parameter_names=VELOCITY_PARAM_NAMES,
    )


def thermal_objective_spec(
    params: FlowParams,
    mode: str = MODE_SCALE_CONSISTENT,
    velocity_polynomial: LaurentPoly | None = None,
    quadrature: str = "gauss",
    n: int | None = None,
) -> ObjectiveSpec:
    """Thermal spec; residuals are divided by the dissipation magnitude.

    The divisor beta*Pr*(H + 4 alpha^2), around 1e-13 for the bundled
    cases, measures the temperature defect in units of the dissipation
    source.  It rescales the objective and leaves its minimiser alone.
    In scale-consistent mode the series lives at the source's scale and
    the fitted objectives of the bundled cases read about 1e-9 to 0.3.
    In paper mode the series keeps the unit-size seed of the printed
    decomposition, which the divisor does not scale, so they read about
    6e10 to 6e19; objectives compare within a mode, not across modes.
    """
    nodes, weights = _quadrature(quadrature, n)
    scale = params.beta * params.Pr * (params.H + 4.0 * params.alpha**2) + 1e-300
    return ObjectiveSpec(
        problem="thermal",
        nodes=nodes,
        weights=weights,
        parameter_names=THERMAL_PARAM_NAMES,
        normalization=scale,
        mode=mode,
        velocity_polynomial=velocity_polynomial,
    )


def _quadrature(kind: str, n: int | None):
    if kind == "gauss":
        return gauss_legendre_01(30 if n is None else n)
    if kind == "uniform":
        return uniform_collocation(31 if n is None else n)
    raise ValueError(f"unknown quadrature {kind!r}")


def assemble(values: Sequence[float], spec: ObjectiveSpec, params: FlowParams):
    """Stage solution at a raw parameter vector."""
    named = dict(zip(spec.parameter_names, (float(v) for v in values)))
    if spec.problem == "velocity":
        return velocity_solution(params, named)
    return thermal_solution(params, named, mode=spec.mode)


def _defect(
    series: LaurentPoly, spec: ObjectiveSpec, params: FlowParams
) -> LaurentPoly:
    """Defect of the governing equation of spec's problem at a series."""
    if spec.problem == "velocity":
        return residual_velocity(series, params)
    carrier = spec.velocity_polynomial
    if carrier is None:
        carrier = velocity_seed()
    return residual_thermal(series, carrier, params)


def _weighted(defect: LaurentPoly, spec: ObjectiveSpec) -> np.ndarray:
    """sqrt(w_q) * R(eta_q) / normalization; objective is its squared norm."""
    samples = defect.evaluate(np.asarray(spec.nodes)) / spec.normalization
    return np.sqrt(np.asarray(spec.weights)) * samples


def residual_vector(
    values: Sequence[float], spec: ObjectiveSpec, params: FlowParams
) -> np.ndarray:
    """The weighted defect (_weighted) at the assembled solution."""
    series = assemble(values, spec, params).assembled
    return _weighted(_defect(series, spec, params), spec)


def _lead_index(spec: ObjectiveSpec) -> int:
    """Slot of the constant that every correction is proportional to."""
    names = VELOCITY_PARAM_NAMES if spec.problem == "velocity" else THERMAL_PARAM_NAMES
    return spec.parameter_names.index(names[0])


def _stage_basis(spec: ObjectiveSpec, params: FlowParams) -> list[LaurentPoly]:
    """Seed u0, then one series column per parameter slot.

    With the lead constant L (C1 or C8) and the others Ck, the first
    correction is L times a fixed polynomial a.  The second correction is a
    sum of fixed polynomials b_k, weighted by L*Ck for the velocity (its
    right-hand side is bilinear in u1 and the multiplier) and by Ck for the
    temperature (its multiplier divides by C8).  The seed does not depend
    on the constants.  The columns are read off the stage solution at L = 1
    (u0 and u1 = a) and at L = Ck = 1 (u2 = b_k), in the order of
    spec.parameter_names.
    """
    unit = np.eye(len(spec.parameter_names))
    lead = _lead_index(spec)
    first = assemble(unit[lead], spec, params)
    columns = [first.u0]
    for k, row in enumerate(unit):
        stage = first.u1 if k == lead else assemble(unit[lead] + row, spec, params).u2
        columns.append(stage)
    return columns


def _velocity_residual_from_basis(
    spec: ObjectiveSpec, params: FlowParams, columns: Sequence[LaurentPoly]
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """residual_vector of a velocity spec and its Jacobian, as functions of z.

    z holds C1 in C1's slot and C1*Ck in the slot of every other Ck, so the
    series is u0 plus the columns of _stage_basis weighted by z.  F, F'
    and F''' of each column are sampled once at the nodes, so every
    evaluation after that is a few small matrix products.  With c = (1, z) the
    residual S*(F'''c + A*(Fc)*(F'c) + B*F'c) is quadratic in z, so its
    Jacobian S*(F''' + A*(diag(F'c) F + diag(Fc) F') + B*F'), without the
    column of the constant 1, is exact.
    """
    eta = np.asarray(spec.nodes)
    F, dF, d3F = (
        np.column_stack([c.differentiate(k).evaluate(eta) for c in columns])
        for k in (0, 1, 3)
    )
    scale = np.sqrt(np.asarray(spec.weights)) / spec.normalization
    A, B = params.A, params.B

    def fun(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeffs = np.concatenate(([1.0], z))
        f, df = F @ coeffs, dF @ coeffs
        r = scale * (d3F @ coeffs + A * (f * df) + B * df)
        J = d3F + A * (df[:, None] * F + f[:, None] * dF) + B * dF
        return r, scale[:, None] * J[:, 1:]

    return fun


def _thermal_least_squares(
    spec: ObjectiveSpec, params: FlowParams, columns: Sequence[LaurentPoly]
) -> np.ndarray:
    """The parameters that minimize a thermal objective, by one lstsq solve.

    residual_thermal is affine in theta, so the weighted defect of
    u0 + sum_k Ck*column_k is r0 + M @ C: r0 is the defect of u0, and each
    column of M is the defect of a stage-basis column less that of theta = 0.
    """
    eta = np.asarray(spec.nodes)
    scale = np.sqrt(np.asarray(spec.weights)) / spec.normalization

    def weighted(theta: LaurentPoly) -> np.ndarray:
        return scale * _defect(theta, spec, params).evaluate(eta)

    seed, *rest = columns
    source = weighted(LaurentPoly.zero())
    M = np.column_stack([weighted(c) - source for c in rest])
    return np.linalg.lstsq(M, -weighted(seed), rcond=None)[0]


def objective(
    params_map: Mapping[str, float], spec: ObjectiveSpec, params: FlowParams
) -> float:
    """Quadrature value of the squared normalized defect."""
    missing = [name for name in spec.parameter_names if name not in params_map]
    if missing:
        raise KeyError(f"missing parameters: {missing}")
    vec = [params_map[name] for name in spec.parameter_names]
    r = residual_vector(vec, spec, params)
    return float(r @ r)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    damping: float
    accepted: bool


@dataclass(frozen=True)
class FitResult:
    """Outcome of one minimization; series is the fitted polynomial."""

    parameters: dict[str, float]
    objective_value: float
    iterations: int
    converged: bool
    residual_profile: tuple[float, ...]
    series: LaurentPoly
    iteration_log: tuple[IterationRecord, ...] = field(repr=False, default=())

    def to_record(self, case_id: str, problem: str, max_grid_error: float) -> dict:
        return {
            "case": case_id,
            "problem": problem,
            "parameters": dict(self.parameters),
            "objective": self.objective_value,
            "converged": self.converged,
            "maxGridErrorVsOracle": max_grid_error,
        }


def levenberg_marquardt(
    fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: Sequence[float],
    max_iterations: int = _MAX_ITERATIONS,
) -> tuple[np.ndarray, int, bool, list[IterationRecord]]:
    """Damped Gauss-Newton on a residual vector with monotone acceptance.

    fun(x) returns the residual r and its Jacobian J.  Returns (x,
    iterations, converged, log); accepted steps never increase the
    objective r @ r.  converged is True exactly when one of two tests
    passed: the scaled gradient max_j |J_j.r| / (|J_j| |r|) is at most
    1e-10 (or r = 0), or an accepted step dx has |dx| <= 1e-10 |x|.  When
    no damping value admits a step, or the iteration cap comes first, x is
    the last accepted point and converged is False.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, J = fun(x)
    obj = float(r @ r)
    lam = 1e-3
    log: list[IterationRecord] = []
    iteration = 0
    while not _gradient_converged(r, J):
        if iteration == max_iterations:
            return x, iteration, False, log
        iteration += 1
        JtJ, g = J.T @ J, J.T @ r
        scale = np.diag(JtJ).copy()
        scale[scale == 0.0] = 1.0
        accepted = False
        while not accepted and lam <= _MAX_DAMPING:
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + step
            r_trial, J_trial = fun(trial)
            obj_trial = float(r_trial @ r_trial)
            accepted = bool(np.isfinite(obj_trial) and obj_trial < obj)
            if accepted:
                x, r, J, obj = trial, r_trial, J_trial, obj_trial
                lam = max(lam * 0.3, 1e-12)
            else:
                lam *= 10.0
        log.append(IterationRecord(iteration, obj, lam, accepted))
        if not accepted:
            return x, iteration, False, log
        if np.linalg.norm(step) <= _STEP_TOLERANCE * np.linalg.norm(x):
            return x, iteration, True, log
    return x, iteration, True, log


def _gradient_converged(r: np.ndarray, J: np.ndarray) -> bool:
    """MINPACK's scaled-gradient test; a zero column of J never blocks it."""
    r_norm = np.linalg.norm(r)
    if r_norm == 0.0:
        return True
    col_norms = np.linalg.norm(J, axis=0)
    live = col_norms > 0.0
    cosines = np.abs(J.T @ r)[live] / (col_norms[live] * r_norm)
    return bool(np.all(cosines <= _GRAD_TOLERANCE))


def fit(spec: ObjectiveSpec, params: FlowParams) -> FitResult:
    """Minimizer of the objective: exact for a thermal spec, one LM run for velocity.

    A thermal objective is minimized by one linear least-squares solve
    (_thermal_least_squares), which reports converged=True after 0
    iterations.

    A velocity objective is minimized by levenberg_marquardt from z = 0 in
    the products z of _velocity_residual_from_basis, with the exact
    Jacobian.  The result is mapped back to C1 = z1, Ck = zk/z1, or to
    zeros when z1 = 0.  Both fits are deterministic.

    The returned series is the seed plus the stage-basis columns weighted
    by the fitted coefficients (z, or C8..C13), which is the assembled
    series at the returned parameters.  The objective value and the
    101-point residual profile are computed from that series, not taken
    from the optimizer's running value.
    """
    columns = _stage_basis(spec, params)
    if spec.problem == "thermal":
        coefficients = x = _thermal_least_squares(spec, params, columns)
        iters, converged, log = 0, True, []
    else:
        lead = _lead_index(spec)
        coefficients, iters, converged, log = levenberg_marquardt(
            _velocity_residual_from_basis(spec, params, columns),
            np.zeros(len(spec.parameter_names)),
        )
        if coefficients[lead] == 0.0:  # C1 = 0 cancels both corrections
            coefficients = np.zeros_like(coefficients)
        x = coefficients / (coefficients[lead] or 1.0)
        x[lead] = coefficients[lead]
    series = sum(
        (float(v) * column for v, column in zip(coefficients, columns[1:])), columns[0]
    )
    defect = _defect(series, spec, params)
    r = _weighted(defect, spec)
    profile = defect.evaluate(np.linspace(0.0, 1.0, 101)) / spec.normalization
    return FitResult(
        parameters=dict(zip(spec.parameter_names, (float(v) for v in x))),
        objective_value=float(r @ r),
        iterations=iters,
        converged=converged,
        residual_profile=tuple(float(v) for v in profile),
        series=series,
        iteration_log=tuple(log),
    )
