"""Independent finite-difference reference solutions by RK4 shooting.

The velocity problem is integrated as a first-order system in
(F, F', F'') with the missing curvature F''(0) found by a bracketed
secant iteration on the terminal value F(1).  The temperature problem is
linear in theta, so it is solved by superposing two trial integrations of
the coupled five-state system and taking the affine combination that
meets theta(1) = 0 exactly; a final integration re-verifies the terminal
value.  Nothing here shares code with the staged-homotopy solver, so the
two routes check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import FlowParams
from .polyalg import LaurentPoly

__all__ = [
    "OracleSolution",
    "rk4_step",
    "shoot_velocity",
    "shoot_thermal",
    "fit_polynomial",
    "OracleError",
    "NonFiniteState",
    "ShootingDiverged",
    "DegenerateHomogeneous",
    "DEFAULT_STEP",
    "SHOOTING_BRACKET",
    "TERMINAL_TOLERANCE",
]

DEFAULT_STEP = 1e-4
# All bundled configurations have F''(0) well inside this bracket.
SHOOTING_BRACKET = (-30.0, 0.0)
TERMINAL_TOLERANCE = 1e-12
_MAX_SHOTS = 100
_MAX_STEPS = 10**6


class OracleError(RuntimeError):
    """Base class for reference-solution failures."""


class NonFiniteState(OracleError):
    """The integration state stopped being finite."""


class ShootingDiverged(OracleError):
    """The shooting iteration failed to meet the terminal tolerance."""


class DegenerateHomogeneous(OracleError):
    """The two thermal trials cannot be combined: their difference vanishes."""


class _BlowUp(Exception):
    """Internal: trial integration left the representable range."""

    def __init__(self, sign: float):
        self.sign = sign


# Trial integrations past this magnitude only contribute their sign.
_BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class OracleSolution:
    """Dense grid solution of one problem.

    values[i] holds the state at grid[i]; columns names the state
    components, value first and derivatives after, so columns j and j+1
    are a (value, derivative) pair usable for Hermite interpolation.
    """

    grid: np.ndarray
    values: np.ndarray
    columns: tuple[str, ...]
    shooting_parameter: float
    terminal_miss: float

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def at(self, eta: float, component: int | str = 0) -> float:
        """Value at a grid node (exact) or between nodes (cubic Hermite)."""
        if isinstance(component, str):
            component = self.columns.index(component)
        n = len(self.grid) - 1
        x = float(eta)
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        pos = x * n
        i = int(round(pos))
        if abs(pos - i) < 1e-9:
            return float(self.values[i, component])
        if component + 1 >= self.values.shape[1]:
            raise ValueError("no stored derivative for the last component")
        i = min(int(pos), n - 1)
        h = self.step
        t = (x - self.grid[i]) / h
        y0, y1 = self.values[i, component], self.values[i + 1, component]
        d0, d1 = self.values[i, component + 1] * h, self.values[i + 1, component + 1] * h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return float(h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1)

    def to_csv(self, path) -> None:
        """Write eta plus the state columns at 17 significant digits."""
        lines = ["eta," + ",".join(self.columns)]
        for eta, row in zip(self.grid, self.values):
            lines.append(",".join(f"{v:.17g}" for v in (eta, *row)))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


def rk4_step(state, eta: float, h: float, derivs: Callable) -> np.ndarray:
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


def _check_step(h: float) -> int:
    """Number of steps of size h across [0, 1], checked before any allocation.

    h must be finite, lie in (0, 0.5], divide [0, 1] evenly and give at most
    10**6 steps.
    """
    if not (math.isfinite(h) and 0.0 < h <= 0.5):
        raise ValueError(f"step must be finite and in (0, 0.5], got h = {h}")
    if h * _MAX_STEPS < 1.0 - 1e-9:
        raise ValueError(f"step must give at most {_MAX_STEPS} steps, got h = {h}")
    n = round(1.0 / h)
    if abs(n * h - 1.0) > 1e-9:
        raise ValueError(f"step must divide [0, 1] evenly, got h = {h}")
    return n


def _integrate_velocity(A: float, B: float, s: float, n: int) -> np.ndarray:
    """Dense (F, F', F'') rows from F(0)=1, F'(0)=0, F''(0)=s; scalar RK4."""
    h = 1.0 / n
    out = np.empty((n + 1, 3))
    f0, f1, f2 = 1.0, 0.0, s
    out[0] = (f0, f1, f2)
    for i in range(n):
        # k-stages of the autonomous system (F' , F'' , -A F F' - B F').
        a1, b1, c1 = f1, f2, -A * f0 * f1 - B * f1
        y0, y1, y2 = f0 + h / 2 * a1, f1 + h / 2 * b1, f2 + h / 2 * c1
        a2, b2, c2 = y1, y2, -A * y0 * y1 - B * y1
        y0, y1, y2 = f0 + h / 2 * a2, f1 + h / 2 * b2, f2 + h / 2 * c2
        a3, b3, c3 = y1, y2, -A * y0 * y1 - B * y1
        y0, y1, y2 = f0 + h * a3, f1 + h * b3, f2 + h * c3
        a4, b4, c4 = y1, y2, -A * y0 * y1 - B * y1
        f0 = f0 + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        f1 = f1 + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        f2 = f2 + h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
        if not -_BLOWUP_LIMIT < f0 < _BLOWUP_LIMIT or not -_BLOWUP_LIMIT < f2 < _BLOWUP_LIMIT:
            raise _BlowUp(math.copysign(1.0, f0 if abs(f0) > 1.0 else f1))
        out[i + 1] = (f0, f1, f2)
    if not np.all(np.isfinite(out[-1])):
        raise NonFiniteState("velocity state became non-finite")
    return out


def velocity_terminal(params: FlowParams, s: float, h: float = 1e-3) -> float:
    """F(1) for a fixed initial curvature s; used for step-size studies."""
    n = _check_step(h)
    try:
        return float(_integrate_velocity(params.A, params.B, s, n)[-1, 0])
    except _BlowUp:
        raise NonFiniteState("velocity state became non-finite") from None


def shoot_velocity(
    params: FlowParams,
    h: float = DEFAULT_STEP,
    bracket: tuple[float, float] = SHOOTING_BRACKET,
) -> OracleSolution:
    """Solve the velocity problem, finding F''(0) by secant with bisection.

    The iteration keeps a sign-changing bracket for the terminal value
    F(1); secant steps that leave the bracket fall back to its midpoint.
    """
    n = _check_step(h)
    A, B = params.A, params.B

    def terminal(s: float) -> float:
        # A diverging trial still tells the bracket which side it is on.
        try:
            return float(_integrate_velocity(A, B, s, n)[-1, 0])
        except _BlowUp as blowup:
            return blowup.sign * _BLOWUP_LIMIT

    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo, f_hi = terminal(lo), terminal(hi)
    if f_lo == 0.0:
        best, f_best = lo, f_lo
    elif f_hi == 0.0:
        best, f_best = hi, f_hi
    elif f_lo * f_hi > 0.0:
        raise ShootingDiverged(
            f"terminal value does not change sign over {bracket}"
        )
    else:
        s_prev, f_prev = lo, f_lo
        best, f_best = hi, f_hi
        for _ in range(_MAX_SHOTS):
            if abs(f_best) <= TERMINAL_TOLERANCE:
                break
            denom = f_best - f_prev
            if denom != 0.0:
                candidate = best - f_best * (best - s_prev) / denom
            else:
                candidate = 0.5 * (lo + hi)
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
            f_candidate = terminal(candidate)
            if f_candidate * f_lo > 0.0:
                lo, f_lo = candidate, f_candidate
            else:
                hi, f_hi = candidate, f_candidate
            s_prev, f_prev = best, f_best
            best, f_best = candidate, f_candidate
        else:
            raise ShootingDiverged(
                f"no convergence after {_MAX_SHOTS} shots; |F(1)| = {abs(f_best):.3e}"
            )
    if abs(f_best) > TERMINAL_TOLERANCE:
        raise ShootingDiverged(f"terminal miss {abs(f_best):.3e} above tolerance")
    try:
        values = _integrate_velocity(A, B, best, n)
    except _BlowUp:
        raise NonFiniteState("velocity state became non-finite") from None
    return OracleSolution(
        grid=np.arange(n + 1) / n,
        values=values,
        columns=("F", "dF", "d2F"),
        shooting_parameter=best,
        terminal_miss=abs(f_best),
    )


def _integrate_coupled(params: FlowParams, s: float, t0: float, n: int) -> np.ndarray:
    """Dense (F, F', F'', theta, theta') rows with theta'(0) = 0."""
    A, B = params.A, params.B
    a, re, h_mag, pr, beta = params.alpha, params.Re, params.H, params.Pr, params.beta
    q0 = 4.0 * a * a
    qc = 2.0 * a * re * pr
    d0 = beta * pr * (h_mag + q0)
    d1 = beta * pr
    h = 1.0 / n
    out = np.empty((n + 1, 5))
    f0, f1, f2, t, u = 1.0, 0.0, s, t0, 0.0
    out[0] = (f0, f1, f2, t, u)
    for i in range(n):
        a1, b1, c1 = f1, f2, -A * f0 * f1 - B * f1
        p1, q1 = u, -(q0 + qc * f0) * t - (d0 * f0 * f0 + d1 * f1 * f1)
        y0, y1, y2 = f0 + h / 2 * a1, f1 + h / 2 * b1, f2 + h / 2 * c1
        w, v = t + h / 2 * p1, u + h / 2 * q1
        a2, b2, c2 = y1, y2, -A * y0 * y1 - B * y1
        p2, q2 = v, -(q0 + qc * y0) * w - (d0 * y0 * y0 + d1 * y1 * y1)
        y0, y1, y2 = f0 + h / 2 * a2, f1 + h / 2 * b2, f2 + h / 2 * c2
        w, v = t + h / 2 * p2, u + h / 2 * q2
        a3, b3, c3 = y1, y2, -A * y0 * y1 - B * y1
        p3, q3 = v, -(q0 + qc * y0) * w - (d0 * y0 * y0 + d1 * y1 * y1)
        y0, y1, y2 = f0 + h * a3, f1 + h * b3, f2 + h * c3
        w, v = t + h * p3, u + h * q3
        a4, b4, c4 = y1, y2, -A * y0 * y1 - B * y1
        p4, q4 = v, -(q0 + qc * y0) * w - (d0 * y0 * y0 + d1 * y1 * y1)
        f0 = f0 + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        f1 = f1 + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        f2 = f2 + h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
        t = t + h / 6 * (p1 + 2 * p2 + 2 * p3 + p4)
        u = u + h / 6 * (q1 + 2 * q2 + 2 * q3 + q4)
        out[i + 1] = (f0, f1, f2, t, u)
    if not np.all(np.isfinite(out[-1])):
        raise NonFiniteState("coupled state became non-finite")
    return out


def shoot_thermal(
    params: FlowParams, F: OracleSolution, h: float = DEFAULT_STEP
) -> OracleSolution:
    """Solve the temperature problem against a converged velocity solution.

    theta enters its equation affinely, so two trials with theta(0) = 0
    and theta(0) = 1 span all solutions with theta'(0) = 0; the affine
    combination meeting theta(1) = 0 is exact.  One extra integration from
    the combined initial value re-verifies the terminal miss.
    """
    n = _check_step(h)
    if len(F.grid) != n + 1:
        raise ValueError("velocity solution was computed on a different grid")
    s = F.shooting_parameter

    trial0 = _integrate_coupled(params, s, 0.0, n)
    trial1 = _integrate_coupled(params, s, 1.0, n)
    end0, end1 = trial0[-1, 3], trial1[-1, 3]
    denom = end0 - end1
    scale = max(abs(end0), abs(end1), 1.0)
    if abs(denom) <= 1e-15 * scale:
        raise DegenerateHomogeneous(
            "trial temperatures coincide at eta = 1; cannot superpose"
        )
    c = end0 / denom

    verified = _integrate_coupled(params, s, c, n)
    miss = abs(verified[-1, 3])
    if miss > TERMINAL_TOLERANCE:
        raise ShootingDiverged(f"thermal terminal miss {miss:.3e} above tolerance")
    return OracleSolution(
        grid=np.arange(n + 1) / n,
        values=verified[:, 3:5],
        columns=("theta", "dtheta"),
        shooting_parameter=c,
        terminal_miss=miss,
    )


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
