"""Independent finite-difference reference solutions by RK4 shooting.

The velocity equation F''' + A F F' + B F' = 0 with F(0) = 1, F'(0) = 0
and F''(0) = s integrates once to F'' = s + (1 - F)(A(1 + F)/2 + B), so
classical RK4 runs on the two states (F, F') of that first integral, in
Nystrom form.  The missing s is found by a bracketed secant on the terminal
value F(1), run on coarser grids first; Richardson extrapolation of their
roots seeds the full grid, whose accepted trial's rows are the solution.
The temperature problem is linear in theta, so it is solved from the
velocity rows without integrating F again: each RK4 step is an affine map
of (theta, theta'), and a prefix scan of the maps gives a particular and a
homogeneous solution whose combination meets theta(1) = 0 exactly.
Nothing here shares code with the staged-homotopy solver, so the two
routes check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import FlowParams

__all__ = [
    "OracleSolution",
    "shoot_velocity",
    "shoot_thermal",
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
# Fewest steps of a coarse grid in the secant ladder of shoot_velocity.
_MIN_LEVEL_STEPS = 100


class OracleError(RuntimeError):
    """Base class for reference-solution failures."""


class NonFiniteState(OracleError):
    """The integration state stopped being finite."""


class ShootingDiverged(OracleError):
    """The shooting iteration failed to meet the terminal tolerance."""


class DegenerateHomogeneous(OracleError):
    """The homogeneous temperature vanishes at the wall, so no combination meets it."""


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


def _integrate_velocity(A: float, B: float, s: float, n: int, dense: bool = False):
    """F(1) after n scalar RK4 steps from F(0)=1, F'(0)=0, F''(0)=s.

    RK4 runs in Nystrom form on (u, p) = (1 - F, F') of the first integral
    F'' = g(u) = s + u (A + B - (A/2) u), one g per stage.  With dense=True
    the (n + 1, 3) rows of (F, F', F'') come back instead: (u, p) go through
    a memoryview into one flat buffer, then F = 1 - u and F'' = g(u) are
    filled in.  A trial whose |1 - u| or |g(u)| passes _BLOWUP_LIMIT (the
    bounds on u are exact integers) raises _BlowUp.
    """
    h = 1.0 / n
    h2, h6, hh2, hh4, hh6 = h / 2, h / 6, h * h / 2, h * h / 4, h * h / 6
    a, c = A / 2, A + B
    u_lo, u_hi = 1.0 - _BLOWUP_LIMIT, 1.0 + _BLOWUP_LIMIT
    u, p, g1 = 0.0, 0.0, s
    if dense:
        rows = np.empty(3 * (n + 1))
        flat = memoryview(rows)
        flat[0], flat[1] = u, p
    for k in range(3, 3 * n + 3, 3):
        v = u - h2 * p
        g2 = s + v * (c - a * v)
        w = v - hh4 * g1
        g3 = s + w * (c - a * w)
        x = u - h * p - hh2 * g2
        g4 = s + x * (c - a * x)
        u = u - h * p - hh6 * (g1 + g2 + g3)
        p = p + h6 * (g1 + g4 + 2 * (g2 + g3))
        g1 = s + u * (c - a * u)
        if not (u_lo < u < u_hi and -_BLOWUP_LIMIT < g1 < _BLOWUP_LIMIT):
            raise _BlowUp(math.copysign(1.0, 1.0 - u if abs(1.0 - u) > 1.0 else p))
        if dense:
            flat[k], flat[k + 1] = u, p
    if dense:
        rows, u = rows.reshape(n + 1, 3), rows[0::3]  # u is column 0
        rows[:, 2] = s + u * (c - a * u)
        rows[:, 0] = 1.0 - u
        return rows
    return 1.0 - u


def velocity_terminal(params: FlowParams, s: float, h: float = 1e-3) -> float:
    """F(1) for a fixed initial curvature s; used for step-size studies."""
    n = _check_step(h)
    try:
        return _integrate_velocity(params.A, params.B, s, n)
    except _BlowUp:
        raise NonFiniteState("velocity state became non-finite") from None


def _secant(
    terminal: Callable, lo: float, hi: float, sign_lo: float, s: float, f: float, slope: float
) -> tuple[float, float]:
    """Bracketed secant on terminal(s) = 0 from the trial (s, f) and a slope.

    Each trial replaces the end of [lo, hi] whose terminal sign it shares,
    taking sign_lo as the sign at lo; a secant step that would leave the
    bracket goes to its midpoint instead.  Returns the accepted root and
    the last secant slope.  A bracket that has shrunk to adjacent floats,
    so that the next trial would repeat s, raises ShootingDiverged.
    """
    best = abs(f)
    for _ in range(_MAX_SHOTS):
        if abs(f) <= TERMINAL_TOLERANCE:
            return s, slope
        if f * sign_lo > 0.0:
            lo = s
        else:
            hi = s
        candidate = s - f / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        if candidate == s:
            raise ShootingDiverged(
                f"bracket collapsed at s = {s!r} before meeting the terminal "
                f"tolerance; best |F(1)| = {best:.3e}"
            )
        f_candidate = terminal(candidate)
        slope = (f_candidate - f) / (candidate - s)
        s, f = candidate, f_candidate
        best = min(best, abs(f))
    raise ShootingDiverged(f"no convergence after {_MAX_SHOTS} shots; |F(1)| = {abs(f):.3e}")


def shoot_velocity(
    params: FlowParams,
    h: float = DEFAULT_STEP,
    bracket: tuple[float, float] = SHOOTING_BRACKET,
) -> OracleSolution:
    """Solve the velocity problem, finding F''(0) by secant with bisection.

    A bracketed secant on the terminal value F(1) runs on a ladder of
    coarse grids, n // 100 and then n // 10 steps, where each trial
    computes F(1) only.  A grid of fewer than 100 steps can give the wrong
    terminal sign at the bracket ends, so such grids are dropped; with
    none left the ladder is the one grid of max(1, n // 10) steps.  Each
    level starts from the previous level's root and last secant slope,
    and keeps the bisection fallback inside the original bracket.  With
    two levels, Richardson extrapolation of their roots by the h^4 error
    of RK4 seeds the n-step secant; otherwise the last coarse root does.
    The n-step secant stores the rows of every trial, so the accepted
    trial's rows are the returned solution.  Typically the seed already
    meets the tolerance and the full grid is integrated once.
    """
    n = _check_step(h)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")
    A, B = params.A, params.B
    rows = None

    def terminal(m: int) -> Callable[[float], float]:
        def shot(s: float) -> float:
            nonlocal rows
            # A diverging trial still tells the bracket which side it is on.
            try:
                if m < n:
                    return _integrate_velocity(A, B, s, m)
                rows = _integrate_velocity(A, B, s, n, dense=True)
            except _BlowUp as blowup:
                return blowup.sign * _BLOWUP_LIMIT
            return float(rows[-1, 0])

        return shot

    levels = [m for m in (n // 100, n // 10) if m >= _MIN_LEVEL_STEPS] or [max(1, n // 10)]
    first = terminal(levels[0])
    f_lo, f_hi = first(lo), first(hi)
    if f_lo * f_hi > 0.0:
        raise ShootingDiverged(f"terminal value does not change sign over {bracket}")
    sign_lo = math.copysign(1.0, f_lo) if f_lo else -math.copysign(1.0, f_hi)
    s, f = (lo, f_lo) if f_lo == 0.0 else (hi, f_hi)
    slope = (f_hi - f_lo) / (hi - lo)
    roots = []
    for m in levels:
        shot = terminal(m)
        if roots:
            f = shot(s)
        s, slope = _secant(shot, lo, hi, sign_lo, s, f, slope)
        roots.append(s)
    if len(roots) == 2:
        # The RK4 root on m steps is s* + c m^-4 to leading order.
        (m1, m2), (s1, s2) = levels, roots
        c = (s1 - s2) / (m1**-4 - m2**-4)
        seed = s2 + c * (n**-4 - m2**-4)
        if lo < seed < hi:
            s = seed
    fine = terminal(n)
    s, _ = _secant(fine, lo, hi, sign_lo, s, fine(s), slope)
    return OracleSolution(
        grid=np.arange(n + 1) / n,
        values=rows,
        columns=("F", "dF", "d2F"),
        shooting_parameter=s,
        terminal_miss=abs(float(rows[-1, 0])),
    )


def _rk4_theta(p, dp, m, source, h: float):
    """One RK4 step of theta'' = m theta - source from (p, dp), elementwise.

    m and source hold the four stage values of each step.  The stage sums
    are accumulated as (k1 + 2 k2) + 2 k3 + k4, so one stage is alive at a time.
    """
    h2, h6 = h / 2, h / 6
    r = m[0] * p - source[0]
    v, sum_v, sum_r = dp, dp, r
    for k, (c, weight) in enumerate(((h2, 2), (h2, 2), (h, 1)), start=1):
        w, v = p + c * v, dp + c * r
        r = m[k] * w - source[k]
        sum_v, sum_r = sum_v + weight * v, sum_r + weight * r
    return p + h6 * sum_v, dp + h6 * sum_r


def _compose_prefix(maps: np.ndarray) -> np.ndarray:
    """Inclusive prefix composition of affine maps y -> M y + g on R^2.

    maps has rows (M00, M01, M10, M11, g0, g1) and one column per map.
    Column k of the result is map k applied after maps 0..k-1.  Each of
    the log2(n) doubling passes composes column k with column k - d; the
    2x2 products are spelled out elementwise, so the result does not
    depend on a BLAS or its threading.  maps is overwritten.
    """
    n = maps.shape[1]
    src, dst = maps, np.empty_like(maps)
    tmp = np.empty(n)
    d = 1
    while d < n:
        dst[:, :d] = src[:, :d]
        t = tmp[: n - d]
        for i in (0, 1):
            # Row i of the later map times a column of the earlier one,
            # whose two entries sit in rows j and k; for the offset (rows
            # 4 and 5) the later map's own offset is added.
            for row, (j, k) in zip((2 * i, 2 * i + 1, 4 + i), ((0, 2), (1, 3), (4, 5))):
                out = dst[row, d:]
                np.multiply(src[2 * i, d:], src[j, :-d], out=out)
                np.multiply(src[2 * i + 1, d:], src[k, :-d], out=t)
                np.add(out, t, out=out)
                if row >= 4:
                    np.add(out, src[row, d:], out=out)
        src, dst = dst, src
        d *= 2
    return src


def _stage_coefficients(params: FlowParams, velocity: np.ndarray, h: float):
    """m and source of theta'' = m theta - source at each step's RK4 stages.

    velocity holds the (n + 1, 3) rows (F, F', F'') of a converged shot of
    step h; F and F' at the stage points are rebuilt from them with the
    stage formulas of _integrate_velocity, F' there being p, p + h/2 g1,
    p + h/2 g2 and p + h g3.  Returns two lists of four length-n arrays.
    """
    a, re, h_mag, pr, beta = params.alpha, params.Re, params.H, params.Pr, params.beta
    q0, qc = 4.0 * a * a, 2.0 * a * re * pr
    d0, d1 = beta * pr * (h_mag + q0), beta * pr
    h2 = h / 2
    s, half_a, c = velocity[0, 2], params.A / 2, params.A + params.B
    f0, f1, g1 = velocity[:-1, 0], velocity[:-1, 1], velocity[:-1, 2]

    def g(f):
        u = 1.0 - f
        return s + u * (c - half_a * u)

    y0 = f0 + h2 * f1
    z0 = y0 + (h * h / 4) * g1
    g2 = g(y0)
    stages = ((f0, f1), (y0, f1 + h2 * g1), (z0, f1 + h2 * g2),
              (f0 + h * f1 + (h * h / 2) * g2, f1 + h * g(z0)))
    m = [-(q0 + qc * s0) for s0, _ in stages]
    source = [d0 * s0 * s0 + d1 * s1 * s1 for s0, s1 in stages]
    return m, source


def _thermal_rows(params: FlowParams, velocity: np.ndarray) -> np.ndarray:
    """Dense (theta_p, theta_p', theta_h, theta_h') rows from velocity rows.

    Each step is an affine map y -> M y + g of (theta, theta'): M is the
    step applied to (1, 0) and (0, 1) without the dissipation source, g
    the step applied to (0, 0) with it.  theta_p (theta_p(0) = 0, with the
    source) is the cumulative offset of the maps and theta_h
    (theta_h(0) = 1, no source) the first column of their cumulative
    matrix; both start with zero slope.
    """
    n = len(velocity) - 1
    h = 1.0 / n
    m, source = _stage_coefficients(params, velocity, h)
    no_source = (0.0, 0.0, 0.0, 0.0)
    maps = np.empty((6, n))
    maps[0], maps[2] = _rk4_theta(1.0, 0.0, m, no_source, h)
    maps[1], maps[3] = _rk4_theta(0.0, 1.0, m, no_source, h)
    maps[4], maps[5] = _rk4_theta(0.0, 0.0, m, source, h)
    del m, source  # freed before the scan takes its second buffer
    cumulative = _compose_prefix(maps)
    rows = np.empty((n + 1, 4))
    rows[0] = (0.0, 0.0, 1.0, 0.0)
    for column, row in enumerate((4, 5, 0, 2)):
        rows[1:, column] = cumulative[row]
    return rows


def shoot_thermal(
    params: FlowParams, F: OracleSolution, h: float = DEFAULT_STEP
) -> OracleSolution:
    """Solve the temperature problem against a converged velocity solution.

    theta enters its equation affinely, so _thermal_rows solves it from the
    rows of F as a particular solution theta_p and a homogeneous one theta_h.
    theta = theta_p + c theta_h with c = -theta_p(1) / theta_h(1) meets
    theta(1) = 0 exactly; the combined column's terminal value is then
    checked against TERMINAL_TOLERANCE.  F must hold the (F, F', F'') rows
    of shoot_velocity on the same grid.
    """
    n = _check_step(h)
    if len(F.grid) != n + 1:
        raise ValueError("velocity solution was computed on a different grid")
    if F.columns != ("F", "dF", "d2F"):
        raise ValueError(f"expected velocity columns (F, dF, d2F), got {F.columns}")
    if not np.all(np.isfinite(F.values)):
        raise NonFiniteState("velocity solution is not finite")
    # An overflow surfaces in the NonFiniteState check on the returned column.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _thermal_rows(params, F.values)
    end_p, end_h = rows[-1, 0], rows[-1, 2]
    scale = max(abs(end_p), abs(end_p + end_h), 1.0)
    if abs(end_h) <= 1e-15 * scale:
        raise DegenerateHomogeneous(
            "homogeneous temperature vanishes at eta = 1; cannot superpose"
        )
    c = -end_p / end_h
    values = rows[:, 0:2] + c * rows[:, 2:4]
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("temperature state became non-finite")
    miss = abs(float(values[-1, 0]))
    if miss > TERMINAL_TOLERANCE:
        raise ShootingDiverged(f"thermal terminal miss {miss:.3e} above tolerance")
    return OracleSolution(
        grid=np.arange(n + 1) / n,
        values=values,
        columns=("theta", "dtheta"),
        shooting_parameter=float(c),
        terminal_miss=miss,
    )
