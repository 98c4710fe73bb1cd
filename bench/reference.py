"""Reference solutions of the channel problems, written apart from jhflow.

Velocity: F''' + A F F' + B F' = 0 with F(0) = 1, F'(0) = 0, F(1) = 0, solved
by shooting on s = F''(0): scipy's DOP853 integrates the first-order system
at tight tolerances and brentq finds the root of F(1; s).  Temperature:
theta'' + (4 a^2 + 2 a Re Pr F) theta + beta Pr ((H + 4 a^2) F^2 + F'^2) = 0
with theta'(0) = 0, theta(1) = 0.  It is linear in theta, so two trial
integrations of the coupled system (theta(0) = 0 and theta(0) = 1) are
superposed to meet theta(1) = 0.  The temperature is integrated divided by
beta Pr, which keeps it of order one for the integrator's tolerances.

This module imports nothing from jhflow, so a fault in jhflow's RK4 oracle
cannot hide in the values it is checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

RTOL = 1e-13
ATOL = 1e-14
_BLOWUP = 1e8
# Candidate left ends of the shooting bracket; s = 0 gives F = 1, so F(1) > 0.
_BRACKET_STEPS = tuple(-(2.0**k) for k in range(-2, 8))

ETAS = tuple(round(0.1 * k, 1) for k in range(11))


def _velocity_rhs(A: float, B: float):
    def rhs(_eta, y):
        f, df, d2f = y
        return (df, d2f, -A * f * df - B * df)

    return rhs


def _blowup(_eta, y):
    return _BLOWUP - abs(y[0])


_blowup.terminal = True


def _terminal_F(A: float, B: float, s: float) -> float:
    sol = solve_ivp(
        _velocity_rhs(A, B), (0.0, 1.0), (1.0, 0.0, s),
        method="DOP853", rtol=RTOL, atol=ATOL, events=_blowup,
    )
    if sol.status == 1:  # left the representable range: only its sign counts
        return math.copysign(_BLOWUP, sol.y[0, -1])
    if sol.status != 0:
        raise RuntimeError(f"velocity integration failed at s = {s}: {sol.message}")
    return float(sol.y[0, -1])


def _march(rhs, y0):
    """States at each of ETAS, integrating node to node so each is a step end."""
    out = [np.asarray(y0, dtype=float)]
    for a, b in zip(ETAS[:-1], ETAS[1:]):
        sol = solve_ivp(rhs, (a, b), out[-1], method="DOP853", rtol=RTOL, atol=ATOL)
        if sol.status != 0:
            raise RuntimeError(f"integration failed on [{a}, {b}]: {sol.message}")
        out.append(sol.y[:, -1])
    return np.array(out)


def curvature(A: float, B: float) -> float:
    """F''(0) of the velocity problem, nearest zero among the roots found."""
    hi = 0.0
    for lo in _BRACKET_STEPS:
        if _terminal_F(A, B, lo) <= 0.0:
            return brentq(lambda s: _terminal_F(A, B, s), lo, hi, xtol=1e-15)
        hi = lo
    raise RuntimeError(f"no sign change of F(1) for s in [{_BRACKET_STEPS[-1]}, 0]")


@lru_cache(maxsize=None)
def solve(alpha: float, Re: float, H: float, Pr: float, beta: float):
    """(F, theta) at each eta for one parameter set, as two float arrays."""
    A, B = 2.0 * alpha * Re, (4.0 - H) * alpha**2
    s = curvature(A, B)
    q0, qc = 4.0 * alpha * alpha, 2.0 * alpha * Re * Pr
    d0 = H + q0
    vel = _velocity_rhs(A, B)

    def rhs(eta, y):
        f, df, _, phi, dphi = y
        return (*vel(eta, y[:3]), dphi, -(q0 + qc * f) * phi - (d0 * f * f + df * df))

    trial0 = _march(rhs, (1.0, 0.0, s, 0.0, 0.0))
    trial1 = _march(rhs, (1.0, 0.0, s, 1.0, 0.0))
    c = trial0[-1, 3] / (trial0[-1, 3] - trial1[-1, 3])
    phi = trial0[:, 3] + c * (trial1[:, 3] - trial0[:, 3])
    return trial0[:, 0], beta * Pr * phi


def closed_form_velocity(B: float) -> np.ndarray:
    """F at A = 0: 1 - (1 - cos(sqrt(B) eta)) / (1 - cos(sqrt(B))), any B != 0."""
    eta = np.asarray(ETAS, dtype=float)
    if B > 0:
        k = math.sqrt(B)
        return 1.0 - (1.0 - np.cos(k * eta)) / (1.0 - math.cos(k))
    k = math.sqrt(-B)
    return 1.0 - (np.cosh(k * eta) - 1.0) / (math.cosh(k) - 1.0)
