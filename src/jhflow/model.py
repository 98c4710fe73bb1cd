"""Radial-flow channel model: velocity and heat-transfer problems.

Velocity profile F(eta) on the channel half-angle similarity interval:

    F''' + 2*alpha*Re*F*F' + (4 - H)*alpha^2*F' = 0,
    F(0) = 1, F'(0) = 0, F(1) = 0,

with half-angle alpha, Reynolds number Re and magnetic group H.  The
temperature profile theta(eta) rides on F:

    theta'' + 2*alpha*(2*alpha + Re*Pr*F)*theta
            + beta*Pr*((H + 4*alpha^2)*F^2 + F'^2) = 0,
    theta(1) = 0, theta'(0) = 0.

This module states both problems for the staged-homotopy engine: linear
parts, nonlinear remainders expanded at the seed, auxiliary-multiplier
sets carrying the free parameters, and the exact residual operators used
for fitting and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .engine import (
    AuxFunction,
    BoundaryCondition,
    LinearProblemSpec,
    MissingParameter,
    NonlinearExpansion,
    StageSolution,
    run_stages,
    solve_linear_stage,
)
from .polyalg import LaurentPoly

__all__ = [
    "MODE_PAPER",
    "MODE_SCALE_CONSISTENT",
    "THERMAL_MODES",
    "FlowParams",
    "ThermalConstants",
    "ValidationError",
    "VELOCITY_PARAM_NAMES",
    "THERMAL_PARAM_NAMES",
    "velocity_problem_spec",
    "thermal_problem_spec",
    "velocity_seed",
    "thermal_seed",
    "velocity_nonlinear",
    "velocity_nonlinear_ab",
    "thermal_nonlinear",
    "build_velocity_aux_set",
    "build_thermal_aux_set",
    "residual_velocity",
    "residual_thermal",
    "velocity_solution",
    "thermal_solution",
    "thermal_constants_stated",
    "thermal_constants_derived",
]

# Decomposition flags for the thermal problem.  The stated decomposition
# keeps the unit forcing inside the homotopy (seed of order one); the
# scale-consistent decomposition keeps the forcing in the nonlinear
# remainder so every stage scales with beta, matching the size of the
# published temperature profiles.  Scale-consistent is the default.
MODE_PAPER = "paper"
MODE_SCALE_CONSISTENT = "scale-consistent"
THERMAL_MODES = (MODE_PAPER, MODE_SCALE_CONSISTENT)

VELOCITY_PARAM_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
THERMAL_PARAM_NAMES = ("C8", "C9", "C10", "C11", "C12", "C13")


class ValidationError(ValueError):
    """A physical parameter is outside its admissible range."""


@dataclass(frozen=True)
class FlowParams:
    """Physical parameter set for one channel configuration.

    alpha is the half-angle in radians, Re the Reynolds number, H the
    magnetic group, Pr the Prandtl number and beta the dissipation group.
    """

    alpha: float
    Re: float
    H: float
    Pr: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "Re", "H", "Pr", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValidationError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if self.Re <= 0.0:
            raise ValidationError(f"Re must be positive, got {self.Re}")
        if self.H < 0.0:
            raise ValidationError(f"H must be nonnegative, got {self.H}")
        if self.Pr <= 0.0:
            raise ValidationError(f"Pr must be positive, got {self.Pr}")
        if self.beta < 0.0:
            raise ValidationError(f"beta must be nonnegative, got {self.beta}")
        if self.A == 0.0:  # the velocity multipliers divide by 2A
            raise ValidationError(f"2*alpha*Re underflows to 0 at alpha = {self.alpha}, Re = {self.Re}")

    @property
    def A(self) -> float:
        """Convective group 2*alpha*Re."""
        return 2.0 * self.alpha * self.Re

    @property
    def B(self) -> float:
        """Magnetic-geometric group (4 - H)*alpha^2."""
        return (4.0 - self.H) * self.alpha**2


def velocity_problem_spec() -> LinearProblemSpec:
    """Linear part F''' with F(0) = 1, F'(0) = 0, F(1) = 0 and no forcing."""
    return LinearProblemSpec(
        derivative_order=3,
        conditions=(
            BoundaryCondition(0.0, 0, 1.0),
            BoundaryCondition(0.0, 1, 0.0),
            BoundaryCondition(1.0, 0, 0.0),
        ),
    )


def thermal_problem_spec(mode: str = MODE_SCALE_CONSISTENT) -> LinearProblemSpec:
    """Linear part theta'' with theta(1) = 0, theta'(0) = 0.

    The stated decomposition carries forcing g = -1; the scale-consistent
    one carries no forcing, leaving the whole source in the remainder.
    """
    _check_mode(mode)
    forcing = LaurentPoly.constant(-1.0) if mode == MODE_PAPER else LaurentPoly.zero()
    return LinearProblemSpec(
        derivative_order=2,
        conditions=(
            BoundaryCondition(1.0, 0, 0.0),
            BoundaryCondition(0.0, 1, 0.0),
        ),
        forcing=forcing,
    )


def _check_mode(mode: str) -> None:
    if mode not in THERMAL_MODES:
        raise ValidationError(f"mode must be one of {THERMAL_MODES}, got {mode!r}")


def velocity_seed() -> LaurentPoly:
    """Seed stage of the velocity problem, 1 - eta^2."""
    return solve_linear_stage(velocity_problem_spec())


def thermal_seed(mode: str = MODE_SCALE_CONSISTENT) -> LaurentPoly:
    """Seed stage of the thermal problem for the given decomposition.

    Solving the stated seed equation theta'' - 1 = 0 under theta(1) = 0,
    theta'(0) = 0 gives (eta^2 - 1)/2; the scale-consistent seed is zero.
    """
    return solve_linear_stage(thermal_problem_spec(mode))


def velocity_nonlinear_ab(A: float, B: float, F0: LaurentPoly) -> NonlinearExpansion:
    """Velocity remainder N(F) = A*F*F' + B*F' expanded at F0.

    Returns N(F0) with the partials against F and F'.  Takes the groups A
    and B directly so generic drawings need not be realizable physically.
    """
    dF0 = F0.differentiate()
    value = A * (F0 * dF0) + B * dF0
    partial_f = A * dF0
    partial_df = A * F0 + LaurentPoly.constant(B)
    return NonlinearExpansion(value=value, partials=(partial_f, partial_df))


def velocity_nonlinear(params: FlowParams, F0: LaurentPoly) -> NonlinearExpansion:
    return velocity_nonlinear_ab(params.A, params.B, F0)


def velocity_series_expansion(params: FlowParams) -> NonlinearExpansion:
    """Expansion at the seed that the bundled series construction uses.

    The partials are the exact ones at 1 - eta^2.  The remainder value is
    taken as 2A*eta^2 - 2(A+B)*eta where the exact expansion would give
    2A*eta^3 - 2(A+B)*eta: every bundled closed form and published
    parameter value descends from the quadratic variant, so the series
    builder keeps it to stay compatible with them.  The exact expansion
    stays available from velocity_nonlinear, and the report findings
    quantify the difference between the two.
    """
    A, B = params.A, params.B
    exact = velocity_nonlinear(params, velocity_seed())
    value = LaurentPoly({1: -2.0 * (A + B), 2: 2.0 * A})
    return NonlinearExpansion(value=value, partials=exact.partials)


def thermal_nonlinear(
    params: FlowParams,
    F0: LaurentPoly,
    theta0: LaurentPoly,
    mode: str = MODE_SCALE_CONSISTENT,
) -> NonlinearExpansion:
    """Thermal remainder expanded at theta0, with the velocity frozen at F0.

    Both decompositions share the partial against theta,
    4*alpha^2 + 2*alpha*Re*Pr*F0; they differ in whether the unit source
    sits in the remainder (stated) or nothing beyond the dissipation does
    (scale-consistent).
    """
    _check_mode(mode)
    a, re, h, pr, beta = params.alpha, params.Re, params.H, params.Pr, params.beta
    dF0 = F0.differentiate()
    coupling = LaurentPoly.constant(4.0 * a * a) + (2.0 * a * re * pr) * F0
    dissipation = (beta * pr) * ((h + 4.0 * a * a) * (F0 * F0) + dF0 * dF0)
    value = coupling * theta0 + dissipation
    if mode == MODE_PAPER:
        value = LaurentPoly.constant(1.0) + value
    return NonlinearExpansion(value=value, partials=(coupling,))


def build_velocity_aux_set(params: FlowParams) -> tuple[AuxFunction, AuxFunction, AuxFunction]:
    """Multipliers for the velocity corrections.

    First correction: H0 = -60*C1.  Second correction: H1 weights u1 * dN/dF
    and carries the power ladder (C2*eta^2 + C3*eta + C4 + C5/eta +
    C7/eta^2)/(2A); H2 weights u1' * dN/dF' and carries C6/2.  The bundled
    parameter values are only consistent with C7 sitting on the deep end
    of the H1 ladder, so that is where it lives.
    """
    inv2a = 1.0 / (2.0 * params.A)
    h0 = AuxFunction(basis=(("C1", LaurentPoly.constant(-60.0)),))
    h1 = AuxFunction(
        basis=(
            ("C2", LaurentPoly.monomial(2, inv2a)),
            ("C3", LaurentPoly.monomial(1, inv2a)),
            ("C4", LaurentPoly.constant(inv2a)),
            ("C5", LaurentPoly.monomial(-1, inv2a)),
            ("C7", LaurentPoly.monomial(-2, inv2a)),
        )
    )
    h2 = AuxFunction(basis=(("C6", LaurentPoly.constant(0.5)),))
    return (h0, h1, h2)


def build_thermal_aux_set() -> tuple[AuxFunction, AuxFunction]:
    """Multipliers for the thermal corrections.

    First correction: h0 = -30*C8.  Second correction: h1 carries
    C9 + C10*eta + ... + C13*eta^4, undivided.  The published multiplier
    is h1/C8, and thermal_solution applies that division by running the
    stages at C8 = 1.
    """
    h0 = AuxFunction(basis=(("C8", LaurentPoly.constant(-30.0)),))
    h1 = AuxFunction(
        basis=tuple(
            (name, LaurentPoly.monomial(j))
            for j, name in enumerate(("C9", "C10", "C11", "C12", "C13"))
        )
    )
    return (h0, h1)


def residual_velocity(F: LaurentPoly, params: FlowParams) -> LaurentPoly:
    """Exact defect F''' + A*F*F' + B*F' as a polynomial."""
    dF = F.differentiate()
    return F.differentiate(3) + params.A * (F * dF) + params.B * dF


def residual_thermal(
    theta: LaurentPoly, F: LaurentPoly, params: FlowParams
) -> LaurentPoly:
    """Exact defect of the temperature equation against a velocity profile F."""
    a, re, h, pr, beta = params.alpha, params.Re, params.H, params.Pr, params.beta
    dF = F.differentiate()
    coupling = LaurentPoly.constant(4.0 * a * a) + (2.0 * a * re * pr) * F
    dissipation = (beta * pr) * ((h + 4.0 * a * a) * (F * F) + dF * dF)
    return theta.differentiate(2) + coupling * theta + dissipation


def velocity_solution(params: FlowParams, c: Mapping[str, float]) -> StageSolution:
    """Seed plus two corrections of the velocity problem at parameters c.

    The stage basis follows the bundled series construction (see
    velocity_series_expansion), which is what the published parameter
    values were fitted against.
    """
    spec = velocity_problem_spec()
    return run_stages(
        spec,
        lambda f0: velocity_series_expansion(params),
        build_velocity_aux_set(params),
        c,
    )


def thermal_solution(
    params: FlowParams,
    c: Mapping[str, float],
    mode: str = MODE_SCALE_CONSISTENT,
    F0: LaurentPoly | None = None,
) -> StageSolution:
    """Seed plus two corrections of the thermal problem at parameters c.

    The remainder is expanded with the velocity frozen at its seed
    1 - eta^2 unless another carrier is supplied.  The second multiplier
    (C9 + ... + C13*eta^4)/C8 weights the first correction, which is C8
    times a fixed polynomial a, so C8 cancels from the second correction.
    The stages therefore run once at C8 = 1 and the first correction is
    scaled by C8 afterwards: theta = u0 + C8*a + sum_j Cj*b_j, continuous
    in C8, also through C8 = 0.
    """
    _check_mode(mode)
    if "C8" not in c:
        raise MissingParameter("the first thermal multiplier needs parameter 'C8'")
    carrier = velocity_seed() if F0 is None else F0
    stages = run_stages(
        thermal_problem_spec(mode),
        lambda t0: thermal_nonlinear(params, carrier, t0, mode),
        build_thermal_aux_set(),
        {**c, "C8": 1.0},
    )
    u1 = float(c["C8"]) * stages.u1
    return StageSolution(
        u0=stages.u0, u1=u1, u2=stages.u2, assembled=stages.u0 + u1 + stages.u2
    )


@dataclass(frozen=True)
class ThermalConstants:
    """Coefficient groups of the thermal remainder at the seed.

    N(theta0) collects to C - 2*D*eta^2 + E*eta^4 and the theta-partial to
    L + K*eta^2.  provenance records whether the values follow the stated
    closed-form expressions or a symbolic re-expansion of the remainder
    (the two disagree in D, where the stated form doubles the alpha*Re*Pr
    contribution).
    """

    C: float
    D: float
    E: float
    L: float
    K: float
    provenance: str


def thermal_constants_stated(params: FlowParams) -> ThermalConstants:
    """Coefficient groups as their closed forms are usually quoted."""
    a, re, h, pr, beta = params.alpha, params.Re, params.H, params.Pr, params.beta
    return ThermalConstants(
        C=1.0 + 2.0 * a * a + a * re * pr + 4.0 * beta * a * a * pr + pr * h * beta,
        D=a * a + 2.0 * a * re * pr + 2.0 * beta * pr * (2.0 * a * a - 1.0) + pr * h * beta,
        E=a * re * pr + 4.0 * beta * a * a * pr + pr * h * beta,
        L=4.0 * a * a + 2.0 * a * re * pr,
        K=-2.0 * a * re * pr,
        provenance="stated",
    )


def thermal_constants_derived(params: FlowParams) -> ThermalConstants:
    """Coefficient groups read off a fresh expansion of the remainder.

    Expands the stated-decomposition remainder at theta0 = (1 - eta^2)/2,
    the seed value the closed forms were quoted for, and picks the
    coefficients out of the resulting polynomial.
    """
    theta0 = LaurentPoly({0: 0.5, 2: -0.5})
    expansion = thermal_nonlinear(params, velocity_seed(), theta0, MODE_PAPER)
    value, coupling = expansion.value, expansion.partials[0]
    return ThermalConstants(
        C=value.coefficient(0),
        D=-0.5 * value.coefficient(2),
        E=value.coefficient(4),
        L=coupling.coefficient(0),
        K=coupling.coefficient(2),
        provenance="derived",
    )
