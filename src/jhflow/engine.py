"""Generic machinery for two-correction homotopy expansions.

A problem is posed as a linear operator d^k/deta^k with k point conditions
and a constant-in-homotopy forcing.  The seed stage solves the linear
problem alone; each correction stage solves the same operator against a
right-hand side built from the nonlinear remainder, weighted by auxiliary
multiplier polynomials that carry the free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .polyalg import ZERO, LaurentPoly

__all__ = [
    "BoundaryCondition",
    "LinearProblemSpec",
    "AuxFunction",
    "NonlinearExpansion",
    "StageSolution",
    "solve_linear_stage",
    "apply_aux_function",
    "run_stages",
    "stage_basis",
    "EngineError",
    "SingularBoundarySystem",
    "MissingParameter",
    "PoleNotCancelled",
]

# Point-condition collocation matrices this ill-conditioned are treated as singular.
_CONDITION_LIMIT = 1e12


class EngineError(ValueError):
    """Base class for stage-assembly failures."""


class SingularBoundarySystem(EngineError):
    """The point conditions do not determine the stage uniquely."""


class MissingParameter(EngineError):
    """An auxiliary function references a parameter absent from the map."""


class PoleNotCancelled(EngineError):
    """An auxiliary product kept a 1/eta term instead of cancelling it."""


@dataclass(frozen=True)
class BoundaryCondition:
    """value of the derivative_order-th derivative prescribed at location."""

    location: float
    derivative_order: int
    value: float

    def __post_init__(self):
        if self.location not in (0.0, 1.0):
            raise EngineError(f"condition location must be 0 or 1, got {self.location}")
        if self.derivative_order < 0:
            raise EngineError("derivative order must be >= 0")


@dataclass(frozen=True)
class LinearProblemSpec:
    """Linear part d^k u/deta^k with k point conditions and forcing g.

    The seed stage solves d^k u/deta^k + g = 0 under the stated conditions;
    correction stages reuse the operator with homogeneous conditions and no
    forcing.
    """

    derivative_order: int
    conditions: tuple[BoundaryCondition, ...]
    forcing: LaurentPoly = field(default_factory=LaurentPoly.zero)

    def __post_init__(self):
        k = self.derivative_order
        if k < 1:
            raise EngineError("derivative order must be >= 1")
        if len(self.conditions) != k:
            raise EngineError(
                f"need exactly {k} conditions, got {len(self.conditions)}"
            )
        for cond in self.conditions:
            if cond.derivative_order >= k:
                raise EngineError(
                    "condition differentiates more times than the operator"
                )
        # Fail fast when the conditions cannot pin the homogeneous part.
        matrix = _condition_matrix(self.conditions, k)
        if np.linalg.cond(matrix) > _CONDITION_LIMIT:
            raise SingularBoundarySystem(
                "point conditions leave the polynomial correction underdetermined"
            )


def _condition_matrix(conditions: Sequence[BoundaryCondition], k: int) -> np.ndarray:
    """Collocation matrix of eta^j monomials, j < k, under the conditions."""
    matrix = np.zeros((k, k))
    for i, cond in enumerate(conditions):
        d = cond.derivative_order
        for j in range(k):
            if j < d:
                continue
            # d-th derivative of eta^j evaluated at the condition location.
            factor = 1.0
            for m in range(j, j - d, -1):
                factor *= m
            power = j - d
            matrix[i, j] = factor * (cond.location ** power if power > 0 else 1.0)
    return matrix


def solve_linear_stage(
    spec: LinearProblemSpec,
    rhs: LaurentPoly = ZERO,
    homogeneous: bool = False,
) -> LaurentPoly:
    """Solve d^k u/deta^k + forcing + rhs = 0 under the given boundary conditions.

    With homogeneous=True the stage is a correction: the forcing is dropped
    and every condition value is replaced by zero.

    >>> from .polyalg import LaurentPoly
    >>> spec = LinearProblemSpec(2, (
    ...     BoundaryCondition(1.0, 0, 0.0), BoundaryCondition(0.0, 1, 0.0)),
    ...     forcing=LaurentPoly.constant(-1.0))
    >>> solve_linear_stage(spec).terms()
    ((0, -0.5), (2, 0.5))
    """
    k = spec.derivative_order
    forcing = ZERO if homogeneous else spec.forcing
    negated = -(forcing + rhs)
    if negated.min_exponent < 0 and not negated.is_zero:
        raise EngineError("stage right-hand side keeps a pole after negation")
    particular = negated.antiderivative(k)

    matrix = _condition_matrix(spec.conditions, k)
    if np.linalg.cond(matrix) > _CONDITION_LIMIT:
        raise SingularBoundarySystem(
            "point conditions leave the polynomial correction underdetermined"
        )
    target = np.zeros(k)
    for i, cond in enumerate(spec.conditions):
        want = 0.0 if homogeneous else cond.value
        have = particular.differentiate(cond.derivative_order).evaluate(cond.location)
        target[i] = want - have
    coeffs = np.linalg.solve(matrix, target)
    correction = LaurentPoly({j: coeffs[j] for j in range(k)})
    return particular + correction


@dataclass(frozen=True)
class AuxFunction:
    """Multiplier sum(params[name] * shape) + constant_part.

    Shapes may carry 1/eta and 1/eta^2 terms; the product with the stage
    carrier must come out a pure polynomial.
    """

    basis: tuple[tuple[str, LaurentPoly], ...]
    constant_part: LaurentPoly = field(default_factory=LaurentPoly.zero)

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.basis)

    def assemble(self, params: Mapping[str, float]) -> LaurentPoly:
        """The multiplier polynomial at the given parameter values."""
        total = self.constant_part
        for name, shape in self.basis:
            if name not in params:
                raise MissingParameter(f"auxiliary function needs parameter {name!r}")
            total = total + shape * float(params[name])
        return total


def apply_aux_function(
    aux: AuxFunction, params: Mapping[str, float], carrier: LaurentPoly
) -> LaurentPoly:
    """Multiply the assembled auxiliary polynomial into a stage carrier."""
    return _pole_free(aux.assemble(params) * carrier)


def _pole_free(product: LaurentPoly) -> LaurentPoly:
    if product.min_exponent < 0 and not product.is_zero:
        raise PoleNotCancelled(
            "auxiliary product kept a 1/eta term; the carrier must cancel it"
        )
    return product


@dataclass(frozen=True)
class NonlinearExpansion:
    """Nonlinear remainder at the seed: N(u0) and dN/du^(j) at u0 by order j."""

    value: LaurentPoly
    partials: tuple[LaurentPoly, ...]


@dataclass(frozen=True)
class StageSolution:
    """Seed, two corrections and their sum."""

    u0: LaurentPoly
    u1: LaurentPoly
    u2: LaurentPoly
    assembled: LaurentPoly


def run_stages(
    spec: LinearProblemSpec,
    nonlinear: Callable[[LaurentPoly], NonlinearExpansion],
    aux_set: Sequence[AuxFunction | None],
    params: Mapping[str, float],
) -> StageSolution:
    """Run the seed and two correction stages and assemble their sum.

    aux_set[0] weights N(u0) in the first correction; aux_set[1 + j] weights
    (d^j u1) * dN/du^(j) in the second.  An absent or None slot drops that
    term; slots beyond the listed partials are accepted and ignored.
    """
    u0 = solve_linear_stage(spec)
    expansion = nonlinear(u0)

    if not aux_set or aux_set[0] is None:
        raise EngineError("the first correction needs an auxiliary function")
    rhs1 = apply_aux_function(aux_set[0], params, expansion.value)
    u1 = solve_linear_stage(spec, rhs1, homogeneous=True)

    rhs2 = ZERO
    derivative = u1
    for j, partial in enumerate(expansion.partials):
        if j > 0:
            derivative = derivative.differentiate()
        if partial.is_zero:
            continue
        slot = 1 + j
        if slot >= len(aux_set) or aux_set[slot] is None:
            continue
        rhs2 = rhs2 + apply_aux_function(aux_set[slot], params, derivative * partial)
    u2 = solve_linear_stage(spec, rhs2, homogeneous=True)

    return StageSolution(u0=u0, u1=u1, u2=u2, assembled=u0 + u1 + u2)


def stage_basis(
    spec: LinearProblemSpec,
    nonlinear: Callable[[LaurentPoly], NonlinearExpansion],
    aux_set: Sequence[AuxFunction | None],
) -> tuple[LaurentPoly, dict[str, LaurentPoly]]:
    """The seed and one correction column per parameter, in one pass.

    When aux_set[0] carries a single parameter L and no multiplier has a
    constant part, run_stages gives u1 = L*a and u2 = L*sum_k Ck*b_k with
    fixed polynomials a and b_k: u1 scales the carriers of the second
    stage, and each multiplier is linear in its parameters.  This solves
    u0, a and each b_k once, on the carriers of run_stages at L = 1, and
    returns u0 with the columns by parameter name: L -> a, Ck -> b_k.  A
    parameter whose slot run_stages skips gets no column.
    """
    if not aux_set or aux_set[0] is None or len(aux_set[0].basis) != 1:
        raise EngineError("the first correction needs a one-parameter auxiliary function")
    if any(aux is not None and not aux.constant_part.is_zero for aux in aux_set):
        raise EngineError("a multiplier with a constant part is not linear in its parameters")
    u0 = solve_linear_stage(spec)
    expansion = nonlinear(u0)
    (lead, lead_shape), = aux_set[0].basis
    a = solve_linear_stage(spec, _pole_free(lead_shape * expansion.value), homogeneous=True)
    columns = {lead: a}
    derivative = a
    for j, partial in enumerate(expansion.partials):
        if j > 0:
            derivative = derivative.differentiate()
        slot = 1 + j
        if partial.is_zero or slot >= len(aux_set) or aux_set[slot] is None:
            continue
        carrier = derivative * partial
        for name, shape in aux_set[slot].basis:
            rhs = _pole_free(shape * carrier)
            columns[name] = solve_linear_stage(spec, rhs, homogeneous=True)
    return u0, columns
