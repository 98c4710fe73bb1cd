"""Generic machinery for two-correction homotopy expansions.

A problem is posed as a linear operator d^k/deta^k with k point conditions
and a constant-in-homotopy forcing.  The seed stage solves the linear
problem alone; each correction stage solves the same operator against a
right-hand side built from the nonlinear remainder, weighted by auxiliary
multiplier polynomials that are linear in the free parameters.  So the
corrections are fixed polynomials weighted by those parameters, and
stage_basis solves each of them once.
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

    # LinearProblemSpec rejected an ill-conditioned matrix when it was built.
    matrix = _condition_matrix(spec.conditions, k)
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
    """Multiplier sum(params[name] * shape), linear in its parameters.

    Shapes may carry 1/eta and 1/eta^2 terms; the product with the stage
    carrier must come out a pure polynomial.
    """

    basis: tuple[tuple[str, LaurentPoly], ...]

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.basis)

    def assemble(self, params: Mapping[str, float]) -> LaurentPoly:
        """The multiplier polynomial at the given parameter values."""
        total = ZERO
        for name, shape in self.basis:
            if name not in params:
                raise MissingParameter(f"auxiliary function needs parameter {name!r}")
            total = total + shape * float(params[name])
        return total


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


def stage_basis(
    spec: LinearProblemSpec,
    nonlinear: Callable[[LaurentPoly], NonlinearExpansion],
    aux_set: Sequence[AuxFunction | None],
) -> tuple[LaurentPoly, dict[str, LaurentPoly]]:
    """The seed and one correction column per parameter, in one pass.

    aux_set[0] carries a single parameter L and weights N(u0) in the first
    correction; aux_set[1 + j] weights (d^j u1) * dN/du^(j) in the second.
    Each multiplier is linear in its parameters, so u1 = L*a and
    u2 = L*sum_k Ck*b_k with fixed polynomials a and b_k, each solved once
    with homogeneous conditions.  Returns u0 and the columns by name:
    L -> a, Ck -> b_k.  An absent or None slot, one beyond the partials and
    one whose partial is zero give no column.
    """
    if not aux_set or aux_set[0] is None or len(aux_set[0].basis) != 1:
        raise EngineError("the first correction needs a one-parameter auxiliary function")
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
