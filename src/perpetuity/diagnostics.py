"""Existence gate, tail classification, and moment-order diagnostics.

The gate is strict: a non-degenerate solution exists iff E log A < 0.
Tail class and moment determinacy are exact functions of the atom
locations; a law quantized from the uniform(0, 1] family additionally
carries family-level answers (essential sup exactly 1, infinite K), which
ride alongside the atomic ones rather than replacing them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .distributions import FAMILY_UNIFORM01, UNBOUNDED, AtomicDistribution


class ExistenceError(ValueError):
    """Raised when an operation requires E log A < 0 and the law fails it."""


class TailClass(str, enum.Enum):
    NO_EXPONENTIAL_MOMENT = "no-exponential-moment"
    EXPONENTIAL_MOMENT_NOT_ENTIRE = "exponential-moment-not-entire"
    ENTIRE_CHARACTERISTIC_FUNCTION = "entire-characteristic-function"


def existence_gate(rho: AtomicDistribution) -> tuple[bool, float]:
    """(exists, E log A); E log A = 0 counts as non-existence."""
    e = rho.log_moment()
    return e < 0.0, e


def require_existence(rho: AtomicDistribution) -> float:
    exists, e = existence_gate(rho)
    if not exists:
        raise ExistenceError(
            f"no non-degenerate solution: E log A = {e:.12g} is not < 0"
        )
    return e


def tail_class(rho: AtomicDistribution) -> TailClass:
    """Classify by the essential sup of A (exact atom-location comparison)."""
    top = rho.ess_sup
    if top > 1.0:
        return TailClass.NO_EXPONENTIAL_MOMENT
    if top == 1.0:
        return TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
    return TailClass.ENTIRE_CHARACTERISTIC_FUNCTION


def family_tail_class(rho: AtomicDistribution) -> TailClass | None:
    """Family-level tail class where the family pins it (uniform01 -> sup 1)."""
    if rho.family == FAMILY_UNIFORM01:
        return TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
    return None


def is_determinate(rho: AtomicDistribution) -> bool:
    """Moment determinacy of the solution: holds iff ess sup A <= 1."""
    return rho.ess_sup <= 1.0


def max_integer_moment_order(rho: AtomicDistribution):
    """Largest integer n <= 64 with E A^n < 1, or the unbounded marker.

    E eta^{n+1} is finite exactly when E A^n < 1; with ess sup <= 1 every
    integer order works.  Since p -> E A^p is log-convex with value 1 at 0,
    the region {E A^p < 1} is an interval, so the first crossing ends the
    scan.  Returns 0 when even n = 1 fails (only the mean is covered).
    """
    require_existence(rho)
    if rho.ess_sup <= 1.0:
        return UNBOUNDED
    best = 0
    for n in range(1, 65):
        if rho.mellin(n) < 1.0:
            best = n
        else:
            break
    return best


@dataclass(frozen=True)
class DiagnosticsReport:
    exists: bool
    e_log_a: float
    ess_sup: float
    tail_class: TailClass
    determinate: bool
    # int, "unbounded", or None when no solution exists
    max_integer_moment_order: object
    compound_poisson: bool
    e_inv_a: float
    family: str | None = None
    family_tail_class: TailClass | None = None
    family_compound_poisson: bool | None = None

    def render_table(self) -> str:
        rows = [
            ("exists", "yes" if self.exists else "no"),
            ("E log A", f"{self.e_log_a:.12g}"),
            ("ess sup A", f"{self.ess_sup:.12g}"),
            ("tail class", self.tail_class.value),
            ("determinate", "yes" if self.determinate else "no"),
            ("max integer moment order", str(self.max_integer_moment_order)),
            ("compound Poisson", "yes" if self.compound_poisson else "no"),
            ("E 1/A", f"{self.e_inv_a:.12g}"),
        ]
        if self.family is not None:
            rows.append(("family", self.family))
            if self.family_tail_class is not None:
                rows.append(("family tail class", self.family_tail_class.value))
            if self.family_compound_poisson is not None:
                rows.append(
                    ("family compound Poisson",
                     "yes" if self.family_compound_poisson else "no")
                )
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def diagnose(rho: AtomicDistribution) -> DiagnosticsReport:
    exists, e = existence_gate(rho)
    order = max_integer_moment_order(rho) if exists else None
    is_uniform = rho.family == FAMILY_UNIFORM01
    return DiagnosticsReport(
        exists=exists,
        e_log_a=e,
        ess_sup=rho.ess_sup,
        tail_class=tail_class(rho),
        determinate=is_determinate(rho),
        max_integer_moment_order=order,
        compound_poisson=math.isfinite(rho.mean_inverse()),
        e_inv_a=rho.mean_inverse(),
        family=rho.family,
        family_tail_class=family_tail_class(rho),
        family_compound_poisson=False if is_uniform else None,
    )
