"""Integer moments of the solution law via the size-bias recursion.

Writing m_n = E eta^n and g(k) = E A^k, independence in the defining
identity gives, for every n >= 1,

    m_{n+1} = [ sum_{k=0}^{n-1} C(n,k) g(k) m_{k+1} m_{n-k} ] / (1 - g(n)),

seeded by m_0 = 1, m_1 = m.  The division demands g(n) < 1; we stop at the
first crossing, and flag the result "marginal" when g(n) sits inside
(1 - 1e-12, 1) where the quotient is numerically untrustworthy.  The mean
factor cancels through the size-bias algebra, so the recursion is valid
for any m > 0 (checked by the scale law m_n(c*m) = c^n m_n(m)).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .diagnostics import require_existence
from .distributions import (
    FAMILY_UNIFORM01,
    AtomicDistribution,
    MomentVector,
    uniform01_mellin,
)

#: Largest supported order; binomial coefficients are exact integers here.
MAX_SUPPORTED_ORDER = 64

_MARGINAL_GAP = 1e-12


def eta_moments_from_mellin(
    g: Callable[[int], float], m: float, n_max: int
) -> MomentVector:
    """Run the recursion against an arbitrary Mellin function g(k) = E A^k.

    Raises ValueError when a moment overflows a double.
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mean target m must be a positive real")
    if not 1 <= int(n_max) <= MAX_SUPPORTED_ORDER:
        raise ValueError(f"order must be in 1..{MAX_SUPPORTED_ORDER}")
    n_max = int(n_max)
    moms = [1.0, float(m)]
    marginal = False
    for n in range(1, n_max):
        gn = g(n)
        if gn >= 1.0 - _MARGINAL_GAP:
            marginal = gn < 1.0
            break
        terms = [
            math.comb(n, k) * g(k) * moms[k + 1] * moms[n - k]
            for k in range(n)
        ]
        moms.append(math.fsum(terms) / (1.0 - gn))
        if not math.isfinite(moms[-1]):
            raise ValueError(
                f"E eta^{n + 1} overflows a double at mean = {m:g}; use a "
                f"smaller mean or a lower moment order")
    return MomentVector(
        values=tuple(moms),
        mean=float(m),
        max_order=len(moms) - 1,
        marginal=marginal,
    )


def eta_moments(
    rho: AtomicDistribution,
    m: float,
    n_max: int,
    family_exact: bool = False,
) -> MomentVector:
    """Moments E eta^0..E eta^N of the solution law for multiplier rho.

    With family_exact=True a uniform01-tagged law uses the family's
    closed-form Mellin function 1/(k+1) instead of the atomic sum, removing
    quantization error entirely.
    """
    require_existence(rho)
    if family_exact and rho.family != FAMILY_UNIFORM01:
        raise ValueError("family_exact requires a uniform01-tagged law")
    g = uniform01_mellin if family_exact else rho.mellin
    return eta_moments_from_mellin(g, m, n_max)


def eta_variance(rho: AtomicDistribution) -> float:
    """v = Var(eta) / m^2 = E A / (1 - E A), the same at every mean m, or
    0.0 where E eta^2 does not exist (E A >= 1, or within the recursion's
    marginal gap 1e-12 of 1)."""
    require_existence(rho)
    ea = rho.mean()
    return ea / (1.0 - ea) if ea < 1.0 - _MARGINAL_GAP else 0.0


def gamma_variance(rho: AtomicDistribution, m: float) -> float:
    """``eta_variance``, refused where E eta^2 = m^2 (1 + v) overflows."""
    v = eta_variance(rho)
    if v > 0.0 and not math.isfinite(m * m * (1.0 + v)):
        raise ValueError(f"E eta^2 overflows a double at mean = {m:g}; use "
                         f"a smaller mean")
    return v


def gamma_psi(s, m: float, v: float):
    """log1p(v m s) / v, the Laplace exponent of the Gamma law of mean m and
    variance v m^2 (shape 1/v, scale v m), or m s where v = 0.  Zero drift
    gives the solution cumulants k_n = int x^n nu(dx).  Let kappa be the
    root of E A^kappa = 1.  Where kappa > 2, k3 is finite and k2^2 <= m k3,
    so the third-order error |k3 - 2 k2^2 / m| s^3 / 6 is at most
    k3 s^3 / 6.  Where 1 < kappa <= 2, k3 is infinite and the error past
    the matched second order is of order s^(1 + kappa) instead."""
    return (1.0 / v) * np.log1p(v * m * s) if v > 0.0 else m * s


def sb_moments(mv: MomentVector) -> MomentVector:
    """Moments of the size-biased solution: E eta_sb^n = m_{n+1} / m."""
    if mv.max_order < 1:
        raise ValueError("need at least the first moment")
    vals = tuple(mv.values[n + 1] / mv.mean for n in range(mv.max_order))
    return MomentVector(
        values=vals,
        mean=vals[1] if len(vals) > 1 else vals[0],
        max_order=len(vals) - 1,
        marginal=mv.marginal,
    )
