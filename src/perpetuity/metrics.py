"""Smoothing-metric distances and contraction diagnostics.

The distance of order delta in (1, 2) between laws with equal means is

    r_delta(nu1, nu2) = int_0^inf s^(-delta-1) |CF1(s) - CF2(s)| ds,

finite on equal-mean laws with finite delta-moments (the CF difference is
o(s^delta) at 0 and bounded by 2 at infinity).  The transform contracts
this metric with modulus at most lambda * int h^q = E A^(q-1): bounding
|e^a - e^b| <= |a - b| on the exponent side and substituting t = s h(u)
moves the kernel out of the integral.  That bound is derived, not quoted;
reports carry a note saying so.

Distances and characteristic functions take atomic laws only, whose CFs
are exact sums over the atoms; a sample raises TypeError.  The one sample
statistic here, empirical_lst, feeds the Monte Carlo cross-oracle check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import AtomicDistribution, EmpiricalSample

_BOUND_NOTE = "modulus bound lambda*int h^q derived via exponent comparison"

#: Elements per block of the (s, x) products formed by empirical_lst and
#: step_char_function.
_CHUNK_ELEMENTS = 2 ** 18

#: Multiple of the double-precision input-distance floor below which a
#: contraction pair counts as degenerate.
_ROUNDOFF_SAFETY = 1e3


@dataclass(frozen=True)
class RDeltaConfig:
    delta: float = 1.5
    s_lo: float = 1e-4
    s_hi: float = 1e4
    quad_points: int = 2048

    def __post_init__(self):
        if not 1.0 < float(self.delta) < 2.0:
            raise ValueError("delta must lie in (1, 2)")
        if not 0.0 < float(self.s_lo) < float(self.s_hi):
            raise ValueError("need 0 < s_lo < s_hi")
        if int(self.quad_points) < 16:
            raise ValueError("need at least 16 quadrature points")


def char_function(nu: AtomicDistribution, s_grid) -> np.ndarray:
    """E exp(isX) of an atomic law, summed exactly over its atoms.

    Samples raise TypeError: the metric is stated for atomic laws, whose
    characteristic functions are known in closed form.
    """
    if not isinstance(nu, AtomicDistribution):
        raise TypeError("nu must be an AtomicDistribution")
    block = np.multiply.outer(np.asarray(s_grid, dtype=float), nu.locations)
    cis = np.empty(block.shape, dtype=complex)
    np.cos(block, out=cis.real)
    np.sin(block, out=cis.imag)
    return cis @ nu.weights


def empirical_lst(sample: EmpiricalSample, s_grid) -> np.ndarray:
    """Mean of exp(-s X) over the sample, per grid point.

    The (s, x) products are formed in blocks of at most _CHUNK_ELEMENTS
    entries, all in one buffer, so memory stays bounded for large samples.
    """
    s = np.asarray(s_grid, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("Laplace transform grid must be nonnegative")
    values = sample.values
    acc = np.zeros(s.size)
    step = max(1, _CHUNK_ELEMENTS // max(s.size, 1))
    buf = np.empty((s.size, min(step, values.size)))
    for lo in range(0, values.size, step):
        out = buf[:, :min(step, values.size - lo)]
        # (-s) x is exactly -(s x), and the block needs no negated copy
        np.multiply.outer(-s, values[lo:lo + step], out=out)
        acc += np.exp(out, out=out).sum(axis=1)
    return acc / values.size


@dataclass(frozen=True)
class RDeltaReport:
    value: float
    doubling_error: float        # relative change coarse -> fine grid
    truncation_low: float        # local power-law continuation below s_lo
    truncation_high: float       # 2 s_hi^-delta / delta tail bound
    delta: float


def _log_trapz(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule with compensated summation (order-independent)."""
    panels = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return math.fsum(panels.tolist())


def _quad_grid(cfg: RDeltaConfig) -> np.ndarray:
    """(2*quad_points - 1)-point log grid on [s_lo, s_hi]."""
    return np.geomspace(float(cfg.s_lo), float(cfg.s_hi),
                        2 * int(cfg.quad_points) - 1)


def _report_from_cf_diff(cf_diff: np.ndarray, fine: np.ndarray,
                         cfg: RDeltaConfig) -> RDeltaReport:
    """Quadrature of s^(-delta-1) |CF difference| on the grid of _quad_grid.

    The reported value uses the full grid and the doubling error compares
    it against the nested half-resolution grid.
    """
    delta = float(cfg.delta)
    integrand = fine ** (-delta - 1.0) * np.abs(cf_diff)
    # integrate in log s: ds = s dx
    logx = np.log(fine)
    weighted = integrand * fine
    value = _log_trapz(weighted, logx)
    coarse = _log_trapz(weighted[::2], logx[::2])
    doubling = abs(value - coarse) / max(value, 1e-300)
    trunc_low = float(integrand[0]) * float(cfg.s_lo) / (2.0 - delta)
    trunc_high = 2.0 * float(cfg.s_hi) ** (-delta) / delta
    return RDeltaReport(
        value=float(value),
        doubling_error=float(doubling),
        truncation_low=trunc_low,
        truncation_high=trunc_high,
        delta=delta,
    )


def r_delta_report(nu1: AtomicDistribution, nu2: AtomicDistribution,
                   cfg: RDeltaConfig = RDeltaConfig()) -> RDeltaReport:
    """Distance between two atomic laws, plus quadrature self-diagnostics.

    Raises TypeError for a non-atomic argument, and ValueError when the
    means differ by more than 1e-6 relative: the integral then diverges
    at 0.
    """
    fine = _quad_grid(cfg)
    cf_diff = char_function(nu1, fine) - char_function(nu2, fine)
    m1, m2 = nu1.mean(), nu2.mean()
    tol = 1e-6 * max(abs(m1), abs(m2), 1e-300)
    if abs(m1 - m2) > tol:
        raise ValueError(
            f"means differ: {m1:.12g} vs {m2:.12g} (tolerance {tol:.3g}); "
            "the metric integral diverges at 0 for unequal means"
        )
    return _report_from_cf_diff(cf_diff, fine, cfg)


def random_mean_law(rng: np.random.Generator,
                    mean: float = 1.0) -> AtomicDistribution:
    """Random atomic law of 1-4 atoms rescaled to an exact target mean (for
    sweeps)."""
    k = int(rng.integers(1, 5))
    locs = np.sort(rng.uniform(0.2, 2.5, size=k))
    weights = rng.dirichlet(np.ones(k))
    law = AtomicDistribution(locs, weights)
    return AtomicDistribution(law.locations * (mean / law.mean()), law.weights)


def step_char_function(rho: AtomicDistribution, theta: AtomicDistribution,
                       s_grid) -> np.ndarray:
    """Exact CF of one transform step (lambda = 1) applied to atomic theta.

    The dual kernel of rho has steps of value a_j and length w_j / a_j, so
    the compound-Poisson step has CF exp(sum_j (w_j/a_j)(CF_theta(s a_j) - 1)),
    the same map the LST solver iterates on the Laplace side.
    """
    s = np.asarray(s_grid, dtype=float)
    rates = rho.weights / rho.locations
    rows = max(1, _CHUNK_ELEMENTS // (rho.locations.size * theta.locations.size))
    out = np.empty(s.size, dtype=complex)
    for lo in range(0, s.size, rows):
        inner = char_function(
            theta, np.multiply.outer(s[lo:lo + rows], rho.locations))
        inner -= 1.0
        out[lo:lo + rows] = np.exp(inner @ rates)
    return out


@dataclass(frozen=True)
class ContractionReport:
    r_before: float
    r_after: float
    ratio: float | None
    bound_g: float
    q: float
    doubling_error: float
    degenerate: bool
    bound_note: str = _BOUND_NOTE


def contraction_ratio(
    rho: AtomicDistribution,
    theta1: AtomicDistribution,
    theta2: AtomicDistribution,
    q: float,
    cfg: RDeltaConfig | None = None,
) -> ContractionReport:
    """Exact r_q contraction of one transform step against the bound.

    Both distances come from closed-form characteristic functions on one
    quadrature grid: the atomic inputs directly, the outputs through
    step_char_function.  The default band is [1e-2, 1e2] with 512 points;
    truncation below s_lo moves the equal-mean integral by O(s_lo^(2-q))
    and the dropped tail above s_hi is bounded by 2 s_hi^(-q)/q.

    A pair is degenerate (ratio None) when r_before is at or below the
    roundoff floor of the input distance.  Equal-mean atoms that differ in
    the last bits give |CF difference| up to about eps*m*s, whose integral
    against s^(-q-1) above s_lo is eps*m*s_lo^(1-q)/(q-1); the floor is
    that times _ROUNDOFF_SAFETY.  Such pairs (identical inputs included)
    carry a 0/0 ratio that measures roundoff, not the transform.
    """
    if not 1.0 < float(q) < 2.0:
        raise ValueError("q must lie in (1, 2)")
    base = (cfg if cfg is not None
            else RDeltaConfig(delta=float(q), s_lo=1e-2, s_hi=1e2,
                              quad_points=512))
    base = replace(base, delta=float(q))
    bound = rho.mellin(q - 1.0)
    if bound >= 1.0:
        raise ValueError(
            f"E A^(q-1) = {bound:.12g} >= 1: no contraction at this order"
        )
    before = r_delta_report(theta1, theta2, base)
    fine = _quad_grid(base)
    after = _report_from_cf_diff(
        step_char_function(rho, theta1, fine)
        - step_char_function(rho, theta2, fine), fine, base)
    m = max(theta1.mean(), theta2.mean())
    floor = (_ROUNDOFF_SAFETY * np.finfo(float).eps * m
             * float(base.s_lo) ** (1.0 - float(q)) / (float(q) - 1.0))
    degenerate = bool(before.value <= floor)
    return ContractionReport(
        r_before=before.value,
        r_after=after.value,
        ratio=None if degenerate else after.value / before.value,
        bound_g=float(bound),
        q=float(q),
        doubling_error=max(before.doubling_error, after.doubling_error),
        degenerate=degenerate,
    )
