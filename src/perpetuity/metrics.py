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

The one-step CF of the contraction check has two paths.  Where rho's atoms
are equally spaced (quantized uniform01), its inner sum is a polynomial in
e^(isd), evaluated by blocked Horner with O(sqrt J) vector products and
2 sin pairs per point; it agrees with the direct form within 1e-12.  Every
other law takes the direct cos/sin sum over all (s, a_j, x_k), whose bits
equal the plain cos + i sin form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AtomicDistribution, EmpiricalSample

_BOUND_NOTE = "modulus bound lambda*int h^q derived via exponent comparison"

#: Elements per block of the (s, x) products formed by empirical_lst and
#: step_char_function's direct path, and of the (b x U) power array of its
#: polynomial path.
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
        if not 0.0 < float(self.s_lo) < float(self.s_hi) < math.inf:
            raise ValueError("need 0 < s_lo < s_hi < inf")
        if int(self.quad_points) < 16:
            raise ValueError("need at least 16 quadrature points")


#: Default band of contraction_ratio; RDeltaConfig's own is the r_q band.
VERIFY_BAND = RDeltaConfig(s_lo=1e-2, s_hi=1e2, quad_points=256)


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
                    mean: float) -> AtomicDistribution:
    """Random atomic law of 1-4 atoms rescaled to an exact target mean (for
    sweeps)."""
    k = int(rng.integers(1, 5))
    locs = np.sort(rng.uniform(0.2, 2.5, size=k))
    weights = rng.dirichlet(np.ones(k))
    law = AtomicDistribution(locs, weights)
    return AtomicDistribution(law.locations * (mean / law.mean()), law.weights)


def _cis_minus_one(x: np.ndarray) -> np.ndarray:
    """e^(ix) - 1 as -2 sin^2(x/2) + i sin x, without cancellation near 0."""
    half = np.sin(0.5 * x)
    out = np.empty(x.shape, dtype=complex)
    np.multiply(-2.0 * half, half, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _progression_spacing(a: np.ndarray) -> float | None:
    """Spacing d when the J >= 3 atoms lie on a_1 + (j-1) d within
    4 eps a_J each, else None."""
    if a.size < 3:
        return None
    d = (a[-1] - a[0]) / (a.size - 1)
    gap = np.abs(a[0] + np.arange(a.size) * d - a)
    return d if gap.max() <= 4.0 * np.finfo(float).eps * a[-1] else None


def _progression_step_exponent(a1: float, d: float, rates: np.ndarray,
                               theta: AtomicDistribution,
                               s: np.ndarray) -> np.ndarray:
    """sum_j c_j (CF_theta(s a_j) - 1) for atoms a_j = a1 + (j-1) d.

    Per point u = s x_k, with z = e^(iud), E(x) = e^(ix) - 1 and
    B_k = sum_{j>k} c_j (0-based j),

        sum_j c_j (e^(iua_j) - 1) = e^(iua1) E(ud) Q(z) + E(ua1) sum_j c_j,

    where Q(z) = sum_k B_k z^k.  Unlike sum_j c_j e^(iua_j) - sum_j c_j,
    the difference form does not cancel near u = 0.  Q is evaluated by
    blocked Horner (Paterson and Stockmeyer 1973): an (M x b) matrix of
    the B_k times the powers z^0..z^(b-1), then Horner in z^b over the
    M rows.
    """
    tail = np.cumsum(rates[::-1])[::-1]
    total, coeffs = tail[0], tail[1:]
    b = math.isqrt(coeffs.size)
    blocks = np.zeros((-(-coeffs.size // b), b))
    blocks.flat[:coeffs.size] = coeffs
    t = theta.locations
    rows = max(1, _CHUNK_ELEMENTS // (b * t.size))
    out = np.empty(s.size, dtype=complex)
    for lo in range(0, s.size, rows):
        u = np.multiply.outer(s[lo:lo + rows], t).ravel()
        step = _cis_minus_one(u * d)
        z = step + 1.0
        powers = np.empty((b, u.size), dtype=complex)
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(z, (b - 1, u.size)), axis=0,
                   out=powers[1:])
        z_b = powers[-1] * z
        # a real row times interleaved (re, im) powers gives both parts
        interleaved = powers.view(float)
        acc = (blocks[-1] @ interleaved).view(complex)
        for row in blocks[-2::-1]:
            acc *= z_b
            acc += (row @ interleaved).view(complex)
        lead = _cis_minus_one(u * a1)
        acc *= step
        acc *= lead + 1.0
        acc += lead * total
        out[lo:lo + rows] = acc.reshape(-1, t.size) @ theta.weights
    return out


def step_char_function(rho: AtomicDistribution, theta: AtomicDistribution,
                       s_grid) -> np.ndarray:
    """Exact CF of one transform step (lambda = 1) applied to atomic theta.

    The dual kernel of rho has steps of value a_j and length w_j / a_j, so
    the compound-Poisson step has CF exp(sum_j (w_j/a_j)(CF_theta(s a_j) - 1)),
    the same map the LST solver iterates on the Laplace side.  Where rho's
    atoms are equally spaced (quantized uniform01) the sum is a polynomial
    in e^(isd), evaluated by _progression_step_exponent; every other law
    takes the direct cos/sin sum over all (s, a_j, x_k).
    """
    s = np.asarray(s_grid, dtype=float)
    rates = rho.weights / rho.locations
    d = _progression_spacing(rho.locations)
    if d is not None:
        return np.exp(_progression_step_exponent(
            rho.locations[0], d, rates, theta, s))
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
    cfg: RDeltaConfig = VERIFY_BAND,
) -> ContractionReport:
    """Exact r_q contraction of one transform step, q = cfg.delta.

    Both distances come from closed-form characteristic functions on one
    quadrature grid: the atomic inputs directly, the outputs through
    step_char_function.  The default is VERIFY_BAND at q = 1.5; truncation
    below s_lo moves the equal-mean integral by O(s_lo^(2-q)) and the
    dropped tail above s_hi is bounded by 2 s_hi^(-q)/q.

    A pair is degenerate (ratio None) when r_before is at or below the
    roundoff floor of the input distance.  Equal-mean atoms that differ in
    the last bits give |CF difference| up to about eps*m*s, whose integral
    against s^(-q-1) above s_lo is eps*m*s_lo^(1-q)/(q-1); the floor is
    that times _ROUNDOFF_SAFETY.  Such pairs (identical inputs included)
    carry a 0/0 ratio that measures roundoff, not the transform.
    """
    q = float(cfg.delta)
    bound = rho.mellin(q - 1.0)
    if bound >= 1.0:
        raise ValueError(
            f"E A^(q-1) = {bound:.12g} >= 1: no contraction at this order"
        )
    before = r_delta_report(theta1, theta2, cfg)
    fine = _quad_grid(cfg)
    after = _report_from_cf_diff(
        step_char_function(rho, theta1, fine)
        - step_char_function(rho, theta2, fine), fine, cfg)
    m = max(theta1.mean(), theta2.mean())
    floor = (_ROUNDOFF_SAFETY * np.finfo(float).eps * m
             * float(cfg.s_lo) ** (1.0 - q) / (q - 1.0))
    degenerate = bool(before.value <= floor)
    return ContractionReport(
        r_before=before.value,
        r_after=after.value,
        ratio=None if degenerate else after.value / before.value,
        bound_g=float(bound),
        q=q,
        doubling_error=max(before.doubling_error, after.doubling_error),
        degenerate=degenerate,
    )
