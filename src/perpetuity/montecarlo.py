"""Shot-noise Monte Carlo route to the solution law.

One transform step replaces each sample slot by sum_i xi_i * h(tau_i) over
a Poisson flow of intensity lambda, with marks xi drawn from the current
sample.  For a step kernel the arrivals on step k are Poisson(lambda * d_k)
per slot, independent across steps and slots, and each contributes
v_k * xi.  A chunk of n slots draws them by Poisson colouring and
superposition (Kingman 1993, Poisson Processes, sec. 5.1): one
Poisson(n * lambda * d_k) total per step, then a uniform slot for each
arrival.  Given the total, the uniform scatter leaves the n slot counts
multinomial, and a Poisson total split multinomially gives n independent
Poisson(lambda * d_k) counts, so the law is the per-slot one exactly.  The
per-arrival work is two bounded-integer draws (mark and slot), one gather
and one scatter-add.

Every iterate is rescaled to mean exactly m.  The fixed-point map is scale
equivariant (if eta solves it for mean m, c * eta solves it for mean c * m),
so the mean is known in closed form; sampling it would let it wander as a
martingale, since marks are resampled from the previous iterate.

Start law.  Iterate 0 is drawn from the Gamma law that matches the
solution's mean m and variance v m^2 (v = E A / (1 - E A)),
psi_0(s) = log1p(v m s) / v, the LST's law below s_min.  It is exact
for the continuous uniform01 law (Exp(1) at m = 1), so the MC starts close
to the answer and needs few steps.  Where E eta^2 does not exist
(E A >= 1), eta_sb has no mean and ``start_law`` refuses the law.

Number of transform steps.  Started from the same law, LST iterate k is
the Laplace transform of MC iterate k as n -> infinity (both apply the
same map to the same law), so phi_k - phi is the bias left after k MC
steps, known before any sampling.  ``transform_steps`` replays that
trajectory on the solved grid's nodes and returns the smallest k with
20 |phi_k(s) - phi(s)| <= se(s) at every node, se(s) = sqrt((phi(2s) -
phi(s)^2) / n) being the standard error of the n-sample empirical
transform.  The rule is per node because se shrinks with phi: one sup
against the largest se would stop too early where phi is small.  At
n = 2e5 it gives T = 1, 9 and 14 for uniform01/512, the point mass at 1/2
and {0.3, 1.2}.  For uniform01 the replay iterates the LST's family map,
whose fixed point the Gamma start is up to O(h^4), so T = 1; the MC
samples the atoms, and their quantization is left to the cross-check.

Determinism contract: every random stream derives from the master seed,
a purpose label and, for the transform steps, (iteration, chunk) indices,
so chunk results are a pure function of the inputs and the chunk layout.
Rerunning a pipeline with the same inputs reproduces identical arrays bit
for bit; another layout changes the streams but not the statistics.  A
chunk has 2**17 // ceil(K) slots (at least one), K = E[1/A] the expected
arrivals per slot (``chunk_slots``), so its per-arrival arrays hold about
1 MB each whatever the law: 14563 slots for uniform01/512 (K = 8.2), 65536
for the point mass at 1/2, 26 for K = 5000.  A law with ceil(K) > 2**22,
where one slot alone passes that cap, is refused with ValueError before
drawing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import moment_index, require_existence
from .distributions import AtomicDistribution, EmpiricalSample
from .lst_solver import LstGrid, iterate_once
from .metrics import empirical_lst
from .moments import gamma_psi, gamma_variance
from .response import ResponseFunction, response_from_rho

#: Two-sided asymptotic KS coefficient at the 1% level: sqrt(-ln(0.005)/2).
KS_COEFF_1PCT = 1.6276236115189502

_MIN_VERDICT_SAMPLES = 1000

#: Cap on the expected arrivals of one shot-noise chunk.  An arrival holds
#: about 16 bytes of temporaries at the peak, a float64 weight and an int64
#: mark index or slot (tracemalloc), so a chunk stays near 70 MB.
_MAX_CHUNK_ARRIVALS = 2 ** 22

#: Expected arrivals per shot-noise chunk (see ``chunk_slots``).
_CHUNK_ARRIVALS = 2 ** 17


def derive_seed(master_seed: int, label: str, *indices: int) -> int:
    """Stable 64-bit child seed from (master seed, purpose label, indices)."""
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    h.update(b"\x00" + label.encode())
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest()[:8], "little")


def shot_noise_resample(
    theta: EmpiricalSample,
    h: ResponseFunction,
    seed: int,
    n_out: int,
) -> EmpiricalSample:
    """n_out slots of one exact compound-Poisson transform step applied to
    a sample."""
    rng = np.random.default_rng(seed)
    total = 0
    if h.n_steps > 0:
        per_step = rng.poisson(n_out * h.lam * h.durations)
        total = int(per_step.sum())
    if total > 0:
        xi = theta.values[rng.integers(0, theta.values.size, size=total)]
        xi *= np.repeat(h.values, per_step)
        out = np.bincount(rng.integers(0, n_out, size=total),
                          weights=xi, minlength=n_out)
    else:
        out = np.zeros(n_out)
    return EmpiricalSample(out, seed, f"shot-noise({theta.provenance})")


def start_law(rho: AtomicDistribution, m: float) -> dict:
    """The law of MC iterate 0, the Gamma law of ``moments.gamma_psi``;
    ValueError where ``moments.eta_variance`` finds no E eta^2 (E A >= 1)."""
    v = gamma_variance(rho, m)
    if not v > 0.0:
        raise ValueError(
            f"E A = {rho.mean():.12g}, not below 1: eta_sb has no mean (kappa "
            f"= {moment_index(rho):.12g}) and no Monte Carlo sample represents "
            f"this law; use solve --method lst")
    return {"law": "gamma", "shape": 1.0 / v, "scale": v * m}


def transform_steps(
    rho: AtomicDistribution,
    grid: LstGrid,
    n: int,
    cap: int,
) -> tuple[int, float | None]:
    """(T, bias): the fewest transform steps k <= cap whose bias, replayed
    on the solved grid of rho from the MC start law (the grid's law below
    s_min), is at most a twentieth of the n-sample standard error at every
    node, and max |phi_T - phi| there.

    A grid that has not converged gives (cap, None): it is no reference
    for the bias.  When no k <= cap meets the rule, T is cap.
    """
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    cap = int(cap)
    if cap < 1:
        raise ValueError("need at least one transform iteration")
    if not grid.converged:
        return cap, None
    s = grid.s_points
    phi = np.exp(-grid.psi)
    se = _standard_error(grid, s, n)
    state = replace(grid, psi=gamma_psi(s, grid.mean_target, grid.v),
                    iteration_count=0)
    for k in range(1, cap + 1):
        state = iterate_once(state, rho)
        err = np.abs(np.exp(-state.psi) - phi)
        if np.all(20.0 * err <= se):
            break
    return k, float(err.max())


def _standard_error(grid: LstGrid, s: np.ndarray, n: int) -> np.ndarray:
    """se(s) = sqrt((phi(2s) - phi(s)^2) / n), the standard error of the
    n-sample empirical transform at s, with phi read from the solved grid."""
    return np.sqrt(np.maximum(grid.eval_lst(2.0 * s) - grid.eval_lst(s) ** 2,
                              0.0) / n)


def chunk_slots(rho: AtomicDistribution) -> int:
    """Slots per mc_fixed_point chunk for rho: _CHUNK_ARRIVALS // ceil(K),
    at least one, K = E[1/A]; ValueError if one slot alone passes the cap."""
    rate = rho.mean_inverse()
    per_slot = math.ceil(rate)
    if per_slot > _MAX_CHUNK_ARRIVALS:
        raise ValueError(
            f"K = E[1/A] = {rate:.6g} expected arrivals per sample slot "
            f"exceed the per-chunk cap of {_MAX_CHUNK_ARRIVALS}; the shot-"
            f"noise sampler cannot bound its memory for this law")
    return max(1, _CHUNK_ARRIVALS // per_slot)


def _chunk_bounds(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def mc_fixed_point(
    rho: AtomicDistribution,
    m: float,
    n: int,
    seed: int,
    steps: int,
) -> EmpiricalSample:
    """n samples after ``steps`` transform steps from ``start_law``, each
    iterate rescaled to mean m; every stream derives from ``seed``.  The
    start is n Gamma draws from the ``"mc-start"`` stream, also rescaled.
    A step holds two iterates, the one it reads and the one whose slices
    its chunks fill, and the arrays of one chunk.

    Raises ValueError before any draw where ``start_law`` does (E A >= 1,
    or E eta^2, and so n * m, overflows), and when an iterate is all zero:
    it has no mean to rescale, which happens when n is too small for the
    law's atom at zero or for a Gamma start of tiny shape (E A near 1).
    """
    n, steps = int(n), int(steps)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    if steps < 1:
        raise ValueError("need at least one transform iteration")
    require_existence(rho)
    master = int(seed)
    if not m > 0.0:
        raise ValueError(f"mean = {m:g} must be a positive real")
    h = response_from_rho(rho, lam=1.0)
    chunk = chunk_slots(rho)
    law = start_law(rho, m)
    params = ", ".join(f"{k}={v:.17g}" for k, v in law.items() if k != "law")
    provenance = (
        f"mc-fixed-point(rho={rho.digest()}, m={m:.17g}, n={n}, "
        f"start={law['law']}({params}), iters={steps}, chunk={chunk}, "
        f"seed={master})"
    )
    rng = np.random.default_rng(derive_seed(master, "mc-start"))
    values = _rescale(rng.gamma(law["shape"], law["scale"], n), m, 0)
    current = EmpiricalSample(values, master, provenance)
    for it in range(steps):
        values = np.empty(n)
        for ci, (lo, hi) in enumerate(_chunk_bounds(n, chunk)):
            child = derive_seed(master, "shot-noise-transform", it, ci)
            values[lo:hi] = shot_noise_resample(current, h, child,
                                                n_out=hi - lo).values
        current = EmpiricalSample(_rescale(values, m, it + 1), master,
                                  provenance)
    return current


def _rescale(values: np.ndarray, m: float, it: int) -> np.ndarray:
    """Iterate ``it`` rescaled in place to mean m.  ValueError when its
    mean is 0, or so small that m / mean overflows (a Gamma start of tiny
    shape can underflow): it has no mean to rescale."""
    mean = float(values.mean())
    if not (mean > 0.0 and math.isfinite(m / mean)):
        raise ValueError(
            f"Monte Carlo iterate {it} of n = {values.size} samples is all "
            f"zero, so it has no mean to rescale to m; use a larger "
            f"mc.n_samples")
    values *= m / mean
    return values


def _ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS statistic sup |F_x - F_y|, with the right-continuous
    empirical CDFs of both samples read at every pooled value.

    One pooled copy holds both samples, each half sorted in place.  A
    stable argsort of the two sorted runs merges them in one linear pass
    and marks which sample each merged value came from; a stable sort
    then puts the merged values into the same buffer.  Both counts are
    read at the last element of each tie group.  Each array is dropped
    once read and the counts are formed in place, so no more than three
    pooled-length arrays of 8-byte entries live at once."""
    pooled = np.concatenate([x, y])
    pooled[:x.size].sort()
    pooled[x.size:].sort()
    is_x = pooled.argsort(kind="stable") < x.size
    pooled.sort(kind="stable")
    ends = np.flatnonzero(np.append(pooled[1:] != pooled[:-1], True))
    del pooled
    count_x = np.cumsum(is_x)[ends]
    del is_x
    cdf_x = count_x / x.size
    ends += 1
    ends -= count_x
    del count_x
    cdf_x -= np.divide(ends, y.size)
    return float(np.max(np.abs(cdf_x, out=cdf_x)))


def _ks_crit_1pct(values: np.ndarray, n_other: int) -> float:
    """KS_COEFF_1PCT sqrt(1/n1 + 1/n2), the 1% two-sample KS bound, at the
    Kish size n1 = (sum v)^2 / sum v^2 of the weights that size-bias
    ``values`` and n2 = n_other draws on the other side."""
    kish = float(values.sum()) ** 2 / float(np.dot(values, values))
    return KS_COEFF_1PCT * math.sqrt(1.0 / kish + 1.0 / n_other)


def _kolmogorov_sf(z: float) -> float:
    """Kolmogorov tail 2 sum_{k<=100} (-1)^(k-1) exp(-2 k^2 z^2) in [0, 1];
    below z = 0.1, where 100 terms fall short, it is 1 within 1e-50."""
    if z < 0.1:
        return 1.0
    k = np.arange(1, 101)
    terms = (-1.0) ** (k - 1) * np.exp(-2.0 * (k * z) ** 2)
    return min(max(2.0 * float(terms.sum()), 0.0), 1.0)


@dataclass(frozen=True)
class PerpetuityReport:
    """Two-sample comparison of eta_sb against A * eta_sb + eta."""

    ks_stat: float
    p_value: float
    n: int
    ks_crit_1pct: float


def perpetuity_residual(
    mu_sample: EmpiricalSample,
    rho: AtomicDistribution,
    seed: int,
) -> PerpetuityReport:
    """Two-sample KS test of the defining identity on resampled pairs.

    Left side: a size-biased resample of mu.  Right side: A * (independent
    size-biased resample) + (plain resample), with A drawn from rho.  All
    four streams derive from the given seed.  The report carries the KS
    statistic, the 1% bound ``_ks_crit_1pct`` against the n pairs, and the
    Kolmogorov-limit p-value at z = ks_stat / sqrt(1/n1 + 1/n2).
    """
    n = mu_sample.values.size
    if n < _MIN_VERDICT_SAMPLES:
        raise ValueError(f"need at least {_MIN_VERDICT_SAMPLES} pairs for a verdict")
    left = mu_sample.size_bias_resample(n, derive_seed(seed, "perp-left"))
    right = rho.sample(n, derive_seed(seed, "perp-right-a"))
    right *= mu_sample.size_bias_resample(
        n, derive_seed(seed, "perp-right-sb")).values
    right += mu_sample.resample(n, derive_seed(seed, "perp-right-eta")).values
    d = _ks_statistic(left.values, right)
    crit = _ks_crit_1pct(mu_sample.values, n)
    return PerpetuityReport(
        ks_stat=d,
        p_value=_kolmogorov_sf(KS_COEFF_1PCT * d / crit),
        n=n,
        ks_crit_1pct=crit,
    )


@dataclass(frozen=True)
class CrossOracleReport:
    """Agreement of the two solution routes on a Laplace-transform grid."""

    s_grid: tuple
    sup_distance: float
    sup_allowed: float
    max_ratio: float          # max over s of |diff| / (3 (se + grid_err))
    passed: bool


def cross_oracle_distance(sample: EmpiricalSample,
                          grid: LstGrid) -> CrossOracleReport:
    """Compare empirical and solved Laplace transforms point by point.

    Tolerance at each of 32 points s on [1e-2, 1e2] / m, m the grid's
    mean: 3 * (i.i.d. standard error + grid error estimate), with
    the standard error of the n-sample empirical transform read from the
    solved law, as ``transform_steps`` reads it.  The verdict requires
    every point inside tolerance.  A point with zero tolerance counts with
    ratio 0 where the two routes agree exactly there; where they do not,
    the sample has no spread to judge them by, and ValueError is raised.
    """
    if sample.values.size < _MIN_VERDICT_SAMPLES:
        raise ValueError(f"need at least {_MIN_VERDICT_SAMPLES} samples for a verdict")
    s = np.geomspace(1e-2, 1e2, 32) / grid.mean_target
    emp = empirical_lst(sample, s)
    solved = grid.eval_lst(s)
    se = _standard_error(grid, s, sample.values.size)
    allowed = 3.0 * (se + grid.error_estimate(s))
    diff = np.abs(emp - solved)
    stuck = (allowed == 0.0) & (diff > 0.0)
    if stuck.any():
        i = int(np.argmax(stuck))
        raise ValueError(
            f"cross-oracle tolerance is 0 at s = {s[i]:.6g}, where the "
            f"routes differ by {diff[i]:.3g}")
    ratios = np.divide(diff, allowed, out=np.zeros(s.size),
                       where=allowed > 0.0)
    worst = int(np.argmax(diff))
    return CrossOracleReport(
        s_grid=tuple(float(v) for v in s),
        sup_distance=float(diff[worst]),
        sup_allowed=float(allowed[worst]),
        max_ratio=float(np.max(ratios)),
        passed=bool(np.all(diff <= allowed)),
    )
