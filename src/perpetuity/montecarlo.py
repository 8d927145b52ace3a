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

Number of transform steps.  Started from the same point mass at m, LST
iterate k is the Laplace transform of MC iterate k as n -> infinity (both
apply the same map to the exact law), so phi_k - phi is the bias left after
k MC steps, known before any sampling.  ``transform_steps`` replays that
trajectory on the solved grid's nodes and returns the smallest k with
20 |phi_k(s) - phi(s)| <= se(s) at every node, se(s) = sqrt((phi(2s) -
phi(s)^2) / n) being the standard error of the n-sample empirical
transform.  The rule is per node because se shrinks with phi: one sup
against the largest se would stop too early where phi is small.

Determinism contract: every random stream derives from the master seed,
a purpose label, and (iteration, chunk) indices, so chunk results are a
pure function of the inputs and the chunk layout.  Rerunning a pipeline
with the same inputs reproduces identical arrays bit for bit; another
layout changes the streams but not the statistics.  The layout is a fixed
_CHUNK_SLOTS = 65536 slots per chunk, capped at
_MAX_CHUNK_ARRIVALS // ceil(K) slots with K = E[1/A] the expected arrivals
per slot (``chunk_slots``), so memory stays bounded for laws with atoms
near 0; the cap binds only when 65536 * ceil(K) > 2**22.  A law with
ceil(K) > 2**22, where one slot alone passes the cap, is refused with
ValueError before anything is drawn.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import stats

from .diagnostics import require_existence
from .distributions import AtomicDistribution, EmpiricalSample
from .lst_solver import LstGrid, iterate_once
from .metrics import empirical_lst
from .response import ResponseFunction, response_from_rho

#: Two-sided asymptotic KS coefficient at the 1% level: sqrt(-ln(0.005)/2).
KS_COEFF_1PCT = 1.6276236115189502

_MIN_VERDICT_SAMPLES = 1000

#: Cap on the expected arrivals of one shot-noise chunk.  An arrival holds
#: about 16 bytes of temporaries at the peak, a float64 weight and an int64
#: mark index or slot (tracemalloc), so a chunk stays near 70 MB.
_MAX_CHUNK_ARRIVALS = 2 ** 22

#: Slots per shot-noise chunk where the arrival cap does not bind.
_CHUNK_SLOTS = 65536


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
    n_out: int | None = None,
) -> EmpiricalSample:
    """One exact compound-Poisson transform step applied to a sample."""
    n_out = theta.values.size if n_out is None else int(n_out)
    rng = np.random.default_rng(seed)
    out = np.zeros(n_out)
    if h.n_steps > 0:
        per_step = rng.poisson(n_out * h.lam * h.durations)
        total = int(per_step.sum())
        if total > 0:
            xi = theta.values[rng.integers(0, theta.values.size, size=total)]
            xi *= np.repeat(h.values, per_step)
            out = np.bincount(rng.integers(0, n_out, size=total),
                              weights=xi, minlength=n_out)
    return EmpiricalSample(out, seed, f"shot-noise({theta.provenance})")


def transform_steps(
    rho: AtomicDistribution,
    grid: LstGrid,
    n: int,
    cap: int,
) -> tuple[int, float | None]:
    """(T, bias): the fewest transform steps k <= cap whose bias, replayed
    on the solved grid of rho from psi_0 = m s, is at most a twentieth of
    the n-sample standard error at every node, and max |phi_T - phi| there.

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
    se = np.sqrt(np.maximum(grid.eval_lst(2.0 * s) - phi ** 2, 0.0) / n)
    state = replace(grid, psi=grid.mean_target * s, iteration_count=0)
    for k in range(1, cap + 1):
        state = iterate_once(state, rho)
        err = np.abs(np.exp(-state.psi) - phi)
        if np.all(20.0 * err <= se):
            break
    return k, float(err.max())


def chunk_slots(rho: AtomicDistribution) -> int:
    """Slots per chunk that mc_fixed_point uses for rho: _CHUNK_SLOTS,
    capped so that the expected arrivals (slots * K, K = E[1/A]) stay
    within _MAX_CHUNK_ARRIVALS.

    Raises ValueError when one slot alone would exceed the cap.
    """
    rate = rho.mean_inverse()
    per_slot = math.ceil(rate)
    if per_slot > _MAX_CHUNK_ARRIVALS:
        raise ValueError(
            f"K = E[1/A] = {rate:.6g} expected arrivals per sample slot "
            f"exceed the per-chunk cap of {_MAX_CHUNK_ARRIVALS}; the shot-"
            f"noise sampler cannot bound its memory for this law")
    return min(_CHUNK_SLOTS, _MAX_CHUNK_ARRIVALS // per_slot)


def _chunk_bounds(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def mc_fixed_point(
    rho: AtomicDistribution,
    m: float,
    n: int,
    seed: int,
    steps: int,
) -> EmpiricalSample:
    """n samples after ``steps`` transform steps from the point mass at m,
    each iterate rescaled to mean m; every stream derives from ``seed``.

    Raises ValueError when an iterate is all zero: it has no mean to
    rescale, which happens when n is too small for the law's atom at zero.
    """
    n, steps = int(n), int(steps)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    if steps < 1:
        raise ValueError("need at least one transform iteration")
    require_existence(rho)
    master = int(seed)
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mean target m must be a positive real")
    h = response_from_rho(rho, lam=1.0)
    chunk = chunk_slots(rho)
    provenance = (
        f"mc-fixed-point(rho={rho.digest()}, m={m:.17g}, n={n}, "
        f"iters={steps}, chunk={chunk}, seed={master})"
    )
    current = EmpiricalSample(np.full(n, float(m)), master, provenance)
    for it in range(steps):
        parts = []
        for ci, (lo, hi) in enumerate(_chunk_bounds(n, chunk)):
            child = derive_seed(master, "shot-noise-transform", it, ci)
            parts.append(
                shot_noise_resample(current, h, child, n_out=hi - lo).values
            )
        values = np.concatenate(parts)
        mean = values.mean()
        if mean == 0.0:
            raise ValueError(
                f"Monte Carlo iterate {it + 1} of n = {n} samples is all "
                f"zero, so it has no mean to rescale to m; use a larger "
                f"mc.n_samples")
        values *= m / mean
        current = EmpiricalSample(values, master, provenance)
    return current


@dataclass(frozen=True)
class PerpetuityReport:
    """Two-sample comparison of eta_sb against A * eta_sb + eta."""

    ks_stat: float
    p_value: float
    n: int
    ks_crit_1pct: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def perpetuity_residual(
    mu_sample: EmpiricalSample,
    rho: AtomicDistribution,
    seed: int,
) -> PerpetuityReport:
    """Two-sample KS test of the defining identity on resampled pairs.

    Left side: a size-biased resample of mu.  Right side: A * (independent
    size-biased resample) + (plain resample), with A drawn from rho.  All
    four streams derive from the given seed.  The report carries the
    asymptotic KS statistic and p-value and the 1% critical value at n.
    """
    n = mu_sample.values.size
    if n < _MIN_VERDICT_SAMPLES:
        raise ValueError(f"need at least {_MIN_VERDICT_SAMPLES} pairs for a verdict")
    left = mu_sample.size_bias_resample(n, derive_seed(seed, "perp-left"))
    sb = mu_sample.size_bias_resample(n, derive_seed(seed, "perp-right-sb")).values
    eta = mu_sample.resample(n, derive_seed(seed, "perp-right-eta")).values
    a = rho.sample(n, derive_seed(seed, "perp-right-a"))
    ks = stats.ks_2samp(left.values, a * sb + eta, method="asymp")
    return PerpetuityReport(
        ks_stat=float(ks.statistic),
        p_value=float(ks.pvalue),
        n=n,
        ks_crit_1pct=KS_COEFF_1PCT * math.sqrt(2.0 / n),
    )


@dataclass(frozen=True)
class CrossOracleReport:
    """Agreement of the two solution routes on a Laplace-transform grid."""

    s_grid: tuple
    sup_distance: float
    sup_allowed: float
    max_ratio: float          # max over s of |diff| / (3 (se + grid_err))
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "s_grid": list(self.s_grid),
            "sup_distance": self.sup_distance,
            "sup_allowed": self.sup_allowed,
            "max_ratio": self.max_ratio,
            "passed": self.passed,
        }


def cross_oracle_distance(
    sample: EmpiricalSample,
    grid: LstGrid,
    s_grid=None,
) -> CrossOracleReport:
    """Compare empirical and solved Laplace transforms point by point.

    Tolerance at each s: 3 * (i.i.d. standard error + grid error estimate),
    with the standard error sd(exp(-sX)) / sqrt(n).  The verdict requires
    every grid point inside tolerance.  A point with zero tolerance counts
    with ratio 0 where the two routes agree exactly there; where they do
    not, the sample has no spread to judge them by, and ValueError is
    raised.
    """
    if sample.values.size < _MIN_VERDICT_SAMPLES:
        raise ValueError(f"need at least {_MIN_VERDICT_SAMPLES} samples for a verdict")
    s = (np.geomspace(1e-2, 1e2, 32) if s_grid is None
         else np.asarray(s_grid, dtype=float))
    emp = empirical_lst(sample, s)
    solved = grid.eval_lst(s)
    n = sample.values.size
    # per-point sd of exp(-sX): sqrt(E e^{-2sX} - (E e^{-sX})^2)
    second = empirical_lst(sample, 2.0 * s)
    se = np.sqrt(np.maximum(second - emp ** 2, 0.0) / n)
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
