"""Shot-noise Monte Carlo route to the solution law.

One transform step replaces each sample slot by sum_i xi_i * h(tau_i) over
a Poisson flow of intensity lambda, with marks xi drawn from the current
sample.  For a step kernel this is compound Poisson: the slot's arrival
count is Poisson of the total rate lambda * support_end, and each arrival
lands on step k with probability proportional to lambda * d_k, contributing
v_k * xi.  That superposition form is distributionally identical to one
Poisson count per step and costs O(expected arrivals) per slot.

The step of each arrival is drawn by ``distributions._categorical``, a
guide-table lookup that consumes the same uniforms and returns the same
indices as ``rng.choice(n_steps, p=rates / rates.sum())``, in O(1)
expected time per arrival instead of a binary search.

Determinism contract: every random stream derives from the master seed,
a purpose label, and (iteration, chunk) indices, so chunk results are a
pure function of the inputs and the chunk layout.  Rerunning a pipeline
with the same configuration reproduces identical arrays bit for bit;
changing the chunk size changes the streams but not the statistics.  The
layout is ``chunk_size`` slots per chunk, capped at
_MAX_CHUNK_ARRIVALS // ceil(K) slots with K = lambda * support_end = E[1/A]
the expected arrivals per slot, so memory stays bounded for laws with
atoms near 0; the cap binds only when chunk_size * ceil(K) > 2**22.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .diagnostics import require_existence
from .distributions import AtomicDistribution, EmpiricalSample, _categorical
from .lst_solver import LstGrid
from .metrics import char_function, empirical_lst
from .response import ResponseFunction, response_from_rho

#: Two-sided asymptotic KS coefficient at the 1% level: sqrt(-ln(0.005)/2).
KS_COEFF_1PCT = 1.6276236115189502

_MIN_VERDICT_SAMPLES = 1000

#: Cap on the expected arrivals of one shot-noise chunk.  An arrival holds
#: about 48 bytes of temporaries, so a chunk stays near 200 MB.
_MAX_CHUNK_ARRIVALS = 2 ** 22


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    master_seed: int | None = None
    n_transform_iterations: int = 40
    chunk_size: int = 65536

    def __post_init__(self):
        if int(self.n_samples) < 1:
            raise ValueError("n_samples must be >= 1")
        if int(self.n_transform_iterations) < 1:
            raise ValueError("need at least one transform iteration")
        if int(self.chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1")

    def require_seed(self) -> int:
        if self.master_seed is None:
            raise ValueError(
                "master_seed is unset; sampling without an explicit seed "
                "is not allowed"
            )
        return int(self.master_seed)


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
        rates = h.lam * h.durations
        counts = rng.poisson(float(rates.sum()), size=n_out)
        total = int(counts.sum())
        if total > 0:
            step_idx = _categorical(rng, rates, total)
            xi = theta.values[rng.integers(0, theta.values.size, size=total)]
            slots = np.repeat(np.arange(n_out), counts)
            out = np.bincount(
                slots, weights=h.values[step_idx] * xi, minlength=n_out
            )
    return EmpiricalSample(out, seed, f"shot-noise({theta.provenance})")


def _chunk_slots(chunk_size: int, rate: float) -> int:
    """Slots per chunk: chunk_size, capped so that the expected arrivals
    (slots * rate) stay within _MAX_CHUNK_ARRIVALS."""
    return min(int(chunk_size), max(1, _MAX_CHUNK_ARRIVALS // math.ceil(rate)))


def _chunk_bounds(n: int, chunk: int):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def mc_fixed_point(
    rho: AtomicDistribution,
    m: float,
    cfg: McConfig,
    history: bool = False,
):
    """Iterate the transform from the point mass at m.

    Returns the final EmpiricalSample, or the list of per-iteration samples
    when history=True (element k is the state after k+1 iterations).
    """
    require_existence(rho)
    master = cfg.require_seed()
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mean target m must be a positive real")
    h = response_from_rho(rho, lam=1.0)
    h.assert_normalized()
    n = int(cfg.n_samples)
    chunk = _chunk_slots(cfg.chunk_size, h.lam * h.support_end)
    provenance = (
        f"mc-fixed-point(rho={rho.digest()}, m={m:.17g}, n={n}, "
        f"iters={cfg.n_transform_iterations}, chunk={chunk}, "
        f"seed={master})"
    )
    current = EmpiricalSample(np.full(n, float(m)), master, provenance)
    states = []
    for it in range(int(cfg.n_transform_iterations)):
        parts = []
        for ci, (lo, hi) in enumerate(_chunk_bounds(n, chunk)):
            child = derive_seed(master, "shot-noise-transform", it, ci)
            parts.append(
                shot_noise_resample(current, h, child, n_out=hi - lo).values
            )
        current = EmpiricalSample(np.concatenate(parts), master, provenance)
        if history:
            states.append(current)
    return states if history else current


@dataclass(frozen=True)
class PerpetuityReport:
    """Two-sample comparison of eta_sb against A * eta_sb + eta."""

    ks_stat: float
    p_value: float
    ecf_distance: float
    n: int
    ks_crit_1pct: float

    def to_json_obj(self) -> dict:
        return {
            "ks_stat": self.ks_stat,
            "p_value": self.p_value,
            "ecf_distance": self.ecf_distance,
            "n": self.n,
            "ks_crit_1pct": self.ks_crit_1pct,
        }


def perpetuity_residual(
    mu_sample: EmpiricalSample,
    rho: AtomicDistribution,
    seed: int,
    n_pairs: int | None = None,
    s_grid=None,
) -> PerpetuityReport:
    """Test the defining identity on resampled pairs.

    Left side: a size-biased resample of mu.  Right side: A * (independent
    size-biased resample) + (plain resample), with A drawn from rho.  All
    four streams derive from the given seed.
    """
    n = mu_sample.values.size if n_pairs is None else int(n_pairs)
    if n < _MIN_VERDICT_SAMPLES:
        raise ValueError(f"need at least {_MIN_VERDICT_SAMPLES} pairs for a verdict")
    left = mu_sample.size_bias_resample(n, derive_seed(seed, "perp-left"))
    sb = mu_sample.size_bias_resample(n, derive_seed(seed, "perp-right-sb")).values
    eta = mu_sample.resample(n, derive_seed(seed, "perp-right-eta")).values
    a = rho.sample(n, derive_seed(seed, "perp-right-a"))
    right = EmpiricalSample(a * sb + eta, seed, "perp-right")
    ks = stats.ks_2samp(left.values, right.values, method="asymp")
    if s_grid is None:
        s_grid = np.geomspace(0.1, 10.0, 32)
    ecf_dist = float(
        np.max(np.abs(char_function(left, s_grid) - char_function(right, s_grid)))
    )
    return PerpetuityReport(
        ks_stat=float(ks.statistic),
        p_value=float(ks.pvalue),
        ecf_distance=ecf_dist,
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
    rho: AtomicDistribution | None = None,
    transform_iterations: int | None = None,
) -> CrossOracleReport:
    """Compare empirical and solved Laplace transforms point by point.

    Tolerance at each s: 3 * (MC standard error + grid error estimate).
    The verdict requires every grid point inside tolerance.

    The standard error model has two parts.  The i.i.d. part is the usual
    sd(exp(-sX))/sqrt(n).  On top of that, resampling marks from the
    previous iterate makes the sample mean a martingale across iterations
    (one-step mean preservation is exact in expectation), so the final
    mean carries sd ~ sqrt(T*V/n) with V = lambda*int h^2 * E[xi^2], and
    that drift enters the transform through d(phi)/d(mean) = -(s/m) phi
    psi'(s) by scale equivariance.  Pass rho and transform_iterations to
    include the drift term; without them only the i.i.d. part is used,
    which undersizes the error of an mc_fixed_point output by up to
    sqrt(T) at small s.
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
    var = np.maximum(second - emp ** 2, 0.0)
    if rho is not None and transform_iterations is not None:
        v_step = rho.mean() * float(np.mean(sample.values ** 2))
        mean_sd = math.sqrt(transform_iterations * v_step / n)
        x = np.log(grid.s_points)
        dpsi_dx = np.interp(np.log(np.maximum(s, grid.s_points[0])),
                            x, np.gradient(grid.psi, x))
        m = grid.mean_target
        psi_prime = np.where(s < grid.s_points[0], m, dpsi_dx / s)
        var = var + n * ((s / m) * solved * psi_prime * mean_sd) ** 2
    se = np.sqrt(var / n)
    allowed = 3.0 * (se + grid.error_estimate(s))
    diff = np.abs(emp - solved)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(allowed > 0.0, diff / allowed, np.inf)
    worst = int(np.argmax(diff))
    return CrossOracleReport(
        s_grid=tuple(float(v) for v in s),
        sup_distance=float(diff[worst]),
        sup_allowed=float(allowed[worst]),
        max_ratio=float(np.max(ratios)),
        passed=bool(np.all(diff <= allowed)),
    )
