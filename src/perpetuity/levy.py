"""Levy structure of the solution law and the Steutel convolution check.

The solution is infinitely divisible with zero shift, and x M(dx) is the
probability law of A * eta_sb, so one round of sampling (A from rho,
eta_sb by size-biased resampling of a solution sample) yields the tilted
Levy measure directly.  The convolution identity tested here,

    mu_sb[0, x] = int_0^x mu[0, x - y] * (x M)(dy),

is the distribution-function form of the defining perpetuity identity and
fails loudly for mismatched (mu, M) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    FAMILY_UNIFORM01,
    AtomicDistribution,
    EmpiricalSample,
    csv_text,
    json_text,
)
from .lst_solver import atom_at_zero
from .montecarlo import derive_seed

#: Row cap of the thinned levy.csv table.
_CSV_ROWS = 65536


@dataclass(frozen=True)
class LevyEstimate:
    """Empirical sample of the probability law x M(dx), sorted ascending."""

    x: np.ndarray
    total_mass_of_m: float   # K (1 - c) / m; inf marker for uniform01 family
    n: int
    seed: int

    def to_csv(self, stem: str) -> dict:
        """{stem}.csv x,cdf plus sidecar {stem}.json {total_mass_of_M, n, seed}.

        Rows are thinned deterministically to at most _CSV_ROWS evenly
        spaced ranks (every rank of a shorter sample: the step is <= 1).
        """
        n = self.x.size
        idx = np.unique(np.linspace(0, n - 1, _CSV_ROWS).astype(np.int64))
        mass = ("infinity" if math.isinf(self.total_mass_of_m)
                else self.total_mass_of_m)
        sidecar = {"total_mass_of_M": mass, "n": int(self.n), "seed": self.seed}
        return {f"{stem}.csv": csv_text("x,cdf", self.x[idx], (idx + 1) / n),
                f"{stem}.json": json_text(sidecar)}


def levy_from_solution(rho: AtomicDistribution, mu_sample: EmpiricalSample,
                       seed: int, n_out: int) -> LevyEstimate:
    """Sample x M(dx) as A * eta_sb and record M's total mass.

    Total mass is K (1 - c) / mean(mu), with the exact K = E[1/A] and the
    exact atom at zero c (``lst_solver.atom_at_zero``, the Lambert-W
    root); only the mean comes from the sample.  Laws tagged with the
    uniform01 family report the family-level value infinity (the exact
    family is not compound Poisson).
    """
    mean = mu_sample.mean()
    if mean <= 0.0:
        raise ValueError("mu sample has nonpositive mean; nothing to size-bias")
    sb = mu_sample.size_bias_resample(n_out, derive_seed(seed, "levy-sb"))
    x = rho.sample(n_out, derive_seed(seed, "levy-a"))
    x *= sb.values
    x.sort()
    if rho.family == FAMILY_UNIFORM01:
        mass = math.inf
    else:
        mass = rho.mean_inverse() * (1.0 - atom_at_zero(rho)) / mean
    return LevyEstimate(x=x, total_mass_of_m=float(mass), n=int(n_out),
                        seed=int(seed))


@dataclass(frozen=True)
class SteutelReport:
    probes: tuple
    lhs: tuple
    rhs: tuple
    residual: float


def checked_probes(x_probes, name: str) -> np.ndarray:
    """The probes as a float array; ValueError naming them ``name``."""
    probes = np.atleast_1d(np.asarray(x_probes, dtype=float))
    if probes.size == 0 or not np.all(np.isfinite(probes) & (probes > 0.0)):
        raise ValueError(f"{name} {probes.tolist()} must be a nonempty list "
                         f"of positive finite values")
    return probes


def steutel_residual(mu: EmpiricalSample, levy: LevyEstimate,
                     x_probes) -> SteutelReport:
    """Evaluate both sides of the convolution identity at the probes.

    The left side is the size-biased CDF of the solution sample ``mu``
    (its value-weighted ECDF).  The right side convolves mu's ECDF with
    the levy sample: the share of pairs (v, y) with y + v < x, plus the
    share with y + v <= x, halved, which halves the bias at ties and atoms.
    Each probe searches the sorted levy sample once per value of mu, and
    counts ties again only for the keys that hit a levy value exactly.
    """
    if not isinstance(mu, EmpiricalSample):
        raise TypeError("mu must be an EmpiricalSample")
    probes = checked_probes(x_probes, "probes")
    top = float(levy.x[-1])
    if np.any(probes > top):
        raise ValueError(
            f"probe beyond levy-sample support (max sampled x = {top:.6g})"
        )
    vals = np.sort(mu.values)
    total = float(vals.sum())
    if total <= 0.0:
        raise ValueError("mu sample has zero mass")
    cum = np.cumsum(vals)
    idx = np.searchsorted(vals, probes, side="right")
    lhs = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0) / total
    x = levy.x
    rhs = np.empty(probes.size)
    for i, xp in enumerate(probes):
        # keys fall as vals rise; those below x[0] count no pair at all,
        # and no key exceeds xp <= x[-1], so every x[left] exists
        keys = xp - vals
        keys = keys[:np.count_nonzero(keys >= x[0])]
        left = x.searchsorted(keys, "left")
        hit = x[left] == keys
        ties = x.searchsorted(keys[hit], "right") - left[hit]
        rhs[i] = 2 * left.sum() + ties.sum()
    rhs /= 2.0 * vals.size * x.size
    residual = float(np.max(np.abs(lhs - rhs)))
    return SteutelReport(
        probes=tuple(float(v) for v in probes),
        lhs=tuple(float(v) for v in lhs),
        rhs=tuple(float(v) for v in rhs),
        residual=residual,
    )
