"""Tilted Levy sampling and the size-biased convolution identity.

Oracle: beta-gamma algebra.  For the uniform01 family the solution is
Exp(1), its size-biased form is Gamma(2,1), and U*Gamma(2,1) = Exp(1) in
law, so the tilted Levy sample must again look exponential and the
convolution of Exp(1) with it must reproduce the Gamma(2,1) CDF.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from perpetuity import levy as levy_module
from perpetuity.distributions import (
    AtomicDistribution,
    EmpiricalSample,
    quantize_family,
)
from perpetuity.levy import LevyEstimate, levy_from_solution, steutel_residual
from perpetuity.montecarlo import mc_fixed_point

DELTA_HALF = AtomicDistribution([0.5], [1.0])
ATOM_DELTA_HALF = 0.20318786997997992


def exp_sample(n, seed, tag="exp"):
    return EmpiricalSample(np.random.default_rng(seed).exponential(size=n),
                           seed, tag)


def test_levy_memory_is_the_sample_and_one_resample():
    """1e6 draws: x (8 MB), formed in A's array, and the size-biased
    resample (8 MB) are the only arrays of length n_out; with the index
    arrays and the product beside them it took 30.5 MB."""
    rho = quantize_family("uniform01", 512)
    mu = exp_sample(200_000, 37)
    tracemalloc.start()
    try:
        levy = levy_from_solution(rho, mu, seed=9, n_out=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levy.x.size == 1_000_000
    assert peak < 20 * 2 ** 20


def test_tilted_levy_uniform01_is_exponential():
    rho = quantize_family("uniform01", 512)
    mu = exp_sample(200_000, 31)
    levy = levy_from_solution(rho, mu, seed=7, n_out=100_000)
    assert levy.x.size == 100_000
    assert np.all(np.diff(levy.x) >= 0.0)
    ks = stats.kstest(levy.x, "expon").statistic
    assert ks < 0.01
    assert math.isinf(levy.total_mass_of_m)


def test_total_mass_from_zero_fraction():
    mu = mc_fixed_point(DELTA_HALF, 1.0, n=40_000, seed=23, steps=40)
    levy = levy_from_solution(DELTA_HALF, mu, seed=5, n_out=50_000)
    want = 2.0 * (1.0 - ATOM_DELTA_HALF)   # K (1 - c) / m at m = 1
    assert levy.total_mass_of_m == pytest.approx(want, rel=1e-12)
    # every sampled point is 0.5 * (a positive solution draw)
    assert np.all(levy.x >= 0.0)


def test_total_mass_ignores_planted_zeros():
    # 20% planted zeros against the exact atom 0.2032: the mass takes c
    # from the law, and only the mean from the sample
    vals = np.concatenate([np.zeros(200), np.full(800, 1.25)])
    mu = EmpiricalSample(vals, 0, "planted-zeros")
    levy = levy_from_solution(DELTA_HALF, mu, seed=1, n_out=2000)
    assert levy.total_mass_of_m == pytest.approx(
        2.0 * (1.0 - ATOM_DELTA_HALF) / mu.mean(), rel=1e-12)


def test_levy_cdf_and_validation():
    rho = quantize_family("uniform01", 64)
    levy = levy_from_solution(rho, exp_sample(5000, 2), seed=3, n_out=4000)
    q = np.linspace(0.0, 10.0, 21)
    c = np.searchsorted(levy.x, q, side="right") / levy.x.size
    assert np.all(np.diff(c) >= 0.0)
    assert c[0] <= 0.05 and c[-1] >= 0.95
    with pytest.raises(ValueError):
        levy_from_solution(rho, EmpiricalSample(np.zeros(10), 0, "z"), seed=1,
                           n_out=1_000_000)


def test_steutel_identity_empirical_mu():
    rho = quantize_family("uniform01", 512)
    mu = exp_sample(200_000, 43)
    levy = levy_from_solution(rho, mu, seed=11, n_out=100_000)
    rep = steutel_residual(mu, levy, [0.5, 1.0, 2.0, 4.0])
    assert rep.residual < 0.015


def test_steutel_rejects_mismatched_pair():
    # levy sample from the half-point solution against an Exp(1) mu
    mu_half = mc_fixed_point(DELTA_HALF, 1.0, n=40_000, seed=29, steps=40)
    levy = levy_from_solution(DELTA_HALF, mu_half, seed=13, n_out=50_000)
    rep = steutel_residual(exp_sample(100_000, 45), levy, [0.5, 1.0, 2.0])
    assert rep.residual > 0.05


def test_steutel_rhs_counts_pairs_exactly():
    """The right side is the share of pairs (v, y) with y + v < x plus the
    share with y + v <= x, halved: against a brute-force count over all
    pairs.  The half-point sample is rounded to multiples of 1/64, so the
    sums are exact and ties at the probes are real; duplicates and zeros
    are planted on top of the sample's own."""
    half = mc_fixed_point(DELTA_HALF, 1.0, n=400, seed=3, steps=12)
    v = np.round(half.values * 64.0) / 64.0
    v = np.concatenate([v, v[:40], np.zeros(10)])
    mu = EmpiricalSample(v, 3, "half-point/64")
    levy = levy_from_solution(DELTA_HALF, mu, seed=5, n_out=700)
    probes = [0.25, 0.5, 1.0, 1.5, 2.0]
    rep = steutel_residual(mu, levy, probes)
    pairs = v[:, None] + levy.x[None, :]
    assert sum(np.count_nonzero(pairs == xp) for xp in probes) > 0
    for xp, got in zip(probes, rep.rhs):
        count = np.count_nonzero(pairs < xp) + np.count_nonzero(pairs <= xp)
        assert got == count / (2.0 * v.size * levy.x.size)


def test_steutel_rhs_counts_pairs_on_hostile_probes():
    """Against the brute-force pair count on a grid of 1/64, where every
    sum and difference is exact: the levy sample starts at 0.25 and ends
    on an isolated 64, mu holds zeros and repeats, and the probes fall
    below every pair sum, on levy values, between grid points, above
    every sum but those with 64, and on 64 itself."""
    rng = np.random.default_rng(23)
    x = np.sort(np.append(rng.integers(16, 513, 500) / 64.0, 64.0))
    levy = LevyEstimate(x=x, total_mass_of_m=1.0, n=x.size, seed=0)
    v = np.concatenate([rng.integers(0, 257, 300) / 64.0, np.zeros(20),
                        np.full(10, 1.0)])
    mu = EmpiricalSample(v, 0, "grid/64")
    probes = [0.125, 0.25, x[0], x[7], x[250], 2.0, 1.3, 12.0, 64.0]
    rep = steutel_residual(mu, levy, probes)
    pairs = v[:, None] + x[None, :]
    for xp, got in zip(probes, rep.rhs):
        count = np.count_nonzero(pairs < xp) + np.count_nonzero(pairs <= xp)
        assert got == count / (2.0 * v.size * x.size)
    assert rep.rhs[0] == 0.0 < rep.rhs[2] < rep.rhs[-1] < 1.0


def test_steutel_rhs_counts_pairs_beyond_the_levy_sample():
    """Probes above the largest levy value, where the keys x - v of the
    small values of mu lie above every levy value and count every pair:
    the pair counts are the brute-force integers, on a grid of 1/64 where
    every sum and difference is exact.  A probe above every pair sum
    counts all of them."""
    rng = np.random.default_rng(29)
    x = np.sort(rng.integers(8, 193, 400) / 64.0)
    levy = LevyEstimate(x=x, total_mass_of_m=1.0, n=x.size, seed=0)
    v = np.concatenate([rng.integers(0, 321, 250) / 64.0, np.zeros(15),
                        np.full(5, x[-1])])
    mu = EmpiricalSample(v, 0, "grid/64")
    probes = [x[-1] + 1 / 64, 3.5, 4.0, x[-1] + 2.0, x[-1] + v.max(), 64.0]
    assert min(probes) > x[-1]
    rep = steutel_residual(mu, levy, probes)
    pairs = v[:, None] + x[None, :]
    for xp, got in zip(probes, rep.rhs):
        count = np.count_nonzero(pairs < xp) + np.count_nonzero(pairs <= xp)
        assert got * (2.0 * v.size * x.size) == count
        assert got == count / (2.0 * v.size * x.size)
    assert 0.0 < rep.rhs[0] < rep.rhs[-2] < rep.rhs[-1] == 1.0


def test_steutel_probe_validation():
    levy = LevyEstimate(x=np.sort(np.linspace(0.01, 3.0, 100)),
                        total_mass_of_m=1.0, n=100, seed=0)
    mu = exp_sample(2000, 3)
    for probes, shown in (([0.0, 1.0], "[0.0, 1.0]"), ([], "[]"),
                          ([math.nan], "[nan]")):
        with pytest.raises(ValueError, match=re.escape(
                f"probes {shown} must be a nonempty list")):
            steutel_residual(mu, levy, probes)
    with pytest.raises(TypeError):
        steutel_residual(42, levy, [1.0])


def _levy_csv_reference(levy, max_rows):
    """Row-by-row rendering of the thinned x,cdf table."""
    n = levy.x.size
    if n <= max_rows:
        idx = np.arange(n)
    else:
        idx = np.unique(np.linspace(0, n - 1, max_rows).astype(np.int64))
    return "x,cdf\n" + "".join(
        f"{levy.x[i]:.17g},{(i + 1) / n:.17g}\n" for i in idx)


def test_levy_csv_thinning_and_sidecar(monkeypatch):
    rho = quantize_family("uniform01", 64)
    levy = levy_from_solution(rho, exp_sample(20_000, 4), seed=6,
                              n_out=10_000)
    monkeypatch.setattr(levy_module, "_CSV_ROWS", 256)
    files = levy.to_csv("levy")
    assert sorted(files) == ["levy.csv", "levy.json"]
    text = "".join(files["levy.csv"])
    assert text == _levy_csv_reference(levy, 256)
    lines = text.splitlines()
    assert lines[0] == "x,cdf"
    assert len(lines) <= 257
    last_x, last_cdf = map(float, lines[-1].split(","))
    assert last_cdf == 1.0 and last_x == levy.x[-1]
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)
    sidecar = json.loads(files["levy.json"])
    assert sidecar == {"total_mass_of_M": "infinity", "n": 10_000, "seed": 6}

    finite = LevyEstimate(x=np.sort(np.linspace(0.1, 2.0, 50)),
                          total_mass_of_m=1.59, n=50, seed=1)
    files = finite.to_csv("f")
    assert "".join(files["f.csv"]) == _levy_csv_reference(finite, 65536)
    assert json.loads(files["f.json"])["total_mass_of_M"] == 1.59
