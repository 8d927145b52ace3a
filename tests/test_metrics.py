"""Smoothing-metric quadrature and exact one-step contraction.

Closed-form oracle: for theta = {1-e, 1+e} with equal weights against the
point mass at 1, |CF difference|(s) = 1 - cos(e s), and

    int_0^inf s^(-5/2) (1 - cos(e s)) ds = -Gamma(-3/2) cos(3 pi/4) e^(3/2),

so the distance scales as e^(3/2) with an explicit constant.
"""

import math

import numpy as np
import pytest
from scipy import special

from perpetuity.distributions import (
    AtomicDistribution,
    EmpiricalSample,
    point_mass,
    quantize_family,
)
from perpetuity.metrics import (
    RDeltaConfig,
    char_function,
    contraction_ratio,
    r_delta,
    r_delta_report,
    random_mean_law,
)
from perpetuity.montecarlo import McConfig, mc_fixed_point

DELTA_HALF = AtomicDistribution([0.5], [1.0])
CLIP = RDeltaConfig(s_lo=1e-2, s_hi=1e2, quad_points=512)


def test_config_validation():
    with pytest.raises(ValueError):
        RDeltaConfig(delta=1.0)
    with pytest.raises(ValueError):
        RDeltaConfig(delta=2.0)
    with pytest.raises(ValueError):
        RDeltaConfig(s_lo=2.0, s_hi=1.0)
    with pytest.raises(ValueError):
        RDeltaConfig(quad_points=8)


def test_char_function_exact_and_empirical():
    s = np.array([0.0, 0.3, 1.0, 4.0])
    atom = point_mass(2.0)
    np.testing.assert_allclose(char_function(atom, s), np.exp(2j * s),
                               rtol=1e-14)
    sample = EmpiricalSample(np.full(100, 2.0), 0, "const")
    np.testing.assert_allclose(char_function(sample, s), np.exp(2j * s),
                               rtol=1e-14)
    assert np.all(np.abs(char_function(
        random_mean_law(np.random.default_rng(0)), s)) <= 1.0 + 1e-12)
    with pytest.raises(TypeError):
        char_function([1.0, 2.0], s)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (random_mean_law(rng) for _ in range(3))
        assert r_delta(a, a) == 0.0
        rab, rba = r_delta(a, b), r_delta(b, a)
        assert rab == pytest.approx(rba, rel=1e-12)
        rac, rbc = r_delta(a, c), r_delta(b, c)
        assert rac <= rab + rbc + 1e-12
        assert rab > 0.0 or np.array_equal(a.locations, b.locations)


def test_mean_gate():
    with pytest.raises(ValueError, match="means differ"):
        r_delta(point_mass(1.0), point_mass(1.1))
    # empirical means carry sampling noise; the gate widens accordingly
    vals = np.random.default_rng(3).exponential(size=50_000)
    r_delta(EmpiricalSample(vals, 3, "exp"), point_mass(1.0), CLIP)


def test_two_atom_closed_form():
    d1 = point_mass(1.0)
    const = -special.gamma(-1.5) * math.cos(3 * math.pi / 4)
    for eps in (0.05, 0.1):
        theta = AtomicDistribution([1 - eps, 1 + eps], [0.5, 0.5])
        rep = r_delta_report(theta, d1)
        oracle = const * eps ** 1.5
        assert rep.value == pytest.approx(oracle, rel=5e-3)
        # the gap is explained by the reported truncation estimates
        assert abs(rep.value - oracle) < 3 * (rep.truncation_low
                                              + rep.truncation_high)
    small = r_delta(AtomicDistribution([0.95, 1.05], [0.5, 0.5]), d1)
    big = r_delta(AtomicDistribution([0.9, 1.1], [0.5, 0.5]), d1)
    assert big / small == pytest.approx(2.0 ** 1.5, rel=5e-3)


def test_point_vs_exponential_quadrature_stability():
    # doubling error measures quadrature only, so a small sample suffices
    sample = EmpiricalSample(
        np.random.default_rng(77).exponential(size=20_000), 77, "exp")
    rep = r_delta_report(point_mass(1.0), sample)
    assert rep.doubling_error < 1e-3
    finer = r_delta_report(point_mass(1.0), sample,
                           RDeltaConfig(quad_points=4096))
    assert abs(finer.value - rep.value) / rep.value < 1e-3
    assert rep.value > 0.0 and rep.delta == 1.5


def test_sample_against_own_law_is_near_zero():
    rho = quantize_family("uniform01", 512)
    u = np.random.default_rng(5).random(200_000)
    sample = EmpiricalSample(rho.quantile(u), 5, "own")
    r = r_delta(sample, rho, CLIP)
    # dominated by the realized mean offset amplified by s_lo^(1-delta)
    drift = abs(sample.mean() - 0.5)
    assert r < 40.0 * drift + 0.01


def test_random_mean_law_hits_target():
    rng = np.random.default_rng(2)
    for mean in (1.0, 2.5):
        for _ in range(10):
            law = random_mean_law(rng, mean=mean)
            assert law.mean() == pytest.approx(mean, rel=1e-12)
            assert 1 <= law.locations.size <= 4


def test_contraction_example_pair():
    # uniform01 mixing, q = 3/2: modulus bound E sqrt(A) = 2/3
    rho = quantize_family("uniform01", 512)
    theta2 = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    rep = contraction_ratio(rho, point_mass(1.0), theta2, q=1.5)
    assert rep.bound_g == pytest.approx(2.0 / 3.0, rel=1e-4)
    assert rep.ratio is not None
    assert rep.ratio <= rep.bound_g + 0.05
    assert not rep.degenerate
    obj = rep.to_json_obj()
    for key in ("r_before", "r_after", "ratio", "bound_g", "q",
                "doubling_error"):
        assert key in obj


def test_contraction_degenerate_and_validation():
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    rep = contraction_ratio(DELTA_HALF, theta, theta, q=1.5)
    assert rep.degenerate and rep.ratio is None
    assert rep.r_before == 0.0 and rep.r_after == 0.0
    with pytest.raises(ValueError):
        contraction_ratio(DELTA_HALF, theta, point_mass(1.0), q=2.5)
    with pytest.raises(ValueError, match=">= 1"):
        contraction_ratio(point_mass(1.0), theta, point_mass(1.0), q=1.5)
    with pytest.raises(ValueError, match="means differ"):
        contraction_ratio(DELTA_HALF, theta, point_mass(2.0), q=1.5)


def test_contraction_small_sweep():
    rng = np.random.default_rng(19)
    bound = DELTA_HALF.mellin(0.5)
    assert bound == pytest.approx(2.0 ** -0.5, rel=1e-15)
    done = 0
    while done < 6:
        t1, t2 = random_mean_law(rng), random_mean_law(rng)
        rep = contraction_ratio(DELTA_HALF, t1, t2, q=1.5)
        if rep.degenerate:
            continue
        done += 1
        assert rep.ratio <= bound + 0.05


def test_degenerate_pair_equal():
    rho = quantize_family("uniform01", 512)
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    rep = contraction_ratio(rho, theta, theta, q=1.5)
    assert rep.degenerate and rep.ratio is None


def test_degenerate_pair_one_ulp():
    """Point masses one ulp apart: the input distance is roundoff only."""
    rho = quantize_family("uniform01", 512)
    rep = contraction_ratio(rho, point_mass(1.0),
                            point_mass(np.nextafter(1.0, 2.0)), q=1.5)
    assert 0.0 < rep.r_before < 1e-12
    assert rep.degenerate and rep.ratio is None


def test_close_pair_is_not_degenerate():
    rho = quantize_family("uniform01", 512)
    near = AtomicDistribution([1.0 - 1e-5, 1.0 + 1e-5], [0.5, 0.5])
    rep = contraction_ratio(rho, near, point_mass(1.0), q=1.5)
    assert not rep.degenerate
    assert rep.ratio is not None and rep.ratio <= rep.bound_g


def test_iteration_distances_decay_geometrically():
    rho = quantize_family("uniform01", 512)
    n = 30_000
    cfg = McConfig(n_samples=n, master_seed=55, n_transform_iterations=6)
    states = mc_fixed_point(rho, 1.0, cfg, history=True)
    seq = [EmpiricalSample(np.full(n, 1.0), 55, "start")] + states
    dists = [r_delta(seq[k], seq[k + 1], CLIP) for k in range(len(seq) - 1)]
    factor = rho.mellin(0.5) + 0.05
    floor = 0.25   # empirical-CF noise level at this n in the clipped band
    for k in range(len(dists) - 1):
        assert dists[k + 1] <= max(factor * dists[k], floor)
    assert min(dists) < 0.2 * dists[0]
