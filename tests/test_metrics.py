"""Smoothing-metric quadrature and exact one-step contraction.

Closed-form oracle: for theta = {1-e, 1+e} with equal weights against the
point mass at 1, |CF difference|(s) = 1 - cos(e s), and

    int_0^inf s^(-5/2) (1 - cos(e s)) ds = -Gamma(-3/2) cos(3 pi/4) e^(3/2),

so the distance scales as e^(3/2) with an explicit constant.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import special

from perpetuity import metrics
from perpetuity.distributions import (
    AtomicDistribution,
    EmpiricalSample,
    point_mass,
    quantize_family,
)
from perpetuity.metrics import (
    RDeltaConfig,
    char_function,
    contraction_bound,
    contraction_ratio,
    r_delta_report,
    random_mean_law,
    step_char_function,
)
from perpetuity.montecarlo import derive_seed

DELTA_HALF = AtomicDistribution([0.5], [1.0])


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
    assert np.all(np.abs(char_function(
        random_mean_law(np.random.default_rng(0), 1.0), s)) <= 1.0 + 1e-12)
    with pytest.raises(TypeError):
        char_function([1.0, 2.0], s)
    # samples are refused, not averaged, even when the means agree
    sample = EmpiricalSample(np.full(100, 2.0), 0, "const")
    with pytest.raises(TypeError):
        char_function(sample, s)
    with pytest.raises(TypeError):
        r_delta_report(sample, atom)


def _cis_char_function(nu, s_grid):
    block = np.multiply.outer(np.asarray(s_grid, dtype=float), nu.locations)
    return (np.cos(block) + 1j * np.sin(block)) @ nu.weights


def _cis_step_char_function(rho, theta, s):
    rates = rho.weights / rho.locations
    rows = max(1, metrics._CHUNK_ELEMENTS
               // (rho.locations.size * theta.locations.size))
    out = np.empty(s.size, dtype=complex)
    for lo in range(0, s.size, rows):
        inner = _cis_char_function(
            theta, np.multiply.outer(s[lo:lo + rows], rho.locations))
        out[lo:lo + rows] = np.exp((inner - 1.0) @ rates)
    return out


def test_char_functions_equal_the_cos_plus_i_sin_sum_bit_for_bit():
    """The direct CF kernels write cos and sin into one complex buffer;
    their bits equal the plain cos + 1j*sin sum, zeros' signs included, on
    random laws of 1-4 atoms and on a 300-atom law.  The equally spaced
    uniform01/16 kernel takes the polynomial path and agrees within 1e-12."""
    rng = np.random.default_rng(29)
    s = np.concatenate([[-0.0, 0.0, -3.0], np.geomspace(1e-3, 1e3, 301)])
    wide = AtomicDistribution(rng.uniform(0.01, 5.0, 300),
                              rng.dirichlet(np.ones(300)))
    rho = quantize_family("uniform01", 16)
    for theta in [random_mean_law(rng, 1.0) for _ in range(12)] + [wide]:
        for got, want in [
            (char_function(theta, s), _cis_char_function(theta, s)),
            (step_char_function(wide, theta, s[3::12]),
             _cis_step_char_function(wide, theta, s[3::12])),
        ]:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.max(np.abs(step_char_function(rho, theta, s)
                             - _cis_step_char_function(rho, theta, s))) < 1e-12


def test_equally_spaced_step_char_function_matches_the_direct_sum():
    """Equally spaced atoms take the blocked-Horner polynomial path: within
    1e-12 of the direct sum over s in [1e-4, 1e4] and at s in {-3, -0, 0}
    (worst seen 5.6e-13).  Moving one atom by 1e-9 falls back to the
    direct form, bit for bit."""
    rng = np.random.default_rng(31)
    s = np.concatenate([[-3.0, -0.0, 0.0], np.geomspace(1e-4, 1e4, 801)])
    steps = 0.2 + 0.3 * np.arange(6)
    laws = [quantize_family("uniform01", n) for n in (3, 16, 512, 2048)]
    laws.append(AtomicDistribution(steps, np.full(6, 1 / 6)))
    for rho in laws:
        assert metrics._progression_spacing(rho.locations) is not None
        for theta in [random_mean_law(rng, 1.0) for _ in range(3)]:
            got = step_char_function(rho, theta, s)
            assert np.max(np.abs(got - _cis_step_char_function(
                rho, theta, s))) < 1e-12
            assert got[1] == got[2] == 1.0
    moved = steps.copy()
    moved[3] += 1e-9
    rho = AtomicDistribution(moved, np.full(6, 1 / 6))
    assert metrics._progression_spacing(rho.locations) is None
    theta = random_mean_law(rng, 1.0)
    assert np.array_equal(
        step_char_function(rho, theta, s).view(np.uint64),
        _cis_step_char_function(rho, theta, s).view(np.uint64))


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (random_mean_law(rng, 1.0) for _ in range(3))
        assert r_delta_report(a, a).value == 0.0
        rab, rba = r_delta_report(a, b).value, r_delta_report(b, a).value
        assert rab == pytest.approx(rba, rel=1e-12)
        rac, rbc = r_delta_report(a, c).value, r_delta_report(b, c).value
        assert rac <= rab + rbc + 1e-12
        assert rab > 0.0 or np.array_equal(a.locations, b.locations)


def test_mean_gate():
    with pytest.raises(ValueError, match="means differ"):
        r_delta_report(point_mass(1.0), point_mass(1.1))


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
    small = r_delta_report(
        AtomicDistribution([0.95, 1.05], [0.5, 0.5]), d1).value
    big = r_delta_report(
        AtomicDistribution([0.9, 1.1], [0.5, 0.5]), d1).value
    assert big / small == pytest.approx(2.0 ** 1.5, rel=5e-3)


def test_point_vs_exponential_quadrature_stability():
    # Exp(1) quantized at 512 midpoints, rescaled to mean 1; the doubling
    # error measures quadrature only, so this coarse law suffices
    atoms = -np.log1p(-(np.arange(512) + 0.5) / 512)
    expo = AtomicDistribution(atoms / atoms.mean(), np.full(512, 1 / 512))
    rep = r_delta_report(point_mass(1.0), expo)
    assert rep.doubling_error < 1e-3
    finer = r_delta_report(point_mass(1.0), expo,
                           RDeltaConfig(quad_points=4096))
    assert abs(finer.value - rep.value) / rep.value < 1e-3
    assert rep.value > 0.0 and rep.delta == 1.5


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
    rep = contraction_ratio(rho, point_mass(1.0), theta2)
    assert rep.bound_g == pytest.approx(2.0 / 3.0, rel=1e-4)
    assert rep.ratio is not None
    assert rep.ratio <= rep.bound_g + 0.05
    assert not rep.degenerate
    obj = asdict(rep)
    for key in ("r_before", "r_after", "ratio", "bound_g", "q",
                "doubling_error"):
        assert key in obj


def test_contraction_degenerate_and_validation():
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    rep = contraction_ratio(DELTA_HALF, theta, theta)
    assert rep.degenerate and rep.ratio is None
    assert rep.r_before == 0.0 and rep.r_after == 0.0
    with pytest.raises(ValueError):
        contraction_ratio(DELTA_HALF, theta, point_mass(1.0),
                          RDeltaConfig(delta=2.5))
    with pytest.raises(ValueError, match=">= 1"):
        contraction_ratio(point_mass(1.0), theta, point_mass(1.0))
    with pytest.raises(ValueError, match="means differ"):
        contraction_ratio(DELTA_HALF, theta, point_mass(2.0))


def test_contraction_bound_names_the_orders_that_contract():
    """E A^(q-1) where it is below 1; otherwise ValueError naming the
    admissible range q < 1 + kappa (kappa = 0.2088 here), or saying that
    no q contracts where the existence gate fails."""
    heavy = AtomicDistribution([0.01, 0.5, 50.0], [0.3, 0.5, 0.2])
    assert contraction_bound(DELTA_HALF, 1.5) == DELTA_HALF.mellin(0.5)
    assert contraction_bound(heavy, 1.2) == heavy.mellin(1.2 - 1.0) < 1.0
    with pytest.raises(ValueError, match=r"^E A\^\(q-1\) = 1\.79776695297 >= 1:"
                       r" .* only q < 1 \+ kappa = 1\.2088"):
        contraction_bound(heavy, 1.5)
    with pytest.raises(ValueError, match=r"E log A = 0 >= 0, so no q contracts"):
        contraction_bound(point_mass(1.0), 1.5)


def test_contraction_small_sweep():
    rng = np.random.default_rng(19)
    bound = DELTA_HALF.mellin(0.5)
    assert bound == pytest.approx(2.0 ** -0.5, rel=1e-15)
    done = 0
    while done < 6:
        t1, t2 = random_mean_law(rng, 1.0), random_mean_law(rng, 1.0)
        rep = contraction_ratio(DELTA_HALF, t1, t2)
        if rep.degenerate:
            continue
        done += 1
        assert rep.ratio <= bound + 0.05


def test_degenerate_pair_equal():
    rho = quantize_family("uniform01", 512)
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    rep = contraction_ratio(rho, theta, theta)
    assert rep.degenerate and rep.ratio is None


def test_degenerate_pair_one_ulp():
    """Point masses one ulp apart: the input distance is roundoff only."""
    rho = quantize_family("uniform01", 512)
    rep = contraction_ratio(rho, point_mass(1.0),
                            point_mass(np.nextafter(1.0, 2.0)))
    assert 0.0 < rep.r_before < 1e-12
    assert rep.degenerate and rep.ratio is None


def test_degenerate_floor_holds_on_the_polynomial_path():
    """uniform01/512 takes the polynomial path.  Identical inputs still give
    r_after == 0, and the 1-ulp pair at draw 11 of the seed-2024 README
    sweep stays degenerate with r_after below the 4.4e-12 floor."""
    rho = quantize_family("uniform01", 512)
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    assert contraction_ratio(rho, theta, theta).r_after == 0.0
    rng = np.random.default_rng(derive_seed(2024, "verify-pairs"))
    for _ in range(11):
        t1, t2 = random_mean_law(rng, 1.0), random_mean_law(rng, 1.0)
    assert np.allclose(t1.locations, t2.locations, rtol=1e-15, atol=0.0)
    rep = contraction_ratio(rho, t1, t2)
    assert rep.degenerate and rep.ratio is None
    floor = 1e3 * np.finfo(float).eps * 1e-2 ** -0.5 / 0.5
    assert floor == pytest.approx(4.44e-12, rel=1e-3)
    assert 0.0 < rep.r_after < floor


def test_close_pair_is_not_degenerate():
    rho = quantize_family("uniform01", 512)
    near = AtomicDistribution([1.0 - 1e-5, 1.0 + 1e-5], [0.5, 0.5])
    rep = contraction_ratio(rho, near, point_mass(1.0))
    assert not rep.degenerate
    assert rep.ratio is not None and rep.ratio <= rep.bound_g
