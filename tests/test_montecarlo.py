"""Shot-noise resampling route: exactness, determinism, statistical checks.

Oracles: Poisson(1) count law for a flat unit kernel with unit marks,
Lambert-W zero mass 0.20318786997997992 for the half-point law, and the
exponential solution of the uniform01 family.
"""

import hashlib
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import stats

from perpetuity import metrics, montecarlo
from perpetuity.distributions import (
    AtomicDistribution,
    EmpiricalSample,
    point_mass,
    quantize_family,
)
from perpetuity.lst_solver import LstGrid, _node_psi, iterate_once, solve
from perpetuity.metrics import step_char_function
from perpetuity.montecarlo import (
    _MAX_CHUNK_ARRIVALS,
    KS_COEFF_1PCT,
    _chunk_bounds,
    chunk_slots,
    cross_oracle_distance,
    derive_seed,
    empirical_lst,
    mc_fixed_point,
    perpetuity_residual,
    shot_noise_resample,
    start_law,
    transform_steps,
)
from perpetuity.response import ResponseFunction, response_from_rho

DELTA_HALF = AtomicDistribution([0.5], [1.0])
ATOM_DELTA_HALF = 0.20318786997997992


def test_ks_coefficient_closed_form():
    from scipy import special
    assert KS_COEFF_1PCT == pytest.approx(special.kolmogi(0.01), abs=1e-12)
    # one-term tail inversion agrees to ~2e-8
    assert KS_COEFF_1PCT == pytest.approx(math.sqrt(-math.log(0.005) / 2.0),
                                          abs=1e-6)


def test_mc_fixed_point_argument_validation():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        mc_fixed_point(DELTA_HALF, 1.0, n=0, seed=7, steps=1)
    with pytest.raises(ValueError, match="at least one transform iteration"):
        mc_fixed_point(DELTA_HALF, 1.0, n=10, seed=7, steps=0)
    with pytest.raises(TypeError):
        mc_fixed_point(DELTA_HALF, 1.0, n=10, steps=1)   # seed is required
    out = mc_fixed_point(DELTA_HALF, 1.0, n=10, seed=7, steps=1)
    assert out.seed == 7 and "seed=7)" in out.provenance


def test_derive_seed_stable_and_distinct():
    a = derive_seed(123, "alpha", 0)
    assert a == derive_seed(123, "alpha", 0)
    others = {
        derive_seed(123, "alpha", 1),
        derive_seed(123, "beta", 0),
        derive_seed(124, "alpha", 0),
        derive_seed(123, "alpha", 0, 0),
    }
    assert a not in others and len(others) == 4
    assert 0 <= a < 2 ** 64


def test_flat_kernel_unit_marks_gives_poisson_counts():
    # h = 1 on [0,1), lambda = 1, marks identically 1: output is Poisson(1)
    h = ResponseFunction([1.0], [1.0], lam=1.0)
    theta = EmpiricalSample(np.ones(1000), 0, "unit-marks")
    out = shot_noise_resample(theta, h, seed=99, n_out=200_000).values
    assert np.all(out == np.round(out))
    n = out.size
    assert abs(out.mean() - 1.0) < 4.0 / math.sqrt(n)
    assert abs(out.var() - 1.0) < 4.0 * math.sqrt(3.0 / n)  # var of var ~ 3/n
    p0 = float(np.mean(out == 0.0))
    assert abs(p0 - math.exp(-1.0)) < 4.0 * math.sqrt(p0 * (1 - p0) / n)


def _assert_poisson_slots(counts, rate):
    """Mean, variance, P(0) and lag-1 correlation of per-slot counts
    against iid Poisson(rate), each within 4 standard errors."""
    n = counts.size
    assert abs(counts.mean() - rate) < 4.0 * math.sqrt(rate / n)
    # var of the sample variance ~ (mu4 - sigma^4) / n = (L + 2 L^2) / n
    assert abs(counts.var() - rate) < 4.0 * math.sqrt(
        (rate + 2.0 * rate ** 2) / n)
    p0, q0 = float(np.mean(counts == 0)), math.exp(-rate)
    assert abs(p0 - q0) < 4.0 * math.sqrt(q0 * (1.0 - q0) / n)
    lag1 = np.corrcoef(counts[:-1], counts[1:])[0, 1]
    assert abs(lag1) < 4.0 / math.sqrt(n)


def test_multi_step_kernel_unit_marks_gives_poisson_counts():
    """Steps 4096, 64, 1 of lengths 0.2, 0.5, 1.3 with unit marks: the
    output spells each slot's per-step counts in base 64, and each count,
    like their total, is iid Poisson over slots (lambda d_k and 2.0)."""
    h = ResponseFunction([4096.0, 64.0, 1.0], [0.2, 0.5, 1.3], lam=1.0)
    theta = EmpiricalSample(np.ones(1000), 0, "unit-marks")
    out = shot_noise_resample(theta, h, seed=99, n_out=200_000).values
    assert np.all(out == np.round(out))
    digits = out.astype(np.int64)
    counts = [digits // 4096, digits // 64 % 64, digits % 64]
    assert max(c.max() for c in counts) < 64
    for c, d in zip(counts, h.durations):
        _assert_poisson_slots(c, float(d))
    _assert_poisson_slots(sum(counts), h.support_end)


def test_resample_deterministic_and_seed_sensitive():
    h = response_from_rho(quantize_family("uniform01", 32), lam=1.0)
    theta = EmpiricalSample(np.random.default_rng(5).exponential(size=4000),
                            5, "exp-marks")
    a = shot_noise_resample(theta, h, seed=11, n_out=5000)
    b = shot_noise_resample(theta, h, seed=11, n_out=5000)
    c = shot_noise_resample(theta, h, seed=12, n_out=5000)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_empty_kernel_maps_to_zero():
    h = ResponseFunction([], [], lam=1.0)
    theta = EmpiricalSample(np.ones(100), 0, "x")
    out = shot_noise_resample(theta, h, seed=1, n_out=50)
    assert np.all(out.values == 0.0)


def test_one_step_mean_preservation():
    """The transform has unit mean gain: E out = lambda*int(h) * E xi."""
    rho = quantize_family("uniform01", 64)
    h = response_from_rho(rho, lam=1.0)
    rng = np.random.default_rng(21)
    theta = EmpiricalSample(rng.gamma(2.0, 1.0, size=100_000), 21, "gamma21")
    out = shot_noise_resample(theta, h, seed=77, n_out=100_000).values
    # per-slot variance = lambda*int(h^2) * E xi^2 = g(1) * E xi^2
    v_slot = rho.mean() * float(np.mean(theta.values ** 2))
    se = math.sqrt(v_slot / out.size)
    assert abs(out.mean() - theta.values.mean()) < 4.0 * se


STEP_LAWS = {
    "uniform01": quantize_family("uniform01", 512),
    "half-point": DELTA_HALF,
    "two-atom": AtomicDistribution([0.3, 1.2], [0.5, 0.5]),
}


def _step_cf_zscores(sample_rho, exact_rho, seed):
    """Largest |z| of one sampled step's ECF against an exact step CF.

    The input holds {0.5, 1.5} in exact halves, so its empirical law is
    the atomic theta and only the step's own sampling noise remains.
    """
    theta = AtomicDistribution([0.5, 1.5], [0.5, 0.5])
    n = 100_000
    marks = EmpiricalSample(np.repeat([0.5, 1.5], n // 2), seed, "theta")
    out = shot_noise_resample(marks, response_from_rho(sample_rho, lam=1.0),
                              seed, n_out=n)
    s = np.geomspace(0.1, 10.0, 16)
    phase = np.multiply.outer(s, out.values)
    ecf = np.exp(1j * phase).mean(axis=1)
    exact = step_char_function(exact_rho, theta, s)
    se_re = np.cos(phase).std(axis=1) / np.sqrt(n)
    se_im = np.sin(phase).std(axis=1) / np.sqrt(n)
    return max(np.max(np.abs(ecf.real - exact.real) / se_re),
               np.max(np.abs(ecf.imag - exact.imag) / se_im))


@pytest.mark.parametrize("name", sorted(STEP_LAWS))
def test_sampled_step_matches_exact_step_cf(name):
    rho = STEP_LAWS[name]
    assert _step_cf_zscores(rho, rho, seed=31) < 4.0
    # negative control: the same sample against another law's step CF
    others = sorted(STEP_LAWS)
    other = STEP_LAWS[others[(others.index(name) + 1) % len(others)]]
    assert _step_cf_zscores(rho, other, seed=31) > 4.0


def test_mc_fixed_point_deterministic():
    a = mc_fixed_point(DELTA_HALF, 1.0, n=3000, seed=42, steps=8)
    b = mc_fixed_point(DELTA_HALF, 1.0, n=3000, seed=42, steps=8)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.seed == 42 and "mc-fixed-point" in a.provenance


@pytest.mark.parametrize("name", sorted(STEP_LAWS))
def test_mc_mean_is_pinned_to_target(name):
    for m in (1.0, 2.5):
        sample = mc_fixed_point(STEP_LAWS[name], m, n=20_000, seed=2024,
                                steps=5)
        assert sample.mean() == pytest.approx(m, rel=1e-12, abs=0.0)


def test_all_zero_iterate_is_refused():
    # each slot of a half-point iterate is zero with probability near the
    # atom at zero, 0.203, so three slots are all zero together now and
    # then; with seed 1 at iterate 4, which leaves no mean to rescale (the
    # zeros come from the Poisson counts, so the start law does not matter)
    with pytest.raises(ValueError, match=r"iterate 4 .* all zero.*n_samples"):
        mc_fixed_point(DELTA_HALF, 1.0, n=3, seed=1, steps=40)
    # E A = 0.9995 gives a Gamma start of shape 5e-4, whose draws underflow
    # to zero about two times in three: refused before the division by 0
    near_one = AtomicDistribution([0.001, 1.998], [0.5, 0.5])
    assert start_law(near_one, 1.0)["shape"] < 1e-3
    with pytest.raises(ValueError, match=r"iterate 0 of n = 1 .* all zero"):
        mc_fixed_point(near_one, 1.0, n=1, seed=1, steps=1)


def test_chunking_changes_bits_not_statistics(monkeypatch):
    n = 40_000
    a = mc_fixed_point(DELTA_HALF, 1.0, n=n, seed=9, steps=10)
    monkeypatch.setattr(montecarlo, "_CHUNK_ARRIVALS", 2048)   # ceil(K) = 2
    b = mc_fixed_point(DELTA_HALF, 1.0, n=n, seed=9, steps=10)
    assert "chunk=65536," in a.provenance and "chunk=1024," in b.provenance
    assert not np.array_equal(a.values, b.values)
    # both means are pinned to m, so compare the whole laws
    ks = stats.ks_2samp(a.values, b.values).statistic
    assert ks < KS_COEFF_1PCT * math.sqrt(2.0 / n)


def test_chunk_plan_caps_arrivals():
    """Slots per chunk are 2**17 // ceil(K), K = E[1/A], so every chunk
    holds about 2**17 expected arrivals, well within the arrival cap."""
    slow = AtomicDistribution([1e-4, 1.5], [0.5, 0.5])      # K = 5000.3
    k_slow = slow.mean_inverse()
    slots = chunk_slots(slow)
    assert slots == 26 and slots * k_slow <= _MAX_CHUNK_ARRIVALS
    out = mc_fixed_point(slow, 1.0, n=3000, seed=5, steps=1)
    assert out.values.size == 3000 and "chunk=26," in out.provenance

    uniform = quantize_family("uniform01", 512)             # K = 8.2
    assert chunk_slots(uniform) == 14563
    bounds = _chunk_bounds(200_000, chunk_slots(uniform))
    assert len(bounds) == 14 and bounds[-1] == (189_319, 200_000)
    assert all(hi - lo == 14563 for lo, hi in bounds[:-1])
    assert chunk_slots(DELTA_HALF) == 65536                 # ceil(K) = 2


def test_law_no_chunk_can_bound_is_refused():
    """ceil(K) > _MAX_CHUNK_ARRIVALS: one slot alone passes the cap, so the
    sampler refuses before drawing anything."""
    law = AtomicDistribution([1e-7, 1.5], [0.5, 0.5])       # K = 5e6
    with pytest.raises(ValueError, match=r"K = E\[1/A\] = 5e\+06 .* 4194304"):
        mc_fixed_point(law, 1.0, n=3, seed=5, steps=1)
    with pytest.raises(ValueError):
        chunk_slots(law)


def _bias_rule_holds(rho, grid, n, k):
    """20 |phi_k - phi| <= se at every node, with phi_k the k-th iterate
    from the Gamma start law (1 + scale s)^-shape on the grid's nodes."""
    s = grid.s_points
    phi = np.exp(-grid.psi)
    se = np.sqrt(np.maximum(grid.eval_lst(2.0 * s) - phi ** 2, 0.0) / n)
    law = start_law(rho, grid.mean_target)
    assert law["law"] == "gamma"
    psi0 = law["shape"] * np.log1p(law["scale"] * s)
    state = replace(grid, psi=psi0, iteration_count=0)
    for _ in range(k):
        state = iterate_once(state, rho)
    return bool(np.all(20.0 * np.abs(np.exp(-state.psi) - phi) <= se))


@pytest.mark.parametrize("rho,steps", [
    # the Gamma start is Exp(1), the family map's fixed point up to the
    # O(h^4) of the lattice: one step
    (STEP_LAWS["uniform01"], {200_000: 1, 20_000: 1}),
    (STEP_LAWS["half-point"], {200_000: 9, 20_000: 8}),
    (STEP_LAWS["two-atom"], {200_000: 14, 20_000: 11}),
    (AtomicDistribution([0.1, 1.5], [0.5, 0.5]), {200_000: 16}),
    # one sup of the bias against the largest se would stop at 11 here
    (AtomicDistribution([0.05, 1.8], [0.6, 0.4]), {200_000: 12}),
], ids=["uniform01", "half-point", "two-atom", "far-atoms", "wide-atoms"])
def test_transform_steps_meet_the_bias_rule(rho, steps):
    """T is the smallest step count whose LST bias is within a twentieth
    of the standard error at every node: the rule holds at T, not T - 1
    (for T = 1, not at the start law itself).  uniform01 replays the
    family map, whose fixed point the start law already is, so there the
    rule holds at the start law too and T is 1, the fewest steps."""
    grid = solve(rho, 1.0)
    for n, expected in steps.items():
        t, bias = transform_steps(rho, grid, n, 40)
        assert t == expected
        assert _bias_rule_holds(rho, grid, n, t)
        if rho.family is None:
            assert not _bias_rule_holds(rho, grid, n, t - 1)
        else:
            assert t == 1 and _bias_rule_holds(rho, grid, n, 0)
        assert 0.0 < bias < 1e-3
        if t > 1:
            # a cap below T binds; the bias is then the larger one there
            capped, capped_bias = transform_steps(rho, grid, n, t - 1)
            assert capped == t - 1 and capped_bias > bias


@pytest.mark.parametrize("name", ["half-point", "two-atom", "uniform01"])
def test_one_law_of_eta_near_zero(monkeypatch, name):
    """The lattice's nodes below s_min, iterate 0 of the bias replay and
    the exponent of the MC start law, shape * log1p(scale * s), are one
    function, bit for bit, at every mean."""
    rho = STEP_LAWS[name]
    replayed = []
    monkeypatch.setattr(montecarlo, "iterate_once", lambda state, r: (
        replayed.append(state.psi) or iterate_once(state, r)))
    for m in (1.0, 2.5, 1e-200):
        law = start_law(rho, m)
        assert law["law"] == "gamma"

        def start(s):
            return law["shape"] * np.log1p(law["scale"] * s)

        grid = solve(rho, m)
        x = np.log(grid.s_points)
        below = np.arange(-300, 0)
        np.testing.assert_array_equal(
            _node_psi(grid, below),
            start(np.exp(x[0] + (x[-1] - x[0]) / (x.size - 1) * below)))
        replayed.clear()
        transform_steps(rho, grid, 20_000, 1)
        np.testing.assert_array_equal(replayed[0], start(grid.s_points))


def test_transform_steps_without_a_converged_grid():
    rho = STEP_LAWS["two-atom"]
    rough = solve(rho, 1.0, max_iter=3)
    assert not rough.converged
    assert transform_steps(rho, rough, 20_000, 7) == (7, None)
    with pytest.raises(ValueError, match="at least one"):
        transform_steps(rho, solve(rho, 1.0), 20_000, 0)
    # n < 1 has no standard error: refused before any division by n, also
    # on a grid that did not converge
    for grid in (solve(rho, 1.0), rough):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                transform_steps(rho, grid, n, 40)


def test_sampler_bytes_are_pinned():
    """sha256 of sampler outputs: a change to any draw moves these."""
    mc = mc_fixed_point(quantize_family("uniform01", 512), 1.0, n=5000,
                        seed=2024, steps=3)
    assert hashlib.sha256(mc.values.tobytes()).hexdigest() == (
        "a856d9b3f26e20d7461b573002ea125c83c0c33769a8417f2304fa80829ebbee")
    v = np.random.default_rng(5).exponential(size=10_000)
    v[::7] = 0.0
    sb = EmpiricalSample(v, 5, "pin").size_bias_resample(20_000, seed=11)
    assert hashlib.sha256(sb.values.tobytes()).hexdigest() == (
        "00a1225925b9afb0ae213328a5402a5e3f90a44dd1dd56f3ca4b89af8d505cad")


def test_mc_history_and_validation():
    """The state after k steps is the k-step run: step k draws from
    streams of (seed, k, chunk) alone, then rescales to mean m."""
    states = [mc_fixed_point(DELTA_HALF, 1.0, n=500, seed=1, steps=k)
              for k in range(1, 5)]
    assert all(s.values.size == 500 for s in states)
    h = response_from_rho(DELTA_HALF, lam=1.0)
    for k in range(1, 4):
        step = shot_noise_resample(
            states[k - 1], h, derive_seed(1, "shot-noise-transform", k, 0),
            n_out=500)
        np.testing.assert_array_equal(states[k].values,
                                      step.values * (1.0 / step.mean()))
    with pytest.raises(ValueError):
        mc_fixed_point(DELTA_HALF, -1.0, n=500, seed=1, steps=4)
    with pytest.raises(Exception):   # existence gate
        mc_fixed_point(point_mass(2.0), 1.0, n=500, seed=1, steps=4)


def test_iterate_zero_is_the_start_law():
    """Step 1 maps the rescaled Gamma(m^2/k2, k2/m) draws of the
    "mc-start" stream (Exp(1) for the point mass at 1/2, m = 1); a law
    without E eta^2 (E A = 1.55) starts from the point mass at m."""
    law = start_law(DELTA_HALF, 1.0)
    assert law == {"law": "gamma", "shape": 1.0, "scale": 1.0}
    gamma = np.random.default_rng(derive_seed(3, "mc-start")).gamma(
        1.0, 1.0, 500)
    no_variance = AtomicDistribution([0.1, 3.0], [0.5, 0.5])
    assert start_law(no_variance, 2.0) == {"law": "point-mass", "at": 2.0}
    for rho, m, start in ((DELTA_HALF, 1.0, gamma * (1.0 / gamma.mean())),
                          (no_variance, 2.0, np.full(500, 2.0))):
        one = mc_fixed_point(rho, m, n=500, seed=3, steps=1)
        step = shot_noise_resample(
            EmpiricalSample(start, 3, "start"), response_from_rho(rho, lam=1.0),
            derive_seed(3, "shot-noise-transform", 0, 0), n_out=500)
        np.testing.assert_array_equal(one.values,
                                      step.values * (m / step.mean()))
    assert "start=gamma(shape=1, scale=1)," in mc_fixed_point(
        DELTA_HALF, 1.0, n=10, seed=3, steps=1).provenance
    assert "start=point-mass(at=2)," in mc_fixed_point(
        no_variance, 2.0, n=10, seed=3, steps=1).provenance


def test_zero_fraction_matches_atom_mass():
    n = 40_000
    sample = mc_fixed_point(DELTA_HALF, 1.0, n=n, seed=14, steps=40)
    frac = float(np.mean(sample.values == 0.0))
    c = ATOM_DELTA_HALF
    assert abs(frac - c) < 5.0 * math.sqrt(c * (1 - c) / n)


def test_perpetuity_residual_accepts_true_solution():
    rho = quantize_family("uniform01", 512)
    sample = mc_fixed_point(rho, 1.0, n=30_000, seed=3, steps=40)
    rep = perpetuity_residual(sample, rho, seed=1001)
    assert rep.n == 30_000
    assert rep.ks_crit_1pct == pytest.approx(
        KS_COEFF_1PCT * math.sqrt(2.0 / 30_000))
    assert rep.ks_stat <= 1.5 * rep.ks_crit_1pct


def test_perpetuity_residual_rejects_wrong_mixing_law():
    rho = quantize_family("uniform01", 512)
    sample = mc_fixed_point(rho, 1.0, n=30_000, seed=3, steps=40)
    rep = perpetuity_residual(sample, DELTA_HALF, seed=1001)
    assert rep.ks_stat > 3.0 * rep.ks_crit_1pct
    assert rep.p_value < 1e-4


@pytest.mark.parametrize("sizes", [(20_000, 20_000), (3000, 7001)])
def test_ks_statistic_equals_scipy(sizes):
    """Bit for bit against scipy's two-sample statistic, on continuous
    samples and on tied ones with an atom at zero (as the solutions of
    atomic laws have) and repeated values."""
    rng = np.random.default_rng(sum(sizes))
    for tied in (False, True):
        x = rng.exponential(size=sizes[0])
        y = 1.01 * rng.exponential(size=sizes[1])
        if tied:
            x[rng.random(x.size) < 0.2] = 0.0
            y[rng.random(y.size) < 0.2] = 0.0
            x, y = np.round(x, 2), np.round(y, 2)
        assert montecarlo._ks_statistic(x, y) == (
            stats.ks_2samp(x, y, method="asymp").statistic)


def test_ks_statistic_equals_scipy_on_hostile_samples():
    """Bit for bit against scipy where the merged count walks tie groups:
    a constant sample, two samples drawn from the same three values,
    sizes 1000 against 1, and n = 2e5 a side with an atom at zero."""
    rng = np.random.default_rng(17)
    cases = [
        (np.full(50, 2.0), rng.exponential(size=80)),
        (np.full(30, 1.5), np.full(40, 1.5)),
        (rng.choice([0.0, 1.0, 2.0], 500), rng.choice([0.0, 1.0, 2.0], 700)),
        (rng.exponential(size=1000), np.array([0.7])),
        (np.array([0.7]), rng.exponential(size=1000)),
    ]
    x, y = rng.exponential(size=(2, 200_000))
    x[rng.random(x.size) < 0.3] = 0.0
    y[rng.random(y.size) < 0.3] = 0.0
    cases.append((x, y))
    for x, y in cases:
        assert montecarlo._ks_statistic(x, y) == (
            stats.ks_2samp(x, y, method="asymp").statistic)


def test_kolmogorov_p_value_against_scipy():
    """The Kolmogorov limit stays within 2% of scipy's finite-n kstwo
    law at n = 2e5 pairs, down to p near 1e-31, and is 1 as d -> 0."""
    n = 200_000
    for z in np.linspace(0.5, 6.0, 23):
        d = z / math.sqrt(n / 2.0)
        exact = stats.kstwo.sf(d, round(n / 2.0))
        assert montecarlo._kolmogorov_sf(z) == pytest.approx(exact, rel=0.02)
    for z in (0.0, 1e-9, 0.05, 0.1):
        assert montecarlo._kolmogorov_sf(z) == 1.0
    assert montecarlo._kolmogorov_sf(40.0) == 0.0


def traced_peak(call):
    """(call(), the peak of memory traced while it runs)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ks_statistic_memory_is_one_pooled_copy_and_its_indices():
    """Two 2e5 samples: the pooled copy is 3.2 MB and its argsort 3.2 MB;
    sorted copies of both samples, the merged array and the count arrays
    all alive at once took 27.5 MB."""
    x, y = np.random.default_rng(23).exponential(size=(2, 200_000))
    d, peak = traced_peak(lambda: montecarlo._ks_statistic(x, y))
    assert d == stats.ks_2samp(x, y, method="asymp").statistic
    assert peak < 16 * 2 ** 20


def test_perpetuity_residual_memory_at_two_hundred_thousand_pairs():
    """The right side A * eta_sb + eta is formed in A's array, so the check
    holds the two sides and the KS statistic's arrays; holding all four
    draws and the product took 30.5 MB."""
    rho = quantize_family("uniform01", 512)
    sample = EmpiricalSample(
        np.random.default_rng(29).exponential(size=200_000), 29, "exp")
    rep, peak = traced_peak(lambda: perpetuity_residual(sample, rho, seed=5))
    assert rep.n == 200_000
    assert peak < 16 * 2 ** 20


def test_perpetuity_residual_needs_enough_pairs():
    sample = EmpiricalSample(np.arange(1.0, 501.0), 0, "x")
    with pytest.raises(ValueError, match="at least 1000 pairs"):
        perpetuity_residual(sample, DELTA_HALF, seed=0)


def test_empirical_lst_rules():
    sample = EmpiricalSample(np.full(50, 2.0), 0, "const")
    s = np.array([0.0, 0.5, 1.0, 3.0])
    np.testing.assert_allclose(empirical_lst(sample, s), np.exp(-2.0 * s),
                               rtol=1e-14)
    with pytest.raises(ValueError):
        empirical_lst(sample, [-1.0])


def _empirical_lst_by_blocks(values, s, step):
    acc = np.zeros(s.size)
    for lo in range(0, values.size, step):
        acc += np.exp(np.multiply.outer(-s, values[lo:lo + step])).sum(axis=1)
    return acc / values.size


def test_empirical_lst_equals_fresh_blocks():
    """The reused block buffer changes no bit against a fresh allocation
    per block, for one value, one block less or more than a step, and a
    many-block sample with a partial last block."""
    s = np.geomspace(1e-2, 1e2, 32)
    step = metrics._CHUNK_ELEMENTS // s.size
    rng = np.random.default_rng(8)
    for n in (1, step - 1, step, step + 1, 200_000):
        values = rng.exponential(size=n)
        np.testing.assert_array_equal(
            empirical_lst(EmpiricalSample(values, 0, "x"), s),
            _empirical_lst_by_blocks(values, s, step))


def test_cross_oracle_agreement_reduced_scale():
    rho = quantize_family("uniform01", 512)
    grid = solve(rho, 1.0)
    sample = mc_fixed_point(rho, 1.0, n=20_000, seed=17, steps=40)
    rep = cross_oracle_distance(sample, grid)
    assert rep.passed
    assert rep.sup_distance <= rep.sup_allowed
    assert rep.max_ratio <= 1.0
    obj = asdict(rep)
    assert obj["passed"] is True
    assert len(obj["s_grid"]) == len(rep.s_grid)


def test_cross_oracle_zero_tolerance():
    """A point with zero tolerance has ratio 0 where the routes agree
    exactly and is refused where they differ, so max_ratio stays finite."""
    s = np.geomspace(1e-3, 1e3, 16)
    flat = LstGrid(s_points=s, psi=np.zeros(16), mean_target=1.0,
                   iteration_count=1, residual=0.0, converged=True,
                   extrapolation_used=False)    # phi = 1, zero error bar
    zeros = EmpiricalSample(np.zeros(1000), 0, "zeros")
    rep = cross_oracle_distance(zeros, flat)
    assert rep.passed and rep.max_ratio == 0.0
    ones = EmpiricalSample(np.ones(1000), 0, "ones")   # exp(-0.01) < 1
    with pytest.raises(ValueError, match="tolerance is 0 at s = 0.01,"):
        cross_oracle_distance(ones, flat)


def test_cross_oracle_flags_wrong_mean():
    rho = quantize_family("uniform01", 512)
    wrong = solve(rho, 1.05)
    sample = mc_fixed_point(rho, 1.0, n=20_000, seed=17, steps=40)
    rep = cross_oracle_distance(sample, wrong)
    assert not rep.passed
    assert rep.max_ratio > 1.0
