"""Package-level acceptance checks at committed scales and tolerances.

Every test prints exactly one PASS/FAIL line with the measured numbers so
a log scan shows the whole matrix at a glance.  Scales follow the package
defaults (n = 2e5 Monte Carlo samples, 40 transform iterations) except
where a check needs more (the Levy sample uses 1e6 draws).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from perpetuity import montecarlo
from perpetuity.diagnostics import (
    TailClass,
    diagnose,
    existence_gate,
    is_determinate,
    max_integer_moment_order,
    tail_class,
)
from perpetuity.distributions import (
    AtomicDistribution,
    point_mass,
    quantize_family,
)
from perpetuity.levy import levy_from_solution, steutel_residual
from perpetuity.lst_solver import solve
from perpetuity.metrics import (
    contraction_ratio,
    r_delta_report,
    random_mean_law,
)
from perpetuity.moments import eta_moments
from perpetuity.montecarlo import (
    cross_oracle_distance,
    mc_fixed_point,
    perpetuity_residual,
)
from perpetuity.response import response_from_rho, rho_from_response

DELTA_HALF = AtomicDistribution([0.5], [1.0])
ATOM_DELTA_HALF = 0.20318786997997992
N_MC = 200_000
ITERS = 40


def check(label: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def uniform_rho():
    return quantize_family("uniform01", 512)


@pytest.fixture(scope="module")
def uniform_mc(uniform_rho):
    t0 = time.monotonic()
    sample = mc_fixed_point(uniform_rho, 1.0, n=N_MC, seed=2024, steps=ITERS)
    return sample, time.monotonic() - t0


@pytest.fixture(scope="module")
def half_mc():
    return mc_fixed_point(DELTA_HALF, 1.0, n=N_MC, seed=2025, steps=ITERS)


def test_uniform01_exponential_law():
    sups = {}
    ok = True
    for n_atoms, grid_points, tol in ((512, 256, 2e-3), (4096, 512, 3e-4)):
        rho = quantize_family("uniform01", n_atoms)
        t0 = time.monotonic()
        grid = solve(rho, 1.0, grid_points=grid_points)
        elapsed = time.monotonic() - t0
        s = grid.s_points
        sup = float(np.max(np.abs(np.exp(-grid.psi) - 1.0 / (1.0 + s))))
        sups[n_atoms] = (sup, tol, elapsed)
        ok = ok and grid.converged and sup <= tol and elapsed < 5.0
    detail = ", ".join(
        f"n={n}: sup|phi-1/(1+s)|={v[0]:.3e} (tol {v[1]:g}, {v[2]:.2f}s)"
        for n, v in sups.items()
    )
    check("uniform01 quantization solves to the exponential LST", ok, detail)


def test_moment_closed_forms():
    fam = eta_moments(quantize_family("uniform01", 64), 1.0, 6,
                      family_exact=True)
    fact_err = max(
        abs(fam.values[n] - math.factorial(n)) / math.factorial(n)
        for n in range(1, 7)
    )
    half = eta_moments(DELTA_HALF, 1.0, 3)
    half_err = max(abs(half.values[2] - 2.0) / 2.0,
                   abs(half.values[3] - 16.0 / 3.0) / (16.0 / 3.0))
    ok = fact_err <= 1e-12 and half_err <= 1e-12
    check("moment recursion reproduces closed forms", ok,
          f"uniform01 n<=6 worst rel err {fact_err:.2e}, "
          f"half-point (2, 16/3) worst rel err {half_err:.2e} (tol 1e-12)")


def test_half_point_functional_equation(half_mc):
    grid = solve(DELTA_HALF, 1.0)
    s = grid.s_points
    residual = float(np.max(np.abs(
        grid.psi - 2.0 * (1.0 - np.exp(-grid.eval_psi(s / 2.0))))))
    atom_err = abs(grid.atom_at_zero - 0.20319)
    frac = float(np.mean(half_mc.values == 0.0))
    c = ATOM_DELTA_HALF
    band = 4.0 * math.sqrt(c * (1.0 - c) / half_mc.values.size)
    ok = residual < 1e-10 and atom_err <= 1e-4 and abs(frac - c) <= band
    check("half-point law satisfies its functional equation", ok,
          f"sup residual {residual:.2e} (<1e-10), atom {grid.atom_at_zero:.6f}"
          f" (0.20319 +/- 1e-4), MC zero fraction off by {abs(frac - c):.2e}"
          f" (4-sigma band {band:.2e} at n={half_mc.values.size})")


def test_perpetuity_identity_two_sample(uniform_rho, uniform_mc):
    sample, solve_time = uniform_mc
    t0 = time.monotonic()
    rep = perpetuity_residual(sample, uniform_rho, seed=777)
    control = perpetuity_residual(sample, point_mass(1.0), seed=777)
    elapsed = solve_time + (time.monotonic() - t0)
    ok = (rep.ks_stat <= rep.ks_crit_1pct
          and control.p_value < 0.01
          and elapsed < 30.0)
    check("size-biased perpetuity identity holds in two samples", ok,
          f"KS {rep.ks_stat:.5f} <= crit {rep.ks_crit_1pct:.5f}, "
          f"point-mass control p={control.p_value:.2e} (<0.01), "
          f"runtime {elapsed:.1f}s (<30s) at n={rep.n}")


def test_levy_structure(uniform_rho, uniform_mc, half_mc):
    sample, _ = uniform_mc
    levy = levy_from_solution(uniform_rho, sample, seed=31337,
                              n_out=1_000_000)
    ks = float(stats.kstest(levy.x, "expon").statistic)
    steutel = steutel_residual(sample, levy, [0.5, 1.0, 2.0, 4.0])
    wrong_levy = levy_from_solution(DELTA_HALF, half_mc, seed=31338,
                                    n_out=200_000)
    control = steutel_residual(sample, wrong_levy, [0.5, 1.0, 2.0])
    ok = (ks <= 0.01 and steutel.residual < 3e-3
          and control.residual > 0.05 and math.isinf(levy.total_mass_of_m))
    check("tilted Levy sample and convolution identity", ok,
          f"KS vs Exp(1) {ks:.4f} (<=0.01, n=1e6), steutel residual "
          f"{steutel.residual:.2e} (<3e-3), mismatched control "
          f"{control.residual:.3f} (>0.05)")


def test_contraction_sweep_and_metric_axioms(uniform_rho):
    rng = np.random.default_rng(606)
    worst = {}
    ok = True
    for name, rho in (("uniform01", uniform_rho), ("half-point", DELTA_HALF)):
        bound = rho.mellin(0.5)
        ratios = []
        draw = 0
        while len(ratios) < 20:
            assert draw < 200, "too many degenerate pair draws"
            t1, t2 = random_mean_law(rng, 1.0), random_mean_law(rng, 1.0)
            draw += 1
            rep = contraction_ratio(rho, t1, t2)
            if rep.degenerate:
                continue
            ratios.append(rep.ratio)
        worst[name] = (max(ratios), bound)
        ok = ok and max(ratios) <= bound + 0.05

    axiom_rng = np.random.default_rng(607)
    axiom_gap = 0.0
    for _ in range(100):
        a, b, c = (random_mean_law(axiom_rng, 1.0) for _ in range(3))
        rab, rba = r_delta_report(a, b).value, r_delta_report(b, a).value
        rac, rbc = r_delta_report(a, c).value, r_delta_report(b, c).value
        axiom_gap = max(axiom_gap,
                        abs(rab - rba),
                        r_delta_report(a, a).value,
                        rac - (rab + rbc))
    ok = ok and axiom_gap <= 1e-12
    detail = ", ".join(
        f"{k}: max ratio {v[0]:.3f} <= {v[1]:.4f}+0.05" for k, v in worst.items()
    )
    check("one-step contraction within modulus bound; metric axioms", ok,
          detail + f"; worst axiom violation {axiom_gap:.1e} over 100 triples")


def test_gates_and_classifications():
    reject_two = not existence_gate(point_mass(2.0))[0]
    boundary = AtomicDistribution([0.5, 2.0], [0.5, 0.5])
    exists, elog = existence_gate(boundary)
    crossing = AtomicDistribution([0.5, 1.5], [0.8, 0.2])
    order = max_integer_moment_order(crossing)
    classes_ok = (
        tail_class(DELTA_HALF) is TailClass.ENTIRE_CHARACTERISTIC_FUNCTION
        and is_determinate(DELTA_HALF)
        and diagnose(quantize_family("uniform01", 64)).family_tail_class
        is TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
        and is_determinate(quantize_family("uniform01", 64))
        and tail_class(crossing) is TailClass.NO_EXPONENTIAL_MOMENT
        and not is_determinate(crossing)
    )
    ok = reject_two and not exists and elog == 0.0 and order == 3 and classes_ok
    check("existence gate, moment ceiling, tail and determinacy classes", ok,
          f"rejects point mass at 2 and the E log A = 0 pair (E log A = "
          f"{elog:g}), crossing law max moment order {order} (=3), "
          f"classes as expected on all three reference laws")


def test_duality_round_trip():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        rho = random_mean_law(rng, mean=float(rng.uniform(0.4, 2.0)))
        h = response_from_rho(rho, lam=float(rng.uniform(0.3, 3.0)))
        back = rho_from_response(h)
        worst = max(
            worst,
            float(np.max(np.abs(back.locations - rho.locations))),
            float(np.max(np.abs(back.weights - rho.weights))),
            abs(h.integral() - 1.0),
            abs(h.log_integral() - rho.log_moment()),
            abs(h.power_integral(1.5) - rho.mellin(0.5)),
        )
    ok = worst <= 1e-12
    check("response duality round trip and integral identities", ok,
          f"worst deviation {worst:.2e} over 100 random laws (tol 1e-12)")


def test_cross_oracle_agreement(uniform_rho, uniform_mc, half_mc,
                                monkeypatch):
    results = []
    ok = True
    for name, rho, sample, seed in (
        ("uniform01", uniform_rho, uniform_mc[0], 2024),
        ("half-point", DELTA_HALF, half_mc, 2025),
    ):
        grid = solve(rho, 1.0)
        rep = cross_oracle_distance(sample, grid)
        rerun = mc_fixed_point(rho, 1.0, n=N_MC, seed=seed, steps=ITERS)
        byte_stable = bool(np.array_equal(sample.values, rerun.values))
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_ARRIVALS", 50_000)
            rechunked = mc_fixed_point(rho, 1.0, n=N_MC, seed=seed,
                                       steps=ITERS)
        alt = cross_oracle_distance(rechunked, grid)
        ok = ok and rep.passed and alt.passed and byte_stable
        results.append(
            f"{name}: max|diff|/allowed {rep.max_ratio:.2f} "
            f"(rechunked {alt.max_ratio:.2f}), byte-stable={byte_stable}"
        )
    check("deterministic and sampled solutions agree within stated error",
          ok, "; ".join(results))
