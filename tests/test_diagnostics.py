"""Existence gate, tail classes, moment-order scan, report rendering."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from perpetuity.distributions import (
    UNBOUNDED,
    AtomicDistribution,
    json_text,
    point_mass,
    quantize_family,
)
from perpetuity.diagnostics import (
    DiagnosticsReport,
    ExistenceError,
    TailClass,
    diagnose,
    existence_gate,
    family_tail_class,
    is_determinate,
    max_integer_moment_order,
    moment_index,
    require_existence,
    tail_class,
)


def test_gate_accepts_contracting_laws():
    ok, e = existence_gate(point_mass(0.5))
    assert ok and e == pytest.approx(-math.log(2.0))
    assert existence_gate(quantize_family("uniform01", 32))[0]


def test_gate_rejects_point_mass_at_two():
    ok, e = existence_gate(point_mass(2.0))
    assert not ok and e == pytest.approx(math.log(2.0))
    with pytest.raises(ExistenceError):
        require_existence(point_mass(2.0))


def test_gate_rejects_boundary_case():
    # E log A = 0.5 log(1/2) + 0.5 log 2 = 0 exactly: strict rejection
    rho = AtomicDistribution([0.5, 2.0], [0.5, 0.5])
    ok, e = existence_gate(rho)
    assert not ok
    assert e == 0.0
    with pytest.raises(ExistenceError, match="not < 0"):
        require_existence(rho)


def test_tail_classes_by_ess_sup():
    assert tail_class(point_mass(0.5)) is TailClass.ENTIRE_CHARACTERISTIC_FUNCTION
    rho_at_one = AtomicDistribution([0.5, 1.0], [0.5, 0.5])
    assert tail_class(rho_at_one) is TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
    rho_above = AtomicDistribution([0.5, 1.5], [0.8, 0.2])
    assert tail_class(rho_above) is TailClass.NO_EXPONENTIAL_MOMENT


def test_family_tail_class_override():
    quant = quantize_family("uniform01", 64)
    # quantized atoms stay below 1, but the family's ess sup is exactly 1
    assert tail_class(quant) is TailClass.ENTIRE_CHARACTERISTIC_FUNCTION
    assert family_tail_class(quant) is TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
    assert family_tail_class(point_mass(0.5)) is None


def test_determinacy():
    assert is_determinate(point_mass(1.0))
    assert is_determinate(point_mass(0.5))
    assert not is_determinate(AtomicDistribution([0.5, 1.1], [0.9, 0.1]))


def test_moment_order_unbounded_on_unit_interval():
    assert max_integer_moment_order(point_mass(0.5)) == UNBOUNDED
    assert max_integer_moment_order(quantize_family("uniform01", 16)) == UNBOUNDED


def test_moment_order_finite_crossing():
    # E A^n = 0.8 * 0.5^n + 0.2 * 1.5^n: < 1 for n = 1, 2, 3; > 1 at n = 4
    rho = AtomicDistribution([0.5, 1.5], [0.8, 0.2])
    assert max_integer_moment_order(rho) == 3


def test_moment_order_zero_witness():
    # mean above 1 but E log A < 0: no integer order is covered
    rho = AtomicDistribution([0.1, 3.0], [0.6, 0.4])
    assert rho.log_moment() < 0.0
    assert rho.mellin(1) > 1.0
    assert max_integer_moment_order(rho) == 0


def test_moment_order_respects_cap():
    """The scan stops at order 64, the largest the moment recursion takes."""
    rho = AtomicDistribution([0.5, 1.0 + 1e-9], [0.5, 0.5])
    assert max_integer_moment_order(rho) == 64


def test_moment_order_requires_existence():
    with pytest.raises(ExistenceError):
        max_integer_moment_order(point_mass(2.0))


#: Laws with a finite kappa and their kappa to four digits.
KAPPA_LAWS = [
    (AtomicDistribution([0.01, 0.5, 50.0], [0.3, 0.5, 0.2]), 0.2088),
    (AtomicDistribution([0.1, 5.9], [0.8, 0.2]), 0.8370),
    (AtomicDistribution([0.3, 1.2], [0.5, 0.5]), 3.7725),
]

#: Laws with ess sup A <= 1, where kappa is infinite.
UNBOUNDED_LAWS = [point_mass(0.5), quantize_family("uniform01", 512),
                  AtomicDistribution([0.5, 1.0], [0.5, 0.5])]


def _random_heavy_laws(count):
    """Random laws with ess sup A > 1 and E log A <= -0.01."""
    rng = np.random.default_rng(28)
    laws = []
    while len(laws) < count:
        k = int(rng.integers(2, 6))
        locs = np.exp(rng.uniform(-4.0, 2.5, size=k))
        rho = AtomicDistribution(locs, rng.dirichlet(np.ones(k)))
        if rho.ess_sup > 1.0 and rho.log_moment() <= -0.01:
            laws.append(rho)
    return laws


def _brentq_kappa(rho):
    """The root of E A^p - 1 by brentq, bracketed by halving and doubling."""
    lo = hi = 1.0
    while rho.mellin(lo) >= 1.0:
        lo /= 2.0
    while rho.mellin(hi) <= 1.0:
        hi *= 2.0
    return brentq(lambda p: rho.mellin(p) - 1.0, lo, hi, xtol=1e-300,
                  rtol=8.9e-16, maxiter=500)


def _scanned_order(rho):
    """The integer scan max_integer_moment_order ran before kappa: the last
    n <= 64 before the first with E A^n >= 1."""
    best = 0
    for n in range(1, 65):
        if rho.mellin(n) < 1.0:
            best = n
        else:
            break
    return best


def test_moment_index_meets_brentq():
    laws = [rho for rho, _ in KAPPA_LAWS] + _random_heavy_laws(200)
    worst = max(abs(moment_index(rho) / _brentq_kappa(rho) - 1.0)
                for rho in laws)
    assert worst <= 1e-10
    for rho, kappa in KAPPA_LAWS:
        assert moment_index(rho) == pytest.approx(kappa, abs=5e-5)


def test_moment_index_is_infinite_exactly_where_ess_sup_is_at_most_one():
    for rho in UNBOUNDED_LAWS:
        assert moment_index(rho) == math.inf
    for rho in [rho for rho, _ in KAPPA_LAWS] + _random_heavy_laws(20):
        assert math.isfinite(moment_index(rho))
    # an atom just above 1 with E log A < 0: finite, and far above 64
    assert 6e8 < moment_index(AtomicDistribution([0.5, 1.0 + 1e-9],
                                                 [0.5, 0.5])) < 7e8


def test_moment_index_requires_existence():
    for rho in (point_mass(2.0), AtomicDistribution([0.5, 2.0], [0.5, 0.5])):
        with pytest.raises(ExistenceError, match="not < 0"):
            moment_index(rho)


def test_integer_order_matches_the_scan():
    """max_integer_moment_order, ceil(kappa) - 1 settled by two mellin
    calls, gives the old scan's order on every law tested here, on the
    laws pinned in this file and in test_acceptance.py, and on
    {0.5: 0.8, 2: 0.2}, whose E A^2 is 1.0 in doubles (kappa = 2)."""
    exact_two = AtomicDistribution([0.5, 2.0], [0.8, 0.2])
    assert exact_two.mellin(2) == 1.0
    assert max_integer_moment_order(exact_two) == 1
    pinned = [AtomicDistribution([0.5, 1.5], [0.8, 0.2]),
              AtomicDistribution([0.5, 1.1], [0.9, 0.1]),
              AtomicDistribution([0.1, 3.0], [0.6, 0.4]),
              AtomicDistribution([0.5, 1.0 + 1e-9], [0.5, 0.5]),
              quantize_family("uniform01", 16),
              quantize_family("uniform01", 64),
              quantize_family("uniform01", 4096), exact_two]
    laws = ([rho for rho, _ in KAPPA_LAWS] + UNBOUNDED_LAWS + pinned
            + _random_heavy_laws(200))
    for rho in laws:
        expected = (UNBOUNDED if rho.ess_sup <= 1.0 else _scanned_order(rho))
        assert max_integer_moment_order(rho) == expected, rho


def test_diagnose_reports_the_moment_index():
    """A float kappa, the unbounded marker where kappa is infinite (JSON
    has no infinity), and None where the existence gate fails."""
    rho, kappa = KAPPA_LAWS[0]
    rep = diagnose(rho)
    assert rep.moment_index == moment_index(rho)
    assert rep.moment_index == pytest.approx(kappa, abs=5e-5)
    assert f"moment index kappa        {rep.moment_index}" in (
        rep.render_table().splitlines())
    assert json.loads(json_text(rep))["moment_index"] == rep.moment_index
    assert diagnose(point_mass(0.5)).moment_index == UNBOUNDED
    assert json.loads(json_text(diagnose(point_mass(2.0))))[
        "moment_index"] is None


def test_compound_poisson_check():
    """K = E[1/A] is finite for every atomic law, so the atomic-level
    field is true; the uniform01 family's own K is infinite."""
    for rho in (point_mass(0.5), quantize_family("uniform01", 8)):
        rep = diagnose(rho)
        assert rep.compound_poisson is True
        assert rep.e_inv_a == rho.mean_inverse()
    assert diagnose(quantize_family("uniform01", 8)).family_compound_poisson \
        is False


def test_diagnose_report_uniform01():
    rep = diagnose(quantize_family("uniform01", 64))
    assert rep.exists
    assert rep.max_integer_moment_order == UNBOUNDED
    assert rep.determinate
    assert rep.compound_poisson         # finite quantization
    assert rep.family_compound_poisson is False   # exact family has K = inf
    assert rep.family_tail_class is TailClass.EXPONENTIAL_MOMENT_NOT_ENTIRE
    obj = json.loads(json_text(rep))
    assert obj["family"] == "uniform01"
    assert obj["tail_class"] == "entire-characteristic-function"


def test_diagnose_nonexistent_law():
    rep = diagnose(point_mass(2.0))
    assert not rep.exists
    assert rep.max_integer_moment_order is None
    table = rep.render_table()
    assert "no" in table.splitlines()[0]


def test_render_table_alignment_and_custom_family():
    rep = diagnose(point_mass(0.5))
    lines = rep.render_table().splitlines()
    assert all("  " in ln for ln in lines)
    # a custom family tag has no family-level classes; table must not crash
    rho = AtomicDistribution([0.5], [1.0], family="user_quantile_table")
    table = diagnose(rho).render_table()
    assert "user_quantile_table" in table


def test_report_is_frozen():
    rep = diagnose(point_mass(0.5))
    assert isinstance(rep, DiagnosticsReport)
    with pytest.raises(AttributeError):
        rep.exists = False
