"""Existence gate, tail classes, moment-order scan, report rendering."""

import json
import math

import pytest

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
