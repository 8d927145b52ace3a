"""Atomic law canonicalization, functionals, sampling, serialization."""

import json
import math

import numpy as np
import pytest

from perpetuity.distributions import (
    FAMILY_UNIFORM01,
    AtomicDistribution,
    EmpiricalSample,
    MomentVector,
    point_mass,
    quantize_family,
    uniform01_log_moment,
    uniform01_mellin,
    validate,
)


def test_construction_sorts_and_merges():
    rho = AtomicDistribution([2.0, 0.5, 2.0], [0.25, 0.5, 0.25])
    assert rho.locations.tolist() == [0.5, 2.0]
    assert rho.weights.tolist() == [0.5, 0.5]


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        AtomicDistribution([], [])
    with pytest.raises(ValueError):
        AtomicDistribution([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        AtomicDistribution([-1.0], [1.0])
    with pytest.raises(ValueError):
        AtomicDistribution([1.0], [0.0])
    with pytest.raises(ValueError):
        AtomicDistribution([1.0, 2.0], [0.5, 0.6])  # sums to 1.1
    with pytest.raises(ValueError):
        AtomicDistribution([math.inf], [1.0])
    with pytest.raises(ValueError):
        AtomicDistribution([1.0, 2.0], [0.5])


def test_weight_renormalization_within_tolerance():
    rho = AtomicDistribution([1.0, 2.0], [0.5, 0.5 + 4e-10])
    assert abs(float(rho.weights.sum()) - 1.0) < 1e-15


def test_immutability():
    rho = point_mass(1.0)
    with pytest.raises(AttributeError):
        rho.family = "x"
    with pytest.raises(ValueError):
        rho.locations[0] = 2.0


def test_functionals_closed_forms():
    rho = AtomicDistribution([0.5, 2.0], [0.8, 0.2])
    assert rho.mean() == pytest.approx(0.8)
    assert rho.mellin(0.0) == 1.0
    assert rho.mellin(1.0) == pytest.approx(rho.mean())
    assert rho.mellin(2.0) == pytest.approx(0.8 * 0.25 + 0.2 * 4.0)
    assert rho.log_moment() == pytest.approx(
        0.8 * math.log(0.5) + 0.2 * math.log(2.0))
    assert rho.mean_inverse() == pytest.approx(0.8 / 0.5 + 0.2 / 2.0)
    assert rho.ess_sup == 2.0
    assert rho.min_location == 0.5


def test_mellin_log_convexity_spot():
    rho = AtomicDistribution([0.3, 0.9, 1.7], [0.2, 0.5, 0.3])
    for p in (-0.5, 0.0, 0.7, 1.5):
        mid = rho.mellin(p) ** 2
        ends = rho.mellin(p - 0.3) * rho.mellin(p + 0.3)
        assert mid <= ends * (1 + 1e-12)


def test_size_bias_reweights_by_location():
    rho = AtomicDistribution([0.5, 2.0], [0.8, 0.2])
    sb = rho.size_bias()
    m = rho.mean()
    np.testing.assert_allclose(sb.weights, [0.8 * 0.5 / m, 0.2 * 2.0 / m])
    assert sb.mean() == pytest.approx(rho.mellin(2.0) / m)


def test_quantile_boundaries():
    rho = AtomicDistribution([1.0, 3.0], [0.25, 0.75])
    u = np.array([0.0, 0.1, 0.25, 0.2500001, 0.9, 1.0])
    np.testing.assert_array_equal(rho.quantile(u), [1, 1, 1, 3, 3, 3])


def test_sample_deterministic_and_distributed():
    rho = AtomicDistribution([1.0, 3.0], [0.25, 0.75])
    a = rho.sample(20000, seed=5)
    b = rho.sample(20000, seed=5)
    np.testing.assert_array_equal(a, b)
    frac = np.mean(a == 3.0)
    # 4 sigma binomial band around 0.75
    assert abs(frac - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 20000)
    assert not np.array_equal(a, rho.sample(20000, seed=6))


def test_digest_distinguishes_laws():
    a = AtomicDistribution([1.0, 2.0], [0.5, 0.5])
    b = AtomicDistribution([1.0, 2.0], [0.4, 0.6])
    assert len(a.digest()) == 12
    assert a.digest() != b.digest()
    assert a.digest() == AtomicDistribution([2.0, 1.0], [0.5, 0.5]).digest()
    tagged = quantize_family(FAMILY_UNIFORM01, 4)
    untagged = AtomicDistribution(tagged.locations, tagged.weights)
    assert tagged.digest() != untagged.digest()


def test_csv_and_json_round_trips(tmp_path):
    rho = AtomicDistribution([1 / 3, 0.9, 2.5], [0.2, 0.5, 0.3])
    p = tmp_path / "rho.csv"
    rho.to_csv(p)
    back = AtomicDistribution.from_csv(p)
    np.testing.assert_array_equal(back.locations, rho.locations)
    np.testing.assert_array_equal(back.weights, rho.weights)
    again = AtomicDistribution.from_json_obj(rho.to_json_obj())
    np.testing.assert_array_equal(again.locations, rho.locations)


def test_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        AtomicDistribution.from_csv(p)


def test_validate_passthrough_and_pairs():
    rho = point_mass(2.0)
    assert validate(rho) is rho
    built = validate([(1.0, 0.5), (2.0, 0.5)])
    assert built.locations.tolist() == [1.0, 2.0]


def test_uniform01_quantization():
    rho = quantize_family(FAMILY_UNIFORM01, 512)
    assert rho.family == FAMILY_UNIFORM01
    assert rho.locations[0] == 1.0 / 1024.0
    assert rho.locations[-1] == 1023.0 / 1024.0
    # dyadic midpoints sum exactly
    assert rho.mean() == 0.5
    # midpoint-rule Mellin error is O(1/n^2)
    assert rho.mellin(0.5) == pytest.approx(uniform01_mellin(0.5), abs=1e-5)
    assert rho.log_moment() == pytest.approx(uniform01_log_moment(), abs=1e-2)
    with pytest.raises(ValueError):
        quantize_family(FAMILY_UNIFORM01)
    with pytest.raises(ValueError):
        quantize_family("triangular", 8)


def test_user_quantile_table():
    rho = quantize_family("user_quantile_table",
                          quantiles=[0.5, 0.5, 1.0, 2.0])
    assert rho.locations.tolist() == [0.5, 1.0, 2.0]
    assert rho.weights.tolist() == [0.5, 0.25, 0.25]
    with pytest.raises(ValueError):
        quantize_family("user_quantile_table", quantiles=[1.0, 0.5])
    with pytest.raises(ValueError):
        quantize_family("user_quantile_table", quantiles=[])


def test_uniform01_mellin_domain():
    with pytest.raises(ValueError):
        uniform01_mellin(-1.0)


def test_empirical_sample_basics():
    s = EmpiricalSample([1.0, 2.0, 3.0], seed=1, provenance="unit")
    assert len(s) == 3
    assert s.mean() == 2.0
    with pytest.raises(ValueError):
        EmpiricalSample([], 1, "x")
    with pytest.raises(ValueError):
        EmpiricalSample([1.0, -2.0], 1, "x")
    with pytest.raises(ValueError):
        EmpiricalSample([np.nan], 1, "x")


def test_resample_determinism():
    s = EmpiricalSample(np.arange(1.0, 101.0), seed=0, provenance="unit")
    a = s.resample(50, seed=9)
    b = s.resample(50, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    assert set(a.values) <= set(s.values)


def test_size_bias_resample_weights_by_value():
    s = EmpiricalSample([0.0, 1.0, 3.0], seed=0, provenance="unit")
    out = s.size_bias_resample(40000, seed=3).values
    assert np.all(out > 0.0)  # zero entries never selected
    frac3 = np.mean(out == 3.0)
    assert abs(frac3 - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 40000)
    with pytest.raises(ValueError):
        EmpiricalSample([0.0, 0.0], 0, "z").size_bias_resample(10, seed=1)


def test_empirical_csv_round_trip(tmp_path):
    s = EmpiricalSample([0.0, 1.5, 2.25], seed=77, provenance="unit-test")
    p = tmp_path / "sample.csv"
    s.to_csv(p)
    meta = json.loads((tmp_path / "sample.json").read_text())
    assert meta == {"seed": 77, "provenance": "unit-test", "n": 3}
    back = EmpiricalSample.from_csv(p)
    np.testing.assert_array_equal(back.values, s.values)
    assert back.seed == 77 and back.provenance == "unit-test"


def test_empirical_csv_detects_truncation(tmp_path):
    s = EmpiricalSample([1.0, 2.0, 3.0], seed=1, provenance="p")
    p = tmp_path / "s.csv"
    s.to_csv(p)
    p.write_text("value\n1\n2\n")  # drop a row, keep sidecar
    with pytest.raises(ValueError, match="sidecar"):
        EmpiricalSample.from_csv(p)


def test_moment_vector():
    mv = MomentVector(values=(1.0, 1.0, 2.0, 6.0), mean=1.0, max_order=3)
    assert mv.moment(2) == 2.0
    with pytest.raises(ValueError):
        mv.moment(4)
    # factorial sequence is log convex
    assert mv.log_convexity_gap() >= 0.0


def test_moment_vector_csv(tmp_path):
    mv = MomentVector(values=(1.0, 0.5, 0.5), mean=0.5, max_order=2,
                      marginal=True)
    p = tmp_path / "mv.csv"
    mv.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "order,value"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "mv.json").read_text())
    assert meta["marginal_flag"] is True and meta["max_order"] == 2

