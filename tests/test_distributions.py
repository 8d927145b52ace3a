"""Atomic law canonicalization, functionals, sampling, serialization."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from perpetuity.distributions import (
    FAMILY_UNIFORM01,
    AtomicDistribution,
    EmpiricalSample,
    MomentVector,
    _categorical,
    csv_text,
    json_text,
    point_mass,
    quantize_family,
    uniform01_mellin,
    validate,
)
from perpetuity.response import response_from_rho


def write_files(directory, files):
    """Write to_csv output: each value is a string or a list of blocks."""
    for name, text in files.items():
        (directory / name).write_text("".join(text))


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


def test_mellin_log_convexity_spot():
    rho = AtomicDistribution([0.3, 0.9, 1.7], [0.2, 0.5, 0.3])
    for p in (-0.5, 0.0, 0.7, 1.5):
        mid = rho.mellin(p) ** 2
        ends = rho.mellin(p - 0.3) * rho.mellin(p + 0.3)
        assert mid <= ends * (1 + 1e-12)


def test_sample_boundaries(monkeypatch):
    """Inverse CDF at given uniforms: u on the CDF boundary 0.25 goes to
    the upper atom."""
    rho = AtomicDistribution([1.0, 3.0], [0.25, 0.75])
    u = [0.0, 0.1, 0.25, 0.2500001, 0.9, 1.0 - 2.0 ** -53]
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _FixedUniforms(u))
    np.testing.assert_array_equal(rho.sample(len(u), seed=0),
                                  [1, 1, 3, 3, 3, 3])


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


def test_csv_and_json_round_trips():
    rho = AtomicDistribution([1 / 3, 0.9, 2.5], [0.2, 0.5, 0.3])
    text = "".join(csv_text("location,weight", rho.locations, rho.weights))
    assert text == ("location,weight\n"
                    "0.33333333333333331,0.20000000000000001\n"
                    "0.90000000000000002,0.5\n"
                    "2.5,0.29999999999999999\n")
    back = np.array([row.split(",") for row in text.splitlines()[1:]], float)
    np.testing.assert_array_equal(back[:, 0], rho.locations)
    np.testing.assert_array_equal(back[:, 1], rho.weights)
    obj = {"b": [1.5, None], "a": {"y": True, "x": "s"}}
    text = json_text(obj)
    assert json.loads(text) == obj
    assert text == ('{\n  "a": {\n    "x": "s",\n    "y": true\n  },\n'
                    '  "b": [\n    1.5,\n    null\n  ]\n}\n')


def test_artifact_writers_refuse_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            json_text({"residual": bad})
        with pytest.raises(ValueError, match="non-finite"):
            csv_text("s,psi", [1.0, 2.0], [0.5, bad])


def test_validate_pairs():
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
    assert rho.log_moment() == pytest.approx(-1.0, abs=1e-2)  # E log U
    with pytest.raises(ValueError):
        quantize_family(FAMILY_UNIFORM01, 0)
    with pytest.raises(ValueError):
        quantize_family("triangular", 8)


def test_uniform01_mellin_domain():
    with pytest.raises(ValueError):
        uniform01_mellin(-1.0)


def test_empirical_sample_basics():
    s = EmpiricalSample([1.0, 2.0, 3.0], seed=1, provenance="unit")
    assert s.values.size == 3
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


def _categorical_weights(name):
    if name == "one":
        return np.array([2.5])
    if name == "two-atoms":
        return np.array([0.3, 1.2])
    if name == "uniform01-steps":
        h = response_from_rho(quantize_family(FAMILY_UNIFORM01, 512), lam=1.0)
        return h.lam * h.durations
    if name == "zeros":
        w = np.random.default_rng(8).exponential(size=200_000)
        w[:50] = w[90_000:90_100] = w[-50:] = 0.0
        return w
    # 1000 tiny weights between two atoms; the CDF from the first atom
    # through the cluster lies in one of the 4096 guide buckets
    return np.concatenate([[1.0], np.full(1000, 6e-7), [2.0]])


@pytest.mark.parametrize(
    "name", ["one", "two-atoms", "uniform01-steps", "zeros", "cluster"])
def test_categorical_matches_rng_choice(name):
    """Same indices as Generator.choice(p=...) and the same stream position
    afterwards, so swapping one for the other moves no sample bit."""
    w = _categorical_weights(name)
    for seed in (0, 1):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _categorical(ours, w, np.arange(w.size, dtype=float),
                           1_000_000)
        want = ref.choice(w.size, 1_000_000, p=w / w.sum())
        np.testing.assert_array_equal(got, want)
        assert ours.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given; each call
    serves the next ``size`` of them."""

    def __init__(self, u):
        self.u = np.array(u)
        self.pos = 0

    def random(self, size):
        assert self.pos + size <= self.u.size
        self.pos += size
        return self.u[self.pos - size:self.pos]


def test_categorical_ties_and_zero_weights():
    """u equal to a CDF entry or a bucket edge goes right, as in
    searchsorted(side="right"); zero weights are never drawn."""
    w = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 2.0])      # cdf 0 0 .25 .5 .5 1
    u = [0.0, 0.25, 0.5, 0.125, 0.75, 1.0 - 2.0 ** -53, 3 / 32]
    got = _categorical(_FixedUniforms(u), w, np.arange(w.size, dtype=float),
                       len(u))
    np.testing.assert_array_equal(got, [2, 3, 5, 2, 5, 5, 2])
    # ties off the bucket edges, met by the first check, the vectorized
    # steps and the binary search
    w = _categorical_weights("cluster")
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    u = cdf[[0, 1, 2, 500, 1000]]
    got = _categorical(_FixedUniforms(u), w, np.arange(w.size, dtype=float),
                       len(u))
    np.testing.assert_array_equal(got, [1, 2, 3, 501, 1001])


def test_categorical_cluster_reaches_the_binary_search():
    """Draws deep inside the cluster start at its bucket's first index and
    need more than the two vectorized steps."""
    w = _categorical_weights("cluster")
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    assert np.unique(np.floor(cdf[:1001] * 4096)).size == 1
    drawn = _categorical(np.random.default_rng(0), w,
                         np.arange(w.size, dtype=float), 1_000_000)
    assert np.count_nonzero((drawn >= 3) & (drawn <= 1000)) > 100


def test_empirical_csv_round_trip(tmp_path):
    # more rows than one csv_text block, with extreme doubles mixed in
    rng = np.random.default_rng(11)
    values = rng.exponential(size=2 * 65536 + 7)
    values[:4] = [0.0, 5e-324, 2.2250738585072014e-308, 1e300]
    s = EmpiricalSample(values, seed=77, provenance="unit-test")
    files = s.to_csv("sample")
    assert sorted(files) == ["sample.csv", "sample.json"]
    reference = "value\n" + "".join(f"{v:.17g}\n" for v in s.values)
    assert "".join(files["sample.csv"]) == reference
    assert json.loads(files["sample.json"]) == {
        "seed": 77, "provenance": "unit-test", "n": values.size}
    write_files(tmp_path, files)
    header, *rows = (tmp_path / "sample.csv").read_text().splitlines()
    assert header == "value"
    back = np.array([float(row) for row in rows])
    assert back.tobytes() == s.values.tobytes()


def test_csv_text_blocks():
    """One header block, then one block per 4096 rows, the same on every
    iteration; empty tables render as the header alone; an integer cell is
    '%.17g' % v as well, which writes its digits below 2**53."""
    assert list(csv_text("x,y", [], [])) == ["x,y\n"]
    assert list(csv_text("x,y", [0.1], [2.0])) == [
        "x,y\n", "0.10000000000000001,2\n"]
    text = csv_text("k,v", range(4097), np.full(4097, 0.5))
    blocks = list(text)
    assert [b.count("\n") for b in blocks] == [1, 4096, 1]
    assert list(text) == blocks
    assert blocks[-1] == "4096,0.5\n"
    ints = [-2 ** 53, -7, 0, 2 ** 53]
    assert "".join(csv_text("k,v", ints, [-0.0, -1e-5, 3e16, 123.5])) == (
        "k,v\n-9007199254740992,-0\n-7,-1.0000000000000001e-05\n"
        "0,30000000000000000\n9007199254740992,123.5\n")
    assert list(csv_text("k", [2 ** 62 + 1]))[1] == "4.6116860184273879e+18\n"


def _percent_17g(values):
    return "".join("%.17g\n" % v for v in values.tolist())


def test_csv_text_matches_percent_17g():
    """The vectorized cells are the bytes of '%.17g' % v on random doubles,
    on round-half-even ties at the 17th digit, around the powers of ten
    where the notation or the digit count changes, and on the values left
    to %; none raises a numpy warning."""
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    random = bits.view(np.float64)
    random = random[np.isfinite(random)]
    ties = []
    for q in range(21):
        # odd / 2**(q+1) with 17 digits before the tie: |v| * 10**q is
        # odd * 5**q / 2, halfway between two integers
        lo = math.ceil(Fraction(10) ** (16 - q) * 2 ** (q + 1)) // 2
        hi = min(math.floor(Fraction(10) ** (17 - q) * 2 ** (q + 1)),
                 2 ** 53) // 2
        if lo < hi:
            ties.append((2 * rng.integers(lo, hi, 500) + 1) / 2.0 ** (q + 1))
    ties = np.concatenate(ties + [[1 + 2 ** -17, 1 + 3 * 2 ** -17]])
    assert ties.size > 7000
    powers = np.array([float(f"1e{e}") for e in range(-8, 24)])
    near, down, up = [powers], powers, powers
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [down, up]
    near = np.concatenate(near)
    near = np.concatenate([near, -near])
    special = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (random, ties, near, special):
            assert "".join(csv_text("v", values)) == "v\n" + _percent_17g(values)
    tie_text = "".join(csv_text("v", ties[-2:]))
    assert tie_text == "v\n1.0000076293945312\n1.0000228881835938\n"
    assert "".join(csv_text("v", special)) == (
        "v\n0\n-0\n4.9406564584124654e-324\n2.2250738585072014e-308\n"
        "1.0000000000000001e+300\n")


def test_moment_vector():
    mv = MomentVector(values=(1.0, 1.0, 2.0, 6.0), mean=1.0, max_order=3)
    # factorial sequence is log convex (Lyapunov)
    v = mv.values
    assert all(v[n - 1] * v[n + 1] >= v[n] ** 2 for n in range(1, 3))


def test_moment_vector_csv(tmp_path):
    mv = MomentVector(values=(1.0, 0.5, 0.5), mean=0.5, max_order=2,
                      marginal=True)
    files = mv.to_csv("mv")
    assert sorted(files) == ["mv.csv", "mv.json"]
    reference = "order,value\n" + "".join(
        f"{k},{v:.17g}\n" for k, v in enumerate(mv.values))
    assert "".join(files["mv.csv"]) == reference
    assert reference.splitlines()[1:] == ["0,1", "1,0.5", "2,0.5"]
    meta = json.loads(files["mv.json"])
    assert meta == {"m": 0.5, "max_order": 2, "marginal_flag": True}

