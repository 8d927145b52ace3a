"""Step kernel construction, duality round trips, integral identities."""

import json

import numpy as np
import pytest

from perpetuity.distributions import AtomicDistribution, quantize_family
from perpetuity.response import (
    ResponseFunction,
    response_from_rho,
    rho_from_response,
)


def _curve_reference(h):
    """Row-by-row rendering of the step-boundary curve u,h."""
    rows = []
    start = 0.0
    for v, d in zip(h.values, h.durations):
        rows.append(f"{start:.17g},{v:.17g}\n")
        start += float(d)
        rows.append(f"{start:.17g},{v:.17g}\n")
    rows.append(f"{start:.17g},{0.0:.17g}\n")
    return "u,h\n" + "".join(rows)


def _random_rho(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    locs = np.sort(rng.uniform(0.05, 4.0, size=k))
    locs = np.unique(locs)
    w = rng.dirichlet(np.ones(locs.size))
    while np.any(w <= 0):
        w = rng.dirichlet(np.ones(locs.size))
    return AtomicDistribution(locs, w)


def test_construction_validation():
    with pytest.raises(ValueError):
        ResponseFunction([1.0, 2.0], [1.0, 1.0])  # not decreasing
    with pytest.raises(ValueError):
        ResponseFunction([1.0], [0.0])
    with pytest.raises(ValueError):
        ResponseFunction([-1.0], [1.0])
    with pytest.raises(ValueError):
        ResponseFunction([1.0], [1.0], lam=0.0)
    empty = ResponseFunction([], [])
    assert empty.n_steps == 0 and empty.support_end == 0.0
    assert empty.integral() == 0.0


def test_dual_layout():
    rho = AtomicDistribution([0.5, 2.0], [0.6, 0.4])
    h = response_from_rho(rho, lam=1.0)
    np.testing.assert_array_equal(h.values, [2.0, 0.5])
    np.testing.assert_allclose(h.durations, [0.4 / 2.0, 0.6 / 0.5])
    assert h.support_end == pytest.approx(1.4)
    assert h.integral() == pytest.approx(1.0)


def test_eval_conventions():
    h = ResponseFunction([2.0, 0.5], [0.2, 1.2], lam=1.0)
    np.testing.assert_array_equal(h.eval([-1.0, 0.0, 0.1, 0.2, 1.0, 1.4, 2.0]),
                                  [0.0, 2.0, 2.0, 0.5, 0.5, 0.0, 0.0])


def test_duality_round_trip_random_laws():
    rng = np.random.default_rng(20240814)
    for lam in (1.0, 0.5, 3.0):
        for _ in range(100):
            rho = _random_rho(rng)
            h = response_from_rho(rho, lam=lam)
            back = rho_from_response(h)
            np.testing.assert_allclose(back.locations, rho.locations,
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(back.weights, rho.weights,
                                       rtol=1e-12, atol=1e-15)


def test_integral_identities_random_laws():
    """lam*int h = 1, lam*int h log h = E log A, lam*int h^q = E A^(q-1)."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = _random_rho(rng)
        h = response_from_rho(rho, lam=float(rng.uniform(0.2, 4.0)))
        assert h.integral() == pytest.approx(1.0, abs=1e-12)
        assert h.log_integral() == pytest.approx(rho.log_moment(), rel=1e-12,
                                                 abs=1e-12)
        for q in (1.2, 1.5, 1.9):
            assert h.power_integral(q) == pytest.approx(
                rho.mellin(q - 1.0), rel=1e-12)


def test_lambda_rescale_invariance():
    rho = AtomicDistribution([0.4, 1.2], [0.5, 0.5])
    h1 = response_from_rho(rho, lam=1.0)
    h2 = response_from_rho(rho, lam=2.0)
    np.testing.assert_allclose(h2.durations, h1.durations / 2.0)
    back = rho_from_response(h2)
    np.testing.assert_allclose(back.locations, rho.locations)
    np.testing.assert_allclose(back.weights, rho.weights)


def test_unnormalized_kernel_has_no_dual_law():
    h = ResponseFunction([1.0], [2.0], lam=1.0)  # integral 2
    with pytest.raises(ValueError, match="must be within 1e-9 of 1"):
        rho_from_response(h)


def test_rho_from_empty_response():
    with pytest.raises(ValueError):
        rho_from_response(ResponseFunction([], []))


def test_curve_points_trace_steps():
    h = ResponseFunction([2.0, 1.0], [0.5, 0.5])
    assert "".join(h.to_csv("h")["h_curve.csv"]) == (
        "u,h\n0,2\n0.5,2\n0.5,1\n1,1\n1,0\n")
    # sums of durations accumulate left to right, as in the reference
    rng = np.random.default_rng(3)
    h = response_from_rho(_random_rho(rng, max_atoms=40), lam=0.7)
    assert "".join(h.to_csv("h")["h_curve.csv"]) == _curve_reference(h)
    empty = ResponseFunction([], [])
    assert "".join(empty.to_csv("e")["e_curve.csv"]) == "u,h\n0,0\n"


def test_csv_round_trip():
    h = ResponseFunction([2.0, 0.5], [0.2, 1.2], lam=1.5)
    files = h.to_csv("h")
    assert sorted(files) == ["h.csv", "h.json", "h_curve.csv"]
    text = "".join(files["h.csv"])
    assert text == "value,duration\n" + "".join(
        f"{v:.17g},{d:.17g}\n" for v, d in zip(h.values, h.durations))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    back = ResponseFunction([float(v) for v, _ in rows],
                            [float(d) for _, d in rows],
                            lam=json.loads(files["h.json"])["lambda"])
    np.testing.assert_array_equal(back.values, h.values)
    np.testing.assert_array_equal(back.durations, h.durations)
    assert back.lam == 1.5
    empty = ResponseFunction([], []).to_csv("e")
    assert "".join(empty["e.csv"]) == "value,duration\n"


def test_quantized_uniform_tracks_reference_curve():
    """Midpoint-quantized uniform01 dual approaches h(u) = e^{-u}."""
    rho = quantize_family("uniform01", 2048)
    h = response_from_rho(rho, lam=1.0)
    u = np.linspace(0.05, 4.0, 200)
    # exact-family response curve of uniform(0, 1]
    assert np.max(np.abs(h.eval(u) - np.exp(-u))) < 5e-3
