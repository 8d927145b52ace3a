"""Moment recursion against hand-evaluated closed forms.

Oracle values, worked by hand from the recursion
m_{n+1} = [sum C(n,k) g(k) m_{k+1} m_{n-k}] / (1 - g(n)):
  g(k) = 1/(k+1)  (exact uniform01)  ->  m_n = n!
  g(k) = 2^{-k}   (point mass 1/2)   ->  m_2 = 2, m_3 = 16/3, m_4 = 744/21
"""

import math

import pytest

from perpetuity.distributions import AtomicDistribution, point_mass, quantize_family
from perpetuity.diagnostics import ExistenceError
from perpetuity.moments import (
    MAX_SUPPORTED_ORDER,
    eta_moments,
    eta_moments_from_mellin,
    eta_variance,
    sb_moments,
)


def test_uniform01_exact_family_factorials():
    rho = quantize_family("uniform01", 16)   # atom count is irrelevant here
    mv = eta_moments(rho, 1.0, 6, family_exact=True)
    assert mv.max_order == 6
    for n in range(7):
        assert mv.values[n] == pytest.approx(math.factorial(n), rel=1e-12)
    assert not mv.marginal


def test_uniform01_quantized_vs_exact():
    # atomic Mellin sums carry midpoint error ~ 1/n^2; exact flag removes it
    rho = quantize_family("uniform01", 512)
    approx = eta_moments(rho, 1.0, 4)
    exact = eta_moments(rho, 1.0, 4, family_exact=True)
    # dyadic midpoints make g(1) = 1/2 exact, so order 2 is error-free
    assert approx.values[2] == exact.values[2]
    for n in (3, 4):
        rel = abs(approx.values[n] - exact.values[n]) / exact.values[n]
        assert 1e-13 < rel < 1e-3


def test_point_mass_half_closed_forms():
    mv = eta_moments(point_mass(0.5), 1.0, 4)
    assert mv.values[2] == pytest.approx(2.0, rel=1e-12)
    assert mv.values[3] == pytest.approx(16.0 / 3.0, rel=1e-12)
    # n=3 row: [g0 m1 m3 + 3 g1 m2 m2 + 3 g2 m3 m1] / (1 - g3)
    expected_m4 = (16.0 / 3.0 + 3 * 0.5 * 4.0 + 3 * 0.25 * 16.0 / 3.0) / (1 - 0.125)
    assert mv.values[4] == pytest.approx(expected_m4, rel=1e-12)


def test_scale_law():
    base = eta_moments(point_mass(0.5), 1.0, 5)
    scaled = eta_moments(point_mass(0.5), 3.0, 5)
    for n in range(6):
        assert scaled.values[n] == pytest.approx(base.values[n] * 3.0 ** n,
                                                 rel=1e-12)


def test_family_exact_requires_tag():
    with pytest.raises(ValueError, match="uniform01"):
        eta_moments(point_mass(0.5), 1.0, 3, family_exact=True)


def test_recursion_stops_at_mellin_crossing():
    # g(3) = 0.775 < 1 <= g(4) = 1.0625: orders above 4 are infinite
    rho = AtomicDistribution([0.5, 1.5], [0.8, 0.2])
    mv = eta_moments(rho, 1.0, 8)
    assert mv.max_order == 4
    assert not mv.marginal
    assert len(mv.values) == 5


def test_marginal_flag_near_crossing():
    # g(3) sits 5e-13 under 1: computable in principle, flagged untrustworthy
    g = lambda k: 1.0 if k == 0 else (1.0 - 5e-13 if k == 3 else 0.8)  # noqa: E731
    mv = eta_moments_from_mellin(g, 1.0, 8)
    assert mv.max_order == 3
    assert mv.marginal
    # a clear crossing at the same order is not marginal
    g2 = lambda k: 1.0 if k == 0 else (1.2 if k == 3 else 0.8)  # noqa: E731
    mv2 = eta_moments_from_mellin(g2, 1.0, 8)
    assert mv2.max_order == 3
    assert not mv2.marginal


def test_eta_variance_is_the_closed_form_of_the_recursion():
    """v = E A / (1 - E A) is E eta^2 - 1 at mean 1 wherever the recursion
    finds E eta^2, also at E A = 1e-17, where 1 / (1 - E A) - 1 rounds to
    0; it is 0 wherever the recursion stops at order 1."""
    for rho in (point_mass(0.5), quantize_family("uniform01", 512),
                AtomicDistribution([0.3, 1.2], [0.5, 0.5]),
                AtomicDistribution([0.1, 1.5], [0.5, 0.5])):
        assert eta_variance(rho) == pytest.approx(
            eta_moments(rho, 1.0, 2).values[2] - 1.0, rel=1e-15)
    assert eta_variance(point_mass(1e-17)) == 1e-17
    for rho in (AtomicDistribution([0.5, 1.5], [0.5, 0.5]),
                AtomicDistribution([1e-7, 0.5, 2e6], [0.5, 0.3, 0.2])):
        assert eta_moments(rho, 1.0, 2).max_order == 1
        assert eta_variance(rho) == 0.0


def test_order_validation():
    with pytest.raises(ValueError):
        eta_moments(point_mass(0.5), 1.0, 0)
    with pytest.raises(ValueError):
        eta_moments(point_mass(0.5), 1.0, MAX_SUPPORTED_ORDER + 1)
    with pytest.raises(ValueError):
        eta_moments(point_mass(0.5), -1.0, 3)
    with pytest.raises(ExistenceError):
        eta_moments(point_mass(2.0), 1.0, 3)


def test_log_convexity_of_solution_moments():
    for rho in (point_mass(0.5), quantize_family("uniform01", 64),
                AtomicDistribution([0.25, 0.75], [0.5, 0.5])):
        v = eta_moments(rho, 1.0, 8).values
        # Lyapunov: m_{n-1} m_{n+1} - m_n^2 >= 0 up to rounding
        gaps = [v[n - 1] * v[n + 1] - v[n] ** 2 for n in range(1, len(v) - 1)]
        assert min(gaps) >= -1e-9


def test_moment_overflow_is_refused():
    # m^4 = 1e400 overflows a double
    with pytest.raises(ValueError, match=r"E eta\^4 overflows"):
        eta_moments(quantize_family("uniform01", 8), 1e100, 8)


def test_sb_moments_shift():
    mv = eta_moments(quantize_family("uniform01", 8), 1.0, 6,
                     family_exact=True)
    sb = sb_moments(mv)
    assert sb.max_order == 5
    # eta_sb is Gamma(2,1) in the exact uniform case: E eta_sb^n = (n+1)!
    for n in range(6):
        assert sb.values[n] == pytest.approx(math.factorial(n + 1), rel=1e-12)
    assert sb.mean == pytest.approx(2.0)


def test_sb_moments_needs_first_moment():
    from perpetuity.distributions import MomentVector
    with pytest.raises(ValueError):
        sb_moments(MomentVector(values=(1.0,), mean=1.0, max_order=0))


def test_high_order_stability():
    # deep recursion stays finite and increasing for a strictly sub-1 law
    mv = eta_moments(point_mass(0.5), 1.0, 40)
    assert mv.max_order == 40
    vals = mv.values
    assert all(v > 0 and math.isfinite(v) for v in vals)
    assert all(vals[n + 1] >= vals[n] for n in range(1, 40))
