"""Fixed-point solver: monotone iteration, closed forms, grid behavior.

Independent oracles used here:
  - exact uniform01 solution phi(s) = 1/(1+s), checked invariant under the
    continuous-family update by adaptive quadrature,
  - the zero-mass equation c = exp(-2(1-c)) solved through the Lambert W
    function, c = -W(-2 e^{-2})/2 = 0.20318786997997992.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from perpetuity import lst_solver
from perpetuity.diagnostics import ExistenceError
from perpetuity.distributions import AtomicDistribution, point_mass, quantize_family
from perpetuity.moments import eta_moments, eta_variance, gamma_psi
from perpetuity.lst_solver import (
    LstGrid,
    _node_psi,
    atom_at_zero,
    init_grid,
    iterate_once,
    solve,
)

DELTA_HALF = AtomicDistribution([0.5], [1.0])
UNIFORM01_512 = quantize_family("uniform01", 512)


def untagged(rho):
    """The same atoms without the family tag: solved as atoms."""
    return AtomicDistribution(rho.locations, rho.weights)

# frozen from the Lambert W expression above
ATOM_DELTA_HALF = 0.20318786997997992


def test_lambert_oracle_value():
    c = -special.lambertw(-2.0 * math.exp(-2.0), k=0).real / 2.0
    assert c == pytest.approx(ATOM_DELTA_HALF, abs=1e-15)
    assert c - math.exp(-2.0 * (1.0 - c)) == pytest.approx(0.0, abs=1e-16)


def test_exact_family_fixed_point_by_quadrature():
    """log(1+s) is invariant under psi -> int_0^1 (1-e^{-psi(sz)})/z dz."""
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        val, err = integrate.quad(
            lambda z, s=s: (1.0 - 1.0 / (1.0 + s * z)) / z, 0.0, 1.0,
            epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert val == pytest.approx(math.log1p(s), abs=1e-8)


def test_init_grid():
    g = init_grid(2.0, s_min=1e-2, s_max=1e2, grid_points=33)
    assert g.s_points[0] == 1e-2 / 2.0 and g.s_points[-1] == 1e2 / 2.0
    np.testing.assert_allclose(g.psi, 2.0 * g.s_points)
    # coarse grid (h = 0.29): the cubic read of f = 1 - e^{-psi} in log s
    # misses m*s by O(h^4) (1.5e-4 relative here)
    assert g.eval_psi(0.5) == pytest.approx(1.0, rel=2e-2)
    assert not g.converged and g.iteration_count == 0
    with pytest.raises(ValueError):
        init_grid(-1.0, 1e-3, 1e3, 256)
    with pytest.raises(ValueError):
        init_grid(1.0, s_min=1.0, s_max=0.5, grid_points=256)
    with pytest.raises(ValueError):
        init_grid(1.0, s_min=1e-3, s_max=1e3, grid_points=8)


def test_first_iterate_closed_form():
    # delta_{1/2} from psi_0 = s: T psi_0 = 2(1 - e^{-s/2}); the cubic read
    # of f = 1 - e^{-psi_0} between log-spaced nodes adds O(h^4) (1.5e-7
    # relative here)
    g = iterate_once(init_grid(1.0, 1e-3, 1e3, 256), DELTA_HALF)
    expected = 2.0 * (1.0 - np.exp(-g.s_points / 2.0))
    assert np.max(np.abs(g.psi - expected) / expected) < 1e-3
    assert g.iteration_count == 1


def test_iterates_monotone_nonincreasing():
    # pointwise decrease holds up to the error injected when
    # f(s a_j) = 1 - e^{-psi(s a_j)} is read off the log-spaced grid: O(h^4)
    # from the cubic rule, plus the step at s_min between the exact law
    # m*s below and the grid values above (relative 1e-5 at most here)
    for rho in (DELTA_HALF, quantize_family("uniform01", 64),
                AtomicDistribution([0.25, 0.9], [0.3, 0.7])):
        g = init_grid(1.0, 1e-3, 1e3, 256)
        for _ in range(15):
            nxt = iterate_once(g, rho)
            assert np.all(nxt.psi <= g.psi * (1.0 + 1e-3) + 1e-15)
            g = nxt


def test_psi_shape_invariants_every_iteration():
    """psi >= 0, nondecreasing and concave in s, phi in (0, 1]."""
    rho = quantize_family("uniform01", 64)
    g = init_grid(1.0, s_min=1e-3, s_max=1e3, grid_points=128)
    for _ in range(25):
        g = iterate_once(g, rho)
        s, psi = g.s_points, g.psi
        assert np.all(psi >= 0.0)
        slopes = np.diff(psi) / np.diff(s)
        assert np.all(np.diff(psi) >= -1e-14)
        # concave in s modulo smooth interpolation wobble in the node values
        assert np.all(np.diff(slopes) <= 1e-4)
        phi = np.exp(-psi)
        assert np.all((phi > 0.0) & (phi <= 1.0))


def test_solve_uniform01_matches_exponential():
    grid = solve(quantize_family("uniform01", 512), 1.0)
    assert grid.converged
    s = grid.s_points
    assert np.max(np.abs(grid.eval_lst(s) - 1.0 / (1.0 + s))) <= 2e-3
    assert grid.eval_lst(1.0) == pytest.approx(0.5, abs=2e-3)
    assert grid.atom_at_zero == 0.0          # family-level K = inf
    assert not grid.extrapolation_used       # all atoms below 1
    assert grid.rate_estimate is not None and 0.0 < grid.rate_estimate < 1.0


TWO_ATOMS = AtomicDistribution([0.3, 1.2], [0.5, 0.5])
TINY_ATOM = AtomicDistribution([1e-12, 0.9], [0.5, 0.5])

# atoms s_min/s_k and s_max/s_k of the default grid: a_j * s_k lands exactly
# on s_min or s_max, where s_min / a_j rounds to the wrong side of s_k
_S = np.geomspace(1e-3, 1e3, 256)
GRID_RATIO = AtomicDistribution(
    [_S[0] / _S[11], _S[0] / _S[50], _S[-1] / _S[254], _S[-1] / _S[233]],
    [0.3, 0.3, 0.3, 0.1])

OPERATOR_LAWS = {
    "uniform01-512": untagged(UNIFORM01_512),
    "two-atom": TWO_ATOMS,           # targets above s_max
    "half-point": DELTA_HALF,
    "tiny-atom": TINY_ATOM,          # psi up to 500: f rounds to 1
    "grid-ratio": GRID_RATIO,
    # 4-entry near kernel, a nonzero fold and 4 offsets above the grid
    "fold-and-above": AtomicDistribution([1e-7, 0.5, 2e6], [0.5, 0.3, 0.2]),
}


def read_nodes(grid, k):
    """psi at the lattice nodes k read through eval_psi at s_min e^(h k),
    not taken from the node values as an iteration takes them."""
    x = np.log(grid.s_points)
    return grid.eval_psi(np.exp(x[0] + (x[-1] - x[0]) / (x.size - 1) * k))


def mapped(grid, read):
    """The grid operator's lattice_map on f = 1 - e^-psi at its nodes, psi
    from read(grid, nodes), with psi[-1], the last slope per lattice step
    clamped at 0, and the operator's fold."""
    op = grid._operator
    x = np.log(grid.s_points)
    h = (x[-1] - x[0]) / (x.size - 1)
    sigma = max((grid.psi[-1] - grid.psi[-2]) / (x[-1] - x[-2]), 0.0) * h
    return op.lattice_map(-np.expm1(-read(grid, op.nodes)), grid.psi[-1],
                          sigma, op.fold)


def assert_linear_in_complex_f(op):
    """lattice_map(f_re + i f_im) = lattice_map(f_re) + i lattice_map(f_im)
    with the fold split alike and no continuation (top = sigma = 0); at
    sigma = 0 the continuation alone adds W (1 - e^-top), W the weight of
    the offsets above the grid, complex top included."""
    rng = np.random.default_rng(7)
    f_re, f_im = rng.random((2, op.nodes.size))
    fold_re, fold_im = rng.random((2, np.size(op.fold)))
    whole = op.lattice_map(f_re + 1j * f_im, 0.0, 0.0, fold_re + 1j * fold_im)
    assert np.iscomplexobj(whole)
    np.testing.assert_allclose(
        whole, op.lattice_map(f_re, 0.0, 0.0, fold_re)
        + 1j * op.lattice_map(f_im, 0.0, 0.0, fold_im), rtol=1e-15, atol=1e-15)
    top = 0.3 - 0.8j
    w = op.up_w.sum() if isinstance(op, lst_solver._LatticeOperator) else 0.0
    zeros = np.zeros(op.nodes.size, complex)
    np.testing.assert_allclose(op.lattice_map(zeros, top, 0.0, 0.0),
                               np.full(whole.size, w * -np.expm1(-top)),
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("name", sorted(OPERATOR_LAWS))
def test_iterate_equals_direct_sum_through_eval_psi(name):
    """One iterate is sum_j (w_j/a_j)(1 - exp(-eval_psi(a_j s_i))) per node,
    written here as one J x G evaluation through eval_psi."""
    rho = OPERATOR_LAWS[name]
    grid = solve(rho, 1.0, max_iter=12)
    targets = np.multiply.outer(rho.locations, grid.s_points)
    vals = grid.eval_psi(targets)
    assert np.all(np.isfinite(vals))
    direct = (rho.weights / rho.locations) @ -np.expm1(-vals)
    for new in (iterate_once(grid, rho).psi, mapped(grid, read_nodes)):
        assert np.max(np.abs(new - direct) / direct) <= 1e-13
    assert grid.extrapolation_used == bool(np.any(targets > grid.s_points[-1]))


def test_family_iterate_equals_quadrature_through_eval_psi():
    """One family iterate is int_0^s (1 - exp(-eval_psi(t))) dt/t at each
    node, here by 3-point Gauss-Legendre on every lattice interval down to
    50 below log s_min (exact for the cubic read; the rest is below
    m s_min e^-50).  The lattice rule sums nodes to 40 below log s_min and
    a geometric tail past them."""
    grid = solve(UNIFORM01_512, 1.0, max_iter=12)
    x = np.log(grid.s_points)
    h = (x[-1] - x[0]) / (x.size - 1)
    k = np.arange(-math.ceil(50.0 / h), grid.s_points.size - 1)
    u, w = np.polynomial.legendre.leggauss(3)
    t = np.exp(x[0] + h * (k[:, None] + (u + 1.0) / 2.0))
    pieces = -np.expm1(-grid.eval_psi(t)) @ (w * h / 2.0)
    direct = np.cumsum(pieces)[k >= -1]
    for new in (iterate_once(grid, UNIFORM01_512).psi,
                mapped(grid, read_nodes)):
        assert np.max(np.abs(new - direct) / direct) <= 1e-13


@pytest.mark.parametrize("name", sorted(OPERATOR_LAWS))
def test_atoms_lattice_map_is_apply_and_linear(name):
    """apply is the node fill, lattice_map and the fold, bit for bit, and
    lattice_map is linear in complex node values."""
    grid = solve(OPERATOR_LAWS[name], 1.0, max_iter=12)
    np.testing.assert_array_equal(mapped(grid, _node_psi),
                                  grid._operator.apply(grid))
    assert_linear_in_complex_f(grid._operator)


def test_family_lattice_map_is_apply_and_linear():
    grid = solve(UNIFORM01_512, 1.0, max_iter=12)
    np.testing.assert_array_equal(mapped(grid, _node_psi),
                                  grid._operator.apply(grid))
    assert_linear_in_complex_f(grid._operator)


@pytest.mark.parametrize("v", [1.0, 0.0])
def test_node_psi_is_the_law_off_the_grid(v):
    """Nodes below s_min hold the law there, bit for bit, with v > 0 and
    with the first-order v = 0; nodes above s_max the slope continuation."""
    grid = replace(solve(DELTA_HALF, 1.0, max_iter=5), v=v)
    x = np.log(grid.s_points)
    h = (x[-1] - x[0]) / (x.size - 1)
    g, psi = grid.psi.size, grid.psi
    below = np.arange(-700, 0)
    np.testing.assert_array_equal(
        _node_psi(grid, below), gamma_psi(np.exp(x[0] + below * h), 1.0, v))
    slope = (psi[-1] - psi[-2]) / (x[-1] - x[-2])
    above = np.arange(g, g + 700)
    np.testing.assert_array_equal(_node_psi(grid, above),
                                  psi[-1] + slope * h * (above - g + 1))
    np.testing.assert_array_equal(_node_psi(grid, np.arange(g)), psi)


FAR_ATOM_LAWS = [
    (AtomicDistribution([1e-100, 0.9], [0.5, 0.5]), 31),
    (AtomicDistribution([1e-300, 0.9], [0.5, 0.5]), 31),
    (AtomicDistribution([1e-3, 1e6], [0.99, 0.01]), 4),
    (AtomicDistribution([1e-3, 1e100], [0.999, 0.001]), 4),
    (AtomicDistribution([1e-3, 1e300], [0.999, 0.001]), 4),
]


@pytest.mark.parametrize("rho, count", FAR_ATOM_LAWS)
def test_far_atoms_at_a_fine_grid(rho, count):
    """Atoms far below 1 fold into a fixed term and atoms far above 1 into
    a closed form per iteration, so the kernel does not grow with how far
    from 1 they lie. A RuntimeWarning fails the test (pyproject
    filterwarnings)."""
    grid = solve(rho, 1.0, grid_points=2048)
    assert grid.converged and grid.iteration_count == count
    assert np.all(np.isfinite(grid.psi))


def test_far_fold_in_blocks_adds_every_offset(monkeypatch):
    """The fold of the far offsets, one offset per block, matches the
    fold in one block (40 atoms in [1e-30, 1e-20] at 256 nodes)."""
    rho = AtomicDistribution(np.r_[np.geomspace(1e-30, 1e-20, 40), 0.9],
                             np.r_[np.full(40, 0.01), 0.6])
    grid = solve(rho, 1.0, max_iter=3)
    whole = lst_solver._build_operator(grid, rho).fold
    monkeypatch.setattr(lst_solver, "_FOLD_BLOCK", grid.s_points.size)
    np.testing.assert_allclose(lst_solver._build_operator(grid, rho).fold,
                               whole, rtol=1e-14)


def test_far_atom_kernel_size_is_bounded():
    """The kernel is as long for an atom at 1e-300 as at 1e-100, and for
    one at 1e300 as at 1e100."""
    sizes = [solve(r, 1.0, grid_points=2048, max_iter=1)._operator.kernel.size
             for r, _ in FAR_ATOM_LAWS]
    assert sizes[0] == sizes[1] and sizes[3] == sizes[4]


def test_offsets_above_the_grid_equal_the_direct_sum():
    """The closed-form sum over offsets d >= G (the atom 100 on a 16-point
    grid over [1, 10], weight 1e-3 in the kernel) matches the direct sum
    through eval_psi, as every other offset does."""
    rho = AtomicDistribution([0.5, 100.0], [0.9, 0.1])
    grid = solve(rho, 1.0, s_min=1.0, s_max=10.0, grid_points=16, max_iter=5)
    assert grid._operator.up_d.min() >= 16
    targets = np.multiply.outer(rho.locations, grid.s_points)
    direct = (rho.weights / rho.locations) @ -np.expm1(-grid.eval_psi(targets))
    for new in (iterate_once(grid, rho).psi, mapped(grid, read_nodes)):
        assert np.max(np.abs(new - direct) / direct) <= 1e-13


@pytest.mark.parametrize("rho, m", [
    (AtomicDistribution([0.01, 0.5, 50.0], [0.3, 0.5, 0.2]), 1.0),
    (AtomicDistribution([0.001, 1e4], [0.7, 0.3]), 3.0),
    (AtomicDistribution([1e-3, 1e6], [0.99, 0.01]), 1.0),
])
def test_laws_with_targets_far_above_s_max_converge(rho, m):
    """The continuation above s_max keeps a nonnegative slope, so laws
    whose targets reach far above s_max converge at every grid size and
    both grid ends. solve stops on the first non-finite iterate, so each
    converged solve had only finite iterates; a RuntimeWarning fails the
    test (pyproject filterwarnings)."""
    for grid_points in (256, 1024, 4096):
        for s_max in (1e3, 1e5):
            grid = solve(rho, m, grid_points=grid_points, s_max=s_max)
            assert grid.converged and np.all(np.isfinite(grid.psi))


def test_eval_psi_finite_where_f_rounds_to_one():
    grid = solve(TINY_ATOM, 1.0)
    assert grid.converged and grid.psi[-1] > 400.0    # 1 - e^{-psi} == 1.0
    t = np.geomspace(grid.s_points[0], grid.s_points[-1], 10_001)
    assert np.all(np.isfinite(grid.eval_psi(t)))


@pytest.mark.parametrize("rho, count", [
    (UNIFORM01_512, 31),
    (DELTA_HALF, 22),
    (TWO_ATOMS, 80),
])
def test_iteration_counts(rho, count):
    grid = solve(rho, 1.0)
    assert grid.converged and grid.iteration_count == count


def _uniform01_node_error(grid):
    s = grid.s_points
    return np.abs(grid.eval_lst(s) - 1.0 / (1.0 + s))


def test_uniform01_accuracy_at_default_grid():
    """max |phi - 1/(1+s)| over the 256 nodes: the family map has no
    quantization, only the O(h^4) of the cubic read (measured 1.23e-7;
    the 512 atoms left 1.18e-4)."""
    grid = solve(UNIFORM01_512, 1.0)
    assert grid.iteration_count == 31
    assert np.max(_uniform01_node_error(grid)) <= 1e-6


@pytest.mark.parametrize("grid_points, bound", [(256, 1e-6), (1024, 1e-8)])
def test_error_estimate_covers_the_family_error(grid_points, bound):
    """The family solve's error against Exp(1) (measured 1.23e-7 and
    4.74e-10) is under the error bar at every node (bar over error at
    least 177 and 2860)."""
    grid = solve(UNIFORM01_512, 1.0, grid_points=grid_points)
    err = _uniform01_node_error(grid)
    assert np.max(err) <= bound
    assert np.all(grid.error_estimate(grid.s_points) >= err)


@pytest.mark.parametrize("grid_points", [256, 1024])
def test_uniform01_family_error_is_fourth_order(grid_points):
    """Halving the lattice step over the same span cuts the family error
    about 16-fold (measured 16.1 at both sizes), as an O(h^4) rule does."""
    coarse, fine = (np.max(_uniform01_node_error(solve(
        UNIFORM01_512, 1.0, grid_points=g))) for g in (grid_points,
                                                      2 * grid_points - 1))
    assert coarse >= 12.0 * fine


def test_uniform01_fine_quantization_at_default_grid():
    """With 4096 atoms solved as atoms the quantization no longer hides
    the law below s_min: the second-order law there keeps the error near
    2.5e-6, where the first-order m s left a floor of 0.0625 s_min =
    6.2e-5."""
    grid = solve(untagged(quantize_family("uniform01", 4096)), 1.0)
    s = grid.s_points
    assert grid.v == 1.0
    assert np.max(np.abs(grid.eval_lst(s) - 1.0 / (1.0 + s))) <= 5e-6


def test_solve_memory_does_not_grow_with_atoms_times_grid():
    """200k atoms on 256 nodes: one J x G float array alone is 410 MB."""
    rho = untagged(quantize_family("uniform01", 200_000))
    tracemalloc.start()
    try:
        grid = solve(rho, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.converged
    assert peak < 64 * 2 ** 20


def test_solve_delta_half_self_consistency():
    grid = solve(DELTA_HALF, 1.0)
    assert grid.converged
    s = grid.s_points
    residual = np.abs(grid.psi - 2.0 * (1.0 - np.exp(-grid.eval_psi(s / 2.0))))
    assert np.max(residual) < 1e-10
    again = iterate_once(grid, DELTA_HALF)
    assert np.max(np.abs(again.psi - grid.psi)) < 10 * 1e-13
    # the transform flattens to -log(atom mass) at large s
    assert grid.eval_lst(s[-1]) == pytest.approx(ATOM_DELTA_HALF, rel=1e-3)


def test_converged_mean_slope_reference_laws():
    """psi at s_min follows the cumulant series m s - k2 s^2 / 2 up to its
    third-order term k3 s^3 / 6 (measured: 0.67-0.75 of that term); the
    law below s_min has relative variance v = k2 / m^2."""
    for rho in (DELTA_HALF, quantize_family("uniform01", 128)):
        for m in (1.0, 2.5):
            grid = solve(rho, m)
            s1 = grid.s_points[0]
            e1, e2, e3 = eta_moments(rho, m, 3).values[1:]
            k2, k3 = e2 - e1 ** 2, e3 - 3.0 * e1 * e2 + 2.0 * e1 ** 3
            assert grid.v == pytest.approx(k2 / m ** 2, rel=1e-15)
            assert abs(grid.psi[0] - (m * s1 - k2 * s1 ** 2 / 2.0)) <= (
                k3 * s1 ** 3 / 6.0)


def test_scale_equivariance():
    """psi_m(s) = psi_1(m s): the lattice at mean m is the mean-1 lattice
    over m, and the law below s_min reads the variance in units of m^2, so
    the solves agree to roundoff (measured: 1.1e-14 at the moderate means,
    2.0e-13 at 1e-200 and 1e-160, where an absolute Var(eta) = m^2 v
    underflows), below, on and above the grid, in the same number of
    iterations."""
    s = np.geomspace(1e-5, 1e5, 61)
    for rho in (DELTA_HALF, TWO_ATOMS, quantize_family("uniform01", 512)):
        g1 = solve(rho, 1.0)
        for m, rtol in ((1e-3, 1e-13), (2.0, 1e-13), (1e3, 1e-13),
                        (1e-160, 1e-12), (1e-200, 1e-12)):
            gm = solve(rho, m)
            assert gm.iteration_count == g1.iteration_count
            np.testing.assert_allclose(gm.eval_psi(s / m), g1.eval_psi(s),
                                       rtol=rtol)


def test_atom_at_zero_values():
    assert atom_at_zero(quantize_family("uniform01", 32)) == 0.0
    c = atom_at_zero(DELTA_HALF)
    assert c == pytest.approx(ATOM_DELTA_HALF, abs=1e-12)
    assert abs(c - math.exp(-2.0 * (1.0 - c))) < 1e-12
    with pytest.raises(ExistenceError):
        atom_at_zero(point_mass(2.0))


def test_atom_at_zero_scan_random_laws():
    """The root solves its equation to 1e-12 relative on random gated laws
    with atoms on [1e-3, 3], so K reaches the hundreds where the atom is
    far below 1e-15 (and 0 where e^-K underflows)."""
    rng = np.random.default_rng(3)
    found = 0
    while found < 50:
        locs = np.sort(rng.uniform(1e-3, 3.0, size=rng.integers(1, 5)))
        w = rng.dirichlet(np.ones(locs.size))
        try:
            rho = AtomicDistribution(locs, w)
        except ValueError:
            continue
        if rho.log_moment() >= 0.0:
            continue
        found += 1
        k = rho.mean_inverse()
        assert k > 1.0   # Jensen, given the gate
        c = atom_at_zero(rho)
        assert 0.0 <= c < 1.0 / k
        assert abs(c - math.exp(-k * (1.0 - c))) <= 1e-12 * c


def test_atom_at_zero_relative_residual():
    """c = exp(-K (1 - c)) to 1e-14 relative where c is far below 1e-15:
    point masses at 1/K and {1e-3, 1.5} (c = 5.1e-218)."""
    laws = [point_mass(1.0 / k) for k in (2, 10, 30, 34, 50, 100, 500)]
    for rho in [*laws, AtomicDistribution([1e-3, 1.5], [0.5, 0.5])]:
        k = rho.mean_inverse()
        c = atom_at_zero(rho)
        assert c > 0.0
        assert abs(c - math.exp(-k * (1.0 - c))) <= 1e-14 * c, k


def test_atom_at_zero_near_k_one():
    """Near K = 1 the root is nearly double, c = exp(-2 (K - 1) / K) to
    second order in K - 1; a residual stop would leave an error of 2e-8."""
    rho = point_mass(1.0 / (1.0 + 1e-8))
    k = rho.mean_inverse()
    assert abs(atom_at_zero(rho) - math.exp(-2.0 * (k - 1.0) / k)) <= 4e-16


def test_atom_at_zero_underflows_to_zero():
    """Where e^-K underflows (K >= 746) the atom is 0.0 in a double."""
    assert point_mass(1e-3).mean_inverse() >= 746.0
    assert atom_at_zero(point_mass(1e-3)) == 0.0


def _cubic_bound(grid):
    """h^4 / 16, h the grid's log step: the cubic read's bound on the
    relative error of a law read off the lattice nodes."""
    x = np.log(grid.s_points)
    return ((x[-1] - x[0]) / (x.size - 1)) ** 4 / 16.0


def test_extrapolation_above_grid():
    rho = AtomicDistribution([0.5, 1.5], [0.8, 0.2])
    grid = solve(rho, 1.0, s_max=10.0, grid_points=64)
    assert grid.extrapolation_used
    # constant log-s slope continuation beyond s_max
    x = np.log(grid.s_points)
    slope = (grid.psi[-1] - grid.psi[-2]) / (x[-1] - x[-2])
    want = grid.psi[-1] + slope * math.log(2.0)
    # read off the continuation's nodes by the cubic rule
    assert grid.eval_psi(20.0) == pytest.approx(want, rel=_cubic_bound(grid))


def test_eval_rules_and_small_s():
    grid = solve(DELTA_HALF, 1.0)
    # a grid point is read by the cubic rule, within roundoff of its value
    np.testing.assert_allclose(grid.eval_psi(grid.s_points[5]), grid.psi[5],
                               rtol=1e-15)
    # below s_min the Gamma law log1p(v m s) / v applies, with
    # v = Var(eta) / m^2 = 1 for the point mass at 1/2 and m = 1
    assert grid.v == 1.0
    assert grid.eval_psi(1e-5) == pytest.approx(1e-5 * (1.0 - 0.5 * 1e-5),
                                                rel=_cubic_bound(grid))
    assert grid.eval_lst(1e-5) == pytest.approx(1.0 - 1e-5, abs=1e-9)


def test_first_order_fallback_below_s_min():
    """m s is kept below s_min where E eta^2 does not exist (E A = 1.55
    here); where k2 s_min > m (k2 = 1 and s_min = 2 for the point mass at
    1/2) the Gamma law log1p(v m s) / v holds there, since it rises on all
    of s >= 0."""
    no_variance = AtomicDistribution([0.1, 3.0], [0.5, 0.5])
    assert no_variance.mean() >= 1.0 and eta_variance(no_variance) == 0.0
    grid = solve(no_variance, 1.0, max_iter=3)
    s0 = grid.s_points[0]
    assert grid.v == 0.0
    assert grid.eval_psi(s0 / 3.0) == pytest.approx(
        grid.mean_target * (s0 / 3.0), rel=_cubic_bound(grid))
    grid = solve(DELTA_HALF, 1.0, s_min=2.0, s_max=2e3, grid_points=64)
    s0 = grid.s_points[0]
    assert grid.v == 1.0
    assert grid.eval_psi(s0 / 3.0) == pytest.approx(
        math.log1p(s0 / 3.0), rel=_cubic_bound(grid))


def test_error_estimate_shape():
    grid = solve(quantize_family("uniform01", 128), 1.0)
    s = np.geomspace(1e-4, 1e4, 64)
    err = grid.error_estimate(s)
    assert np.all(err >= 0.0)
    assert np.all(err < 1.0)
    assert err[0] < 1e-10    # the law below s_min is left out


def test_solver_failure_modes():
    with pytest.raises(ExistenceError):
        solve(point_mass(2.0), 1.0)
    with pytest.raises(ValueError):
        solve(DELTA_HALF, 1.0, tol=0.0)
    flagged = solve(DELTA_HALF, 1.0, max_iter=3)
    assert not flagged.converged
    assert flagged.iteration_count == 3
    assert flagged.residual > 1e-13


def test_report_obj_round_trip():
    grid = solve(DELTA_HALF, 1.0)
    rep = grid.report_obj()
    assert rep["converged"] is True
    assert rep["m"] == 1.0
    assert rep["grid_points"] == 256
    assert rep["atom_at_zero"] == pytest.approx(ATOM_DELTA_HALF, abs=1e-10)


def test_csv_output():
    grid = solve(DELTA_HALF, 1.0, grid_points=32)
    files = grid.to_csv("grid")
    assert list(files) == ["grid.csv"]
    text = "".join(files["grid.csv"])
    # phi per node by math.exp, as in the row-by-row rendering
    assert text == "s,psi,phi\n" + "".join(
        f"{s:.17g},{p:.17g},{math.exp(-p):.17g}\n"
        for s, p in zip(grid.s_points, grid.psi))
    lines = text.splitlines()
    assert lines[0] == "s,psi,phi"
    assert len(lines) == 33
    s0, psi0, phi0 = map(float, lines[1].split(","))
    assert s0 == grid.s_points[0]
    assert phi0 == pytest.approx(math.exp(-psi0), rel=1e-15)
