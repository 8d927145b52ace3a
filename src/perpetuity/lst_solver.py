"""Deterministic fixed-point solver for the solution's Laplace exponent.

State variable is psi = -log phi, where phi is the Laplace transform of
the solution law.  For an atomic multiplier law the fixed-point map is

    (T psi)(s) = sum_j (w_j / a_j) * (1 - exp(-psi(s * a_j))),

and for a law tagged uniform01, the law its atoms quantize, the family's

    (T psi)(s) = int_0^1 (1 - exp(-psi(a s))) da / a,    fixed point Exp(m);

either is iterated from psi_0(s) = m*s (the point mass at m).  Starting
there makes phi_n nondecreasing, hence psi_n nonincreasing and
convergent; psi stays nonnegative, nondecreasing, and concave in s at
every step.

One lattice: psi is defined on every node x_k = log s_min + k h of the log
lattice through the G grid points on [s_min, s_max], which ``solve`` takes
in units of 1/m, so psi_m(s) = psi_1(m s) holds node by node.  The nodes
0 <= k < G hold the grid values.  The nodes k < 0 hold the two-moment
Gamma law log1p(v m s) / v (``moments.gamma_psi``), v = Var(eta) / m^2
= E A / (1 - E A), exact for uniform01 and right to second order in s
otherwise; where E eta^2 does not exist (E A >= 1), the first-order m s.
The nodes k >= G continue psi at its last slope in log s, clamped at 0
since psi is nondecreasing; a solve whose targets reach them is flagged
in the report.

One read rule: every target, in an iteration and in ``eval_psi`` alike,
interpolates f = 1 - exp(-psi) between its four nearest nodes with cubic
Lagrange weights in log s and reads psi back from the interpolated f
(from the interpolated phi = 1 - f where f > 1/2, so that psi stays
finite where f rounds to 1), and psi(0) = 0.  One exception: where the
cubic phi overshoots past 0 (psi rising by over about 2.3 between nodes),
``eval_psi`` reads the upper bracketing node, while an iteration keeps
the interpolated f > 1.

One operator: either map is T psi = C f, f = 1 - e^-psi on the lattice
nodes and C one linear map, built once per solve and applied to real or
complex node values by one method, ``lattice_map``.  For atoms, target
s_i a_j lies log(a_j) / h nodes from s_i, so C is one correlation with a
kernel of every atom's (w_j / a_j, log a_j / h); for uniform01, C
integrates the cubic read of f node to node, one prefix sum whose error
against Exp(m) is O(h^4).  Offsets that read only nodes below s_min
(atoms' d <= -G, the family's nodes k <= -2) enter as the fold, summed
once per solve; offsets d >= G read only the continuation, whose sum is
in closed form.  An iteration costs O(G * kernel length) however far
from 1 the atoms lie, O(G) for the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import require_existence
from .distributions import FAMILY_UNIFORM01, AtomicDistribution, csv_text
from .moments import gamma_psi, gamma_variance

#: Node reads per block of the fold of far kernel offsets; bounds its
#: memory whatever the number of tiny atoms.
_FOLD_BLOCK = 2 ** 16


def _lagrange4(u):
    """Cubic Lagrange weights of the nodes -1, 0, 1, 2 at offsets u."""
    u = np.asarray(u, dtype=float)[..., None]
    return np.concatenate([-u * (u - 1.0) * (u - 2.0) / 6.0,
                           (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
                           -(u + 1.0) * u * (u - 2.0) / 2.0,
                           (u + 1.0) * u * (u - 1.0) / 6.0], axis=-1)


def _slope(x, psi):
    """Slope in log s of the continuation above s_max: the last two nodes'
    slope, clamped at 0 since psi is nondecreasing."""
    return max((psi[-1] - psi[-2]) / (x[-1] - x[-2]), 0.0)


def _axis(s_points):
    """The grid's log nodes x and its lattice step h."""
    x = np.log(s_points)
    return x, (x[-1] - x[0]) / (x.size - 1)


def _node_psi(grid, k):
    """psi on the lattice nodes k (an integer array): the Gamma law below
    s_min for k < 0, the grid values, the slope continuation for k >= G."""
    x, h = _axis(grid.s_points)
    psi, g = grid.psi, grid.psi.size
    out = np.empty(k.shape)
    lo, hi = k < 0, k >= g
    mid = ~(lo | hi)
    out[lo] = gamma_psi(np.exp(x[0] + h * k[lo]), grid.mean_target, grid.v)
    out[mid] = psi[k[mid]]
    out[hi] = psi[-1] + _slope(x, psi) * h * (k[hi] - (g - 1))
    return out


@dataclass(frozen=True)
class _Operator:
    """C for one (rho, s_points, m, v), built once per solve: ``nodes``
    are the lattice nodes whose f it reads and ``fold`` its fixed sum over
    the nodes below s_min that no iteration changes."""

    rho: AtomicDistribution
    s_points: np.ndarray
    m: float
    v: float
    nodes: np.ndarray
    fold: np.ndarray | float

    def apply(self, grid) -> np.ndarray:
        """T psi = C f for f = 1 - e^-psi on the grid's nodes."""
        x, h = _axis(grid.s_points)
        f = -np.expm1(-_node_psi(grid, self.nodes))
        return self.lattice_map(f, grid.psi[-1], _slope(x, grid.psi) * h,
                                self.fold)


@dataclass(frozen=True)
class _LatticeOperator(_Operator):
    """C for atoms: (C f)_i = sum_n kernel[n] f(i + nodes[0] + n) + fold_i
    + the sum over the offsets d >= G of up_w f(i + d)."""

    name = "atoms"
    kernel: np.ndarray
    up_d: np.ndarray          # offsets d >= G and their weights
    up_w: np.ndarray

    def lattice_map(self, f, top, sigma, fold):
        """C f from real or complex f on ``nodes``, the fold, and psi =
        top + sigma (k - G + 1) at the nodes k >= G that the offsets
        d >= G read (sigma = 0: f = 1 - e^-top there)."""
        out = np.correlate(f, self.kernel, "valid") + fold
        if self.up_d.size:
            # psi at node i + d is a_i + b_d, a_i = top + sigma i and
            # b_d = sigma (d - G + 1); 1 - e^-(a+b) = (1 - e^-a) + e^-a (1 -
            # e^-b) splits the sum into nonnegative terms
            g = out.size
            a = top + sigma * np.arange(g)
            out += (-np.expm1(-a) * self.up_w.sum() + np.exp(-a) * (
                self.up_w @ -np.expm1(-sigma * (self.up_d - (g - 1)))))
        return out


@dataclass(frozen=True)
class _FamilyOperator(_Operator):
    """C for uniform01, T psi(s) = int_0^s (1 - e^-psi) dt/t: the cubic
    read of f integrated node to node in log s, a trapezoid rule whose
    node i + d weighs h for d <= -2 and 25h/24, h/2, -h/24 for d = -1, 0,
    +1, so one prefix sum over ``nodes`` -1..G; ``fold`` sums k <= -2."""

    name = "uniform01 family"
    h: float

    def lattice_map(self, f, top, sigma, fold):
        """C f from real or complex f on ``nodes`` and the fold; no offset
        passes node G, so top and sigma do not enter."""
        return self.h * (fold + np.cumsum(f[:-2]) + (f[:-2] - f[2:]) / 24.0
                         + f[1:-1] / 2.0)


def _build_operator(grid, rho):
    s = grid.s_points
    g = s.size
    _, h = _axis(s)
    key = dict(rho=rho, s_points=s, m=grid.mean_target, v=grid.v)
    if rho.family == FAMILY_UNIFORM01:
        # nodes -N..-2 over 40 in log s, then f = m s (to e^-40 m s_min
        # relative) below: f_-N (e^-h + e^-2h + ...)
        f = -np.expm1(-_node_psi(grid, np.arange(-math.ceil(40.0 / h), -1)))
        return _FamilyOperator(**key, nodes=np.arange(-1, g + 1), h=h,
                               fold=float(f.sum() + f[0] / math.expm1(h)))
    q = np.log(rho.locations) / h
    o = np.floor(q)
    d = (o[:, None] + np.arange(-1.0, 3.0)).astype(np.intp)
    w = (rho.weights / rho.locations)[:, None] * _lagrange4(q - o)
    # from every node, d <= -G reads only nodes below s_min, d >= G only above
    low, up = d <= -g, d >= g
    near = ~(low | up)
    d_lo = int(d[near].min(initial=0))
    kernel = np.bincount(d[near] - d_lo, w[near], minlength=1)
    far_d, slot = np.unique(d[low], return_inverse=True)
    far_w = np.bincount(slot, w[low], minlength=far_d.size)
    fold = np.zeros(g)
    rows = max(1, _FOLD_BLOCK // g)
    for lo in range(0, far_d.size, rows):
        nodes = far_d[lo:lo + rows, None] + np.arange(g)
        fold += far_w[lo:lo + rows] @ -np.expm1(-_node_psi(grid, nodes))
    return _LatticeOperator(
        **key, nodes=np.arange(d_lo, d_lo + g + kernel.size - 1), fold=fold,
        kernel=kernel, up_d=d[up], up_w=w[up])


@dataclass(frozen=True)
class LstGrid:
    """Solver state: psi on a log-spaced s-grid plus convergence metadata."""

    s_points: np.ndarray
    psi: np.ndarray
    mean_target: float
    iteration_count: int
    residual: float
    converged: bool
    extrapolation_used: bool = False    # some target lies above the grid
    atom_at_zero: float | None = None
    rate_estimate: float | None = None
    v: float = 0.0            # Var(eta) / m^2 of the law below s_min
    _operator: _Operator | None = field(
        default=None, repr=False, compare=False)

    def eval_psi(self, s) -> np.ndarray:
        """psi at points s >= 0 by the read rule on the lattice nodes."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        pos = s > 0.0
        t = s[pos]
        x, h = _axis(self.s_points)
        p = (np.log(t) - x[0]) / h
        b = np.floor(p)
        w = _lagrange4(p - b)
        lat = _node_psi(self, b.astype(np.intp)[:, None] + np.arange(-1, 3))
        f = np.einsum("ij,ij->i", w, -np.expm1(-lat))
        phi = np.einsum("ij,ij->i", w, np.exp(-lat))
        # where f is near 1 its complement phi carries the digits; a cubic
        # overshoot past phi = 0 reads as the upper bracketing node
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(f <= 0.5, -np.log1p(-np.minimum(f, 0.5)),
                           -np.log(phi))
        out[pos] = np.where(phi > 0.0, val, lat[:, 2])
        return out

    def eval_lst(self, s) -> np.ndarray:
        """phi(s) = exp(-psi(s)) under the same evaluation rules."""
        return np.exp(-self.eval_psi(s))

    def error_estimate(self, s) -> np.ndarray:
        """Crude per-point size of |phi_grid - phi_fixed_point|.

        Combines the second difference of psi over 8 (the error bound of
        linear interpolation in log s; the grid is read by the cubic rule
        in f, so this is a smoothness scale, not that rule's interpolation
        error) with the final update residual, scaled by phi since
        d(e^-psi) = -phi d(psi).  The family map sums errors over (0, s),
        so there a node takes the largest second difference at or below
        it, and the bar covers the error against Exp(m) (177 times over at
        the default grid).  It leaves out the third-order error of the
        Gamma law below s_min (O(s_min^2) where the first-order law is
        used; none for uniform01).
        """
        s = np.asarray(s, dtype=float)
        x = np.log(self.s_points)
        d2 = np.abs(np.diff(self.psi, 2))
        if isinstance(self._operator, _FamilyOperator):
            d2 = np.maximum.accumulate(d2)
        interp = np.interp(np.log(np.clip(s, self.s_points[0],
                                          self.s_points[-1])),
                           x[1:-1], d2) / 8.0
        interp[s < self.s_points[0]] = 0.0
        res = self.residual if math.isfinite(self.residual) else 0.0
        return self.eval_lst(s) * (interp + res)

    def to_csv(self, stem: str) -> dict:
        """{stem}.csv s,psi,phi across the grid."""
        # phi per node by math.exp: np.exp may differ in the last bit
        phi = [math.exp(-p) for p in self.psi.tolist()]
        return {f"{stem}.csv": csv_text("s,psi,phi", self.s_points, self.psi,
                                        phi)}

    def report_obj(self) -> dict:
        return {
            "m": self.mean_target,
            "map": None if self._operator is None else self._operator.name,
            "residual": self.residual,
            "iterations": self.iteration_count,
            "atom_at_zero": self.atom_at_zero,
            "extrapolation_flag": self.extrapolation_used,
            "converged": self.converged,
            "rate_estimate": self.rate_estimate,
            "grid_points": int(self.s_points.size),
            "s_min": float(self.s_points[0]),
            "s_max": float(self.s_points[-1]),
        }


def init_grid(m: float, s_min: float, s_max: float,
              grid_points: int) -> LstGrid:
    """Grid of psi_0(s) = m*s (the point mass at m) on [s_min/m, s_max/m]."""
    if not (0.0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
    if not (m > 0.0 and s_min / m > 0.0 and math.isfinite(s_max / m)):
        raise ValueError(f"mean = {m:g} must be a positive real with s_min / "
                         f"mean and s_max / mean finite and positive")
    if not 16 <= int(grid_points) <= 2 ** 16:
        raise ValueError(f"grid needs 16 to 65536 points, not {grid_points}")
    s = np.geomspace(s_min / m, s_max / m, int(grid_points))
    return LstGrid(
        s_points=s,
        psi=m * s,
        mean_target=float(m),
        iteration_count=0,
        residual=math.inf,
        converged=False,
    )


def iterate_once(grid: LstGrid, rho: AtomicDistribution) -> LstGrid:
    """One application of the fixed-point map on the grid.

    The lattice operator is built on the first call for (grid, rho) and
    carried by the returned grid, so later iterations reuse it.
    """
    op = grid._operator
    if not (op is not None and op.rho is rho and op.m == grid.mean_target
            and op.v == grid.v and op.s_points is grid.s_points):
        require_existence(rho)
        op = _build_operator(grid, rho)
    new_psi = op.apply(grid)
    residual = float(np.max(np.abs(new_psi - grid.psi)))
    return replace(
        grid,
        psi=new_psi,
        iteration_count=grid.iteration_count + 1,
        residual=residual,
        _operator=op,
    )


def atom_at_zero(rho: AtomicDistribution) -> float:
    """Mass of the solution law at 0: c = exp(-L), where L = psi(inf) is
    the positive root of L = K (1 - exp(-L)), the fixed-point map at
    s = inf, with K = E[1/A] (so c = -W0(-K e^-K) / K).

    A uniform01-tagged law returns the family-level answer 0 (K = inf),
    the atom of the continuous law the LST solves for it.
    Newton starts at L = K, where the concave right side lies below L, so
    its iterates fall monotonically to the root; it stops when a step no
    longer lowers L, that is where L - K (1 - e^-L) is no longer positive.
    Solving for L keeps c's relative digits where c is tiny, and e^-L
    underflows to 0 where K > 745.  Near K = 1 the root is nearly double
    and Newton gains about one bit a step, within the cap of 200 steps.
    """
    require_existence(rho)
    if rho.family == FAMILY_UNIFORM01:
        return 0.0
    k = rho.mean_inverse()
    big_l = k
    for _ in range(200):
        em1 = math.expm1(-big_l)
        g = big_l + k * em1             # L - K (1 - e^-L)
        if not g > 0.0:
            break
        big_l -= g / (1.0 - k - k * em1)
    return math.exp(-big_l)


def solve(
    rho: AtomicDistribution,
    m: float,
    tol: float = 1e-13,
    max_iter: int = 100_000,
    s_min: float = 1e-3,
    s_max: float = 1e3,
    grid_points: int = 256,
) -> LstGrid:
    """Iterate to the fixed point; returns a flagged grid on non-convergence.

    Convergence criterion: sup-norm of the update below tol.  The returned
    grid records the empirically observed geometric rate (median of the
    last few residual ratios) alongside the final residual.  A non-finite
    iterate raises ValueError naming the iteration, its first bad node and
    the lattice step.  s_min and s_max are in units of 1/m (``init_grid``).
    """
    require_existence(rho)
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    if int(max_iter) < 1:
        raise ValueError("max_iter must be >= 1")
    # the law below the grid; targets pass the top iff an atom > 1
    grid = replace(init_grid(m, s_min, s_max, grid_points),
                   v=gamma_variance(rho, m),
                   extrapolation_used=bool(rho.ess_sup > 1.0))
    residuals = []
    converged = False
    # a non-finite iterate is reported below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(max_iter)):
            grid = iterate_once(grid, rho)
            if not math.isfinite(grid.residual):
                bad = int(np.argmin(np.isfinite(grid.psi)))
                raise ValueError(
                    f"LST iterate {grid.iteration_count} is not finite: "
                    f"psi = {grid.psi[bad]} at node {bad} (s = "
                    f"{grid.s_points[bad]:.6g}); the lattice step h = "
                    f"{_axis(grid.s_points)[1]:.3g} in log s may be too "
                    f"coarse: use more solver.grid_points or a narrower "
                    f"[solver.s_min, solver.s_max]")
            residuals.append(grid.residual)
            if grid.residual < tol:
                converged = True
                break
    tail = [r for r in residuals[-6:] if r > 0.0]
    r = sorted(b / a for a, b in zip(tail, tail[1:]))
    rate = (r[(len(r) - 1) // 2] + r[len(r) // 2]) / 2 if r else None
    return replace(
        grid,
        converged=converged,
        atom_at_zero=atom_at_zero(rho),
        rate_estimate=rate,
    )
