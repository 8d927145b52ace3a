"""Deterministic fixed-point solver for the solution's Laplace exponent.

State variable is psi = -log phi, where phi is the Laplace transform of
the solution law.  For an atomic multiplier law the fixed-point map is

    (T psi)(s) = sum_j (w_j / a_j) * (1 - exp(-psi(s * a_j))),

iterated from psi_0(s) = m*s (the point mass at m).  Starting there makes
phi_n nondecreasing, hence psi_n nonincreasing and convergent; psi stays
nonnegative, nondecreasing, and concave in s at every step.

One lattice: psi is defined on every node x_k = log s_min + k h of the
log lattice through the G grid points on [s_min, s_max].  The nodes
0 <= k < G hold the grid values.  The nodes k < 0 hold the cumulant
series to second order, psi(s) = m s - k2 s^2/2 with k2 = Var(eta) from
the moment recursion; its error is O(k3 s^3).  Where E eta^2 does not
exist (E A >= 1), or where k2 s_min > m would let that law fall before
s_min, they hold the first-order m s instead, with an O(k2 s^2) error.
The nodes k >= G continue psi at its last slope in log s, clamped at 0
since psi is nondecreasing; a solve whose targets reach them is flagged
in the report.

One read rule: every target, in an iteration and in ``eval_psi`` alike,
interpolates f = 1 - exp(-psi) between its four nearest nodes with cubic
Lagrange weights in log s and reads psi back from the interpolated f
(from the interpolated phi = 1 - f where f > 1/2, so that psi stays
finite where f rounds to 1).  A read whose cubic phi overshoots past 0
takes the upper bracketing node; a grid point reads its stored value, and
psi(0) = 0.

Since each target s_i a_j is s_i shifted by log(a_j) / h lattice steps,
one iteration is a single discrete correlation of f on the nodes with a
kernel built once from every atom's (w_j / a_j, log a_j / h).  Kernel
offsets below -(G - 1) read only nodes below s_min, whose values are
fixed, so their sum is folded once per solve.  Offsets above G - 1 read
only the continuation, psi[-1] + sigma (i + d - G + 1) at node i + d, so
their sum splits into one G-vector and one sum over those offsets per
iteration.  An iteration then costs O(G * kernel length) however far
from 1 the atoms lie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import require_existence
from .distributions import FAMILY_UNIFORM01, AtomicDistribution, csv_text
from .moments import eta_variance

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


def _below(t, m, k2):
    """The law below s_min: psi(t) = m t - k2 t^2 / 2 to second order in
    the cumulants (m t, to first order, where k2 = 0)."""
    return t * (m - 0.5 * k2 * t)


def _axis(s_points):
    """The grid's log nodes x and its lattice step h."""
    x = np.log(s_points)
    return x, (x[-1] - x[0]) / (x.size - 1)


def _node_psi(grid, k):
    """psi on the lattice nodes k (an integer array): the law below
    s_min for k < 0, the grid values, the slope continuation for k >= G."""
    x, h = _axis(grid.s_points)
    psi, g = grid.psi, grid.psi.size
    out = np.empty(k.shape)
    lo, hi = k < 0, k >= g
    mid = ~(lo | hi)
    out[lo] = _below(np.exp(x[0] + h * k[lo]), grid.mean_target, grid.k2)
    out[mid] = psi[k[mid]]
    out[hi] = psi[-1] + _slope(x, psi) * h * (k[hi] - (g - 1))
    return out


@dataclass(frozen=True)
class _LatticeOperator:
    """The fixed-point map for one (grid, rho, m, k2), built once per solve.

    new_psi_i = sum_n kernel[n] f(i + d_lo + n) + far_i + up_i, with
    f = 1 - e^-psi on the lattice nodes, ``far`` the fixed sum over the
    kernel offsets below -(G - 1) and ``up`` the sum over those above G - 1.
    """

    rho: AtomicDistribution
    s_points: np.ndarray
    m: float
    k2: float
    kernel: np.ndarray
    d_lo: int                 # lattice offset of kernel[0]
    far: np.ndarray
    up_d: np.ndarray          # offsets d >= G and their weights
    up_w: np.ndarray
    extrapolates: bool        # some target lies above s_max

    def apply(self, grid) -> np.ndarray:
        g = grid.psi.size
        nodes = np.arange(self.d_lo, self.d_lo + g + self.kernel.size - 1)
        f = -np.expm1(-_node_psi(grid, nodes))
        out = np.correlate(f, self.kernel, "valid") + self.far
        if self.up_d.size:
            # psi at node i + d is a_i + b_d, a_i = psi[-1] + sigma i and
            # b_d = sigma (d - G + 1); 1 - e^-(a+b) = (1 - e^-a) + e^-a (1 -
            # e^-b) splits the sum into nonnegative terms
            x, h = _axis(grid.s_points)
            sigma = _slope(x, grid.psi) * h
            a = grid.psi[-1] + sigma * np.arange(g)
            out += (-np.expm1(-a) * self.up_w.sum() + np.exp(-a) * (
                self.up_w @ -np.expm1(-sigma * (self.up_d - (g - 1)))))
        return out


def _build_operator(grid, rho) -> _LatticeOperator:
    s = grid.s_points
    g = s.size
    _, h = _axis(s)
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
    far = np.zeros(g)
    rows = max(1, _FOLD_BLOCK // g)
    for lo in range(0, far_d.size, rows):
        nodes = far_d[lo:lo + rows, None] + np.arange(g)
        far += far_w[lo:lo + rows] @ -np.expm1(-_node_psi(grid, nodes))
    return _LatticeOperator(
        rho=rho, s_points=s, m=grid.mean_target, k2=grid.k2, kernel=kernel,
        d_lo=d_lo, far=far, up_d=d[up], up_w=w[up],
        extrapolates=bool(rho.locations[-1] * s[-1] > s[-1]))


@dataclass(frozen=True)
class LstGrid:
    """Solver state: psi on a log-spaced s-grid plus convergence metadata."""

    s_points: np.ndarray
    psi: np.ndarray
    mean_target: float
    iteration_count: int
    residual: float
    converged: bool
    extrapolation_used: bool
    atom_at_zero: float | None = None
    rate_estimate: float | None = None
    k2: float = 0.0           # second cumulant of the law below s_min
    _operator: _LatticeOperator | None = field(
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
        val = np.where(phi > 0.0, val, lat[:, 2])
        k = np.minimum(np.searchsorted(self.s_points, t),
                       self.s_points.size - 1)
        hit = self.s_points[k] == t
        val[hit] = self.psi[k[hit]]
        out[pos] = val
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
        d(e^-psi) = -phi d(psi).  It leaves out the quantization of rho
        and the truncated cumulant series below s_min (O(k3 s_min^3) at
        second order, O(k2 s_min^2) where the first-order law is used), so
        it can undersize the error against a continuous law's closed form.
        """
        s = np.asarray(s, dtype=float)
        x = np.log(self.s_points)
        d2 = np.abs(np.diff(self.psi, 2))
        if d2.size == 0:
            interp = np.zeros(s.shape)
        else:
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


def init_grid(
    m: float,
    s_min: float = 1e-3,
    s_max: float = 1e3,
    grid_points: int = 256,
) -> LstGrid:
    """Iteration-zero grid psi_0(s) = m*s (the point mass at m)."""
    if not (0.0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
    if not (m > 0.0 and math.isfinite(m * s_max)):
        raise ValueError(f"mean = {m:g} must be a positive real small enough "
                         f"that mean * s_max is finite")
    if int(grid_points) < 16:
        raise ValueError("grid needs at least 16 points")
    s = np.geomspace(s_min, s_max, int(grid_points))
    return LstGrid(
        s_points=s,
        psi=m * s,
        mean_target=float(m),
        iteration_count=0,
        residual=math.inf,
        converged=False,
        extrapolation_used=False,
    )


def iterate_once(grid: LstGrid, rho: AtomicDistribution) -> LstGrid:
    """One application of the fixed-point map on the grid.

    The lattice operator is built on the first call for (grid, rho) and
    carried by the returned grid, so later iterations reuse it.
    """
    op = grid._operator
    if not (op is not None and op.rho is rho and op.m == grid.mean_target
            and op.k2 == grid.k2 and op.s_points is grid.s_points):
        require_existence(rho)
        op = _build_operator(grid, rho)
    new_psi = op.apply(grid)
    residual = float(np.max(np.abs(new_psi - grid.psi)))
    return replace(
        grid,
        psi=new_psi,
        iteration_count=grid.iteration_count + 1,
        residual=residual,
        extrapolation_used=grid.extrapolation_used or op.extrapolates,
        _operator=op,
    )


def atom_at_zero(rho: AtomicDistribution) -> float:
    """Mass of the solution law at 0: smallest root in [0, 1) of
    c = exp(-K (1 - c)) with K = E[1/A].

    A uniform01-tagged law returns the family-level answer 0 (K = inf).
    For atomic K the existence gate forces K > 1 (Jensen), the root is
    unique in (0, 1/K), and safeguarded Newton from the midpoint converges;
    the bracket endpoint f(1/K) > 0 is rigorous since K - 1 > log K.
    """
    require_existence(rho)
    if rho.family == FAMILY_UNIFORM01:
        return 0.0
    k = rho.mean_inverse()
    if k <= 1.0:
        raise ValueError(f"E[1/A] = {k:.12g} <= 1 contradicts E log A < 0")

    lo, hi = 0.0, 1.0 / k
    c = 0.5 * (lo + hi)
    for _ in range(200):
        e = math.exp(-k * (1.0 - c))
        fc = c - e                     # f(c), and f'(c) = 1 - k e
        if abs(fc) < 1e-15:
            break
        lo, hi = (c, hi) if fc < 0.0 else (lo, c)
        slope = 1.0 - k * e
        nxt = c - fc / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not (lo < nxt < hi):  # Newton left the bracket: bisect
            nxt = 0.5 * (lo + hi)
        if nxt == c:
            break
        c = nxt
    return c


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
    the lattice step.
    """
    require_existence(rho)
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    if int(max_iter) < 1:
        raise ValueError("max_iter must be >= 1")
    grid = init_grid(m, s_min=s_min, s_max=s_max, grid_points=grid_points)
    # the second-order law below s_min where Var(eta) exists and the law
    # stays increasing up to s_min; the first-order m s elsewhere
    k2 = eta_variance(rho, m)
    grid = replace(grid, k2=k2 if k2 * s_min <= m else 0.0)
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
