"""Deterministic fixed-point solver for the solution's Laplace exponent.

State variable is psi = -log phi, where phi is the Laplace transform of
the solution law.  For an atomic multiplier law the fixed-point map is

    (T psi)(s) = sum_j (w_j / a_j) * (1 - exp(-psi(s * a_j))),

iterated from psi_0(s) = m*s (the point mass at m).  Starting there makes
phi_n nondecreasing, hence psi_n nonincreasing and convergent; psi stays
nonnegative, nondecreasing, and concave in s at every step.

Grid scheme: G log-spaced points on [s_min, s_max], read on the log
lattice x_k = log s_min + k h.  Between nodes, evaluation interpolates
f = 1 - exp(-psi) with 4-point (cubic) Lagrange weights in log s and reads
psi back from the interpolated f (from the interpolated phi = 1 - f where
f > 1/2, so that psi stays finite where f rounds to 1).  Below s_min psi
is read from its cumulant series to second order, psi(s) = m s - k2 s^2/2
with k2 = Var(eta) from the moment recursion; its error is O(k3 s^3).
Where E eta^2 does not exist (E A >= 1), or where k2 s_min > m would let
that law fall before s_min, the first-order m s is used instead, with an
O(k2 s^2) error.  The same law gives the stencil's lattice nodes below
s_min.  Above s_max a constant-slope continuation in log s applies, gives
the stencil's nodes above s_max, and is flagged in the report.

Since each target s_i a_j is s_i shifted by log(a_j) / h lattice steps,
one iteration is a single discrete correlation of f with a kernel built
once from (w_j / a_j, log a_j), plus boundary terms for targets outside
[s_min, s_max]: the values below s_min are fixed and are summed once per
solve; the continuation above s_max is summed in closed form over the
atoms above 1.  After that set-up an iteration costs O(G * kernel length)
<= O(G^2) for the correlation and O(G + #atoms above 1) for the rest,
whatever J is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import require_existence
from .distributions import FAMILY_UNIFORM01, AtomicDistribution, csv_text
from .moments import eta_variance

#: Lattice nodes carried beyond each end of the grid: the cubic stencil of
#: a target in [s_min, s_max] reaches two nodes past either end.
_PAD = 2

#: Targets per block while the operator is built; bounds its memory.
_BLOCK_TARGETS = 2 ** 18


def _lagrange4(u):
    """Cubic Lagrange weights of the nodes -1, 0, 1, 2 at offsets u."""
    u = np.asarray(u, dtype=float)[..., None]
    return np.concatenate([-u * (u - 1.0) * (u - 2.0) / 6.0,
                           (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
                           -(u + 1.0) * u * (u - 2.0) / 2.0,
                           (u + 1.0) * u * (u - 1.0) / 6.0], axis=-1)


def _slope(x, psi):
    """Slope in log s of the continuation above s_max."""
    return (psi[-1] - psi[-2]) / (x[-1] - x[-2])


def _below(t, m, k2):
    """The law below s_min: psi(t) = m t - k2 t^2 / 2 to second order in
    the cumulants (m t, to first order, where k2 = 0)."""
    return t * (m - 0.5 * k2 * t)


def _lattice(x, h, psi, m, k2):
    """psi on the lattice nodes -_PAD .. G-1+_PAD: the law below s_min,
    the grid values, and the slope continuation above s_max."""
    k = np.arange(1.0, _PAD + 1.0)
    return np.concatenate((_below(np.exp(x[0] - h * k[::-1]), m, k2), psi,
                           psi[-1] + _slope(x, psi) * h * k))


def _eval_psi(s_points, psi, m, k2, t):
    """Evaluate the grid's psi at arbitrary points t > 0.

    Returns (values, used_extrapolation).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    below = t < s_points[0]
    above = t > s_points[-1]
    mid = ~(below | above)
    out[below] = _below(t[below], m, k2)
    x = np.log(s_points)
    if mid.any():
        out[mid] = _read_grid(s_points, x, psi, m, k2, t[mid])
    used_extrapolation = bool(above.any())
    if used_extrapolation:
        out[above] = psi[-1] + _slope(x, psi) * (np.log(t[above]) - x[-1])
    return out, used_extrapolation


def _read_grid(s_points, x, psi, m, k2, t):
    """psi at points t in [s_min, s_max] by the cubic-in-f rule; stored
    values on exact node hits."""
    g = s_points.size
    h = (x[-1] - x[0]) / (g - 1)
    lat = _lattice(x, h, psi, m, k2)
    p = (np.log(t) - x[0]) / h
    b = np.clip(np.floor(p), 0, g - 2).astype(np.intp)
    w = _lagrange4(p - b)
    nodes = b[:, None] + np.arange(_PAD - 1, _PAD + 3)
    f = np.einsum("ij,ij->i", w, -np.expm1(-lat)[nodes])
    phi = np.einsum("ij,ij->i", w, np.exp(-lat)[nodes])
    # where f is near 1 its complement phi carries the digits; a cubic
    # overshoot past phi = 0 reads as the upper bracketing node
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(f <= 0.5, -np.log1p(-np.minimum(f, 0.5)),
                       -np.log(phi))
    val = np.where(phi > 0.0, val, psi[b + 1])
    k = np.minimum(np.searchsorted(s_points, t), g - 1)
    hit = s_points[k] == t
    val[hit] = psi[k[hit]]
    return val


def _count_below(a, s, bound, strict):
    """Per atom a_j, the number of nodes with a_j * s_i < bound (strict)
    or <= bound: the same float products the evaluation rules compare."""
    g = s.size
    n = np.searchsorted(s, bound / a, side="left" if strict else "right")

    def inside(i):
        t = a * s[np.clip(i, 0, g - 1)]
        return t < bound if strict else t <= bound

    # rounding of bound / a can put the count one node off either way
    n = n - ((n > 0) & ~inside(n - 1))
    return n + ((n < g) & inside(n))


@dataclass(frozen=True)
class _LatticeOperator:
    """The fixed-point map for one (grid, rho, m), built once per solve.

    new_psi = correlate(f on the lattice, kernel) + below + edge @ f[edge
    nodes] + above, where ``below`` is the contribution of targets under
    s_min by the law there, ``edge`` undoes the lattice reads of targets
    outside [s_min, s_max], and ``above`` sums the slope continuation for
    targets over s_max.
    """

    rho: AtomicDistribution
    s_points: np.ndarray
    m: float
    k2: float
    x: np.ndarray
    h: float
    kernel: np.ndarray
    lat_span: tuple           # (first pad index, first lat index, count)
    below: np.ndarray
    edge_nodes: np.ndarray
    edge: np.ndarray
    up_log_c: np.ndarray      # log(w_j / a_j) of atoms with targets > s_max
    up_log_a: np.ndarray
    up_start: np.ndarray      # per node: first such atom above s_max there
    up_c: np.ndarray          # per node: sum of their w_j / a_j

    @property
    def extrapolates(self) -> bool:
        return self.up_log_a.size > 0

    def apply(self, psi: np.ndarray) -> np.ndarray:
        x = self.x
        f = -np.expm1(-_lattice(x, self.h, psi, self.m, self.k2))
        pad = np.zeros(psi.size + self.kernel.size - 1)
        p0, l0, n = self.lat_span
        pad[p0:p0 + n] = f[l0:l0 + n]
        new = np.correlate(pad, self.kernel, "valid")
        new += self.below + self.edge @ f[self.edge_nodes]
        if self.extrapolates:
            sigma = _slope(x, psi)
            log_sum = np.append(np.logaddexp.accumulate(
                (self.up_log_c - sigma * self.up_log_a)[::-1])[::-1], -np.inf)
            new += self.up_c - np.exp(-psi[-1] - sigma * (x - x[-1])
                                      + log_sum[self.up_start])
        return new


def _build_operator(s, m, k2, rho) -> _LatticeOperator:
    g = s.size
    a = rho.locations
    c = rho.weights / a
    x = np.log(s)
    h = (x[-1] - x[0]) / (g - 1)
    n_lo = _count_below(a, s, s[0], strict=True)       # targets < s_min
    n_in = _count_below(a, s, s[-1], strict=False)     # targets <= s_max
    # atoms with a target inside the grid enter the kernel; the others are
    # wholly below s_min (only in ``below``) or above s_max (in ``above``)
    inside = np.flatnonzero((n_lo < g) & (n_in > 0))
    shift = np.floor(np.log(a[inside]) / h).astype(np.intp)
    d_min = int(shift.min()) - 1 if inside.size else 0
    d_max = int(shift.max()) + 2 if inside.size else 0
    kernel = np.zeros(d_max - d_min + 1)
    below = np.zeros(g)
    edge_nodes = np.r_[0:2 * _PAD + 1, g - 1:g + 2 * _PAD]
    edge = np.zeros(g * edge_nodes.size)
    # below-s_min targets sit in the last 2*_PAD+2 rows under n_lo, those
    # above s_max in the first 2*_PAD+2 rows from n_in: beyond them their
    # stencils read no lattice node
    near = np.arange(2 * _PAD + 2)
    rows_of = np.concatenate((-1 - near, near))
    step = max(1, _BLOCK_TARGETS // g)
    for j0 in range(0, a.size, step):
        nb = n_lo[j0:j0 + step]
        jj = np.repeat(np.arange(j0, j0 + nb.size), nb)
        ii = np.arange(jj.size) - np.repeat(np.cumsum(nb) - nb, nb)
        # in place: at most four pair-sized arrays at a time
        t = a[jj]
        t *= s[ii]
        u = np.multiply(t, 0.5 * k2)
        u -= m
        t *= u                                  # -_below(t, m, k2)
        np.expm1(t, out=t)
        t *= np.take(c, jj, out=u)
        below -= np.bincount(ii, t, g)
        sel = slice(*np.searchsorted(inside, [j0, j0 + step]))
        ja, o = inside[sel], shift[sel]
        cw = c[ja, None] * _lagrange4(np.log(a[ja]) / h - o)
        d = o[:, None] + np.arange(-1, 3)
        kernel += np.bincount((d - d_min).ravel(), cw.ravel(), kernel.size)
        rows = np.where(rows_of < 0, n_lo[ja, None], n_in[ja, None]) + rows_of
        node = rows[:, :, None] + d[:, None, :] + _PAD       # lattice index
        keep = ((rows >= 0) & (rows < g))[:, :, None] & (node >= 0) & (
            node <= g - 1 + 2 * _PAD)
        col = np.searchsorted(edge_nodes, node[keep])
        rr = np.broadcast_to(rows[:, :, None], node.shape)[keep]
        edge -= np.bincount(rr * edge_nodes.size + col,
                            np.broadcast_to(cw[:, None, :], node.shape)[keep],
                            edge.size)
    # the lattice values the correlation reads: nodes -_PAD .. g-1+_PAD
    # within reach of the kernel offsets [d_min, d_max]
    lo = max(-_PAD, d_min)
    hi = min(g - 1 + _PAD, g - 1 + d_max)
    lat_span = (lo - d_min, lo + _PAD, max(0, hi - lo + 1))
    # atoms above s_max at node i: those with n_in <= i, a suffix of the
    # sorted atoms since the products a_j * s_i are monotone in a_j
    up = n_in < g
    n_up = n_in[up]
    up_start = np.searchsorted(-n_up, -np.arange(g), side="left")
    up_c = np.append(np.cumsum(c[up][::-1])[::-1], 0.0)[up_start]
    return _LatticeOperator(
        rho=rho, s_points=s, m=m, k2=k2, x=x, h=h, kernel=kernel,
        lat_span=lat_span,
        below=below, edge_nodes=edge_nodes,
        edge=edge.reshape(g, edge_nodes.size),
        up_log_c=np.log(c[up]), up_log_a=np.log(a[up]), up_start=up_start,
        up_c=up_c)


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
        vals, _ = _eval_psi(self.s_points, self.psi, self.mean_target,
                            self.k2, np.asarray(s, dtype=float))
        return vals

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
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mean target m must be a positive real")
    if not (0.0 < s_min < s_max):
        raise ValueError("need 0 < s_min < s_max")
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
        op = _build_operator(grid.s_points, grid.mean_target, grid.k2, rho)
    new_psi = op.apply(grid.psi)
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

    def f(c):
        return c - math.exp(-k * (1.0 - c))

    def fp(c):
        return 1.0 - k * math.exp(-k * (1.0 - c))

    lo, hi = 0.0, 1.0 / k
    c = 0.5 * (lo + hi)
    for _ in range(200):
        fc = f(c)
        if abs(fc) < 1e-15:
            break
        if fc < 0.0:
            lo = c
        else:
            hi = c
        slope = fp(c)
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
    iterate raises ValueError naming the iteration and its first bad node.
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
                    f"{grid.s_points[bad]:.6g}); a larger s_max "
                    f"(solver.s_max) may help")
            residuals.append(grid.residual)
            if grid.residual < tol:
                converged = True
                break
    rate = None
    tail = [r for r in residuals[-6:] if r > 0.0]
    if len(tail) >= 2:
        ratios = sorted(b / a for a, b in zip(tail, tail[1:]) if a > 0.0)
        if ratios:
            mid = len(ratios) // 2
            rate = (ratios[mid] if len(ratios) % 2
                    else (ratios[mid - 1] + ratios[mid]) / 2)
    return replace(
        grid,
        converged=converged,
        atom_at_zero=atom_at_zero(rho),
        rate_estimate=rate,
    )
