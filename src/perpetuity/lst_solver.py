"""Deterministic fixed-point solver for the solution's Laplace exponent.

State variable is psi = -log phi, where phi is the Laplace transform of
the solution law.  For an atomic multiplier law the fixed-point map is

    (T psi)(s) = sum_j (w_j / a_j) * (1 - exp(-psi(s * a_j))),

iterated from psi_0(s) = m*s (the point mass at m).  Starting there makes
phi_n nondecreasing, hence psi_n nonincreasing and convergent; psi stays
nonnegative, nondecreasing, and concave in s at every step.

Grid scheme: G log-spaced points on [s_min, s_max]; off-grid evaluation
interpolates psi linearly in log s; below s_min the exact first-order law
psi(s) = m*s is used; above s_max a constant-slope continuation in log s
applies and is flagged in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import require_existence
from .distributions import FAMILY_UNIFORM01, AtomicDistribution, csv_text


def _eval_psi(s_points, psi, m, t):
    """Evaluate the grid's psi at arbitrary points t > 0.

    Returns (values, used_extrapolation).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    below = t < s_points[0]
    above = t > s_points[-1]
    mid = ~(below | above)
    out[below] = m * t[below]
    x = np.log(s_points)
    if mid.any():
        out[mid] = np.interp(np.log(t[mid]), x, psi)
    used_extrapolation = bool(above.any())
    if used_extrapolation:
        slope = (psi[-1] - psi[-2]) / (x[-1] - x[-2])
        out[above] = psi[-1] + slope * (np.log(t[above]) - x[-1])
    return out, used_extrapolation


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

    def eval_psi(self, s) -> np.ndarray:
        vals, _ = _eval_psi(self.s_points, self.psi, self.mean_target,
                            np.asarray(s, dtype=float))
        return vals

    def eval_lst(self, s) -> np.ndarray:
        """phi(s) = exp(-psi(s)) under the same evaluation rules."""
        return np.exp(-self.eval_psi(s))

    def error_estimate(self, s) -> np.ndarray:
        """Crude per-point bound on |phi_grid - phi_fixed_point|.

        Combines the local linear-in-log-s interpolation error (second
        difference of psi over 8) with the final update residual, scaled
        by phi since d(e^-psi) = -phi d(psi).
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
        return {f"{stem}.csv": csv_text("s,psi,phi", "%.17g,%.17g,%.17g",
                                        self.s_points, self.psi, phi)}

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
    """One application of the fixed-point map on the grid."""
    require_existence(rho)
    targets = np.multiply.outer(rho.locations, grid.s_points)  # (J, G)
    vals, extra = _eval_psi(grid.s_points, grid.psi, grid.mean_target, targets)
    coeff = rho.weights / rho.locations
    new_psi = coeff @ (1.0 - np.exp(-vals))
    residual = float(np.max(np.abs(new_psi - grid.psi)))
    return replace(
        grid,
        psi=new_psi,
        iteration_count=grid.iteration_count + 1,
        residual=residual,
        extrapolation_used=grid.extrapolation_used or extra,
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
    last few residual ratios) alongside the final residual.
    """
    require_existence(rho)
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    grid = init_grid(m, s_min=s_min, s_max=s_max, grid_points=grid_points)
    residuals = []
    converged = False
    for _ in range(int(max_iter)):
        grid = iterate_once(grid, rho)
        residuals.append(grid.residual)
        if grid.residual < tol:
            converged = True
            break
    rate = None
    tail = [r for r in residuals[-6:] if r > 0.0]
    if len(tail) >= 2:
        ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0.0]
        if ratios:
            rate = float(np.median(ratios))
    return replace(
        grid,
        converged=converged,
        atom_at_zero=atom_at_zero(rho),
        rate_estimate=rate,
    )
