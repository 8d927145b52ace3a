"""Step response kernels and their duality with atomic multiplier laws.

A response kernel h is a nonincreasing right-continuous step function on
(0, inf) together with a flow intensity lambda.  The dual atomic law has
one atom per step: location = step value a, weight = lambda * a * duration.
Conversely an atomic law (a_j, w_j) maps to steps of value a_j and duration
w_j / (lambda * a_j), laid out in descending value order.  Normalization
lambda * int h = 1 is exactly the statement that the dual weights sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import AtomicDistribution, csv_text, json_text


@dataclass(frozen=True, eq=False)
class ResponseFunction:
    """Step kernel: value v_k on an interval of length d_k, descending v."""

    values: np.ndarray
    durations: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        d = np.atleast_1d(np.asarray(self.durations, dtype=float))
        if v.shape != d.shape or v.ndim != 1:
            raise ValueError("values and durations must be 1-d of equal length")
        if v.size and not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))):
            raise ValueError("step values and durations must be finite")
        if np.any(v <= 0.0):
            raise ValueError("step values must be strictly positive")
        if np.any(d <= 0.0):
            raise ValueError("step durations must be strictly positive")
        if v.size > 1 and np.any(np.diff(v) >= 0.0):
            raise ValueError("step values must be strictly decreasing")
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("lambda must be a positive real")
        v.setflags(write=False)
        d.setflags(write=False)
        # frozen: the normalized fields go in through object.__setattr__
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "lam", float(self.lam))

    def __repr__(self):
        steps = ", ".join(
            f"({v:.6g}, {d:.6g})" for v, d in zip(self.values, self.durations)
        )
        return f"ResponseFunction([{steps}], lam={self.lam:.6g})"

    @property
    def n_steps(self) -> int:
        return self.values.size

    @property
    def support_end(self) -> float:
        return float(self.durations.sum())

    # ------------------------------------------------------------------
    # integrals

    def integral(self) -> float:
        """lambda * int h du; equals 1 for duals of probability laws."""
        return self.lam * float(np.dot(self.values, self.durations))

    def log_integral(self) -> float:
        """lambda * int h log h du; equals E log A for the dual law."""
        return self.lam * float(
            np.dot(self.values * np.log(self.values), self.durations)
        )

    def power_integral(self, q: float) -> float:
        """lambda * int h^q du; equals E A^(q-1) for the dual law."""
        return self.lam * float(np.dot(self.values ** float(q), self.durations))

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, u) -> np.ndarray:
        """h(u): step value on [t_{k-1}, t_k), zero beyond the support."""
        u = np.asarray(u, dtype=float)
        ends = np.cumsum(self.durations)
        idx = np.searchsorted(ends, u, side="right")
        out = np.zeros(np.shape(u))
        inside = idx < self.values.size
        out[inside] = self.values[idx[inside]]
        out[u < 0.0] = 0.0
        return out

    # ------------------------------------------------------------------
    # serialization

    def to_csv(self, stem: str) -> dict:
        """{stem}.csv value,duration plus sidecar {stem}.json {lambda}, and
        {stem}_curve.csv: plot-ready u,h points tracing the step boundaries."""
        # boundaries t_0 = 0 < t_1 < ... < t_n; the curve visits
        # (t_0, v_1), (t_1, v_1), (t_1, v_2), ..., (t_n, v_n), (t_n, 0)
        bounds = np.concatenate([[0.0], np.cumsum(self.durations)])
        u = np.repeat(bounds, 2)[1:]
        h = np.append(np.repeat(self.values, 2), 0.0)
        return {
            f"{stem}.csv": csv_text("value,duration", "%.17g,%.17g",
                                    self.values, self.durations),
            f"{stem}.json": json_text({"lambda": self.lam}),
            f"{stem}_curve.csv": csv_text("u,h", "%.17g,%.17g", u, h),
        }


def response_from_rho(rho: AtomicDistribution, lam: float = 1.0) -> ResponseFunction:
    """Dual step kernel of an atomic law: value a_j, duration w_j/(lam a_j)."""
    values = rho.locations[::-1]
    durations = (rho.weights / (lam * rho.locations))[::-1]
    return ResponseFunction(values, durations, lam=lam)


def rho_from_response(h: ResponseFunction) -> AtomicDistribution:
    """Dual atomic law of a step kernel: one atom lam*v*d at each value v.

    Rejects kernels whose dual weights do not sum to 1 within 1e-9.
    """
    if h.n_steps == 0:
        raise ValueError("cannot build an atomic law from an empty kernel")
    return AtomicDistribution(h.values, h.lam * h.values * h.durations)
