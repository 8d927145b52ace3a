"""Atomic and empirical laws on (0, inf) and their basic functionals.

The atomic law rho of the multiplier A is the single user-facing input of
the whole pipeline; everything else (response kernels, solver grids, Monte
Carlo samples) is derived from it.  Laws are value objects: construction
canonicalizes and validates, methods are pure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Family tag for midpoint quantizations of the uniform law on (0, 1].
FAMILY_UNIFORM01 = "uniform01"

#: Marker used where an integer moment order has no finite crossing.
UNBOUNDED = "unbounded"

_WEIGHT_SUM_TOL = 1e-9


def uniform01_mellin(p: float) -> float:
    """Closed-form E A^p = 1/(p+1) for the exact uniform(0, 1] family."""
    if p <= -1.0:
        raise ValueError("uniform01 Mellin function diverges for p <= -1")
    return 1.0 / (p + 1.0)


def uniform01_log_moment() -> float:
    """Closed-form E log A = -1 for the exact uniform(0, 1] family."""
    return -1.0


class AtomicDistribution:
    """Finitely many weighted atoms on (0, inf), weights summing to one.

    Canonical form: locations strictly increasing, exact duplicate
    locations merged, weights renormalized when their sum is within 1e-9
    of one (larger deviations are rejected).  ``family`` records the
    continuous family a quantized law came from, so family-level answers
    (exact Mellin function, infinite K) can ride alongside atomic ones.
    """

    __slots__ = ("locations", "weights", "family")

    def __init__(self, locations, weights, family: str | None = None):
        loc = np.atleast_1d(np.asarray(locations, dtype=float))
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if loc.size == 0:
            raise ValueError("atom list must be non-empty")
        if loc.shape != w.shape or loc.ndim != 1:
            raise ValueError("locations and weights must be 1-d of equal length")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(w))):
            raise ValueError("atom locations and weights must be finite")
        if np.any(loc <= 0.0):
            raise ValueError("atom locations must be strictly positive (no mass at 0)")
        if np.any(w <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        order = np.argsort(loc, kind="stable")
        loc, w = loc[order], w[order]
        keep = np.empty(loc.size, dtype=bool)
        keep[0] = True
        keep[1:] = loc[1:] != loc[:-1]
        if not keep.all():
            merged = np.zeros(int(keep.sum()))
            np.add.at(merged, np.cumsum(keep) - 1, w)
            loc, w = loc[keep], merged
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"atom weights sum to {total:.12g}; must be within 1e-9 of 1"
            )
        w = w / total
        loc.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "family", family)

    def __setattr__(self, name, value):  # immutable value object
        raise AttributeError("AtomicDistribution is immutable")

    def __repr__(self):
        pairs = ", ".join(
            f"({a:.6g}, {w:.6g})" for a, w in zip(self.locations, self.weights)
        )
        fam = f", family={self.family!r}" if self.family else ""
        return f"AtomicDistribution([{pairs}]{fam})"

    # ------------------------------------------------------------------
    # functionals

    def mean(self) -> float:
        return float(np.dot(self.weights, self.locations))

    def mellin(self, p: float) -> float:
        """E A^p = sum_j w_j a_j^p; log-convex in p with value 1 at p = 0."""
        return float(np.dot(self.weights, self.locations ** float(p)))

    def log_moment(self) -> float:
        """E log A; the existence gate tests this against 0."""
        return float(np.dot(self.weights, np.log(self.locations)))

    def mean_inverse(self) -> float:
        """K = E[1/A], the compound-Poisson rate scale."""
        return float(np.dot(self.weights, 1.0 / self.locations))

    @property
    def ess_sup(self) -> float:
        return float(self.locations[-1])

    @property
    def min_location(self) -> float:
        return float(self.locations[0])

    def size_bias(self) -> "AtomicDistribution":
        """Size-biased law: weights proportional to w_j * a_j."""
        w = self.weights * self.locations
        return AtomicDistribution(self.locations, w / w.sum())

    # ------------------------------------------------------------------
    # sampling

    def quantile(self, u) -> np.ndarray:
        """Generalized inverse CDF evaluated at u in [0, 1)."""
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0  # guard rounding at the top
        idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
        return self.locations[np.minimum(idx, self.locations.size - 1)]

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.quantile(rng.random(int(n)))

    # ------------------------------------------------------------------
    # identity and serialization

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.locations.tobytes())
        h.update(self.weights.tobytes())
        h.update((self.family or "").encode())
        return h.hexdigest()[:12]

    def to_json_obj(self) -> dict:
        return {
            "atoms": [
                {"location": float(a), "weight": float(w)}
                for a, w in zip(self.locations, self.weights)
            ],
            "family": self.family,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AtomicDistribution":
        atoms = obj["atoms"]
        return cls(
            [a["location"] for a in atoms],
            [a["weight"] for a in atoms],
            family=obj.get("family"),
        )

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write("location,weight\n")
            for a, w in zip(self.locations, self.weights):
                fh.write(f"{a:.17g},{w:.17g}\n")

    @classmethod
    def from_csv(cls, path, family: str | None = None) -> "AtomicDistribution":
        path = Path(path)
        locs, ws = [], []
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["location", "weight"]:
                raise ValueError(
                    f"{path}: expected header 'location,weight', "
                    f"got {reader.fieldnames}"
                )
            for lineno, row in enumerate(reader, start=2):
                try:
                    locs.append(float(row["location"]))
                    ws.append(float(row["weight"]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad row {row}") from exc
        return cls(locs, ws, family=family)


def validate(atoms, family: str | None = None) -> AtomicDistribution:
    """Canonicalize an atom list (or pass an existing law through)."""
    if isinstance(atoms, AtomicDistribution):
        return atoms
    pairs = list(atoms)
    return AtomicDistribution(
        [p[0] for p in pairs], [p[1] for p in pairs], family=family
    )


def point_mass(a: float) -> AtomicDistribution:
    return AtomicDistribution([a], [1.0])


def quantize_family(family: str, n: int | None = None, quantiles=None) -> AtomicDistribution:
    """Atomic stand-in for a continuous multiplier law.

    ``uniform01``: n midpoint atoms (2k-1)/(2n), weight 1/n each.  The
    atomic Mellin sum then converges to 1/(p+1) with midpoint-rule error.
    ``user_quantile_table``: one atom of weight 1/len(table) per quantile
    value; the table must be positive and nondecreasing (ties merge).
    """
    if family == FAMILY_UNIFORM01:
        if n is None or int(n) < 1:
            raise ValueError("uniform01 quantization needs n >= 1")
        n = int(n)
        k = np.arange(1, n + 1, dtype=float)
        return AtomicDistribution(
            (2.0 * k - 1.0) / (2.0 * n), np.full(n, 1.0 / n), family=FAMILY_UNIFORM01
        )
    if family == "user_quantile_table":
        if quantiles is None:
            raise ValueError("user_quantile_table needs a quantile array")
        q = np.asarray(quantiles, dtype=float)
        if q.size == 0:
            raise ValueError("quantile table must be non-empty")
        if np.any(q <= 0.0):
            raise ValueError("quantile values must be strictly positive")
        if np.any(np.diff(q) < 0.0):
            raise ValueError("quantile values must be nondecreasing")
        return AtomicDistribution(q, np.full(q.size, 1.0 / q.size))
    raise ValueError(f"unknown family {family!r}")


class EmpiricalSample:
    """Seeded array of nonnegative reals standing in for a law.

    ``seed`` and ``provenance`` identify the generating pipeline; rerunning
    the same pipeline with the same seed reproduces the identical array.
    """

    __slots__ = ("values", "seed", "provenance")

    def __init__(self, values, seed: int, provenance: str):
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if v.size == 0:
            raise ValueError("empirical sample must be non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("empirical sample must be finite")
        if np.any(v < 0.0):
            raise ValueError("empirical sample must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "provenance", str(provenance))

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalSample is immutable")

    def __len__(self):
        return self.values.size

    def mean(self) -> float:
        return float(self.values.mean())

    def resample(self, n_out: int, seed: int) -> "EmpiricalSample":
        """Plain bootstrap resample with replacement."""
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, self.values.size, size=int(n_out))
        return EmpiricalSample(
            self.values[idx], seed, f"resample({self.provenance})"
        )

    def size_bias_resample(self, n_out: int, seed: int) -> "EmpiricalSample":
        """Resample with probability proportional to value.

        Zero entries are never selected; all-zero samples are rejected
        since the size-biased law is then undefined.
        """
        total = float(self.values.sum())
        if total <= 0.0:
            raise ValueError("size-bias resample undefined for an all-zero sample")
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.values.size, size=int(n_out), replace=True,
                         p=self.values / total)
        return EmpiricalSample(
            self.values[idx], seed, f"size-bias({self.provenance})"
        )

    def to_csv(self, path) -> None:
        """Single-column CSV plus a sidecar JSON {seed, provenance, n}."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write("value\n")
            for v in self.values:
                fh.write(f"{v:.17g}\n")
        sidecar = {"seed": self.seed, "provenance": self.provenance,
                   "n": int(self.values.size)}
        path.with_suffix(".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def from_csv(cls, path) -> "EmpiricalSample":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["value"]:
                raise ValueError(f"{path}: expected header 'value', got {header}")
            values = [float(row[0]) for row in reader if row]
        meta = json.loads(path.with_suffix(".json").read_text())
        if meta.get("n") != len(values):
            raise ValueError(f"{path}: sidecar n={meta.get('n')} != {len(values)} rows")
        return cls(values, meta["seed"], meta["provenance"])


@dataclass(frozen=True)
class MomentVector:
    """Integer moments m_0..m_max_order of the solution law."""

    values: tuple            # values[k] = E eta^k, k = 0..max_order
    mean: float              # = values[1]
    max_order: int
    marginal: bool = False   # stopped because g(n) crossed 1 within 1e-12

    def moment(self, k: int) -> float:
        if not 0 <= k <= self.max_order:
            raise ValueError(f"moment order {k} outside 0..{self.max_order}")
        return self.values[k]

    def log_convexity_gap(self) -> float:
        """min over n of m_{n-1} m_{n+1} - m_n^2 (Lyapunov; >= 0 up to rounding)."""
        v = self.values
        gaps = [v[n - 1] * v[n + 1] - v[n] ** 2 for n in range(1, self.max_order)]
        return min(gaps) if gaps else 0.0

    def to_csv(self, path) -> None:
        """CSV order,value plus sidecar JSON {m, max_order, marginal_flag}."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write("order,value\n")
            for k, v in enumerate(self.values):
                fh.write(f"{k},{v:.17g}\n")
        sidecar = {"m": self.mean, "max_order": self.max_order,
                   "marginal_flag": self.marginal}
        path.with_suffix(".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        )

