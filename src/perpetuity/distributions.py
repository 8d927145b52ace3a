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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Family tag for midpoint quantizations of the uniform law on (0, 1].
FAMILY_UNIFORM01 = "uniform01"

#: Marker used where an integer moment order has no finite crossing.
UNBOUNDED = "unbounded"

_WEIGHT_SUM_TOL = 1e-9

#: Rows rendered by one % operation in csv_text.
_CSV_BLOCK_ROWS = 65536

#: Draws settled together by _categorical, and the log2 of its largest
#: guide table (2 MB).  Both keep its temporaries small: with 16k-65k
#: draws per block, or an 8 MB table, the process's peak RSS rose by
#: 3-12 MB on the benchmark's MC workloads; with 4096 it matched
#: rng.choice's.
_DRAW_BLOCK = 4096
_GUIDE_MAX_BITS = 18


def json_text(obj) -> str:
    """The artifact JSON format: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def csv_text(header: str, fmt: str, *columns) -> list[str]:
    """The artifact CSV format as text blocks: the header line, then rows.

    Row i is ``fmt % (col[i] for col in columns)`` plus a newline; each
    block of _CSV_BLOCK_ROWS rows is rendered by one % operation, which
    keeps the text of a large sample in a few bounded pieces.  ``%.17g``
    round-trips every double, and ``%d`` suits integer columns.
    """
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size
    blocks = [header + "\n"]
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, n)
        cells = np.column_stack([c[lo:hi] for c in cols]).ravel().tolist()
        blocks.append((fmt + "\n") * (hi - lo) % tuple(cells))
    return blocks


def _categorical(rng, weights, size: int) -> np.ndarray:
    """Draw ``size`` indices with probability proportional to ``weights``.

    Same uniforms, same indices as ``rng.choice(len(weights), size, p=p)``
    with ``p = weights / weights.sum()``: the CDF is built as numpy builds
    it, ``u = rng.random(size)``, and each index is the first CDF entry
    above u (``searchsorted(side="right")``).  A guide table (Chen & Asau
    1974) over B = 2**k equal buckets holds, for each bucket b, the first
    index whose CDF exceeds b / B; scaling by B rounds nothing, so
    ``floor(u * B)`` is u's bucket exactly.  B >= 4 * len(weights) up to
    the 2**_GUIDE_MAX_BITS cap.  From each bucket's index two vectorized
    steps settle almost every draw and a binary search the rest, which
    bounds the cost of clustered or zero weights.
    """
    cdf = (weights / float(weights.sum())).cumsum()
    cdf /= cdf[-1]
    buckets = 1 << min((cdf.size - 1).bit_length() + 2, _GUIDE_MAX_BITS)
    # guide[b] = #{j : cdf[j] <= b / B} = #{j : ceil(cdf[j] * B) <= b}
    guide = np.bincount(np.ceil(cdf * buckets).astype(np.intp),
                        minlength=buckets + 1).cumsum()[:buckets]
    u = rng.random(int(size))
    idx = np.empty(u.size, dtype=np.intp)
    for lo in range(0, u.size, _DRAW_BLOCK):
        ub = u[lo:lo + _DRAW_BLOCK]
        ib = guide[(ub * buckets).astype(np.intp)]
        active = np.flatnonzero(cdf[ib] <= ub)
        for _ in range(2):
            ib[active] += 1
            active = active[cdf[ib[active]] <= ub[active]]
        ib[active] = cdf.searchsorted(ub[active], side="right")
        idx[lo:lo + _DRAW_BLOCK] = ib
    return idx


def uniform01_mellin(p: float) -> float:
    """Closed-form E A^p = 1/(p+1) for the exact uniform(0, 1] family."""
    if p <= -1.0:
        raise ValueError("uniform01 Mellin function diverges for p <= -1")
    return 1.0 / (p + 1.0)


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
        idx = _categorical(rng, self.values, n_out)
        return EmpiricalSample(
            self.values[idx], seed, f"size-bias({self.provenance})"
        )

    def to_csv(self, stem: str) -> dict:
        """Single-column {stem}.csv plus sidecar {stem}.json
        {seed, provenance, n}."""
        sidecar = {"seed": self.seed, "provenance": self.provenance,
                   "n": int(self.values.size)}
        return {f"{stem}.csv": csv_text("value", "%.17g", self.values),
                f"{stem}.json": json_text(sidecar)}

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

    def to_csv(self, stem: str) -> dict:
        """{stem}.csv order,value plus sidecar {stem}.json
        {m, max_order, marginal_flag}."""
        sidecar = {"m": self.mean, "max_order": self.max_order,
                   "marginal_flag": self.marginal}
        return {f"{stem}.csv": csv_text("order,value", "%d,%.17g",
                                        range(len(self.values)), self.values),
                f"{stem}.json": json_text(sidecar)}

