"""Atomic and empirical laws on (0, inf) and their basic functionals.

The atomic law rho of the multiplier A is the single user-facing input of
the whole pipeline; everything else (response kernels, solver grids, Monte
Carlo samples) is derived from it.  Laws are value objects: construction
canonicalizes and validates, methods are pure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

#: Family tag for midpoint quantizations of the uniform law on (0, 1].
FAMILY_UNIFORM01 = "uniform01"

#: Marker used where an integer moment order has no finite crossing.
UNBOUNDED = "unbounded"

_WEIGHT_SUM_TOL = 1e-9

#: Rows rendered together by csv_text.  A block is all of an artifact's
#: text held while it is written, and its rendering peaks at about 340
#: traced bytes per row and column: 1.4 MB for one column of 4096 rows.
_CSV_BLOCK_ROWS = 4096

#: 10**q for q = 0..20, all exact doubles, and their Dekker halves.
_POW10 = np.array([float(10 ** q) for q in range(21)])
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

#: A fixed-notation cell of _CELL bytes: "-0.000", then 17 digits each
#: followed by a point, the last point replaced by the separator.  As
#: uint32 words: "-0.0", "00" + digit 0 + ".", and 8 digit pairs "d.d.".
_CELL = 40
_PREFIX, _LEAD, _PAIR = (
    np.frombuffer("".join(words).encode(), np.uint32)
    for words in (["-0.0"], [f"00{d}." for d in range(10)],
                  [f"{p // 10}.{p % 10}." for p in range(100)]))


def _cell_masks() -> np.ndarray:
    """Bytes kept of a fixed cell, row ``17 * (k + 4) + j``: decimal
    exponent k in -4..16, last nonzero digit j (0 for a zero)."""
    k = np.arange(-4, 17)[:, None, None]
    j = np.arange(17)[:, None]
    col = np.arange(_CELL)
    digits = (col >= 6) & (col % 2 == 0) & (col <= 6 + 2 * np.maximum(k, j))
    zeros = (k < 0) & (col >= 1) & (col < 2 - k)    # "0." and -k-1 zeros
    point = (k >= 0) & (j > k) & (col == 7 + 2 * k)
    return (digits | zeros | point | (col == _CELL - 1)).reshape(-1, _CELL)


_CELL_MASKS = _cell_masks()

#: Draws settled together by _categorical, and the log2 of its largest
#: guide table (2 MB).  Each block draws its own uniforms and gathers its
#: values straight into the output, so a draw holds no array of its
#: length besides the one it returns.  With 16k-65k draws per block, or
#: an 8 MB table, the process's peak RSS rose by 3-12 MB on the
#: benchmark's MC workloads; with 4096 it matched rng.choice's.
_DRAW_BLOCK = 4096
_GUIDE_MAX_BITS = 18


def json_text(obj) -> str:
    """The artifact JSON format: sorted keys, 2-space indent, final newline.

    A dataclass (a report) serializes as the dict of its fields.  NaN and
    infinities are refused with ValueError: JSON has no token for them.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=asdict) + "\n"


def csv_text(header: str, *columns) -> _CsvText:
    """The artifact CSV format as a re-iterable of text blocks: the header
    line, then rows.

    Row i is the cells ``col[i]`` joined by commas, plus a newline; a cell
    is ``'%.17g' % v`` (17 significant digits round-trip every double, and
    an integer below 2**53 renders as its digits).  NaN and infinities are
    refused here with ValueError, as in json_text.  The blocks, of
    _CSV_BLOCK_ROWS rows each, are rendered only as they are iterated, so
    a writer holds the text of one block at a time; each iteration renders
    the same text.
    """
    cols = [np.asarray(c) for c in columns]
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError(f"non-finite value in CSV columns {header}")
    return _CsvText(header, cols)


@dataclass(frozen=True)
class _CsvText:
    """The blocks of csv_text, rendered from its checked columns."""

    header: str
    cols: list

    def __iter__(self):
        yield self.header + "\n"
        seps = b"," * (len(self.cols) - 1) + b"\n"
        for lo in range(0, self.cols[0].size, _CSV_BLOCK_ROWS):
            cells = [_csv_cells(c[lo:lo + _CSV_BLOCK_ROWS], sep)
                     for c, sep in zip(self.cols, seps)]
            text = np.hstack([t for t, _ in cells]).ravel()
            keep = np.hstack([k for _, k in cells]).ravel()
            yield np.compress(keep, text).tobytes().decode("ascii")


def _csv_cells(col: np.ndarray, sep: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of one column, each followed by the byte ``sep``, as a
    (rows, _CELL) uint8 table and the mask of its bytes that are text.

    A float in fixed notation (1e-4 <= |v| < 1e17, and +0) gets its 17
    correctly rounded digits D from k = floor(log10|v|), q = 16 - k and
    the exact product |v| * 10**q = hi + lo (Dekker's two-product): hi is
    an even integer >= 1e16 > 2**53, so D = hi + rint(lo), ties to even
    as in Python's dtoa.  The mask, looked up by k and the last nonzero
    digit, keeps the bytes of ``'%.17g' % v``.  Rows whose product falls
    outside [1e16, 1e17) (a log10 off by one, a carry past the 17th
    digit) and all other values (exponent notation, -0.0) are rendered
    by Python's % one cell at a time.
    """
    n = col.size
    v = col.astype(float, copy=False)
    a = np.abs(v)
    k = np.floor(np.log10(a, out=np.zeros(n), where=a > 0)).astype(np.intp)
    fixed = (k >= -4) & (k <= 16)
    k[~fixed] = 0
    a[~fixed] = 0.0
    q = 16 - k
    hi = a * _POW10.take(q)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW10_HI.take(q), _POW10_LO.take(q)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    neg = np.signbit(v)
    fast = (d < 10 ** 17) & ((hi > 1e16) | (hi == 1e16) & (lo >= 0))
    fast |= (v == 0) & ~neg
    d[~fast] = 0
    words = np.empty((n, _CELL // 4), np.uint32)
    words[:, 0] = _PREFIX
    for i in range(9, 1, -1):            # digits 15-16, 13-14, ..., 1-2
        rest = d // 100
        words[:, i] = _PAIR.take(d - 100 * rest)
        d = rest
    words[:, 1] = _LEAD.take(d)
    text = words.view(np.uint8)
    text[:, -1] = sep
    nonzero = text[:, -2:5:-2] != ord("0")   # digits 16, 15, ..., 0
    nonzero[:, -1] = True                    # a zero keeps its one digit
    last = 16 - nonzero.argmax(axis=1)
    keep = _CELL_MASKS.take(17 * (k + 4) + last, axis=0)
    keep[:, 0] = neg
    slow = np.flatnonzero(~fast)
    for i, x in zip(slow, v[slow].tolist()):
        cell = ("%.17g" % x).encode()
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
        keep[i, :-1] = False
        keep[i, :len(cell)] = True
    return text, keep


def _categorical(rng, weights, values, size: int) -> np.ndarray:
    """``size`` draws of ``values[j]`` with probability proportional to
    ``weights[j]``: the same uniforms and draws as ``values[rng.choice(
    len(weights), size, p=p)]`` with ``p = weights / weights.sum()``.

    The CDF is built as numpy builds it, and each draw takes the first
    index whose CDF entry is above its uniform u (``searchsorted(side=
    "right")``).  Each block of _DRAW_BLOCK draws takes its uniforms from
    ``rng.random``, which continues the stream as one long call would,
    and gathers its values into the output.  A guide table (Chen & Asau
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
    out = np.empty(int(size), dtype=values.dtype)
    for lo in range(0, out.size, _DRAW_BLOCK):
        ub = rng.random(min(_DRAW_BLOCK, out.size - lo))
        ib = guide[(ub * buckets).astype(np.intp)]
        active = np.flatnonzero(cdf[ib] <= ub)
        for _ in range(2):
            ib[active] += 1
            active = active[cdf[ib[active]] <= ub[active]]
        ib[active] = cdf.searchsorted(ub[active], side="right")
        values.take(ib, out=out[lo:lo + ub.size])
    return out


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

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws of A by inverse CDF from ``default_rng(seed).random(n)``.

        Each uniform u maps to the first atom whose cumulative weight
        exceeds u (``_categorical``), so a u exactly on a CDF boundary
        goes to the upper atom.
        """
        rng = np.random.default_rng(seed)
        return _categorical(rng, self.weights, self.locations, int(n))

    # ------------------------------------------------------------------
    # identity

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.locations.tobytes())
        h.update(self.weights.tobytes())
        h.update((self.family or "").encode())
        return h.hexdigest()[:12]


def validate(atoms) -> AtomicDistribution:
    """Canonicalize a list of (location, weight) pairs."""
    pairs = list(atoms)
    return AtomicDistribution([p[0] for p in pairs], [p[1] for p in pairs])


def point_mass(a: float) -> AtomicDistribution:
    return AtomicDistribution([a], [1.0])


def quantize_family(family: str, n: int) -> AtomicDistribution:
    """Atomic stand-in for a continuous multiplier law.

    ``uniform01``: n midpoint atoms (2k-1)/(2n), weight 1/n each.  The
    atomic Mellin sum then converges to 1/(p+1) with midpoint-rule error.
    """
    if family != FAMILY_UNIFORM01:
        raise ValueError(f"unknown family {family!r}")
    if int(n) < 1:
        raise ValueError("uniform01 quantization needs n >= 1")
    n = int(n)
    k = np.arange(1, n + 1, dtype=float)
    return AtomicDistribution(
        (2.0 * k - 1.0) / (2.0 * n), np.full(n, 1.0 / n), family=FAMILY_UNIFORM01
    )


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
        return EmpiricalSample(
            _categorical(rng, self.values, self.values, n_out), seed,
            f"size-bias({self.provenance})")

    def to_csv(self, stem: str) -> dict:
        """Single-column {stem}.csv plus sidecar {stem}.json
        {seed, provenance, n}."""
        sidecar = {"seed": self.seed, "provenance": self.provenance,
                   "n": int(self.values.size)}
        return {f"{stem}.csv": csv_text("value", self.values),
                f"{stem}.json": json_text(sidecar)}


@dataclass(frozen=True)
class MomentVector:
    """Integer moments m_0..m_max_order of the solution law."""

    values: tuple            # values[k] = E eta^k, k = 0..max_order
    mean: float              # = values[1]
    max_order: int
    marginal: bool = False   # stopped because g(n) crossed 1 within 1e-12

    def to_csv(self, stem: str) -> dict:
        """{stem}.csv order,value plus sidecar {stem}.json
        {m, max_order, marginal_flag}."""
        sidecar = {"m": self.mean, "max_order": self.max_order,
                   "marginal_flag": self.marginal}
        return {f"{stem}.csv": csv_text("order,value",
                                        range(len(self.values)), self.values),
                f"{stem}.json": json_text(sidecar)}

