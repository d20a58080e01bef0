"""Ternary matrix decomposition of the DFT for block lengths N = 0 (mod 4).

The DFT matrix F[k, n] = w**(k*n mod N), w = exp(-2j*pi/N), is regrouped by
the residue of the exponent k*n mod N.  Indicator matrices chi_l mark the
positions with k*n = l (mod N); gathering the residues of each congruence
class C_m = {l : l = m (mod N/4)} with unit weights (-j)**(4*(l-m)/N) gives
matrices M_m (build_M returns each as a complex array) whose entries are the
Gaussian units +1, -1, +j, -j or 0, and

    F = M_0 + sum_{m=1..floor((N/4-1)/2)} (w**m M_m + w**-m M_-m)
          + w**(N/8) M_(N/8)                      (last term iff N = 0 mod 8)

Splitting into real and imaginary parts turns each bracket into ternary
matrices ({-1, 0, +1} entries) weighted by cos(2*pi*m/N), sin(2*pi*m/N) and
sqrt(2)/2, so applying the transform costs general multiplications only by
those scalars.  Each scalar-weighted ternary matrix T is factored as
T = C @ R by grouping its columns that are equal up to sign: C holds the
first column of each group and R the +-1 that places it in every member,
so the scalar multiplies just one intermediate value per group.  In every
plan matrix the groups' first columns are linearly independent, so that
count is rank(T) and R is the reduced row-echelon form of T.  A factor
stores C and R once, as tables of their nonzeros.

A plan is one flat tuple of streams.  A stream is one factored ternary
matrix with its scalar (None for the two M_0 matrices, which need no
multiplication), the output accumulator it feeds (re or im) and a sign.
LaurentPlan.tape stacks the streams' tables once, on first use, into the
device's stages; both executors and count_ops read it.  The merge rule
lives in _merge_streams alone, over the streams.

A plan is a pure function of N, so build_plan does not check its own
result.  check_plan in tests/test_plan.py holds a plan to the direct DFT
matrix within 1e-12, through reconstruct on the tables the executors run,
and each factor to its rational rank; CI runs it on every supported N.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fixed import _admit

# Largest block length a plan is built for, so that an oversized request
# fails at once.  On one pinned CPU of a 2-vCPU Xeon (Python 3.11, numpy 2.4)
# build_plan(256) takes 0.03 s at 30 MB peak RSS, build_plan(512) 0.21 s at
# 35 MB and the slowest, build_plan(508) (ranks summing to 31760, against
# 14576 at N = 512), 0.24 s at 37 MB.  Reading optimal on all its factors
# takes 0.58 s more (0.03 s at 512).
MAX_ORDER = 512
# Prime for the independence test behind FactoredTernary.optimal; (P - 1)**2 fits int64.
_PRIME = 2**31 - 1


class UnsupportedLengthError(ValueError):
    """Raised for block lengths outside N ≡ 0 (mod 4), 4 <= N <= MAX_ORDER."""


class PlanConstructionError(RuntimeError):
    """Raised by echelon_factor for an input that is not a 2-D ternary matrix."""


def _require_mod4(n) -> int:
    """n as an int, once it is a supported block length."""
    try:
        n = operator.index(n)
    except TypeError:
        raise UnsupportedLengthError(f"block length must be an integer, got N={n!r}") from None
    if n < 4 or n % 4 != 0:
        raise UnsupportedLengthError(
            f"block length must satisfy N ≡ 0 (mod 4) and N >= 4, got N={n}"
        )
    if n > MAX_ORDER:
        raise UnsupportedLengthError(f"block length must not exceed {MAX_ORDER}, got N={n}")
    return n


def exponent_matrix(n: int) -> np.ndarray:
    """N x N matrix of DFT exponents k*n mod N."""
    n = _admit(n, "order N", 1)
    idx = np.arange(n)
    return np.outer(idx, idx) % n


def chi(l: int, n: int) -> np.ndarray:
    """0/1 indicator of the positions where k*n ≡ l (mod N)."""
    n = _admit(n, "order N", 1)
    l = _admit(l, "class index l", 0, n - 1)
    return (exponent_matrix(n) == l).astype(np.int64)


def congruence_class(m: int, n: int) -> set[int]:
    """Residues l in 0..N-1 with l ≡ m (mod N/4).  m may be negative."""
    n, m = _require_mod4(n), _admit(m, "label m")
    return {l for l in range(n) if (l - m) % (n // 4) == 0}


def _class_weights(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The int8 vectors (re, im) of each residue l's weight for a valid order
    N: (-j)**(4*(l - m)/N), a Gaussian unit, on C_m, where that power q is an
    integer (taken mod 4), and 0 off it."""
    q, r = np.divmod((np.arange(n) - m) % n, n // 4)  # l is in C_m where r == 0
    re, im = np.array([[1, 0, -1, 0], [0, -1, 0, 1]], dtype=np.int8)[:, q] * (r == 0)
    return re, im  # column q of the table is (re, im) of (-j)**q


def build_M(m: int, n: int) -> np.ndarray:
    """M_m = sum over l in C_m of (-j)**(4*(l - m)/N) chi_l: the class weights
    gathered by the exponent matrix, as a complex matrix of Gaussian units
    (0, +-1, +-j, exact in doubles).  The label m is signed: M_-1 and
    M_(N/4 - 1) cover the same residues but differ by a unit factor."""
    n, m = _require_mod4(n), _admit(m, "label m")
    (re, im), e = _class_weights(m, n), exponent_matrix(n)
    return re[e] + 1j * im[e]


def _as_ternary(mat: np.ndarray) -> np.ndarray:
    # bool, integer or float entries, tested as given: a bare cast truncates 0.5 to 0
    values = np.asarray(mat)
    if values.ndim != 2:
        raise PlanConstructionError(f"expected a 2-D matrix, got shape {values.shape}")
    if values.dtype.kind in "biuf" and (np.abs(values) <= 1).all():
        t = values.astype(np.int8, copy=False)
        if (t == values).all():
            return t
    raise PlanConstructionError("matrix entries escaped {-1, 0, +1}")


class RowTable(NamedTuple("RowTable", [("rows", np.ndarray), ("cols", np.ndarray),
                                       ("signs", np.ndarray), ("nrows", int)])):
    """The nonzero entries of ternary matrices, read-only, stacked row on row:
    row i of nrows sums signs[e] * x[cols[e]] over the entries e with rows[e]
    == i, which lie together in increasing column order.  terms is every
    (rows[e], cols[e], signs[e]) in Python ints, for the fixed executor alone;
    it is cached on first use in the instance dict this subclass has."""

    def __new__(cls, rows, cols, signs, nrows):
        for a in (rows, cols, signs):
            a.setflags(write=False)
        return super().__new__(cls, rows, cols, signs, nrows)

    @functools.cached_property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.signs.tolist()))

    def dense(self, ncols: int) -> np.ndarray:
        """The table as a read-only (nrows, ncols) int8 matrix, built on each call."""
        mat = np.zeros((self.nrows, ncols), dtype=np.int8)
        mat[self.rows, self.cols] = self.signs
        mat.setflags(write=False)
        return mat


@dataclass(frozen=True, eq=False)
class FactoredTernary:
    """Rank factorization T = combiner @ reduced_rows with ternary factors.

    Each factor is stored once, as its RowTable, with T's width.  combiner
    and reduced_rows are read-only int8 matrices built from the tables on
    each read.  rank, the inner dimension, is the number of groups of T's
    columns equal up to sign.  optimal, True when the combiner columns are
    independent (so rank is T's rational rank), is computed on first read
    and cached.
    """

    reduced_table: RowTable
    combiner_table: RowTable
    width: int

    @property
    def rank(self) -> int:
        return self.reduced_table.nrows

    @property
    def reduced_rows(self) -> np.ndarray:
        return self.reduced_table.dense(self.width)

    @property
    def combiner(self) -> np.ndarray:
        return self.combiner_table.dense(self.rank)

    @functools.cached_property
    def optimal(self) -> bool:
        return _independent_columns(self.combiner)


def _independent_columns(mat: np.ndarray) -> bool:
    """True if the columns of the integer matrix mat are linearly independent.

    The entries are taken as int64, so the arithmetic below is exact.  A
    column that is the only nonzero in some row has a zero coefficient in
    every vanishing combination of the columns, so it is peeled off; peeling
    repeats until no such column is left.  The rest are reduced by Gaussian
    elimination modulo _PRIME: independence modulo a prime implies
    independence over the rationals, and peeling is exact over both.
    """
    ints = np.asarray(mat, dtype=np.int64)
    live = ints != 0
    keep = np.ones(ints.shape[1], dtype=bool)
    while (peel := live[live.sum(axis=1) == 1].any(axis=0)).any():
        live[:, peel] = False
        keep &= ~peel
    a = ints[:, keep] % _PRIME
    for j in range(a.shape[1]):
        nonzero = np.flatnonzero(a[j:, j])
        if nonzero.size == 0:
            return False
        p = j + nonzero[0]
        a[[j, p]] = a[[p, j]]
        a[j, j:] = a[j, j:] * pow(int(a[j, j]), -1, _PRIME) % _PRIME
        rows = j + nonzero[1:]  # the rows below with a nonzero at j; the rest would subtract 0
        a[rows, j:] = (a[rows, j:] - a[rows, j:j + 1] * a[j, j:]) % _PRIME
    return True


def echelon_factor(mat) -> FactoredTernary:
    """Factor a ternary matrix as combiner @ reduced_rows, both ternary.

    The nonzero columns are grouped by their pattern up to sign, keyed by the
    column times its leading nonzero entry (its lead), and the groups are
    numbered in order of first appearance.  The combiner holds the first
    (pivot) column of each group; the group's reduced row is +1 at the pivot
    and, at every other member, its lead times the pivot's, so every column
    of reduced_rows has at most one nonzero.  Both are kept as tables of
    their nonzeros; their product is the input, as a group shares one key and
    leads are ±1.  With independent pivots the reduced rows are the reduced
    row-echelon form and rank is the rational rank; a matrix with dependent
    distinct columns, such as [[1, 0, 1], [0, 1, 1]], keeps one row per group
    and reads non-optimal (rank 3, against a rational rank of 2).
    """
    t = _as_ternary(mat)
    cols = np.flatnonzero(t.any(axis=0))
    sub = t[:, cols]
    # an argmax over zero rows raises; with no rows there are no columns
    lead = sub[(sub != 0).argmax(axis=0) if t.shape[0] else cols, np.arange(cols.size)]
    groups: dict[bytes, int] = {}
    keys = np.ascontiguousarray((sub * lead).T)
    g = np.array([groups.setdefault(k.tobytes(), len(groups)) for k in keys], dtype=np.intp)
    first = np.unique(g, return_index=True)[1]
    combiner = sub[:, first]
    sign = lead * lead[first][g]
    by_group = np.argsort(g, kind="stable")  # keeps each row's columns increasing
    rows, pivot_cols = np.nonzero(combiner)
    return FactoredTernary(RowTable(g[by_group], cols[by_group], sign[by_group], first.size),
                           RowTable(rows, pivot_cols, combiner[rows, pivot_cols], t.shape[0]),
                           t.shape[1])


@dataclass(frozen=True, eq=False)
class Stream:
    """One scalar-weighted ternary matrix feeding one output accumulator.

    Applied in the device's stage order: u = reduced_rows @ v, then value * u
    (rank multiplications; value is None on the two M_0 streams, which need
    none), then combiner @ that, added to the accumulator dest ("re" or "im")
    if sign is +1 and subtracted if -1 (only the sine terms' im streams).
    """

    label: str
    value: float | None
    factor: FactoredTernary
    dest: str
    sign: int


class StageTape(NamedTuple):
    """The plan lowered once, in the device's stage order.

    1. Input adds: row i of inputs, a signed sum of samples, is
       intermediate i; each stream's reduced rows follow the last stream's,
       rank rows apiece.
    2. Multipliers: intermediate i times the ROM constant constants[slots[i]]
       (the distinct stream values in order of first appearance), or times
       nothing where slots[i] is -1, on the unit streams.  scale[i] is that
       factor as a double, 1.0 for none.
    3. Combiner adds: row k * order + j of combiners, a signed sum of the
       stacked intermediates, is row j of stream k's combiner.
    4. Stream merge, by _merge_streams in plan order; 5. DHT Re - Im.

    The fixed executor runs stages 1-3 from terms and slots; exact mode runs
    them as one bincount per table, times scale between; count_ops counts
    each table's entries per row and the slots that name a constant.  A row
    takes its terms in increasing column order, which, like the stream
    order, decides where a narrow accumulator saturates.
    """

    inputs: RowTable
    constants: tuple[float, ...]
    slots: tuple[int, ...]
    scale: np.ndarray
    combiners: RowTable


def _stack(tables, col_offsets) -> RowTable:
    """Stack tables row on row, adding col_offsets[k] to the columns of tables[k]."""
    row_offsets = np.cumsum([0] + [t.nrows for t in tables])
    return RowTable(np.concatenate([t.rows + a for t, a in zip(tables, row_offsets)]),
                    np.concatenate([t.cols + a for t, a in zip(tables, col_offsets)]),
                    np.concatenate([t.signs for t in tables]), int(row_offsets[-1]))


@dataclass(frozen=True, eq=False)
class LaurentPlan:
    """The transform as one flat tuple of streams.

    The two unweighted streams come first (re, then im), followed by the re
    and im streams of each scalar term in order of m, the sqrt(2)/2 term
    last.  A fixed-point executor folds the streams into its saturating
    accumulators in this order, so the order is part of the bit-exact result.
    """

    order: int
    streams: tuple[Stream, ...]

    @functools.cached_property
    def tape(self) -> StageTape:
        """The streams' tables stacked into one StageTape, on first use."""
        factors = [s.factor for s in self.streams]
        ranks = [f.rank for f in factors]
        constants = tuple(dict.fromkeys(s.value for s in self.streams if s.value is not None))
        slots = np.repeat([-1 if s.value is None else constants.index(s.value)
                           for s in self.streams], ranks)
        scale = np.append(constants, 1.0)[slots]  # slot -1 reads the 1.0 appended last
        scale.setflags(write=False)
        return StageTape(_stack([f.reduced_table for f in factors], [0] * len(factors)),
                         constants, tuple(slots.tolist()), scale,
                         _stack([f.combiner_table for f in factors], np.cumsum([0] + ranks)))


def build_plan(n: int) -> LaurentPlan:
    """Assemble the full decomposition for order N from class weights."""
    n = _require_mod4(n)
    e, (re0, im0) = exponent_matrix(n), _class_weights(0, n)
    streams = [Stream("unit", None, echelon_factor(re0[e]), "re", +1),
               Stream("unit", None, echelon_factor(im0[e]), "im", +1)]
    for m in range(1, (n // 4 - 1) // 2 + 1):
        (pos_re, pos_im), (neg_re, neg_im) = _class_weights(m, n), _class_weights(-m, n)
        theta = 2 * math.pi * m / n
        cos, sin = f"cos(2*pi*{m}/{n})", f"sin(2*pi*{m}/{n})"
        streams += [
            Stream(cos, math.cos(theta), echelon_factor((pos_re + neg_re)[e]), "re", +1),
            Stream(cos, math.cos(theta), echelon_factor((pos_im + neg_im)[e]), "im", +1),
            Stream(sin, math.sin(theta), echelon_factor((pos_im - neg_im)[e]), "re", +1),
            Stream(sin, math.sin(theta), echelon_factor((pos_re - neg_re)[e]), "im", -1),
        ]
    if n % 8 == 0:
        # w**(N/8) = (1 - j) * sqrt(2)/2, so the class at N/8 contributes
        # sqrt(2)/2 * (Re+Im) to the real part and sqrt(2)/2 * (Im-Re) to the
        # imaginary part.  The symmetric sum over +-m cannot reach this class
        # because m = N/8 is its own negative modulo N/4.
        mid_re, mid_im = _class_weights(n // 8, n)
        streams += [
            Stream("sqrt(2)/2", math.sqrt(0.5), echelon_factor((mid_re + mid_im)[e]), "re", +1),
            Stream("sqrt(2)/2", math.sqrt(0.5), echelon_factor((mid_im - mid_re)[e]), "im", +1),
        ]
    return LaurentPlan(order=n, streams=tuple(streams))


def _merge_streams(plan: LaurentPlan, outputs, add, sub):
    """The one merge rule: (re, im) from each stream's stage output in plan
    order, the first into an accumulator becoming its contents and each later
    one merged as add(acc, y) if its sign is +1 and sub(acc, y) if -1."""
    acc = {}
    for s, y in zip(plan.streams, outputs):
        a = acc.get(s.dest)
        acc[s.dest] = y if a is None else (add if s.sign > 0 else sub)(a, y)
    return acc["re"], acc["im"]


def reconstruct(plan: LaurentPlan) -> np.ndarray:
    """The complex matrix the plan represents: each stream's combiner @
    (value * reduced_rows) in doubles, merged by _merge_streams."""
    scaled = (s.factor.reduced_rows * (1.0 if s.value is None else s.value) for s in plan.streams)
    re, im = _merge_streams(plan, (s.factor.combiner @ x for s, x in zip(plan.streams, scaled)),
                            operator.iadd, operator.isub)
    return re + 1j * im


@dataclass(frozen=True)
class OpCount:
    """Structural arithmetic cost of a plan.  Pure function of the plan.

    multiplications: scalar (twiddle) multiplications, one per unit of rank
        of each weighted stream; products with {-1, 0, +1} are free sign
        flips or skips, so the unweighted streams cost none.
    additions: two-operand adds/subtracts inside the factored matrix
        applications (reduced rows and combiner rows of every stream),
        counting an accumulation of t nonzero operands as t - 1 adds.
    accumulation_adds: adds that merge the streams into the two output
        accumulators: a row reached by t streams of one accumulator costs
        t - 1.  Reported separately because the split between the
        arithmetic core and the output collection stage is a convention.
    dht_extra_adds: the N output subtractions Re - Im that only the Hartley
        selection pays, also reported separately.
    """

    multiplications: int
    additions: int
    accumulation_adds: int
    dht_extra_adds: int


def count_ops(plan: LaurentPlan) -> OpCount:
    """Structural operation count over the plan's tape: each table's row
    lengths from a bincount of its rows, and one multiplication per slot that
    names a constant.  See OpCount for the exact convention."""
    tape, n = plan.tape, plan.order
    lengths = [np.bincount(t.rows, minlength=t.nrows) for t in (tape.inputs, tape.combiners)]
    adds = sum(int(np.maximum(k - 1, 0).sum()) for k in lengths)
    # how many streams reach each output row; int, since np.add on bools is a logical or
    reach = (lengths[1] > 0).astype(np.int64)
    reached = _merge_streams(plan, (reach[i:i + n] for i in range(0, reach.size, n)),
                             np.add, np.add)
    merge = sum(int(np.maximum(r - 1, 0).sum()) for r in reached)
    return OpCount(len(tape.slots) - tape.slots.count(-1), adds, merge, n)


_SYMBOLS = np.array(list("-.+"))  # a ternary entry x prints as _SYMBOLS[x + 1]


def format_plan(plan: LaurentPlan) -> str:
    """Human-readable dump: one block per stream with its scalar, target
    accumulator, rank and factor matrices."""
    lines = [f"plan for N={plan.order}: {len(plan.streams)} streams, "
             f"{count_ops(plan).multiplications} multiplications"]
    for s in plan.streams:
        weight = "1 (no multiplications)" if s.value is None else f"{s.value:.10g}"
        sign = " (subtracted)" if s.sign < 0 else ""
        lines.append(f"term {s.label} = {weight}")
        lines.append(f"  {s.dest} path{sign} rank {s.factor.rank}")
        lines.append("    reduced rows:")
        lines += ["      " + "".join(row) for row in _SYMBOLS[s.factor.reduced_rows + 1]]
        lines.append("    combiner columns:")
        lines += ["      " + "".join(row) for row in _SYMBOLS[s.factor.combiner.T + 1]]
    return "\n".join(lines) + "\n"
