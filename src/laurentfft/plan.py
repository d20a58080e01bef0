"""Ternary matrix decomposition of the DFT for block lengths N = 0 (mod 4).

The DFT matrix F[k, n] = w**(k*n mod N), w = exp(-2j*pi/N), is regrouped by
the residue of the exponent k*n mod N.  Indicator matrices chi_l mark the
positions with k*n = l (mod N); gathering the residues of each congruence
class C_m = {l : l = m (mod N/4)} with unit weights (-j)**(4*(l-m)/N) gives
matrices M_m whose entries lie in {0, +1, -1, +j, -j}, and

    F = M_0 + sum_{m=1..floor((N/4-1)/2)} (w**m M_m + w**-m M_-m)
          + w**(N/8) M_(N/8)                      (last term iff N = 0 mod 8)

Splitting into real and imaginary parts turns each bracket into ternary
matrices ({-1, 0, +1} entries) weighted by cos(2*pi*m/N), sin(2*pi*m/N) and
sqrt(2)/2, so applying the transform costs general multiplications only by
those scalars.  Each scalar-weighted ternary matrix T is factored through
its reduced row-echelon form, T = C @ R with both factors ternary, so the
scalar multiplies just rank(T) intermediate values.

A plan is one flat tuple of streams.  A stream is one factored ternary
matrix with its scalar (None for the two M_0 matrices, which need no
multiplication), the output accumulator it feeds (re or im) and a sign.
Both executors, count_ops, reconstruct and format_plan are each one pass
over that tuple.

Every built plan is checked against the direct DFT matrix before it is
returned; a plan that fails to reconstruct is a construction bug, not a
caller error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .reference import dft_matrix

RECONSTRUCTION_TOL = 1e-12


class UnsupportedLengthError(ValueError):
    """Raised for block lengths outside N ≡ 0 (mod 4), N >= 4."""


class PlanConstructionError(RuntimeError):
    """Raised when a built plan violates its own structural invariants."""


def _require_mod4(n: int):
    if n < 4 or n % 4 != 0:
        raise UnsupportedLengthError(
            f"block length must satisfy N ≡ 0 (mod 4) and N >= 4, got N={n}"
        )


def exponent_matrix(n: int) -> np.ndarray:
    """N x N matrix of DFT exponents k*n mod N."""
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n)
    return np.outer(idx, idx) % n


def chi(l: int, n: int) -> np.ndarray:
    """0/1 indicator of the positions where k*n ≡ l (mod N)."""
    if not 0 <= l < n:
        raise ValueError(f"class index must satisfy 0 <= l < N, got l={l}, N={n}")
    return (exponent_matrix(n) == l).astype(np.int64)


def congruence_class(m: int, n: int) -> set[int]:
    """Residues l in 0..N-1 with l ≡ m (mod N/4).  m may be negative."""
    _require_mod4(n)
    step = n // 4
    return {l for l in range(n) if (l - m) % step == 0}


@dataclass(frozen=True, eq=False)
class GaussianIntegerMatrix:
    """Matrix over {0, +1, -1, +j, -j}, stored as an integer (re, im) pair."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        weight = np.abs(self.re) + np.abs(self.im)
        if not np.isin(weight, (0, 1)).all():
            raise PlanConstructionError("entries must be 0 or a unit (+-1, +-j)")
        self.re.setflags(write=False)
        self.im.setflags(write=False)

    @property
    def order(self) -> int:
        return self.re.shape[0]


def build_M(m: int, n: int) -> GaussianIntegerMatrix:
    """Weighted sum of the indicators of class C_m.

    The weight of residue l is (-j)**(4*(l - m)/N), an integer power by the
    class definition.  The label m is signed: M_-1 and M_(N/4 - 1) cover the
    same residues but differ by a unit factor.
    """
    _require_mod4(n)
    re = np.zeros((n, n), dtype=np.int64)
    im = np.zeros((n, n), dtype=np.int64)
    for l in congruence_class(m, n):
        power = 4 * (l - m)
        if power % n != 0:
            raise PlanConstructionError(f"non-integer unit exponent for l={l}, m={m}")
        mask = chi(l, n)
        t = (power // n) % 4
        if t == 0:
            re += mask
        elif t == 1:
            im -= mask
        elif t == 2:
            re -= mask
        else:
            im += mask
    return GaussianIntegerMatrix(re, im)


def _as_ternary(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.int64)
    if not np.isin(mat, (-1, 0, 1)).all():
        raise PlanConstructionError("matrix entries escaped {-1, 0, +1}")
    return mat


@dataclass(frozen=True, eq=False)
class FactoredTernary:
    """Rank factorization T = combiner @ reduced_rows with ternary factors.

    rank is the inner dimension, i.e. how many intermediate values a scalar
    weight must multiply.  At rank 0 the factors are (rows, 0) and (0, cols)
    arrays, so every product with them is a correctly shaped zero.  optimal
    is False when the reduced-row-echelon route produced a non-ternary
    factor and the distinct-signed-rows fallback was used instead (rank may
    then exceed the rational rank).
    """

    combiner: np.ndarray
    reduced_rows: np.ndarray
    rank: int
    optimal: bool = True

    def __post_init__(self):
        self.combiner.setflags(write=False)
        self.reduced_rows.setflags(write=False)

    def product(self) -> np.ndarray:
        return self.combiner @ self.reduced_rows


def _rref(mat: np.ndarray):
    """Reduced row-echelon form over exact rationals.

    Returns (rows, pivot_columns); rows is the list of nonzero rref rows as
    Fractions.
    """
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def echelon_factor(mat) -> FactoredTernary:
    """Factor a ternary matrix as combiner @ reduced_rows, both ternary.

    The primary route takes R as the nonzero rows of the reduced row-echelon
    form and C as the pivot-column submatrix of the input, which reproduces
    the input exactly and makes the inner dimension the rational rank.  If
    the echelon rows are not ternary the factorization falls back to the
    distinct nonzero rows up to sign, and the result is flagged non-optimal.
    """
    t = _as_ternary(mat)
    nrows, ncols = t.shape
    rref_rows, pivots = _rref(t)
    rank = len(pivots)
    if rank == 0:
        return FactoredTernary(np.zeros((nrows, 0), dtype=np.int64),
                               np.zeros((0, ncols), dtype=np.int64), 0, True)
    if all(x.denominator == 1 and -1 <= x <= 1 for row in rref_rows for x in row):
        reduced = np.array([[int(x) for x in row] for row in rref_rows], dtype=np.int64)
        combiner = t[:, pivots].copy()
        if (combiner @ reduced == t).all():
            return FactoredTernary(combiner, reduced, rank, True)

    # Fallback: one reduced row per distinct nonzero row pattern up to sign.
    patterns: list[np.ndarray] = []
    coeffs = []
    for row in t:
        if not row.any():
            coeffs.append((0, 0))
            continue
        for j, p in enumerate(patterns):
            if (row == p).all():
                coeffs.append((j, 1))
                break
            if (row == -p).all():
                coeffs.append((j, -1))
                break
        else:
            patterns.append(row.copy())
            coeffs.append((len(patterns) - 1, 1))
    reduced = np.array(patterns, dtype=np.int64)
    combiner = np.zeros((nrows, len(patterns)), dtype=np.int64)
    for i, (j, s) in enumerate(coeffs):
        if s:
            combiner[i, j] = s
    if not (combiner @ reduced == t).all():
        raise PlanConstructionError("row factorization failed to reproduce the matrix")
    return FactoredTernary(combiner, reduced, len(patterns), False)


@dataclass(frozen=True, eq=False)
class Stream:
    """One scalar-weighted ternary matrix feeding one output accumulator.

    The accumulator dest ("re" or "im") receives
    sign * value * (factor.product() @ v).
    value is None for the two unweighted M_0 streams, which cost no
    multiplications; sign is -1 only on the imaginary stream of a sine term.
    """

    label: str
    value: float | None
    factor: FactoredTernary
    dest: str
    sign: int

    @property
    def weight(self) -> float:
        """sign * value as one float; the unweighted streams weigh sign * 1."""
        return self.sign * (1.0 if self.value is None else self.value)


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

    @property
    def optimal(self) -> bool:
        """True when every factorization achieved its rational rank."""
        return all(s.factor.optimal for s in self.streams)


def build_plan(n: int) -> LaurentPlan:
    """Assemble and validate the full decomposition for order N."""
    _require_mod4(n)
    m0 = build_M(0, n)
    streams = [Stream("unit", None, echelon_factor(m0.re), "re", +1),
               Stream("unit", None, echelon_factor(m0.im), "im", +1)]
    for m in range(1, (n // 4 - 1) // 2 + 1):
        pos = build_M(m, n)
        neg = build_M(-m, n)
        theta = 2 * math.pi * m / n
        cos, sin = f"cos(2*pi*{m}/{n})", f"sin(2*pi*{m}/{n})"
        streams += [
            Stream(cos, math.cos(theta), echelon_factor(pos.re + neg.re), "re", +1),
            Stream(cos, math.cos(theta), echelon_factor(pos.im + neg.im), "im", +1),
            Stream(sin, math.sin(theta), echelon_factor(pos.im - neg.im), "re", +1),
            Stream(sin, math.sin(theta), echelon_factor(pos.re - neg.re), "im", -1),
        ]
    if n % 8 == 0:
        # w**(N/8) = (1 - j) * sqrt(2)/2, so the class at N/8 contributes
        # sqrt(2)/2 * (Re+Im) to the real part and sqrt(2)/2 * (Im-Re) to the
        # imaginary part.  The symmetric sum over +-m cannot reach this class
        # because m = N/8 is its own negative modulo N/4.
        mid = build_M(n // 8, n)
        streams += [
            Stream("sqrt(2)/2", math.sqrt(0.5), echelon_factor(mid.re + mid.im), "re", +1),
            Stream("sqrt(2)/2", math.sqrt(0.5), echelon_factor(mid.im - mid.re), "im", +1),
        ]
    plan = LaurentPlan(order=n, streams=tuple(streams))
    err = np.abs(reconstruct(plan) - dft_matrix(n)).max()
    if err > RECONSTRUCTION_TOL:
        raise PlanConstructionError(
            f"plan for N={n} fails to reconstruct the DFT matrix (max error {err:.3e})"
        )
    return plan


def reconstruct(plan: LaurentPlan) -> np.ndarray:
    """Reassemble the complex transform matrix the plan represents."""
    acc = {"re": np.zeros((plan.order, plan.order)), "im": np.zeros((plan.order, plan.order))}
    for s in plan.streams:
        acc[s.dest] = acc[s.dest] + s.weight * s.factor.product()
    return acc["re"] + 1j * acc["im"]


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


def _row_adds(mat: np.ndarray) -> int:
    nnz = np.count_nonzero(mat, axis=1)
    return int(np.maximum(nnz - 1, 0).sum())


def count_ops(plan: LaurentPlan) -> OpCount:
    """Structural operation count; see OpCount for the exact convention."""
    mults = adds = 0
    reached = {"re": np.zeros(plan.order, dtype=np.int64),
               "im": np.zeros(plan.order, dtype=np.int64)}
    for s in plan.streams:
        if s.value is not None:
            mults += s.factor.rank
        adds += _row_adds(s.factor.reduced_rows) + _row_adds(s.factor.combiner)
        reached[s.dest] += np.count_nonzero(s.factor.combiner, axis=1) > 0
    merge = sum(int(np.maximum(r - 1, 0).sum()) for r in reached.values())
    return OpCount(mults, adds, merge, plan.order)


_SYMBOLS = {-1: "-", 0: ".", 1: "+"}


def _rows_to_text(mat: np.ndarray, indent: str) -> list[str]:
    return [indent + "".join(_SYMBOLS[int(x)] for x in row) for row in mat]


def format_plan(plan: LaurentPlan) -> str:
    """Human-readable dump: one block per stream with its scalar, target
    accumulator, rank and factor matrices."""
    lines = [f"plan for N={plan.order}: {len(plan.streams)} streams, "
             f"{count_ops(plan).multiplications} multiplications"]
    for s in plan.streams:
        weight = "1 (no multiplications)" if s.value is None else f"{s.value:.10g}"
        sign = " (subtracted)" if s.sign < 0 else ""
        flag = "" if s.factor.optimal else "  [non-optimal factorization]"
        lines.append(f"term {s.label} = {weight}")
        lines.append(f"  {s.dest} path{sign} rank {s.factor.rank}{flag}")
        lines.append("    reduced rows:")
        lines += _rows_to_text(s.factor.reduced_rows, "      ")
        lines.append("    combiner columns:")
        lines += _rows_to_text(s.factor.combiner.T, "      ")
    return "\n".join(lines) + "\n"
