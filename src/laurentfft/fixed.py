"""Two's-complement fixed-point scalars with saturation and a sticky overflow flag.

A value is an integer raw scaled by 2**frac_bits (Q notation: a 16-bit word
with 7 fraction bits is Q8.7 -- one sign bit, eight integer bits, seven
fraction bits).  All arithmetic is exact integer arithmetic with a single
rounding at the end of a multiply, so results are bit-reproducible across
runs and platforms.  A Fixed is an immutable (raw, fmt) named tuple whose
raw is a plain int in its word.  The ops take any (raw, fmt) pair and give a
Fixed only for a Fixed first operand: the fixed executor walks plain tuples,
and a Fixed is built only by quantize and for outside callers.

Every integer the device holds -- a width, a raw, a memory word -- passes
_admit (_admit_each for a sequence): a numpy integer is kept as the Python
int it holds, and anything else, or an integer outside its word (masked, it
would be another word), is a ValueError such as "Fixed raw must be an
integer in [-32768, 32767], got 40000".  A sequence that is not iterable is
one too: "input words must be iterable, got 5".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

ROUND_HALF_AWAY = "half-away"
ROUND_HALF_EVEN = "half-even"
ROUND_TRUNCATE = "truncate"
ROUNDING_MODES = (ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE)


def _admit(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """The plain int that operator.index gives for value.  ValueError names
    what the value is and shows it by repr if it is not an integer, or, when
    bounds are given, not one in [lo, hi] (hi None: not one >= lo)."""
    try:
        i = operator.index(value)
    except TypeError:
        i = None
    if i is None or lo is not None and not lo <= i <= (i if hi is None else hi):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{what} must be an integer{bounds}, got {value!r}")
    return i


def _admit_each(values, what: str, lo: int | None = None,
                hi: int | None = None) -> tuple[int, ...]:
    """values as a tuple of _admit's ints; ValueError names what (plural) if
    they are not iterable.  All are converted and bounded at once; only a
    failure walks them again, to name the first bad one "what i"."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what}s must be iterable, got {values!r}") from None
    try:
        ints = tuple(map(operator.index, values))
        if lo is None or not ints or lo <= min(ints) and (hi is None or max(ints) <= hi):
            return ints
    except TypeError:
        pass
    for i, v in enumerate(values):
        _admit(v, f"{what} {i}", lo, hi)


@dataclass(frozen=True)
class QFormat:
    """Word layout: total bits including sign, fraction bits.  scale,
    min_raw and max_raw are derived from them."""

    total_bits: int = 16
    frac_bits: int = 7

    def __post_init__(self):
        total = _admit(self.total_bits, "QFormat total_bits", 2, 32)
        frac = _admit(self.frac_bits, "QFormat frac_bits", 1, total - 1)
        object.__setattr__(self, "total_bits", total)
        object.__setattr__(self, "frac_bits", frac)
        # Derived bounds are plain attributes, not fields, so the saturating
        # ops read them at instance-attribute speed.
        object.__setattr__(self, "scale", 1 << self.frac_bits)
        object.__setattr__(self, "min_raw", -(1 << (self.total_bits - 1)))
        object.__setattr__(self, "max_raw", (1 << (self.total_bits - 1)) - 1)

    def widened(self, total_bits: int) -> "QFormat":
        return QFormat(total_bits, self.frac_bits)

    def __str__(self) -> str:
        return f"Q{self.total_bits - self.frac_bits - 1}.{self.frac_bits}"


class OverflowFlag:
    """Sticky overflow marker.  One instance per computation context, so
    concurrent transforms never share state."""

    def __init__(self):
        self.overflow = False

    def mark(self):
        self.overflow = True


# _tuple_new(Fixed, (raw, fmt)) is the same exact Fixed as Fixed(raw, fmt)
# for an int raw, without Fixed.__new__ and its check of the raw: the ops'
# unchecked path.  Every op builds a Fixed result with it from ints it
# already holds; the note above fx_add says why.
_tuple_new = tuple.__new__


class _FixedFields(NamedTuple):
    raw: int
    fmt: QFormat


class Fixed(_FixedFields):
    """An integer raw in a QFormat word.  Fixed(raw, fmt) and _replace refuse
    a fmt that is not a QFormat and admit raw by _admit within
    fmt.min_raw..fmt.max_raw.  The ops skip these checks: see _tuple_new."""

    __slots__ = ()

    def __new__(cls, raw, fmt: QFormat):
        if not isinstance(fmt, QFormat):
            raise ValueError(f"fmt must be a QFormat, got {fmt!r}")
        return _tuple_new(cls, (_admit(raw, "Fixed raw", fmt.min_raw, fmt.max_raw), fmt))

    @classmethod
    def _make(cls, iterable):  # so _replace checks its raw too
        return cls(*iterable)

    @property
    def value(self) -> float:
        return self.raw / self.fmt.scale


def _div_round(num: int, den: int, rounding: str) -> int:
    """Round num/den to an integer.  den > 0."""
    if rounding == ROUND_HALF_AWAY:  # the default, tested first
        q = (abs(num) * 2 + den) // (den * 2)
    elif rounding == ROUND_TRUNCATE:
        q = abs(num) // den
    elif rounding == ROUND_HALF_EVEN:
        q, r = divmod(abs(num), den)
        if 2 * r > den or (2 * r == den and q % 2 == 1):
            q += 1
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    return q if num >= 0 else -q


def _saturate(raw: int, fmt: QFormat, flags: OverflowFlag | None) -> int:
    if raw > fmt.max_raw:
        if flags is not None:
            flags.mark()
        return fmt.max_raw
    if raw < fmt.min_raw:
        if flags is not None:
            flags.mark()
        return fmt.min_raw
    return raw


def quantize(x, fmt: QFormat, rounding: str = ROUND_HALF_AWAY,
             flags: OverflowFlag | None = None) -> Fixed:
    """Quantize a real number onto the format's grid.

    The exact rational num * 2**frac_bits / den, num / den being the input's
    exact ratio, is rounded once.  Out-of-range values saturate to the
    nearest bound and mark the sticky flag.  Infinities, NaN and what is not
    a number have no value on the grid and raise ValueError.
    """
    try:
        num, den = x.as_integer_ratio()  # den > 0, as _div_round needs
    except AttributeError:  # integers such as np.int64
        try:
            num, den = operator.index(x), 1
        except TypeError:
            raise ValueError(f"cannot quantize {x!r}: not a number") from None
    except (OverflowError, ValueError):
        raise ValueError(f"cannot quantize {x!r}: not a finite number") from None
    raw = _div_round(num * fmt.scale, den, rounding)
    return _tuple_new(Fixed, (_saturate(raw, fmt, flags), fmt))


def widen(a: Fixed, total_bits: int) -> Fixed:
    """Same value in a wider word.  Lossless."""
    if total_bits < a.fmt.total_bits:
        raise ValueError("widen cannot narrow a value")
    return _tuple_new(Fixed, (a.raw, a.fmt.widened(total_bits)))


# fx_add, fx_sub and fx_mul take any (raw, fmt) pair, test the range inline
# and call _saturate only when that fails.  A Fixed first operand gives a Fixed
# built with _tuple_new, anything else the plain tuple (raw, fmt): by timeit on
# one pinned CPU an fx_add of two Fixed takes ~410 ns (~190 ns to build the
# Fixed, ~70 ns more to unpack the subclasses), of two tuples ~145 ns.
def fx_add(a: Fixed, b: Fixed, flags: OverflowFlag | None = None) -> Fixed:
    raw, fmt = a
    b_raw, b_fmt = b
    if b_fmt is not fmt and b_fmt != fmt:
        raise ValueError(f"format mismatch: {fmt} vs {b_fmt}")
    raw += b_raw
    if not fmt.min_raw <= raw <= fmt.max_raw:
        raw = _saturate(raw, fmt, flags)
    return _tuple_new(Fixed, (raw, fmt)) if a.__class__ is Fixed else (raw, fmt)


def fx_sub(a: Fixed, b: Fixed, flags: OverflowFlag | None = None) -> Fixed:
    raw, fmt = a
    b_raw, b_fmt = b
    if b_fmt is not fmt and b_fmt != fmt:
        raise ValueError(f"format mismatch: {fmt} vs {b_fmt}")
    raw -= b_raw
    if not fmt.min_raw <= raw <= fmt.max_raw:
        raw = _saturate(raw, fmt, flags)
    return _tuple_new(Fixed, (raw, fmt)) if a.__class__ is Fixed else (raw, fmt)


def fx_mul(a: Fixed, b: Fixed, rounding: str = ROUND_HALF_AWAY,
           flags: OverflowFlag | None = None) -> Fixed:
    """Multiply with a double-width intermediate and one final rounding.

    Operands must share frac_bits; the result takes the wider word so a
    32-bit accumulator value can absorb a 16-bit constant product.
    """
    (raw, fmt), (b_raw, b_fmt) = a, b
    if fmt.frac_bits != b_fmt.frac_bits:
        raise ValueError(f"format mismatch: {fmt} vs {b_fmt}")
    fmt = b_fmt if b_fmt.total_bits > fmt.total_bits else fmt
    raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, flags)
    return _tuple_new(Fixed, (raw, fmt)) if a.__class__ is Fixed else (raw, fmt)
