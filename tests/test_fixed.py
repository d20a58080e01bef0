"""Q-format arithmetic: rounding, saturation, stickiness, bit-reproducibility."""

import dataclasses
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laurentfft import (
    Fixed,
    OverflowFlag,
    QFormat,
    ROUND_HALF_AWAY,
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    fx_add,
    fx_mul,
    fx_sub,
    quantize,
    widen,
)

from fixed_oracle import _check, _round_model

Q16_7 = QFormat(16, 7)
Q32_7 = QFormat(32, 7)
ROUNDINGS = [ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE]


class TestQFormat:
    def test_layout(self):
        assert Q16_7.scale == 128
        assert Q16_7.min_raw == -32768
        assert Q16_7.max_raw == 32767
        assert str(Q16_7) == "Q8.7"

    def test_cached_bounds_leave_value_semantics(self):
        fmt = QFormat(16, 7)
        assert (fmt.scale, fmt.min_raw, fmt.max_raw) == (128, -32768, 32767)
        fresh = QFormat(16, 7)
        assert fmt == fresh and fmt is not fresh
        assert hash(fmt) == hash(fresh)
        assert repr(fmt) == repr(fresh) == "QFormat(total_bits=16, frac_bits=7)"
        assert len(dataclasses.fields(fmt)) == 2
        assert fx_add(Fixed(1, fmt), Fixed(2, fresh)).raw == 3
        with pytest.raises(ValueError, match="format mismatch"):
            fx_add(Fixed(1, fmt), Fixed(1, QFormat(32, 7)))

    def test_validation(self):
        with pytest.raises(ValueError):
            QFormat(16, 16)
        with pytest.raises(ValueError):
            QFormat(40, 7)
        with pytest.raises(ValueError):
            QFormat(8, 0)
        # in range but not integers: a ValueError that names the field
        with pytest.raises(ValueError, match=r"frac_bits must be an integer in \[1, 15\], got 7.5"):
            QFormat(16, 7.5)
        with pytest.raises(ValueError,
                           match=r"total_bits must be an integer in \[2, 32\], got 16.0"):
            QFormat(16.0, 7)
        assert QFormat(np.int64(16), np.int64(7)) == QFormat(16, 7)


class TestQuantize:
    def test_device_constants(self):
        assert quantize(math.sqrt(0.5), Q16_7).raw == 91
        assert quantize(math.sqrt(0.5), Q16_7).value == 0.7109375
        assert quantize(math.cos(math.pi / 8), Q16_7).raw == 118
        assert quantize(math.sin(math.pi / 8), Q16_7).raw == 49

    def test_zero(self):
        assert quantize(0, Q16_7).raw == 0
        assert quantize(0.0, QFormat(32, 15)).raw == 0

    def test_rounding_modes_differ(self):
        # sqrt(2)/2 * 128 = 90.509...: nearest modes give 91, truncation 90
        assert quantize(math.sqrt(0.5), Q16_7, ROUND_HALF_EVEN).raw == 91
        assert quantize(math.sqrt(0.5), Q16_7, ROUND_TRUNCATE).raw == 90

    def test_exact_half_ties(self):
        # 1/256 scales to exactly 0.5 raw
        assert quantize(1 / 256, Q16_7, ROUND_HALF_AWAY).raw == 1
        assert quantize(1 / 256, Q16_7, ROUND_HALF_EVEN).raw == 0
        assert quantize(3 / 256, Q16_7, ROUND_HALF_EVEN).raw == 2
        assert quantize(-1 / 256, Q16_7, ROUND_HALF_AWAY).raw == -1

    def test_saturation_sets_sticky_flag(self):
        flags = OverflowFlag()
        assert quantize(1000.0, Q16_7, flags=flags).raw == 32767
        assert flags.overflow
        flags = OverflowFlag()
        assert quantize(-1000.0, Q16_7, flags=flags).raw == -32768
        assert flags.overflow

    def test_numpy_int_is_exact(self):
        # 2**62 * 2**15 overflows int64; the value must saturate, not wrap
        flags = OverflowFlag()
        assert quantize(np.int64(1 << 62), QFormat(32, 15), flags=flags).raw == (1 << 31) - 1
        assert flags.overflow
        assert quantize(np.int64(-3), Q16_7).raw == -384

    def test_non_finite_rejected(self):
        for x in (math.inf, -math.inf, math.nan):
            flags = OverflowFlag()
            with pytest.raises(ValueError, match="not a finite number"):
                quantize(x, Q16_7, ROUND_HALF_AWAY, flags)
            assert not flags.overflow

    # '1' escaped as TypeError, from operator.index
    @pytest.mark.parametrize("x", ["1", None, b"1", 1j, [1]], ids=repr)
    def test_non_number_rejected(self, x):
        message = f"cannot quantize {x!r}: not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quantize(x, Q16_7)

    def test_unknown_rounding_mode_rejected(self):
        # a float and a Fraction take quantize's two paths, and fx_mul rounds
        # by _div_round as the Fraction does: each names the mode
        for op in (lambda: quantize(0.3, Q16_7, rounding="bogus"),
                   lambda: quantize(Fraction(3, 10), Q16_7, rounding="bogus"),
                   lambda: fx_mul(Fixed(3, Q16_7), Fixed(5, Q16_7), "bogus")):
            with pytest.raises(ValueError, match="^unknown rounding mode 'bogus'$"):
                op()

    # The extremes of the double range, exact half-ulp ties and their
    # neighbours, on every rounding: the inputs whose ratio num / den shares
    # the most factors of two with the scale, and where a tie decides the
    # saturation.  A float and an np.float64 take quantize's float path, a
    # Fraction its exact-ratio path.  The property tests draw such classes,
    # not on every run.
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("fmt", [QFormat(2, 1), QFormat(16, 1), Q16_7, QFormat(16, 15),
                                     QFormat(32, 31)], ids=str)
    def test_edge_cases_against_fraction_model(self, fmt, rounding):
        ties = [(k + 0.5) / fmt.scale for k in (0, 1, 2, 3, fmt.max_raw - 1, fmt.max_raw)]
        assert all(Fraction(t) * fmt.scale % 1 == Fraction(1, 2) for t in ties)
        grid = [k / fmt.scale for k in (1, fmt.max_raw, fmt.max_raw + 1)]
        near = [math.nextafter(t, d) for t in ties + grid for d in (-math.inf, math.inf)]
        # signed zeros, subnormals, doubles whose last bit is a half or a
        # unit, and the ends of the float path
        extremes = [0.0, 5e-324, sys.float_info.min, 2.0 ** 51 + 0.5, 2.0 ** 52 - 0.5,
                    2.0 ** 52 + 0.5, 2.0 ** 53, math.nextafter(2.0 ** 64, 0), 2.0 ** 64, 1e300]
        for x in ties + grid + near + extremes:
            for v in (x, -x):
                want = _round_model(Fraction(v) * fmt.scale, rounding)
                for make in (float, np.float64, Fraction):
                    flags = OverflowFlag()
                    _check(quantize(make(v), fmt, rounding, flags), flags, fmt, want)

    @given(st.sampled_from([Q16_7, QFormat(16, 15), QFormat(32, 31), QFormat(2, 1)]),
           st.sampled_from(ROUNDINGS), st.data())
    def test_float_path_equals_ratio_path(self, fmt, rounding, data):
        # any double, doubles about the word's range, its ties and quarter
        # points, as a float and an np.float64, against Fraction(x)
        top = 2.0 * fmt.max_raw / fmt.scale
        k = st.integers(-(1 << 40), 1 << 40)
        x = data.draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(-top, top), k.map(lambda k: (k + 0.5) / fmt.scale),
                                k.map(lambda k: k / (4 * fmt.scale))))
        want_flags = OverflowFlag()
        want = quantize(Fraction(x), fmt, rounding, want_flags)
        for make in (float, np.float64):
            flags = OverflowFlag()
            got = quantize(make(x), fmt, rounding, flags)
            assert type(got) is Fixed and type(got.raw) is int
            assert (got.raw, got.fmt, flags.overflow) == (want.raw, fmt, want_flags.overflow)

    @pytest.mark.parametrize("x", [1e308, -1e308])
    def test_largest_np_float64_saturates_without_warning(self, x):
        flags = OverflowFlag()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = quantize(np.float64(x), Q16_7, ROUND_HALF_EVEN, flags)
        assert type(q.raw) is int and q.raw == (Q16_7.max_raw if x > 0 else Q16_7.min_raw)
        assert flags.overflow

    def test_round_trip_half_ulp(self):
        rng = np.random.default_rng(31)
        bound = 0.5 / Q16_7.scale
        for x in rng.uniform(-255, 255, size=500):
            q = quantize(float(x), Q16_7)
            assert abs(q.value - x) <= bound + 1e-18


class TestFixedValue:
    # None and (16, 7) escaped as AttributeError, reading min_raw
    @pytest.mark.parametrize("make", [
        lambda fmt: Fixed(1, fmt),
        lambda fmt: Fixed(0, Q16_7)._replace(fmt=fmt),
    ], ids=["Fixed", "_replace"])
    @pytest.mark.parametrize("fmt", [None, (16, 7), "Q8.7"], ids=repr)
    def test_fmt_must_be_a_qformat(self, make, fmt):
        message = f"fmt must be a QFormat, got {fmt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(fmt)

    def test_immutable(self):
        x = Fixed(5, Q16_7)
        with pytest.raises(AttributeError):
            x.raw = 6
        assert x.raw == 5

    def test_equal_values_hash_equal(self):
        a = fx_add(Fixed(2, Q16_7), Fixed(3, Q16_7))
        b = Fixed(5, QFormat(16, 7))
        assert a == b and a.fmt is not b.fmt
        assert hash(a) == hash(b)
        assert len({a, b, Fixed(5, QFormat(32, 7))}) == 2

    def test_repr(self):
        assert repr(Fixed(5, QFormat(16, 7))) == \
            "Fixed(raw=5, fmt=QFormat(total_bits=16, frac_bits=7))"

    @pytest.mark.parametrize("raw", [np.int16(-300), np.uint32(300), np.int64(-300)])
    def test_numpy_raw_kept_as_int(self, raw):
        x = Fixed(raw, Q16_7)
        assert type(x.raw) is int and x == Fixed(int(raw), Q16_7)

    def test_numpy_raws_compute_as_ints(self):
        # as int16 scalars the sum wraps to -5536 and the product to -43
        flags = OverflowFlag()
        big = Fixed(np.int16(30000), Q16_7)
        assert fx_add(big, big, flags).raw == 32767 and flags.overflow
        assert fx_mul(Fixed(np.int16(200), Q16_7), Fixed(np.int16(300), Q16_7)).raw == 469

    @pytest.mark.parametrize("raw", [1.5, 2.0, "3", None])
    def test_non_integer_raw_rejected(self, raw):
        message = (r"^Fixed raw must be an integer in \[-32768, 32767\], "
                   rf"got {re.escape(repr(raw))}$")
        with pytest.raises(ValueError, match=message):
            Fixed(raw, Q16_7)
        with pytest.raises(ValueError, match=message):
            Fixed(0, Q16_7)._replace(raw=raw)

    # Q8.7, an 18-bit accumulator word and a 32-bit word
    @pytest.mark.parametrize("fmt", [QFormat(16, 7), QFormat(18, 7), QFormat(32, 20)], ids=str)
    def test_raw_outside_its_word_rejected(self, fmt):
        # masked to the word, max_raw + 1 would print and store min_raw's bits
        for raw in (fmt.max_raw + 1, fmt.min_raw - 1):
            message = (rf"^Fixed raw must be an integer in \[{fmt.min_raw}, {fmt.max_raw}\], "
                       rf"got {raw}$")
            with pytest.raises(ValueError, match=message):
                Fixed(raw, fmt)
        with pytest.raises(ValueError, match=rf"got {fmt.max_raw + 1}$"):
            Fixed(0, fmt)._replace(raw=fmt.max_raw + 1)

    def test_million_is_no_q8_7_raw(self):
        # kept, it read .value 7812.5 in a word that holds at most 255.99,
        # and masked to 16 bits it was 0x4240, the bits of another word
        with pytest.raises(ValueError, match=r"^Fixed raw .*, got 1000000$"):
            Fixed(10**6, Q16_7)

    @pytest.mark.parametrize("fmt", [QFormat(16, 7), QFormat(18, 7), QFormat(32, 20)], ids=str)
    def test_raw_at_each_bound_accepted(self, fmt):
        dtypes = [int, np.int32, np.int64] + ([np.int16] if fmt.total_bits == 16 else [])
        for raw in (fmt.min_raw, fmt.max_raw):
            for dtype in dtypes:
                x = Fixed(dtype(raw), fmt)
                assert type(x.raw) is int and x.raw == raw
                assert Fixed(0, fmt)._replace(raw=dtype(raw)) == x

    def test_replace_keeps_an_int_raw(self):
        x = Fixed(0, Q16_7)._replace(raw=np.int16(-300))
        assert type(x) is Fixed and type(x.raw) is int and x == Fixed(-300, Q16_7)


class TestAddSub:
    def test_basic(self):
        a = quantize(1.0, Q16_7)
        b = quantize(2.0, Q16_7)
        assert fx_add(a, b).raw == 384
        assert fx_sub(b, a).value == 1.0

    def test_additive_identity(self):
        x = Fixed(12345, Q16_7)
        assert fx_add(x, Fixed(0, Q16_7)) == x

    def test_saturation(self):
        flags = OverflowFlag()
        top = Fixed(Q16_7.max_raw, Q16_7)
        ulp = Fixed(1, Q16_7)
        assert fx_add(top, ulp, flags).raw == Q16_7.max_raw
        assert flags.overflow

    def test_format_mismatch(self):
        with pytest.raises(ValueError):
            fx_add(Fixed(1, Q16_7), Fixed(1, QFormat(32, 7)))
        with pytest.raises(ValueError):
            fx_sub(Fixed(1, Q16_7), Fixed(1, QFormat(32, 7)))

    def test_commutative(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = Fixed(int(rng.integers(-32768, 32768)), Q16_7)
            b = Fixed(int(rng.integers(-32768, 32768)), Q16_7)
            assert fx_add(a, b) == fx_add(b, a)


class TestMul:
    def test_device_product(self):
        a = quantize(16.0, Q16_7)
        b = quantize(math.sqrt(0.5), Q16_7)
        out = fx_mul(a, b)
        assert (a.raw, b.raw) == (2048, 91)
        assert out.raw == 1456
        assert out.value == 11.375

    def test_identities(self):
        one = quantize(1.0, Q16_7)
        zero = Fixed(0, Q16_7)
        rng = np.random.default_rng(33)
        for _ in range(100):
            x = Fixed(int(rng.integers(-256, 257)), Q16_7)
            assert fx_mul(x, one) == x
            assert fx_mul(x, zero).raw == 0

    def test_commutative(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            a = Fixed(int(rng.integers(-2000, 2000)), Q16_7)
            b = Fixed(int(rng.integers(-2000, 2000)), Q16_7)
            assert fx_mul(a, b) == fx_mul(b, a)

    def test_wide_result_format(self):
        wide = Fixed(1 << 20, QFormat(32, 7))
        narrow = quantize(0.5, Q16_7)
        out = fx_mul(wide, narrow)
        assert out.fmt == QFormat(32, 7)
        assert out.raw == 1 << 19

    def test_frac_mismatch(self):
        with pytest.raises(ValueError):
            fx_mul(Fixed(1, QFormat(16, 7)), Fixed(1, QFormat(16, 8)))

    def test_single_rounding_half_away(self):
        # 3 * 0.5 ulp products: raw product 3, shift 7 -> 3/128 rounds to 0
        assert fx_mul(Fixed(3, Q16_7), Fixed(1, Q16_7)).raw == 0
        # raw product 64/128 = exactly 0.5 -> away from zero
        assert fx_mul(Fixed(64, Q16_7), Fixed(1, Q16_7)).raw == 1
        assert fx_mul(Fixed(-64, Q16_7), Fixed(1, Q16_7)).raw == -1

    # the dense oracle multiplies with fx_mul too, so only this model sees
    # fx_mul's rounding: products of both signs, at ties and between them
    @pytest.mark.parametrize("rounding", [ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE])
    def test_rounding_against_fraction_model(self, rounding):
        for a in range(-320, 321, 4):
            for b in (-3, 1, 2):
                flags = OverflowFlag()
                _check(fx_mul(Fixed(a, Q16_7), Fixed(b, Q16_7), rounding, flags), flags, Q16_7,
                       _round_model(Fraction(a * b, Q16_7.scale), rounding))


class TestDifferentialAgainstUnboundedInts:
    def test_no_overflow_means_exact(self):
        # random op sequences agree with unbounded rational arithmetic
        # whenever the sticky flag stays clear
        rng = np.random.default_rng(35)
        for _ in range(100):
            flags = OverflowFlag()
            acc = Fixed(int(rng.integers(-1000, 1000)), Q16_7)
            model = Fraction(acc.raw, 128)
            for _ in range(20):
                op = rng.integers(0, 3)
                x = Fixed(int(rng.integers(-500, 500)), Q16_7)
                if op == 0:
                    acc = fx_add(acc, x, flags)
                    model = model + Fraction(x.raw, 128)
                elif op == 1:
                    acc = fx_sub(acc, x, flags)
                    model = model - Fraction(x.raw, 128)
                else:
                    acc = fx_mul(acc, x, flags=flags)
                    exact = model * Fraction(x.raw, 128) * 128
                    # round half away from zero to the raw grid
                    sign = -1 if exact < 0 else 1
                    model = Fraction(sign * ((abs(exact.numerator) * 2 + exact.denominator)
                                             // (2 * exact.denominator)), 128)
            if not flags.overflow:
                assert Fraction(acc.raw, 128) == model


class TestDeterminism:
    def test_bit_identical_across_threads(self):
        def work(_):
            flags = OverflowFlag()
            acc = quantize(1.6180339887, Q16_7, flags=flags)
            for k in range(50):
                acc = fx_mul(acc, quantize(0.99, Q16_7), flags=flags)
                acc = fx_add(acc, Fixed(k, Q16_7), flags)
            return acc.raw

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert len(set(results)) == 1


class TestWiden:
    def test_value_preserved(self):
        x = quantize(-27.375, Q16_7)
        w = widen(x, 32)
        assert w.raw == x.raw and w.value == x.value
        assert w.fmt == QFormat(32, 7)

    def test_cannot_narrow(self):
        with pytest.raises(ValueError):
            widen(Fixed(1, QFormat(32, 7)), 16)


class TestResultConstruction:
    """Each op builds an exact Fixed with an int raw, equal and hash-equal to
    Fixed(raw, fmt), in range and when it saturates."""

    @staticmethod
    def check(r):
        assert type(r) is Fixed and type(r.raw) is int
        assert r == Fixed(r.raw, r.fmt) and hash(r) == hash(Fixed(r.raw, r.fmt))

    @pytest.mark.parametrize("op, fmt, saturates", [
        # an equal format that is another object: the result takes the first's
        (lambda f: fx_add(Fixed(3, Q16_7), Fixed(4, QFormat(16, 7)), f), Q16_7, False),
        (lambda f: fx_add(Fixed(Q16_7.max_raw, Q16_7), Fixed(1, Q16_7), f), Q16_7, True),
        (lambda f: fx_sub(Fixed(3, Q16_7), Fixed(4, Q16_7), f), Q16_7, False),
        (lambda f: fx_sub(Fixed(Q16_7.min_raw, Q16_7), Fixed(1, Q16_7), f), Q16_7, True),
        (lambda f: fx_mul(Fixed(1 << 20, Q32_7), Fixed(64, Q16_7), flags=f), Q32_7, False),
        (lambda f: fx_mul(Fixed(64, Q16_7), Fixed(1 << 20, Q32_7), flags=f), Q32_7, False),
        (lambda f: fx_mul(Fixed(-1 << 15, Q16_7), Fixed(-1 << 15, Q16_7), ROUND_HALF_EVEN, f),
         Q16_7, True),
        (lambda f: quantize(1.5, Q16_7, flags=f), Q16_7, False),
        (lambda f: quantize(np.int64(-3), Q16_7, flags=f), Q16_7, False),
        (lambda f: quantize(Fraction(1, 3), Q16_7, ROUND_TRUNCATE, f), Q16_7, False),
        (lambda f: quantize(1e300, Q16_7, flags=f), Q16_7, True),
        (lambda f: quantize(-1e300, Q16_7, ROUND_HALF_EVEN, f), Q16_7, True)],
        ids=["add", "add-saturating", "sub", "sub-saturating", "mul-wide-first",
             "mul-wide-second", "mul-saturating", "quantize-float", "quantize-np-int",
             "quantize-fraction", "quantize-saturating", "quantize-saturating-negative"])
    def test_ops(self, op, fmt, saturates):
        flags = OverflowFlag()
        r = op(flags)
        self.check(r)
        assert r.fmt is fmt and flags.overflow == saturates

    @pytest.mark.parametrize("raw", [0, Q16_7.max_raw, Q16_7.min_raw])
    def test_widen(self, raw):
        r = widen(Fixed(raw, Q16_7), 32)
        self.check(r)
        assert r.fmt == Q32_7 and r.raw == raw


def _edge_raws(fmt):
    return (0, 1, -1, fmt.min_raw, fmt.max_raw)


class TestPlainPairs:
    """The fixed executor walks plain (raw, fmt) tuples through the same ops.
    A plain first operand gives the exact tuple (raw, fmt) that a Fixed one
    gives as a Fixed, with the same flag, at every edge raw of the word."""

    @staticmethod
    def check(op, a, b, *args):
        fixed_flags, plain_flags = OverflowFlag(), OverflowFlag()
        want = op(a, b, *args, fixed_flags)
        assert type(want) is Fixed and type(want.raw) is int
        # the second operand as a plain pair and as a Fixed, the walk's ROM constant
        for b_kind in (tuple, lambda x: x):
            got = op(tuple(a), b_kind(b), *args, plain_flags)
            assert type(got) is tuple and type(got[0]) is int
            assert got == (want.raw, want.fmt) and got[1] is want.fmt
        assert plain_flags.overflow == fixed_flags.overflow
        return fixed_flags.overflow

    @pytest.mark.parametrize("op", [fx_add, fx_sub])
    @pytest.mark.parametrize("fmt", [Q16_7, Q32_7], ids=str)
    def test_add_sub(self, op, fmt):
        saturated = [self.check(op, Fixed(a, fmt), Fixed(b, fmt))
                     for a in _edge_raws(fmt) for b in _edge_raws(fmt)]
        assert any(saturated) and not all(saturated)

    @pytest.mark.parametrize("rounding", [ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE])
    @pytest.mark.parametrize("a_fmt, b_fmt", [(Q16_7, Q16_7), (Q32_7, Q32_7), (Q32_7, Q16_7),
                                              (Q16_7, Q32_7)], ids=["16", "32", "32x16", "16x32"])
    def test_mul(self, rounding, a_fmt, b_fmt):
        saturated = [self.check(fx_mul, Fixed(a, a_fmt), Fixed(b, b_fmt), rounding)
                     for a in _edge_raws(a_fmt) for b in _edge_raws(b_fmt)]
        assert any(saturated) and not all(saturated)
