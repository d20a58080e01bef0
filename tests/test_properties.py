"""Property tests: the Q-format ops against an exact Fraction model, linearity
of the exact executor, and the output-word packing round trip."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentfft import (
    Fixed,
    OverflowFlag,
    QFormat,
    ROUND_HALF_AWAY,
    ROUND_HALF_EVEN,
    ROUND_TRUNCATE,
    TransformSelect,
    build_plan,
    execute,
    fx_add,
    fx_mul,
    fx_sub,
    pack_output,
    quantize,
    unpack_output,
)

MODES = st.sampled_from([ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE])
FORMATS = st.integers(2, 32).flatmap(
    lambda total: st.builds(QFormat, st.just(total), st.integers(1, total - 1)))
INT16 = st.integers(-32768, 32767)


def _round_model(q: Fraction, mode: str) -> int:
    if mode == ROUND_TRUNCATE:
        return math.trunc(q)
    if mode == ROUND_HALF_EVEN:
        return round(q)  # Fraction rounds half to even
    away = math.floor(abs(q) + Fraction(1, 2))
    return away if q >= 0 else -away


def _saturate_model(raw: int, fmt: QFormat) -> tuple[int, bool]:
    clamped = min(max(raw, fmt.min_raw), fmt.max_raw)
    return clamped, clamped != raw


def _check(result: Fixed, flags: OverflowFlag, fmt: QFormat, exact_raw: int):
    raw, saturated = _saturate_model(exact_raw, fmt)
    assert result.fmt == fmt
    assert result.raw == raw
    assert flags.overflow == saturated


@st.composite
def same_format_pair(draw):
    fmt = draw(FORMATS)
    raws = st.integers(fmt.min_raw, fmt.max_raw)
    return Fixed(draw(raws), fmt), Fixed(draw(raws), fmt)


@st.composite
def mul_operands(draw):
    fmt_a = draw(FORMATS)
    fmt_b = QFormat(draw(st.integers(fmt_a.frac_bits + 1, 32)), fmt_a.frac_bits)
    a = Fixed(draw(st.integers(fmt_a.min_raw, fmt_a.max_raw)), fmt_a)
    b = Fixed(draw(st.integers(fmt_b.min_raw, fmt_b.max_raw)), fmt_b)
    return draw(st.permutations([a, b]))


@st.composite
def quantize_inputs(draw):
    fmt = draw(FORMATS)
    # grid points and exact half-ulp ties, arbitrary doubles, values far
    # outside the range, subnormals and signed zeros, numpy scalars and ints
    x = draw(st.one_of(
        st.integers(-(1 << 40), 1 << 40).map(lambda k: k / (2 * fmt.scale)),
        st.integers(-(1 << 40), 1 << 40).map(lambda k: (2 * k + 1) / (2 * fmt.scale)),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-(2.0 ** 40), 2.0 ** 40),
        st.floats(-sys.float_info.min, sys.float_info.min),
        st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.integers(-(1 << 70), 1 << 70),
        st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    ))
    return x, fmt


class TestFixedOpsAgainstFractionModel:
    @given(same_format_pair())
    def test_fx_add(self, pair):
        a, b = pair
        flags = OverflowFlag()
        _check(fx_add(a, b, flags), flags, a.fmt, a.raw + b.raw)

    @given(same_format_pair())
    def test_fx_sub(self, pair):
        a, b = pair
        flags = OverflowFlag()
        _check(fx_sub(a, b, flags), flags, a.fmt, a.raw - b.raw)

    @given(mul_operands(), MODES)
    def test_fx_mul(self, operands, mode):
        a, b = operands
        out_fmt = max(a.fmt, b.fmt, key=lambda f: f.total_bits)
        exact = Fraction(a.raw * b.raw, out_fmt.scale)
        flags = OverflowFlag()
        _check(fx_mul(a, b, mode, flags), flags, out_fmt, _round_model(exact, mode))

    @given(quantize_inputs(), MODES)
    def test_quantize(self, inputs, mode):
        x, fmt = inputs
        # Fraction(np.int64) keeps numpy's wrapping int64 arithmetic
        exact = Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)
        flags = OverflowFlag()
        _check(quantize(x, fmt, mode, flags), flags, fmt,
               _round_model(exact * fmt.scale, mode))


@pytest.fixture(scope="module")
def plans():
    return {n: build_plan(n) for n in (4, 8, 12, 16)}


SIGNAL_VALUES = st.floats(-1e3, 1e3)
WEIGHTS = st.floats(-100, 100)


class TestExactLinearity:
    @settings(deadline=None)
    @given(st.sampled_from([4, 8, 12, 16]), st.sampled_from(list(TransformSelect)),
           WEIGHTS, WEIGHTS, st.data())
    def test_superposition(self, plans, n, select, alpha, beta, data):
        a = np.array(data.draw(st.lists(SIGNAL_VALUES, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(SIGNAL_VALUES, min_size=n, max_size=n)))
        plan = plans[n]
        lhs = execute(plan, alpha * a + beta * b, select, "exact").values
        rhs = (alpha * execute(plan, a, select, "exact").values
               + beta * execute(plan, b, select, "exact").values)
        # every output is a sum of at most 4N products of the inputs with
        # weights of magnitude <= 2, so rounding stays far below this bound
        scale = abs(alpha) * np.abs(a).sum() + abs(beta) * np.abs(b).sum()
        assert np.abs(lhs - rhs).max() <= 1e-12 * n * (1 + scale)


class TestPackingRoundTrip:
    @given(st.lists(st.tuples(INT16, INT16), max_size=64))
    def test_dft_words(self, pairs):
        words = pack_output(pairs, TransformSelect.DFT)
        assert all(0 <= w < 1 << 32 for w in words)
        assert unpack_output(words, TransformSelect.DFT) == tuple(pairs)

    @given(st.lists(INT16, max_size=64))
    def test_dht_words(self, raws):
        words = pack_output(raws, TransformSelect.DHT)
        assert all(0 <= w < 1 << 16 for w in words)
        assert unpack_output(words, TransformSelect.DHT) == tuple(raws)

    @given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=64))
    def test_oversized_raws_saturate(self, raws):
        flags = OverflowFlag()
        words = pack_output(raws, TransformSelect.DHT, flags)
        clamped = [_saturate_model(r, QFormat(16, 7)) for r in raws]
        assert unpack_output(words, TransformSelect.DHT) == tuple(c for c, _ in clamped)
        assert flags.overflow == any(s for _, s in clamped)
