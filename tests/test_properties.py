"""Property tests: the Q-format ops against an exact Fraction model, linearity
of the exact executor, and the round trips of output-word packing and of
stimulus and output-word files, with raws and words as Python or numpy
integers."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentfft import (
    Fixed,
    MemoryImage,
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
    load_stimulus,
    pack_output,
    quantize,
    read_output_words,
    unpack_output,
    write_output_words,
    write_stimulus,
)

from fixed_oracle import _check, _fixed_result, _pack_model, _round_model

MODES = st.sampled_from([ROUND_HALF_AWAY, ROUND_HALF_EVEN, ROUND_TRUNCATE])
FORMATS = st.integers(2, 32).flatmap(
    lambda total: st.builds(QFormat, st.just(total), st.integers(1, total - 1)))
INT16 = st.integers(-32768, 32767)
WORD32 = st.integers(0, (1 << 32) - 1)
INT_DTYPES = (np.int16, np.int32, np.int64, np.uint16, np.uint32)


def _holding(values) -> list:
    """The dtypes of INT_DTYPES that hold every int in values."""
    return [d for d in INT_DTYPES
            if all(np.iinfo(d).min <= v <= np.iinfo(d).max for v in values)]


def np_scalar(raw: int):
    """raw as a numpy scalar of a dtype that holds it."""
    return st.sampled_from(_holding([raw])).map(lambda d: d(raw))


def np_ints(values: list):
    """values, Python ints or (re, im) pairs of them, as numpy integers of
    one dtype that holds them all: an array, or a list of scalars (of
    tuples of scalars, for pairs)."""
    flat = [v for x in values for v in (x if isinstance(x, tuple) else (x,))]
    arrays = st.sampled_from(_holding(flat)).map(lambda d: np.array(values, dtype=d))
    return st.one_of(arrays, arrays.map(lambda a: [tuple(x) if a.ndim > 1 else x for x in a]))


def _ints(values) -> bool:
    """Every value, or each value of every pair, is a plain int."""
    return all(type(v) is int for x in values for v in (x if isinstance(x, tuple) else (x,)))


@st.composite
def operand(draw, fmt: QFormat):
    """A Fixed in fmt and its raw as a Python int; Fixed is given that raw
    as a Python int or as a numpy scalar that holds it."""
    raw = draw(st.integers(fmt.min_raw, fmt.max_raw))
    return Fixed(draw(st.one_of(st.just(raw), np_scalar(raw))), fmt), raw


@st.composite
def same_format_pair(draw):
    fmt = draw(FORMATS)
    return draw(operand(fmt)), draw(operand(fmt))


@st.composite
def mul_operands(draw):
    fmt_a = draw(FORMATS)
    fmt_b = QFormat(draw(st.integers(fmt_a.frac_bits + 1, 32)), fmt_a.frac_bits)
    return draw(st.permutations([draw(operand(fmt_a)), draw(operand(fmt_b))]))


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
        (a, a_raw), (b, b_raw) = pair
        flags = OverflowFlag()
        _check(fx_add(a, b, flags), flags, a.fmt, a_raw + b_raw)

    @given(same_format_pair())
    def test_fx_sub(self, pair):
        (a, a_raw), (b, b_raw) = pair
        flags = OverflowFlag()
        _check(fx_sub(a, b, flags), flags, a.fmt, a_raw - b_raw)

    @given(mul_operands(), MODES)
    def test_fx_mul(self, operands, mode):
        (a, a_raw), (b, b_raw) = operands
        out_fmt = max(a.fmt, b.fmt, key=lambda f: f.total_bits)
        exact = Fraction(a_raw * b_raw, out_fmt.scale)
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
    """Each round trip from a fixed-mode result of Python ints, then again
    from the same raws and words as numpy integers: the same answer, in
    plain ints."""

    @given(st.lists(st.tuples(INT16, INT16), max_size=64), st.data())
    def test_dft_words(self, pairs, data):
        re_raw, im_raw = [re for re, _ in pairs], [im for _, im in pairs]
        words = pack_output(_fixed_result("dft", re_raw, im_raw))
        assert all(0 <= w < 1 << 32 for w in words)
        assert unpack_output(words, TransformSelect.DFT) == tuple(pairs)
        np_result = _fixed_result("dft", data.draw(np_ints(re_raw)), data.draw(np_ints(im_raw)))
        np_words = pack_output(np_result)
        assert np_words == words and _ints(np_words)
        raws = unpack_output(data.draw(np_ints(list(words))), TransformSelect.DFT)
        assert raws == tuple(pairs) and _ints(raws)

    @given(st.lists(INT16, max_size=64), st.data())
    def test_dht_words(self, raws, data):
        words = pack_output(_fixed_result("dht", raws))
        assert all(0 <= w < 1 << 16 for w in words)
        assert unpack_output(words, TransformSelect.DHT) == tuple(raws)
        np_words = pack_output(_fixed_result("dht", data.draw(np_ints(raws))))
        assert np_words == words and _ints(np_words)
        np_raws = unpack_output(data.draw(np_ints(list(words))), TransformSelect.DHT)
        assert np_raws == tuple(raws) and _ints(np_raws)

    @given(st.sampled_from(list(TransformSelect)),
           st.lists(st.tuples(st.integers(-(1 << 40), 1 << 40), st.integers(-(1 << 40), 1 << 40)),
                    max_size=64), st.data())
    def test_oversized_raws_saturate(self, select, pairs, data):
        re_raw, im_raw = [re for re, _ in pairs], [im for _, im in pairs]
        if select is TransformSelect.DHT:
            im_raw = None
        result = _fixed_result(select, re_raw, im_raw)
        flags = OverflowFlag()
        words = pack_output(result, flags=flags)
        assert (words, flags.overflow) == _pack_model(result)
        np_flags = OverflowFlag()
        np_result = _fixed_result(select, data.draw(np_ints(re_raw)),
                                  None if im_raw is None else data.draw(np_ints(im_raw)))
        np_words = pack_output(np_result, flags=np_flags)
        assert np_words == words and _ints(np_words) and np_flags.overflow == flags.overflow


@pytest.fixture(scope="module")
def word_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("words")


class TestFileRoundTrip:
    """A file written from numpy integers has the bytes of the one written
    from the same Python ints, and reads back as them."""

    @given(st.lists(INT16, min_size=1, max_size=64), st.sampled_from(list(TransformSelect)),
           st.data())
    def test_stimulus_files(self, word_dir, words, select, data):
        image = MemoryImage(data.draw(np_ints(words)), select)
        assert image.input_words == tuple(words) and _ints(image.input_words)
        write_stimulus(MemoryImage(words, select), word_dir / "py.txt")
        write_stimulus(image, word_dir / "np.txt")
        assert (word_dir / "np.txt").read_bytes() == (word_dir / "py.txt").read_bytes()
        assert load_stimulus(word_dir / "np.txt") == MemoryImage(words, select)

    @given(st.lists(INT16, max_size=64), st.sampled_from(list(TransformSelect)))
    def test_every_image_that_constructs_reads_back(self, word_dir, words, select):
        try:
            image = MemoryImage(words, select)
        except ValueError as exc:
            assert not words and str(exc) == "memory image contains no input words"
            return
        write_stimulus(image, word_dir / "image.txt")
        assert load_stimulus(word_dir / "image.txt") == image

    @given(st.lists(WORD32, max_size=64), st.data())
    def test_output_word_files(self, word_dir, words, data):
        write_output_words(words, word_dir / "py.hex")
        write_output_words(data.draw(np_ints(words)), word_dir / "np.hex")
        assert (word_dir / "np.hex").read_bytes() == (word_dir / "py.hex").read_bytes()
        assert read_output_words(word_dir / "np.hex") == tuple(words)
