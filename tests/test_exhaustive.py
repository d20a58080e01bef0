"""Exhaustive conformance of the fixed executor on two small input spaces.

Each space holds every signal of its length whose samples are raws of a
small word over its scale, so quantize takes each sample exactly:

  N = 4, QFormat(4, 1) words: 16 values per sample, 65536 inputs;
  N = 8, QFormat(2, 1) words: 4 values per sample, 65536 inputs.

Input i of a space has, as sample k, digit k of i in base 2**total_bits,
read as a two's-complement raw.  check_space runs execute on inputs of a
space, at the space's accumulator width (5 bits at N = 4, 3 bits at N = 8)
and half-away rounding, and asserts that its raws and overflow flag are the
dense oracle's.  Those widths saturate on some inputs and not on others.

Tier-1 runs a fixed slice, every STRIDE-th input of each space (an odd
stride, so every sample takes every value), for DFT and DHT.  The full
spaces run without a stride as a CI step:

  PYTHONPATH=src:tests python -c 'from test_exhaustive import check_space; check_space(8, "dft")'
"""

import numpy as np
import pytest

from laurentfft import FixedConfig, QFormat, TransformSelect, build_plan, execute, quantize

from fixed_oracle import _oracle_fixed

# N -> (sample word, accumulator width)
SPACES = {4: (QFormat(4, 1), 5), 8: (QFormat(2, 1), 3)}
ROUNDING = "half-away"
SPACE_SIZE = 65536
STRIDE = 17


def space_signals(n: int, indices) -> np.ndarray:
    """Inputs indices of the space of length n, one signal per row."""
    fmt = SPACES[n][0]
    bits, half = fmt.total_bits, fmt.max_raw + 1
    digits = (np.asarray(indices)[:, None] >> (bits * np.arange(n))) & ((1 << bits) - 1)
    return ((digits ^ half) - half) / fmt.scale


def check_space(n: int, select, indices=range(SPACE_SIZE)) -> tuple[int, int]:
    """Assert that execute gives the oracle's raws and flag on inputs
    indices of the space of length n (all of them by default).  Returns the
    number of inputs run and how many of them saturated."""
    fmt, acc_bits = SPACES[n]
    cfg = FixedConfig(fmt, ROUNDING, acc_bits)
    plan, select = build_plan(n), TransformSelect(select)
    saturated = 0
    for index, v in zip(indices, space_signals(n, indices), strict=True):
        out = execute(plan, v, select, cfg)
        assert (out.real_raw, out.imag_raw, out.overflow) == _oracle_fixed(plan, v, select, cfg), \
            (n, select, index)
        saturated += out.overflow
    return len(indices), saturated


@pytest.mark.parametrize("n", SPACES)
def test_space_enumerates_every_exact_signal(n):
    fmt = SPACES[n][0]
    signals = space_signals(n, range(SPACE_SIZE))
    raws = signals * fmt.scale
    assert len({row.tobytes() for row in signals}) == SPACE_SIZE
    assert raws.min() == fmt.min_raw and raws.max() == fmt.max_raw
    assert all(quantize(s, fmt).raw == s * fmt.scale for s in np.unique(signals))


@pytest.mark.parametrize("select", list(TransformSelect))
@pytest.mark.parametrize("n", SPACES)
def test_slice_matches_the_oracle(n, select):
    runs, saturated = check_space(n, select, range(0, SPACE_SIZE, STRIDE))
    assert runs == len(range(0, SPACE_SIZE, STRIDE))
    assert 0 < saturated < runs
