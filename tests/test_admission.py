"""One admission rule for device integers: every site that takes a width, a
raw or a memory word from outside refuses the same bad values with the same
message shape, and keeps the same good ones as plain ints."""

import re

import numpy as np
import pytest

from laurentfft import (Fixed, FixedConfig, MemoryImage, QFormat, pack_output, read_output_words,
                        unpack_output, write_output_words)

Q16_7 = QFormat(16, 7)
WORD16 = (-0x8000, 0x7FFF)


def _written(v, tmp_path):
    path = tmp_path / "words.hex"
    write_output_words([0, v], path)
    return read_output_words(path)[1]


# (site, what the message names, (lo, hi) or None for unbounded, the value
# the site keeps for v); unbounded raws are tried good at the 16-bit word's
# bounds, where they pack without saturating
SITES = [
    ("QFormat total_bits", "QFormat total_bits", (2, 32), lambda v, _: QFormat(v, 1).total_bits),
    ("QFormat frac_bits", "QFormat frac_bits", (1, 31), lambda v, _: QFormat(32, v).frac_bits),
    ("FixedConfig acc_total_bits", "accumulator width", (16, 32),
     lambda v, _: FixedConfig(acc_total_bits=v).acc_total_bits),
    ("Fixed", "Fixed raw", WORD16, lambda v, _: Fixed(v, Q16_7).raw),
    ("Fixed._replace", "Fixed raw", WORD16, lambda v, _: Fixed(0, Q16_7)._replace(raw=v).raw),
    ("MemoryImage input word", "input word 2", WORD16,
     lambda v, _: MemoryImage((0, 0, v), "dft").input_words[2]),
    ("pack_output raw", "raw 1", None,
     lambda v, _: unpack_output(pack_output([0, v], "dht"), "dht")[1]),
    ("pack_output real raw", "real raw 1", None,
     lambda v, _: unpack_output(pack_output([(0, 0), (v, 0)], "dft"), "dft")[1][0]),
    ("pack_output imaginary raw", "imaginary raw 1", None,
     lambda v, _: unpack_output(pack_output([(0, 0), (0, v)], "dft"), "dft")[1][1]),
    ("unpack_output", "output word 1", (0, 0xFFFFFFFF),
     lambda v, _: pack_output(unpack_output([0, v], "dft"), "dft")[1]),
    ("write_output_words", "output word 1", (0, 0xFFFFFFFF), _written),
]
SITE_IDS = [site[0] for site in SITES]
DTYPES = [int, np.int16, np.int32, np.int64, np.uint16, np.uint32]


def _bad_values(bounds):
    bad = [1.5, "1", None, np.float64(2.0)]
    return bad if bounds is None else bad + [bounds[0] - 1, bounds[1] + 1]


@pytest.mark.parametrize("site, what, bounds, call", SITES, ids=SITE_IDS)
def test_bad_values_refused_by_name(site, what, bounds, call, tmp_path):
    shown = "" if bounds is None else rf" in \[{bounds[0]}, {bounds[1]}\]"
    for bad in _bad_values(bounds):
        message = rf"^{what} must be an integer{shown}, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad, tmp_path)


@pytest.mark.parametrize("site, what, bounds, call", SITES, ids=SITE_IDS)
def test_good_values_kept_as_plain_ints(site, what, bounds, call, tmp_path):
    tried = 0
    for good in (bounds or WORD16):
        for dtype in DTYPES:
            if dtype is not int and not np.iinfo(dtype).min <= good <= np.iinfo(dtype).max:
                continue  # the dtype cannot hold this bound
            kept = call(dtype(good), tmp_path)
            assert type(kept) is int and kept == good
            tried += 1
    assert tried >= 6
