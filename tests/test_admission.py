"""One admission rule for device integers: every site that takes a width, a
raw or a memory word from outside refuses the same bad values with the same
message shape, and keeps the same good ones as plain ints."""

import re

import numpy as np
import pytest

from laurentfft import (Fixed, FixedConfig, MemoryImage, QFormat, TransformResult, TransformSelect,
                        pack_output, read_output_words, unpack_output, write_output_words)
from laurentfft.fixed import _admit, _admit_each

from fixed_oracle import _fixed_result

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
    ("pack_output result raw", "raw 1", None,
     lambda v, _: unpack_output(pack_output(_fixed_result("dht", (0, v))), "dht")[1]),
    ("pack_output result real raw", "real raw 1", None,
     lambda v, _: unpack_output(pack_output(_fixed_result("dft", (0, v), (0, 0))), "dft")[1][0]),
    ("pack_output result imaginary raw", "imaginary raw 1", None,
     lambda v, _: unpack_output(pack_output(_fixed_result("dft", (0, 0), (0, v))), "dft")[1][1]),
    ("unpack_output", "output word 1", (0, 0xFFFFFFFF),
     lambda v, _: pack_output(_fixed_result("dft", *zip(*unpack_output([0, v], "dft"))))[1]),
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


# Each of these escaped as a TypeError ("'int' object is not iterable", "too
# many values to unpack", "zip() argument 2 is shorter ...") naming no argument.
@pytest.mark.parametrize("call, message", [
    (lambda _: MemoryImage(5, "dft"), "input words must be iterable, got 5"),
    (lambda _: MemoryImage(None, "dft"), "input words must be iterable, got None"),
    (lambda _: unpack_output(5, "dft"), "output words must be iterable, got 5"),
    (lambda p: write_output_words(5, p / "words.hex"), "output words must be iterable, got 5"),
    (lambda _: pack_output(TransformResult(TransformSelect.DHT, np.zeros(1), 5)),
     "raws must be iterable, got 5"),
], ids=["image-int", "image-None", "unpack-int", "write-int", "pack-dht-int"])
def test_malformed_sequences_refused_by_name(call, message, tmp_path):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


# A lower bound alone bounds a sequence as it bounds one integer; the fast
# path used to compare max(ints) <= None, swallow the TypeError and return None.
def test_lower_bound_alone_bounds_each_item():
    assert _admit(5, "w", 0) == 5
    kept = _admit_each([1, np.int64(2), 3], "w", 0)
    assert kept == (1, 2, 3) and all(type(i) is int for i in kept)
    assert _admit_each([], "w", 0) == ()
    with pytest.raises(ValueError, match=r"^w 1 must be an integer >= 0, got -1$"):
        _admit_each([0, -1, 2], "w", 0)
