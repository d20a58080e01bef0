"""Software model of the device memory: a MemoryImage holds what the device
reads (16-bit input words, the transform-select bit) and run_device returns
what it writes, a DeviceOutput (32-bit packed output words, overflow flag).

Packing (word-level big-endian: "first" means most significant):
  DFT  word = [ real raw : 16 bits | imag raw : 16 bits ]
  DHT  word = [ zero     : 16 bits | real raw : 16 bits ]

The model is functional, not cycle-accurate: run_device is exactly the
fixed-point engine followed by packing, so a testbench diff against RTL
isolates arithmetic bugs from memory-layout bugs.

Words and raws from outside pass fixed._admit_each, as a Fixed raw does:
"input word 2 must be an integer in [-32768, 32767], got 40000".

Testbench interchange files are plain text, one hex word per line:
stimulus files start with a header line "SELECT DFT" or "SELECT DHT"
followed by 16-bit input words; output files hold 32-bit words.  A word
is 1-4 (stimulus) or 1-8 (output) hex digits in either case, with no sign,
prefix or separator, and a reader names path:line of the first that is
not, or of the first non-ASCII byte.  Files are read and written whole, on
a raw file descriptor.  The writers overwrite an existing file in place
rather than truncating it to zero first (see _overwrite_text), and fsync
nothing.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import FixedConfig, TransformResult, TransformSelect, _fixed_config, execute
from .fixed import OverflowFlag, QFormat, _admit_each, _saturate
from .plan import LaurentPlan

_WORD16 = 0xFFFF
_WORD32 = 0xFFFFFFFF
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_HALF_WORD = QFormat(16, 7)  # saturation bounds of a 16-bit half word


class StimulusFormatError(ValueError):
    """Malformed testbench interchange file: a stimulus or an output word file."""


@dataclass(frozen=True)
class MemoryImage:
    """What the device reads: at least one input word in signed 16-bit
    range, which pass fixed._admit_each and are stored as Python ints, and
    the select bit, stored as a TransformSelect whatever its spelling."""

    input_words: tuple[int, ...]
    select: TransformSelect

    def __post_init__(self):
        object.__setattr__(self, "input_words",
                           _admit_each(self.input_words, "input word", -0x8000, 0x7FFF))
        if not self.input_words:
            raise ValueError("memory image contains no input words")
        object.__setattr__(self, "select", TransformSelect(self.select))


class DeviceOutput(NamedTuple):
    """What the device writes: 32-bit packed words and the overflow flag."""

    output_words: tuple[int, ...]
    overflow: bool


def _half_word(raw: int, flags: OverflowFlag | None) -> int:
    if not -0x8000 <= raw <= 0x7FFF:
        raw = _saturate(raw, _HALF_WORD, flags)
    return raw & _WORD16


def pack_output(spectrum, select: TransformSelect | None = None,
                flags: OverflowFlag | None = None) -> tuple[int, ...]:
    """Pack a fixed-mode result into 32-bit output words.

    Accepts a fixed-mode TransformResult, which carries its select, or raw
    integers and a select (a TransformSelect or its name in any case):
    (re, im) pairs for DFT, single raws for DHT.  Either form's raws pass
    fixed._admit_each unbounded, are paired by one strict zip for DFT, and
    saturate beyond 16 bits, marking the flags context when one is supplied.
    """
    if isinstance(spectrum, TransformResult):
        if spectrum.real_raw is None or (spectrum.imag_raw is None
                                         and spectrum.select is TransformSelect.DFT):
            raise ValueError("packing is defined only for fixed-mode results")
        if select is not None and TransformSelect(select) is not spectrum.select:
            raise ValueError(f"select {select} disagrees with the result's {spectrum.select}")
        select, raws = spectrum.select, (spectrum.real_raw, spectrum.imag_raw)
    else:
        select, spectrum = TransformSelect(select), tuple(spectrum)
        raws = (spectrum, None) if select is TransformSelect.DHT else (
            zip(*spectrum, strict=True) if spectrum else ((), ()))

    if select is TransformSelect.DHT:
        return tuple([_half_word(raw, flags) for raw in _admit_each(raws[0], "raw")])
    re_raw, im_raw = raws
    pairs = zip(_admit_each(re_raw, "real raw"), _admit_each(im_raw, "imaginary raw"), strict=True)
    return tuple([(_half_word(re_raw, flags) << 16) | _half_word(im_raw, flags)
                  for re_raw, im_raw in pairs])


def unpack_output(words, select: TransformSelect):
    """Inverse of pack_output: recover signed 16-bit raws as Python ints.  A
    word that is not an integer in [0, 2**32), or a DHT word whose upper
    half is not zero, raises ValueError naming its index."""
    select, words = TransformSelect(select), _admit_each(words, "output word", 0, _WORD32)
    # each 16-bit half h sign-extended as (h ^ 0x8000) - 0x8000
    if select is TransformSelect.DFT:
        return tuple((((w >> 16) ^ 0x8000) - 0x8000, ((w & _WORD16) ^ 0x8000) - 0x8000)
                     for w in words)
    for i, w in enumerate(words):
        if w > _WORD16:
            raise ValueError(f"DHT output word {i} = {w:#010x} has a nonzero upper half")
    return tuple((w ^ 0x8000) - 0x8000 for w in words)


def run_device(image: MemoryImage, plan: LaurentPlan,
               cfg: FixedConfig | None = None) -> DeviceOutput:
    """Model one device pass: load, run the core block, pack (cfg None: DEFAULT_CONFIG).
    The image is left as it was; the flag is the engine's or the packing's."""
    cfg = _fixed_config(cfg)
    samples = np.array(image.input_words, dtype=np.float64) / cfg.fmt.scale
    result = execute(plan, samples, image.select, cfg)
    flags = OverflowFlag()
    words = pack_output(result, flags=flags)
    return DeviceOutput(words, result.overflow or flags.overflow)


def _hex_words(path, lines: list[str], digits: int, first: int = 0) -> list[int]:
    """The values of the hex words on lines[first:], blank lines skipped.

    int(text, 16) alone would also take a sign, a 0x prefix, underscores and
    any number of digits.  So the stripped words are checked all at once:
    their joined characters against the hex digits and the longest against
    digits.  Only when that fails are the lines walked again, to name
    path:line of the first word that is not 1 to digits hex digits.
    """
    words = [text for text in map(str.strip, lines[first:]) if text]
    if _HEX_DIGITS.issuperset("".join(words)) and max(map(len, words), default=0) <= digits:
        return [int(text, 16) for text in words]
    lineno, text = next((i, text) for i, text in enumerate(map(str.strip, lines[first:]), first + 1)
                        if text and (len(text) > digits or not _HEX_DIGITS.issuperset(text)))
    raise StimulusFormatError(
        f"{path}:{lineno}: malformed hex word {text!r} (expected 1 to {digits} hex digits)"
    )


def _read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file; StimulusFormatError names path:line of a non-ASCII byte.

    The file is read whole through an unbuffered FileIO, which sizes its
    result from fstat and reads into it directly, with no BufferedReader
    copying in between.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # the bad byte ends the line that splitlines would number lineno
        lineno = len((data[:exc.start].decode("ascii") + "?").splitlines())
        raise StimulusFormatError(
            f"{path}:{lineno}: non-ASCII byte {data[exc.start]:#04x}") from None


def load_stimulus(path) -> MemoryImage:
    """Read a stimulus file: SELECT header plus one 16-bit hex word per line."""
    lines = _read_ascii_lines(path)
    header_no = next((i for i, line in enumerate(lines, 1) if line.strip()), None)
    if header_no is None:
        raise StimulusFormatError(f"{path}: empty stimulus file")
    header = lines[header_no - 1].strip()
    parts = header.upper().split()
    if len(parts) != 2 or parts[0] != "SELECT" or parts[1] not in TransformSelect.__members__:
        names = " or ".join(f"'SELECT {name}'" for name in TransformSelect.__members__)
        raise StimulusFormatError(f"{path}:{header_no}: expected {names}, got {header!r}")
    select = TransformSelect[parts[1]]
    # each 16-bit word h sign-extended as (h ^ 0x8000) - 0x8000
    words = tuple([(w ^ 0x8000) - 0x8000 for w in _hex_words(path, lines, 4, header_no)])
    if not words:
        raise StimulusFormatError(f"{path}: stimulus contains no input words")
    return MemoryImage(words, select)


def _overwrite_text(path, text: str) -> None:
    """Write text to path, overwriting the file in place.

    Same bytes, inode, permission bits and symlink target as
    open(path, "w"), and a new file gets 0o666 & ~umask as it would there.
    The file is not truncated to zero on open: ext4 (auto_da_alloc) starts
    writeback at close() of a non-empty file that was truncated to zero and
    rewritten, and that implicit flush is all this drops; there is no fsync
    either way.  The bytes go out by os.write on the descriptor os.open
    returns, looping on short writes, with no file object around it; the
    descriptor is closed whether or not a write fails.  Only a regular file
    that is still longer than the new text is then cut to its length, since
    ftruncate fails on /dev/null (EINVAL) and on pipes and FIFOs (ESPIPE).
    """
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > done:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def write_stimulus(image: MemoryImage, path):
    words = image.input_words
    _overwrite_text(path, f"SELECT {image.select.value.upper()}\n" +
                    "%04X\n" * len(words) % tuple([raw & _WORD16 for raw in words]))


def write_output_words(words, path):
    """One 32-bit hex word per line.  Words may be Python or numpy integers;
    one that is not an integer in [0, 2**32) raises as in unpack_output."""
    words = _admit_each(words, "output word", 0, _WORD32)
    _overwrite_text(path, "%08X\n" * len(words) % words)


def read_output_words(path) -> tuple[int, ...]:
    """Read an output word file: one 32-bit hex word per line, blank lines skipped."""
    return tuple(_hex_words(path, _read_ascii_lines(path), 8))
