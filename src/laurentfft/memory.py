"""Software model of the device memory: a MemoryImage holds what the device
reads (16-bit input words, the transform-select bit) and run_device returns
what it writes, a DeviceOutput (32-bit packed output words, overflow flag).

Packing (word-level big-endian: "first" means most significant):
  DFT  word = [ real raw : 16 bits | imag raw : 16 bits ]
  DHT  word = [ zero     : 16 bits | real raw : 16 bits ]

The model is functional, not cycle-accurate: run_device is exactly the
fixed-point engine followed by packing, so a testbench diff against RTL
isolates arithmetic bugs from memory-layout bugs.

pack_output packs a fixed-mode TransformResult, which carries its select;
unpack_output decodes the words the RTL writes.  Words and raws from outside
pass fixed._admit_each, as a Fixed raw does: "input word 2 must be an
integer in [-32768, 32767], got 40000", or "input words must be iterable,
got 5".

Testbench interchange files are plain text, one hex word per line; a line
ends at LF alone, and spaces, tabs and a CRLF's CR around a word are blank:
stimulus files start with a header line "SELECT DFT" or "SELECT DHT"
followed by 16-bit input words; output files hold 32-bit words.  A word
is 1-4 (stimulus) or 1-8 (output) hex digits in either case, with no sign,
prefix or separator, and a reader names path:line of the first that is
not, or of the first non-ASCII byte.  Files are read and written whole, on
a raw file descriptor, by the readers as by the writers, and any failure
to read names the path.  The writers overwrite an existing file in place
rather than truncating it to zero first (see _overwrite_text), and fsync
nothing.
"""

from __future__ import annotations

import os
import re
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
_READ_CHUNK = 1 << 16  # bytes per os.read; a testbench file of N = 512 is ~4.6 kB


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
    """A raw outside the 16-bit half word, saturated, as its half word."""
    return _saturate(raw, _HALF_WORD, flags) & _WORD16


def pack_output(result: TransformResult, *,
                flags: OverflowFlag | None = None) -> tuple[int, ...]:
    """Pack a fixed-mode result into 32-bit output words, in the layout of
    result.select; anything else, an exact-mode result included, raises
    ValueError.  The raws pass fixed._admit_each unbounded, as a result may be
    built by hand, DFT columns pair by one strict zip, and a raw beyond 16
    bits saturates, marking the flags context when one is supplied.  flags
    is keyword-only, so pack_output(result, "dft") is a TypeError.  A half
    in range is masked inline; only one that saturates calls _half_word."""
    if not isinstance(result, TransformResult) or result.real_raw is None or (
            result.imag_raw is None and result.select is TransformSelect.DFT):
        raise ValueError("packing is defined only for fixed-mode results")
    if result.select is TransformSelect.DHT:
        return tuple([raw & _WORD16 if -0x8000 <= raw <= 0x7FFF else _half_word(raw, flags)
                      for raw in _admit_each(result.real_raw, "raw")])
    pairs = zip(_admit_each(result.real_raw, "real raw"),
                _admit_each(result.imag_raw, "imaginary raw"), strict=True)
    # the real raw packs as the upper half word, the imaginary as the lower
    return tuple([(hi & _WORD16 if -0x8000 <= hi <= 0x7FFF else _half_word(hi, flags)) << 16
                  | (lo & _WORD16 if -0x8000 <= lo <= 0x7FFF else _half_word(lo, flags))
                  for hi, lo in pairs])


def unpack_output(words, select: TransformSelect):
    """Decode output words as the RTL writes them, the inverse of pack_output:
    signed 16-bit raws as Python ints, (re, im) pairs for DFT.  A word that
    is not an integer in [0, 2**32), or a DHT word whose upper half is not
    zero, raises ValueError naming its index."""
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
    any number of digits.  So the words are checked all at once:
    their joined characters against the hex digits and the longest against
    digits.  Only when that fails are the lines walked again, to name
    path:line of the first word that is not 1 to digits hex digits.
    """
    words = [text for text in lines[first:] if text]
    if _HEX_DIGITS.issuperset("".join(words)) and max(map(len, words), default=0) <= digits:
        return [int(text, 16) for text in words]
    lineno, text = next((i, text) for i, text in enumerate(lines[first:], first + 1)
                        if text and (len(text) > digits or not _HEX_DIGITS.issuperset(text)))
    raise StimulusFormatError(
        f"{path}:{lineno}: malformed hex word {text!r} (expected 1 to {digits} hex digits)"
    )


def _read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file, each stripped of spaces, tabs and a
    CRLF's CR; StimulusFormatError names path:line of a non-ASCII byte.

    A line ends at LF alone, where str.splitlines would also end one at VT,
    FF and FS to RS.  The file is read whole by os.read on the descriptor
    os.open returns, _READ_CHUNK bytes at a time until end of file, with no
    file object around it; the descriptor is closed whether or not a read
    fails.  os.read names no path (a directory opens, then reads as
    "[Errno 21] Is a directory"), so an OSError is raised again with it,
    as os.open and open() name it.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    data = b"".join(chunks)
    try:
        return [line.strip(" \t\r") for line in data.decode("ascii").split("\n")]
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise StimulusFormatError(
            f"{path}:{lineno}: non-ASCII byte {data[exc.start]:#04x}") from None


def load_stimulus(path) -> MemoryImage:
    """Read a stimulus file: SELECT header plus one 16-bit hex word per line."""
    lines = _read_ascii_lines(path)
    header_no = next((i for i, line in enumerate(lines, 1) if line), None)
    if header_no is None:
        raise StimulusFormatError(f"{path}: empty stimulus file")
    header = lines[header_no - 1]
    match = re.fullmatch(r"SELECT[ \t]+(\w+)", header, re.IGNORECASE)
    if match is None or match[1].upper() not in TransformSelect.__members__:
        names = " or ".join(f"'SELECT {name}'" for name in TransformSelect.__members__)
        raise StimulusFormatError(f"{path}:{header_no}: expected {names}, got {header!r}")
    select = TransformSelect[match[1].upper()]
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
