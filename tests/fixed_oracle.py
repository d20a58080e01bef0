"""Oracles shared by the test modules.  The scalar model: an op's exact
result as a Fraction, rounded and saturated by the rules alone.  The dense
fixed-point oracle, for the engine tests and the exhaustive conformance
check: the fixed executor's arithmetic re-derived from the plan's dense
factor matrices, one entry at a time.  The packing model: a fixed-mode
result's output words by the word layout alone."""

import math
from fractions import Fraction

import numpy as np

from laurentfft import (ROUND_HALF_EVEN, ROUND_TRUNCATE, Fixed, OverflowFlag, QFormat,
                        TransformResult, TransformSelect, fx_add, fx_mul, fx_sub, quantize, widen)


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
    assert result.raw == raw and type(result.raw) is int
    assert flags.overflow == saturated


def _fixed_result(select, real_raw, imag_raw=None) -> TransformResult:
    """A fixed-mode result holding the given raws, as execute would build it."""
    return TransformResult(TransformSelect(select), np.zeros(len(real_raw)), real_raw, imag_raw)


def _pack_model(result: TransformResult) -> tuple[tuple[int, ...], bool]:
    """result's output words and packing flag: each raw clamped to 16 bits,
    then ((re & 0xFFFF) << 16) | (im & 0xFFFF) for DFT, re & 0xFFFF for DHT."""
    re = [_saturate_model(int(raw), QFormat(16, 7)) for raw in result.real_raw]
    if result.select is TransformSelect.DHT:
        return tuple(c & 0xFFFF for c, _ in re), any(s for _, s in re)
    im = [_saturate_model(int(raw), QFormat(16, 7)) for raw in result.imag_raw]
    words = [((a & 0xFFFF) << 16) | (b & 0xFFFF) for (a, _), (b, _) in zip(re, im, strict=True)]
    return tuple(words), any(s for _, s in re + im)


def _dense_rows_fixed(mat, vals, zero, flags):
    out = []
    for row in mat:
        acc = zero
        for coef, x in zip(row, vals):
            if coef > 0:
                acc = fx_add(acc, x, flags)
            elif coef < 0:
                acc = fx_sub(acc, x, flags)
        out.append(acc)
    return out


def _oracle_fixed(plan, v, select, cfg):
    """The fixed executor walking every entry of the dense factor matrices,
    zeros included, with each sample widened on its own: (real raws, imag
    raws or None, overflow)."""
    flags = OverflowFlag()
    zero = Fixed(0, cfg.acc_fmt)
    x = [widen(quantize(s, cfg.fmt, cfg.rounding, flags), cfg.acc_total_bits) for s in v]
    rom = {c: quantize(c, cfg.fmt, cfg.rounding, flags)
           for c in dict.fromkeys(s.value for s in plan.streams) if c is not None}
    acc = {}
    for s in plan.streams:
        u = _dense_rows_fixed(s.factor.reduced_rows, x, zero, flags)
        if s.value is not None:
            u = [fx_mul(a, rom[s.value], cfg.rounding, flags) for a in u]
        y = _dense_rows_fixed(s.factor.combiner, u, zero, flags)
        if s.dest not in acc:
            acc[s.dest] = y
            continue
        merge = fx_add if s.sign > 0 else fx_sub
        acc[s.dest] = [merge(a, b, flags) for a, b in zip(acc[s.dest], y)]
    re, im = acc["re"], acc["im"]
    if select is TransformSelect.DHT:
        h = [fx_sub(a, b, flags) for a, b in zip(re, im)]
        return tuple(f.raw for f in h), None, flags.overflow
    return tuple(f.raw for f in re), tuple(f.raw for f in im), flags.overflow
