"""The dense fixed-point oracle, shared by the engine tests and the
exhaustive conformance check: the fixed executor's arithmetic re-derived
from the plan's dense factor matrices, one entry at a time."""

from laurentfft import Fixed, OverflowFlag, TransformSelect, fx_add, fx_mul, fx_sub, quantize, widen


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
