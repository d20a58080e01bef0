"""Plan execution in exact or bit-exact fixed-point arithmetic.

Both modes run the device's stages in order (see plan.StageTape): input
adds, the scalar multipliers, combiner adds, the stream merge
(plan._merge_streams, the one merge rule) and, for a Hartley select, Re - Im.
A select bit chooses Fourier output (Re, Im) or Hartley output (Re - Im).
Fixed mode runs every stage from the plan's tape, the merge as one flat
loop over LaurentPlan.merge_steps, in saturating Q-format integer
arithmetic: 16-bit inputs and constants, 32-bit accumulators.
Exact mode runs the same tape in doubles: one np.bincount per table, with
the multipliers between.  The structural operation count, count_ops, is
defined with the plan and re-exported here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fixed import (
    OverflowFlag,
    QFormat,
    ROUND_HALF_AWAY,
    ROUNDING_MODES,
    _admit,
    fx_add,
    fx_mul,
    fx_sub,
    quantize,
)
from .plan import LaurentPlan, _merge_streams, count_ops  # noqa
from .reference import _as_signal

FLOOR_FRAC = 0.25  # of the peak; see QuantizationReport


class TransformSelect(enum.Enum):
    DFT = "dft"
    DHT = "dht"

    @classmethod
    def _missing_(cls, value):  # a member's name in any case names it too
        return cls.__members__.get(str(value).upper())


@dataclass(frozen=True)
class FixedConfig:
    """Device arithmetic: word format for samples and constants, rounding
    mode, and accumulator width (same fraction bits, wider word)."""

    fmt: QFormat = QFormat(16, 7)
    rounding: str = ROUND_HALF_AWAY
    acc_total_bits: int = 32

    def __post_init__(self):
        if not isinstance(self.fmt, QFormat):
            raise ValueError(f"fmt must be a QFormat, got {self.fmt!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        object.__setattr__(self, "acc_total_bits", _admit(
            self.acc_total_bits, "accumulator width", self.fmt.total_bits, 32))
        # built once, like QFormat's bounds: the scalar ops' format checks are identity tests
        object.__setattr__(self, "acc_fmt", self.fmt.widened(self.acc_total_bits))


DEFAULT_CONFIG = FixedConfig()  # the device's Q8.7 words and 32-bit accumulators


def _fixed_config(cfg) -> FixedConfig:
    """cfg, or DEFAULT_CONFIG for None; ValueError names anything else."""
    if cfg is not None and not isinstance(cfg, FixedConfig):
        raise ValueError(f"cfg must be a FixedConfig or None, got {cfg!r}")
    return DEFAULT_CONFIG if cfg is None else cfg


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform output.  values holds complex bins for DFT, real bins for
    DHT.  In fixed mode the Q-format integer raws are kept alongside
    (real_raw/imag_raw for DFT, real_raw for DHT) and overflow reports the
    sticky saturation flag.  select is converted by TransformSelect, as in
    MemoryImage, so a result built by hand may name it in any case."""

    select: TransformSelect
    values: np.ndarray
    real_raw: tuple[int, ...] | None = None
    imag_raw: tuple[int, ...] | None = None
    overflow: bool = False

    def __post_init__(self):
        object.__setattr__(self, "select", TransformSelect(self.select))


def _check_input(order: int, samples) -> np.ndarray:
    """samples as reference._as_signal checks them, plus a plan's two rules:
    order samples, each finite (ValueError names the first that is not)."""
    v = _as_signal(samples)
    if v.size != order:
        raise ValueError(f"expected {order} samples, got {v.size}")
    if not np.isfinite(v).all():
        i = np.flatnonzero(~np.isfinite(v))[0]
        raise ValueError(f"sample {i} = {v[i]} is not a finite number")
    return v


def _execute_fixed(plan: LaurentPlan, v: np.ndarray, select: TransformSelect,
                   cfg: FixedConfig) -> TransformResult:
    tape = plan.tape
    flags = OverflowFlag()
    # the walk carries plain (raw, fmt) pairs; the one acc_fmt object keeps
    # fx_add's format check on its identity test
    acc_fmt = cfg.acc_fmt
    x = [(quantize(s, cfg.fmt, cfg.rounding, flags).raw, acc_fmt) for s in v.tolist()]
    # Constants are quantized once per run, like a hardware coefficient ROM.
    rom = [quantize(c, cfg.fmt, cfg.rounding, flags) for c in tape.constants]
    zero = (0, acc_fmt)
    # Bound per call, not at import, so a wrapper on engine.fx_add or
    # engine.fx_sub sees every op.
    add, sub = fx_add, fx_sub

    def sum_rows(table, vals):
        out = [zero] * table.nrows
        for r, c, s in table.terms:
            out[r] = add(out[r], vals[c], flags) if s > 0 else sub(out[r], vals[c], flags)
        return out

    u = sum_rows(tape.inputs, x)
    u = [a if k < 0 else fx_mul(a, rom[k], cfg.rounding, flags)
         for a, k in zip(u, tape.slots)]
    y = sum_rows(tape.combiners, u)
    # the stream merge, in place on the combiner rows: see LaurentPlan.merge_steps
    steps, re_rows, im_rows = plan.merge_steps
    for a, b, plus in steps:
        y[a] = add(y[a], y[b], flags) if plus else sub(y[a], y[b], flags)
    re, im, n = y[re_rows], y[im_rows], plan.order

    # values are the raws over the scale, exactly as each Fixed.value would be
    scale = acc_fmt.scale
    if select is TransformSelect.DHT:
        h_raw, _ = zip(*[sub(a, b, flags) for a, b in zip(re, im)])
        return TransformResult(select, np.array(h_raw) / scale, h_raw, None, flags.overflow)
    (re_raw, _), (im_raw, _) = zip(*re), zip(*im)
    values = np.empty(n, complex)
    values.real, values.imag = re_raw, im_raw
    values /= scale  # a power of two: each part divides exactly as a float would
    return TransformResult(select, values, re_raw, im_raw, flags.overflow)


def execute(plan: LaurentPlan, samples, select: TransformSelect = TransformSelect.DFT,
            arith="exact") -> TransformResult:
    """Run the plan on a signal of real, finite samples.

    select is a TransformSelect or its name in any case; the result carries
    it.  arith is the string "exact" for double-precision evaluation or a
    FixedConfig for bit-exact device arithmetic.  Fixed-mode overflow does
    not raise; the result carries the sticky flag and the caller decides.
    Exact mode raises ValueError, naming the largest |sample|, where finite
    samples give a transform that overflows float64.
    """
    select = TransformSelect(select)
    v = _check_input(plan.order, samples)
    if arith == "exact":
        # each bincount sums a row's terms from 0.0 in their tape order
        t, c, n = plan.tape, plan.tape.combiners, plan.order
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bin raises below
            u = np.bincount(t.inputs.rows, weights=t.inputs.signs * v[t.inputs.cols],
                            minlength=t.inputs.nrows) * t.scale
            y = np.bincount(c.rows, weights=c.signs * u[c.cols], minlength=c.nrows)
            re, im = _merge_streams(plan, y.reshape(-1, n), np.add, np.subtract)
            values = re - im if select is TransformSelect.DHT else re + 1j * im
        if not np.isfinite(values).all():
            i = int(np.argmax(np.abs(v)))
            raise ValueError(f"exact transform overflows float64: largest |sample| is "
                             f"sample {i} = {v[i]}")
        return TransformResult(select, values)
    if isinstance(arith, FixedConfig):
        return _execute_fixed(plan, v, select, arith)
    raise ValueError(f"arith must be 'exact' or a FixedConfig, got {arith!r}")


@dataclass(frozen=True)
class QuantizationReport:
    """Componentwise fixed-vs-exact comparison over the significant bins.

    entries holds (bin, component, exact, fixed, rel) for each component
    (Re/Im per bin for DFT, H for DHT) whose exact magnitude is above floor
    = FLOOR_FRAC * peak: the device error is a fixed absolute quantity, so
    ratios against near-zero components measure nothing about the
    arithmetic.  max_rel_error, the worst rel (0.0 with no entries), and
    dominant_bins, the bins attaining it, are read from the entries.
    """

    floor: float
    entries: tuple[tuple[int, str, float, float, float], ...]

    @property
    def max_rel_error(self) -> float:
        return max((rel for *_, rel in self.entries), default=0.0)

    @property
    def dominant_bins(self) -> tuple[int, ...]:
        worst = self.max_rel_error
        return tuple(sorted({k for k, *_, rel in self.entries
                             if rel >= worst * (1 - 1e-12) and worst > 0}))


def quantization_report(plan: LaurentPlan, samples, cfg: FixedConfig | None = None,
                        select: TransformSelect = TransformSelect.DFT) -> QuantizationReport:
    """Relative error of the fixed-point run against the exact run.  cfg is
    a FixedConfig, or None for DEFAULT_CONFIG."""
    cfg, select = _fixed_config(cfg), TransformSelect(select)
    exact = execute(plan, samples, select, "exact").values
    fixed = execute(plan, samples, select, cfg).values
    names = ["h"]
    if select is TransformSelect.DFT:
        names = ["re", "im"]
        exact, fixed = (np.concatenate([z.real, z.imag]) for z in (exact, fixed))
    floor = FLOOR_FRAC * float(np.abs(exact).max())
    keep = np.abs(exact) > floor
    k, name, e, f = (c[keep] for c in (np.tile(np.arange(plan.order), len(names)),
                                       np.repeat(names, plan.order), exact, fixed))
    rel = np.abs(f - e) / np.abs(e)
    return QuantizationReport(floor, tuple(zip(*(c.tolist() for c in (k, name, e, f, rel)))))
