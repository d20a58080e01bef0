"""Command-line front end.

    laurentfft transform --n 16 --select dht --arith fixed --input ramp.csv
    laurentfft plan --n 16
    laurentfft testbench stimulus.txt --output words.hex

Sample files hold one decimal value per line, or comma-separated values;
blank lines are ignored.  Every input is checked before the plan is built:
samples by execute's check and the Q-format range, a stimulus by
load_stimulus, the options by the FixedConfig they build.  An argument
that argparse refuses exits 2 with argparse's usage and message; every
other failure exits 1 with one "error: ..." line.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

import numpy as np

from .engine import FixedConfig, TransformSelect, _check_input, execute
from .fixed import OverflowFlag, QFormat, ROUND_HALF_AWAY, ROUNDING_MODES, quantize
from .memory import (_overwrite_text, _read_ascii_lines, load_stimulus, pack_output, run_device,
                     write_output_words)
from .plan import UnsupportedLengthError, _require_mod4, build_plan, count_ops, format_plan
from .reference import dft_direct, dht_direct


def _read_samples(path) -> list[float]:
    values = []
    for lineno, line in enumerate(_read_ascii_lines(path), start=1):
        for token in line.replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {token!r}") from None
    if not values:
        raise ValueError(f"{path}: no samples found")
    return values


def _length(values, path, unit: str) -> int:
    try:  # a count that is not a supported N is named with its file
        return _require_mod4(len(values))
    except UnsupportedLengthError as exc:
        raise ValueError(f"{path}: N is its {unit} count: {exc}") from None


def _format_values(result, fmt: str, packing: OverflowFlag):
    if fmt == "text":
        if result.select is TransformSelect.DFT:
            return [f"{v.real:g}{v.imag:+g}j" for v in result.values]
        return [f"{v:g}" for v in result.values]
    if fmt == "csv":
        if result.select is TransformSelect.DFT:
            return ["k,re,im"] + [f"{k},{v.real:.10g},{v.imag:.10g}"
                                  for k, v in enumerate(result.values)]
        return ["k,h"] + [f"{k},{v:.10g}" for k, v in enumerate(result.values)]
    return [format(w, "08X") for w in pack_output(result, flags=packing)]  # "hex"


def _cmd_transform(args) -> int:
    samples = _read_samples(args.input)
    n = _length(samples, args.input, "sample") if args.n is None else _require_mod4(args.n)
    v = _check_input(n, samples)  # then names a wrong count or a non-finite sample
    arith = "exact"
    if args.arith == "fixed":
        arith = FixedConfig(QFormat(16, args.frac_bits), args.round)
        flags = OverflowFlag()
        for i, x in enumerate(samples):
            quantize(x, arith.fmt, arith.rounding, flags)
            if flags.overflow:
                raise ValueError(f"sample {i} = {x!r} is outside the {arith.fmt} range")
    elif args.format == "hex":
        raise ValueError("hex output requires fixed arithmetic")
    result = execute(build_plan(n), v, args.select, arith)  # the slow build follows every refusal

    packing = OverflowFlag()
    lines = _format_values(result, args.format, packing)
    if args.output:
        _overwrite_text(args.output, "".join(line + "\n" for line in lines))
    else:
        sys.stdout.writelines(line + "\n" for line in lines)

    if args.compare:
        oracle = (dft_direct if result.select is TransformSelect.DFT else dht_direct)(v)
        deviation = float(np.max(np.abs(result.values - oracle)))
        print(f"max deviation vs direct transform: {deviation:.3e}")
    if result.overflow:
        print("warning: fixed-point overflow occurred (results saturated)", file=sys.stderr)
    if packing.overflow:  # no "overflow" here: on stderr that word means the engine's flag
        print("warning: output words saturated when packed to 16-bit halves", file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    plan = build_plan(args.n)
    ops = count_ops(plan)
    show_counts = args.count_ops or not args.dump_plan
    show_dump = args.dump_plan or not args.count_ops
    if show_counts:
        print(f"block length: {plan.order}")
        print(f"multiplications: {ops.multiplications}")
        print(f"additions: {ops.additions}")
        print(f"accumulation adds: {ops.accumulation_adds}")
        print(f"dht output adds: {ops.dht_extra_adds}")
    if show_dump:
        sys.stdout.write(format_plan(plan))
    return 0


def _cmd_testbench(args) -> int:
    image = load_stimulus(args.stimulus)
    cfg = FixedConfig(QFormat(16, args.frac_bits), args.round)
    done = run_device(image, build_plan(_length(image.input_words, args.stimulus, "word")), cfg)
    out_path = args.output or (str(args.stimulus) + ".out.hex")
    write_output_words(done.output_words, out_path)
    print(f"wrote {len(done.output_words)} output words to {out_path}")
    if done.overflow:
        print("warning: fixed-point overflow occurred (results saturated)", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laurentfft",
        description="DFT/DHT transform engine with a bit-exact fixed-point device model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fixed = argparse.ArgumentParser(add_help=False)  # the device arithmetic options
    fixed.add_argument("--frac-bits", type=int, default=7)
    fixed.add_argument("--round", choices=ROUNDING_MODES, default=ROUND_HALF_AWAY)

    p_tr = sub.add_parser("transform", parents=[fixed], help="transform a sample file")
    p_tr.add_argument("--n", type=int, default=None, help="block length (default: sample count)")
    p_tr.add_argument("--select", choices=[s.value for s in TransformSelect], default="dft")
    p_tr.add_argument("--arith", choices=("exact", "fixed"), default="fixed")
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--output", default=None)
    p_tr.add_argument("--format", choices=("text", "csv", "hex"), default="text")
    p_tr.add_argument("--compare", action="store_true",
                      help="report max deviation against the direct-summation oracle")
    p_tr.set_defaults(func=_cmd_transform)

    p_plan = sub.add_parser("plan", help="dump the decomposition and its operation counts")
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--dump-plan", action="store_true", help="print only the plan dump")
    p_plan.add_argument("--count-ops", action="store_true", help="print only the counts")
    p_plan.set_defaults(func=_cmd_plan)

    p_tb = sub.add_parser("testbench", parents=[fixed],
                          help="run a stimulus file through the device model")
    p_tb.add_argument("stimulus")
    p_tb.add_argument("--output", default=None)
    p_tb.set_defaults(func=_cmd_testbench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _entry():
    """`python -m` and the console script: freezing the heap at exit spares the
    interpreter's shutdown collection the objects the imports made."""
    atexit.register(gc.freeze)
    sys.exit(main())


if __name__ == "__main__":
    _entry()
