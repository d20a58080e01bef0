"""Layered benchmark of laurentfft.

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload testbench-n16 --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload qsweep-n64 --trace 1     # per-layer metrics

--seconds defaults to run_seconds in BENCHMARK.json at the checkout root.

One process, one caller, closed loop: the next item starts when the last
one has finished and been checked.  The untraced run (--trace 0) reports
the end-to-end metrics; the traced run (--trace 1) reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics (for every workload: correct,
attempted and failed summed, and workloads, each workload's own line).
The exit status is 1 if any item failed its check.  Full results,
including the machine record, go to .bench_out/ in the checkout, and the
traced run's spans beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Single-threaded numerical libraries, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import stats  # noqa: E402
from speed import RECENT, REF_S, SpeedProbe, pin_to_one_cpu  # noqa: E402
from srcpath import ROOT, SRC, SourceTreeMissing, use_source_tree  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, coldstart_command, run_child  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
WARM_SECONDS = 0.5          # untimed items before measuring
PROBE_REPEATS = 3           # cli.import / cli.interpreter children per traced run
IMPORT_CLI = [sys.executable, "-c", "import laurentfft.cli"]

# The metrics BENCHMARK.json gates; its times are read at the reference
# speed of speed.py.  Throughput, the median and tail latencies and
# fail_frac are printed and recorded but not gated: on a shared machine
# whose speed changes every few seconds they follow the machine, and spread
# more between runs than the largest bound allowed (see README.md, "Noise").
END_TO_END_UNITS = {
    "setup_s": "s", "item_ref_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB",
    "model_mults": "count", "model_adds": "count",
}
REPORTED_UNITS = {"throughput_per_s": "items/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                  "fail_frac": "ratio"}


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "loadavg_start": loadavg()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


class Tally:
    """Item outcomes: every checked item is attempted; a raise or a failed
    check is a failure.  Latencies are kept for measured items only."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []     # passed items
        self.by_item: dict[int, list[float]] = {}  # passed items at REF_S speed, by pool index
        self.busy: list[tuple[float, bool]] = []   # every measured item: (seconds, passed)

    def fail(self, item, err: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{item!r:.120}: {err}")


def run_one(wl, item, tally: Tally, measured: bool, tracer=None, item_id=None, index=None,
            scale=1.0):
    """Run and check one item, the pool's item `index` if given, whose time
    times `scale` reads at the reference speed; return the traced counter
    increments, if any."""
    token = tracer.begin_item(item_id) if tracer is not None else None
    t0 = perf_counter()
    try:
        output, err = wl.run(item), None
    except Exception:
        output, err = None, traceback.format_exc(limit=4).strip().replace("\n", " | ")
    elapsed = perf_counter() - t0
    delta = tracer.end_item(token) if tracer is not None else None
    if err is None:
        err = wl.check(item, output)
    tally.attempted += 1
    if err:
        tally.fail(item, err)
    if measured:
        tally.busy.append((elapsed, not err))
        if not err:
            tally.latencies.append(elapsed)
            if index is not None:
                tally.by_item.setdefault(index, []).append(elapsed * scale)
    return delta


def warm_up(wl, tally: Tally) -> None:
    for item, err in wl.warm():
        tally.attempted += 1
        tally.fail(item, err)
    deadline = perf_counter() + WARM_SECONDS
    for item in wl.pool:
        run_one(wl, item, tally, measured=False)
        if perf_counter() >= deadline:
            break


def cold_setup(wl) -> dict:
    """One cold set-up in a fresh interpreter."""
    if wl.cold_import_only:
        return {"setup_s": timed_child(IMPORT_CLI)}
    proc = run_child(coldstart_command(wl.n))
    proc.check_returncode()
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cold set-up imported {rec['file']}, not the checkout's package")
    rec["setup_s"] = rec["import_s"] + rec["build_s"]
    return rec


def timed_child(argv: list[str]) -> float:
    """Wall seconds of a child interpreter that must exit with status 0."""
    t0 = perf_counter()
    run_child(argv).check_returncode()
    return perf_counter() - t0


def import_package():
    import laurentfft
    import laurentfft.cli  # noqa: F401  (fail before measuring if the CLI cannot import)
    if not Path(laurentfft.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {laurentfft.__file__}, not the checkout's package")
    return laurentfft


def model_metrics(lf, plan) -> dict:
    ops = lf.engine.count_ops(plan)
    return {"model_mults": ops.multiplications,
            "model_adds": ops.additions + ops.accumulation_adds}


def run_untraced(wl, seed: int, seconds: float, workdir: Path) -> dict:
    lf = import_package()
    wl.prepare(lf, seed, workdir)
    tally = Tally()
    warm_up(wl, tally)
    probe = SpeedProbe()
    probe.sample(RECENT)
    setups = []
    k = 0
    # Cold set-ups interleave with measurement rounds, so both sample the
    # machine across the whole run.  The speed probe runs every few
    # milliseconds between items: each item's time is scaled by the speed
    # measured just before it, and the set-up time by the run's median speed.
    for _ in range(wl.setup_repeats):
        setups.append(cold_setup(wl))
        deadline = perf_counter() + seconds / wl.setup_repeats
        while perf_counter() < deadline:
            probe.sample_if_due()
            index = k % len(wl.pool)
            run_one(wl, wl.pool[index], tally, measured=True, index=index,
                    scale=probe.scale())
            k += 1
    if not tally.latencies:
        raise RuntimeError("no item passed its check; nothing to time")
    pct, tail_value, beyond = stats.tail(tally.latencies)
    repeats = sorted(len(r) for r in tally.by_item.values())
    spins = stats.median(probe.samples)
    from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage
    rss_kb = getrusage(RUSAGE_CHILDREN if wl.cold_import_only else RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": stats.median([s["setup_s"] for s in setups]) * REF_S / spins,
        "item_ref_ms": 1e3 * stats.mean_of_medians(tally.by_item),
        "ok_frac": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": rss_kb / 1024,
        **model_metrics(lf, wl.plan),
    }
    reported = {
        "throughput_per_s": len(tally.latencies) / sum(t for t, _ in tally.busy),
        "item_p50_ms": 1e3 * stats.median(tally.latencies),
        "item_tail_ms": 1e3 * tail_value,
        "fail_frac": tally.failed / tally.attempted,
    }
    notes = {
        "setup_s": f"at reference speed, median of {len(setups)} fresh interpreters; "
                   "as measured: " + ", ".join(f"{s['setup_s']:.4f}" for s in setups),
        "throughput_per_s": f"passed items / {sum(t for t, _ in tally.busy):.3f} s busy",
        "item_ref_ms": (f"at reference speed, mean over {len(tally.by_item)} pool items of "
                        f"each one's median; {repeats[0]}-{repeats[-1]} passed repeats per "
                        f"item; spin() median {1e3 * spins:.4f} ms against "
                        f"{1e3 * REF_S:.4f} ms at reference speed"),
        "item_tail_ms": f"p{pct:.2f} of {len(tally.latencies)} items, {beyond} beyond it",
        "peak_rss_mb": "largest child process" if wl.cold_import_only else "this process",
    }
    if not wl.cold_import_only:
        notes["setup_s"] += "; import {:.4f} s + build_plan({}) {:.4f} s (medians)".format(
            stats.median([s["import_s"] for s in setups]), wl.n,
            stats.median([s["build_s"] for s in setups]))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"metrics": metrics, "notes": notes, "tally": tally,
            "reported": {k: {"value": v, "unit": REPORTED_UNITS[k]} for k, v in reported.items()}}


def time_calls(fn, arg, budget_s: float = 0.2, max_calls: int = 2000) -> float:
    """Median seconds per call of fn(arg) over a short loop."""
    times = []
    end = perf_counter() + budget_s
    while len(times) < max_calls and (len(times) < 5 or perf_counter() < end):
        t0 = perf_counter()
        fn(arg)
        times.append(perf_counter() - t0)
    return stats.median(times)


def run_traced(wl, seed: int, seconds: float, workdir: Path) -> dict:
    lf = import_package()
    tracer = Tracer()
    tracer.install()
    tracer.item = "setup"
    try:
        wl.prepare(lf, seed, workdir)
    finally:
        tracer.uninstall()
        tracer.item = None
    tally = Tally()
    warm_up(wl, tally)

    # Untraced and traced passes over the whole pool alternate, so both see
    # the same machine state and per-item counts cover whole pool passes.
    rates = {False: [], True: []}
    deltas = []
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        for traced in (False, True):
            start = len(tally.busy)
            if traced:
                tracer.install()
                wl.tracer = tracer
            try:
                for j, item in enumerate(wl.pool):
                    delta = run_one(wl, item, tally, True, tracer if traced else None,
                                    (rounds, j))
                    if traced:
                        deltas.append((wl.select(item), delta))
            finally:
                if traced:
                    tracer.uninstall()
                    wl.tracer = None
            busy = sum(t for t, _ in tally.busy[start:])
            rates[traced].append(len(wl.pool) / busy)
        rounds += 1

    tracer.item = "probe"
    for _ in range(PROBE_REPEATS):
        tracer.call("cli.import", timed_child, IMPORT_CLI)
        tracer.call("cli.interpreter", timed_child, [sys.executable, "-c", "pass"])
    signal = np.random.default_rng(seed).standard_normal(wl.n)
    yardsticks = {"reference.dft_direct_us": 1e6 * time_calls(lf.reference.dft_direct, signal),
                  "reference.np_fft_us": 1e6 * time_calls(np.fft.fft, signal)}

    values, notes, absent = layer_metrics(tracer, deltas)
    values.update(yardsticks)
    values["trace.overhead_frac"] = 1 - stats.median(rates[True]) / stats.median(rates[False])
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in LAYER_UNITS.items() if k not in absent}
    notes["trace.overhead_frac"] = (f"{rounds} pairs of passes; untraced "
                                    f"{stats.median(rates[False]):.1f} items/s, traced "
                                    f"{stats.median(rates[True]):.1f} items/s")
    spans_path = OUT_DIR / f"{wl.name}-seed{seed}-spans.json"
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"],
                   "spans": tracer.spans}, fh)
    return {"metrics": metrics, "notes": notes, "tally": tally, "absent": absent,
            "spans_file": os.path.relpath(spans_path, ROOT)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]()
    machine = machine_record()
    machine["pinned_cpu"] = pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = (run_traced if trace else run_untraced)(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = loadavg()
    tally = result.pop("tally")

    print(f"workload {wl.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  why: {wl.why}")
    print("  machine: nproc {nproc}, {cpu}, Python {python}, numpy {numpy}, "
          "pinned to CPU {pinned_cpu}, loadavg {loadavg_start} -> {loadavg_end}".format(**machine))
    print(f"  check: {wl.check_name}")
    print(f"  items: {tally.attempted} attempted, {tally.failed} failed")
    for err in tally.errors:
        print(f"  FAILED {err}")
    notes = result["notes"]
    rows = {**result["metrics"], **result.get("reported", {})}
    for key, m in rows.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}{note}")
    for key in result.get("absent", ()):
        print(f"  {key:34s} {'absent':>14s}  (its wrapped name is gone from the package)")
    if trace:
        print(f"  spans: {notes['spans']}; written to {result['spans_file']}")

    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, "check": wl.check_name, "attempted": tally.attempted,
              "failed": tally.failed, "errors": tally.errors, **result}
    with open(OUT_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result["metrics"]}))
    return 1 if tally.failed else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            status = 1
    print(json.dumps({"correct": status == 0 and all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload to run (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds, excluding set-up and checks of distinct inputs "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
