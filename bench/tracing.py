"""Spans and call counters for the traced run.

Wrappers are installed at run time on the module attributes the package's
own code looks up, so calls made inside the package are seen too (for
example the two executes inside quantization_report), and removed again
afterwards.  Nothing under src/ is changed.

A span is [name, start, end, parent index, item id], kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans (one thread, so children never overlap).

The scalar fixed-point ops get counting wrappers only, never spans: they
run thousands of times per transform.  A wrapped name that the package no
longer has is recorded as absent and every metric derived from it is
reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from time import perf_counter

# (owner, attribute, span name).  Several owners may feed one span name:
# memory.run_device calls the execute that memory imported.
SPANNED = (
    ("laurentfft.plan", "build_plan", "plan.build_plan"),
    ("laurentfft.plan", "build_M", "plan.build_M"),
    ("laurentfft.plan", "echelon_factor", "plan.echelon_factor"),
    ("laurentfft.plan", "reconstruct", "plan.reconstruct"),
    ("laurentfft.engine", "quantization_report", "engine.quantization_report"),
    ("laurentfft.engine", "execute", "engine.execute"),
    ("laurentfft.memory", "execute", "engine.execute"),
    ("laurentfft.memory", "run_device", "memory.run_device"),
    ("laurentfft.memory", "pack_output", "memory.pack_output"),
    ("laurentfft.memory", "write_stimulus", "memory.write_stimulus"),
    ("laurentfft.memory", "load_stimulus", "memory.load_stimulus"),
    ("laurentfft.memory", "write_output_words", "memory.write_output_words"),
    ("laurentfft.memory", "read_output_words", "memory.read_output_words"),
)

# (owner, attribute, counter).  The engine's own imported names are wrapped,
# so the counts are exactly the calls the executor makes.
COUNTED = (
    ("laurentfft.engine", "quantize", "fixed.quantize.calls"),
    ("laurentfft.engine", "fx_add", "fixed.fx_add.calls"),
    ("laurentfft.engine", "fx_sub", "fixed.fx_sub.calls"),
    ("laurentfft.engine", "fx_mul", "fixed.fx_mul.calls"),
    ("laurentfft.fixed.OverflowFlag", "mark", "fixed.saturations"),
)

# File arguments whose size counts as bytes written or read.
_FILE_ARG = {
    "memory.write_stimulus": (1, "memory.bytes_written"),
    "memory.write_output_words": (1, "memory.bytes_written"),
    "memory.load_stimulus": (0, "memory.bytes_read"),
    "memory.read_output_words": (0, "memory.bytes_read"),
}


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then getattr the rest."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _arg(args, kwargs, index: int, name: str, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()     # span names and counters with no target
        self.item = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._counted_adds: dict[int, tuple[int, int]] = {}

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; for calls the benchmark itself makes."""
        rec = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    def _span_wrapper(self, name: str, fn):
        tracer = self
        file_arg = _FILE_ARG.get(name)

        def wrapper(*args, **kwargs):
            span = name
            if name == "engine.execute":
                arith = _arg(args, kwargs, 3, "arith", "exact")
                span = "engine.execute_exact" if arith == "exact" else "engine.execute_fixed"
                if span == "engine.execute_fixed":
                    tracer._count_planned_adds(args, kwargs)
            rec = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if file_arg is not None:
                index, counter = file_arg
                tracer.counts[counter] += os.path.getsize(_arg(args, kwargs, index, "path", None))
            if name == "plan.echelon_factor":
                tracer.counts["plan.rank_total"] += result.rank
                tracer.counts["plan.nonoptimal_factors"] += not result.optimal
            return result
        return wrapper

    def _count_planned_adds(self, args, kwargs) -> None:
        """Add count_ops' additions for this fixed execute to fixed.adds_counted."""
        plan = _arg(args, kwargs, 0, "plan", None)
        if id(plan) not in self._counted_adds:
            ops = importlib.import_module("laurentfft.engine").count_ops(plan)
            self._counted_adds[id(plan)] = (ops.additions + ops.accumulation_adds,
                                            ops.dht_extra_adds)
        adds, dht_extra = self._counted_adds[id(plan)]
        select = _arg(args, kwargs, 2, "select", "dft")
        is_dht = str(getattr(select, "value", select)).lower() == "dht"
        self.counts["fixed.adds_counted"] += adds + (dht_extra if is_dht else 0)

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts
        if counter == "fixed.saturations":
            # Also count by the innermost open span, to tell the engine's
            # saturations from the output packing's.
            spans, stack = self.spans, self._stack

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                counts[f"{counter}@{spans[stack[-1]][0] if stack else 'none'}"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        present = set()
        for owner_path, attr, label, make in (
                [(o, a, n, self._span_wrapper) for o, a, n in SPANNED]
                + [(o, a, c, self._count_wrapper) for o, a, c in COUNTED]):
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(label)
                continue
            present.add(label)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, make(label, original))
        # A label fed by several owners is absent only if every owner lacks it.
        self.absent -= present

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- items -------------------------------------------------------------

    def begin_item(self, item_id):
        self.item = item_id
        return self.open("item"), Counter(self.counts)

    def end_item(self, token) -> Counter:
        """Close the item's span; return the counter increments it caused."""
        rec, before = token
        self.close(rec)
        self.item = None
        delta = Counter(self.counts)
        delta.subtract(before)
        return delta

    # -- summaries ---------------------------------------------------------

    def durations(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per span name: every duration, and every self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, list[float]] = {}
        own: dict[str, list[float]] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            total.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(end - start - c)
        return total, own


# Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "plan.build_plan_s": "s", "plan.build_M_s": "s", "plan.echelon_factor_s": "s",
    "plan.echelon_factor.calls": "count", "plan.reconstruct_s": "s", "plan.self_s": "s",
    "plan.rank_total": "count", "plan.nonoptimal_factors": "count",
    "engine.execute_fixed_ms": "ms", "engine.quantization_report_ms": "ms",
    "engine.self_ms": "ms", "engine.execute_exact_ms": "ms",
    "fixed.quantize.calls": "count", "fixed.fx_add.calls": "count",
    "fixed.fx_sub.calls": "count", "fixed.fx_mul.calls": "count",
    "fixed.saturations": "count", "fixed.saturated_item_frac": "ratio",
    "fixed.adds_executed_per_counted": "ratio",
    "memory.run_device_ms": "ms", "memory.run_device_self_ms": "ms",
    "memory.pack_output_us": "us", "memory.load_stimulus_us": "us",
    "memory.write_stimulus_us": "us", "memory.write_output_words_us": "us",
    "memory.read_output_words_us": "us", "memory.bytes_written": "B",
    "memory.bytes_read": "B",
    "cli.testbench_s": "s", "cli.transform_s": "s", "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "reference.dft_direct_us": "us", "reference.np_fft_us": "us",
    "trace.overhead_frac": "ratio",
}

# Metrics that lose their source when a wrapped name is absent.
_SOURCES = {
    "plan.build_plan": ("plan.build_plan_s", "plan.self_s"),
    "plan.build_M": ("plan.build_M_s",),
    "plan.echelon_factor": ("plan.echelon_factor_s", "plan.echelon_factor.calls",
                            "plan.rank_total", "plan.nonoptimal_factors"),
    "plan.reconstruct": ("plan.reconstruct_s",),
    "engine.execute": ("engine.execute_fixed_ms", "engine.execute_exact_ms",
                       "fixed.adds_executed_per_counted"),
    "engine.quantization_report": ("engine.quantization_report_ms", "engine.self_ms"),
    "fixed.quantize.calls": ("fixed.quantize.calls",),
    "fixed.fx_add.calls": ("fixed.fx_add.calls", "fixed.adds_executed_per_counted"),
    "fixed.fx_sub.calls": ("fixed.fx_sub.calls", "fixed.adds_executed_per_counted"),
    "fixed.fx_mul.calls": ("fixed.fx_mul.calls",),
    "fixed.saturations": ("fixed.saturations", "fixed.saturated_item_frac"),
    "memory.run_device": ("memory.run_device_ms", "memory.run_device_self_ms"),
    "memory.pack_output": ("memory.pack_output_us",),
    "memory.load_stimulus": ("memory.load_stimulus_us", "memory.bytes_read"),
    "memory.read_output_words": ("memory.read_output_words_us", "memory.bytes_read"),
    "memory.write_stimulus": ("memory.write_stimulus_us", "memory.bytes_written"),
    "memory.write_output_words": ("memory.write_output_words_us", "memory.bytes_written"),
}

# Per-item counters reported as their mean over the traced items.
_PER_ITEM = ("fixed.quantize.calls", "fixed.fx_add.calls", "fixed.fx_sub.calls",
             "fixed.fx_mul.calls", "fixed.saturations", "memory.bytes_written",
             "memory.bytes_read")


def layer_metrics(tracer: Tracer, deltas) -> tuple[dict, dict, list[str]]:
    """Per-layer values from the spans and counters of a traced run.

    deltas holds (select, counter increments) for each traced item.  Times
    are per-call medians; a span name never recorded reads 0.  Returns
    (values, notes, absent metric names).
    """
    total, own = tracer.durations()

    def med(name, scale=1.0, spans=total):
        return scale * statistics.median(spans[name]) if spans.get(name) else 0.0

    builds = max(1, len(total.get("plan.build_plan", [])))
    items = max(1, len(deltas))
    values = {
        "plan.build_plan_s": med("plan.build_plan"),
        "plan.build_M_s": med("plan.build_M"),
        "plan.echelon_factor_s": med("plan.echelon_factor"),
        "plan.echelon_factor.calls": len(total.get("plan.echelon_factor", [])) / builds,
        "plan.reconstruct_s": med("plan.reconstruct"),
        "plan.self_s": med("plan.build_plan", spans=own),
        "plan.rank_total": tracer.counts["plan.rank_total"] / builds,
        "plan.nonoptimal_factors": tracer.counts["plan.nonoptimal_factors"] / builds,
        "engine.execute_fixed_ms": med("engine.execute_fixed", 1e3),
        "engine.quantization_report_ms": med("engine.quantization_report", 1e3),
        "engine.self_ms": med("engine.quantization_report", 1e3, own),
        "engine.execute_exact_ms": med("engine.execute_exact", 1e3),
        "memory.run_device_ms": med("memory.run_device", 1e3),
        "memory.run_device_self_ms": med("memory.run_device", 1e3, own),
    }
    for name in ("pack_output", "load_stimulus", "write_stimulus", "write_output_words",
                 "read_output_words"):
        values[f"memory.{name}_us"] = med(f"memory.{name}", 1e6)
    for name in ("testbench", "transform", "import", "interpreter"):
        values[f"cli.{name}_s"] = med(f"cli.{name}")
    for counter in _PER_ITEM:
        values[counter] = sum(d[counter] for _, d in deltas) / items
    values["fixed.saturated_item_frac"] = sum(d["fixed.saturations"] > 0
                                              for _, d in deltas) / items

    # Executed adds against count_ops' adds, overall and per select.
    by_select: dict[str, list[int]] = {}
    for select, d in deltas:
        row = by_select.setdefault(select, [0, 0, 0])
        row[0] += 1
        row[1] += d["fixed.fx_add.calls"] + d["fixed.fx_sub.calls"]
        row[2] += d["fixed.adds_counted"]
    counted = sum(row[2] for row in by_select.values())
    executed = sum(row[1] for row in by_select.values())
    values["fixed.adds_executed_per_counted"] = executed / counted if counted else 0.0

    notes = {}
    if counted:
        notes["fixed.adds_executed_per_counted"] = "; ".join(
            f"{sel.upper()}: {done / n:.0f}/{planned / n:.0f} per item"
            for sel, (n, done, planned) in sorted(by_select.items()) if planned)
    sites = Counter()
    for _, d in deltas:
        sites.update({k.split("@", 1)[1]: v for k, v in d.items()
                      if k.startswith("fixed.saturations@")})
    if sites:
        notes["fixed.saturations"] = "inside " + ", ".join(
            f"{site} {count / items:.3g}" for site, count in sorted(sites.items())) + " per item"
    notes["spans"] = ", ".join(f"{name} x{len(v)}" for name, v in sorted(total.items())
                               if name != "item")
    absent = sorted({m for label in tracer.absent for m in _SOURCES.get(label, ())})
    return values, notes, absent
