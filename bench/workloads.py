"""The four benchmark workloads.

Each workload builds a pool of items from the run's seed, runs one item per
call (the timed part) and checks the item's output (untimed).  Items are
tuples; the benchmark cycles through the pool in a closed loop with one
caller.  Every call into the package goes through its public modules:
laurentfft.plan, engine, memory and reference, or the CLI process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import golden
import inputs
from srcpath import SRC

CHILD_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's source tree and
    single-threaded numerical libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion and capture its output.

    subprocess.run(timeout=...) polls for the child's exit with sleeps of up
    to 50 ms, which would quantize the timing of a 200 ms child; here the
    wait blocks, and a timer kills a child that outlives the timeout.
    """
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out, err = proc.communicate()
        finally:
            killer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def coldstart_command(*block_lengths: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve().with_name("coldstart.py")),
            *map(str, block_lengths)]


class Workload:
    name = ""
    n = 0
    why = ""
    check_name = ""
    setup_repeats = 6      # cold set-ups per run, interleaved with measurement
    cold_import_only = False
    tracer = None          # set during traced passes; spans the benchmark's own calls

    def prepare(self, lf, seed: int, workdir: Path) -> None:
        """Build the plan in this process and the item pool from the seed."""
        self.lf = lf
        self.plan = lf.plan.build_plan(self.n)
        self.pool = self.make_pool(np.random.default_rng(seed), workdir)

    def make_pool(self, rng, workdir: Path) -> list[tuple]:
        raise NotImplementedError

    def warm(self) -> list[tuple[tuple, str]]:
        """Untimed work before measuring; returns (item, error) failures."""
        return []

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def select(self, item) -> str:
        return item[0]


class TestbenchN16(Workload):
    """write_stimulus -> load_stimulus -> run_device -> write/read output words."""

    name = "testbench-n16"
    n = 16
    why = ("RTL golden-model flow at the paper's block length: fixed executor plus "
           "packing and file I/O; plan build is a one-off 10 ms")
    check_name = "golden: packed output words and device overflow flag, bit-exact (golden/n16.npz)"

    def make_pool(self, rng, workdir):
        self.golden = golden.load(golden.N16_PATH)
        self.stim_path = workdir / "stimulus.txt"
        self.out_path = workdir / "output.hex"
        per_block = len(inputs.N16_CLASSES)
        blocks = rng.choice(len(self.golden["inputs"]) // per_block, 8, replace=False)
        entries = [int(b) * per_block + int(k) for b in blocks for k in rng.permutation(per_block)]
        self.words = {e: tuple(int(x) for x in self.golden["inputs"][e]) for e in entries}
        return [(golden.SELECTS[j % 2], e) for j, e in enumerate(entries)]

    def run(self, item):
        select, entry = item
        mem = self.lf.memory
        image = mem.MemoryImage(self.words[entry], self.lf.engine.TransformSelect(select))
        mem.write_stimulus(image, self.stim_path)
        loaded = mem.load_stimulus(self.stim_path)
        done = mem.run_device(loaded, self.plan)
        mem.write_output_words(done.output_words, self.out_path)
        return loaded, done.overflow, mem.read_output_words(self.out_path)

    def check(self, item, output):
        select, entry = item
        loaded, overflow, words = output
        if loaded.select.value != select or loaded.input_words != self.words[entry]:
            return "stimulus read back differs from the stimulus written"
        s = golden.SELECTS.index(select)
        return golden.check_words(words, overflow, self.golden["words"][entry, s],
                                  self.golden["device_flag"][entry, s])


class QsweepN64(Workload):
    """One quantization_report per item over the Q-format grid at N = 64."""

    name = "qsweep-n64"
    n = 64
    why = ("Q-format study at N = 64: 16x the ops of N = 16 per transform, and 18-bit "
           "accumulators saturate inside the engine")
    check_name = ("golden: report entries' fixed raws bit-exact and worst error (every item); "
                  "full raws and engine overflow flag bit-exact (each distinct input, before "
                  "timing); exact values against np.fft (golden/n64.npz)")

    def make_pool(self, rng, workdir):
        self.golden = golden.load(golden.N64_PATH)
        modes = ("half-away", "half-even", "truncate")
        grid = tuple((int(f), modes[int(r)], int(a)) for f, r, a in self.golden["grid"])
        if grid != golden.QSWEEP_GRID:
            raise ValueError("golden/n64.npz was recorded for another Q-format grid")
        engine = self.lf.engine
        self.configs = [engine.FixedConfig(engine.QFormat(16, f), r, a) for f, r, a in grid]
        per_class = len(self.golden["inputs"]) // len(inputs.N64_CLASSES)
        combos = [(c, s) for c in range(len(grid)) for s in range(2)]
        classes = rng.permutation(np.tile(np.arange(len(inputs.N64_CLASSES)), len(combos) // 2))
        pool = [(golden.SELECTS[s], c, int(k) * per_class + int(rng.integers(per_class)))
                for (c, s), k in zip(combos * 2, classes)]
        return [pool[i] for i in rng.permutation(len(pool))]

    def samples(self, item) -> np.ndarray:
        _, cfg_index, signal = item
        frac = self.configs[cfg_index].fmt.frac_bits
        return self.golden["inputs"][signal] * float(1 << (15 - frac))

    def warm(self):
        failures = []
        engine = self.lf.engine
        for item in dict.fromkeys(self.pool):
            select, c, signal = item
            s = golden.SELECTS.index(select)
            result = engine.execute(self.plan, self.samples(item),
                                    engine.TransformSelect(select), self.configs[c])
            err = golden.check_raws(result, self.golden["raws"][signal, c, s],
                                    self.golden["overflow"][signal, c, s])
            if err:
                failures.append((item, err))
        return failures

    def run(self, item):
        select, c, _ = item
        engine = self.lf.engine
        return engine.quantization_report(self.plan, self.samples(item), self.configs[c],
                                          engine.TransformSelect(select))

    def check(self, item, output):
        select, c, signal = item
        s = golden.SELECTS.index(select)
        return golden.check_report(output, self.configs[c].fmt.frac_bits,
                                   self.golden["raws"][signal, c, s],
                                   self.golden["max_rel"][signal, c, s],
                                   self.golden["entries"][signal, c, s],
                                   golden.reference_bins(self.samples(item), select))


class ExactN128(Workload):
    """One exact execute of a random N = 128 signal per item."""

    name = "exact-n128"
    n = 128
    why = ("plan construction dominates set-up (5-6 s Fraction RREF) and the exact "
           "executor does all steady-state work; the fixed layer is never called")
    check_name = "reference: np.fft.fft and its Hartley form, within 1e-9 of the peak"
    setup_repeats = 4

    def make_pool(self, rng, workdir):
        return [(golden.SELECTS[j % 2], rng.standard_normal(self.n)) for j in range(32)]

    def run(self, item):
        select, x = item
        engine = self.lf.engine
        return engine.execute(self.plan, x, engine.TransformSelect(select), "exact")

    def check(self, item, output):
        select, x = item
        if output.select.value != select:
            return f"result select {output.select.value}, asked for {select}"
        return golden.check_exact(output.values, x, select)


class CliN16(Workload):
    """One `python -m laurentfft.cli` child per item, one child at a time."""

    name = "cli-n16"
    n = 16
    why = ("CLI layer and import cost (about 150 of 200 ms per call), which an RTL flow "
           "calling the model once per vector pays every time")
    check_name = ("golden: CLI output words and overflow warning bit-exact against "
                  "golden/n16.npz; exit status 0")
    cold_import_only = True

    def make_pool(self, rng, workdir):
        self.golden = golden.load(golden.N16_PATH)
        per_block = len(inputs.N16_CLASSES)
        block = int(rng.integers(len(self.golden["inputs"]) // per_block))
        entries = [block * per_block + int(k) for k in rng.permutation(per_block)]
        pool = []
        for j, entry in enumerate(entries):
            kind = ("testbench", "transform")[j % 2]
            select = golden.SELECTS[(j // 2) % 2]
            words = [int(x) for x in self.golden["inputs"][entry]]
            path = workdir / f"item{j}.{'stim' if kind == 'testbench' else 'csv'}"
            with open(path, "w", encoding="ascii") as fh:
                if kind == "testbench":
                    fh.write(f"SELECT {select.upper()}\n")
                    fh.writelines(format(w & 0xFFFF, "04X") + "\n" for w in words)
                else:
                    fh.writelines(repr(w / 128) + "\n" for w in words)
            pool.append((select, kind, entry, str(path), str(path) + ".out.hex"))
        return pool

    def run(self, item):
        select, kind, _, path, out_path = item
        argv = [sys.executable, "-m", "laurentfft.cli"]
        if kind == "testbench":
            argv += ["testbench", path, "--output", out_path]
        else:
            argv += ["transform", "--n", "16", "--select", select, "--arith", "fixed",
                     "--format", "hex", "--input", path]
        if self.tracer is None:
            proc = run_child(argv)
        else:
            proc = self.tracer.call(f"cli.{kind}", run_child, argv)
        words_text = proc.stdout
        if kind == "testbench" and proc.returncode == 0:
            with open(out_path, encoding="ascii") as fh:
                words_text = fh.read()
        return proc, words_text

    def check(self, item, output):
        select, kind, entry, _, _ = item
        proc, words_text = output
        if proc.returncode != 0:
            return f"exit status {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            words = [int(line, 16) for line in words_text.split()]
        except ValueError:
            return f"output is not hex words: {words_text[:80]!r}"
        s = golden.SELECTS.index(select)
        flag_key = "device_flag" if kind == "testbench" else "engine_flag"
        warned = "overflow" in proc.stderr
        return golden.check_words(words, warned, self.golden["words"][entry, s],
                                  self.golden[flag_key][entry, s])


WORKLOADS = {w.name: w for w in (TestbenchN16, QsweepN64, ExactN128, CliN16)}
