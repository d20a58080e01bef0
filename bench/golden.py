"""Golden results recorded from the engine, and the checks that use them.

Fixed-point items are checked bit-exactly against a recorded corpus: the
packed 32-bit output words and the overflow flag for the device flow, the
full Q-format raws and the overflow flag for the quantization sweep.  A
run's seed picks its items from the corpus, so every seed is checked
against recorded results.  The corpora are regenerated by
record_golden.py; the inputs themselves are stored, so loading a golden
never depends on the random generator reproducing them.

Exact items have no golden: they are checked against np.fft.fft (and its
Hartley form) within a tolerance.

Checks read only public results: TransformResult raws and flags, packed
words, files read back and QuantizationReport entries.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
N16_PATH = GOLDEN_DIR / "n16.npz"
N64_PATH = GOLDEN_DIR / "n64.npz"

N16_CORPUS_SEED = 16_2015
N64_CORPUS_SEED = 64_2015
N16_BLOCKS = 64
N64_PER_CLASS = 4

SELECTS = ("dft", "dht")
# The Q-format study grid: fraction bits x rounding mode x accumulator width.
QSWEEP_GRID = tuple((frac, rounding, acc)
                    for frac in (5, 7, 9)
                    for rounding in ("half-away", "half-even", "truncate")
                    for acc in (32, 18))

# Exact results are float64 evaluations of an O(N^2) sum; they must agree
# with np.fft.fft to this fraction of the spectrum's peak magnitude.
EXACT_RTOL = 1e-9


def load(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def check_words(words, flag: bool, golden_words, golden_flag: bool) -> str | None:
    """Compare packed output words and an overflow flag with the golden."""
    golden_words = [int(w) for w in golden_words]
    if len(words) != len(golden_words):
        return f"{len(words)} output words, golden has {len(golden_words)}"
    for i, (got, want) in enumerate(zip(words, golden_words)):
        if got != want:
            return f"word {i} is {got:08X}, golden {want:08X}"
    if bool(flag) != bool(golden_flag):
        return f"overflow flag {bool(flag)}, golden {bool(golden_flag)}"
    return None


def check_raws(result, golden_raws, golden_flag: bool) -> str | None:
    """Compare a fixed-mode TransformResult's raws and flag with the golden.

    golden_raws has shape (2, N): real raws, then imaginary raws (zero for
    DHT, whose result has no imaginary part).
    """
    rows = [result.real_raw] + ([result.imag_raw] if result.imag_raw is not None else [])
    for part, (got, want) in enumerate(zip(rows, golden_raws)):
        if got is None or len(got) != len(want):
            return "result carries no raws of the golden's length"
        for k, (a, b) in enumerate(zip(got, want)):
            if a != int(b):
                return f"{('re', 'im')[part]}[{k}] raw is {a}, golden {int(b)}"
    if bool(result.overflow) != bool(golden_flag):
        return f"overflow flag {bool(result.overflow)}, golden {bool(golden_flag)}"
    return None


def check_report(report, frac_bits: int, golden_raws, golden_max_rel: float,
                 golden_entries: int, reference) -> str | None:
    """Check a QuantizationReport: each entry's fixed value bit-exactly
    against the golden raws, its exact value against the reference bins,
    and the worst relative error against the golden's."""
    scale = 1 << frac_bits
    peak = max(float(np.max(np.abs(reference))), 1.0)
    if len(report.entries) != int(golden_entries):
        return f"{len(report.entries)} report entries, golden has {int(golden_entries)}"
    for k, name, exact, fixed, _ in report.entries:
        part = 1 if name == "im" else 0
        raw = fixed * scale
        if raw != int(golden_raws[part][k]):
            return f"entry {name}[{k}] fixed raw {raw}, golden {int(golden_raws[part][k])}"
        want = reference[k].imag if name == "im" else reference[k].real
        if abs(exact - want) > EXACT_RTOL * peak:
            return f"entry {name}[{k}] exact value {exact!r}, reference {want!r}"
    if abs(report.max_rel_error - golden_max_rel) > EXACT_RTOL * max(abs(golden_max_rel), 1e-3):
        return f"max_rel_error {report.max_rel_error!r}, golden {float(golden_max_rel)!r}"
    return None


def reference_bins(samples, select: str) -> np.ndarray:
    """np.fft.fft bins, or the Hartley bins Re - Im as a real-valued complex array."""
    bins = np.fft.fft(np.asarray(samples, dtype=np.float64))
    if select == "dht":
        return (bins.real - bins.imag).astype(np.complex128)
    return bins


def check_exact(values, samples, select: str) -> str | None:
    """Compare an exact-mode result with np.fft.fft within EXACT_RTOL of the peak."""
    ref = reference_bins(samples, select)
    if select == "dht":
        ref = ref.real
    values = np.asarray(values)
    if values.shape != ref.shape:
        return f"result shape {values.shape}, reference {ref.shape}"
    err = float(np.max(np.abs(values - ref)))
    peak = max(float(np.max(np.abs(ref))), 1.0)
    if not err <= EXACT_RTOL * peak:
        return f"max deviation {err:.3e} from np.fft exceeds {EXACT_RTOL:g} of peak {peak:.3g}"
    return None
