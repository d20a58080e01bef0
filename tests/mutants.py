"""Mutants of the fixed executor, its scalar ops, the output packing and the op
count that the fast tests must kill.

Each entry of MUTANTS is (file, old text, new text, reason).  Run from the
repository root:

    python tests/mutants.py

For each mutant the script copies src/ and tests/ to a temporary directory,
checks that the old text occurs exactly once in the file, replaces it and runs
`pytest -x -q` on TESTS (the op, memory, exhaustive and engine tests) in the
copy, fastest file first.  The unmutated copy must pass first.  The
exit status is nonzero if it does not, if an old text does not occur exactly
once, or if a mutant survives (its tests pass).  Only the standard library is
used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ENGINE, FIXED = "src/laurentfft/engine.py", "src/laurentfft/fixed.py"
MEMORY, PLAN = "src/laurentfft/memory.py", "src/laurentfft/plan.py"

MUTANTS = [
    (ENGINE,
     "x = [(quantize(s, cfg.fmt, cfg.rounding, flags).raw, acc_fmt) for s in v]",
     "x = [(quantize(s, cfg.fmt, cfg.rounding, None).raw, acc_fmt) for s in v]",
     "a sample that saturates in quantize leaves the flag clear"),
    (ENGINE,
     "rom = [quantize(c, cfg.fmt, cfg.rounding, flags) for c in tape.constants]",
     "rom = [quantize(c, cfg.fmt, cfg.rounding, None) for c in tape.constants]",
     "a ROM constant that saturates in quantize leaves the flag clear"),
    (ENGINE,
     "for r, c, s in table.terms:",
     "for r, c, s in reversed(table.terms):",
     "the walk takes a row's terms in reverse order"),
    (FIXED,
     "    raw += b_raw\n",
     "    raw += b_raw\n    if a.__class__ is not Fixed:\n        return raw, fmt\n",
     "fx_add on a plain pair neither saturates nor flags"),
    (FIXED,
     "    raw -= b_raw\n",
     "    raw -= b_raw\n    if a.__class__ is not Fixed:\n        return raw, fmt\n",
     "fx_sub on a plain pair neither saturates nor flags"),
    (FIXED,
     "    raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, flags)\n",
     "    if a.__class__ is not Fixed:\n"
     "        return _div_round(raw * b_raw, fmt.scale, rounding), fmt\n"
     "    raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, flags)\n",
     "fx_mul on a plain pair neither saturates nor flags"),
    (FIXED,
     "q = (abs(num) * 2 + den) // (den * 2)",
     "q = (abs(num) * 2 + den - 1) // (den * 2)",
     "half-away rounds ties toward zero"),
    (FIXED,
     "(2 * r == den and q % 2 == 1)",
     "(2 * r == den and q % 2 == 0)",
     "half-even rounds ties to odd"),
    (FIXED,
     "if raw > fmt.max_raw:",
     "if raw >= fmt.max_raw:",
     "a result of exactly max_raw sets the flag"),
    (FIXED,
     "raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, flags)",
     "raw = _saturate(_div_round(raw * b_raw, fmt.scale, ROUND_HALF_AWAY), fmt, flags)",
     "fx_mul ignores its rounding argument"),
    (FIXED,
     "raw = _div_round(num * fmt.scale, den, rounding)",
     "raw = _div_round(num * fmt.scale, den, ROUND_HALF_AWAY)",
     "quantize ignores its rounding argument"),
    (ENGINE,
     "rom = [quantize(c, cfg.fmt, cfg.rounding, flags) for c in tape.constants]",
     "rom = [quantize(c, cfg.fmt, ROUND_HALF_AWAY, flags) for c in tape.constants]",
     "the ROM is always quantized half-away"),
    (ENGINE,
     "(y[i:i + n] for i in range(0, len(y), n))",
     "(y[i:i + n] if i != n else [(-r, f) for r, f in y[i:i + n]] for i in range(0, len(y), n))",
     "the fixed merge negates stream 1, M_0's imaginary part, the first into im"),
    (FIXED,
     "raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, flags)",
     "raw = _saturate(_div_round(raw * b_raw, fmt.scale, rounding), fmt, None)",
     "a product that saturates in fx_mul leaves the flag clear"),
    (MEMORY,
     "raw = _saturate(raw, _HALF_WORD, flags)",
     "raw = _saturate(raw, _HALF_WORD, None)",
     "a half that saturates when packed leaves the flag clear"),
    (MEMORY,
     "((w & _WORD16) ^ 0x8000) - 0x8000)",
     "(w & _WORD16))",
     "unpack_output leaves the im half unsigned"),
    (PLAN,
     "np.maximum(r - 1, 0)",
     "np.maximum(r, 0)",
     "count_ops counts a row reached by t streams as t merge adds"),
]

TESTS = ["tests/test_fixed.py", "tests/test_memory.py", "tests/test_exhaustive.py",
         "tests/test_engine.py"]


def _tests_pass(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *TESTS], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def _copy(root: Path, tree: Path, mutant=None):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(root / part, tree / part, ignore=ignore)
    shutil.copy(root / "pyproject.toml", tree)
    if mutant is not None:
        path, old, new, _ = mutant
        text = (tree / path).read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the old text occurs {text.count(old)} times, not once: "
                             f"{old!r}")
        (tree / path).write_text(text.replace(old, new))


def _run(root: Path, mutant=None) -> tuple[bool, float]:
    """Whether the tests pass on a copy of root with mutant applied, and the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _copy(root, Path(tmp), mutant)
        passed = _tests_pass(Path(tmp))
    return passed, time.perf_counter() - start


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    passed, took = _run(root)
    print(f"unmutated tree: {'passes' if passed else 'FAILS'} ({took:.1f} s)")
    if not passed:
        return 1
    survivors = 0
    for mutant in MUTANTS:
        passed, took = _run(root, mutant)
        survivors += passed
        print(f"{'SURVIVED' if passed else 'killed'}: {mutant[0]}: {mutant[3]} ({took:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
