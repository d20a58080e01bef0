"""Mutants of the fixed executor, its scalar ops, the output packing, the
file reader, the op count, the column grouping, the DFT oracle and the CLI's
refusals that the fast tests must kill.

Each entry of MUTANTS is (file, old text, new text, reason).  Run from the
repository root:

    python tests/mutants.py

For each mutant the script copies src/ and tests/ to a temporary directory,
checks that the old text occurs exactly once in the file, replaces it and runs
`pytest -x -q` on TESTS (the op, memory, reference, CLI, exhaustive, plan and
engine tests) in the copy, fastest file first but for the mutated file's own
test file, tests/test_<its stem>.py, which runs first.  Under -x a survivor
still runs every file.  The unmutated copy must pass first.
The exit status is nonzero if it does not, if an old text does not occur
exactly once, or if a mutant survives (its tests pass).  Only the standard
library is used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI, ENGINE = "src/laurentfft/cli.py", "src/laurentfft/engine.py"
FIXED, MEMORY = "src/laurentfft/fixed.py", "src/laurentfft/memory.py"
PLAN, REFERENCE = "src/laurentfft/plan.py", "src/laurentfft/reference.py"

MUTANTS = [
    (ENGINE,
     "x = [(quantize(s, cfg.fmt, cfg.rounding, flags).raw, acc_fmt) for s in v.tolist()]",
     "x = [(quantize(s, cfg.fmt, cfg.rounding, None).raw, acc_fmt) for s in v.tolist()]",
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
     "    raw = _div_round(raw * b_raw, fmt.scale, rounding)\n",
     "    raw = _div_round(raw * b_raw, fmt.scale, rounding)\n"
     "    if a.__class__ is not Fixed:\n"
     "        return raw, fmt\n",
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
     "    if not fmt.min_raw <= raw <= fmt.max_raw:\n        raw = _saturate(raw, fmt, flags)\n"
     "    return _tuple_new(Fixed, (raw, fmt))\n",
     "    if not fmt.min_raw <= raw < fmt.max_raw:\n        raw = _saturate(raw, fmt, flags)\n"
     "    return _tuple_new(Fixed, (raw, fmt))\n",
     "a quantize result of exactly max_raw sets the flag"),
    (FIXED,
     "raw = _div_round(raw * b_raw, fmt.scale, rounding)",
     "raw = _div_round(raw * b_raw, fmt.scale, ROUND_HALF_AWAY)",
     "fx_mul ignores its rounding argument"),
    (FIXED,
     "raw = _div_round(num * fmt.scale, den, rounding)",
     "raw = _div_round(num * fmt.scale, den, ROUND_HALF_AWAY)",
     "quantize's exact-ratio path ignores its rounding argument"),
    (FIXED,
     "if r >= 0.5:",
     "if r > 0.5:",
     "quantize's float path rounds half-away ties toward zero"),
    (FIXED,
     "r == 0.5 and q & 1",
     "r == 0.5 and not q & 1",
     "quantize's float path rounds half-even ties to odd"),
    (FIXED,
     "        raw = -q if y < 0 else q\n",
     "        raw = -q if y < 0 else q\n        flags = None\n",
     "a float that saturates in quantize leaves the flag clear"),
    (ENGINE,
     "rom = [quantize(c, cfg.fmt, cfg.rounding, flags) for c in tape.constants]",
     "rom = [quantize(c, cfg.fmt, ROUND_HALF_AWAY, flags) for c in tape.constants]",
     "the ROM is always quantized half-away"),
    (ENGINE,
     "    steps, re_rows, im_rows = plan.merge_steps\n",
     "    steps, re_rows, im_rows = plan.merge_steps\n"
     "    y[im_rows] = [(-r, f) for r, f in y[im_rows]]\n",
     "the fixed merge negates stream 1, M_0's imaginary part, the first into im"),
    (PLAN,
     "        return tuple(steps), slice(re.start, re.stop), slice(im.start, im.stop)",
     "        steps = [s for s in steps if s[0] < n] + [s for s in steps if s[0] >= n][::-1]\n"
     "        return tuple(steps), slice(re.start, re.stop), slice(im.start, im.stop)",
     "the merge steps take the im accumulator's streams in reverse plan order"),
    (FIXED,
     "fmt.scale, rounding)\n    if not fmt.min_raw <= raw <= fmt.max_raw:\n"
     "        raw = _saturate(raw, fmt, flags)",
     "fmt.scale, rounding)\n    if not fmt.min_raw <= raw <= fmt.max_raw:\n"
     "        raw = _saturate(raw, fmt, None)",
     "a product that saturates in fx_mul leaves the flag clear"),
    (MEMORY,
     "_saturate(raw, _HALF_WORD, flags)",
     "_saturate(raw, _HALF_WORD, None)",
     "a half that saturates when packed leaves the flag clear"),
    (MEMORY,
     "-0x8000 <= hi <= 0x7FFF",
     "-0x8000 <= hi <= 0x8000",
     "packing's inline range test admits 0x8000 as a real half"),
    (MEMORY,
     "while chunk := os.read(fd, _READ_CHUNK):",
     "if chunk := os.read(fd, _READ_CHUNK):",
     "a reader stops after its first chunk"),
    (MEMORY,
     "((w & _WORD16) ^ 0x8000) - 0x8000)",
     "(w & _WORD16))",
     "unpack_output leaves the im half unsigned"),
    (PLAN,
     "np.maximum(r - 1, 0)",
     "np.maximum(r, 0)",
     "count_ops counts a row reached by t streams as t merge adds"),
    (PLAN,
     "sign = lead * lead[first][g]",
     "sign = lead[first][g]",
     "echelon_factor drops each column's own lead from its sign"),
    (CLI,
     "for i, x in enumerate(samples):",
     "for i, x in enumerate(samples[:-1]):",
     "transform leaves the last sample out of its range check"),
    (REFERENCE,
     "np.exp(-2j * np.pi * (np.outer(idx, idx) % n) / n)",
     "np.exp(-2j * np.pi * np.outer(idx, idx) / n)",
     "dft_matrix drops the % n from its exponent"),
]

TESTS = ["tests/test_fixed.py", "tests/test_memory.py", "tests/test_reference.py",
         "tests/test_cli.py", "tests/test_exhaustive.py", "tests/test_plan.py",
         "tests/test_engine.py"]


def _tests_pass(tree: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
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
    own = mutant and f"tests/test_{Path(mutant[0]).stem}.py"
    with tempfile.TemporaryDirectory() as tmp:
        _copy(root, Path(tmp), mutant)
        passed = _tests_pass(Path(tmp), sorted(TESTS, key=lambda t: t != own))
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
