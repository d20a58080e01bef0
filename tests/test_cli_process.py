"""The CLI as a real process: `python -m laurentfft.cli` in a child, against
main() in this process, and the process entry that freezes the heap at exit."""

import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import laurentfft
from laurentfft import cli
from laurentfft.cli import main

SRC = Path(laurentfft.__file__).resolve().parent.parent
ROOT = SRC.parent
RAMP2 = [0, 1, 2, 3, 4, 5, 6, 7] * 2

HEX = ["transform", "--arith", "fixed", "--format", "hex"]
# (exit status, argv, the output file it writes or None); paths are relative
# to the directory the inputs are written to
CASES = {
    "testbench DFT": (0, ["testbench", "stim.txt", "--output", "words.hex"], "words.hex"),
    "testbench DHT": (0, ["testbench", "stim_dht.txt", "--output", "words.hex"], "words.hex"),
    "transform hex": (0, HEX + ["--input", "ramp2.csv"], None),
    "transform hex, packing saturates": (0, HEX + ["--input", "s255.csv"], None),
    "transform hex to a file, packing saturates": (
        0, HEX + ["--input", "s255.csv", "--output", "t255.hex"], "t255.hex"),
    "exact arithmetic with hex output": (
        1, ["transform", "--arith", "exact", "--format", "hex", "--input", "ramp2.csv"], None),
    "argparse refuses --n": (2, ["transform", "--n", "abc", "--input", "ramp2.csv"], None),
}


@pytest.fixture
def inputs(tmp_path):
    words = [format(x * 128, "04X") for x in RAMP2]
    (tmp_path / "stim.txt").write_text("\n".join(["SELECT DFT"] + words) + "\n")
    (tmp_path / "stim_dht.txt").write_text("\n".join(["SELECT DHT"] + words) + "\n")
    (tmp_path / "ramp2.csv").write_text("\n".join(map(str, RAMP2)) + "\n")
    (tmp_path / "s255.csv").write_text("255\n" * 16)
    return tmp_path


def _child(args, cwd, code=None):
    """(exit status, stdout, stderr) of `python -m laurentfft.cli *args`, or of
    the program code with args as its sys.argv[1:]."""
    command = ["-m", "laurentfft.cli"] if code is None else ["-c", code]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, *command, *args], cwd=cwd, env=env,
                         capture_output=True, encoding="utf-8", check=False)
    return run.returncode, run.stdout, run.stderr


def _take(path):
    """The bytes of the file at path, which is then removed, or None if there is none."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def _in_process(capsys, args):
    try:
        status = main(args)
    except SystemExit as exc:  # argparse's refusals raise it inside main
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("case", CASES)
def test_child_matches_main_in_process(case, inputs, capsys, monkeypatch):
    status, args, written = CASES[case]
    output = inputs / (written or "no output")
    child = _child(args, inputs) + (_take(output),)
    monkeypatch.chdir(inputs)
    here = _in_process(capsys, args) + (_take(output),)
    assert child == here
    assert here[0] == status and (here[3] is None) == (written is None)
    if "saturates" in case:
        assert here[2] == "warning: output words saturated when packed to 16-bit halves\n"


# atexit runs its hooks last in, first out: this reporter, registered before
# the module runs, runs after the entry's gc.freeze
REPORT_AT_EXIT = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count(), "tracked", len(gc.get_objects())))
runpy.run_module("laurentfft.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("case", ["testbench DFT", "argparse refuses --n"])
def test_heap_is_frozen_at_exit(case, inputs):
    status, args, _ = CASES[case]
    code, out, _ = _child(args, inputs, REPORT_AT_EXIT)
    assert code == status
    frozen, tracked = map(int, re.fullmatch(r"frozen (\d+) tracked (\d+)",
                                            out.splitlines()[-1]).groups())
    # the imports leave about 22k objects; the shutdown collection walks none of them
    assert frozen > 10_000 and tracked < 100
    assert gc.get_freeze_count() == 0  # nor has this process frozen its heap


def test_console_script_is_the_module_entry():
    # read as text: Python 3.10 has no tomllib
    (target,) = re.findall(r'^laurentfft = "([\w.:]+)"$', (ROOT / "pyproject.toml").read_text(),
                           re.MULTILINE)
    module, name = target.split(":")
    assert module == cli.__name__ and getattr(cli, name) is cli._entry
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    {name}()"
