"""Command-line behavior, exercised through main() for real exit codes."""

import os
import warnings

import numpy as np
import pytest

from laurentfft import (FixedConfig, MemoryImage, QFormat, build_plan, cli, execute,
                        load_stimulus, pack_output, run_device)
from laurentfft.cli import main
from laurentfft.fixed import ROUNDING_MODES, quantize
from laurentfft.plan import MAX_ORDER

RAMP2 = [0, 1, 2, 3, 4, 5, 6, 7] * 2
STIM_LINES = ["SELECT DFT"] + [format(x * 128, "04X") for x in RAMP2]


@pytest.fixture
def ramp_file(tmp_path):
    path = tmp_path / "ramp2.csv"
    path.write_text("\n".join(str(x) for x in RAMP2) + "\n")
    return path


@pytest.fixture
def no_plan(monkeypatch):
    """A plan build that fails: every refusal must come before the build."""
    def build_plan(n):
        raise AssertionError("the plan was built before the inputs were checked")

    monkeypatch.setattr(cli, "build_plan", build_plan)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_table_dht_fixed(self, capsys, ramp_file):
        code, out, _ = run_cli(capsys, "transform", "--n", "16", "--select", "dht",
                               "--arith", "fixed", "--input", str(ramp_file))
        assert code == 0
        assert out.splitlines() == ["56", "0", "-27.375", "0", "-16", "0",
                                    "-11.375", "0", "-8", "0", "-4.625", "0",
                                    "0", "0", "11.375", "0"]

    def test_zeros_exact_text(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("0\n" * 16)
        code, out, _ = run_cli(capsys, "transform", "--n", "16", "--select", "dft",
                               "--arith", "exact", "--input", str(path))
        assert code == 0
        assert out.splitlines() == ["0+0j"] * 16

    def test_compare_mode_n12(self, capsys, tmp_path):
        rng = np.random.default_rng(61)
        path = tmp_path / "r12.csv"
        path.write_text("\n".join(f"{x:.12f}" for x in rng.normal(size=12)))
        code, out, _ = run_cli(capsys, "transform", "--n", "12", "--select", "dft",
                               "--arith", "exact", "--input", str(path), "--compare")
        assert code == 0
        deviation = float(out.splitlines()[-1].split(":")[1])
        assert deviation < 1e-9

    def test_hex_format_packs_words(self, capsys, ramp_file):
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--select", "dft",
                                 "--arith", "fixed", "--input", str(ramp_file),
                                 "--format", "hex")
        assert (code, err) == (0, "")  # in range: no packing line
        lines = out.splitlines()
        assert lines[2] == "FC0009B0"
        assert lines[0] == "1C000000"

    @pytest.mark.parametrize("select, word", [("dft", "7FFF0000"), ("dht", "00007FFF")])
    def test_hex_format_reports_packing_saturation(self, capsys, tmp_path, select, word):
        # sixteen samples of 255: bin 0 is 4080, in range for the engine's
        # 32-bit accumulator, but its 16-bit output half saturates to 7FFF.
        # The line says so without the word "overflow", which stays the
        # engine flag's line
        path = tmp_path / "s255.csv"
        path.write_text("255\n" * 16)
        code, out, err = run_cli(capsys, "transform", "--select", select, "--input", str(path),
                                 "--format", "hex")
        assert code == 0
        assert out.splitlines() == [word] + ["00000000"] * 15
        assert err == "warning: output words saturated when packed to 16-bit halves\n"
        assert "overflow" not in err

    def test_hex_format_words_match_testbench_on_saturation(self, capsys, tmp_path):
        samples, stim = tmp_path / "s255.csv", tmp_path / "stim.txt"
        samples.write_text("255\n" * 16)
        stim.write_text("\n".join(["SELECT DFT"] + ["7F80"] * 16) + "\n")
        out_path = tmp_path / "words.hex"
        _, out, _ = run_cli(capsys, "transform", "--input", str(samples), "--format", "hex")
        code, _, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert out_path.read_text() == out
        assert (code, err) == (0, "warning: fixed-point overflow occurred (results saturated)\n")

    @pytest.mark.parametrize("select, header, bin2", [("dht", "k,h", "2,-27.375"),
                                                      ("dft", "k,re,im", "2,-8,19.375")],
                             ids=["dht", "dft"])
    def test_csv_format(self, capsys, ramp_file, select, header, bin2):
        code, out, _ = run_cli(capsys, "transform", "--n", "16", "--select", select,
                               "--arith", "fixed", "--input", str(ramp_file),
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == header
        assert lines[3] == bin2

    def test_hex_format_needs_fixed_arithmetic(self, capsys, ramp_file, no_plan):
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", "exact",
                                 "--input", str(ramp_file), "--format", "hex")
        assert (code, out) == (1, "")
        assert err == "error: hex output requires fixed arithmetic\n"

    def test_malformed_sample_names_line(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0.5\n1.0, 2.0\n3.0 x4\n")
        code, out, err = run_cli(capsys, "transform", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}:3: not a number: 'x4'\n"

    def test_sample_file_without_samples(self, capsys, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n,\n")
        code, out, err = run_cli(capsys, "transform", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: no samples found\n"

    def test_unsupported_length(self, capsys, tmp_path):
        path = tmp_path / "ten.csv"
        path.write_text("\n".join("1" for _ in range(10)))
        code, _, err = run_cli(capsys, "transform", "--n", "10", "--input", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "N ≡ 0 (mod 4)" in err

    # the length rule is named, not the 16 samples the file holds
    @pytest.mark.parametrize("n, rule", [
        ("0", "satisfy N ≡ 0 (mod 4) and N >= 4, got N=0"),
        ("-4", "satisfy N ≡ 0 (mod 4) and N >= 4, got N=-4"),
        ("17", "satisfy N ≡ 0 (mod 4) and N >= 4, got N=17"),
        (str(MAX_ORDER + 4), f"not exceed {MAX_ORDER}, got N={MAX_ORDER + 4}")],
        ids=["zero", "negative", "not-mod-4", "above-limit"])
    def test_unsupported_length_named_before_sample_count(self, capsys, ramp_file, n, rule):
        code, out, err = run_cli(capsys, "transform", "--n", n, "--input", str(ramp_file))
        assert (code, out, err) == (1, "", f"error: block length must {rule}\n")

    def test_sample_count_mismatch(self, capsys, ramp_file):
        code, _, err = run_cli(capsys, "transform", "--n", "12",
                               "--input", str(ramp_file))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("arith", ["exact", "fixed"])
    def test_sample_count_mismatch_names_both_counts(self, capsys, ramp_file, no_plan, arith):
        code, out, err = run_cli(capsys, "transform", "--n", "32", "--arith", arith,
                                 "--input", str(ramp_file))
        assert (code, out, err) == (1, "", "error: expected 32 samples, got 16\n")

    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_out_of_range_sample_names_index(self, capsys, tmp_path, rounding):
        path = tmp_path / "big.csv"
        path.write_text("0\n1\n2\n999\n" + "0\n" * 12)
        code, _, err = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                               "--round", rounding, "--input", str(path))
        assert code == 1
        assert "sample 3" in err

    def test_out_of_range_sample_rejected_before_transform(self, capsys, tmp_path, no_plan):
        path = tmp_path / "big.csv"
        path.write_text("0\n1\n2\n999\n" + "0\n" * 12)
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                                 "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: sample 3 = 999.0 is outside the Q8.7 range"]

    def test_first_of_two_out_of_range_samples_named(self, capsys, tmp_path):
        path = tmp_path / "big2.csv"
        path.write_text("0\n-999\n2\n999\n" + "0\n" * 12)
        code, _, err = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                               "--input", str(path))
        assert code == 1
        assert err.splitlines() == ["error: sample 1 = -999.0 is outside the Q8.7 range"]

    def test_range_probe_quantizes_only_the_extremes(self, capsys, ramp_file, monkeypatch):
        calls = []

        def counting_quantize(*args, **kwargs):
            calls.append(args[0])
            return quantize(*args, **kwargs)

        monkeypatch.setattr(cli, "quantize", counting_quantize)
        code, _, _ = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                             "--input", str(ramp_file))
        assert code == 0
        assert calls == [min(RAMP2), max(RAMP2)]

    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_small_sample_in_range(self, capsys, tmp_path, rounding):
        # 0.0077 is below one Q8.7 ulp: truncation errs by nearly a whole ulp
        path = tmp_path / "small.csv"
        path.write_text("0.0077\n" + "0\n" * 15)
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                                 "--round", rounding, "--input", str(path))
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 16

    @pytest.mark.parametrize("arith", ["exact", "fixed"])
    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_sample_names_index(self, capsys, tmp_path, arith, token):
        path = tmp_path / "bad.csv"
        path.write_text("0\n1\n" + token + "\n" + "0\n" * 13)
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", arith,
                                 "--input", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: sample 2 ")

    @pytest.mark.parametrize("select", ["dft", "dht"])
    @pytest.mark.parametrize("runtime_warnings", ["default", "error"])
    def test_exact_float64_overflow_is_one_error_line(self, capsys, tmp_path, select,
                                                      runtime_warnings):
        path = tmp_path / "huge.csv"
        path.write_text("1e308\n" * 16)
        with warnings.catch_warnings():
            warnings.simplefilter(runtime_warnings, RuntimeWarning)
            code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", "exact",
                                     "--select", select, "--input", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: exact transform overflows float64")

    def test_output_file_and_determinism(self, capsys, ramp_file, tmp_path):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out_path in (out_a, out_b):
            code, _, _ = run_cli(capsys, "transform", "--n", "16", "--select", "dft",
                                 "--arith", "fixed", "--input", str(ramp_file),
                                 "--output", str(out_path), "--format", "hex")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_non_ascii_sample_file_names_line(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"0.5\n1.0, 2.0\n3.0\xe9\n")
        code, out, err = run_cli(capsys, "transform", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}:3: non-ASCII byte 0xe9\n"

    # a line ends at LF alone: the FF and VT on lines 1 and 2 end no line
    @pytest.mark.parametrize("data, where", [
        (b"0.5\x0c1.0\n2.0\x0b3.0\nx4\n", "3: not a number: 'x4'"),
        (b"0.5\x0c1.0\n2.0\x0b3.0\n\xe9\n", "3: non-ASCII byte 0xe9")],
        ids=["not-a-number", "non-ascii"])
    def test_sample_file_lines_end_at_lf(self, capsys, tmp_path, data, where):
        path = tmp_path / "samples.csv"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "transform", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}:{where}\n"

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transform", "--n", "16",
                               "--input", str(tmp_path / "nope.csv"))
        assert code == 1 and err.startswith("error:")

    def test_missing_file_is_one_line_alike_in_both_commands(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        transform = run_cli(capsys, "transform", "--input", str(missing))
        testbench = run_cli(capsys, "testbench", str(missing))
        assert transform == testbench == (
            1, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")

    def test_sample_count_not_a_length_named_before_sample_range(self, capsys, tmp_path,
                                                                 no_plan):
        path = tmp_path / "six.csv"
        path.write_text("0\n999\n0\n0\n0\n0\n")
        code, out, err = run_cli(capsys, "transform", "--input", str(path))
        assert (code, out, err) == (
            1, "", "error: block length must satisfy N ≡ 0 (mod 4) and N >= 4, got N=6\n")


class TestPlan:
    def test_order_16_counts(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--n", "16")
        assert code == 0
        assert "multiplications: 12" in out
        assert "additions: 96" in out
        assert "term sqrt(2)/2" in out

    @pytest.mark.parametrize("n, mults", [(4, 0), (128, 906)])
    def test_order_4_multiplication_free(self, capsys, n, mults):
        code, out, _ = run_cli(capsys, "plan", "--n", str(n), "--count-ops")
        assert code == 0
        assert f"multiplications: {mults}\n" in out

    def test_count_only_suppresses_dump(self, capsys):
        _, out, _ = run_cli(capsys, "plan", "--n", "16", "--count-ops")
        assert "reduced rows" not in out

    def test_unsupported_length(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--n", "10")
        assert code == 1
        assert "N ≡ 0 (mod 4)" in err

    def test_length_above_limit(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--n", str(MAX_ORDER + 4))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: block length must not exceed {MAX_ORDER}")


class TestTestbench:
    def test_dft_stimulus(self, capsys, tmp_path):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(STIM_LINES) + "\n")
        out_path = tmp_path / "words.hex"
        code, _, _ = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "1C000000"
        assert lines[2] == "FC0009B0"

    def test_dht_stimulus_bin2(self, capsys, tmp_path):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(["SELECT DHT"] + STIM_LINES[1:]) + "\n")
        out_path = tmp_path / "words.hex"
        code, _, _ = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert code == 0
        assert out_path.read_text().splitlines()[2] == "0000F250"

    def test_saturated_words_written_with_warning(self, capsys, tmp_path):
        # sixteen samples of 255.0: bin 0 is 4080, which the 16-bit output
        # half saturates to 7FFF
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(["SELECT DFT"] + ["7F80"] * 16) + "\n")
        out_path = tmp_path / "words.hex"
        code, out, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert code == 0
        assert out == f"wrote 16 output words to {out_path}\n"
        assert out_path.read_text().splitlines() == ["7FFF0000"] + ["00000000"] * 15
        assert err == "warning: fixed-point overflow occurred (results saturated)\n"

    def test_default_output_path(self, capsys, tmp_path):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(STIM_LINES) + "\n")
        code, out, _ = run_cli(capsys, "testbench", str(stim))
        assert code == 0
        assert (tmp_path / "stim.txt.out.hex").exists()

    def test_empty_stimulus_no_output(self, capsys, tmp_path):
        stim = tmp_path / "empty.txt"
        stim.write_text("")
        out_path = tmp_path / "words.hex"
        code, _, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert code == 1
        assert err.startswith("error:")
        assert not out_path.exists()

    def test_stimulus_above_length_limit(self, capsys, tmp_path):
        stim = tmp_path / "long.txt"
        stim.write_text("\n".join(["SELECT DFT"] + ["0000"] * (MAX_ORDER + 4)) + "\n")
        out_path = tmp_path / "words.hex"
        code, out, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: block length must not exceed {MAX_ORDER}")
        assert not out_path.exists()

    def test_non_ascii_stimulus_names_line(self, capsys, tmp_path):
        stim = tmp_path / "stim.txt"
        stim.write_bytes(b"SELECT DFT\n00\xe9\n")
        out_path = tmp_path / "words.hex"
        code, out, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: {stim}:2: non-ASCII byte 0xe9\n"
        assert not out_path.exists()

    def test_malformed_line_reported(self, capsys, tmp_path):
        stim = tmp_path / "bad.txt"
        stim.write_text("SELECT DFT\n0000\nG123\n")
        code, _, err = run_cli(capsys, "testbench", str(stim))
        assert code == 1
        assert ":3:" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(STIM_LINES) + "\n")
        a, b = tmp_path / "a.hex", tmp_path / "b.hex"
        run_cli(capsys, "testbench", str(stim), "--output", str(a))
        run_cli(capsys, "testbench", str(stim), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

        # a rerun into a path holding a longer file leaves no stale tail
        c = tmp_path / "c.hex"
        c.write_text("F" * 4096 + "\n")
        run_cli(capsys, "testbench", str(stim), "--output", str(c))
        assert c.read_bytes() == a.read_bytes()

    def test_output_to_dev_null(self, capsys, tmp_path, ramp_file):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(STIM_LINES) + "\n")
        code, _, err = run_cli(capsys, "testbench", str(stim), "--output", os.devnull)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, "transform", "--n", "16", "--arith", "fixed",
                                 "--format", "hex", "--input", str(ramp_file),
                                 "--output", os.devnull)
        assert (code, out, err) == (0, "", "")



# Q10.5 with truncation: neither option at its default, and both change the words
CFG_5_TRUNC = FixedConfig(QFormat(16, 5), "truncate")


class TestFixedOptions:
    @pytest.mark.parametrize("select", ["dft", "dht"])
    def test_transform_frac_bits_and_round(self, capsys, tmp_path, select):
        samples = np.random.default_rng(19).uniform(-4, 4, 16)
        path = tmp_path / "r16.csv"
        path.write_text("\n".join(repr(float(x)) for x in samples) + "\n")
        plan = build_plan(16)
        want = pack_output(execute(plan, samples, select, CFG_5_TRUNC))
        for other in (FixedConfig(), FixedConfig(QFormat(16, 5)), FixedConfig(rounding="truncate")):
            assert pack_output(execute(plan, samples, select, other)) != want
        code, out, err = run_cli(capsys, "transform", "--select", select, "--arith", "fixed",
                                 "--frac-bits", "5", "--round", "truncate", "--format", "hex",
                                 "--input", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [format(w, "08X") for w in want]

    @pytest.mark.parametrize("header", ["SELECT DFT", "SELECT DHT"])
    def test_testbench_frac_bits_and_round(self, capsys, tmp_path, header):
        raws = np.random.default_rng(23).integers(-1000, 1000, 16).tolist()
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join([header] + [format(w & 0xFFFF, "04X") for w in raws]) + "\n")
        image = load_stimulus(stim)
        assert image == MemoryImage(raws, header.split()[1])
        plan = build_plan(16)
        want = run_device(image, plan, CFG_5_TRUNC).output_words
        for other in (FixedConfig(), FixedConfig(QFormat(16, 5)), FixedConfig(rounding="truncate")):
            assert run_device(image, plan, other).output_words != want
        out_path = tmp_path / "words.hex"
        code, _, err = run_cli(capsys, "testbench", str(stim), "--output", str(out_path),
                               "--frac-bits", "5", "--round", "truncate")
        assert (code, err) == (0, "")
        assert out_path.read_text().splitlines() == [format(w, "08X") for w in want]

    @pytest.mark.parametrize("bits", ["0", "16"])
    @pytest.mark.parametrize("command", ["transform", "testbench"])
    def test_frac_bits_outside_the_word_is_one_error_line(self, capsys, tmp_path, ramp_file,
                                                          no_plan, command, bits):
        stim = tmp_path / "stim.txt"
        stim.write_text("\n".join(STIM_LINES) + "\n")
        out_path = tmp_path / "words.hex"
        argv = (["transform", "--input", str(ramp_file)] if command == "transform" else
                ["testbench", str(stim), "--output", str(out_path)])
        code, out, err = run_cli(capsys, *argv, "--frac-bits", bits)
        assert (code, out) == (1, "")
        assert err == f"error: QFormat frac_bits must be an integer in [1, 15], got {bits}\n"
        assert not out_path.exists()
