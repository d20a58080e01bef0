"""Memory model: word packing, device runs, and testbench files."""

import dataclasses
import os
import re
import stat
import threading

import numpy as np
import pytest

from laurentfft import (
    FixedConfig,
    MemoryImage,
    OverflowFlag,
    QFormat,
    StimulusFormatError,
    TransformResult,
    TransformSelect,
    build_plan,
    execute,
    load_stimulus,
    pack_output,
    quantization_report,
    read_output_words,
    run_device,
    unpack_output,
    write_output_words,
    write_stimulus,
)
from laurentfft.memory import DeviceOutput

from fixed_oracle import _fixed_result, _pack_model

RAMP2_RAWS = tuple(x * 128 for x in [0, 1, 2, 3, 4, 5, 6, 7] * 2)

# Q8.7 encodings of the device outputs for the ramp vector
DFT_WORDS = (0x1C000000, 0x00000000, 0xFC0009B0, 0x00000000,
             0xFC000400, 0x00000000, 0xFC0001B0, 0x00000000,
             0xFC000000, 0x00000000, 0xFC00FE50, 0x00000000,
             0xFC00FC00, 0x00000000, 0xFC00F650, 0x00000000)
DHT_WORDS = (0x00001C00, 0x00000000, 0x0000F250, 0x00000000,
             0x0000F800, 0x00000000, 0x0000FA50, 0x00000000,
             0x0000FC00, 0x00000000, 0x0000FDB0, 0x00000000,
             0x00000000, 0x00000000, 0x000005B0, 0x00000000)


@pytest.fixture(scope="module")
def plan16():
    return build_plan(16)


class TestPacking:
    def test_dft_word_layout(self):
        words = pack_output(_fixed_result("dft", (-1024,), (2480,)))
        assert words == (0xFC0009B0,)

    def test_dht_word_layout(self):
        assert pack_output(_fixed_result("dht", (-3504,))) == (0x0000F250,)
        assert pack_output(_fixed_result("dht", (0,))) == (0x00000000,)

    def test_unpack_inverts(self):
        assert unpack_output([0xFC0009B0], TransformSelect.DFT) == ((-1024, 2480),)
        assert unpack_output([0x0000F250], TransformSelect.DHT) == (-3504,)

    @pytest.mark.parametrize("select", list(TransformSelect))
    @pytest.mark.parametrize("bad, index", [(2**32, 1), (-1, 0), (8589934591, 2)])
    def test_unpack_rejects_word_outside_32_bits(self, bad, index, select):
        words = [0, 0, 0]
        words[index] = bad
        message = rf"^output word {index} must be an integer in \[0, 4294967295\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            unpack_output(words, select)

    def test_unpack_dht_rejects_nonzero_upper_half(self):
        # a DFT word read back as DHT would otherwise pass as its imaginary half
        with pytest.raises(ValueError, match=r"DHT output word 1 = 0xfc0009b0 has a nonzero upper"):
            unpack_output([0x0000F250, 0xFC0009B0], TransformSelect.DHT)
        with pytest.raises(ValueError, match=r"DHT output word 0 = 0x00010000 "):
            unpack_output([0x00010000], TransformSelect.DHT)
        assert unpack_output([0x0000FFFF], TransformSelect.DHT) == (-1,)

    def test_round_trip_random_raws(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            re_raw, im_raw = (tuple(int(x) for x in col)
                              for col in rng.integers(-32768, 32768, size=(2, 16)))
            assert unpack_output(pack_output(_fixed_result("dft", re_raw, im_raw)),
                                 TransformSelect.DFT) == tuple(zip(re_raw, im_raw))
            raws = tuple(int(x) for x in rng.integers(-32768, 32768, size=16))
            assert unpack_output(pack_output(_fixed_result("dht", raws)),
                                 TransformSelect.DHT) == raws

    def test_dht_words_have_zero_upper_half(self):
        rng = np.random.default_rng(52)
        raws = [int(x) for x in rng.integers(-32768, 32768, size=64)]
        for w in pack_output(_fixed_result("dht", raws)):
            assert w >> 16 == 0

    def test_exact_mode_result_rejected(self, plan16):
        exact = execute(plan16, [0.0] * 16, TransformSelect.DFT, "exact")
        with pytest.raises(ValueError):
            pack_output(exact)

    # raw integers are no result: they carry no select to pick the layout
    @pytest.mark.parametrize("raws", [[0] * 16, [(1, 2), (3, 4)], (), 5],
                             ids=["dht-raws", "dft-pairs", "empty", "int"])
    def test_plain_raws_refused(self, raws):
        message = "^packing is defined only for fixed-mode results$"
        with pytest.raises(ValueError, match=message):
            pack_output(raws)
        with pytest.raises(ValueError, match=message):
            pack_output(raws, flags=OverflowFlag())

    # the removed (raws, select) form must not pack a result with "dft" as flags
    def test_flags_are_keyword_only(self):
        result = _fixed_result("dft", (40000,), (0,))
        with pytest.raises(TypeError):
            pack_output(result, "dft")
        with pytest.raises(TypeError):
            pack_output(result, OverflowFlag())

    def test_hand_built_result_select_by_name(self):
        result = TransformResult("dht", np.zeros(1), (5,))
        assert result.select is TransformSelect.DHT
        assert pack_output(result) == (5,)
        assert TransformResult("DFT", np.zeros(1), (1,), (2,)).select is TransformSelect.DFT
        with pytest.raises(ValueError):
            TransformResult("fft", np.zeros(1))

    def test_numpy_words_unpack_to_ints(self):
        # as uint32 the upper half would not sign-extend; as uint16 a half
        # would overflow on its way through
        assert unpack_output(np.array([0xFFFF0002], dtype=np.uint32), "dft") == ((-1, 2),)
        assert unpack_output(np.array([0xFFFF], dtype=np.uint16), "dht") == (-1,)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_numpy_raws_pack_as_ints(self, dtype):
        words = pack_output(_fixed_result("dft", (dtype(-1),), (dtype(2),)))
        assert words == (0xFFFF0002,) and type(words[0]) is int

    @pytest.mark.parametrize("result, message", [
        (_fixed_result("dht", (0, 1.5)), "raw 1 must be an integer, got 1.5"),
        (_fixed_result("dft", (0, 1.5), (0, 0)), "real raw 1 must be an integer, got 1.5"),
        (_fixed_result("dft", (0, 0), (0, "1")), "imaginary raw 1 must be an integer, got '1'")],
        ids=["dht", "dft-real", "dft-imaginary"])
    def test_non_integer_raw_named(self, result, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pack_output(result)

    # a DFT result's raws were zipped loosely and packed unchecked: two real
    # raws and one imaginary packed one word, a missing imag_raw or a float
    # raw escaped as TypeError (test_admission.py tries every bad raw)
    @pytest.mark.parametrize("real_raw, imag_raw, message", [
        ((1, 2), (3,), "zip() argument 2 is shorter than argument 1"),
        ((np.float64(2.0), 0), (0, 0), f"real raw 0 must be an integer, got {np.float64(2.0)!r}"),
        ((1, 2), None, "packing is defined only for fixed-mode results")],
        ids=["length-mismatch", "float-raw", "no-imag-raw"])
    def test_malformed_dft_result_refused(self, real_raw, imag_raw, message):
        result = TransformResult(TransformSelect.DFT, np.zeros(2), real_raw, imag_raw)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pack_output(result)

    @pytest.mark.parametrize("cfg", [
        FixedConfig(), FixedConfig(rounding="truncate", acc_total_bits=18),
        FixedConfig(QFormat(16, 15), acc_total_bits=17)],
        ids=["default", "truncate-acc18", "q0.15-acc17"])
    def test_result_packs_as_its_raws(self, cfg):
        # against the layout alone: each raw clamped to 16 bits, then
        # ((re & 0xFFFF) << 16) | (im & 0xFFFF), or re & 0xFFFF for DHT
        rng = np.random.default_rng(cfg.acc_total_bits)
        flagged = []
        for n in (4, 16, 64):
            plan = build_plan(n)
            for peak in (16, 32768):
                v = rng.integers(-peak, peak, size=n) / cfg.fmt.scale
                for select in TransformSelect:
                    result = execute(plan, v, select, cfg)
                    flags = OverflowFlag()
                    assert (pack_output(result, flags=flags), flags.overflow) == \
                        _pack_model(result)
                    flagged.append(flags.overflow)
        assert any(flagged) and not all(flagged)

    def test_oversized_raw_saturates_and_flags(self):
        # -0x8000 and 0x7FFF pack as they are with the flag clear; 0x8000 and
        # -0x8001, one past them, saturate to them and set it, in every half
        cases = [(("dft", (40000,), (-40000,)), (0x7FFF8000,), True),
                 (("dht", (-0x8000, 0x7FFF)), (0x8000, 0x7FFF), False),
                 (("dht", (0x8000, -0x8001)), (0x7FFF, 0x8000), True),
                 (("dft", (-0x8000, 0x7FFF), (0x7FFF, -0x8000)), (0x80007FFF, 0x7FFF8000), False),
                 (("dft", (0x8000, -0x8001), (-0x8001, 0x8000)), (0x7FFF8000, 0x80007FFF), True)]
        for args, words, flagged in cases:
            flags = OverflowFlag()
            assert (pack_output(_fixed_result(*args), flags=flags), flags.overflow) == (
                words, flagged), args


class TestRunDevice:
    def test_table_dft(self, plan16):
        image = MemoryImage(RAMP2_RAWS, TransformSelect.DFT)
        done = run_device(image, plan16)
        assert done.output_words == DFT_WORDS
        assert not done.overflow
        # the image the device read is untouched
        assert image.input_words == RAMP2_RAWS

    # ramp: no flag; 16 x 7F80: bin 0 saturates only when packed; 16 x 7FFF:
    # the 18-bit accumulator saturates inside the engine too
    @pytest.mark.parametrize("words, cfg, overflow", [
        (RAMP2_RAWS, FixedConfig(), False),
        ((0x7F80,) * 16, FixedConfig(), True),
        ((0x7FFF,) * 16, FixedConfig(acc_total_bits=18), True),
    ], ids=["ramp", "packing", "engine"])
    def test_returns_device_output(self, plan16, words, cfg, overflow):
        for sel in TransformSelect:
            image = MemoryImage(words, sel)
            done = run_device(image, plan16, cfg)
            assert type(done) is DeviceOutput
            assert type(done.output_words) is tuple and len(done.output_words) == 16
            assert all(type(w) is int for w in done.output_words)
            assert type(done.overflow) is bool and done.overflow is overflow
            assert image == MemoryImage(words, sel) and image.select is sel

    def test_image_holds_only_what_the_device_reads(self):
        assert [f.name for f in dataclasses.fields(MemoryImage)] == ["input_words", "select"]
        assert DeviceOutput._fields == ("output_words", "overflow")

    def test_table_dht(self, plan16):
        done = run_device(MemoryImage(RAMP2_RAWS, TransformSelect.DHT), plan16)
        assert done.output_words == DHT_WORDS

    def test_matches_engine_composition(self, plan16):
        # the memory model adds no arithmetic of its own
        rng = np.random.default_rng(53)
        raws = tuple(int(x) for x in rng.integers(-1024, 1024, size=16))
        for sel in (TransformSelect.DFT, TransformSelect.DHT):
            done = run_device(MemoryImage(raws, sel), plan16)
            result = execute(plan16, np.array(raws) / 128.0, sel, FixedConfig())
            assert done.output_words == pack_output(result)

    def test_zero_words(self, plan16):
        for sel in (TransformSelect.DFT, TransformSelect.DHT):
            done = run_device(MemoryImage((0,) * 16, sel), plan16)
            assert done.output_words == (0,) * 16

    def test_order_mismatch(self, plan16):
        with pytest.raises(ValueError):
            run_device(MemoryImage((0,) * 8, TransformSelect.DFT), plan16)

    def test_order_mismatch_message_is_executes(self, plan16):
        with pytest.raises(ValueError, match=r"^expected 16 samples, got 8$"):
            run_device(MemoryImage((0,) * 8, TransformSelect.DFT), plan16)

    def test_none_config_is_the_default(self, plan16):
        image = MemoryImage(RAMP2_RAWS, TransformSelect.DFT)
        assert run_device(image, plan16, None) == run_device(image, plan16, FixedConfig())

    # 0, False and '' ran the default device; "exact" escaped as an AttributeError
    @pytest.mark.parametrize("cfg", [0, False, "", "exact", QFormat(16, 7)])
    def test_config_must_be_a_fixed_config(self, plan16, cfg):
        message = f"cfg must be a FixedConfig or None, got {cfg!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_device(MemoryImage(RAMP2_RAWS, TransformSelect.DFT), plan16, cfg)


class TestStimulusFiles:
    def test_round_trip(self, tmp_path, plan16):
        image = MemoryImage(RAMP2_RAWS, TransformSelect.DHT)
        path = tmp_path / "stim.txt"
        write_stimulus(image, path)
        loaded = load_stimulus(path)
        assert loaded.input_words == RAMP2_RAWS
        assert loaded.select is TransformSelect.DHT

    def test_negative_words_round_trip(self, tmp_path):
        image = MemoryImage((-1024, 2480, -32768, 32767), TransformSelect.DFT)
        path = tmp_path / "neg.txt"
        write_stimulus(image, path)
        assert load_stimulus(path).input_words == image.input_words

    def test_malformed_hex_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SELECT DFT\n0000\nZZZZ\n")
        with pytest.raises(StimulusFormatError, match=r":3:"):
            load_stimulus(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("0000\n0080\n")
        with pytest.raises(StimulusFormatError):
            load_stimulus(path)

    @pytest.mark.parametrize("header", ["SELECT FFT", "SELECT", "SELECT DFT DHT", "PICK DFT"])
    def test_bad_header_names_line(self, tmp_path, header):
        path = tmp_path / "hdr.txt"
        path.write_text(f"\n{header}\n0000\n")
        with pytest.raises(StimulusFormatError) as exc:
            load_stimulus(path)
        assert str(exc.value) == \
            f"{path}:2: expected 'SELECT DFT' or 'SELECT DHT', got {header!r}"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(StimulusFormatError):
            load_stimulus(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("SELECT DFT\n")
        with pytest.raises(StimulusFormatError):
            load_stimulus(path)

    def test_output_word_file_round_trip(self, tmp_path):
        path = tmp_path / "words.hex"
        write_output_words(DFT_WORDS, path)
        assert read_output_words(path) == DFT_WORDS
        assert path.read_text().splitlines()[2] == "FC0009B0"

    # all words are checked at once, and only a failed check walks the lines
    # again: the walk names the bad word among good ones
    @pytest.mark.parametrize("word", ["-1", "+7", "0x10", "1_0", "10000", "G123", "00 01",
                                      "12345", "0x12", "+12", "1_2", "1 2"])
    def test_stimulus_word_not_1_to_4_hex_digits_names_line(self, tmp_path, word):
        path = tmp_path / "bad.txt"
        path.write_text(f"SELECT DFT\n0000\n\n{word}\n7FFF\nFC00\n")
        message = rf"bad.txt:4: malformed hex word '{re.escape(word)}'"
        with pytest.raises(StimulusFormatError, match=message):
            load_stimulus(path)

    @pytest.mark.parametrize("bad, index", [(2**32 + 5, 0), (-1, 1), (1.5, 1)])
    def test_output_word_outside_32_bits_rejected(self, tmp_path, bad, index):
        # masked to 32 bits, 2**32 + 5 would be written as 5 and -1 as FFFFFFFF
        words = [0, 0]
        words[index] = bad
        path = tmp_path / "out.hex"
        message = rf"^output word {index} must be an integer in \[0, 4294967295\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            write_output_words(words, path)
        assert not path.exists()

    def test_stimulus_words_in_either_case_and_short(self, tmp_path):
        path = tmp_path / "stim.txt"
        path.write_text("select dht\nfc00\nFC00\n7\n 80 \n")
        assert load_stimulus(path).input_words == (-1024, -1024, 7, 128)

    # 1FFFFFFFF used to read as 8589934591 and unpack to (-1, -1) unnoticed
    @pytest.mark.parametrize("word", ["1FFFFFFFF", "-1", "+7", "0x10", "1_0", "ZZ",
                                      "123456789", "0x12", "+12", "1_2", "1 2"])
    def test_output_word_not_1_to_8_hex_digits_names_line(self, tmp_path, word):
        path = tmp_path / "words.hex"
        path.write_text(f"00000000\n\n{word}\nFFFFFFFF\n0\n")
        message = rf"words.hex:3: malformed hex word '{re.escape(word)}'"
        with pytest.raises(StimulusFormatError, match=message):
            read_output_words(path)

    # lines are numbered as the word parser numbers them, CR LF endings too
    @pytest.mark.parametrize("data, where", [
        (b"SELECT DFT\n00\xe9\n", "2: non-ASCII byte 0xe9"),
        (b"SELECT DFT\r\n0000\r\n\r\n\xff01\n", "4: non-ASCII byte 0xff"),
        ("\u00e9SELECT DFT\n".encode(), "1: non-ASCII byte 0xc3")])
    def test_non_ascii_byte_names_line(self, tmp_path, data, where):
        path = tmp_path / "stim.txt"
        path.write_bytes(data)
        with pytest.raises(StimulusFormatError, match=f"stim.txt:{where}"):
            load_stimulus(path)

    # a line ends at LF alone: splitlines also broke lines at VT, FF and FS
    # to RS, and strip took FS to US for blanks, so each of these loaded
    # (the first as 16 words on 15 lines) or was named a line too late
    @pytest.mark.parametrize("data, where", [
        (b"SELECT DFT\n" + b"\n".join([b"0000", b"0001", b"0002\x0c0003"] +
                                       [b"%04X" % i for i in range(4, 16)]) + b"\n",
         "4: malformed hex word '0002\\x0c0003' (expected 1 to 4 hex digits)"),
        (b"SELECT DFT\n0001\x0cZZ\n",
         "2: malformed hex word '0001\\x0cZZ' (expected 1 to 4 hex digits)"),
        (b"SELECT DHT\n\x1c0001\x1d\n",
         "2: malformed hex word '\\x1c0001\\x1d' (expected 1 to 4 hex digits)"),
        (b"SELECT\x0bDFT\n0001\n",
         "1: expected 'SELECT DFT' or 'SELECT DHT', got 'SELECT\\x0bDFT'"),
        (b"SELECT DFT\n0001\x0c0002\n\xff\n", "3: non-ASCII byte 0xff")],
        ids=["ff-16-words-on-15-lines", "ff-bad-word", "fs-around-word", "vt-header",
             "non-ascii-after-ff"])
    def test_only_lf_ends_a_line(self, tmp_path, data, where):
        path = tmp_path / "stim.txt"
        path.write_bytes(data)
        with pytest.raises(StimulusFormatError) as exc:
            load_stimulus(path)
        assert str(exc.value) == f"{path}:{where}"

    def test_output_word_file_only_lf_ends_a_line(self, tmp_path):
        path = tmp_path / "words.hex"
        path.write_bytes(b"00000000\n\x1c0001\x1d\nFFFFFFFF\n")
        with pytest.raises(StimulusFormatError) as exc:
            read_output_words(path)
        assert str(exc.value) == \
            f"{path}:2: malformed hex word '\\x1c0001\\x1d' (expected 1 to 8 hex digits)"

    def test_crlf_spaces_and_tabs_are_blank(self, tmp_path):
        path = tmp_path / "stim.txt"
        path.write_bytes(b"\r\n \tselect\tdft \r\n0001\r\n \t0002\t \r\n\r\n\n")
        assert load_stimulus(path) == MemoryImage((1, 2), TransformSelect.DFT)

    def test_output_word_file_non_ascii_byte_names_line(self, tmp_path):
        path = tmp_path / "words.hex"
        path.write_bytes(b"00000000\n\nFC00\xe909B0\n")
        with pytest.raises(StimulusFormatError, match=r"words.hex:3: non-ASCII byte 0xe9"):
            read_output_words(path)

    def test_output_words_in_either_case_and_short(self, tmp_path):
        path = tmp_path / "words.hex"
        path.write_text("fc0009b0\nFC0009B0\n7\n\n ffffffff \n")
        assert read_output_words(path) == (0xFC0009B0, 0xFC0009B0, 7, 0xFFFFFFFF)

    def test_word_file_longer_than_a_read_reads_whole(self, tmp_path):
        # 20000 words are 180 kB of text, more than one os.read takes
        path = tmp_path / "long.hex"
        words = tuple(range(0, 20000 * 214747, 214747))
        write_output_words(words, path)
        assert path.stat().st_size == 9 * 20000
        assert read_output_words(path) == words

    @pytest.mark.parametrize("read", [load_stimulus, read_output_words])
    def test_directory_is_named_and_its_fd_closed(self, tmp_path, read):
        # a directory opens and then fails to read; the error names it, as
        # it names a missing file, and the descriptor is closed
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(IsADirectoryError) as info:
            read(tmp_path)
        assert str(info.value) == f"[Errno 21] Is a directory: '{tmp_path}'"
        assert fds is None or sorted(os.listdir("/proc/self/fd")) == fds


class TestImageValidation:
    # masked to 16 bits, 70000 would be written as 1170 (read back 4464)
    # and 0xFC00 would read back as -1024
    # 1.5 would run as an off-grid sample and fail to mask on its way to a file
    @pytest.mark.parametrize("bad, index", [(70000, 0), (0xFC00, 5), (-32769, 15), (1.5, 3)])
    def test_word_outside_int16_names_its_index(self, bad, index):
        words = [0] * 16
        words[index] = bad
        message = rf"^input word {index} must be an integer in \[-32768, 32767\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            MemoryImage(tuple(words), TransformSelect.DFT)

    def test_first_bad_word_is_named(self):
        message = r"^input word 2 must be an integer in \[-32768, 32767\], got 40000$"
        with pytest.raises(ValueError, match=message):
            MemoryImage((0, 1, 40000, -40000), TransformSelect.DHT)

    # () was accepted, and written as a file that load_stimulus refuses
    @pytest.mark.parametrize("words", [(), [], np.array([], dtype=np.int16)],
                             ids=["tuple", "list", "array"])
    def test_no_input_words_refused(self, words):
        with pytest.raises(ValueError, match="^memory image contains no input words$"):
            MemoryImage(words, TransformSelect.DFT)

    def test_string_select_stored_as_member(self):
        assert MemoryImage((0,) * 16, "dht").select is TransformSelect.DHT
        with pytest.raises(ValueError):
            MemoryImage((0,) * 16, "fft")


WRITERS = [
    pytest.param(lambda path: write_stimulus(MemoryImage(RAMP2_RAWS, TransformSelect.DFT), path),
                 id="write_stimulus"),
    pytest.param(lambda path: write_output_words(DFT_WORDS, path), id="write_output_words"),
]


def fresh_bytes(tmp_path, write):
    path = tmp_path / "fresh"
    write(path)
    return path.read_bytes()


@pytest.mark.parametrize("write", WRITERS)
class TestInPlaceWriters:
    def test_new_file_mode_follows_umask(self, tmp_path, write):
        mask = os.umask(0o022)
        try:
            write(tmp_path / "new")
        finally:
            os.umask(mask)
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o644

    def test_rewrite_keeps_inode_and_mode_and_drops_stale_tail(self, tmp_path, write):
        path = tmp_path / "old"
        path.write_text("X" * 4096)
        path.chmod(0o600)
        inode = path.stat().st_ino
        write(path)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == fresh_bytes(tmp_path, write)

    def test_symlink_kept_and_target_rewritten(self, tmp_path, write):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("X" * 4096)
        link.symlink_to(target)
        write(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh_bytes(tmp_path, write)

    def test_dev_null(self, write):
        write(os.devnull)

    def test_short_writes_give_the_whole_file(self, tmp_path, write, monkeypatch):
        # os.write may take fewer bytes than it is given; the rest is written on
        path = tmp_path / "old"
        path.write_text("X" * 4096)
        want = fresh_bytes(tmp_path, write)
        sizes = []

        def three_bytes(fd, data, _write=os.write):
            sizes.append(_write(fd, data[:3]))
            return sizes[-1]
        monkeypatch.setattr(os, "write", three_bytes)
        write(path)
        assert path.read_bytes() == want
        assert len(sizes) == -(-len(want) // 3) and set(sizes) <= {1, 2, 3}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_write_closes_the_fd(self, tmp_path, write, monkeypatch):
        # a raw fd raises no ResourceWarning if leaked, so count the open fds
        def failing(fd, data):
            raise OSError(28, "No space left on device")
        before = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "write", failing)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path / "full")
        monkeypatch.undo()
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_fifo(self, tmp_path, write):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [fresh_bytes(tmp_path, write)]


# Every spelling of the select bit: the member, its value and its upper-case name.
SPELLINGS = [(spelling, sel) for sel in TransformSelect
             for spelling in (sel.value, sel.value.upper(), sel)]


class TestSelectSpellings:
    @pytest.mark.parametrize("spelling, sel", SPELLINGS, ids=str)
    def test_same_output_as_the_member(self, plan16, tmp_path, spelling, sel):
        x = np.array(RAMP2_RAWS) / 128.0
        want = execute(plan16, x, sel, FixedConfig())
        got = execute(plan16, x, spelling, FixedConfig())
        assert got.select is sel
        assert (got.real_raw, got.imag_raw) == (want.real_raw, want.imag_raw)
        assert np.array_equal(execute(plan16, x, spelling, "exact").values,
                              execute(plan16, x, sel, "exact").values)
        assert quantization_report(plan16, x, None, spelling) == \
            quantization_report(plan16, x, None, sel)

        raws = want.real_raw if sel is TransformSelect.DHT else \
            tuple(zip(want.real_raw, want.imag_raw))
        words = pack_output(got)
        assert words == pack_output(want)
        assert unpack_output(words, spelling) == raws

        image = MemoryImage(RAMP2_RAWS, spelling)
        assert run_device(image, plan16).output_words == pack_output(want)
        assert image.select is sel

        path = tmp_path / "stim.txt"
        write_stimulus(MemoryImage(RAMP2_RAWS, spelling), path)
        assert load_stimulus(path) == MemoryImage(RAMP2_RAWS, sel)

    def test_missing_select_rejected(self, plan16):
        with pytest.raises(ValueError):
            execute(plan16, [0.0] * 16, None)
        with pytest.raises(ValueError):
            pack_output([0] * 16)
