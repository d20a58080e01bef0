"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 9 covers items that have no software counterpart (device latency,
FPGA resource utilization, synthesis results); they are excluded by design
and replaced by criteria 1-8.
"""

import numpy as np
import pytest

from laurentfft import (
    FixedConfig,
    MemoryImage,
    TransformSelect,
    build_plan,
    count_ops,
    dft_direct,
    dft_matrix,
    execute,
    pack_output,
    quantization_report,
    reconstruct,
    run_device,
    unpack_output,
)

from fixed_oracle import _fixed_result

RAMP2 = [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]
LENGTHS = (4, 8, 12, 16, 20, 24, 28, 32)

# golden 16-point ground truth, 4-decimal exact column
TABLE_DFT_EXACT = [56, 0, -8 + 19.3137j, 0, -8 + 8j, 0, -8 + 3.3137j, 0,
                   -8, 0, -8 - 3.3137j, 0, -8 - 8j, 0, -8 - 19.3137j, 0]
TABLE_DHT_EXACT = [56, 0, -27.3137, 0, -16, 0, -11.3137, 0,
                   -8, 0, -4.6863, 0, 0, 0, 11.3137, 0]
# fixed-point column: exact rationals on the Q8.7 grid
TABLE_DFT_FIXED = [56, 0, -8 + 19.375j, 0, -8 + 8j, 0, -8 + 3.375j, 0,
                   -8, 0, -8 - 3.375j, 0, -8 - 8j, 0, -8 - 19.375j, 0]
TABLE_DHT_FIXED = [56, 0, -27.375, 0, -16, 0, -11.375, 0,
                   -8, 0, -4.625, 0, 0, 0, 11.375, 0]


@pytest.fixture(scope="module")
def plan16():
    return build_plan(16)


def _report(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_table_exact_columns(plan16):
    dft = execute(plan16, RAMP2, TransformSelect.DFT, "exact").values
    dht = execute(plan16, RAMP2, TransformSelect.DHT, "exact").values
    dft_err = np.abs(dft - np.array(TABLE_DFT_EXACT)).max()
    dht_err = np.abs(dht - np.array(TABLE_DHT_EXACT)).max()
    ok = dft_err < 5e-4 and dht_err < 5e-4
    _report(1, ok, f"exact 16-point run matches the golden table "
                   f"(max dev DFT {dft_err:.2e}, DHT {dht_err:.2e}, tol 5e-4)")


def test_criterion_2_table_fixed_columns_bit_exact(plan16):
    cfg = FixedConfig()
    dft = execute(plan16, RAMP2, TransformSelect.DFT, cfg)
    dht = execute(plan16, RAMP2, TransformSelect.DHT, cfg)
    named = (dft.values[2] == -8 + 19.375j and dft.values[6] == -8 + 3.375j
             and dht.values[2] == -27.375 and dht.values[10] == -4.625
             and dht.values[14] == 11.375)
    zeros = all(dft.real_raw[k] == 0 and dft.imag_raw[k] == 0 and dht.real_raw[k] == 0
                for k in range(1, 16, 2))
    columns = (list(dft.values) == TABLE_DFT_FIXED and list(dht.values) == TABLE_DHT_FIXED)
    ok = named and zeros and columns and not dft.overflow
    _report(2, ok, "fixed Q8.7 run reproduces the device column bit-exactly, "
                   "zero bins exactly zero (zero tolerance)")


def test_criterion_3_quantization_error(plan16):
    rep = quantization_report(plan16, RAMP2)
    ok = rep.max_rel_error <= 0.0035 and set(rep.dominant_bins) <= {2, 6, 10, 14} \
        and 2 in rep.dominant_bins
    _report(3, ok, f"max relative error {rep.max_rel_error * 100:.3f}% <= 0.35%, "
                   f"dominant bins {rep.dominant_bins}")


def test_criterion_4_multiplication_count(plan16, rank_gauss, factor_product):
    ops = count_ops(plan16)
    ranks_ok = all(s.factor.rank == rank_gauss(factor_product(s.factor))
                   for s in plan16.streams if s.value is not None)
    ok = ops.multiplications == 12 and ranks_ok
    _report(4, ok, f"{ops.multiplications} scalar multiplications at N=16, "
                   "factor ranks verified against an independent elimination oracle")


def test_criterion_5_addition_count(plan16):
    ops = count_ops(plan16)
    ok = 85 <= ops.additions <= 115
    _report(5, ok, f"additions {ops.additions} within [85, 115] "
                   f"(+{ops.accumulation_adds} stream-merge adds and "
                   f"+{ops.dht_extra_adds} Hartley output adds reported separately)")


def test_criterion_6_reconstruction_identity():
    worst = 0.0
    for n in LENGTHS:
        err = np.abs(reconstruct(build_plan(n)) - dft_matrix(n)).max()
        worst = max(worst, err)
    ok = worst < 1e-12
    _report(6, ok, f"plan reconstructs the transform matrix for N in {LENGTHS} "
                   f"(worst entrywise error {worst:.2e}, tol 1e-12)")


def test_criterion_7_oracle_equivalence_random():
    rng = np.random.default_rng(2026)
    worst = 0.0
    hartley_exact = True
    for n in LENGTHS:
        plan = build_plan(n)
        for _ in range(100):
            v = rng.uniform(-10, 10, size=n)
            dft = execute(plan, v, TransformSelect.DFT, "exact")
            dht = execute(plan, v, TransformSelect.DHT, "exact")
            worst = max(worst, float(np.abs(dft.values - dft_direct(v)).max()))
            hartley_exact &= np.array_equal(dht.values,
                                            dft.values.real - dft.values.imag)
    ok = worst < 1e-9 and hartley_exact
    _report(7, ok, f"100 random signals per N: exact mode within {worst:.2e} of the "
                   "direct oracle, Hartley select equals Re - Im exactly")


def test_criterion_8_packing_round_trip_and_golden_words(plan16):
    rng = np.random.default_rng(2027)
    round_trip = True
    for _ in range(1000):
        re_raw, im_raw = (tuple(int(x) for x in col)
                          for col in rng.integers(-32768, 32768, size=(2, 16)))
        round_trip &= unpack_output(pack_output(_fixed_result("dft", re_raw, im_raw)),
                                    TransformSelect.DFT) == tuple(zip(re_raw, im_raw))
        raws = tuple(int(x) for x in rng.integers(-32768, 32768, size=16))
        round_trip &= unpack_output(pack_output(_fixed_result("dht", raws)),
                                    TransformSelect.DHT) == raws
    raws_in = tuple(x * 128 for x in RAMP2)
    dft_word = run_device(MemoryImage(raws_in, TransformSelect.DFT), plan16).output_words[2]
    dht_word = run_device(MemoryImage(raws_in, TransformSelect.DHT), plan16).output_words[2]
    ok = round_trip and dft_word == 0xFC0009B0 and dht_word == 0x0000F250
    _report(8, ok, f"1000 pack/unpack round trips hold; bin 2 packs to "
                   f"{dft_word:08X} (DFT) and {dht_word:08X} (DHT)")


def test_criterion_9_hardware_only_items_excluded():
    # latency, slice/LUT/IOB counts and synthesis results are properties of
    # the physical device; the software model deliberately has no knobs for
    # them, and criteria 1-8 stand in as the verifiable surface
    import laurentfft

    ok = not any(hasattr(laurentfft, name) for name in
                 ("latency_ns", "slice_count", "synthesize"))
    _report(9, ok, "hardware-only figures (latency, FPGA utilization) are out of "
                   "scope by design; no software stand-ins exist")
