"""Engine behavior: agreement with the direct oracle, bit-exact device
arithmetic on the golden 16-point vector, and structural op counts."""

import re
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from laurentfft import (
    Fixed,
    FixedConfig,
    LaurentPlan,
    MemoryImage,
    OpCount,
    QFormat,
    Stream,
    TransformSelect,
    build_plan,
    count_ops,
    dft_direct,
    dht_direct,
    echelon_factor,
    engine,
    execute,
    format_plan,
    fx_add,
    fx_mul,
    fx_sub,
    quantization_report,
    quantize,
    reconstruct,
    run_device,
)

from fixed_oracle import _oracle_fixed

RAMP2 = [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]
SQRT2 = 2 ** 0.5

# 16-point transform of RAMP2: exact values and their Q8.7 device values
EXACT_DFT = [56, 0, -8 + (8 + 8 * SQRT2) * 1j, 0, -8 + 8j, 0,
             -8 + (8 * SQRT2 - 8) * 1j, 0, -8, 0, -8 - (8 * SQRT2 - 8) * 1j, 0,
             -8 - 8j, 0, -8 - (8 + 8 * SQRT2) * 1j, 0]
FIXED_DFT = [56, 0, -8 + 19.375j, 0, -8 + 8j, 0, -8 + 3.375j, 0,
             -8, 0, -8 - 3.375j, 0, -8 - 8j, 0, -8 - 19.375j, 0]
FIXED_DHT = [56, 0, -27.375, 0, -16, 0, -11.375, 0, -8, 0, -4.625, 0, 0, 0, 11.375, 0]

# Full-scale Q8.7 input words.  With a 16-bit accumulator the stream merges
# saturate, and the raws below depend on the order the streams are merged in.
FULL_SCALE_RAWS = [22123, -15623, -25605, -13207, -5649, 20593, -3194, -26745,
                   -10822, 6560, 20525, 14978, 32299, -20454, 24918, -29154]


@pytest.fixture(scope="module")
def plan16():
    return build_plan(16)


EXACT_ORDERS = (*range(4, 129, 4), 256)


@pytest.fixture(scope="module")
def exact_plans():
    return {n: build_plan(n) for n in EXACT_ORDERS}


# TestCountOps and then TestFixedMode's flag test run first, ahead of the
# dense-oracle runs: they kill mutants of tests/mutants.py, which stops at
# the first failure and runs this file last.
class TestCountOps:
    def test_order_16(self, plan16):
        ops = count_ops(plan16)
        assert ops.multiplications == 12
        assert 85 <= ops.additions <= 115
        # structural constants of this factorization, pinned for regression
        assert ops.additions == 96
        assert ops.accumulation_adds == 56
        assert ops.dht_extra_adds == 16

    @pytest.mark.parametrize("n, mults, adds, merge", [
        (4, 0, 8, 0), (8, 2, 28, 8), (12, 8, 80, 20), (20, 32, 224, 88),
        (32, 54, 340, 280), (64, 224, 1256, 1240), (128, 906, 4796, 5208),
        (256, 3636, 18704, 21336)])
    def test_pinned_at_other_orders(self, n, mults, adds, merge):
        # structural constants of this factorization, pinned for regression
        assert count_ops(build_plan(n)) == OpCount(mults, adds, merge, n)

    def test_recounted_from_the_factors(self):
        # count_ops reads the tape; recount every field from the dense factors:
        # t nonzeros in a reduced or combiner row are t - 1 adds, a row of one
        # accumulator reached by t streams' combiners is t - 1 merge adds, and
        # each weighted stream multiplies its rank
        for n in range(4, 129, 4):
            plan = build_plan(n)
            adds = mults = 0
            reach = {"re": np.zeros(n, dtype=int), "im": np.zeros(n, dtype=int)}
            for s in plan.streams:
                f = s.factor
                for mat in (f.reduced_rows, f.combiner):
                    adds += int(np.maximum(np.count_nonzero(mat, axis=1) - 1, 0).sum())
                reach[s.dest] += f.combiner.any(axis=1)
                mults += 0 if s.value is None else f.rank
            merge = sum(int(np.maximum(r - 1, 0).sum()) for r in reach.values())
            assert count_ops(plan) == OpCount(mults, adds, merge, n), n

    def test_executed_adds_at_order_16(self, plan16, monkeypatch):
        # The engine runs more adds than count_ops reports (152 on a DFT, plus
        # 16 on a DHT): every row starts from zero and every stream merge
        # takes whole N-vectors.  The bench's traced testbench run counts the
        # same engine-module calls through run_device, so both paths are
        # pinned: 16 samples and 3 ROM constants quantized, 12 products.
        calls = Counter()
        for name in ("fx_add", "fx_sub", "fx_mul", "quantize"):
            def counted(*args, _op=getattr(engine, name), _name=name):
                calls[_name] += 1
                return _op(*args)
            monkeypatch.setattr(engine, name, counted)
        image_words = [x * 128 for x in RAMP2]
        runs = {"execute": lambda select: execute(plan16, RAMP2, select, FixedConfig()),
                "run_device": lambda select: run_device(MemoryImage(image_words, select), plan16)}
        for path, run in runs.items():
            for select, adds in ((TransformSelect.DFT, 298), (TransformSelect.DHT, 314)):
                calls.clear()
                run(select)
                assert (calls["quantize"], calls["fx_mul"],
                        calls["fx_add"] + calls["fx_sub"]) == (19, 12, adds), (path, select)

    def test_executed_adds_follow_the_tape(self, monkeypatch):
        # Every row starts from zero, so each entry of the input and combiner
        # tables is one add; each stream merged into an accumulator after its
        # first is N adds, and DHT's Re - Im N more.  This is where the
        # executed adds exceed count_ops (298 against 152 at N = 16).
        calls = Counter()
        for name in ("fx_add", "fx_sub"):
            def counted(*args, _op=getattr(engine, name)):
                calls["adds"] += 1
                return _op(*args)
            monkeypatch.setattr(engine, name, counted)
        executed = {}
        for n in range(4, 65, 4):
            plan = build_plan(n)
            tape, per_acc = plan.tape, Counter(s.dest for s in plan.streams)
            dft_adds = (tape.inputs.rows.size + tape.combiners.rows.size
                        + n * sum(k - 1 for k in per_acc.values()))
            for select, expected in ((TransformSelect.DFT, dft_adds),
                                     (TransformSelect.DHT, dft_adds + n)):
                calls.clear()
                execute(plan, np.linspace(-1, 1, n), select, FixedConfig())
                assert calls["adds"] == expected, (n, select)
            executed[n] = dft_adds
        assert (executed[16], executed[64]) == (298, 4778)

    @pytest.mark.parametrize("select, expected", [
        (TransformSelect.DFT, {"fx_add": 2965, "fx_sub": 1813, "fx_mul": 224, "quantize": 79}),
        (TransformSelect.DHT, {"fx_add": 2965, "fx_sub": 1877, "fx_mul": 224, "quantize": 79}),
    ], ids=["dft", "dht"])
    def test_op_sequence_at_order_64(self, monkeypatch, select, expected):
        # Every scalar op is looked up on the engine module when it runs: a
        # faster executor may not drop, add or import-bind any of them.
        calls = Counter()
        for name in expected:
            def counted(*args, _op=getattr(engine, name), _name=name, **kwargs):
                calls[_name] += 1
                return _op(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        result = execute(build_plan(64), np.linspace(-250, 250, 64), select,
                         FixedConfig(acc_total_bits=18))
        assert dict(calls) == expected
        assert result.overflow

    def test_order_4_is_multiplication_free(self):
        assert count_ops(build_plan(4)).multiplications == 0

    def test_order_8_needs_two_multiplications(self):
        assert count_ops(build_plan(8)).multiplications == 2

    def test_rank_zero_stream_is_inert(self, plan16):
        # a zero matrix factors with (N, 0) and (0, N) arrays; every pass over
        # the streams must take it without a special case
        zero = Stream("zero", 0.5, echelon_factor(np.zeros((16, 16), dtype=int)), "im", -1)
        padded = LaurentPlan(16, plan16.streams + (zero,))
        assert count_ops(padded) == count_ops(plan16)
        assert np.array_equal(reconstruct(padded), reconstruct(plan16))
        assert format_plan(padded).startswith("plan for N=16: 9 streams, 12 multiplications")
        # the tape gives the zero stream no intermediates, no input entries
        # and N empty combiner rows; its constant gets a ROM slot nothing reads
        g, h = padded.tape, plan16.tape
        assert g.inputs.nrows == h.inputs.nrows == len(g.slots) == len(h.slots)
        assert g.constants == h.constants + (0.5,)
        assert g.slots == h.slots
        assert all(np.array_equal(a, b) for a, b in zip((*g.inputs, g.scale),
                                                        (*h.inputs, h.scale)))
        assert all(np.array_equal(a, b) for a, b in zip(g.combiners[:3], h.combiners[:3]))
        assert g.combiners.nrows == h.combiners.nrows + 16 == len(padded.streams) * 16
        v = np.array(FULL_SCALE_RAWS) / 128
        for arith in ("exact", FixedConfig(acc_total_bits=16)):
            a = execute(padded, v, TransformSelect.DFT, arith)
            b = execute(plan16, v, TransformSelect.DFT, arith)
            assert np.array_equal(a.values, b.values)
            assert (a.real_raw, a.imag_raw, a.overflow) == (b.real_raw, b.imag_raw, b.overflow)

    def test_pure_function_of_plan(self, plan16):
        a = count_ops(plan16)
        execute(plan16, RAMP2, TransformSelect.DFT, FixedConfig())
        b = count_ops(plan16)
        assert a == b
        assert count_ops(build_plan(16)) == a


def _report_oracle(plan, samples, cfg, select):
    """The report computed by walking every component as Python tuples, the
    reference for quantization_report: (max_rel_error, dominant_bins, floor,
    entries)."""
    exact = execute(plan, samples, select, "exact")
    fixed = execute(plan, samples, select, cfg)
    if select is TransformSelect.DFT:
        components = [(k, "re", exact.values[k].real, fixed.values[k].real)
                      for k in range(plan.order)]
        components += [(k, "im", exact.values[k].imag, fixed.values[k].imag)
                       for k in range(plan.order)]
    else:
        components = [(k, "h", float(exact.values[k]), float(fixed.values[k]))
                      for k in range(plan.order)]
    floor = engine.FLOOR_FRAC * max(abs(e) for _, _, e, _ in components)
    entries = [(k, name, e, f, abs(f - e) / abs(e))
               for k, name, e, f in components if abs(e) > floor]
    if not entries:
        return 0.0, (), floor, ()
    worst = max(rel for *_, rel in entries)
    dominant = tuple(sorted({k for k, *_, rel in entries
                             if rel >= worst * (1 - 1e-12) and worst > 0}))
    return worst, dominant, floor, tuple(entries)


class TestFixedMode:
    # The samples and the ROM constants are quantized to the word, where each
    # may saturate on its own: no add or multiply of the walk does below.
    @pytest.mark.parametrize("n, samples, cfg", [
        (16, [300.0] + [0.0] * 15, FixedConfig()),
        # cos(2 pi / 32) * 8 rounds to 8, above Q0.3's max_raw 7
        (32, [0.0] * 32, FixedConfig(QFormat(4, 3), acc_total_bits=8))],
        ids=["sample", "rom-constant"])
    def test_quantize_flags_reach_the_result(self, n, samples, cfg):
        plan = build_plan(n)
        for select in TransformSelect:
            out = execute(plan, samples, select, cfg)
            assert out.overflow
            assert (out.real_raw, out.imag_raw, out.overflow) == \
                _oracle_fixed(plan, samples, select, cfg)

    def test_table_dft_bit_exact(self, plan16):
        out = execute(plan16, RAMP2, TransformSelect.DFT, FixedConfig())
        assert list(out.values) == FIXED_DFT
        assert out.real_raw[2] == -1024
        assert out.imag_raw[2] == 2480
        assert out.imag_raw[6] == 432
        assert not out.overflow
        # zero bins are exactly zero, not merely small
        for k in range(1, 16, 2):
            assert out.real_raw[k] == 0 and out.imag_raw[k] == 0

    def test_table_dht_bit_exact(self, plan16):
        out = execute(plan16, RAMP2, TransformSelect.DHT, FixedConfig())
        assert list(out.values) == FIXED_DHT
        assert out.real_raw == (7168, 0, -3504, 0, -2048, 0, -1456, 0,
                                -1024, 0, -592, 0, 0, 0, 1456, 0)
        assert out.imag_raw is None

    def test_hartley_matches_subtraction_bit_exact(self, plan16):
        rng = np.random.default_rng(44)
        v = rng.integers(-128, 128, size=16) / 16.0
        dft = execute(plan16, v, TransformSelect.DFT, FixedConfig())
        dht = execute(plan16, v, TransformSelect.DHT, FixedConfig())
        assert dht.real_raw == tuple(r - i for r, i in zip(dft.real_raw, dft.imag_raw))

    def test_zero_input_no_overflow(self, plan16):
        for sel in (TransformSelect.DFT, TransformSelect.DHT):
            out = execute(plan16, [0.0] * 16, sel, FixedConfig())
            assert not any(out.real_raw)
            assert not out.overflow

    @pytest.mark.parametrize("select", list(TransformSelect))
    @pytest.mark.parametrize("acc_bits", [32, 16], ids=["in-range", "saturating"])
    def test_raws_are_ints(self, plan16, select, acc_bits):
        out = execute(plan16, np.array(FULL_SCALE_RAWS) / 128, select,
                      FixedConfig(acc_total_bits=acc_bits))
        assert out.overflow == (acc_bits == 16)
        raws = out.real_raw + (out.imag_raw or ())
        assert len(raws) == 16 * (2 if select is TransformSelect.DFT else 1)
        assert all(type(r) is int for r in raws)

    def test_rounding_mode_changes_result(self, plan16):
        away = execute(plan16, RAMP2, TransformSelect.DFT, FixedConfig())
        trunc = execute(plan16, RAMP2, TransformSelect.DFT,
                        FixedConfig(rounding="truncate"))
        # truncation maps sqrt(2)/2 to 90/128, so bin 2 reads 19.25 instead
        assert away.values[2].imag == 19.375
        assert trunc.values[2].imag == 19.25

    def test_saturating_accumulation_order_pinned(self, plan16):
        cfg = FixedConfig(acc_total_bits=16)
        v = np.array(FULL_SCALE_RAWS) / 128
        dft = execute(plan16, v, TransformSelect.DFT, cfg)
        assert dft.real_raw == (21827, -8029, -32768, 28934, 21307, 17554, 7947, 27186,
                                21945, 27186, 7947, 17554, 21307, 28934, -32768, -8029)
        assert dft.imag_raw == (0, 32767, 3509, -1216, -26489, 9471, -32768, -32768,
                                0, 32767, 32767, -9472, 26489, 1215, -3509, -32768)
        assert dft.overflow
        dht = execute(plan16, v, TransformSelect.DHT, cfg)
        assert dht.real_raw == (21827, -32768, -32768, 30150, 32767, 8083, 32767, 32767,
                                21945, -5581, -24820, 27026, -5182, 27719, -29259, 24739)
        assert dht.overflow

    @pytest.mark.parametrize("rounding, acc_bits", [
        ("half-away", 32), ("half-even", 18), ("truncate", 17), ("half-away", 16)])
    def test_matches_dense_oracle(self, rounding, acc_bits):
        # The executor walks each row's nonzero terms in column order; the
        # oracle walks every entry.  Narrow accumulators saturate on the
        # full-scale inputs, so a different term order shows in the raws.
        cfg = FixedConfig(rounding=rounding, acc_total_bits=acc_bits)
        rng = np.random.default_rng(acc_bits)
        overflows = []
        for n in range(4, 129, 4):
            plan = build_plan(n)
            small = rng.integers(-128, 128, size=n) / 128
            full = rng.integers(-32768, 32768, size=n) / 128
            for v in (small, full):
                for select in TransformSelect:
                    out = execute(plan, v, select, cfg)
                    got = (out.real_raw, out.imag_raw, out.overflow)
                    assert got == _oracle_fixed(plan, v, select, cfg), (n, select)
                    overflows.append(out.overflow)
        assert any(overflows) == (acc_bits < 32)

    @pytest.mark.parametrize("n", [16, 64])
    def test_values_are_the_raws_over_the_scale(self, n):
        # each bin's Fixed.value, and a + 1j * b of the two for DFT: the
        # float bytes, so a -0.0 where the values hold +0.0 fails too.  An
        # odd signal has bins with Re = 0 and Im < 0, where 1j * Im is -0.0.
        rng = np.random.default_rng(n)
        odd = np.zeros(n)
        odd[1:n // 2] = rng.integers(-128, 128, size=n // 2 - 1) / 4
        odd[n // 2 + 1:] = -odd[n // 2 - 1:0:-1]
        signals = [rng.integers(-32768, 32768, size=n) / 128, rng.integers(-128, 128, size=n) / 128,
                   odd]
        overflows = []
        for cfg in (FixedConfig(acc_total_bits=16), FixedConfig(QFormat(16, 9), "truncate", 18),
                    FixedConfig(QFormat(16, 5), "half-even", 18), FixedConfig()):
            for v in signals:
                for select in TransformSelect:
                    out = execute(build_plan(n), v, select, cfg)
                    re = [Fixed(a, cfg.acc_fmt) for a in out.real_raw]
                    if select is TransformSelect.DFT:
                        im = [Fixed(b, cfg.acc_fmt) for b in out.imag_raw]
                        want = np.array([a.value + 1j * b.value for a, b in zip(re, im)])
                    else:
                        want = np.array([h.value for h in re])
                    assert out.values.dtype == want.dtype
                    assert out.values.tobytes() == want.tobytes(), (cfg, select)
                    overflows.append(out.overflow)
        assert any(overflows) and not all(overflows)

    def test_products_never_outgrow_their_input(self, exact_plans):
        # every ROM constant lies in (0, 1) and quantizes to a raw in [0, 2**f],
        # so |round(a * c)| <= |a| and fx_mul's clamp cannot fire inside execute
        for n, plan in exact_plans.items():
            constants = plan.tape.constants
            assert all(0 < c < 1 for c in constants), n
            for f in range(1, 16):
                fmt = QFormat(16, f)
                for rounding in ("half-away", "half-even", "truncate"):
                    raws = [quantize(c, fmt, rounding).raw for c in constants]
                    assert all(0 <= r <= 2**f for r in raws), (n, f, rounding)

    def test_arith_must_be_a_config(self, plan16):
        # the string "fixed" names no word format, rounding or accumulator
        with pytest.raises(ValueError, match="arith must be 'exact' or a FixedConfig"):
            execute(plan16, RAMP2, TransformSelect.DFT, "fixed")

    def test_overflow_flag_reported_not_raised(self):
        plan = build_plan(16)
        cramped = FixedConfig(fmt=QFormat(8, 3), acc_total_bits=9)
        out = execute(plan, [15.0] * 16, TransformSelect.DFT, cramped)
        assert out.overflow

    def test_deterministic_across_threads(self, plan16):
        v = np.linspace(-3, 3, 16)

        def work(_):
            out = execute(plan16, v, TransformSelect.DFT, FixedConfig())
            return (out.real_raw, out.imag_raw)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(24)))
        assert len(set(results)) == 1


class TestExactMode:
    def test_table_dft(self, plan16):
        out = execute(plan16, RAMP2, TransformSelect.DFT, "exact")
        assert np.abs(out.values - np.array(EXACT_DFT)).max() < 1e-9
        assert np.abs(out.values - dft_direct(RAMP2)).max() < 1e-9

    def test_table_dht(self, plan16):
        out = execute(plan16, RAMP2, TransformSelect.DHT, "exact")
        assert np.abs(out.values - dht_direct(RAMP2)).max() < 1e-9

    def test_oracle_equivalence_random(self, exact_plans):
        rng = np.random.default_rng(41)
        for n in EXACT_ORDERS:
            for _ in range(10 if n <= 32 else 3):
                v = rng.normal(size=n)
                out = execute(exact_plans[n], v, TransformSelect.DFT, "exact")
                assert np.abs(out.values - dft_direct(v)).max() < 1e-9, n

    def test_stages_match_dense_factors(self, exact_plans, monkeypatch):
        # on integer samples every input-stage sum is exact, so exact mode
        # must hand the merge each stream's combiner rows applied to
        # value * (reduced_rows @ v), each row summed from 0.0 in increasing
        # column order, bit for bit: both stages against the dense factors.
        # Its output must then be those products folded in plan order by
        # _merge_streams' rule (the first into an accumulator is its
        # contents, each later one added or subtracted by its sign), bit for
        # bit: re and im for DFT, Re - Im for DHT.  No sum here is -0.0.  The
        # output check holds whatever computes the merge; the hand-off check
        # after it reads _merge_streams' arguments.
        handed = []

        def merge(plan, outputs, add, sub):
            outputs = list(outputs)
            handed[:] = [y.copy() for y in outputs]  # before a merge that may add in place
            return merge_streams(plan, outputs, add, sub)

        merge_streams = engine._merge_streams
        monkeypatch.setattr(engine, "_merge_streams", merge)
        rng = np.random.default_rng(44)
        for n, plan in exact_plans.items():
            v = rng.integers(-1000, 1001, size=n).astype(float)
            acc, wants = {}, []
            for s in plan.streams:
                x = s.factor.reduced_rows @ v
                if s.value is not None:
                    x = s.value * x
                want = np.zeros(n)
                # a zero term adds +-0.0, which leaves a sum begun at 0.0 unchanged
                for j, column in enumerate(s.factor.combiner.T):
                    want = want + column * x[j]
                wants.append(want)
                a = acc.get(s.dest)
                acc[s.dest] = want if a is None else a + want if s.sign > 0 else a - want
            re, im = acc["re"], acc["im"]
            for select in TransformSelect:
                values = execute(plan, v, select, "exact").values
                if select is TransformSelect.DFT:
                    assert values.real.tobytes() == re.tobytes(), n
                    assert values.imag.tobytes() == im.tobytes(), n
                else:
                    assert values.tobytes() == (re - im).tobytes(), n
                for s, y, want in zip(plan.streams, handed, wants, strict=True):
                    assert y.tobytes() == want.tobytes(), (n, s.label, s.dest, select)

    @pytest.mark.parametrize("select", ["dft", "dht"])
    def test_float64_overflow_raises_without_warnings(self, plan16, select):
        # finite samples whose transform overflows float64: one ValueError
        # naming the largest |sample|, and no numpy floating-point warning
        v = [1e308] * 16
        v[5] = -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"largest \|sample\| is sample 5 = -1\.7e\+308"):
                execute(plan16, v, select, "exact")

    def test_hartley_only_overflow_raises(self, plan16):
        # Re and Im of a*e_1 stay finite, but Re - Im reaches a*sqrt(2)
        v = np.zeros(16)
        v[1] = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(execute(plan16, v, "dft", "exact").values).all()
            with pytest.raises(ValueError, match=r"sample 1 = 1\.5e\+308"):
                execute(plan16, v, "dht", "exact")

    def test_hartley_is_re_minus_im(self, plan16):
        rng = np.random.default_rng(42)
        v = rng.normal(size=16)
        dft = execute(plan16, v, TransformSelect.DFT, "exact")
        dht = execute(plan16, v, TransformSelect.DHT, "exact")
        assert np.array_equal(dht.values, dft.values.real - dft.values.imag)

    def test_linearity(self, plan16):
        rng = np.random.default_rng(43)
        v = rng.normal(size=16)
        a = 3.7
        lhs = execute(plan16, a * v, TransformSelect.DFT, "exact").values
        rhs = a * execute(plan16, v, TransformSelect.DFT, "exact").values
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_zero_input(self, plan16):
        out = execute(plan16, [0.0] * 16, TransformSelect.DFT, "exact")
        assert not out.values.any()

    def test_length_mismatch(self, plan16):
        with pytest.raises(ValueError):
            execute(plan16, [1.0] * 8, TransformSelect.DFT, "exact")

    def test_wrong_count_is_one_message_in_both_modes(self, plan16):
        for arith in ("exact", FixedConfig()):
            for v, got in (([1.0] * 8, 8), (np.zeros(17), 17)):
                with pytest.raises(ValueError, match=rf"^expected 16 samples, got {got}$"):
                    execute(plan16, v, TransformSelect.DFT, arith)

    def test_shape_named_in_both_modes(self, plan16):
        for arith in ("exact", FixedConfig()):
            for v, message in ((np.zeros((2, 8)), "signal must be one-dimensional"),
                               ([], "signal must contain at least one sample")):
                with pytest.raises(ValueError, match=rf"^{message}$"):
                    execute(plan16, v, TransformSelect.DFT, arith)

    def test_unreadable_samples_named_in_both_modes(self, plan16):
        for arith in ("exact", FixedConfig()):
            for v, message in (([0.0] * 5 + [object()] + [0.0] * 10,
                                r"sample 5 \(object\) is not a number"),
                               ([object()] * 16, r"sample 0 \(object\) is not a number"),
                               ({1: 2}, "signal must be one-dimensional"),
                               (["1.5"] + ["0"] * 15, r"sample 0 \(str\) is not a number"),
                               (["abc"] * 16, r"sample 0 \(str\) is not a number"),
                               ([1, "x"] + [0] * 14, r"sample 1 \(str\) is not a number"),
                               (np.array([0.0] * 3 + [b"2"] + [0.0] * 12, dtype=object),
                                r"sample 3 \(bytes\) is not a number")):
                with pytest.raises(ValueError, match=rf"^{message}$"):
                    execute(plan16, v, TransformSelect.DFT, arith)

    def test_non_finite_sample_names_index(self, plan16):
        for arith in ("exact", FixedConfig()):
            # 2**1024 - 2**970 is the least int that float() cannot round
            for bad in (float("inf"), float("-inf"), float("nan"), 10**400, -10**400,
                        2**1024 - 2**970):
                v = [0.0] * 16
                v[5] = bad
                with pytest.raises(ValueError, match="sample 5 "):
                    execute(plan16, v, TransformSelect.DFT, arith)

    def test_complex_samples_rejected(self, plan16):
        for arith in ("exact", FixedConfig()):
            for v in (np.ones(16) * (1 + 1j), [1 + 0j] * 16):
                with pytest.raises(ValueError, match="samples must be real"):
                    execute(plan16, v, TransformSelect.DFT, arith)

    def test_string_select_accepted(self, plan16):
        out = execute(plan16, RAMP2, "dht", "exact")
        assert out.select is TransformSelect.DHT

    def test_self_check_covers_exact_mode(self, exact_plans):
        # check_plan (tests/test_plan.py) runs reconstruct on the dense
        # factors, and exact mode runs the tape.  On a basis vector every sum
        # of either stage has at most one nonzero term, so exact mode must
        # give each reconstruct column exactly; this ties it to the checked factors
        for n, plan in exact_plans.items():
            rec = reconstruct(plan)
            for k, e_k in enumerate(np.eye(n)):
                out = execute(plan, e_k, "dft", "exact")
                assert np.array_equal(out.values, rec[:, k]), (n, k)


class TestFixedConfig:
    def test_unknown_rounding_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rounding mode 'bogus'"):
            FixedConfig(rounding="bogus")

    @pytest.mark.parametrize("bits", [15, 33, 20.0])
    def test_accumulator_width_rejected_at_construction(self, bits):
        # narrower than the 16-bit word, wider than a QFormat can be, or
        # not an integer
        with pytest.raises(ValueError, match=rf"accumulator width .* got {bits}"):
            FixedConfig(acc_total_bits=bits)

    @pytest.mark.parametrize("fmt", [(16, 7), None])
    def test_format_must_be_a_qformat(self, fmt):
        with pytest.raises(ValueError, match=f"fmt must be a QFormat, got {re.escape(repr(fmt))}"):
            FixedConfig(fmt=fmt)

    def test_accumulator_format_built_once(self):
        cfg = FixedConfig(acc_total_bits=18)
        assert cfg.acc_fmt is cfg.acc_fmt
        assert cfg.acc_fmt == QFormat(18, 7)
        assert cfg == FixedConfig(acc_total_bits=18)
        assert hash(cfg) == hash(FixedConfig(acc_total_bits=18))
        assert FixedConfig(acc_total_bits=np.int64(18)) == cfg


class TestTransformResult:
    # a generated __eq__ and __hash__ read the values array: r1 == r2 and
    # r1 in [r2] raised "truth value of an array ... is ambiguous", hash a TypeError
    @pytest.mark.parametrize("arith", ["exact", FixedConfig()], ids=["exact", "fixed"])
    def test_compares_and_hashes_by_identity(self, arith):
        plan = build_plan(4)
        r1, r2 = (execute(plan, [1.0, 2.0, 3.0, 4.0], "dft", arith) for _ in range(2))
        assert r1 == r1 and r1 != r2
        assert r1 in [r2, r1] and r1 not in [r2]
        assert len({r1, r2, r1}) == 2


# the Q-format study grid: frac bits x rounding x accumulator width
QSWEEP_CONFIGS = [FixedConfig(QFormat(16, frac), rounding, acc)
                  for frac in (5, 7, 9) for rounding in ("half-away", "half-even", "truncate")
                  for acc in (18, 32)]


class TestQuantizationReport:
    def test_table_input_dft(self, plan16):
        rep = quantization_report(plan16, RAMP2)
        assert rep.max_rel_error <= 0.0035
        assert rep.max_rel_error == pytest.approx(0.0031734713723, rel=1e-9)
        assert rep.dominant_bins == (2, 14)

    def test_table_input_dht(self, plan16):
        rep = quantization_report(plan16, RAMP2, select=TransformSelect.DHT)
        assert rep.max_rel_error <= 0.0035
        assert 2 in rep.dominant_bins

    @pytest.mark.parametrize("cfg", ["exact", QFormat(16, 7)])
    def test_config_must_be_a_fixed_config(self, plan16, cfg):
        # "exact" would run exact mode twice and report no error at all
        message = f"cfg must be a FixedConfig or None, got {cfg!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            quantization_report(plan16, np.ones(16), cfg)

    def test_impulse_has_zero_error(self, plan16):
        rep = quantization_report(plan16, [1.0] + [0.0] * 15)
        assert rep.max_rel_error == 0.0

    @pytest.mark.parametrize("select", list(TransformSelect))
    def test_all_zero_signal_has_no_entries(self, plan16, select):
        # every component is at the floor, so none is significant
        rep = quantization_report(plan16, [0.0] * 16, select=select)
        assert (rep.max_rel_error, rep.dominant_bins, rep.floor, rep.entries) == (0.0, (), 0.0, ())

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("select", list(TransformSelect))
    def test_equals_the_list_oracle(self, n, select):
        # random in range, all zero, and samples past the input format's
        # range, under every config of the grid: every field and property
        # equals the list walk's, value for value
        plan = build_plan(n)
        rng = np.random.default_rng(n)
        for cfg in QSWEEP_CONFIGS:
            full = 2.0 ** (cfg.fmt.total_bits - 1 - cfg.fmt.frac_bits)
            for v in (rng.uniform(-0.5, 0.5, n) * full, np.zeros(n),
                      rng.uniform(-1.5, 1.5, n) * full):
                rep = quantization_report(plan, v, cfg, select)
                got = (rep.max_rel_error, rep.dominant_bins, rep.floor, rep.entries)
                assert got == _report_oracle(plan, v, cfg, select)

    def test_random_sweep_envelope(self, plan16):
        # inputs on the Q8.7 grid in [-1, 1): the measured error is purely
        # twiddle rounding.  Typical reports sit well under 1%; the worst
        # included component over a seeded sweep stays under 2.5%.
        rng = np.random.default_rng(45)
        worst = []
        for _ in range(100):
            v = rng.integers(-128, 128, size=16) / 128.0
            for sel in (TransformSelect.DFT, TransformSelect.DHT):
                worst.append(quantization_report(plan16, v, select=sel).max_rel_error)
        assert max(worst) < 0.025
        assert float(np.median(worst)) < 0.01
