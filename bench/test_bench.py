"""Tests of the benchmark itself: its golden checks, its tail rule and its
traced run.  Run from the checkout root:

    python3 -m pytest -q bench
"""

import json

import numpy as np
import pytest

import golden
import run
import speed
import stats
import tracing
from srcpath import ROOT, use_source_tree
from workloads import WORKLOADS, QsweepN64, TestbenchN16

use_source_tree()


@pytest.fixture(scope="module")
def lf():
    return run.import_package()


@pytest.fixture
def testbench(lf, tmp_path):
    wl = TestbenchN16()
    wl.prepare(lf, 7, tmp_path)
    return wl


def _saturating_item(wl):
    """A pool item whose device overflow flag is set in the golden."""
    for select, entry in wl.pool:
        if wl.golden["device_flag"][entry, golden.SELECTS.index(select)]:
            return select, entry
    raise AssertionError("pool holds no saturating vector")


class TestGoldenCheck:
    def test_unchanged_output_passes(self, testbench):
        for item in testbench.pool[:8] + [_saturating_item(testbench)]:
            assert testbench.check(item, testbench.run(item)) is None

    @pytest.mark.parametrize("word", [0, 5, 15])
    def test_one_lsb_change_to_one_packed_word_trips(self, testbench, word):
        item = testbench.pool[0]
        loaded, overflow, words = testbench.run(item)
        changed = list(words)
        changed[word] ^= 1
        err = testbench.check(item, (loaded, overflow, tuple(changed)))
        assert err is not None and f"word {word}" in err

    def test_flipped_overflow_flag_trips(self, testbench):
        for item in (testbench.pool[0], _saturating_item(testbench)):
            loaded, overflow, words = testbench.run(item)
            err = testbench.check(item, (loaded, not overflow, words))
            assert err is not None and "overflow flag" in err

    def test_fixed_raws_check_trips_on_lsb_and_flag(self, lf, tmp_path):
        wl = QsweepN64()
        wl.prepare(lf, 7, tmp_path)
        select, c, signal = item = wl.pool[0]
        s = golden.SELECTS.index(select)
        want = wl.golden["raws"][signal, c, s], wl.golden["overflow"][signal, c, s]
        result = lf.engine.execute(wl.plan, wl.samples(item),
                                   lf.engine.TransformSelect(select), wl.configs[c])
        assert golden.check_raws(result, *want) is None
        raws = list(result.real_raw)
        raws[3] += 1
        nudged = lf.engine.TransformResult(result.select, result.values, tuple(raws),
                                           result.imag_raw, result.overflow)
        assert "re[3]" in golden.check_raws(nudged, *want)
        flipped = lf.engine.TransformResult(result.select, result.values, result.real_raw,
                                            result.imag_raw, not result.overflow)
        assert "overflow flag" in golden.check_raws(flipped, *want)
        assert wl.check(item, wl.run(item)) is None

    def test_exact_check_trips_on_a_wrong_bin(self):
        x = np.random.default_rng(3).standard_normal(128)
        bins = np.fft.fft(x)
        assert golden.check_exact(bins, x, "dft") is None
        assert golden.check_exact(bins.real - bins.imag, x, "dht") is None
        bins[9] += 1e-6
        assert golden.check_exact(bins, x, "dft") is not None


class TestTailRule:
    @pytest.mark.parametrize("n", [11, 12, 50, 999, 1000, 1001, 5000])
    def test_at_least_ten_samples_beyond(self, n):
        latencies = list(np.random.default_rng(n).permutation(n) + 1.0)
        pct, value, beyond = stats.tail(latencies)
        assert beyond >= stats.TAIL_BEYOND
        assert sum(x > value for x in latencies) == beyond
        assert pct <= stats.TAIL_CAP
        if n < 1000:   # the highest percentile the rule allows
            assert beyond == stats.TAIL_BEYOND
        else:
            assert pct == pytest.approx(99.0, abs=100 / n)

    def test_too_few_samples_report_the_maximum(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


class Spin(TestbenchN16):
    """Items that run speed.spin() once, or twice on odd pool entries if slow."""
    name = "spin"
    slow = False
    setup_repeats = 2

    def make_pool(self, rng, workdir):
        return [(golden.SELECTS[j % 2], j) for j in range(10)]

    def run(self, item):
        for _ in range(2 if self.slow and item[1] % 2 else 1):
            speed.spin()

    def check(self, item, output):
        return None


def _stub_setup(wl):
    return {"setup_s": 0.1, "import_s": 0.05, "build_s": 0.05}


class TestGatedLatency:
    def test_half_the_items_slower_moves_it(self):
        rng = np.random.default_rng(1)
        fast = {i: list(rng.uniform(1.0, 1.7, 200)) for i in range(20)}
        half_slow = {i: [1.5 * x for x in r] if i % 2 else r for i, r in fast.items()}
        before, after = stats.mean_of_medians(fast), stats.mean_of_medians(half_slow)
        assert after / before == pytest.approx(1.25, rel=0.02)

    def test_run_reports_it_per_pool_item_at_reference_speed(self, lf, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "cold_setup", _stub_setup)
        values = []
        for slow in (False, True):
            wl = Spin()
            wl.slow = slow
            result = run.run_untraced(wl, 3, 0.5, tmp_path)
            assert sorted(result["tally"].by_item) == list(range(10))
            values.append(result["metrics"]["item_ref_ms"]["value"])
        # One spin() reads as REF_S whatever the machine's speed.
        assert values[0] == pytest.approx(1e3 * speed.REF_S, rel=0.2)
        assert values[1] / values[0] == pytest.approx(1.5, rel=0.15)


def test_a_failed_check_exits_non_zero(lf, tmp_path, monkeypatch, capsys):
    class Failing(Spin):
        def check(self, item, output):
            return "wrong" if item[1] == 3 else None

    monkeypatch.setattr(run, "cold_setup", _stub_setup)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {"spin": Spin, "failing": Failing})
    assert run.run_workload("spin", 1, 0.1, False) == 0
    assert run.run_workload("failing", 1, 0.1, False) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


class TestSeeds:
    def test_same_seed_same_pool(self, lf, tmp_path):
        a, b, c = TestbenchN16(), TestbenchN16(), TestbenchN16()
        a.prepare(lf, 5, tmp_path)
        b.prepare(lf, 5, tmp_path)
        c.prepare(lf, 6, tmp_path)
        assert a.pool == b.pool != c.pool


class TestTracedRun:
    def test_survives_a_missing_wrapped_function(self, lf, tmp_path, monkeypatch):
        # As if a later change removed fx_mul from the engine's namespace.
        counted = tuple((owner, "fx_mul_removed" if attr == "fx_mul" else attr, counter)
                        for owner, attr, counter in tracing.COUNTED)
        monkeypatch.setattr(tracing, "COUNTED", counted)
        monkeypatch.setattr(run, "OUT_DIR", tmp_path)
        monkeypatch.setattr(run, "PROBE_REPEATS", 1)
        result = run.run_traced(TestbenchN16(), 3, 0.2, tmp_path)
        assert result["tally"].failed == 0
        assert result["absent"] == ["fixed.fx_mul.calls"]
        metrics = result["metrics"]
        assert "fixed.fx_mul.calls" not in metrics
        assert set(metrics) == set(tracing.LAYER_UNITS) - {"fixed.fx_mul.calls"}
        assert metrics["fixed.fx_add.calls"]["value"] > 0
        assert metrics["memory.run_device_self_ms"]["value"] > 0
        # The wrappers are gone again once the run has ended.
        assert lf.engine.fx_add.__module__ == "laurentfft.fixed"

    def test_counts_match_the_known_executed_adds(self, lf, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT_DIR", tmp_path)
        monkeypatch.setattr(run, "PROBE_REPEATS", 1)
        result = run.run_traced(TestbenchN16(), 3, 0.2, tmp_path)
        # 298 executed adds against 152 counted on a DFT at N = 16 (314/168 on a DHT).
        assert result["notes"]["fixed.adds_executed_per_counted"] == (
            "DFT: 298/152 per item; DHT: 314/168 per item")
        assert result["metrics"]["plan.nonoptimal_factors"]["value"] == 0
