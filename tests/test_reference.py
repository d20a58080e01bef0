"""Direct-summation oracle tests: golden values and transform laws."""

import math

import numpy as np
import pytest

from laurentfft import dft_direct, dht_direct

RAMP2 = [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]


class TestDftDirect:
    def test_ramp2_known_bins(self):
        v = dft_direct(RAMP2)
        assert abs(v[0] - 56) < 1e-9
        assert abs(v[1]) < 1e-9
        # bin 2 is -8 + (8 + 8*sqrt(2))j exactly
        assert abs(v[2] - (-8 + 1j * (8 + 8 * math.sqrt(2)))) < 1e-9
        assert abs(v[2] - (-8 + 19.3137j)) < 5e-4
        assert abs(v[4] - (-8 + 8j)) < 1e-9

    def test_zeros(self):
        assert np.abs(dft_direct([0.0] * 16)).max() == 0

    def test_impulse_is_flat(self):
        v = dft_direct([1, 0, 0, 0, 0, 0, 0, 0])
        assert np.abs(v - 1).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft_direct([])

    @pytest.mark.parametrize("oracle", [dft_direct, dht_direct])
    def test_complex_rejected(self, oracle):
        with pytest.raises(ValueError, match="samples must be real"):
            oracle(np.ones(4) * (1 + 1j))

    @pytest.mark.parametrize("oracle", [dft_direct, dht_direct])
    @pytest.mark.parametrize("samples, first", [([10**400] + [0] * 15, 0),
                                                ([0, 1, -10**400, 10**400], 2)])
    def test_sample_beyond_float64_named(self, oracle, samples, first):
        with pytest.raises(ValueError, match=f"^sample {first} does not fit in float64$"):
            oracle(samples)

    @pytest.mark.parametrize("oracle", [dft_direct, dht_direct])
    @pytest.mark.parametrize("bad, message", [
        (np.zeros((2, 8)), "signal must be one-dimensional"),
        # too large for float64 as well: the shape is still what is named
        ([[10**400, 0], [0, 0]], "signal must be one-dimensional"),
        ([], "signal must contain at least one sample")],
        ids=["2-D", "2-D-beyond-float64", "empty"])
    def test_shape_rejected(self, oracle, bad, message):
        with pytest.raises(ValueError, match=message):
            oracle(bad)

    @pytest.mark.parametrize("oracle", [dft_direct, dht_direct])
    @pytest.mark.parametrize("bad, message", [
        ([object()] * 16, r"sample 0 \(object\) is not a number"),
        ([0.0, 1.0, {1: 2}, None], r"sample 2 \(dict\) is not a number"),
        # too large for float64 and not a number: the first refused sample is named
        ([0, 10**400, object()], "sample 1 does not fit in float64"),
        # numpy reads a dict or an object as one scalar, so the shape is named
        ({1: 2}, "signal must be one-dimensional"),
        (object(), "signal must be one-dimensional"),
        # text is not a sample, even where numpy could parse it; numpy turns
        # all of [1, 'x'] into text, yet the caller's first text item is named
        ([b"2", "1e1"], r"sample 0 \(bytes\) is not a number"),
        (["1.5", "0", "0", "0"], r"sample 0 \(str\) is not a number"),
        ([1, "x", 0, 0], r"sample 1 \(str\) is not a number"),
        (np.array(["1", "2"]), r"sample 0 \(str_\) is not a number"),
        (np.array([1.0, b"2"], dtype=object), r"sample 1 \(bytes\) is not a number")],
        ids=["objects", "dict-sample", "beyond-float64-first", "dict", "object",
             "bytes-and-str", "numeric-str", "str-after-int", "text-array", "bytes-in-objects"])
    def test_unreadable_samples_rejected(self, oracle, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle(bad)

    @pytest.mark.parametrize("oracle", [dft_direct, dht_direct])
    def test_non_finite_samples_accepted(self, oracle):
        # the oracles check shape, not values: a NaN or an infinity runs through
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf):
                out = oracle([bad, 0.0, 0.0, 0.0])
                assert out.shape == (4,) and not np.isfinite(out).all()

    def test_any_positive_length_accepted(self):
        # the oracle is not restricted to N = 0 (mod 4)
        assert dft_direct([1.0, 2.0, 3.0]).shape == (3,)

    def test_conjugate_symmetry_real_input(self):
        rng = np.random.default_rng(7)
        for n in (4, 8, 12, 16, 30):
            v = dft_direct(rng.normal(size=n))
            for k in range(1, n):
                assert abs(v[n - k] - np.conj(v[k])) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for n in (4, 16, 64):
            u, v = rng.normal(size=n), rng.normal(size=n)
            a, b = rng.normal(), rng.normal()
            lhs = dft_direct(a * u + b * v)
            rhs = a * dft_direct(u) + b * dft_direct(v)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(9)
        for n in (8, 16, 64):
            v = rng.normal(size=n)
            time_e = np.sum(v * v)
            freq_e = np.sum(np.abs(dft_direct(v)) ** 2) / n
            assert abs(time_e - freq_e) < 1e-9 * max(1.0, abs(time_e))


class TestDhtDirect:
    def test_ramp2_known_bins(self):
        h = dht_direct(RAMP2)
        assert abs(h[0] - 56) < 1e-9
        assert abs(h[2] - (-27.3137)) < 5e-4
        assert abs(h[14] - 11.3137) < 5e-4

    def test_zeros(self):
        assert np.abs(dht_direct([0.0] * 16)).max() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dht_direct([])

    def test_matches_dft_route_n12(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=12)
        f = dft_direct(v)
        assert np.abs(dht_direct(v) - (f.real - f.imag)).max() < 1e-9


class TestDhtFromDft:
    def test_consistency_all_lengths(self):
        # H[k] = Re(V[k]) - Im(V[k]) relates the two direct sums
        rng = np.random.default_rng(11)
        for n in (4, 8, 12, 16):
            v = rng.normal(size=n)
            f = dft_direct(v)
            assert np.abs((f.real - f.imag) - dht_direct(v)).max() < 1e-9
