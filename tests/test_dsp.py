from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capstream.dsp import (
    DEFAULT_BANDS,
    DspConfig,
    StreamingConditioner,
    band_pass,
    band_statistics,
    fft,
    sequential_difference,
    weighted_smoothed_difference,
)
from capstream.errors import InsufficientDataError, InvalidParameterError
from capstream.signals import RawStream
from capstream.simulate import generate_gesture


def _stream(values: np.ndarray, rate: float = 53.0) -> RawStream:
    return RawStream(sampling_rate=rate, values=values)


def _four(row: list[float]) -> np.ndarray:
    return np.tile(np.asarray(row, dtype=float), (4, 1))


def naive_dft_magnitudes(signal: np.ndarray) -> np.ndarray:
    """O(N^2) direct DFT, one-sided magnitudes; the FFT oracle."""
    n = signal.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    full = basis @ signal.astype(complex)
    return np.abs(full[: n // 2 + 1])


def _pad_pow2(x: np.ndarray) -> np.ndarray:
    n = 1 << (max(len(x), 2) - 1).bit_length()
    out = np.zeros(n)
    out[: len(x)] = x
    return out


class TestSequentialDifference:
    def test_small_example(self):
        out = sequential_difference(_stream(_four([3, 5, 2])))
        np.testing.assert_array_equal(out[0], [2, 3])

    def test_constant_stream_zeroes(self):
        out = sequential_difference(_stream(_four([4.2] * 50)))
        np.testing.assert_array_equal(out, np.zeros((4, 49)))

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(0)
        values = rng.normal(50, 5, size=(4, 1000))
        out = sequential_difference(_stream(values))
        for s in range(4):
            for j in range(1, 1000):
                assert out[s, j - 1] == abs(values[s, j] - values[s, j - 1])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            sequential_difference(_stream(_four([1.0])))


class TestWeightedSmoothedDifference:
    def test_reduces_to_sequential_difference(self):
        stream = _stream(_four([3, 5, 2]))
        cfg = DspConfig(smooth_window=1)
        out = weighted_smoothed_difference(stream, cfg)
        np.testing.assert_array_equal(out.values[0], [2, 3])
        assert out.start_index == 1

    @given(st.lists(st.floats(-1000, 1000), min_size=2, max_size=200))
    @example([0.0, 5e-324])  # subnormal difference: halving it would round to 0
    @settings(max_examples=60, deadline=None)
    def test_tau_half_window_one_is_exact(self, data):
        values = _four(data)
        stream = _stream(values)
        seq = sequential_difference(stream)
        weighted = weighted_smoothed_difference(stream, DspConfig(smooth_window=1))
        assert np.array_equal(seq, weighted.values)

    def test_constant_input_zeroes(self):
        out = weighted_smoothed_difference(_stream(_four([7.5] * 30)), DspConfig())
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_matches_direct_loop(self):
        # Oracle: re-compute the weighted smoothed difference sample by sample.
        rng = np.random.default_rng(3)
        values = rng.normal(0, 10, size=(4, 60))
        tau = 0.7
        w = 3
        cfg = DspConfig(sensitivity=(tau,) * 4, smooth_window=w)
        out = weighted_smoothed_difference(_stream(values), cfg)
        for s in range(4):
            for j in range(w, 60):
                terms = [
                    abs(tau * values[s, k] - (1 - tau) * values[s, k - 1]) * 2.0
                    for k in range(j - w + 1, j + 1)
                ]
                assert out.values[s, j - w] == pytest.approx(sum(terms) / w, rel=1e-12)

    def test_output_non_negative(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 10, size=(4, 100))
        out = weighted_smoothed_difference(_stream(values), DspConfig())
        assert np.all(out.values >= 0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            weighted_smoothed_difference(_stream(_four([1, 2, 3])), DspConfig(smooth_window=5))

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(5)
        values = rng.normal(50, 8, size=(4, 300))
        cfg = DspConfig(sensitivity=(0.6, 0.5, 0.4, 0.5), smooth_window=5)
        batch = weighted_smoothed_difference(_stream(values), cfg)
        cond = StreamingConditioner(cfg)
        rows = []
        for i in range(300):
            out = cond.push(values[:, i])
            if out is not None:
                rows.append(out)
        streamed = np.asarray(rows).T
        np.testing.assert_allclose(streamed, batch.values, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_batch_and_block_streaming_are_bit_identical(self, window):
        # The batch output must equal the sliding-window formula it replaced,
        # and any interleaving of push and push_block must reproduce it bit
        # for bit.
        rng = np.random.default_rng(7)
        values = rng.normal(50, 8, size=(4, 700)) * rng.random((4, 700))
        cfg = DspConfig(sensitivity=(0.6, 0.5, 0.4, 0.5), smooth_window=window)
        tau = np.asarray(cfg.sensitivity)[:, None]
        diffs = np.abs((2.0 * tau) * values[:, 1:] - (2.0 * (1.0 - tau)) * values[:, :-1])
        windows = np.lib.stride_tricks.sliding_window_view(diffs, window, axis=1)
        formula = windows.sum(axis=-1) / window
        batch = weighted_smoothed_difference(_stream(values), cfg).values
        np.testing.assert_array_equal(batch, formula)
        for seed in range(3):
            pick = np.random.default_rng(seed)
            cond = StreamingConditioner(cfg)
            parts, i = [], 0
            while i < values.shape[1]:
                if pick.random() < 0.3:
                    out = cond.push(values[:, i])
                    i += 1
                    if out is not None:
                        parts.append(np.asarray(out)[:, None])
                else:
                    k = int(pick.choice([1, 2, 7, 71, 318]))
                    block = cond.push_block(values[:, i : i + k])
                    assert block.shape == (4, block.shape[1])
                    parts.append(block)
                    i += k
            np.testing.assert_array_equal(np.concatenate(parts, axis=1), batch)

    def test_push_block_output_belongs_to_the_last_rows(self):
        cond = StreamingConditioner(DspConfig(smooth_window=5))
        assert cond.push_block(np.zeros((4, 0))).shape == (4, 0)
        assert cond.push_block(np.zeros((4, 4))).shape == (4, 0)
        assert cond.push_block(np.ones((4, 3))).shape == (4, 2)
        with pytest.raises(InvalidParameterError):
            cond.push_block(np.zeros((3, 5)))

    def test_streaming_keeps_subnormal_difference(self):
        cond = StreamingConditioner(DspConfig(smooth_window=1))
        assert cond.push([0.0] * 4) is None
        assert cond.push([5e-324] * 4) == (5e-324,) * 4


class TestFft:
    def test_impulse_flat_spectrum(self):
        spec = fft([1.0] + [0.0] * 63, sampling_rate=64)
        np.testing.assert_allclose(spec.magnitudes, 1.0, atol=1e-12)

    def test_pure_sine_peaks_at_its_bin(self):
        rate = 128.0
        t = np.arange(128) / rate
        spec = fft(np.sin(2 * np.pi * 16 * t), rate)
        assert spec.frequencies[np.argmax(spec.magnitudes)] == pytest.approx(16.0)

    def test_matches_naive_dft_on_random_signal(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=512)
        spec = fft(x, sampling_rate=512)
        oracle = naive_dft_magnitudes(_pad_pow2(x))
        err = np.max(np.abs(spec.magnitudes - oracle)) / np.max(oracle)
        assert err <= 1e-9

    @given(st.integers(2, 300))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_dft_property(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        spec = fft(x, sampling_rate=100)
        oracle = naive_dft_magnitudes(_pad_pow2(x))
        assert np.max(np.abs(spec.magnitudes - oracle)) / np.max(oracle) <= 1e-9

    def test_linearity_of_magnitudes(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=200)
        base = fft(x, 100).magnitudes
        scaled = fft(3.5 * x, 100).magnitudes
        np.testing.assert_allclose(scaled, 3.5 * base, rtol=1e-9)

    def test_empty_signal(self):
        with pytest.raises(InsufficientDataError):
            fft([], 10)

    def test_bin_to_frequency_mapping(self):
        spec = fft(np.zeros(256), sampling_rate=512)
        np.testing.assert_allclose(np.diff(spec.frequencies), 512 / 256)


class TestBandStatistics:
    def test_gesture_energy_concentrates_low(self, params):
        # High-rate rendering of a gesture so the reference bands all fit.
        rec = generate_gesture(21, 1, params, sampling_rate=1000.0, pre_roll_seconds=1.0, tail_seconds=1.0)
        signal = rec.stream.values[0] - rec.stream.values[0].mean()
        stats = band_statistics(signal, DEFAULT_BANDS, 1000.0)
        low = stats[0]
        for higher in stats[1:]:
            assert low.mean > higher.mean
            assert low.std > higher.std

    def test_zero_signal_all_zero(self):
        stats = band_statistics(np.zeros(1024), DEFAULT_BANDS, 1000.0)
        for st_ in stats:
            assert st_.mean == 0.0 and st_.std == 0.0

    def test_sine_lands_in_its_band(self):
        # Oracle: 150 Hz sits analytically inside [100, 200] and nowhere
        # else; the frequency is bin-aligned so leakage cannot smear it.
        rate = 1024.0
        t = np.arange(1024) / rate
        x = np.sin(2 * np.pi * 150 * t)
        stats = band_statistics(x, DEFAULT_BANDS, rate)
        stds = np.array([s.std for s in stats])
        assert np.argmax(stds) == 1  # the [100, 200] band
        assert stds[1] > 10 * (stds[0] + stds[2] + stds[3] + stds[4])

    def test_band_beyond_nyquist_rejected(self):
        with pytest.raises(InvalidParameterError):
            band_statistics(np.zeros(64), [(1.0, 100.0)], 100.0)


class TestBandPass:
    def test_dc_unchanged(self):
        out = band_pass(np.full(256, 5.0), (0, 10), sampling_rate=100)
        np.testing.assert_allclose(out, 5.0, atol=1e-9)

    def test_attenuates_high_component(self):
        rate = 1024.0
        t = np.arange(1024) / rate
        x = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 200 * t)
        out = band_pass(x, (0, 50), sampling_rate=rate)
        # Oracle: spectrum ratio before/after at the 200 Hz bin.
        before = fft(x, rate)
        after = fft(out, rate)
        bin200 = np.argmin(np.abs(before.frequencies - 200))
        ratio = before.magnitudes[bin200] / max(after.magnitudes[bin200], 1e-12)
        assert 20 * np.log10(ratio) >= 40

    def test_pass_everything_band_is_identity(self):
        # The whole band up to Nyquist, on a signal with no energy at the
        # Nyquist bin: the pad, mask, irfft and truncate round trip.
        rate = 256.0
        t = np.arange(256) / rate
        x = (
            np.sin(2 * np.pi * 10 * t)
            + 0.5 * np.sin(2 * np.pi * 60 * t)
            + 0.2 * np.sin(2 * np.pi * 120 * t)
        )
        out = band_pass(x, (0, rate / 2), sampling_rate=rate)
        np.testing.assert_allclose(out, x, atol=1e-6)


class TestConfig:
    def test_sensitivity_bounds(self):
        with pytest.raises(InvalidParameterError):
            DspConfig(sensitivity=(1.2, 0.5, 0.5, 0.5))
