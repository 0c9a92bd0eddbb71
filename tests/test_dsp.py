"""STFT/iSTFT correctness against direct-DFT and round-trip oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.dsp import (
    HOP,
    N_FREQ,
    SAMPLE_RATE,
    WINDOW_LEN,
    ComplexSpectrogram,
    Waveform,
    flatten_tf,
    istft,
    log_magnitude,
    magnitude,
    n_frames,
    reconstruct,
    sqrt_hann,
    stft,
    unflatten_tf,
)


def direct_dft_frame(frame: np.ndarray, n_bins: int) -> np.ndarray:
    """O(N^2) DFT of one windowed frame; the oracle for stft."""
    n = frame.size
    k = np.arange(n_bins)[:, None]
    t = np.arange(n)[None, :]
    return (frame[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


class TestStft:
    def test_zero_signal_gives_zero_spectrogram(self):
        w = Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        assert np.all(stft(w).values == 0)

    def test_sinusoid_peaks_at_expected_bin(self):
        # 1000 Hz at 8 kHz with a 256-point DFT lands on bin 32
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        w = Waveform(np.sin(2 * np.pi * 1000 * t), SAMPLE_RATE)
        mags = np.abs(stft(w).values)
        assert np.all(mags.argmax(axis=0) == 32)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(700)
        spec = stft(Waveform(x, SAMPLE_RATE))
        win = sqrt_hann(WINDOW_LEN)
        for t in range(spec.values.shape[1]):
            frame = x[t * HOP : t * HOP + WINDOW_LEN] * win
            oracle = direct_dft_frame(frame, N_FREQ)
            np.testing.assert_allclose(spec.values[:, t], oracle, atol=1e-9)

    def test_frame_count_and_coverage(self):
        x = np.ones(WINDOW_LEN + HOP * 9)
        spec = stft(Waveform(x, SAMPLE_RATE))
        assert spec.values.shape == (N_FREQ, 10) == (129, 10)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(WINDOW_LEN, 4 * WINDOW_LEN + 3 * HOP),
           seed=st.integers(0, 2**32 - 1))
    def test_shape_and_roundtrip_at_any_length(self, n, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        spec = stft(Waveform(x, SAMPLE_RATE))
        t = n_frames(n)
        assert spec.values.shape == (N_FREQ, t)
        back = istft(spec).samples
        assert back.size == (t - 1) * HOP + WINDOW_LEN
        # every interior sample is covered by overlapping windows
        lo, hi = WINDOW_LEN, back.size - WINDOW_LEN
        np.testing.assert_allclose(back[lo:hi], x[lo:hi], rtol=0, atol=1e-9)

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError, match="signal too short"):
            stft(Waveform(np.ones(WINDOW_LEN - 1), SAMPLE_RATE))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        sx = stft(Waveform(x, SAMPLE_RATE)).values
        sy = stft(Waveform(y, SAMPLE_RATE)).values
        sxy = stft(Waveform(2.0 * x - 0.5 * y, SAMPLE_RATE)).values
        np.testing.assert_allclose(sxy, 2.0 * sx - 0.5 * sy, atol=1e-9)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        spec = stft(Waveform(x, SAMPLE_RATE)).values
        win = sqrt_hann(WINDOW_LEN)
        for t in range(spec.shape[1]):
            frame = x[t * HOP : t * HOP + WINDOW_LEN] * win
            time_energy = np.sum(frame**2)
            # fold the half spectrum back to full-spectrum energy
            spec_energy = (
                np.abs(spec[0, t]) ** 2
                + np.abs(spec[-1, t]) ** 2
                + 2 * np.sum(np.abs(spec[1:-1, t]) ** 2)
            ) / WINDOW_LEN
            assert abs(spec_energy - time_energy) <= 1e-6 * max(time_energy, 1e-12)


class TestIstft:
    def test_zero_spectrogram_gives_zero_waveform(self):
        spec = ComplexSpectrogram(np.zeros((N_FREQ, 5), dtype=complex))
        assert np.all(istft(spec).samples == 0)

    def test_output_length_arithmetic(self):
        spec = ComplexSpectrogram(np.zeros((N_FREQ, 10), dtype=complex))
        assert len(istft(spec)) == 9 * HOP + WINDOW_LEN == 9 * 64 + 256

    def test_roundtrip_interior_exact(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, SAMPLE_RATE)
        back = istft(stft(Waveform(x, SAMPLE_RATE))).samples
        lo, hi = WINDOW_LEN, len(back) - WINDOW_LEN
        assert np.max(np.abs(back[lo:hi] - x[lo:hi])) < 1e-6

    def test_inconsistent_rows_raise(self):
        with pytest.raises(ValueError):
            ComplexSpectrogram(np.zeros((100, 5), dtype=complex))


class TestMagnitude:
    def test_three_four_five(self):
        spec = ComplexSpectrogram(np.full((N_FREQ, 2), 3 + 4j))
        mag = magnitude(spec)
        assert type(mag) is np.ndarray and mag.shape == (N_FREQ, 2)
        assert np.all(mag == 5.0)

    def test_zero(self):
        spec = ComplexSpectrogram(np.zeros((N_FREQ, 3), dtype=complex))
        assert np.all(magnitude(spec) == 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        vals = (rng.standard_normal((N_FREQ, 7))
                + 1j * rng.standard_normal((N_FREQ, 7)))
        spec = ComplexSpectrogram(vals)
        oracle = np.sqrt(vals.real**2 + vals.imag**2)
        np.testing.assert_allclose(magnitude(spec), oracle, atol=1e-12)


class TestLogMagnitude:
    def test_e_maps_to_one(self):
        np.testing.assert_allclose(log_magnitude(np.full((2, 2), np.e)), 1.0)

    def test_floor_applies_at_zero(self):
        np.testing.assert_allclose(log_magnitude(np.zeros((2, 2))), np.log(1e-8))

    def test_monotone(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 2, (6, 6))
        b = a + rng.uniform(0, 1, (6, 6))
        assert np.all(log_magnitude(a) <= log_magnitude(b))


class TestReconstruct:
    def test_all_ones_mask_reproduces_mixture(self):
        rng = np.random.default_rng(6)
        w = Waveform(rng.uniform(-0.5, 0.5, 4000), SAMPLE_RATE)
        spec = stft(w)
        ones = np.ones(spec.values.size)
        np.testing.assert_allclose(
            reconstruct(ones, spec).samples, istft(spec).samples, atol=1e-12
        )

    def test_zero_mask_gives_silence(self):
        w = Waveform(np.sin(np.arange(4000) * 0.3), SAMPLE_RATE)
        spec = stft(w)
        assert np.all(reconstruct(np.zeros(spec.values.size), spec).samples == 0)

    def test_shape_mismatch_raises(self):
        w = Waveform(np.ones(4000), SAMPLE_RATE)
        spec = stft(w)
        with pytest.raises(ValueError):
            reconstruct(np.ones(5), spec)

    def test_mask_range_checked(self):
        w = Waveform(np.ones(4000), SAMPLE_RATE)
        spec = stft(w)
        bad = np.full(spec.values.size, 1.5)
        with pytest.raises(ValueError):
            reconstruct(bad, spec)

    def test_wfm_oracle_mask_improves_both_sources(self):
        # masked reconstruction with the ideal Wiener-like mask beats the
        # raw mixture for every source
        from danet.masks import wfm
        from danet.metrics import si_snr_improvement

        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        s1 = Waveform(0.4 * np.sin(2 * np.pi * 130 * t), SAMPLE_RATE)
        s2 = Waveform(0.4 * np.sin(2 * np.pi * 470 * t + 0.7), SAMPLE_RATE)
        mix = Waveform(s1.samples + s2.samples, SAMPLE_RATE)
        spec = stft(mix)
        src = np.stack(
            [flatten_tf(magnitude(stft(s))) for s in (s1, s2)]
        )
        masks = wfm(src)
        for i, ref in enumerate((s1, s2)):
            est = reconstruct(masks[i], spec)
            n = len(est)
            gain = si_snr_improvement(est.samples, ref.samples[:n], mix.samples[:n])
            assert gain > 0


class TestFlattening:
    def test_frequency_varies_fastest(self):
        mat = np.arange(12).reshape(3, 4)  # F=3, T=4
        flat = flatten_tf(mat)
        f, t = 2, 3
        assert flat[t * 3 + f] == mat[f, t]

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((N_FREQ, 11))
        np.testing.assert_array_equal(unflatten_tf(flatten_tf(mat), N_FREQ), mat)

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            unflatten_tf(np.zeros(10), 3)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), SAMPLE_RATE)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), SAMPLE_RATE)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(10), 0)
