"""STFT/iSTFT correctness against direct-DFT and round-trip oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.dsp import (
    HOP,
    N_FREQ,
    SAMPLE_RATE,
    SQRT_HANN,
    WINDOW_LEN,
    Waveform,
    flatten_tf,
    istft,
    log_magnitude,
    n_frames,
    reconstruct,
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
        w = Waveform(np.zeros(SAMPLE_RATE))
        assert np.all(stft(w) == 0)

    def test_sinusoid_peaks_at_expected_bin(self):
        # 1000 Hz at 8 kHz with a 256-point DFT lands on bin 32
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        w = Waveform(np.sin(2 * np.pi * 1000 * t))
        mags = np.abs(stft(w))
        assert np.all(mags.argmax(axis=0) == 32)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(WINDOW_LEN, 3000), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_gathered_frames(self, n, seed):
        # the frames as an index gather, windowed and transformed the same way
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        idx = HOP * np.arange(n_frames(n))[:, None] + np.arange(WINDOW_LEN)
        want = np.fft.rfft(x[idx] * SQRT_HANN, n=WINDOW_LEN, axis=1).T
        np.testing.assert_array_equal(stft(Waveform(x)), want)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(700)
        spec = stft(Waveform(x))
        win = SQRT_HANN
        for t in range(spec.shape[1]):
            frame = x[t * HOP : t * HOP + WINDOW_LEN] * win
            oracle = direct_dft_frame(frame, N_FREQ)
            np.testing.assert_allclose(spec[:, t], oracle, atol=1e-9)

    def test_frame_count_and_coverage(self):
        x = np.ones(WINDOW_LEN + HOP * 9)
        spec = stft(Waveform(x))
        assert spec.shape == (N_FREQ, 10) == (129, 10)
        assert spec.dtype == np.complex128

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(WINDOW_LEN, 4 * WINDOW_LEN + 3 * HOP),
           seed=st.integers(0, 2**32 - 1))
    def test_shape_and_roundtrip_at_any_length(self, n, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        spec = stft(Waveform(x))
        t = n_frames(n)
        assert spec.shape == (N_FREQ, t)
        back = istft(spec).samples
        assert back.size == (t - 1) * HOP + WINDOW_LEN
        # every interior sample is covered by overlapping windows
        lo, hi = WINDOW_LEN, back.size - WINDOW_LEN
        np.testing.assert_allclose(back[lo:hi], x[lo:hi], rtol=0, atol=1e-9)

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError, match="signal too short"):
            stft(Waveform(np.ones(WINDOW_LEN - 1)))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        sx = stft(Waveform(x))
        sy = stft(Waveform(y))
        sxy = stft(Waveform(2.0 * x - 0.5 * y))
        np.testing.assert_allclose(sxy, 2.0 * sx - 0.5 * sy, atol=1e-9)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        spec = stft(Waveform(x))
        win = SQRT_HANN
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
        spec = np.zeros((N_FREQ, 5), dtype=complex)
        assert np.all(istft(spec).samples == 0)

    def test_output_length_arithmetic(self):
        spec = np.zeros((N_FREQ, 10), dtype=complex)
        assert len(istft(spec)) == 9 * HOP + WINDOW_LEN == 9 * 64 + 256

    def test_roundtrip_interior_exact(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, SAMPLE_RATE)
        back = istft(stft(Waveform(x))).samples
        lo, hi = WINDOW_LEN, len(back) - WINDOW_LEN
        assert np.max(np.abs(back[lo:hi] - x[lo:hi])) < 1e-6

    def test_inconsistent_rows_raise(self):
        for bad in (np.zeros((100, 5), dtype=complex),
                    np.zeros(N_FREQ, dtype=complex),
                    np.zeros((N_FREQ, 5, 1), dtype=complex)):
            with pytest.raises(ValueError, match="F x T"):
                istft(bad)

    def test_window_is_read_only(self):
        assert SQRT_HANN.shape == (WINDOW_LEN,) and not SQRT_HANN.flags.writeable
        with pytest.raises(ValueError):
            SQRT_HANN[0] = 1.0


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


def istft_frame_loop(spec: np.ndarray) -> np.ndarray:
    """Overlap-add one frame at a time; the bitwise oracle for istft."""
    t_frames = spec.shape[1]
    out_len = (t_frames - 1) * HOP + WINDOW_LEN
    frames = np.fft.irfft(spec.T, n=WINDOW_LEN, axis=1)
    win = SQRT_HANN
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    for t in range(t_frames):
        start = t * HOP
        out[start : start + WINDOW_LEN] += frames[t] * win
        norm[start : start + WINDOW_LEN] += win * win
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    out[~nonzero] = 0.0
    return out


def spectrograms(max_frames=24):
    """Random complex N_FREQ x T spectrograms with T in [1, max_frames]."""
    return st.tuples(st.integers(1, max_frames), st.integers(0, 2**32 - 1)).map(
        lambda ts: np.random.default_rng(ts[1]).standard_normal((N_FREQ, ts[0]))
        + 1j * np.random.default_rng(ts[1] + 1).standard_normal((N_FREQ, ts[0]))
    )


class TestIstftOverlapAdd:
    @settings(max_examples=60, deadline=None)
    @given(spec=spectrograms())
    def test_equals_frame_loop_bitwise(self, spec):
        np.testing.assert_array_equal(istft(spec).samples, istft_frame_loop(spec))

    @pytest.mark.parametrize("t_frames", range(1, 9))
    def test_short_spectrograms_equal_frame_loop(self, t_frames):
        # partial overlap everywhere, and the zero-norm first sample
        rng = np.random.default_rng(t_frames)
        spec = (rng.standard_normal((N_FREQ, t_frames))
                + 1j * rng.standard_normal((N_FREQ, t_frames)))
        back = istft(spec).samples
        np.testing.assert_array_equal(back, istft_frame_loop(spec))
        assert back[0] == 0.0


class TestReconstruct:
    def test_all_ones_mask_reproduces_mixture(self):
        rng = np.random.default_rng(6)
        w = Waveform(rng.uniform(-0.5, 0.5, 4000))
        spec = stft(w)
        ones = np.ones((1, spec.size))
        np.testing.assert_allclose(
            reconstruct(ones, spec)[0].samples, istft(spec).samples, atol=1e-12
        )

    def test_zero_mask_gives_silence(self):
        w = Waveform(np.sin(np.arange(4000) * 0.3))
        spec = stft(w)
        assert np.all(reconstruct(np.zeros((1, spec.size)), spec)[0].samples == 0)

    def test_shape_mismatch_raises(self):
        w = Waveform(np.ones(4000))
        spec = stft(w)
        with pytest.raises(ValueError):
            reconstruct(np.ones((1, 5)), spec)

    def test_single_flat_mask_is_not_a_matrix(self):
        spec = stft(Waveform(np.ones(4000)))
        with pytest.raises(ValueError, match="C x F"):
            reconstruct(np.ones(spec.size), spec)

    def test_mask_range_checked(self):
        w = Waveform(np.ones(4000))
        spec = stft(w)
        bad = np.full((1, spec.size), 1.5)
        with pytest.raises(ValueError):
            reconstruct(bad, spec)

    @settings(max_examples=40, deadline=None)
    @given(spec=spectrograms(max_frames=12), c=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_per_row_formula_bitwise(self, spec, c, seed):
        masks = np.random.default_rng(seed).uniform(0, 1, (c, spec.size))
        masks[:, ::7] = 0.0
        estimates = reconstruct(masks, spec)
        assert len(estimates) == c
        for mask, est in zip(masks, estimates):
            est_ft = (unflatten_tf(mask, N_FREQ) * np.abs(spec)
                      * np.exp(1j * np.angle(spec)))
            np.testing.assert_array_equal(
                est.samples, istft(est_ft).samples
            )

    def test_wfm_oracle_mask_improves_both_sources(self):
        # masked reconstruction with the ideal Wiener-like mask beats the
        # raw mixture for every source
        from danet.masks import wfm
        from danet.metrics import si_snr_improvement

        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        s1 = Waveform(0.4 * np.sin(2 * np.pi * 130 * t))
        s2 = Waveform(0.4 * np.sin(2 * np.pi * 470 * t + 0.7))
        mix = Waveform(s1.samples + s2.samples)
        spec = stft(mix)
        src = np.stack([flatten_tf(np.abs(stft(s))) for s in (s1, s2)])
        estimates = reconstruct(wfm(src), spec)
        for est, ref in zip(estimates, (s1, s2)):
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
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]))

