"""STFT analysis/synthesis front-end and spectrogram utilities.

Layout convention used by the whole package: a spectrogram is an F x T
matrix (frequency rows, frame columns).  Its flattened form is a length
F*T vector indexed by ``t*F + f`` -- the frequency index varies fastest,
so the vector is a concatenation of per-frame spectra.  ``flatten_tf`` and
``unflatten_tf`` are the only functions that spell this out; everything
else goes through them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SAMPLE_RATE",
    "WINDOW_LEN",
    "HOP",
    "N_FREQ",
    "n_frames",
    "Waveform",
    "ComplexSpectrogram",
    "stft",
    "istft",
    "magnitude",
    "log_magnitude",
    "reconstruct",
    "flatten_tf",
    "unflatten_tf",
    "sqrt_hann",
]

SAMPLE_RATE = 8000                 # Hz, for every signal the package reads or writes
WINDOW_LEN = 256                   # analysis window and FFT size, samples
HOP = 64                           # frame advance, samples
N_FREQ = WINDOW_LEN // 2 + 1       # non-redundant bins: F = 129


def n_frames(n_samples: int) -> int:
    """STFT frames of a signal of ``n_samples``: 1 + (len - WINDOW_LEN) // HOP."""
    return 1 + (n_samples - WINDOW_LEN) // HOP


@dataclass
class Waveform:
    """Mono time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@lru_cache(maxsize=8)
def sqrt_hann(length: int) -> np.ndarray:
    """Square-root of the periodic Hann window: sin(pi*n/N) for n in [0, N)."""
    win = np.sin(np.pi * np.arange(length) / length)
    win.flags.writeable = False
    return win


@dataclass
class ComplexSpectrogram:
    """N_FREQ x T complex matrix."""

    values: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("spectrogram must be 2-D (F x T)")
        if self.values.shape[0] != N_FREQ:
            raise ValueError(
                f"spectrogram has {self.values.shape[0]} frequency rows, "
                f"expected {N_FREQ}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def flatten_tf(mat: np.ndarray) -> np.ndarray:
    """Flatten an F x T matrix to a length F*T vector indexed by t*F + f."""
    return np.asarray(mat).T.reshape(-1)


def unflatten_tf(vec: np.ndarray, n_freq: int) -> np.ndarray:
    """Inverse of :func:`flatten_tf`: length F*T vector back to F x T."""
    vec = np.asarray(vec).reshape(-1)
    if vec.size % n_freq != 0:
        raise ValueError(f"vector of length {vec.size} is not a multiple of F={n_freq}")
    return vec.reshape(-1, n_freq).T


def stft(w: Waveform) -> ComplexSpectrogram:
    """Short-time Fourier transform with a square-root Hann analysis window.

    Frame t covers samples [t*HOP, t*HOP + WINDOW_LEN); there is no
    zero-padding, so T = n_frames(len) and only the N_FREQ non-redundant
    bins of the WINDOW_LEN-point DFT are kept.
    """
    x = w.samples
    if x.size < WINDOW_LEN:
        raise ValueError(
            f"signal too short: {x.size} samples, need at least {WINDOW_LEN}"
        )
    t = n_frames(x.size)
    idx = HOP * np.arange(t)[:, None] + np.arange(WINDOW_LEN)[None, :]
    frames = x[idx] * sqrt_hann(WINDOW_LEN)
    spec = np.fft.rfft(frames, n=WINDOW_LEN, axis=1).T
    return ComplexSpectrogram(spec, sample_rate=w.sample_rate)


def istft(spec: ComplexSpectrogram) -> Waveform:
    """Inverse STFT by weighted overlap-add.

    Each frame is multiplied by the square-root Hann synthesis window and
    the result is normalized by the summed squared window, so
    istft(stft(x)) is exact away from the first/last window where the
    overlap is partial.  Output length is (T-1)*HOP + WINDOW_LEN.
    """
    n = WINDOW_LEN
    t_frames = spec.n_frames
    out_len = (t_frames - 1) * HOP + n
    frames = np.fft.irfft(spec.values.T, n=n, axis=1)
    win = sqrt_hann(n)
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    for t in range(t_frames):
        start = t * HOP
        out[start : start + n] += frames[t] * win
        norm[start : start + n] += win * win
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    out[~nonzero] = 0.0
    return Waveform(out, sample_rate=spec.sample_rate)


def magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """Elementwise modulus of a complex spectrogram: an F x T array."""
    return np.abs(spec.values)


def log_magnitude(mag: np.ndarray) -> np.ndarray:
    """Elementwise ln(max(value, 1e-8)) of a magnitude array; the network
    input feature."""
    return np.log(np.maximum(mag, 1e-8))


def reconstruct(mask_row: np.ndarray, mix: ComplexSpectrogram) -> Waveform:
    """Apply one source mask to the mixture and invert with mixture phase.

    ``mask_row`` is a flattened 1 x FT mask in [0, 1]; the estimated
    magnitude is mask * |mix| and the mixture phase is reattached before
    the inverse transform.
    """
    mask = np.asarray(mask_row, dtype=np.float64).reshape(-1)
    f, t = mix.values.shape
    if mask.size != f * t:
        raise ValueError(
            f"mask length {mask.size} does not match spectrogram F*T={f * t}"
        )
    if np.any(mask < 0) or np.any(mask > 1):
        raise ValueError("mask entries must lie in [0, 1]")
    mask_ft = unflatten_tf(mask, f)
    est = mask_ft * np.abs(mix.values) * np.exp(1j * np.angle(mix.values))
    return istft(ComplexSpectrogram(est, sample_rate=mix.sample_rate))
