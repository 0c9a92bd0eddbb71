"""STFT analysis/synthesis front-end and spectrogram utilities.

Layout convention used by the whole package: a spectrogram is an F x T
matrix (frequency rows, frame columns).  Its flattened form is a length
F*T vector indexed by ``t*F + f`` -- the frequency index varies fastest,
so the vector is a concatenation of per-frame spectra.  ``flatten_tf`` and
``unflatten_tf`` are the only functions that spell this out; everything
else goes through them.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Waveform",
    "StftConfig",
    "ComplexSpectrogram",
    "MagnitudeSpectrogram",
    "stft",
    "istft",
    "magnitude",
    "log_magnitude",
    "reconstruct",
    "flatten_tf",
    "unflatten_tf",
    "sqrt_hann",
]


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


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters.  fft_size always equals window_len."""

    window_len: int = 256
    hop: int = 64

    def __post_init__(self):
        if not (0 < self.hop <= self.window_len):
            raise ValueError("hop must satisfy 0 < hop <= window_len")

    @property
    def fft_size(self) -> int:
        return self.window_len

    @property
    def n_freq(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def window(self) -> np.ndarray:
        return sqrt_hann(self.window_len)

    def n_frames(self, n_samples: int) -> int:
        """Frames of a signal of ``n_samples``: 1 + (len - window_len) // hop."""
        return 1 + (n_samples - self.window_len) // self.hop


@dataclass
class ComplexSpectrogram:
    """F x T complex matrix plus the config that produced it."""

    values: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)
    sample_rate: int = 8000

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("spectrogram must be 2-D (F x T)")
        if self.values.shape[0] != self.config.n_freq:
            raise ValueError(
                f"spectrogram has {self.values.shape[0]} frequency rows, "
                f"config expects {self.config.n_freq}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass
class MagnitudeSpectrogram:
    """F x T non-negative real matrix."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("magnitude spectrogram must be 2-D (F x T)")
        if np.any(self.values < 0):
            raise ValueError("magnitudes must be non-negative")

    def flatten(self) -> np.ndarray:
        """Length F*T vector, frequency index varying fastest."""
        return flatten_tf(self.values)


def flatten_tf(mat: np.ndarray) -> np.ndarray:
    """Flatten an F x T matrix to a length F*T vector indexed by t*F + f."""
    return np.asarray(mat).T.reshape(-1)


def unflatten_tf(vec: np.ndarray, n_freq: int) -> np.ndarray:
    """Inverse of :func:`flatten_tf`: length F*T vector back to F x T."""
    vec = np.asarray(vec).reshape(-1)
    if vec.size % n_freq != 0:
        raise ValueError(f"vector of length {vec.size} is not a multiple of F={n_freq}")
    return vec.reshape(-1, n_freq).T


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> ComplexSpectrogram:
    """Short-time Fourier transform with a square-root Hann analysis window.

    Frame t covers samples [t*hop, t*hop + window_len); there is no
    zero-padding, so T = 1 + (len - window_len) // hop and only the F =
    fft_size/2 + 1 non-redundant bins are kept.
    """
    x = w.samples
    n = cfg.window_len
    if x.size < n:
        raise ValueError(
            f"signal too short: {x.size} samples, need at least {n}"
        )
    n_frames = cfg.n_frames(x.size)
    idx = cfg.hop * np.arange(n_frames)[:, None] + np.arange(n)[None, :]
    frames = x[idx] * cfg.window
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=1).T
    return ComplexSpectrogram(spec, cfg, sample_rate=w.sample_rate)


def istft(spec: ComplexSpectrogram) -> Waveform:
    """Inverse STFT by weighted overlap-add.

    Each frame is multiplied by the square-root Hann synthesis window and
    the result is normalized by the summed squared window, so
    istft(stft(x)) is exact away from the first/last window where the
    overlap is partial.  Output length is (T-1)*hop + window_len.
    """
    cfg = spec.config
    if spec.values.shape[0] != cfg.n_freq:
        raise ValueError(
            f"spectrogram has {spec.values.shape[0]} rows, "
            f"fft_size {cfg.fft_size} requires {cfg.n_freq}"
        )
    n = cfg.window_len
    n_frames = spec.n_frames
    out_len = (n_frames - 1) * cfg.hop + n
    frames = np.fft.irfft(spec.values.T, n=cfg.fft_size, axis=1)
    win = cfg.window
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    for t in range(n_frames):
        start = t * cfg.hop
        out[start : start + n] += frames[t] * win
        norm[start : start + n] += win * win
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    out[~nonzero] = 0.0
    return Waveform(out, sample_rate=spec.sample_rate)


def magnitude(spec: ComplexSpectrogram) -> MagnitudeSpectrogram:
    """Elementwise modulus of a complex spectrogram."""
    return MagnitudeSpectrogram(np.abs(spec.values))


def log_magnitude(mag, floor: float = 1e-8) -> np.ndarray:
    """Elementwise ln(max(value, floor)); the network input feature.

    Accepts a :class:`MagnitudeSpectrogram` or a plain non-negative array.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    values = mag.values if isinstance(mag, MagnitudeSpectrogram) else np.asarray(mag)
    return np.log(np.maximum(values, floor))


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
    return istft(ComplexSpectrogram(est, mix.config, sample_rate=mix.sample_rate))
