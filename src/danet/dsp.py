"""STFT analysis/synthesis front-end and spectrogram utilities.

Layout convention used by the whole package: a spectrogram is an F x T
matrix (frequency rows, frame columns).  Its flattened form is a length
F*T vector indexed by ``t*F + f`` -- the frequency index varies fastest,
so the vector is a concatenation of per-frame spectra.  ``flatten_tf`` and
``unflatten_tf`` are the only functions that spell this out; everything
else goes through them.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SAMPLE_RATE",
    "WINDOW_LEN",
    "HOP",
    "N_FREQ",
    "n_frames",
    "SQRT_HANN",
    "Waveform",
    "stft",
    "istft",
    "log_magnitude",
    "reconstruct",
    "flatten_tf",
    "unflatten_tf",
]

SAMPLE_RATE = 8000                 # Hz, for every signal the package reads or writes
WINDOW_LEN = 256                   # analysis window and FFT size, samples
HOP = 64                           # frame advance, samples
N_FREQ = WINDOW_LEN // 2 + 1       # non-redundant bins: F = 129


def n_frames(n_samples: int) -> int:
    """STFT frames of a signal of ``n_samples``: 1 + (len - WINDOW_LEN) // HOP."""
    return 1 + (n_samples - WINDOW_LEN) // HOP


# Square root of the periodic Hann window, sin(pi*n/N) for n in [0, N):
# the analysis and the synthesis window.
SQRT_HANN = np.sin(np.pi * np.arange(WINDOW_LEN) / WINDOW_LEN)
SQRT_HANN.flags.writeable = False


@dataclass
class Waveform:
    """Mono time-domain signal at ``SAMPLE_RATE``."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self):
        return self.samples.size


def flatten_tf(mat: np.ndarray) -> np.ndarray:
    """Flatten an F x T matrix to a length F*T vector indexed by t*F + f."""
    return np.asarray(mat).T.reshape(-1)


def unflatten_tf(vec: np.ndarray, n_freq: int) -> np.ndarray:
    """Inverse of :func:`flatten_tf`: length F*T vector back to F x T."""
    vec = np.asarray(vec).reshape(-1)
    if vec.size % n_freq != 0:
        raise ValueError(f"vector of length {vec.size} is not a multiple of F={n_freq}")
    return vec.reshape(-1, n_freq).T


def stft(w: Waveform) -> np.ndarray:
    """Short-time Fourier transform with a square-root Hann analysis window:
    the N_FREQ x T complex128 array.

    Frame t covers samples [t*HOP, t*HOP + WINDOW_LEN); there is no
    zero-padding, so T = n_frames(len) and only the N_FREQ non-redundant
    bins of the WINDOW_LEN-point DFT are kept.
    """
    x = w.samples
    if x.size < WINDOW_LEN:
        raise ValueError(
            f"signal too short: {x.size} samples, need at least {WINDOW_LEN}"
        )
    # frame t is a view of x[t*HOP : t*HOP + WINDOW_LEN]; windowing copies it
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW_LEN)[::HOP]
    frames = frames * SQRT_HANN
    return np.fft.rfft(frames, n=WINDOW_LEN, axis=1).T


def istft(spec: np.ndarray) -> Waveform:
    """Inverse STFT of an N_FREQ x T spectrogram by weighted overlap-add.

    Each frame is multiplied by the square-root Hann synthesis window and
    the result is normalized by the summed squared window, so
    istft(stft(x)) is exact away from the first/last window where the
    overlap is partial.  Output length is (T-1)*HOP + WINDOW_LEN.
    """
    if spec.ndim != 2 or spec.shape[0] != N_FREQ:
        raise ValueError(
            f"spectrogram of shape {spec.shape} is not {N_FREQ} x T (F x T)")
    t_frames = spec.shape[1]
    frames = np.fft.irfft(spec.T, n=WINDOW_LEN, axis=1)
    # Sample block b (HOP samples) holds block j of frame b - j for each of
    # the WINDOW_LEN // HOP overlapping frames.  Adding j from the last
    # block down adds every sample's frames in frame order, as a loop over
    # frames would, so the sums are bitwise those of that loop.
    overlap = WINDOW_LEN // HOP
    blocks = (frames * SQRT_HANN).reshape(t_frames, overlap, HOP)
    win_blocks = (SQRT_HANN * SQRT_HANN).reshape(overlap, HOP)
    out = np.zeros((t_frames + overlap - 1, HOP))
    norm = np.zeros((t_frames + overlap - 1, HOP))
    for j in reversed(range(overlap)):
        out[j : j + t_frames] += blocks[:, j]
        norm[j : j + t_frames] += win_blocks[j]
    out = out.reshape(-1)
    norm = norm.reshape(-1)
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    out[~nonzero] = 0.0
    return Waveform(out)


def log_magnitude(mag: np.ndarray) -> np.ndarray:
    """Elementwise ln(max(value, 1e-8)) of a magnitude array; the network
    input feature."""
    return np.log(np.maximum(mag, 1e-8))


def reconstruct(masks: np.ndarray, mix: np.ndarray) -> list:
    """Apply C source masks to the mixture STFT ``mix`` and invert each
    with the mixture phase.

    ``masks`` is a C x FT matrix of flattened masks in [0, 1]; source i's
    estimated spectrogram is (mask_i * |mix|) * exp(j angle(mix)), and the
    result is the C inverse transforms as ``Waveform``s.
    """
    masks = np.asarray(masks, dtype=np.float64)
    f, t = mix.shape
    if masks.ndim != 2 or masks.shape[1] != f * t:
        raise ValueError(
            f"masks of shape {masks.shape} are not a C x F*T={f * t} matrix"
        )
    if np.any(masks < 0) or np.any(masks > 1):
        raise ValueError("mask entries must lie in [0, 1]")
    mag = np.abs(mix)
    phase = np.exp(1j * np.angle(mix))
    return [istft(unflatten_tf(mask, f) * mag * phase) for mask in masks]
