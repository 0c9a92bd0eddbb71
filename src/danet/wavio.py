"""Mono 16-bit PCM WAV reader/writer for 8 kHz audio.

The RIFF parsing is done by hand so malformed files fail with an error
naming the offending field instead of a generic unpack error.
"""

import struct
import warnings
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, Waveform

__all__ = ["wav_write", "wav_read"]


def wav_write(w: Waveform, path) -> None:
    """Write a waveform as mono 16-bit little-endian PCM at ``SAMPLE_RATE``.

    Samples are quantized round-half-away-from-zero; values outside
    [-1, 1] are clipped (with a warning reporting how many) and +1.0
    saturates to 32767.
    """
    x = w.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if n_clipped:
        warnings.warn(f"{n_clipped} samples clipped to [-1, 1] writing {path}")
        x = np.clip(x, -1.0, 1.0)
    q = np.sign(x) * np.floor(np.abs(x) * 32768.0 + 0.5)
    pcm = np.clip(q, -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,                       # PCM
        1,                       # mono
        SAMPLE_RATE,
        SAMPLE_RATE * 2,         # byte rate
        2,                       # block align
        16,                      # bits per sample
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def wav_read(path) -> Waveform:
    """Read a mono 16-bit 8 kHz PCM WAV file.

    Unknown chunks are skipped; format violations raise ValueError with
    the offending field named.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != b"RIFF":
        raise ValueError(f"{path}: missing RIFF signature")
    if blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: missing WAVE form type")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise ValueError(
                    f"{path}: fmt chunk truncated ({len(body)} bytes, need 16)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise ValueError(f"{path}: payload shorter than header claims")
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise ValueError(f"{path}: no fmt chunk")
    if payload is None:
        raise ValueError(f"{path}: no data chunk")

    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1:
        raise ValueError(f"{path}: PCM required, format tag is {audio_format}")
    if channels != 1:
        raise ValueError(f"{path}: mono required, file has {channels} channels")
    if bits != 16:
        raise ValueError(f"{path}: 16-bit samples required, file has {bits}")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate must be {SAMPLE_RATE}, got {rate}")

    if not payload or len(payload) % 2:
        raise ValueError(
            f"{path}: data chunk holds {len(payload)} bytes, not whole 16-bit samples")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples)
