"""Deterministic synthetic mixture corpus.

Sources are harmonic complexes (distinct fundamentals, 1/k partial
amplitudes, slow sinusoidal amplitude modulation) so ideal masks separate
them well; mixtures combine them at a requested SNR against the first
source.  Everything derives from integer seeds, so a manifest regenerates
byte-identical audio.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, Waveform
from .wavio import wav_write

__all__ = [
    "SourceSpec",
    "MixtureSpec",
    "DatasetManifest",
    "synth_source",
    "mix_at_snr",
    "build_manifest",
    "generate_dataset",
    "load_index",
]


@dataclass(frozen=True)
class SourceSpec:
    f0: float                 # fundamental, Hz
    n_harmonics: int
    am_rate: float            # amplitude modulation rate, Hz (0 disables)
    duration: float           # seconds
    seed: int


@dataclass(frozen=True)
class MixtureSpec:
    sources: tuple            # C SourceSpecs, equal duration
    snr_db: float             # every non-reference source scaled to this vs source 0
    seed: int

    def __post_init__(self):
        if not (1 <= len(self.sources) <= 3):
            raise ValueError("mixtures support 1 to 3 sources")
        durations = {s.duration for s in self.sources}
        if len(durations) != 1:
            raise ValueError("all sources in a mixture must share a duration")


@dataclass
class DatasetManifest:
    split: str
    mixtures: list = field(default_factory=list)
    seed: int = 0


def synth_source(spec: SourceSpec) -> Waveform:
    """Harmonic complex with random phases from the seed, peak 0.5.

    Partial k (k = 1..n_harmonics) sits at k*f0 with amplitude 1/k; the
    whole sum is modulated by 0.5*(1+sin(2*pi*am_rate*t)) when am_rate > 0
    and then peak-normalized.
    """
    if spec.f0 * spec.n_harmonics >= SAMPLE_RATE / 2:
        raise ValueError(
            f"harmonic {spec.n_harmonics}*{spec.f0} Hz reaches the Nyquist limit"
        )
    if spec.duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(spec.duration * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    rng = np.random.default_rng(spec.seed)
    phases = rng.uniform(0, 2 * np.pi, size=spec.n_harmonics)
    x = np.zeros(n)
    for k in range(1, spec.n_harmonics + 1):
        x += np.sin(2 * np.pi * k * spec.f0 * t + phases[k - 1]) / k
    if spec.am_rate > 0:
        x *= 0.5 * (1.0 + np.sin(2 * np.pi * spec.am_rate * t))
    peak = np.abs(x).max()
    x *= 0.5 / peak
    return Waveform(x)


def mix_at_snr(s1: Waveform, s2: Waveform, snr_db: float) -> tuple:
    """Scale s2 so that s1 sits snr_db above it, then sum.

    Returns ``(mixture, scaled_s2)``; raises on zero-power inputs.
    """
    a = s1.samples
    b = s2.samples
    if a.size != b.size:
        raise ValueError("sources must have equal length")
    p1 = float(np.mean(a * a))
    p2 = float(np.mean(b * b))
    if p1 == 0.0 or p2 == 0.0:
        raise ValueError("zero-power source")
    scale = np.sqrt(p1 / p2 * 10.0 ** (-snr_db / 10.0))
    scaled = b * scale
    return Waveform(a + scaled), Waveform(scaled)


def _scaled_sources(mix_spec: MixtureSpec) -> list:
    """Synthesize and SNR-scale all sources; rescale together if the sum
    would clip."""
    sources = [synth_source(s) for s in mix_spec.sources]
    scaled = [sources[0].samples]
    for extra in sources[1:]:
        _, s2 = mix_at_snr(sources[0], extra, mix_spec.snr_db)
        scaled.append(s2.samples)
    peak = np.abs(np.sum(scaled, axis=0)).max()
    if peak > 0.99:
        scaled = [s * (0.99 / peak) for s in scaled]
    return [Waveform(s) for s in scaled]


def render_mixture(mix_spec: MixtureSpec) -> tuple:
    """Realize a mixture spec as ``(mixture, [sources])``.

    The mixture is the literal float sum of the returned sources, so
    additivity holds exactly.
    """
    sources = _scaled_sources(mix_spec)
    total = np.zeros(len(sources[0]))
    for s in sources:
        total = total + s.samples
    return Waveform(total), sources


def build_manifest(
    split: str,
    n_mixtures: int,
    speakers=(2,),
    seed: int = 0,
    duration: float = 2.0,
) -> DatasetManifest:
    """Draw mixture specs for one split.

    ``speakers`` lists the allowed source counts; each mixture picks one
    uniformly.  Fundamentals are drawn log-uniform in [90, 360] Hz with
    every pairwise ratio >= 1.25 so the sources stay spectrally distinct.
    """
    speakers = tuple(int(c) for c in (speakers if hasattr(speakers, "__iter__") else [speakers]))
    if any(not (1 <= c <= 3) for c in speakers):
        raise ValueError("speaker counts must lie in 1..3")
    rng = np.random.default_rng(np.random.SeedSequence([seed, *split.encode()]))
    mixtures = []
    for _ in range(n_mixtures):
        c = int(rng.choice(speakers))
        f0s = _distinct_f0s(rng, c)
        specs = tuple(
            SourceSpec(
                f0=round(float(f0), 3),
                n_harmonics=int(min(8, 3800 // f0)),
                am_rate=round(float(rng.uniform(1.5, 6.0)), 3),
                duration=duration,
                seed=int(rng.integers(2**31)),
            )
            for f0 in f0s
        )
        mixtures.append(
            MixtureSpec(
                sources=specs,
                snr_db=round(float(rng.uniform(0.0, 5.0)), 4),
                seed=int(rng.integers(2**31)),
            )
        )
    return DatasetManifest(split=split, mixtures=mixtures, seed=seed)


def _distinct_f0s(rng, c: int) -> np.ndarray:
    """Log-uniform fundamentals with pairwise ratio >= 1.25."""
    while True:
        f0s = np.exp(rng.uniform(np.log(90.0), np.log(360.0), size=c))
        ordered = np.sort(f0s)
        if c == 1 or np.all(ordered[1:] / ordered[:-1] >= 1.25):
            return f0s


def generate_dataset(manifest: DatasetManifest, out_dir) -> Path:
    """Write mixture and reference WAVs plus a JSON-lines index.

    Regenerating from the same manifest produces byte-identical files.
    Returns the index path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index_path = out / "index.jsonl"
    rows = []
    for i, mix_spec in enumerate(manifest.mixtures):
        mixture, sources = render_mixture(mix_spec)
        stem = f"{manifest.split}_{i:05d}"
        mix_name = f"{stem}_mix.wav"
        wav_write(mixture, out / mix_name)
        src_names = []
        for j, src in enumerate(sources):
            name = f"{stem}_src{j}.wav"
            wav_write(src, out / name)
            src_names.append(name)
        rows.append(
            {
                "mixture_path": mix_name,
                "source_paths": src_names,
                "C": len(sources),
                "snr_db": mix_spec.snr_db,
                "seed": mix_spec.seed,
            }
        )
    with open(index_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return index_path


def load_index(index_path) -> list:
    """Read a dataset index back as a list of dicts with resolved paths.

    Each non-blank line must be a JSON object with a string
    ``mixture_path`` and a non-empty list of strings ``source_paths``; any
    other line raises ValueError naming the file, the line and the field.
    """
    index_path = Path(index_path)
    base = index_path.parent
    rows = []
    with open(index_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{index_path}:{lineno}"
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{where}: not valid JSON ({exc})") from None
            if not isinstance(row, dict):
                raise ValueError(f"{where}: row is not a JSON object")
            if not isinstance(row.get("mixture_path"), str):
                raise ValueError(f"{where}: field 'mixture_path' is missing "
                                 "or not a string")
            srcs = row.get("source_paths")
            if not (isinstance(srcs, list) and srcs
                    and all(isinstance(p, str) for p in srcs)):
                raise ValueError(f"{where}: field 'source_paths' is missing "
                                 "or not a non-empty list of strings")
            row["mixture_path"] = base / row["mixture_path"]
            row["source_paths"] = [base / p for p in srcs]
            rows.append(row)
    return rows
