"""Output checks computed apart from the package.

Each check restates a definition or a property of the method with plain
numpy and the standard library, so a fault in the package cannot hide
itself by also being in the check.
"""

import csv
import math
import wave
from itertools import combinations, permutations

import numpy as np

# Away from the first and last analysis window the overlap-add is complete,
# so masks that sum to one give back the mixture (square-root Hann, 256/64).
WINDOW = 256
SUM_TOLERANCE = 1e-9


def read_pcm(path) -> np.ndarray:
    """16-bit mono PCM samples of a WAV file, read by the standard library."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono PCM")
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")


def read_samples(path) -> np.ndarray:
    return read_pcm(path).astype(np.float64) / 32768.0


def quantize(x: np.ndarray) -> np.ndarray:
    """16-bit PCM as documented for wav_write: clip to [-1, 1], round half
    away from zero, saturate +1.0 at 32767."""
    x = np.clip(x, -1.0, 1.0)
    q = np.sign(x) * np.floor(np.abs(x) * 32768.0 + 0.5)
    return np.clip(q, -32768, 32767).astype("<i2")


def si_snr(est: np.ndarray, ref: np.ndarray) -> float:
    """10 log10(|s_t|^2 / |e - s_t|^2), s_t the projection of the zero-mean
    estimate e on the zero-mean reference."""
    e = est - est.mean()
    r = ref - ref.mean()
    target = (np.dot(e, r) / np.dot(r, r)) * r
    noise = e - target
    p_noise = np.dot(noise, noise)
    p_target = np.dot(target, target)
    if p_noise == 0.0:
        return math.inf
    if p_target == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_target / p_noise)


def si_snri(ests: list, refs: list, mixture: np.ndarray) -> float:
    """Mean SI-SNR gain over the mixture under the best of all pairings."""
    c = len(refs)
    best = max(
        sum(si_snr(ests[perm[i]], refs[i]) for i in range(c)) / c
        for perm in permutations(range(c))
    )
    return best - sum(si_snr(mixture, r) for r in refs) / c


def sum_error(ests: list, mixture: np.ndarray) -> float:
    """Largest deviation of the summed estimates from the mixture, away
    from the first and last window."""
    n = len(ests[0])
    total = np.sum(ests, axis=0)
    inner = slice(WINDOW, n - WINDOW)
    return float(np.max(np.abs(total[inner] - mixture[:n][inner])))


def kmeans_labels_nearest(v: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> bool:
    """Every bin is labelled with a centre at the least squared distance."""
    d2 = np.stack([((v - centre[:, None]) ** 2).sum(axis=0) for centre in centers])
    chosen = d2[labels, np.arange(d2.shape[1])]
    return bool(np.all(chosen <= d2.min(axis=0) * (1 + 1e-12) + 1e-300))


def subset_scores(anchors: np.ndarray, v: np.ndarray, w: np.ndarray, c: int) -> list:
    """Brute-force in-set similarity of every C-subset of the anchors.

    Assignment: softmax over the subset's anchor similarities per bin.
    Attractors: assignment-and-threshold weighted mean embeddings.  Score:
    the largest dot product between two attractors of the set (0 for one
    attractor); a subset that leaves a source with no weight scores inf.
    """
    scores = []
    for subset in combinations(range(anchors.shape[0]), c):
        d = anchors[list(subset)] @ v
        e = np.exp(d - d.max(axis=0))
        y = e / e.sum(axis=0)
        weights = y * w[None, :]
        mass = weights.sum(axis=1)
        if np.any(mass <= 0):
            scores.append(math.inf)
            continue
        a = (weights @ v.T) / mass[:, None]
        gram = a @ a.T
        scores.append(max((gram[i, j] for i in range(c) for j in range(c) if i != j),
                          default=0.0))
    return scores


def anchored_winner_is_min(anchors, v, w, c, subset_index, tol=1e-9) -> bool:
    """The chosen subset scores lowest among all subsets, up to rounding."""
    scores = subset_scores(np.asarray(anchors), np.asarray(v), np.asarray(w).reshape(-1), c)
    finite = [s for s in scores if s != math.inf]
    return bool(finite) and scores[subset_index] <= min(finite) + tol * max(1.0, abs(min(finite)))


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def training_log_problems(rows: list, best_val_loss) -> list:
    """What is wrong with a training loss log and its checkpoint's best.

    Every loss is finite, the phase column runs from 1 to 2 without going
    back, and the stored best validation loss is the least logged one and
    lies below the first epoch's.
    """
    problems = []
    if not rows:
        return ["empty loss log"]
    for row in rows:
        for key in ("train_loss", "val_loss"):
            if not math.isfinite(float(row[key])):
                problems.append(f"epoch {row['epoch']}: {key} is {row[key]}")
    phases = [int(row["phase"]) for row in rows]
    if phases[0] != 1 or phases[-1] != 2 or any(b < a for a, b in zip(phases, phases[1:])):
        problems.append(f"phase column {phases} does not run from 1 to 2")
    val = [float(row["val_loss"]) for row in rows]
    if best_val_loss != min(val):
        problems.append(f"best_val_loss {best_val_loss!r} is not the logged minimum {min(val)!r}")
    if not best_val_loss < val[0]:
        problems.append(f"best_val_loss {best_val_loss!r} is not below epoch 1's {val[0]!r}")
    return problems
