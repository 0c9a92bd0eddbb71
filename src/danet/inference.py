"""Test-phase attractor strategies and the end-to-end separation pipeline.

Attractors for a mixture can come from three places: clustering the
embeddings (k-means), a fixed table averaged over training, or anchored
subset selection.  Whichever way they are found, mask generation and
signal reconstruction are identical.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .adanet import select_attractor_set
from .attractor import estimate_masks, similarity_scores, threshold_vector
from .dsp import Waveform, flatten_tf, log_magnitude, reconstruct, stft
from .nn import EmbedNet

__all__ = [
    "KMeansStrategy",
    "FixedStrategy",
    "AnchoredStrategy",
    "KMeansResult",
    "kmeans",
    "fixed_attractors",
    "embed_mixture",
    "separate",
    "PcaProjection",
    "pca_project",
]


@dataclass(frozen=True)
class KMeansStrategy:
    seed: int = 0


@dataclass(frozen=True)
class FixedStrategy:
    attractors: np.ndarray  # C_max x K table computed during training


@dataclass(frozen=True)
class AnchoredStrategy:
    pass


@dataclass
class KMeansResult:
    centers: np.ndarray       # C x K
    labels: np.ndarray        # length FT, every bin assigned to a center
    inertia: float            # final within-cluster squared distance (retained bins)
    history: list             # inertia after each assignment pass


def _nearest(d: np.ndarray, label: np.ndarray, least: np.ndarray) -> None:
    """Write the row index and value of each column's minimum of a C x n array.

    Equal to ``d.argmin(axis=0)`` and ``d.min(axis=0)`` on finite input,
    the first row winning ties.  At C = 2 that is one comparison and one
    minimum, written straight into ``label`` and ``least``.
    """
    second = d[min(1, len(d) - 1)]  # C = 1 compares row 0 with itself
    np.less(second, d[0], out=label)
    np.minimum(d[0], second, out=least)
    for k in range(2, len(d)):
        label[d[k] < least] = k
        np.minimum(least, d[k], out=least)


# Bytes of retained points one Lloyd pass reads at a time.  A block of
# columns stays in a 2 MB L2 cache while its distances and labels (and,
# in the first pass, its cluster sums) are formed, so each pass streams
# the points from memory once, and then reads again only the few whose
# label changed.
_BLOCK_BYTES = 1 << 20


def kmeans(v: np.ndarray, c: int, w: np.ndarray, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding on the retained embeddings.

    Only columns with w=1 participate in fitting; afterwards every bin is
    assigned to its nearest center.  Stops when the relative inertia
    change drops below 1e-6 or after 100 iterations; empty clusters are
    re-seeded to the point farthest from its assigned center.
    Squared distances use the expanded form |p|^2 - 2 c.p + |c|^2, one
    matrix product with -2c per block of points, clamped at 0 against
    rounding below zero.  The cluster sums and counts are carried from
    pass to pass: the first pass adds every point, a block at a time, and
    each later pass moves only the points whose label changed, in one
    small product.
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w).reshape(-1)
    if w.size != v.shape[1]:
        raise ValueError(f"w has {w.size} entries for {v.shape[1]} bins")
    keep = w > 0
    fresh = ~keep                         # bins the loop does not label
    points = np.compress(keep, v, axis=1)  # K x n, contiguous
    k, n = points.shape
    if n < c:
        raise ValueError(f"only {n} retained bins for C={c} clusters")
    sq_norms = np.einsum("kn,kn->n", points, points)
    rng = np.random.default_rng(seed)

    def scaled(centers: np.ndarray) -> tuple:
        """-2 c (exact: a power of two) and |c|^2 as a column."""
        return -2.0 * centers, np.einsum("ck,ck->c", centers, centers)[:, None]

    def sq_dists(minus_twice, sq_centers, cols=slice(None)) -> np.ndarray:
        """Squared distances, centers (C,K) x points[:, cols] -> (C,cols)."""
        d2 = minus_twice @ points[:, cols]
        d2 += sq_norms[cols]
        d2 += sq_centers
        return np.maximum(d2, 0.0, out=d2)

    # k-means++ seeding: each centre is drawn by its squared distance to
    # the nearest centre drawn before it
    centers = np.empty((c, k))
    centers[0] = points[:, rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, c):
        np.minimum(closest, sq_dists(*scaled(centers[j - 1 : j]))[0], out=closest)
        total = closest.sum()
        if total > 0:
            probs = closest / total
            centers[j] = points[:, rng.choice(n, p=probs)]
        else:
            centers[j] = points[:, rng.integers(n)]

    history = []
    prev = None
    width = max(1, _BLOCK_BYTES // (8 * k))
    cluster_ids = np.arange(c)[:, None]
    labels = np.empty(n, dtype=np.min_scalar_type(c))
    before = np.empty_like(labels)        # the labels of the last pass
    assigned = np.empty(n)                # squared distance to own centre
    counts = np.zeros(c)
    sums = np.zeros((c, k))
    for _ in range(100):
        labels, before = before, labels
        minus_twice, sq_centers = scaled(centers)
        for start in range(0, n, width):
            cols = slice(start, start + width)
            label = labels[cols]
            _nearest(sq_dists(minus_twice, sq_centers, cols), label, assigned[cols])
            if not history:               # the first pass adds every point
                members = (label == cluster_ids).astype(np.float64)
                counts += members.sum(axis=1)
                sums += members @ points[:, cols].T
        if history:
            # later passes move the points whose label changed: +1 in the
            # row of the new cluster, -1 in the row of the old
            moved = np.flatnonzero(labels != before)
            change = (labels[moved] == cluster_ids).astype(np.float64)
            change -= before[moved] == cluster_ids
            counts += change.sum(axis=1)
            sums += change @ points.take(moved, axis=1).T
        inertia = float(assigned.sum())
        history.append(inertia)
        if inertia == 0.0:
            break
        if prev is not None and prev - inertia <= 1e-6 * prev:
            break
        prev = inertia
        filled = counts > 0
        np.divide(sums, counts[:, None], out=centers, where=filled[:, None])
        if not filled.all():
            sums[~filled] = 0.0           # not the rounding its moves left
            centers[~filled] = points[:, int(assigned.argmax())]
    else:
        # the centres moved after the last labels: relabel every bin
        fresh = np.ones_like(keep)

    # Stopped by the rule, the loop labelled the retained bins with the
    # final centres.  |p|^2 is the same for every center, so it cannot
    # change the argmin.
    out = np.empty(v.shape[1], dtype=np.intp)
    out[keep] = labels
    near = np.einsum("ck,ck->c", centers, centers)[:, None] - 2.0 * (centers @ v[:, fresh])
    out[fresh] = near.argmin(axis=0)
    return KMeansResult(centers, out, history[-1], history)


def fixed_attractors(training_attractors: list) -> np.ndarray:
    """Average attractor sets from many mixtures into one fixed table.

    Later sets are aligned to the running mean by the row permutation
    minimizing total squared distance (exhaustive over C! orders), so
    consistent speaker roles line up before averaging.
    """
    sets = [np.asarray(a, dtype=np.float64) for a in training_attractors]
    if not sets:
        raise ValueError("no attractor sets to average")
    shape = sets[0].shape
    if any(s.shape != shape for s in sets):
        raise ValueError("attractor sets disagree in shape")
    c = shape[0]
    mean = sets[0].copy()
    for count, current in enumerate(sets[1:], start=2):
        best_perm, best_cost = None, None
        for perm in permutations(range(c)):
            cost = float(np.sum((current[list(perm)] - mean) ** 2))
            if best_cost is None or cost < best_cost:
                best_perm, best_cost = perm, cost
        aligned = current[list(best_perm)]
        mean += (aligned - mean) / count
    return mean


def embed_mixture(net: EmbedNet, mixture: Waveform, q: float = 0.9) -> tuple:
    """The front end of separation: ``(spec, v, w)`` for one mixture.

    ``spec`` is the mixture STFT, ``v`` the K x FT embeddings of its
    log-magnitude, and ``w`` the threshold vector keeping the loudest
    fraction ``q`` of its bins.
    """
    spec = stft(mixture)
    mag = np.abs(spec)
    v = net.embed(log_magnitude(mag))
    return spec, v, threshold_vector(flatten_tf(mag), q)


def separate(
    net: EmbedNet,
    mixture: Waveform,
    c: int,
    strategy,
    q: float = 0.9,
) -> list:
    """Separate a mixture into C estimated source waveforms.

    Pipeline: STFT -> log-magnitude -> embeddings -> attractors (per the
    strategy) -> masks -> masked reconstruction with the mixture phase.
    """
    if c < 1:
        raise ValueError("need at least one source")
    spec, v, w = embed_mixture(net, mixture, q)
    if isinstance(strategy, KMeansStrategy):
        attractors = kmeans(v, c, w, seed=strategy.seed).centers
    elif isinstance(strategy, FixedStrategy):
        table = np.asarray(strategy.attractors, dtype=np.float64)
        if table.shape[0] != c:
            raise ValueError(
                f"fixed attractor table has {table.shape[0]} rows, requested C={c}"
            )
        attractors = table
    elif isinstance(strategy, AnchoredStrategy):
        if net.n_anchors == 0:
            raise ValueError("anchored strategy requires a model with anchors")
        if c > net.n_anchors:
            raise ValueError(f"C={c} exceeds the {net.n_anchors} anchors")
        attractors = select_attractor_set(net.anchors, v, w, c).attractors
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")

    d = similarity_scores(attractors, v)
    est_masks = estimate_masks(d, net.config.mask_nl)
    return reconstruct(est_masks, spec)


@dataclass
class PcaProjection:
    coords: np.ndarray       # dims x FT projected coordinates
    explained: np.ndarray    # fraction of total variance per component
    components: np.ndarray   # dims x K orthonormal basis rows
    mean: np.ndarray         # K, column mean removed before projection

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project extra K-dim row vectors (e.g. attractors) into the basis."""
        return (np.atleast_2d(points) - self.mean) @ self.components.T


def pca_project(v: np.ndarray, dims: int = 3) -> PcaProjection:
    """Principal components of the embedding columns.

    The components are the leading eigenvectors of the K x K covariance,
    ordered by eigenvalue, each signed so that its largest-magnitude
    entry is positive.
    """
    v = np.asarray(v, dtype=np.float64)
    k, n = v.shape
    if not (1 <= dims <= k):
        raise ValueError(f"dims must lie in [1, {k}]")
    if n < dims:
        raise ValueError("need at least as many columns as components")
    mean = v.mean(axis=1)
    centered = v - mean[:, None]
    cov = (centered @ centered.T) / n
    total = float(np.trace(cov))
    eigvals, vecs = np.linalg.eigh(cov)           # ascending
    eigvals = eigvals[::-1][:dims]
    components = vecs[:, ::-1][:, :dims].T
    peak = components[np.arange(dims), np.abs(components).argmax(axis=1)]
    components = components * np.where(peak < 0, -1.0, 1.0)[:, None]
    explained = eigvals / total if total > 0 else np.zeros(dims)
    return PcaProjection(components @ centered, explained, components, mean)
