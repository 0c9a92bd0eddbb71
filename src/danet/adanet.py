"""Anchored attractor estimation: trainable anchors, subset selection,
permutation-invariant training, and the energy-based source counter.

Anchors replace the oracle speaker assignment: every C-subset of the N
anchor points proposes an assignment, each proposal yields an attractor
set, and the set whose two closest attractors are farthest apart wins.
Because the anchor order carries no speaker identity, the loss is the
minimum over all target permutations.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .attractor import form_attractors
from .autograd import exp, raw
from .dsp import Waveform

__all__ = [
    "enumerate_subsets",
    "assignments_from_anchors",
    "select_attractor_set",
    "SubsetSelection",
    "pit_loss",
    "detect_active_sources",
]


def enumerate_subsets(n: int, c: int) -> list:
    """All C-element index subsets of range(N), in lexicographic order."""
    if not (1 <= c <= n):
        raise ValueError(f"need 1 <= C <= N, got C={c}, N={n}")
    return [tuple(s) for s in combinations(range(n), c)]


def assignments_from_anchors(anchors, v):
    """Soft speaker assignment from anchor similarities: softmax over the
    C rows of (anchors @ v), per bin."""
    d = anchors @ v
    shift = raw(d).max(axis=0, keepdims=True)
    e = exp(d - shift)
    return e / e.sum(axis=0, keepdims=True)


@dataclass
class SubsetSelection:
    """Winner of the in-set-similarity contest over anchor subsets."""

    subset_index: int
    subset: tuple
    attractors: np.ndarray          # C x K
    similarities: list              # max off-diagonal of A_p A_p^T per subset


def select_attractor_set(anchors: np.ndarray, v: np.ndarray, w: np.ndarray,
                         c: int) -> SubsetSelection:
    """Pick the attractor set with minimum in-set similarity.

    For every C-subset of anchors: estimate assignments, form attractors,
    score the set by the largest pairwise attractor dot product, and keep
    the subset minimizing that score (ties to the lowest subset index).
    A subset whose assignment leaves a source without weight mass scores
    inf; with C=1 every score is 0 so the first subset wins.  A score
    that is not finite never wins, and if no subset has a finite score
    the selection raises ``ValueError``.

    Every subset is scored from one ``anchors @ v`` product, a run of
    bins at a time; the winner's attractors are then rebuilt on their
    own, so they equal what :func:`form_attractors` gives for that subset.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    n = anchors.shape[0]
    if c > n:
        raise ValueError(f"C={c} exceeds the {n} available anchors")
    subsets = enumerate_subsets(n, c)
    scores = _subset_scores(anchors @ v, v, w, np.array(subsets))
    finite = np.isfinite(scores)
    if not finite.any():
        if np.all(scores == np.inf):
            raise ValueError("every anchor subset left a source empty under threshold")
        raise ValueError("no anchor subset has a finite similarity score")
    best = int(np.argmin(np.where(finite, scores, np.inf)))
    subset = subsets[best]
    a = form_attractors(v, assignments_from_anchors(anchors[list(subset)], v), w)
    return SubsetSelection(best, subset, a, scores.tolist())


# Bytes of assignment rows scored at once.  A block holds every subset's
# rows over a run of bins, so it and its slice of v stay in a 2 MB L2
# cache; blocks of whole-utterance rows would stream v from memory for
# every block.
_BLOCK_BYTES = 1 << 20


def _subset_scores(d: np.ndarray, v: np.ndarray, w, subsets: np.ndarray) -> np.ndarray:
    """In-set similarity of each subset (row of ``subsets``) of the rows of
    ``d = anchors @ v``; inf where a source gets no weight mass."""
    n_sub, c = subsets.shape
    ft = d.shape[1]
    cols = max(1, _BLOCK_BYTES // (8 * n_sub * c))
    w = np.broadcast_to(np.asarray(w, dtype=np.float64).reshape(-1), (ft,))
    num = np.zeros((n_sub * c, v.shape[0]))               # sum of (y * w) v^T
    mass = np.zeros(n_sub * c)                            # sum of y * w
    # an empty source divides by zero mass; its subset is set to inf below
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, ft, cols):
            bins = slice(start, start + cols)
            y = d[:, bins][subsets]                       # P x C x bins
            y -= y.max(axis=1, keepdims=True)
            np.exp(y, out=y)
            y /= y.sum(axis=1, keepdims=True)
            y *= w[bins]
            y = y.reshape(n_sub * c, -1)
            mass += y.sum(axis=1)
            num += y @ v[:, bins].T
        a = (num / mass[:, None]).reshape(n_sub, c, -1)   # P x C x K
        if c > 1:
            s = (a @ a.transpose(0, 2, 1))[:, ~np.eye(c, dtype=bool)].max(axis=1)
        else:
            s = np.zeros(n_sub)
    s[np.any(mass.reshape(n_sub, c) <= 0, axis=1)] = np.inf
    return s


def pit_loss(x, targets, estimates):
    """Reconstruction loss minimized over all target permutations.

    Returns ``(loss, perm)`` where ``perm[i]`` is the estimate index paired
    with target i; ties go to the lexicographically first permutation.
    Works on arrays or autograd tensors (the returned loss then carries
    the graph of the winning pairing only).
    """
    c = raw(targets).shape[0]
    if raw(estimates).shape[0] != c:
        raise ValueError("targets and estimates must have the same source count")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    # pair_loss[i][j] = || x * (target_i - estimate_j) ||^2
    pair_loss = [
        [((x * (targets[i : i + 1] - estimates[j : j + 1])) ** 2).sum()
         for j in range(c)]
        for i in range(c)
    ]
    best_perm, best_val = None, None
    for perm in permutations(range(c)):
        val = sum(float(raw(pair_loss[i][perm[i]])) for i in range(c)) / c
        if best_val is None or val < best_val:
            best_perm, best_val = perm, val
    total = pair_loss[0][best_perm[0]]
    for i in range(1, c):
        total = total + pair_loss[i][best_perm[i]]
    return total / c, best_perm


def detect_active_sources(estimates: list) -> list:
    """Indices of outputs within 20 dB of the loudest output.

    An output is discarded iff its power is more than 20 dB below the
    maximum; the loudest output is always retained.
    """
    powers = np.array(
        [np.mean(np.square(w.samples if isinstance(w, Waveform) else np.asarray(w)))
         for w in estimates]
    )
    p_max = powers.max()
    if p_max == 0:
        return list(range(len(powers)))
    with np.errstate(divide="ignore"):
        drop_db = 10.0 * np.log10(p_max / powers)
    return [i for i in range(len(powers)) if drop_db[i] <= 20.0]

