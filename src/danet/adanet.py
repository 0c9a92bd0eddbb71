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
    Subsets whose assignment leaves a source without weight mass are
    skipped; with C=1 every score is 0 so the first subset wins.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    n = anchors.shape[0]
    if c > n:
        raise ValueError(f"C={c} exceeds the {n} available anchors")
    subsets = enumerate_subsets(n, c)
    sims = []
    best = None
    for p, subset in enumerate(subsets):
        y_hat = assignments_from_anchors(anchors[list(subset)], v)
        try:
            a = form_attractors(v, y_hat, w)
        except ValueError:
            sims.append(np.inf)
            continue
        gram = a @ a.T
        if c > 1:
            s_p = float(np.max(gram[~np.eye(c, dtype=bool)]))
        else:
            s_p = 0.0
        sims.append(s_p)
        if best is None or s_p < sims[best[0]]:
            best = (p, subset, a)
    if best is None:
        raise ValueError("every anchor subset left a source empty under threshold")
    return SubsetSelection(*best, sims)


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

