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

from .attractor import estimate_masks, form_attractors
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


def assignments_from_anchors(anchors: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Soft speaker assignment from anchor similarities: softmax over the
    C rows of (anchors @ v), per bin."""
    return estimate_masks(anchors @ v, "softmax")


@dataclass
class SubsetSelection:
    """Winner of the in-set-similarity contest over anchor subsets."""

    subset_index: int
    subset: tuple
    attractors: np.ndarray          # C x K
    similarities: list              # max off-diagonal of A_p A_p^T per subset;
                                    # exact for the subsets rescored


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

    Every subset is first scored fast, from C - 1 weight rows each.  The
    subsets those scores cannot rank -- each within 1e-9 of the least
    (relative to the larger of it and the subset's largest squared
    attractor norm), and each the fast pass cannot resolve (an underflow,
    or a last source under 1e-3 of the mass) -- are then scored exactly,
    each from its own :func:`form_attractors` rebuild, and the least exact
    score wins.  So the winner's score and attractors are what that
    subset's own computation gives; on real inputs only the winner is
    rebuilt.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    n = anchors.shape[0]
    if c > n:
        raise ValueError(f"C={c} exceeds the {n} available anchors")
    subsets = enumerate_subsets(n, c)
    scores, scales = _subset_scores(anchors, v, w, np.array(subsets))
    rescore = np.isnan(scores)
    finite = np.isfinite(scores)
    if finite.any():
        least = int(np.argmin(np.where(finite, scores, np.inf)))
        rescore[least] = True
        if c > 1:  # with C=1 every fast score is exactly 0
            tol = 1e-9 * np.maximum(abs(scores[least]), scales)
            rescore |= np.abs(scores - scores[least]) <= tol
    best, attractors = None, None
    for p in np.flatnonzero(rescore):
        scores[p], a = _exact_score(anchors[list(subsets[p])], v, w)
        if np.isfinite(scores[p]) and (best is None or scores[p] < scores[best]):
            best, attractors = int(p), a
    if best is None:
        if np.all(scores == np.inf):
            raise ValueError("every anchor subset left a source empty under threshold")
        raise ValueError("no anchor subset has a finite similarity score")
    return SubsetSelection(best, subsets[best], attractors, scores.tolist())


def _exact_score(anchors: np.ndarray, v: np.ndarray, w) -> tuple:
    """One subset's score and attractors from its own assignment; inf and
    no attractors if a source is left without weight mass."""
    # its own anchors @ v: rows of the fast pass's product differ in bits
    try:
        a = form_attractors(v, assignments_from_anchors(anchors, v), w)
    except ValueError:                    # a source empty under threshold
        return np.inf, None
    c = a.shape[0]
    return (float((a @ a.T)[~np.eye(c, dtype=bool)].max()) if c > 1 else 0.0), a


# Bytes of a block's exps, denominators and weight rows for every subset
# over a run of bins: it and its slice of v stay well inside a 2 MB L2
# cache (1 MiB ran about 12% slower); whole-utterance rows would stream v
# from memory for every block.
_BLOCK_BYTES = 1 << 19

# Below this a softmax denominator, or a source's weight mass, has lost
# significant bits to the shift shared by all subsets.
_TINY = 2.0 ** -500


def _subset_scores(anchors: np.ndarray, v: np.ndarray, w, subsets: np.ndarray) -> tuple:
    """Fast in-set similarity of each subset (row of ``subsets``) of the
    ``anchors``, and each subset's largest squared attractor norm.  Every
    bin is shifted by its largest anchor similarity, the same for all
    subsets, so it takes one exp per anchor; a product with the subsets'
    0/1 incidence matrix gives the denominators.  Only C - 1 weight rows
    per subset are formed: its shares sum to w, so the last source's
    numerator is ``v @ w`` less theirs, rounded relative to ``sum(w)``.  A
    score is NaN where the subset is not resolved: a denominator or a mass
    fell below ``_TINY``, or the last source's mass below 1e-3 of
    ``sum(w)``, which bounds that amplification at 10^3."""
    n_sub, c = subsets.shape
    n, (k, ft) = anchors.shape[0], v.shape
    per_bin = n + n_sub * c                               # exps, dens, weights
    cols = max(1, _BLOCK_BYTES // (8 * per_bin))
    w = np.broadcast_to(np.asarray(w, dtype=np.float64).reshape(-1), (ft,))
    incidence = (subsets[:, :, None] == np.arange(n)).sum(axis=1, dtype=np.float64)
    num = np.zeros((k, c, n_sub))                         # sum of v (y * w)^T
    shares = np.zeros((n, n_sub))                         # sum of e * w / den
    buf = np.empty(per_bin * min(cols, ft))
    unresolved = np.zeros(n_sub, dtype=bool)
    # an underflowed denominator gives inf and NaN here; its subset is
    # marked unresolved
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, ft, cols):
            vb = v[:, start : start + cols]
            m = vb.shape[1]
            e, den, y = np.split(buf[: per_bin * m], [n * m, (n + n_sub) * m])
            e = np.matmul(anchors, vb, out=e.reshape(n, m))
            e -= np.fmax.reduce(e, axis=0)
            np.exp(e, out=e)                              # N x bins
            den = np.matmul(incidence, e, out=den.reshape(n_sub, m))
            unresolved |= np.fmin.reduce(den, axis=1) < _TINY
            e *= w[start : start + m]
            y = np.take(e, subsets.T[:-1], axis=0, mode="clip",  # no copy of out
                        out=y.reshape(c - 1, n_sub, m))
            shares += e @ np.reciprocal(den, out=den).T
            y *= den
            num[:, :-1] += (vb @ y.reshape(-1, m).T).reshape(k, c - 1, n_sub)
        num[:, -1] = (v @ w)[:, None] - num[:, :-1].sum(axis=1)
        mass = shares[subsets.T, np.arange(n_sub)]        # C x P
        a = (num / mass).transpose(2, 1, 0)               # P x C x K
        gram = a @ a.transpose(0, 2, 1)
    scales = gram.diagonal(axis1=1, axis2=2).max(axis=1)
    s = gram[:, ~np.eye(c, dtype=bool)].max(axis=1) if c > 1 else np.zeros(n_sub)
    unresolved |= np.any(~(mass >= _TINY), axis=0)
    unresolved |= mass[-1] < 1e-3 * w.sum()
    s[unresolved] = np.nan
    return s, scales


def pit_loss(x, targets: np.ndarray, estimates: np.ndarray) -> tuple:
    """Reconstruction loss minimized over all target permutations.

    Returns ``(loss, perm)`` where ``perm[i]`` is the estimate index paired
    with target i; ties go to the lexicographically first permutation.
    The loss is the sum of the winning pairs' errors over C.
    """
    c = targets.shape[0]
    if estimates.shape[0] != c:
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
        val = sum(float(pair_loss[i][perm[i]]) for i in range(c)) / c
        if best_val is None or val < best_val:
            best_perm, best_val = perm, val
    return best_val, best_perm


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

