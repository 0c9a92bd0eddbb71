"""Attractor formation, similarity masks, and the reconstruction objective.

Every function takes and returns plain arrays; the training loss's
gradient is one closed-form rule in :mod:`danet.training`.

Shapes: embeddings V are K x FT, speaker assignments Y and masks are
C x FT, the threshold vector w and the mixture magnitude x are length FT,
attractors are C x K.
"""

from fractions import Fraction
from math import floor

import numpy as np

__all__ = [
    "threshold_vector",
    "form_attractors",
    "similarity_scores",
    "softmax_parts",
    "estimate_masks",
    "reconstruction_loss",
]


def threshold_vector(mix_mag: np.ndarray, q: float = 0.9) -> np.ndarray:
    """Binary salience filter keeping roughly the top-q fraction of bins.

    The cutoff is the value at index floor((1-q)*FT) of the ascending
    order (found by a partition, not a full sort).  The index is exact,
    with q read as the decimal it prints as (0.9 is 9/10), so at least
    ceil(q*FT) bins are kept; bins >= the cutoff are kept, so ties at the
    cutoff survive.
    """
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")
    mag = np.asarray(mix_mag, dtype=np.float64).reshape(-1)
    idx = floor((1 - Fraction(repr(float(q)))) * mag.size)
    cut = np.partition(mag, idx)[idx]
    return (mag >= cut).astype(np.float64)


def form_attractors(v, y, w):
    """Per-source attractors: the (y_i * w)-weighted mean of embedding columns.

    ``v`` is K x FT, ``y`` is C x FT, ``w`` is length FT.  Raises if a
    source has no weight mass under the threshold.
    """
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    weights = y * w                       # C x FT
    mass = weights.sum(axis=1, keepdims=True)
    if np.any(mass <= 0):
        raise ValueError("empty source under threshold")
    return (weights @ v.T) / mass          # C x K


def similarity_scores(a, v):
    """Dot-product similarity between each attractor and every bin: C x FT."""
    return a @ v


def softmax_parts(d: np.ndarray) -> tuple:
    """The softmax over the rows of ``d`` as ``(e, s)``, the masks being
    ``e / s``: ``e`` is exp of ``d`` less each column's maximum, ``s`` the
    1 x FT column sums of ``e``."""
    e = np.exp(d - d.max(axis=0, keepdims=True))
    return e, e.sum(axis=0, keepdims=True)


def estimate_masks(d: np.ndarray, nl: str = "softmax") -> np.ndarray:
    """Turn similarity scores into masks in [0, 1].

    Softmax normalizes across sources at every bin (masks sum to one);
    sigmoid squashes each score independently.
    """
    if nl == "softmax":
        e, s = softmax_parts(d)
        return e / s
    if nl == "sigmoid":
        upper = 1.0 / (1.0 + np.exp(-np.abs(d)))  # exp(-|d|) never overflows
        return np.where(d >= 0, upper, 1.0 - upper)
    raise ValueError(f"unknown mask nonlinearity: {nl!r}")


def reconstruction_loss(x, target, est):
    """Magnitude-weighted L2 mask error: (1/C) * sum_i ||x * (m_i - m̂_i)||^2."""
    if target.shape != est.shape:
        raise ValueError(
            f"target masks {target.shape} and estimates {est.shape} disagree"
        )
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != est.shape[1]:
        raise ValueError(
            f"mixture length {x.shape[1]} does not match mask width {est.shape[1]}"
        )
    c = est.shape[0]
    weighted = x * (target - est)
    return (weighted * weighted).sum() / c

