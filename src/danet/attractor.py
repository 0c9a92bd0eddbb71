"""Attractor formation, similarity masks, and the reconstruction objective.

The formulas here are written once and accept either plain ndarrays or
autograd tensors: numeric callers (inference, tests, subset selection) pass
arrays, the training loss passes tensors and gets a differentiable graph.

Shapes: embeddings V are K x FT, speaker assignments Y and masks are
C x FT, the threshold vector w and the mixture magnitude x are length FT,
attractors are C x K.
"""

from fractions import Fraction
from math import floor

import numpy as np

from .autograd import exp, raw, sigmoid

__all__ = [
    "threshold_vector",
    "form_attractors",
    "similarity_scores",
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
    if np.any(raw(mass) <= 0):
        raise ValueError("empty source under threshold")
    return (weights @ v.T) / mass          # C x K


def similarity_scores(a, v):
    """Dot-product similarity between each attractor and every bin: C x FT."""
    return a @ v


def estimate_masks(d, nl: str = "softmax"):
    """Turn similarity scores into masks in [0, 1].

    Softmax normalizes across sources at every bin (masks sum to one);
    sigmoid squashes each score independently.
    """
    if nl == "softmax":
        shift = raw(d).max(axis=0, keepdims=True)  # constant shift, gradient-exact
        e = exp(d - shift)
        return e / e.sum(axis=0, keepdims=True)
    if nl == "sigmoid":
        return sigmoid(d)
    raise ValueError(f"unknown mask nonlinearity: {nl!r}")


def reconstruction_loss(x, target, est):
    """Magnitude-weighted L2 mask error: (1/C) * sum_i ||x * (m_i - m̂_i)||^2."""
    if raw(target).shape != raw(est).shape:
        raise ValueError(
            f"target masks {raw(target).shape} and estimates {raw(est).shape} disagree"
        )
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != raw(est).shape[1]:
        raise ValueError(
            f"mixture length {x.shape[1]} does not match mask width {raw(est).shape[1]}"
        )
    c = raw(est).shape[0]
    weighted = x * (target - est)
    return (weighted * weighted).sum() / c

