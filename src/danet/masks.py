"""Ideal mask oracles (IBM / IRM / WFM).

All functions take and return plain arrays: source magnitudes are C x FT
(one flattened spectrogram row per source), masks are C x FT with entries
in [0, 1].
"""

import numpy as np

__all__ = ["ibm", "irm", "wfm"]


def ibm(source_mags: np.ndarray) -> np.ndarray:
    """Ideal binary mask: 1 where a source strictly dominates, ties to the
    lowest source index."""
    mags = np.atleast_2d(np.asarray(source_mags, dtype=np.float64))
    winners = np.argmax(mags, axis=0)  # argmax takes the first max: low index wins ties
    masks = np.zeros_like(mags)
    masks[winners, np.arange(mags.shape[1])] = 1.0
    return masks


def irm(source_mags: np.ndarray) -> np.ndarray:
    """Ideal ratio mask: |s_i| / sum_j |s_j|, uniform 1/C where the mixture
    has no energy."""
    mags = np.atleast_2d(np.asarray(source_mags, dtype=np.float64))
    total = mags.sum(axis=0, keepdims=True)
    c = mags.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        masks = np.where(total > 0, mags / total, 1.0 / c)
    return masks


def wfm(source_mags: np.ndarray) -> np.ndarray:
    """Wiener-filter-like mask: |s_i|^2 / sum_j |s_j|^2, uniform 1/C where
    the mixture has no energy."""
    mags = np.atleast_2d(np.asarray(source_mags, dtype=np.float64))
    sq = mags * mags
    total = sq.sum(axis=0, keepdims=True)
    c = mags.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        masks = np.where(total > 0, sq / total, 1.0 / c)
    return masks

