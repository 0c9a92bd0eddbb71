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
    # One pass along each source row: an argmax down the short source axis
    # strides across whole rows and runs about twice as slow.
    winners = np.zeros(mags.shape[1], dtype=np.intp)
    best = mags[0]
    for i in range(1, mags.shape[0]):
        # only a strictly louder source wins; as in argmax, the first NaN wins
        wins = (mags[i] > best) | (np.isnan(mags[i]) & ~np.isnan(best))
        winners[wins] = i
        best = np.where(wins, mags[i], best)
    return (winners == np.arange(mags.shape[0])[:, None]).astype(np.float64)


def irm(source_mags: np.ndarray) -> np.ndarray:
    """Ideal ratio mask: |s_i| / sum_j |s_j|, uniform 1/C where the mixture
    has no energy."""
    mags = np.atleast_2d(np.asarray(source_mags, dtype=np.float64))
    total = mags.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, mags / total, 1.0 / mags.shape[0])


def wfm(source_mags: np.ndarray) -> np.ndarray:
    """Wiener-filter-like mask: |s_i|^2 / sum_j |s_j|^2, uniform 1/C where
    the mixture has no energy."""
    mags = np.asarray(source_mags, dtype=np.float64)
    return irm(mags * mags)

