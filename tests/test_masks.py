"""Oracle mask definitions and their algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.masks import ibm, irm, wfm


class TestIbm:
    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), n=st.integers(0, 40), levels=st.integers(1, 4),
           nans=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_argmax_oracle(self, c, n, levels, nans, seed):
        # few levels give ties; a NaN counts as the largest value, the
        # first one winning, as in np.argmax
        rng = np.random.default_rng(seed)
        mags = rng.integers(0, levels, (c, n)).astype(np.float64)
        if n:
            mags.reshape(-1)[rng.integers(0, c * n, nans)] = np.nan
        want = np.zeros((c, n))
        want[np.argmax(mags, axis=0), np.arange(n)] = 1.0
        np.testing.assert_array_equal(ibm(mags), want)

    def test_dominant_source_wins(self):
        masks = ibm(np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(masks, [[0.0], [1.0]])

    def test_tie_goes_to_lowest_index(self):
        masks = ibm(np.array([[2.0], [2.0]]))
        np.testing.assert_array_equal(masks, [[1.0], [0.0]])

    def test_single_source_all_ones(self):
        masks = ibm(np.ones((1, 5)))
        np.testing.assert_array_equal(masks, np.ones((1, 5)))

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        mags = rng.uniform(0, 1, (3, 40))
        np.testing.assert_array_equal(ibm(mags), ibm(mags * 7.3))

    def test_exactly_one_winner_per_bin(self):
        rng = np.random.default_rng(1)
        masks = ibm(rng.uniform(0, 1, (3, 100)))
        np.testing.assert_array_equal(masks.sum(axis=0), np.ones(100))
        assert set(np.unique(masks)) <= {0.0, 1.0}


class TestIrm:
    def test_ratio(self):
        masks = irm(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(masks, [[3 / 7], [4 / 7]])

    def test_zero_denominator_uniform(self):
        masks = irm(np.zeros((2, 1)))
        np.testing.assert_allclose(masks, [[0.5], [0.5]])

    def test_equal_magnitudes_c4(self):
        masks = irm(np.ones((4, 6)))
        np.testing.assert_allclose(masks, 0.25)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        masks = irm(rng.uniform(0.01, 1, (3, 200)))
        np.testing.assert_allclose(masks.sum(axis=0), 1.0, atol=1e-9)


class TestWfm:
    def test_squared_ratio(self):
        masks = wfm(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(masks, [[9 / 25], [16 / 25]])

    def test_zero_denominator_uniform(self):
        masks = wfm(np.zeros((2, 3)))
        np.testing.assert_allclose(masks, 0.5)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        masks = wfm(rng.uniform(0.01, 1, (3, 200)))
        np.testing.assert_allclose(masks.sum(axis=0), 1.0, atol=1e-9)

    def test_weaker_source_gets_less_than_irm(self):
        # squaring exaggerates dominance, so the weaker source's WFM entry
        # is at most its IRM entry
        rng = np.random.default_rng(4)
        mags = rng.uniform(0.01, 1, (2, 500))
        w = wfm(mags)
        r = irm(mags)
        weaker = mags.argmin(axis=0)
        cols = np.arange(mags.shape[1])
        assert np.all(w[weaker, cols] <= r[weaker, cols] + 1e-12)


    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), n=st.integers(1, 40), zeros=st.floats(0, 1),
           seed=st.integers(0, 2**32 - 1), flat=st.booleans())
    def test_bitwise_the_squared_ratio_spelled_out(self, c, n, zeros, seed, flat):
        # the mask is irm of the squared magnitudes: the same operations in
        # the same order as the formula written out here
        rng = np.random.default_rng(seed)
        mags = rng.uniform(0, 2, (c, n)) * (rng.uniform(0, 1, n) >= zeros)
        if flat:
            mags = mags[0]
        sq = np.atleast_2d(mags) * np.atleast_2d(mags)
        total = sq.sum(axis=0, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.where(total > 0, sq / total, 1.0 / sq.shape[0])
        assert wfm(mags).tobytes() == expected.tobytes()
        assert wfm(mags.tolist()).tobytes() == expected.tobytes()
