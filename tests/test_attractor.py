"""Attractor formation, mask estimation, and the training objective."""

from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.attractor import (
    estimate_masks,
    form_attractors,
    reconstruction_loss,
    similarity_scores,
    threshold_vector,
)
from danet.autograd import Tensor
from danet.masks import ibm
from danet.nn import AdamState, EmbedNet, EmbedNetConfig
from danet.training import train_step, training_loss

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


class TestThresholdVector:
    def test_drops_exactly_the_quantile_tail(self):
        mags = np.arange(1.0, 11.0)  # 1..10
        w = threshold_vector(mags, q=0.9)
        assert w.sum() == 9
        assert w[0] == 0  # only the smallest bin dropped

    def test_quantile_oracle_random(self):
        # oracle computes the cut index in exact rational arithmetic
        from fractions import Fraction

        rng = np.random.default_rng(0)
        mags = rng.uniform(0, 1, 500)
        for q in (0.5, 0.75, 0.9):
            w = threshold_vector(mags, q)
            idx = int((1 - Fraction(str(q))) * 500)
            cut = np.sort(mags)[idx]
            np.testing.assert_array_equal(w, (mags >= cut).astype(float))

    def test_q_one_keeps_everything(self):
        assert threshold_vector(np.random.default_rng(1).uniform(0, 1, 64), 1.0).sum() == 64

    def test_all_equal_keeps_everything(self):
        assert threshold_vector(np.full(32, 0.7), 0.9).sum() == 32

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            threshold_vector(np.ones(4), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(ft=st.integers(1, 2000), q_milli=st.integers(1, 1000),
           levels=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_keeps_at_least_the_q_fraction(self, ft, q_milli, levels, seed):
        # q on a 1e-3 grid, as callers write it; few magnitude levels give ties
        rng = np.random.default_rng(seed)
        mags = rng.integers(0, levels, ft) * rng.uniform(0.01, 10.0)
        w = threshold_vector(mags, q_milli / 1000)
        need = ceil(Fraction(q_milli, 1000) * ft)
        assert set(np.unique(w)) <= {0.0, 1.0}
        assert w.sum() >= need
        # a kept bin is never quieter than a dropped one
        if w.sum() < ft:
            assert mags[w == 1].min() > mags[w == 0].max()
        if len(np.unique(mags)) == ft:
            assert w.sum() == need


class TestFormAttractors:
    def test_constant_embeddings_return_the_constant(self):
        v = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 10))
        y = np.ones((1, 10))
        w = np.ones(10)
        np.testing.assert_allclose(form_attractors(v, y, w), [[1, 2, 3]])

    def test_binary_assignment_reduces_to_class_means(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((4, 30))
        labels = rng.integers(0, 2, 30)
        y = np.stack([(labels == i).astype(float) for i in range(2)])
        a = form_attractors(v, y, np.ones(30))
        for i in range(2):
            np.testing.assert_allclose(a[i], v[:, labels == i].mean(axis=1))

    def test_matches_explicit_loop_oracle(self):
        rng = np.random.default_rng(3)
        k, ft, c = 5, 40, 3
        v = rng.standard_normal((k, ft))
        y = rng.uniform(0, 1, (c, ft))
        w = (rng.uniform(0, 1, ft) > 0.3).astype(float)
        a = form_attractors(v, y, w)
        for i in range(c):
            num = np.zeros(k)
            den = 0.0
            for bin_idx in range(ft):
                weight = y[i, bin_idx] * w[bin_idx]
                num += weight * v[:, bin_idx]
                den += weight
            np.testing.assert_allclose(a[i], num / den, atol=1e-10)

    def test_empty_source_raises(self):
        v = np.ones((3, 8))
        y = np.zeros((2, 8))
        y[0] = 1.0
        with pytest.raises(ValueError, match="empty source"):
            form_attractors(v, y, np.ones(8))

    def test_bin_permutation_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 25))
        y = rng.uniform(0, 1, (2, 25))
        w = rng.integers(0, 2, 25).astype(float)
        w[0] = 1.0
        perm = rng.permutation(25)
        a1 = form_attractors(v, y, w)
        a2 = form_attractors(v[:, perm], y[:, perm], w[perm])
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_attractor_in_convex_hull_along_each_axis(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 20))
        y = np.zeros((1, 20))
        y[0, :7] = 1.0
        a = form_attractors(v, y, np.ones(20))[0]
        assert np.all(a >= v[:, :7].min(axis=1) - 1e-12)
        assert np.all(a <= v[:, :7].max(axis=1) + 1e-12)


class TestSimilarityScores:
    def test_basis_attractor_reads_off_embedding_row(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((4, 15))
        a = np.zeros((1, 4))
        a[0, 2] = 1.0
        np.testing.assert_allclose(similarity_scores(a, v)[0], v[2])

    def test_zero_attractor_zero_scores(self):
        v = np.random.default_rng(7).standard_normal((4, 9))
        assert np.all(similarity_scores(np.zeros((2, 4)), v) == 0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 5))
        v = rng.standard_normal((5, 12))
        d = similarity_scores(a, v)
        for i in range(3):
            for ft in range(12):
                assert abs(d[i, ft] - np.dot(a[i], v[:, ft])) < 1e-12


class TestEstimateMasks:
    def test_softmax_uniform_for_equal_scores(self):
        d = np.ones((4, 6))
        np.testing.assert_allclose(estimate_masks(d, "softmax"), 0.25)

    def test_softmax_substitution(self):
        d = np.array([[np.log(2.0)], [0.0]])
        np.testing.assert_allclose(estimate_masks(d, "softmax"), [[2 / 3], [1 / 3]])

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(estimate_masks(np.zeros((2, 3)), "sigmoid"), 0.5)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        m = estimate_masks(rng.standard_normal((3, 50)) * 10, "softmax")
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValueError):
            estimate_masks(np.zeros((1, 1)), "relu")

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 6), ft=st.integers(1, 200),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_softmax_masks_sum_to_one_per_bin(self, c, ft, scale, seed):
        d = np.random.default_rng(seed).standard_normal((c, ft)) * scale
        m = estimate_masks(d, "softmax")
        assert np.all((m >= 0) & (m <= 1))
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-12)


class TestReconstructionLoss:
    def test_zero_when_equal(self):
        m = np.random.default_rng(10).uniform(0, 1, (2, 8))
        assert reconstruction_loss(np.ones(8), m, m) == 0

    def test_hand_computed_value(self):
        x = np.ones(4)
        target = np.full((2, 4), 0.75)
        est = np.full((2, 4), 0.25)
        assert abs(reconstruction_loss(x, target, est) - 1.0) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 10)
        target = rng.uniform(0, 1, (2, 10))
        est0 = rng.uniform(0, 1, (2, 10))
        est = Tensor(est0.copy(), requires_grad=True)
        reconstruction_loss(x, target, est).backward()
        h = 1e-6
        for i in range(2):
            for j in range(10):
                up = est0.copy()
                up[i, j] += h
                down = est0.copy()
                down[i, j] -= h
                fd = (
                    reconstruction_loss(x, target, up)
                    - reconstruction_loss(x, target, down)
                ) / (2 * h)
                assert abs(est.grad[i, j] - fd) < 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            reconstruction_loss(np.ones(4), np.ones((2, 4)), np.ones((3, 4)))


def toy_mixture(seed=0, c=2, f=7, t=12):
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.01, 1.0, size=(c, f, t))
    return src.sum(axis=0), src


class TestDanetTrainStep:
    def test_loss_trends_down_on_fixed_batch(self):
        mix, src = toy_mixture(seed=12)
        net = EmbedNet(TINY, seed=13)
        opt = AdamState(lr=1e-3)
        losses = [train_step(net, opt, mix, src) for _ in range(200)]
        first = np.mean(losses[:20])
        last = np.mean(losses[-20:])
        assert last < first

    def test_assignment_permutation_permutes_masks(self):
        # swapping the rows of Y swaps the attractors and hence the masks
        from danet.dsp import flatten_tf

        mix, src = toy_mixture(seed=14)
        net = EmbedNet(TINY, seed=15)
        v = net.embed(np.log(np.maximum(mix, 1e-8))).data
        src_flat = np.stack([flatten_tf(s) for s in src])
        y = ibm(src_flat)
        w = threshold_vector(flatten_tf(mix), 0.9)
        m1 = estimate_masks(similarity_scores(form_attractors(v, y, w), v), "softmax")
        m2 = estimate_masks(
            similarity_scores(form_attractors(v, y[::-1], w), v), "softmax"
        )
        np.testing.assert_allclose(m1, m2[::-1], atol=1e-12)

    def test_loss_scores_oracle_masks_in_source_order(self):
        # no permutation search: target row i meets mask i even where the
        # swapped pairing scores lower, as it does for this mixture and net
        from danet.adanet import pit_loss
        from danet.dsp import flatten_tf
        from danet.masks import wfm

        mix, src = toy_mixture(seed=48)
        net = EmbedNet(TINY, seed=49)
        v = net.embed(np.log(np.maximum(mix, 1e-8))).data
        src_flat = np.stack([flatten_tf(s) for s in src])
        x = flatten_tf(mix)
        a = form_attractors(v, ibm(src_flat), threshold_vector(x, 0.9))
        est = estimate_masks(similarity_scores(a, v), "softmax")
        expected = reconstruction_loss(x, wfm(src_flat), est)
        best, perm = pit_loss(x, wfm(src_flat), est)
        assert perm == (1, 0) and best < expected
        assert training_loss(net, mix, src, slots=3).item() == expected

    def test_single_source_softmax_mask_is_all_ones(self):
        mix, src = toy_mixture(seed=16, c=1)
        net = EmbedNet(TINY, seed=17)
        opt = AdamState()
        loss = train_step(net, opt, mix, src)
        assert loss < 1e-20  # single-source softmax mask == WFM target == 1
