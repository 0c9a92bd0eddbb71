"""Anchored attractor machinery: subsets, assignments, selection, PIT."""

from itertools import combinations, permutations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet import adanet
from danet.adanet import (
    assignments_from_anchors,
    detect_active_sources,
    enumerate_subsets,
    pit_loss,
    select_attractor_set,
)
from danet.attractor import (
    estimate_masks,
    form_attractors,
    reconstruction_loss,
    similarity_scores,
    threshold_vector,
)
from danet.dsp import Waveform, flatten_tf, log_magnitude
from danet.masks import wfm
from danet.nn import AdamState, EmbedNet, EmbedNetConfig
from danet.training import train_step, training_loss

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


class TestEnumerateSubsets:
    def test_six_choose_two(self):
        subsets = enumerate_subsets(6, 2)
        assert len(subsets) == 15
        assert subsets[0] == (0, 1)

    def test_full_subset(self):
        assert enumerate_subsets(6, 6) == [(0, 1, 2, 3, 4, 5)]

    def test_four_choose_three(self):
        assert enumerate_subsets(4, 3) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_c_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subsets(3, 4)


class TestAssignments:
    def test_identical_anchors_give_uniform_assignment(self):
        v = np.random.default_rng(0).standard_normal((4, 20))
        anchors = np.tile(np.ones((1, 4)), (3, 1))
        np.testing.assert_allclose(assignments_from_anchors(anchors, v), 1 / 3)

    def test_dominant_anchor_saturates(self):
        v = np.ones((4, 5))
        anchors = np.zeros((2, 4))
        anchors[0] = 3.0  # dot product 12 vs 0
        y = assignments_from_anchors(anchors, v)
        assert np.all(y[0] > 0.9999)

    def test_matches_explicit_softmax_oracle(self):
        rng = np.random.default_rng(1)
        anchors = rng.standard_normal((3, 5))
        v = rng.standard_normal((5, 30))
        y = assignments_from_anchors(anchors, v)
        for ft in range(30):
            scores = np.array([np.dot(anchors[i], v[:, ft]) for i in range(3)])
            e = np.exp(scores - scores.max())
            np.testing.assert_allclose(y[:, ft], e / e.sum(), atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        y = assignments_from_anchors(rng.standard_normal((3, 6)),
                                     rng.standard_normal((6, 40)) * 5)
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-9)


def brute_force_selection(anchors, v, w, c):
    """Independent re-implementation of the subset contest: the winner's
    index, every subset's score (inf for an empty source), the winner's
    attractors, and every subset's largest squared attractor norm (which
    bounds its score; 0 for an empty source)."""
    best_idx, best_sim, best_a = None, None, None
    sims, scales = [], []
    for p, subset in enumerate(combinations(range(anchors.shape[0]), c)):
        sub = anchors[list(subset)]
        d = sub @ v
        e = np.exp(d - d.max(axis=0, keepdims=True))
        y = e / e.sum(axis=0, keepdims=True)
        weights = y * w[None, :]
        mass = weights.sum(axis=1, keepdims=True)
        if np.any(mass <= 0):
            sims.append(np.inf)
            scales.append(0.0)
            continue
        a = (weights @ v.T) / mass
        gram = a @ a.T
        scales.append(float(np.max(np.diag(gram))))
        sim = 0.0
        if c > 1:
            sim = max(gram[i, j] for i in range(c) for j in range(c) if i != j)
        sims.append(sim)
        if best_sim is None or sim < best_sim:
            best_idx, best_sim, best_a = p, sim, a
    return best_idx, sims, best_a, scales


def assert_scores_close(got, want, scales):
    """Scores agree to 1e-12 of their attractors' scale.  A score is a dot
    product of two attractors; one near zero is a cancelled sum, so its
    rounding is relative to the attractor norms, not to itself."""
    got, want = np.array(got), np.array(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    tol = 1e-12 * np.maximum(np.abs(want[finite]), np.array(scales)[finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= tol)


def rebuilt_attractors(anchors, v, w, subset):
    """The winner's attractors as one subset's own computation gives them."""
    return form_attractors(v, assignments_from_anchors(anchors[list(subset)], v), w)


class TestSelectAttractorSet:
    def test_prefers_orthogonal_pair(self):
        # anchors 0/1 produce near-orthogonal attractors, anchors 2/3 are
        # nearly identical: the orthogonal pair must win
        v = np.eye(4)[:, [0, 1, 2, 3] * 3]  # embeddings along the axes
        anchors = np.array(
            [[9.0, 0, 0, 0], [0, 9.0, 0, 0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.01]]
        )
        choice = select_attractor_set(anchors, v, np.ones(12), 2)
        assert choice.subset == (0, 1)

    def test_c2_similarity_is_single_offdiagonal(self):
        rng = np.random.default_rng(3)
        anchors = rng.standard_normal((4, 4))
        v = rng.standard_normal((4, 25))
        w = np.ones(25)
        choice = select_attractor_set(anchors, v, w, 2)
        y = assignments_from_anchors(anchors[list(choice.subset)], v)
        a = form_attractors(v, y, w)
        np.testing.assert_allclose(choice.similarities[choice.subset_index],
                                   np.dot(a[0], a[1]), atol=1e-10)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            c = int(rng.integers(1, min(3, n) + 1))
            k = int(rng.integers(2, 9))
            ft = int(rng.integers(c + 1, 60))
            anchors = rng.standard_normal((n, k))
            v = rng.standard_normal((k, ft))
            w = (rng.uniform(0, 1, ft) > 0.2).astype(float)
            w[0] = 1.0
            choice = select_attractor_set(anchors, v, w, c)
            idx, _, a, _ = brute_force_selection(anchors, v, w, c)
            assert choice.subset_index == idx
            np.testing.assert_allclose(choice.attractors, a, atol=1e-10)

    def test_c_exceeding_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            select_attractor_set(np.ones((2, 3)), np.ones((3, 5)), np.ones(5), 3)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 7),
        c_frac=st.floats(0.0, 1.0),
        k=st.integers(1, 8),
        ft=st.integers(1, 300),
        block_frac=st.floats(0.0, 1.0),
        keep=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_brute_force(self, n, c_frac, k, ft, block_frac, keep, seed):
        # blocks of any width from one bin to all of them, so the last
        # block is often partial
        c = 1 + int(c_frac * (n - 1))
        bins_per_block = 1 + int(block_frac * (ft - 1))
        rng = np.random.default_rng(seed)
        anchors = rng.standard_normal((n, k)) * rng.uniform(0.1, 5.0)
        v = np.tanh(rng.standard_normal((k, ft)))
        w = (rng.uniform(size=ft) < keep).astype(float)
        w[rng.integers(ft)] = 1.0
        block_bytes = bins_per_block * 8 * comb(n, c) * c
        with mock.patch.object(adanet, "_BLOCK_BYTES", block_bytes):
            choice = select_attractor_set(anchors, v, w, c)
        idx, sims, _, scales = brute_force_selection(anchors, v, w, c)
        assert choice.subset_index == idx
        assert choice.subset == enumerate_subsets(n, c)[idx]
        np.testing.assert_array_equal(choice.attractors,
                                      rebuilt_attractors(anchors, v, w, choice.subset))
        assert all(type(s) is float for s in choice.similarities)
        assert_scores_close(choice.similarities, sims, scales)

    def test_several_cache_blocks_match_brute_force(self):
        # 56 subsets of 3 over 2,000 bins: blocks of 780, 780 and 440 bins
        rng = np.random.default_rng(17)
        anchors = rng.standard_normal((8, 5))
        v = np.tanh(rng.standard_normal((5, 2000)))
        w = (rng.uniform(size=2000) > 0.1).astype(float)
        assert adanet._BLOCK_BYTES // (8 * 56 * 3) == 780
        choice = select_attractor_set(anchors, v, w, 3)
        idx, sims, _, scales = brute_force_selection(anchors, v, w, 3)
        assert choice.subset_index == idx
        np.testing.assert_array_equal(choice.attractors,
                                      rebuilt_attractors(anchors, v, w, choice.subset))
        assert_scores_close(choice.similarities, sims, scales)

    def test_single_source_scores_zero_and_first_wins(self):
        rng = np.random.default_rng(18)
        anchors = rng.standard_normal((4, 3))
        v = rng.standard_normal((3, 30))
        choice = select_attractor_set(anchors, v, np.ones(30), 1)
        assert choice.similarities == [0.0] * 4
        assert (choice.subset_index, choice.subset) == (0, (0,))
        np.testing.assert_array_equal(choice.attractors,
                                      rebuilt_attractors(anchors, v, np.ones(30), (0,)))

    def test_every_anchor_is_one_subset(self):
        rng = np.random.default_rng(19)
        anchors = rng.standard_normal((3, 4))
        v = rng.standard_normal((4, 40))
        choice = select_attractor_set(anchors, v, np.ones(40), 3)
        assert (choice.subset_index, choice.subset) == (0, (0, 1, 2))
        assert len(choice.similarities) == 1
        a = rebuilt_attractors(anchors, v, np.ones(40), (0, 1, 2))
        np.testing.assert_array_equal(choice.attractors, a)
        gram = a @ a.T
        assert choice.similarities[0] == pytest.approx(
            max(gram[0, 1], gram[0, 2], gram[1, 2]), rel=1e-12)

    def test_source_underflowing_to_zero_mass_scores_inf(self):
        # anchor 1 sits 999+ below anchors 0 and 2 at every bin: its
        # softmax share underflows to exactly 0, so subsets holding it
        # leave a source empty
        v = np.tile([[1.0], [0.0]], (1, 10))
        anchors = np.array([[1000.0, 0.0], [0.0, 0.0], [999.0, 0.0]])
        choice = select_attractor_set(anchors, v, np.ones(10), 2)
        assert choice.similarities[0] == np.inf
        assert choice.similarities[2] == np.inf
        assert np.isfinite(choice.similarities[1])
        assert (choice.subset_index, choice.subset) == (1, (0, 2))

    def test_every_subset_empty_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match="every anchor subset left a source empty"):
            select_attractor_set(rng.standard_normal((4, 3)),
                                 rng.standard_normal((3, 12)), np.zeros(12), 2)

    def test_nan_embedding_column_rejected(self):
        # every subset's score is NaN, so none may win
        rng = np.random.default_rng(21)
        v = rng.standard_normal((3, 12))
        v[:, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            select_attractor_set(rng.standard_normal((4, 3)), v, np.ones(12), 2)

    def test_nan_anchor_never_wins(self):
        # anchor 0 is in the lowest-indexed subsets; their NaN scores lose
        rng = np.random.default_rng(22)
        anchors = rng.standard_normal((5, 3))
        anchors[0] = np.nan
        v = rng.standard_normal((3, 20))
        choice = select_attractor_set(anchors, v, np.ones(20), 2)
        sims = np.array(choice.similarities)
        holds_nan = [0 in s for s in enumerate_subsets(5, 2)]
        assert np.all(np.isnan(sims[holds_nan]))
        assert 0 not in choice.subset
        assert sims[choice.subset_index] == sims[~np.array(holds_nan)].min()
        assert np.all(np.isfinite(choice.attractors))


class TestPitLoss:
    def test_swap_wins_when_cheaper(self):
        x = np.ones(4)
        targets = np.stack([np.zeros(4), np.ones(4)])
        estimates = np.stack([np.full(4, 0.9), np.full(4, 0.1)])
        loss, perm = pit_loss(x, targets, estimates)
        assert perm == (1, 0)
        identity = reconstruction_loss(x, targets, estimates)
        assert loss < identity

    def test_identical_targets_tie_to_identity(self):
        x = np.ones(5)
        targets = np.tile(np.full(5, 0.5), (2, 1))
        estimates = np.stack([np.full(5, 0.2), np.full(5, 0.8)])
        _, perm = pit_loss(x, targets, estimates)
        assert perm == (0, 1)

    def test_c3_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 12)
        targets = rng.uniform(0, 1, (3, 12))
        estimates = rng.uniform(0, 1, (3, 12))
        loss, perm = pit_loss(x, targets, estimates)
        best = None
        for cand in permutations(range(3)):
            val = np.mean(
                [np.sum((x * (targets[cand[i]] - estimates[i])) ** 2) for i in range(3)]
            )
            if best is None or val < best[0]:
                best = (val, cand)
        # our perm maps targets to estimate slots; the enumeration above maps
        # estimate slots to targets, so invert before comparing
        assert perm == tuple(np.argsort(best[1]))
        np.testing.assert_allclose(loss, best[0], atol=1e-12)

    def test_never_exceeds_identity_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(0, 1, 9)
            targets = rng.uniform(0, 1, (3, 9))
            estimates = rng.uniform(0, 1, (3, 9))
            loss, _ = pit_loss(x, targets, estimates)
            assert loss <= reconstruction_loss(x, targets, estimates) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), ft=st.integers(1, 60), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_invariant_to_target_order(self, c, ft, data, seed):
        # targets reordered by sigma: same loss, and target i now pairs
        # with the estimate that target sigma[i] paired with before
        sigma = data.draw(st.permutations(range(c)))
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, ft)
        targets = rng.uniform(0, 1, (c, ft))
        estimates = rng.uniform(0, 1, (c, ft))
        loss, perm = pit_loss(x, targets, estimates)
        loss_p, perm_p = pit_loss(x, targets[list(sigma)], estimates)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert perm_p == tuple(perm[s] for s in sigma)

    def test_zero_target_pairs_with_quietest_estimate(self):
        # 3-slot outputs for a 2-source mixture: the all-zero auxiliary
        # target must be matched to the near-silent estimate
        rng = np.random.default_rng(7)
        x = np.ones(10)
        real = rng.uniform(0.4, 1.0, (2, 10))
        targets = np.vstack([real, np.zeros((1, 10))])
        estimates = np.vstack([real + 0.01, np.full((1, 10), 1e-3)])
        _, perm = pit_loss(x, targets, estimates)
        assert perm[2] == 2  # zero target -> quietest estimate


class TestDetectActiveSources:
    def _waves(self, scales):
        rng = np.random.default_rng(8)
        base = rng.standard_normal(200)
        return [Waveform(base * s, 8000) for s in scales]

    def test_thirty_db_gap_discards_third(self):
        powers = self._waves([1.0, 1.0, np.sqrt(1e-3)])
        assert detect_active_sources(powers) == [0, 1]

    def test_all_equal_all_active(self):
        assert detect_active_sources(self._waves([1.0, 1.0, 1.0])) == [0, 1, 2]

    def test_exact_twenty_db_retained(self):
        assert detect_active_sources(self._waves([1.0, 0.1])) == [0, 1]

    def test_scale_invariance(self):
        waves = self._waves([1.0, 0.5, 0.001])
        scaled = [Waveform(w.samples * 37.0, 8000) for w in waves]
        assert detect_active_sources(waves) == detect_active_sources(scaled)

    def test_all_silent_all_active(self):
        waves = [Waveform(np.zeros(10) + 0.0, 8000) for _ in range(2)]
        assert detect_active_sources(waves) == [0, 1]


def toy_mixture(seed=0, c=2, f=7, t=12):
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.01, 1.0, size=(c, f, t))
    return src.sum(axis=0), src


class TestAdanetTrainStep:
    def test_loss_trends_down_on_fixed_batch(self):
        mix, src = toy_mixture(seed=9)
        net = EmbedNet(TINY, seed=10, n_anchors=6)
        opt = AdamState(lr=1e-3)
        losses = [train_step(net, opt, mix, src, slots=2) for _ in range(200)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_anchors_receive_gradient(self):
        mix, src = toy_mixture(seed=11)
        net = EmbedNet(TINY, seed=12, n_anchors=6)
        before = net.anchors.data.copy()
        train_step(net, AdamState(lr=1e-3), mix, src, slots=2)
        assert not np.array_equal(net.anchors.data, before)

    def test_more_sources_than_slots_rejected(self):
        mix, src = toy_mixture(seed=13, c=3)
        net = EmbedNet(TINY, seed=14, n_anchors=6)
        with pytest.raises(ValueError):
            train_step(net, AdamState(), mix, src, slots=2)

    def test_zero_padded_slot_trains(self):
        # 2 sources under a 3-slot model: the loss is PIT over the winning
        # subset's masks against the two WFM targets plus one all-zero row
        mix, src = toy_mixture(seed=15, c=2)
        net = EmbedNet(TINY, seed=16, n_anchors=6)
        v = net.embed(log_magnitude(mix)).data
        x = flatten_tf(mix)
        w = threshold_vector(x, 0.9)
        choice = select_attractor_set(net.anchors.data, v, w, 3)
        assert len(choice.subset) == 3
        est = estimate_masks(similarity_scores(choice.attractors, v), "softmax")
        targets = np.vstack([wfm(np.stack([flatten_tf(s) for s in src])),
                             np.zeros((1, x.size))])
        expected, perm = pit_loss(x, targets, est)
        assert sorted(perm) == [0, 1, 2]
        assert training_loss(net, mix, src, slots=3).item() == pytest.approx(
            expected, rel=1e-12)
        assert np.isfinite(train_step(net, AdamState(), mix, src, slots=3))
