"""Anchored attractor machinery: subsets, assignments, selection, PIT."""

from itertools import combinations, permutations

import numpy as np
import pytest

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
    """Independent re-implementation of the subset contest."""
    best_idx, best_sim, best_a = None, None, None
    for p, subset in enumerate(combinations(range(anchors.shape[0]), c)):
        sub = anchors[list(subset)]
        d = sub @ v
        e = np.exp(d - d.max(axis=0, keepdims=True))
        y = e / e.sum(axis=0, keepdims=True)
        weights = y * w[None, :]
        mass = weights.sum(axis=1, keepdims=True)
        if np.any(mass <= 0):
            continue
        a = (weights @ v.T) / mass
        gram = a @ a.T
        sim = 0.0
        if c > 1:
            sim = max(gram[i, j] for i in range(c) for j in range(c) if i != j)
        if best_sim is None or sim < best_sim:
            best_idx, best_sim, best_a = p, sim, a
    return best_idx, best_sim, best_a


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
            idx, sim, a = brute_force_selection(anchors, v, w, c)
            assert choice.subset_index == idx
            np.testing.assert_allclose(choice.attractors, a, atol=1e-10)

    def test_c_exceeding_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            select_attractor_set(np.ones((2, 3)), np.ones((3, 5)), np.ones(5), 3)


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
