"""Clustering, fixed attractors, PCA, and the separation pipeline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from danet import inference
from danet.dsp import Waveform, istft, stft
from danet.inference import (
    AnchoredStrategy,
    FixedStrategy,
    KMeansResult,
    KMeansStrategy,
    fixed_attractors,
    kmeans,
    pca_project,
    separate,
)
from danet.nn import EmbedNet, EmbedNetConfig


class TestKmeans:
    def test_single_cluster_is_the_mean(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 50))
        w = np.ones(50)
        result = kmeans(v, 1, w, seed=0)
        np.testing.assert_allclose(result.centers[0], v.mean(axis=1), atol=1e-12)

    def test_recovers_well_separated_clouds(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 40)) * 0.05 + np.array([[10.0], [0.0], [0.0]])
        b = rng.standard_normal((3, 60)) * 0.05 - np.array([[10.0], [0.0], [0.0]])
        v = np.concatenate([a, b], axis=1)
        result = kmeans(v, 2, np.ones(100), seed=0)
        labels = result.labels
        assert len(set(labels[:40])) == 1
        assert len(set(labels[40:])) == 1
        assert labels[0] != labels[40]
        for center in result.centers:
            true = a.mean(axis=1) if center[0] > 0 else b.mean(axis=1)
            assert np.linalg.norm(center - true) < 0.2

    def test_identical_points_degenerate(self):
        v = np.ones((3, 20))
        result = kmeans(v, 2, np.ones(20), seed=0)
        np.testing.assert_allclose(result.centers, 1.0)
        assert result.inertia == 0.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 300))
        result = kmeans(v, 4, np.ones(300), seed=3)
        diffs = np.diff(result.history)
        assert np.all(diffs <= 1e-9)

    def test_too_few_retained_bins_rejected(self):
        v = np.ones((3, 10))
        w = np.zeros(10)
        w[0] = 1.0
        with pytest.raises(ValueError, match="retained"):
            kmeans(v, 2, w, seed=0)

    def test_thresholded_bins_excluded_from_fit(self):
        # one far outlier with w=0 must not pull any center
        v = np.zeros((2, 21))
        v[:, :10] = np.array([[1.0], [0.0]])
        v[:, 10:20] = np.array([[-1.0], [0.0]])
        v[:, 20] = 500.0
        w = np.ones(21)
        w[20] = 0.0
        result = kmeans(v, 2, w, seed=1)
        assert np.abs(result.centers).max() < 2.0
        assert result.labels.size == 21  # excluded bin still gets a label

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 80))
        r1 = kmeans(v, 3, np.ones(80), seed=9)
        r2 = kmeans(v, 3, np.ones(80), seed=9)
        np.testing.assert_array_equal(r1.centers, r2.centers)
        np.testing.assert_array_equal(r1.labels, r2.labels)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, points (n,K) x centers (C,K) -> (n,C)."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ncj,ncj->nc", diff, diff)


def reference_kmeans(v, c, w, seed=0):
    """Oracle for ``kmeans``: the same algorithm with every distance taken
    as a direct point-centre difference and every mean as a row mean.

    Returns the result and the number of empty clusters it re-seeded.
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w).reshape(-1)
    points = v.T[w > 0]
    n = points.shape[0]
    rng = np.random.default_rng(seed)

    centers = np.empty((c, v.shape[0]))
    centers[0] = points[rng.integers(n)]
    closest = _sq_dists(points, centers[:1]).min(axis=1)
    for k in range(1, c):
        total = closest.sum()
        if total > 0:
            probs = closest / total
            centers[k] = points[rng.choice(n, p=probs)]
        else:
            centers[k] = points[rng.integers(n)]
        closest = np.minimum(closest, _sq_dists(points, centers[k : k + 1]).min(axis=1))

    history = []
    prev = None
    reseeded = 0
    for _ in range(100):
        d2 = _sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        history.append(inertia)
        if inertia == 0.0:
            break
        if prev is not None and prev - inertia <= 1e-6 * prev:
            break
        prev = inertia
        for k in range(c):
            member = labels == k
            if member.any():
                centers[k] = points[member].mean(axis=0)
            else:
                farthest = int(d2[np.arange(n), labels].argmax())
                centers[k] = points[farthest]
                reseeded += 1

    full = _sq_dists(v.T, centers)
    return KMeansResult(centers, full.argmin(axis=1), history[-1], history), reseeded


def assert_labels_nearest(v, result):
    d2 = _sq_dists(np.asarray(v, dtype=np.float64).T, result.centers)
    chosen = d2[np.arange(d2.shape[0]), result.labels]
    assert np.all(chosen <= d2.min(axis=1) * (1 + 1e-12) + 1e-300)


class TestKmeansMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 8),
        n=st.integers(1, 400),
        c=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        data_seed=st.integers(0, 2**32 - 1),
        keep=st.floats(0.1, 1.0),
    )
    def test_same_result_as_direct_differences(self, k, n, c, seed, data_seed, keep):
        rng = np.random.default_rng(data_seed)
        blobs = rng.standard_normal((k, c)) * rng.uniform(0.0, 5.0)
        v = blobs[:, rng.integers(0, c, n)] + rng.standard_normal((k, n))
        w = (rng.uniform(size=n) < keep).astype(float)
        # more retained points than clusters: see test_every_point_a_centre
        assume(w.sum() > c)
        result = kmeans(v, c, w, seed=seed)
        expected, _ = reference_kmeans(v, c, w, seed=seed)
        np.testing.assert_array_equal(result.labels, expected.labels)
        np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
        assert len(result.history) == len(expected.history)
        assert_labels_nearest(v, result)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 8),
        n=st.integers(2, 300),
        c=st.integers(1, 4),
        width_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_of_any_width_match_reference(self, k, n, c, width_frac, seed, data_seed):
        # blocks from one column to all of them, so the last is often partial
        assume(n > c)
        width = 1 + int(width_frac * (n - 1))
        rng = np.random.default_rng(data_seed)
        v = rng.standard_normal((k, c))[:, rng.integers(0, c, n)] * 3.0 + rng.standard_normal((k, n))
        w = np.ones(n)
        with mock.patch.object(inference, "_BLOCK_BYTES", width * 8 * k):
            result = kmeans(v, c, w, seed=seed)
        expected, _ = reference_kmeans(v, c, w, seed=seed)
        np.testing.assert_array_equal(result.labels, expected.labels)
        np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
        assert len(result.history) == len(expected.history)

    def test_several_real_size_blocks_match_reference(self):
        # 20-dim points take 6,553 columns a block: 3 whole blocks and a
        # part.  C = 2 is the benchmark's case: many passes, and labels
        # that keep changing in several blocks while the sums are carried.
        assert inference._BLOCK_BYTES // (8 * 20) == 6553
        for c in (2, 3):
            rng = np.random.default_rng(15)
            v = np.tanh(rng.standard_normal((20, c))[:, rng.integers(0, c, 22000)]
                        + 0.8 * rng.standard_normal((20, 22000)))
            w = (rng.uniform(size=22000) < 0.9).astype(float)
            assert 3 * 6553 < w.sum() < 4 * 6553
            result = kmeans(v, c, w, seed=2)
            expected, _ = reference_kmeans(v, c, w, seed=2)
            assert len(result.history) > 2
            np.testing.assert_array_equal(result.labels, expected.labels)
            np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
            assert len(result.history) == len(expected.history)

    def test_tied_points_take_the_first_centre(self):
        # The fit ends with centres (-2, 0) and (2, 0), and the bins on
        # x = 0 lie exactly as far from both (integer data, so the
        # expanded form is exact).  They take label 0, retained or not,
        # and the retained one adds its distance, 4, to the inertia.
        v = np.array([[-3.0, -3, 0, 2, 2, 0], [0, 0, 0, 0, 0, 5]])
        w = np.array([1, 1, 1, 1, 1, 0])
        result = kmeans(v, 2, w, seed=1)
        expected, _ = reference_kmeans(v, 2, w, seed=1)
        np.testing.assert_array_equal(result.centers, [[-2.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(result.labels, [0, 0, 0, 1, 1, 0])
        np.testing.assert_array_equal(result.labels, expected.labels)
        assert result.inertia == 1 + 1 + 4 + 0 + 0
        assert result.history == expected.history

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        n=st.integers(1, 200),
        c=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_seeds_unchanged(self, k, n, c, seed, data_seed):
        # the oracle also updates the nearest-centre distances after the
        # last centre is drawn; kmeans skips that pass, which nothing reads
        assume(n >= c)
        v = np.random.default_rng(data_seed).standard_normal((k, n))
        drawn = {}
        real = np.random.default_rng

        def recording(s):
            drawn.setdefault("rngs", []).append(real(s))
            return drawn["rngs"][-1]

        with mock.patch.object(np.random, "default_rng", recording):
            result = kmeans(v, c, np.ones(n), seed=seed)
            expected, _ = reference_kmeans(v, c, np.ones(n), seed=seed)
        # the same draws from the same stream, so the same first pass
        kmeans_rng, reference_rng = drawn["rngs"]
        assert kmeans_rng.bit_generator.state == reference_rng.bit_generator.state
        assert result.history[0] == pytest.approx(expected.history[0], rel=1e-12, abs=1e-12)

    def test_weights_must_cover_every_bin(self):
        with pytest.raises(ValueError, match="9 entries for 10 bins"):
            kmeans(np.ones((3, 10)), 2, np.ones(9))

    def test_single_cluster(self):
        v = np.random.default_rng(12).standard_normal((5, 70))
        w = np.ones(70)
        result = kmeans(v, 1, w, seed=3)
        expected, _ = reference_kmeans(v, 1, w, seed=3)
        np.testing.assert_array_equal(result.labels, np.zeros(70))
        np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
        assert len(result.history) == len(expected.history)

    def test_every_point_a_centre(self):
        # Direct differences give exactly 0 here and stop after one pass;
        # the expanded form leaves a rounding residue (~1e-16 per point)
        # and stops one pass later, on the same labels and centres.
        v = np.random.default_rng(14).standard_normal((3, 4))
        w = np.ones(4)
        result = kmeans(v, 4, w, seed=0)
        expected, _ = reference_kmeans(v, 4, w, seed=0)
        assert expected.history == [0.0]
        assert len(result.history) <= 2 and result.inertia < 1e-14
        np.testing.assert_array_equal(result.labels, expected.labels)
        np.testing.assert_array_equal(result.centers, expected.centers)

    def test_empty_cluster_reseeded(self):
        # seven 2-D points where a cluster empties on the third pass
        v = np.array([[0.0, 0, 1, 5, -5, 0, 4], [3, -4, 1, 4, -5, 5, 4]])
        w = np.ones(7)
        expected, reseeded = reference_kmeans(v, 4, w, seed=0)
        assert reseeded > 0
        result = kmeans(v, 4, w, seed=0)
        np.testing.assert_array_equal(result.labels, expected.labels)
        np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
        assert result.history == pytest.approx(expected.history, rel=1e-12)

    def test_cluster_empties_after_sums_were_carried(self):
        # Twelve 2-D points where one of five clusters empties on the
        # second pass, after the first pass's sums were corrected for the
        # points that moved, and is reseeded; three more passes follow.
        v = np.array([[5.0, -3, -1, -1, -5, 5, 3, -4, -6, 1, 4, -5],
                      [-4, 2, 1, 4, 3, -3, 3, 5, 3, 6, -3, -3]])
        w = np.ones(12)
        expected, reseeded = reference_kmeans(v, 5, w, seed=0)
        assert reseeded == 1 and len(expected.history) == 5
        for width in (1, 5, 12):
            with mock.patch.object(inference, "_BLOCK_BYTES", width * 8 * 2):
                result = kmeans(v, 5, w, seed=0)
            np.testing.assert_array_equal(result.labels, expected.labels)
            np.testing.assert_allclose(result.centers, expected.centers, rtol=0, atol=1e-12)
            assert result.history == pytest.approx(expected.history, rel=1e-12)

    def test_near_duplicates_far_from_origin(self):
        # |p|^2 ~ 4e6 rounds at ~1e-9, more than the within-cluster squared
        # spread (~1e-12): the expanded form loses the inertia to rounding
        # (so `history` may end a pass earlier), yet it must keep the
        # labels and the centres.
        rng = np.random.default_rng(13)
        groups = rng.integers(0, 3, 200)
        v = (1e3 + 1e-3 * rng.standard_normal((4, 3))[:, groups]
             + 1e-6 * rng.standard_normal((4, 200)))
        w = np.ones(200)
        for seed in range(5):
            result = kmeans(v, 3, w, seed=seed)
            expected, _ = reference_kmeans(v, 3, w, seed=seed)
            np.testing.assert_array_equal(result.labels, expected.labels)
            np.testing.assert_allclose(result.centers, expected.centers,
                                       rtol=1e-12, atol=0)
            assert_labels_nearest(v, result)


class TestFixedAttractors:
    def test_single_set_is_itself(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(fixed_attractors([a]), a)

    def test_swapped_set_realigned(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        swapped = a[::-1].copy()
        np.testing.assert_allclose(fixed_attractors([a, swapped]), a, atol=1e-12)

    def test_noisy_copies_average_toward_truth(self):
        rng = np.random.default_rng(5)
        truth = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
        noise = 0.1
        sets = [truth + noise * rng.standard_normal(truth.shape) for _ in range(100)]
        mean = fixed_attractors(sets)
        # error of a 100-sample mean is ~noise/10
        assert np.abs(mean - truth).max() < noise / np.sqrt(100) * 4

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ValueError):
            fixed_attractors([np.ones((2, 3)), np.ones((3, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fixed_attractors([])


class TestPcaProject:
    def test_rank_one_data(self):
        rng = np.random.default_rng(6)
        direction = rng.standard_normal(5)
        coeffs = rng.standard_normal(100)
        v = np.outer(direction, coeffs)
        pca = pca_project(v, 3)
        assert pca.explained[0] >= 1 - 1e-6

    def test_projection_preserves_dot_products_in_subspace(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((6, 40))
        pca = pca_project(v, 6)
        centered = v - v.mean(axis=1, keepdims=True)
        gram_orig = centered.T @ centered
        gram_proj = pca.coords.T @ pca.coords
        np.testing.assert_allclose(gram_proj, gram_orig, atol=1e-6)

    def test_full_dims_preserve_total_variance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((5, 60))
        pca = pca_project(v, 5)
        assert abs(pca.explained.sum() - 1.0) < 1e-6

    def test_components_ordered_by_variance(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((6, 200)) * np.array([[5.0], [3.0], [2.0], [1.0], [0.5], [0.1]])
        pca = pca_project(v, 4)
        assert np.all(np.diff(pca.explained) <= 1e-9)

    def test_extra_point_projection(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((4, 30))
        pca = pca_project(v, 2)
        np.testing.assert_allclose(pca.project(v.T).T, pca.coords, atol=1e-9)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((3, 10)), 4)


def trained_toy_net(seed=0, n_anchors=0):
    """A tiny untrained net is enough for pipeline-structure tests."""
    cfg = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=129)
    return EmbedNet(cfg, seed=seed, n_anchors=n_anchors)


def toy_wave(seed=0, n=4000):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 8000.0
    x = 0.4 * np.sin(2 * np.pi * 150 * t) + 0.3 * np.sin(2 * np.pi * 420 * t + 1.0)
    return Waveform(x + 0.01 * rng.standard_normal(n))


class TestSeparate:
    @pytest.mark.parametrize("strategy", [KMeansStrategy(seed=0), AnchoredStrategy()])
    def test_never_writes_into_the_net_arrays(self, strategy):
        # a net built from a checkpoint holds its arrays without a copy
        held = trained_toy_net(seed=4, n_anchors=3)
        arrays = {name: p.data for name, p in held.params.items()}
        before = {name: arr.copy() for name, arr in arrays.items()}
        net = EmbedNet.from_arrays(held.config, arrays, n_anchors=3)
        separate(net, toy_wave(seed=5), 2, strategy)
        for name, arr in arrays.items():
            assert net.params[name].data is arr
            np.testing.assert_array_equal(arr, before[name])

    def test_softmax_outputs_sum_to_mixture_reconstruction(self):
        net = trained_toy_net()
        mix = toy_wave()
        outs = separate(net, mix, 2, KMeansStrategy(seed=0))
        total = sum(o.samples for o in outs)
        recon = istft(stft(mix)).samples
        assert np.abs(total - recon).max() < 1e-6

    def test_single_source_returns_mixture(self):
        net = trained_toy_net()
        mix = toy_wave(1)
        out = separate(net, mix, 1, KMeansStrategy(seed=0))[0]
        recon = istft(stft(mix)).samples
        np.testing.assert_allclose(out.samples, recon, atol=1e-9)

    def test_deterministic(self):
        net = trained_toy_net()
        mix = toy_wave(2)
        a = separate(net, mix, 2, KMeansStrategy(seed=5))
        b = separate(net, mix, 2, KMeansStrategy(seed=5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_fixed_strategy_row_count_checked(self):
        net = trained_toy_net()
        with pytest.raises(ValueError, match="fixed attractor table"):
            separate(net, toy_wave(3), 3, FixedStrategy(np.ones((2, 4))))

    def test_fixed_strategy_runs(self):
        net = trained_toy_net()
        table = np.random.default_rng(11).standard_normal((2, 4))
        outs = separate(net, toy_wave(4), 2, FixedStrategy(table))
        assert len(outs) == 2

    def test_anchored_requires_anchors(self):
        net = trained_toy_net()
        with pytest.raises(ValueError, match="anchors"):
            separate(net, toy_wave(5), 2, AnchoredStrategy())

    def test_anchored_c_exceeding_n_rejected(self):
        net = trained_toy_net(n_anchors=2)
        with pytest.raises(ValueError, match="exceeds"):
            separate(net, toy_wave(6), 3, AnchoredStrategy())

    def test_anchored_runs(self):
        net = trained_toy_net(n_anchors=6)
        outs = separate(net, toy_wave(7), 2, AnchoredStrategy())
        assert len(outs) == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(TypeError):
            separate(trained_toy_net(), toy_wave(8), 2, "kmeans")
