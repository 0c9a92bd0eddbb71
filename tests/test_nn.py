"""Embedding network, Adam, and the learning-rate schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.autograd import Tensor
from danet.nn import (
    AdamState,
    EmbedNet,
    EmbedNetConfig,
    adam_step,
    context_stack,
    standardize,
)

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


def squared_error(net: EmbedNet, feats: np.ndarray, target) -> Tensor:
    """``sum((V - target)**2)`` of ``net``'s embeddings, with its backward."""
    acts = []
    diff = net.embed(feats, acts) - target
    return Tensor(np.sum(diff * diff), lambda: 2.0 * diff, net, acts)


class TestForward:
    def test_output_shape_default_config(self):
        net = EmbedNet(EmbedNetConfig(), seed=0)
        feats = np.random.default_rng(0).standard_normal((129, 50))
        v = net.embed(feats)
        assert v.shape == (20, 129 * 50)

    def test_deterministic_from_seed(self):
        feats = np.random.default_rng(1).standard_normal((7, 9))
        v1 = EmbedNet(TINY, seed=42).embed(feats)
        v2 = EmbedNet(TINY, seed=42).embed(feats)
        np.testing.assert_array_equal(v1, v2)

    def test_different_seeds_differ(self):
        feats = np.random.default_rng(1).standard_normal((7, 9))
        v1 = EmbedNet(TINY, seed=1).embed(feats)
        v2 = EmbedNet(TINY, seed=2).embed(feats)
        assert not np.array_equal(v1, v2)

    def test_column_layout_matches_flattening(self):
        # column t*F+f of V must hold the K values the output layer
        # produced for bin (f, t)
        cfg = EmbedNetConfig(context=0, hidden_sizes=(8,), embed_dim=3, n_freq=5)
        net = EmbedNet(cfg, seed=3)
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((5, 2))
        v = net.embed(feats)
        x = context_stack(standardize(feats), 0)
        h = np.tanh(net.params["w0"] @ x + net.params["b0"])
        out = np.tanh(net.params["w_out"] @ h + net.params["b_out"])  # (K*F, T)
        for f in range(5):
            for t in range(2):
                np.testing.assert_array_equal(v[:, t * 5 + f], out[np.arange(3) * 5 + f, t])

    def test_gradient_matches_finite_differences(self):
        net = EmbedNet(TINY, seed=5)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((7, 6))
        target = rng.standard_normal((4, 42))

        def loss_value():
            return squared_error(net, feats, target)

        loss_value().backward()
        h = 1e-4
        checked = 0
        for name, p in net.params.items():
            flat = p.reshape(-1)
            grad = net.grads[name].reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 40)):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value().item()
                flat[i] = orig - h
                down = loss_value().item()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
                assert rel < 1e-4, f"{name}[{i}]: {grad[i]} vs {fd}"
                checked += 1
        assert checked > 50

    def test_wrong_freq_count_raises(self):
        net = EmbedNet(TINY, seed=0)
        with pytest.raises(ValueError):
            net.embed(np.zeros((6, 4)))

    def test_param_count_small_model(self):
        # (2c+1)F=21 -> 8 hidden -> K*F=28 output: 21*8+8 + 8*28+28 = 428
        assert EmbedNet(TINY, seed=0).n_params() == 428


def chained_embed(net: EmbedNet, features: np.ndarray) -> np.ndarray:
    """The embedding as a chain of plain numpy ops (matmul, bias add, tanh,
    then reshape/transpose/reshape to frame-major columns): the value
    oracle for the one-node-per-layer forward."""
    cfg = net.config
    f, t = features.shape
    h = context_stack(standardize(features), cfg.context)
    for i in range(len(cfg.hidden_sizes)):
        h = np.tanh(net.params[f"w{i}"] @ h + net.params[f"b{i}"])
    out = np.tanh(net.params["w_out"] @ h + net.params["b_out"])
    return (out.reshape(cfg.embed_dim, f, t).transpose(0, 2, 1)
            .reshape(cfg.embed_dim, f * t))


class TestEmbedMatchesChainedOps:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), f=st.integers(1, 6), t=st.integers(1, 9),
           context=st.integers(0, 2),
           hidden=st.lists(st.integers(1, 5), min_size=0, max_size=2),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**16))
    def test_value_bitwise_and_gradients_match_finite_differences(
            self, k, f, t, context, hidden, order, seed):
        cfg = EmbedNetConfig(context=context, hidden_sizes=tuple(hidden),
                             embed_dim=k, n_freq=f)
        net = EmbedNet(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        feats = rng.standard_normal((f, t))
        # dL/dV of a weighted sum, handed back row- or column-major
        weights = np.asarray(rng.standard_normal((k, f * t)), order=order)
        acts = []
        v = net.embed(feats, acts)
        np.testing.assert_array_equal(v, chained_embed(net, feats))
        Tensor(np.sum(v * weights), lambda: weights.copy(order=order), net,
               acts).backward()
        h = 1e-6
        for name, p in net.params.items():
            flat = p.reshape(-1)
            fd = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = np.sum(chained_embed(net, feats) * weights)
                flat[i] = orig - h
                down = np.sum(chained_embed(net, feats) * weights)
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(net.grads[name].reshape(-1), fd, rtol=1e-5,
                                       atol=1e-7, err_msg=name)


class TestFromArrays:
    def test_holds_the_arrays_and_draws_nothing(self, monkeypatch):
        rng = np.random.default_rng(21)
        arrays = {name: rng.standard_normal(shape)
                  for name, shape in TINY.param_shapes(n_anchors=3).items()}

        def no_rng(*args, **kwargs):
            raise AssertionError("from_arrays drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        net = EmbedNet.from_arrays(TINY, arrays, n_anchors=3)
        assert net.params.keys() == arrays.keys() and net.n_anchors == 3
        for name, p in net.params.items():
            assert p is arrays[name]

    def test_adam_updates_held_arrays_in_place(self):
        # byte-equal to the out-of-place formula, signed zeros included: b0
        # never gets a gradient, and a -0.0 moment entry with a zero
        # gradient must come out +0.0 as beta1 * -0.0 + 0.0 does
        rng = np.random.default_rng(22)
        shapes = {**TINY.param_shapes(), "big": (700, 30)}   # several blocks
        arrays = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        net = EmbedNet.from_arrays(TINY, arrays)
        params = {**net.params, "big": arrays["big"]}
        grads = {}
        opt = AdamState(lr=1e-2)
        want = {name: arr.copy() for name, arr in arrays.items()}
        want_m = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        want_v = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        for t in range(1, 5):
            grads = {name: rng.standard_normal(p.shape)
                     for name, p in params.items() if name != "b0"}
            if t == 3:
                for moments in (opt.m, want_m):
                    moments["b0"][0, 0] = moments["w0"][1, 2] = -0.0
                grads["w0"][1, 2] = 0.0
            held = {name: (p, opt.m.get(name), opt.v.get(name))
                    for name, p in params.items()}
            adam_step(params, grads, opt)
            for name, p in params.items():
                g = grads.get(name, 0.0)
                want_m[name] = opt.beta1 * want_m[name] + (1 - opt.beta1) * g
                want_v[name] = opt.beta2 * want_v[name] + (1 - opt.beta2) * (g * g)
                m_hat = want_m[name] / (1 - opt.beta1**t)
                v_hat = want_v[name] / (1 - opt.beta2**t)
                want[name] = want[name] - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
                assert p.tobytes() == want[name].tobytes(), (name, t)
                assert opt.m[name].tobytes() == want_m[name].tobytes(), (name, t)
                assert opt.v[name].tobytes() == want_v[name].tobytes(), (name, t)
                assert p is arrays[name]
                if t > 1:
                    assert opt.m[name] is held[name][1] and opt.v[name] is held[name][2]
        assert np.signbit(opt.m["w0"][1, 2]) == np.signbit(want_m["w0"][1, 2])
        assert not np.signbit(opt.m["b0"][0, 0])


class TestContextStack:
    @settings(max_examples=100, deadline=None)
    @given(f=st.integers(1, 5), t=st.integers(1, 9), context=st.integers(0, 4),
           seed=st.integers(0, 2**16))
    def test_matches_clipped_index_oracle(self, f, t, context, seed):
        feats = np.random.default_rng(seed).standard_normal((f, t))
        want = np.concatenate(
            [feats[:, np.clip(np.arange(t) + off, 0, t - 1)]
             for off in range(-context, context + 1)])
        np.testing.assert_array_equal(context_stack(feats, context), want)

    def test_shape_and_edge_replication(self):
        feats = np.arange(12.0).reshape(3, 4)
        stacked = context_stack(feats, 1)
        assert stacked.shape == (9, 4)
        np.testing.assert_array_equal(stacked[:3, 0], feats[:, 0])  # left edge
        np.testing.assert_array_equal(stacked[6:, 3], feats[:, 3])  # right edge
        np.testing.assert_array_equal(stacked[:3, 2], feats[:, 1])  # offset -1

    def test_context_zero_identity(self):
        feats = np.random.default_rng(0).standard_normal((5, 6))
        np.testing.assert_array_equal(context_stack(feats, 0), feats)


class TestStandardize:
    def test_each_frequency_row_zero_mean_unit_variance(self):
        rng = np.random.default_rng(1)
        out = standardize(rng.uniform(3, 9, (10, 20)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)

    def test_constant_input_safe(self):
        out = standardize(np.full((4, 4), 2.5))
        assert np.all(out == 0)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = {"w": np.ones((3, 3))}
        before = p["w"].copy()
        adam_step(p, {"w": np.zeros((3, 3))}, AdamState(lr=1e-3))
        assert np.max(np.abs(p["w"] - before)) < 1e-15

    def test_first_step_unit_gradient_moves_lr(self):
        p = {"w": np.zeros(4)}
        adam_step(p, {"w": np.ones(4)}, AdamState(lr=1e-3))
        np.testing.assert_allclose(np.abs(p["w"]), 1e-3, atol=1e-6)

    def test_trajectory_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            p = {"w": np.ones(5)}
            st = AdamState(lr=1e-2)
            for _ in range(20):
                adam_step(p, {"w": rng.standard_normal(5)}, st)
            return p["w"]

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_raises(self):
        p = {"w": np.ones(4)}
        st = AdamState()
        st.m["w"] = np.zeros(3)
        st.v["w"] = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(p, {"w": np.ones(4)}, st)

    def test_step_counter_increments(self):
        p, g = {"w": np.ones(2)}, {"w": np.ones(2)}
        st = AdamState()
        adam_step(p, g, st)
        adam_step(p, g, st)
        assert st.step == 2


class TestStability:
    def test_embeddings_finite_over_many_adam_steps(self):
        # 1000 optimization steps on random data never produce NaN/Inf
        rng = np.random.default_rng(8)
        net = EmbedNet(TINY, seed=9)
        opt = AdamState(lr=1e-2)
        feats = rng.standard_normal((7, 5))
        target = rng.standard_normal((4, 35))
        for _ in range(1000):
            squared_error(net, feats, target).backward()
            adam_step(net.params, net.grads, opt)
        final = net.embed(feats)
        assert np.all(np.isfinite(final))
