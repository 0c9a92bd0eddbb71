"""The explicit backward: dense_tanh's rule against finite differences and
the frame-major code it replaced, and the loss Tensor's contract."""

import itertools

import numpy as np
import pytest

import danet.nn
from danet.autograd import Tensor, dense_tanh, dense_tanh_backward
from danet.nn import EmbedNet, EmbedNetConfig

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def backward_of(w, x, b, g, blocks=None, need_dx=True):
    """``dense_tanh``'s (dw, dx, db) for its output's gradient ``g``."""
    value = dense_tanh(w, x, b, blocks)
    dw, db = np.empty(w.shape), np.empty(b.shape)
    dx = dense_tanh_backward(w, x, value, g, dw, db, blocks, need_dx)
    return dw, dx, db


def weighted_loss(net: EmbedNet, feats: np.ndarray, weights: np.ndarray) -> Tensor:
    """``sum(V * weights)`` of ``net``'s embeddings, with its backward."""
    acts = []
    v = net.embed(feats, acts)
    return Tensor(np.sum(v * weights), lambda: weights.copy(), net, acts)


class TestDenseTanh:
    """``dense_tanh_backward`` against finite differences, in both output
    layouts, for every mix of the operands w, x, b that it is checked on.
    dL/dx is asked for only when x is checked."""

    # (blocks, rows of w): plain R x T output, and K=3 blocks of F=2 rows
    LAYOUTS = [(None, 4), (3, 6)]
    MIXES = [m for m in itertools.product((False, True), repeat=3) if any(m)]

    @pytest.mark.parametrize("blocks,rows", LAYOUTS)
    @pytest.mark.parametrize("mix", MIXES)
    def test_gradients_match_finite_differences(self, blocks, rows, mix):
        rng = np.random.default_rng(7)
        arrays = [rng.uniform(-0.8, 0.8, (rows, 5)), rng.uniform(-1.0, 1.0, (5, 3)),
                  rng.uniform(-0.5, 0.5, (rows, 1))]
        weights = rng.standard_normal(dense_tanh(*arrays, blocks).shape)
        grads = backward_of(*(a.copy() for a in arrays), weights.copy(), blocks,
                            need_dx=mix[1])
        for i, (grad, checked) in enumerate(zip(grads, mix)):
            if i == 1 and not checked:
                assert grad is None
            if not checked:
                continue

            def f(arr, i=i):
                args = list(arrays)
                args[i] = arr
                return np.sum(dense_tanh(*args, blocks) * weights)

            np.testing.assert_allclose(grad, numeric_grad(f, arrays[i].copy()),
                                       atol=1e-6)

    def test_frame_major_layout(self):
        rng = np.random.default_rng(8)
        w, x, b = (rng.standard_normal(shape) for shape in ((6, 4), (4, 5), (6, 1)))
        plain = np.tanh(w @ x + b)                       # (K*F, T), K=3, F=2
        framed = dense_tanh(w, x, b, blocks=3)
        np.testing.assert_array_equal(
            framed, plain.reshape(3, 2, 5).transpose(0, 2, 1).reshape(3, 10))

    def test_no_parent_needing_gradient_records_nothing(self):
        # the forward is a plain array; a first layer asks no dL/dx
        w, x, b = np.ones((2, 3)), np.ones((3, 4)), np.zeros((2, 1))
        out = dense_tanh(w, x, b)
        assert type(out) is np.ndarray
        assert dense_tanh_backward(w, x, out, np.ones((2, 4)), np.empty((2, 3)),
                                   np.empty((2, 1)), need_dx=False) is None


def frame_major_oracle(w, x, b, blocks, g):
    """The output layer as it was computed before it ran in place: value,
    then the w, x and b gradients for the value's gradient ``g``."""
    z = w @ x
    r, t = z.shape
    f = r // blocks
    framed = np.empty((blocks, t, f))
    np.add(z.reshape(blocks, f, t).transpose(0, 2, 1), b.reshape(blocks, 1, f),
           out=framed)
    value = np.tanh(framed.reshape(blocks, t * f))
    dz = value * value
    np.subtract(1.0, dz, out=dz)
    dz *= g
    dz = dz.reshape(blocks, t, f).transpose(0, 2, 1).copy().reshape(blocks * f, t)
    return value, dz @ x.T, w.T @ dz, dz.sum(axis=1, keepdims=True)


class TestDenseTanhInPlace:
    """The output layer (``blocks=K``) byte for byte against the frame-major
    code it replaced, however its gradient is handed in."""

    F, D = 129, 24

    def arrays(self, k, t, seed):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-0.3, 0.3, (k * self.F, self.D)),
                rng.standard_normal((self.D, t)),
                rng.uniform(-0.5, 0.5, (k * self.F, 1)),
                rng.standard_normal((k, t * self.F)))

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("t", [1, 2, 100, 247])
    @pytest.mark.parametrize("handed", ["row-major", "column-major", "read-only",
                                        "two consumers"])
    def test_bitwise_equal_to_frame_major_code(self, k, t, handed):
        w, x, b, g = self.arrays(k, t, seed=k * 1000 + t)
        want = frame_major_oracle(w, x, b, k, g if handed != "two consumers"
                                  else 0.25 * g + 0.75 * g)
        v = dense_tanh(w, x, b, blocks=k)
        assert v.tobytes() == want[0].tobytes()
        value = v.copy()
        if handed == "row-major":
            given = g.copy()
        elif handed in ("column-major", "read-only"):
            given = np.asfortranarray(g.copy()) if handed == "column-major" else g.copy()
            given.flags.writeable = handed != "read-only"
        else:   # a gradient summed from two terms, as the loss rule's dL/dV is
            given = 0.25 * g + 0.75 * g
        dw, db = np.empty(w.shape), np.empty(b.shape)
        dx = dense_tanh_backward(w, x, v, given, dw, db, blocks=k)
        for got, expected in zip((dw, dx, db), want[1:]):
            assert got.tobytes() == expected.tobytes()
        assert v.tobytes() == value.tobytes()          # the value is left as it was
        if handed == "read-only" or (handed == "column-major"
                                     and not given.flags.c_contiguous):
            assert given.tobytes() == g.tobytes()       # copied, not written

    def test_leaf_gradient_lands_in_the_array_it_keeps(self):
        # every weight and bias gradient is written into the array the net
        # keeps for it, step after step
        net = EmbedNet(TINY, seed=3)
        rng = np.random.default_rng(4)
        feats, weights = rng.standard_normal((7, 5)), rng.standard_normal((4, 35))
        held = []
        for _ in range(2):
            weighted_loss(net, feats, weights).backward()
            held.append(dict(net.grads))
        assert held[0].keys() == net.params.keys()
        for name, arr in held[0].items():
            assert held[1][name] is arr, name


class TestAnalyticCases:
    def test_sum_of_squares_gradient(self):
        # one output layer, K = F = 1: V = tanh(w x + b) and L = sum(V**2),
        # so dL/dw = sum(2 V (1 - V**2) x) and dL/db = sum(2 V (1 - V**2))
        cfg = EmbedNetConfig(context=0, hidden_sizes=(), embed_dim=1, n_freq=1)
        net = EmbedNet(cfg, seed=0)
        feats = np.array([[0.5, -1.0, 2.0]])
        acts = []
        v = net.embed(feats, acts)
        x = acts[0]                                       # the standardized features
        Tensor(np.sum(v * v), lambda: 2.0 * v, net, acts).backward()
        slope = 2.0 * v * (1.0 - v * v)
        np.testing.assert_allclose(net.grads["w_out"], [[np.sum(slope * x)]])
        np.testing.assert_allclose(net.grads["b_out"], [[np.sum(slope)]])

    def test_constant_matmul_operand_keeps_no_gradient(self, monkeypatch):
        # the first layer's input is a constant: its backward forms no dL/dx
        net = EmbedNet(TINY, seed=5)
        rng = np.random.default_rng(6)
        loss = weighted_loss(net, rng.standard_normal((7, 5)),
                             rng.standard_normal((4, 35)))
        seen = []

        def record(*args, **kwargs):
            dx = dense_tanh_backward(*args, **kwargs)
            seen.append(dx is None)
            return dx

        monkeypatch.setattr(danet.nn, "dense_tanh_backward", record)
        loss.backward()
        assert seen == [False, True]                       # output layer, then first


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        net = EmbedNet(TINY, seed=0)
        with pytest.raises(TypeError):
            Tensor(np.ones(3), lambda: None, net, [])

    def test_double_backward_rejected(self):
        net = EmbedNet(TINY, seed=1)
        rng = np.random.default_rng(2)
        loss = weighted_loss(net, rng.standard_normal((7, 4)),
                             rng.standard_normal((4, 28)))
        loss.backward()
        with pytest.raises(RuntimeError, match="keeps no backward"):
            loss.backward()

    def test_only_leaves_keep_gradients(self):
        # the backward pops what the forward kept and drops the loss rule,
        # so only the net's gradient arrays are left
        net = EmbedNet(TINY, seed=2)
        rng = np.random.default_rng(3)
        acts = []
        v = net.embed(rng.standard_normal((7, 4)), acts)
        assert len(acts) == 3 and acts[-1] is v          # two layer inputs, then V
        loss = Tensor(float(np.sum(v)), lambda: np.ones_like(v), net, acts)
        loss.backward()
        assert acts == []
        assert loss._rule is None and loss._net is None and loss._acts is None
        assert loss.item() == float(np.sum(v))

    def test_constants_track_nothing(self):
        # a backward writes one gradient per parameter and none for the
        # input features, which it leaves as they were
        net = EmbedNet(TINY, seed=4, n_anchors=2)
        feats = np.random.default_rng(5).standard_normal((7, 4))
        before = feats.copy()
        weighted_loss(net, feats, np.ones((4, 28))).backward()
        assert set(net.grads) == {"w0", "b0", "w_out", "b_out"}
        assert feats.tobytes() == before.tobytes()


class TestNoGrad:
    """Forwards that no backward follows: inference and validation."""

    def test_records_no_parents(self):
        # without a list to keep them in, embed keeps nothing and makes no
        # gradient array
        net = EmbedNet(TINY, seed=3)
        v = net.embed(np.random.default_rng(4).standard_normal((7, 9)))
        assert type(v) is np.ndarray and net.grads == {}

    def test_embeddings_bitwise_equal(self):
        cfg = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)
        net = EmbedNet(cfg, seed=3, n_anchors=2)
        feats = np.random.default_rng(4).standard_normal((7, 9))
        acts = []
        taped = net.embed(feats, acts)
        untaped = net.embed(feats)
        assert type(untaped) is np.ndarray and acts[-1] is taped
        assert untaped.tobytes() == taped.tobytes()
