"""Gradient-engine checks: every op against central finite differences."""

import itertools

import numpy as np
import pytest

from danet.autograd import Tensor, dense_tanh, exp, no_grad, sigmoid, tanh
from danet.nn import EmbedNet, EmbedNetConfig


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


def check_op(build, shape, seed=0, atol=1e-6):
    """Compare analytic and numeric gradients of scalar build(Tensor)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, shape)  # positive, away from kinks
    t = Tensor(x.copy(), requires_grad=True)
    loss = build(t)
    loss.backward()
    numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


class TestElementwiseOps:
    def test_add(self):
        check_op(lambda t: (t + t * 2.0).sum(), (3, 4))

    def test_sub_with_constant(self):
        c = np.arange(12.0).reshape(3, 4)
        check_op(lambda t: ((c - t) * (t - 1.0)).sum(), (3, 4))

    def test_mul_broadcast(self):
        row = np.linspace(0.5, 2.0, 4)[None, :]
        check_op(lambda t: (t * row).sum(), (3, 4))

    def test_div(self):
        check_op(lambda t: (1.0 / t + t / 3.0).sum(), (2, 5))

    def test_div_broadcast_denominator(self):
        check_op(lambda t: (t / t.sum(axis=1, keepdims=True)).sum(), (3, 4))

    def test_pow(self):
        check_op(lambda t: (t**3.0).sum(), (4,))

    def test_exp(self):
        check_op(lambda t: exp(t).sum(), (3, 3))

    def test_tanh(self):
        check_op(lambda t: tanh(t * 2.0).sum(), (3, 3))

    def test_sigmoid(self):
        check_op(lambda t: sigmoid(t * 3.0 - 1.0).sum(), (3, 3))

    def test_neg(self):
        check_op(lambda t: (-t).sum(), (5,))


class TestMatmulAndShape:
    def test_matmul_left(self):
        b = np.linspace(-1, 1, 12).reshape(4, 3)
        check_op(lambda t: (t @ b).sum(), (2, 4))

    def test_matmul_right(self):
        a = np.linspace(-1, 1, 8).reshape(2, 4)
        check_op(lambda t: (a @ t).sum(), (4, 3))

    def test_matmul_both_sides(self):
        check_op(lambda t: ((t @ t.T) ** 2.0).sum(), (3, 4))

    def test_reshape_transpose(self):
        check_op(
            lambda t: (t.reshape(2, 3, 2).transpose((0, 2, 1)).reshape(4, 3) ** 2.0).sum(),
            (4, 3),
        )

    def test_sum_axis_keepdims(self):
        check_op(lambda t: (t.sum(axis=0, keepdims=True) ** 2.0).sum(), (3, 4))

    def test_take_rows(self):
        # an index list gathers rows; a repeated row's gradients add up
        check_op(lambda t: (t[[0, 2, 2]] ** 2.0).sum(), (4, 3))

    def test_getitem_slice(self):
        check_op(lambda t: (t[1:3] * 2.0).sum(), (4, 3))


class TestDenseTanh:
    """``dense_tanh`` against finite differences, in both output layouts
    and for every mix of parents that require a gradient."""

    # (blocks, rows of w): plain R x T output, and K=3 blocks of F=2 rows
    LAYOUTS = [(None, 4), (3, 6)]
    MIXES = [m for m in itertools.product((False, True), repeat=3) if any(m)]

    @pytest.mark.parametrize("blocks,rows", LAYOUTS)
    @pytest.mark.parametrize("mix", MIXES)
    def test_gradients_match_finite_differences(self, blocks, rows, mix):
        rng = np.random.default_rng(7)
        arrays = [rng.uniform(-0.8, 0.8, (rows, 5)), rng.uniform(-1.0, 1.0, (5, 3)),
                  rng.uniform(-0.5, 0.5, (rows, 1))]
        weights = rng.standard_normal(dense_tanh(*map(Tensor, arrays), blocks=blocks).shape)

        def loss_of(w, x, b):
            return (dense_tanh(w, x, b, blocks=blocks) * weights).sum()

        tensors = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, mix)]
        loss_of(*tensors).backward()
        for i, (t, needs) in enumerate(zip(tensors, mix)):
            if not needs:
                assert t.grad is None
                continue

            def f(arr, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = Tensor(arr)
                return float(loss_of(*args).data)

            np.testing.assert_allclose(t.grad, numeric_grad(f, arrays[i].copy()),
                                       atol=1e-6)

    def test_frame_major_layout(self):
        rng = np.random.default_rng(8)
        w, x, b = (rng.standard_normal(shape) for shape in ((6, 4), (4, 5), (6, 1)))
        plain = np.tanh(w @ x + b)                       # (K*F, T), K=3, F=2
        framed = dense_tanh(Tensor(w), x, Tensor(b), blocks=3).data
        np.testing.assert_array_equal(
            framed, plain.reshape(3, 2, 5).transpose(0, 2, 1).reshape(3, 10))

    def test_no_parent_needing_gradient_records_nothing(self):
        out = dense_tanh(Tensor(np.ones((2, 3))), np.ones((3, 4)), Tensor(np.zeros((2, 1))))
        assert not out.requires_grad and out._parents == ()


class TestAnalyticCases:
    def test_sum_of_squares_gradient(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (p**2.0).sum().backward()
        np.testing.assert_allclose(p.grad, [2.0, -4.0, 6.0])

    def test_unused_parameter_gets_no_gradient(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        (used * 2.0).sum().backward()
        assert unused.grad is None
        np.testing.assert_allclose(used.grad, 2.0)

    def test_constant_matmul_operand_keeps_no_gradient(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        x = Tensor(np.ones((3, 4)))
        for out in (w @ x, x.T @ w.T):
            out.sum().backward()
            assert x.grad is None
            w.grad = None

    def test_grad_accumulates_over_shared_subexpression(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        y = p * p  # dy/dp = 2p through two paths
        y.sum().backward()
        np.testing.assert_allclose(p.grad, [6.0])


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (t * 2.0).backward()

    def test_double_backward_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        loss = (t * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()

    def test_only_leaves_keep_gradients(self):
        # the sweep drops each intermediate's gradient and tape as it passes
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 2)))
        h = dense_tanh(w, x, b)
        y = h * h
        z = exp(y.T) + y.sum(axis=0, keepdims=True).T
        loss = (z / 2.0).sum()
        loss.backward()
        assert w.grad is not None and b.grad is not None and x.grad is None
        for node in (h, y, z, loss):
            assert node.grad is None
            assert node._parents == () and node._backward is None
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            (y * 3.0).sum().backward()  # reaches a swept node

    def test_constants_track_nothing(self):
        c = Tensor(np.ones(3))
        out = c * 2.0 + 1.0
        assert not out.requires_grad

    def test_numpy_defers_to_tensor(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = np.full((2, 2), 3.0) - t  # ndarray.__sub__ must hand over
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, -1.0)


class TestNoGrad:
    def test_records_no_parents(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = tanh(t @ t + 1.0).sum()
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_recording_resumes_after_block(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inside")
        loss = (t * 2.0).sum()
        assert loss.requires_grad
        loss.backward()
        np.testing.assert_allclose(t.grad, 2.0)

    def test_embeddings_bitwise_equal(self):
        cfg = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)
        net = EmbedNet(cfg, seed=3, n_anchors=2)
        feats = np.random.default_rng(4).standard_normal((7, 9))
        taped = net.embed(feats)
        with no_grad():
            untaped = net.embed(feats)
        assert taped.requires_grad and not untaped.requires_grad
        assert untaped._parents == ()
        np.testing.assert_array_equal(untaped.data, taped.data)
