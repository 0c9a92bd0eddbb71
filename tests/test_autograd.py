"""Tape checks: dense_tanh against finite differences, and the sweep's
contract on fused nodes."""

import itertools

import numpy as np
import pytest

from danet.autograd import Tensor, dense_tanh, fused, no_grad
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


def weighted_sum(t: Tensor, weights) -> Tensor:
    """``sum(t * weights)`` as one fused node."""
    return fused(np.sum(t.data * weights), (t,), lambda g: (g * weights,))


def sum_of_squares(t: Tensor) -> Tensor:
    """``sum(t**2)`` as one fused node."""
    return fused(np.sum(t.data * t.data), (t,), lambda g: (2.0 * g * t.data,))


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
        shape = dense_tanh(*map(Tensor, arrays), blocks=blocks).data.shape
        weights = rng.standard_normal(shape)

        def loss_of(w, x, b):
            return weighted_sum(dense_tanh(w, x, b, blocks=blocks), weights)

        tensors = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, mix)]
        loss_of(*tensors).backward()
        for i, (t, needs) in enumerate(zip(tensors, mix)):
            if not needs:
                assert t.grad is None
                continue

            def f(arr, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = Tensor(arr)
                return loss_of(*args).item()

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
        tw, tx, tb = (Tensor(a.copy(), requires_grad=True) for a in (w, x, b))
        v = dense_tanh(tw, tx, tb, blocks=k)
        assert v.data.tobytes() == want[0].tobytes()
        value = v.data.copy()
        if handed == "row-major":
            loss = fused(0.0, (v,), lambda _: (g.copy(),))
        elif handed in ("column-major", "read-only"):
            given = np.asfortranarray(g.copy()) if handed == "column-major" else g.copy()
            given.flags.writeable = handed != "read-only"
            loss = fused(0.0, (v,), lambda _: (given,))
        else:   # v.grad is the sum of two gradients, summed by the sweep
            parts = [fused(0.0, (v,), lambda _, s=s: (s * g,)) for s in (0.25, 0.75)]
            loss = fused(0.0, tuple(parts), lambda gr: (gr.copy(), gr.copy()))
        loss.backward()
        for tensor, expected in zip((tw, tx, tb), want[1:]):
            assert tensor.grad.tobytes() == expected.tobytes()
        assert v.data.tobytes() == value.tobytes()     # the value is left as it was
        if handed == "read-only" or (handed == "column-major"
                                     and not given.flags.c_contiguous):
            assert given.tobytes() == g.tobytes()       # copied, not written

    def test_leaf_with_a_gradient_in_the_sweep_accumulates(self):
        # w feeds two layers, so its second gradient must be added to the
        # first, not written over it into the array w keeps; again on a
        # second sweep that reuses that array
        w, x, b, g = self.arrays(3, 5, seed=1)
        x2 = np.random.default_rng(2).standard_normal(x.shape)
        singles = []
        for xi in (x, x2):
            tw = Tensor(w.copy(), requires_grad=True)
            weighted_sum(dense_tanh(tw, xi, Tensor(b), blocks=3), g).backward()
            singles.append(tw.grad)
        tw = Tensor(w.copy(), requires_grad=True)
        for sweep in range(2):
            tw.grad = None
            out = [dense_tanh(tw, xi, Tensor(b), blocks=3) for xi in (x, x2)]
            fused(0.0, tuple(out), lambda _: (g.copy(), g.copy())).backward()
            assert tw.grad.tobytes() == (singles[0] + singles[1]).tobytes()
        # with no gradient in between, a sweep adds to the one already there
        weighted_sum(dense_tanh(tw, x, Tensor(b), blocks=3), g).backward()
        assert tw.grad.tobytes() == (singles[0] + singles[1] + singles[0]).tobytes()

    def test_leaf_gradient_lands_in_the_array_it_keeps(self):
        w, x, b, g = self.arrays(3, 5, seed=3)
        tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        held = []
        for _ in range(2):
            tw.grad = tb.grad = None
            weighted_sum(dense_tanh(tw, x, tb, blocks=3), g).backward()
            held.append((tw.grad, tb.grad))
        assert held[0][0] is held[1][0] and held[0][1] is held[1][1]


class TestAnalyticCases:
    def test_sum_of_squares_gradient(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        sum_of_squares(p).backward()
        np.testing.assert_allclose(p.grad, [2.0, -4.0, 6.0])

    def test_unused_parameter_gets_no_gradient(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        weighted_sum(used, 2.0).backward()
        assert unused.grad is None
        np.testing.assert_allclose(used.grad, 2.0)

    def test_constant_matmul_operand_keeps_no_gradient(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 1)))
        x = Tensor(np.ones((3, 4)))
        weighted_sum(dense_tanh(w, x, b), 1.0).backward()
        assert x.grad is None and b.grad is None and w.grad is not None

    def test_grad_accumulates_over_shared_subexpression(self):
        # p reaches the loss through two nodes; their gradients add up
        p = Tensor(np.array([3.0]), requires_grad=True)
        square, line = sum_of_squares(p), weighted_sum(p, 2.0)   # 2p and 2
        fused(square.data + line.data, (square, line), lambda g: (g, g)).backward()
        np.testing.assert_allclose(p.grad, [8.0])


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            fused(t.data * 2.0, (t,), lambda g: (2.0 * g,)).backward()

    def test_double_backward_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        loss = weighted_sum(t, 2.0)
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
        y = dense_tanh(Tensor(rng.standard_normal((2, 3)), requires_grad=True), h,
                       Tensor(np.zeros((2, 1))))
        loss = weighted_sum(y, 0.5)
        loss.backward()
        assert w.grad is not None and b.grad is not None and x.grad is None
        for node in (h, y, loss):
            assert node.grad is None
            assert node._parents == () and node._backward is None
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            weighted_sum(y, 3.0).backward()  # reaches a swept node

    def test_constants_track_nothing(self):
        c = Tensor(np.ones(3))
        out = weighted_sum(c, 2.0)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


class TestNoGrad:
    def test_records_no_parents(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = weighted_sum(dense_tanh(t, t, Tensor(np.ones((2, 1)))), 1.0)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_recording_resumes_after_block(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inside")
        loss = weighted_sum(t, 2.0)
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
