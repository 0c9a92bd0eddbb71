"""The backward of a training step: closed-form rules on numpy arrays.

The package trains one graph: the embedding network's dense tanh layers
(:func:`dense_tanh`), then the loss node of :mod:`danet.training`.  A
:class:`Tensor` is one step's scalar loss with that graph's backward: the
loss node's rule gives dL/dV, then :func:`dense_tanh_backward` runs per
layer from the output layer down (:meth:`danet.nn.EmbedNet.backward`).
Each stage's arrays are freed as soon as the backward is past it.
"""

import numpy as np

__all__ = ["Tensor", "dense_tanh", "dense_tanh_backward"]


class Tensor:
    """The scalar loss of one training step, and its backward.

    ``rule()`` is the loss node's backward: it writes the gradient of any
    parameter the loss reads directly (ADANet's anchors) and returns
    dL/dV.  ``acts`` is what ``net``'s training forward kept
    (:meth:`danet.nn.EmbedNet.embed`), for the layers' backward.  A loss
    made with no rule is its value alone.
    """

    __slots__ = ("data", "_rule", "_net", "_acts")

    def __init__(self, value, rule=None, net=None, acts: list | None = None):
        self.data = float(value)
        self._rule = rule
        self._net = net
        self._acts = acts

    def item(self) -> float:
        return self.data

    def backward(self) -> None:
        """Every parameter's gradient into ``net.grads``, once per loss.  The
        loss node's rule and its arrays go before the layers' backward."""
        if self._rule is None:
            raise RuntimeError("this loss keeps no backward: backward() already "
                               "ran, or its forward kept nothing")
        acts, net = self._acts, self._net
        acts.append(self._rule())
        self._rule = self._net = self._acts = None
        net.backward(acts)


def dense_tanh(w: np.ndarray, x: np.ndarray, b: np.ndarray,
               blocks: int | None = None) -> np.ndarray:
    """``tanh(w @ x + b)``, for ``w`` R x D, ``x`` D x T and ``b`` R x 1.

    The bias is added into the product's buffer and tanh runs in place on
    it.  With ``blocks=K`` the R = K*F rows are read as K blocks of F and
    the result is the K x T*F frame-major matrix: column ``t*F + f`` of
    block k holds row ``k*F + f`` of frame t, the flattening of
    :mod:`danet.dsp`.  There each F x T block of the product takes the
    bias and tanh in one scratch and goes back over itself frame-major.
    """
    z = w @ x
    r, t = z.shape
    if blocks is None:
        z += b
        return np.tanh(z, out=z)
    f = r // blocks
    scratch = np.empty((f, t))
    for zk, bk in zip(z.reshape(blocks, f * t), b.reshape(blocks, f, 1)):
        np.add(zk.reshape(f, t), bk, out=scratch)
        zk.reshape(t, f)[...] = np.tanh(scratch, out=scratch).T
    return z.reshape(blocks, t * f)


def dense_tanh_backward(w: np.ndarray, x: np.ndarray, value: np.ndarray,
                        g: np.ndarray, dw: np.ndarray, db: np.ndarray,
                        blocks: int | None = None, need_dx: bool = True):
    """The gradients of :func:`dense_tanh`, given ``g``, that of its
    output ``value``: dL/dw is written into ``dw``, dL/db into ``db``, and
    dL/dx is returned (None without ``need_dx``).

    The rule forms ``g * (1 - value**2)``.  For K blocks it does so in a
    scratch, block by block, written back over ``g`` in R x T order; a
    read-only or column-major ``g`` is copied first.
    """
    r, t = w.shape[0], x.shape[1]
    if blocks is None:
        dz = value * value
        np.subtract(1.0, dz, out=dz)
        dz *= g
    else:
        f = r // blocks
        scratch = np.empty((f, t))
        g = np.require(g, requirements="CW")   # a copy if not writable in place
        for vk, gk in zip(value, g):
            vk = vk.reshape(t, f).T
            np.multiply(vk, vk, out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            np.multiply(scratch, gk.reshape(t, f).T, out=scratch)
            gk.reshape(f, t)[...] = scratch
        dz = g.reshape(r, t)
    np.matmul(dz, x.T, out=dw)
    np.sum(dz, axis=1, keepdims=True, out=db)
    return w.T @ dz if need_dx else None
