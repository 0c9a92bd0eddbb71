"""The backward tape of a training step: fused nodes on numpy arrays.

A :class:`Tensor` holds an ndarray.  The leaves are the tensors made with
``requires_grad=True`` (the network's parameters).  Every other tensor is
the value of one fused node: a dense layer (:func:`dense_tanh`) or a whole
loss (:func:`fused`), computed by its caller on plain arrays, with one
closed-form backward rule that returns the gradient of each parent.
Calling ``backward()`` on a scalar result walks the recorded nodes in
reverse topological order and accumulates gradients on the leaves.  Every
node other than a leaf drops its gradient, its backward rule and its
parents once it has passed its gradient on, so the sweep frees the tape
as it goes: afterwards only the leaves hold gradients, and a graph can be
swept once.  Inside ``with no_grad():`` nodes record nothing, for forward
passes whose result feeds no ``backward()``.  A gradient is computed only
for parents that require one, so constants (the network's input features)
cost no backward work and keep ``grad is None``.  After ``grad = None``
a leaf's next dense-rule gradient is written into the array it had.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = ["Tensor", "no_grad", "fused", "dense_tanh"]

_recording = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Record no nodes on the tape while the block runs.

    Results computed inside are bitwise the same; they just carry no
    parents and no gradient requirement, so nothing is kept for a
    backward sweep.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """ndarray with a place on the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done",
                 "_held")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._done = False
        self._held = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Reverse-mode sweep from a scalar; may be called once per graph.

        Gradients land on the leaves; each other node is released as soon
        as it has passed its gradient on (see the module docstring).
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node._done:
                raise RuntimeError(
                    "backward() already called on this graph; rebuild it first"
                )
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    if g is not None and parent.requires_grad:
                        parent.grad = g if parent.grad is None else parent.grad + g
            # passed on: drop the gradient and the tape behind this node, so
            # each node's arrays go as soon as the sweep is past its users
            node.grad = None
            node._backward = None
            node._parents = ()
            node._done = True


def fused(value, parents: tuple, backward) -> Tensor:
    """A tape node whose ``value`` its caller computed on plain arrays.

    In the sweep, ``backward(g)`` receives the node's gradient and returns
    one gradient per parent, in order, or None for a parent that needs
    none.  A rule may overwrite the gradient it receives, so it hands each
    parent an array that nothing else reads, never one array to two
    parents.  The node keeps ``parents`` and ``backward`` (and so whatever
    the rule holds) only while recording and if some parent requires a
    gradient; otherwise it is a constant.
    """
    out = Tensor(value)
    out.requires_grad = _recording.get() and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _grad_out(t: Tensor) -> np.ndarray | None:
    """The array a rule writes the gradient of parent ``t`` into: for a
    leaf with no gradient yet in this sweep, the one it keeps across
    sweeps; otherwise None, a new array the sweep adds to the gradient."""
    if t._backward is None and t.grad is None:
        if t._held is None:
            t._held = np.empty(t.data.shape)
        return t._held
    return None


def dense_tanh(w: Tensor, x, b: Tensor, blocks: int | None = None) -> Tensor:
    """``tanh(w @ x + b)`` as one tape node.

    ``w`` is R x D, ``x`` (a Tensor, or a constant array) is D x T and
    ``b`` is R x 1.  The bias is added into the product's buffer and tanh
    runs in place on it.  With ``blocks=K`` the R = K*F rows are read as K
    blocks of F and the result is the K x T*F frame-major matrix: column
    ``t*F + f`` of block k holds row ``k*F + f`` of frame t, the
    flattening of :mod:`danet.dsp`.  There each F x T block of the product
    takes the bias and tanh in one scratch and goes back over itself
    frame-major.  The backward pass forms ``g * (1 - value**2)`` (for K
    blocks in that scratch, block by block, written back over ``g`` in
    R x T order) and a gradient only for the parents that require one.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    z = w.data @ x.data
    r, t = z.shape
    if blocks is None:
        z += b.data
        value = np.tanh(z, out=z)
    else:
        f = r // blocks
        scratch = np.empty((f, t))
        for zk, bk in zip(z.reshape(blocks, f * t), b.data.reshape(blocks, f, 1)):
            np.add(zk.reshape(f, t), bk, out=scratch)
            zk.reshape(t, f)[...] = np.tanh(scratch, out=scratch).T
        value = z.reshape(blocks, t * f)

    def backward(g):
        if blocks is None:
            dz = value * value
            np.subtract(1.0, dz, out=dz)
            dz *= g
        else:
            g = np.require(g, requirements="CW")   # a copy if not writable in place
            for vk, gk in zip(value, g):
                vk = vk.reshape(t, f).T
                np.multiply(vk, vk, out=scratch)
                np.subtract(1.0, scratch, out=scratch)
                np.multiply(scratch, gk.reshape(t, f).T, out=scratch)
                gk.reshape(f, t)[...] = scratch
            dz = g.reshape(r, t)
        return (np.matmul(dz, x.data.T, out=_grad_out(w)) if w.requires_grad else None,
                w.data.T @ dz if x.requires_grad else None,
                np.sum(dz, axis=1, keepdims=True, out=_grad_out(b))
                if b.requires_grad else None)

    return fused(value, (w, x, b), backward)
