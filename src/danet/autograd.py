"""Minimal reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ndarray and records the operations applied to
it; calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients on the leaves, the
tensors created with ``requires_grad=True``.  Every other node drops its
gradient, its backward rule and its parents once it has passed its
gradient on, so the sweep frees the tape as it goes: afterwards only the
leaves hold gradients, and a graph can be swept once.  Only the handful
of operations the separation pipeline needs are implemented; every
backward rule is covered by a finite-difference test.

``__array_ufunc__`` is disabled so that mixed expressions like
``ndarray - Tensor`` dispatch to the Tensor's reflected operators instead
of numpy's broadcasting machinery.  The module-level ``exp`` / ``tanh`` /
``sigmoid`` helpers accept plain ndarrays too, so the mask and loss
formulas can be written once and evaluated either numerically or under
the tape.  Inside ``with no_grad():`` operations record nothing, for
forward passes whose result feeds no ``backward()``.  A gradient is
computed only for parents that require one, so constants (the network's
input features, masks, weights) cost no backward work and keep
``grad is None``.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "exp", "tanh", "sigmoid", "dense_tanh",
           "raw"]

_recording = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Record no operations on the tape while the block runs.

    Results computed inside are bitwise the same; they just carry no
    parents and no gradient requirement, so nothing is kept for a
    backward sweep.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes that were broadcast in the forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """ndarray with a gradient tape."""

    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._done = False

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls(data)
        out.requires_grad = _recording.get() and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accum(self, g):
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g

    # -- introspection ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)

        def backward(out):
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(out.grad, other.data.shape))

        return Tensor._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(out):
            self._accum(-out.grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = as_tensor(other)

        def backward(out):
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-out.grad, other.data.shape))

        return Tensor._from_op(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)

        def backward(out):
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(out.grad * self.data, other.data.shape))

        return Tensor._from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)

        def backward(out):
            if self.requires_grad:
                self._accum(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-out.grad * self.data / (other.data * other.data),
                                 other.data.shape)
                )

        return Tensor._from_op(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(out):
            self._accum(out.grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(self.data ** exponent, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul is implemented for 2-D tensors only")

        def backward(out):
            if self.requires_grad:
                self._accum(out.grad @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ out.grad)

        return Tensor._from_op(self.data @ other.data, (self, other), backward)

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    # -- reductions and shape ops ------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._from_op(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def backward(out):
            self._accum(out.grad.reshape(old))

        return Tensor._from_op(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes=None):
        inv = None if axes is None else tuple(np.argsort(axes))

        def backward(out):
            self._accum(out.grad.transpose(inv))

        return Tensor._from_op(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        def backward(out):
            g = np.zeros_like(self.data)
            np.add.at(g, key, out.grad)
            self._accum(g)

        return Tensor._from_op(self.data[key], (self,), backward)

    # -- backward pass ---------------------------------------------------------

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
                node._backward(node)
            # passed on: drop the gradient and the tape behind this node, so
            # each node's arrays go as soon as the sweep is past its users
            node.grad = None
            node._backward = None
            node._parents = ()
            node._done = True


def as_tensor(value) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return value if isinstance(value, Tensor) else Tensor(value)


def raw(value) -> np.ndarray:
    """The plain ndarray behind a Tensor (or the input itself)."""
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    upper = 1.0 / (1.0 + np.exp(-np.abs(x)))  # exp(-|x|) never overflows
    return np.where(x >= 0, upper, 1.0 - upper)


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(x)

    value = np.exp(x.data)

    def backward(out):
        x._accum(out.grad * value)

    return Tensor._from_op(value, (x,), backward)


def tanh(x):
    if not isinstance(x, Tensor):
        return np.tanh(x)

    value = np.tanh(x.data)

    def backward(out):
        x._accum(out.grad * (1.0 - value * value))

    return Tensor._from_op(value, (x,), backward)


def sigmoid(x):
    if not isinstance(x, Tensor):
        return _stable_sigmoid(np.asarray(x, dtype=np.float64))

    value = _stable_sigmoid(x.data)

    def backward(out):
        x._accum(out.grad * value * (1.0 - value))

    return Tensor._from_op(value, (x,), backward)


def dense_tanh(w: Tensor, x, b: Tensor, blocks: int | None = None) -> Tensor:
    """``tanh(w @ x + b)`` as one tape node.

    ``w`` is R x D, ``x`` is D x T and ``b`` is R x 1.  The bias is added
    into the product's buffer and tanh runs in place on it, so the value
    is bitwise that of the three separate operations.  With ``blocks=K``
    the R = K*F rows are read as K blocks of F and the result is the
    K x T*F frame-major matrix: column ``t*F + f`` of block k holds row
    ``k*F + f`` of frame t, the flattening of :mod:`danet.dsp`.  There
    the bias add writes the frame-major buffer, so reordering costs no
    extra pass.  The backward pass forms ``g * (1 - value**2)`` in one
    buffer (frame-major, then reordered to R x T with one copy) and a
    gradient only for the parents that require one.
    """
    x = as_tensor(x)
    z = w.data @ x.data
    if blocks is None:
        z += b.data
    else:
        r, t = z.shape
        f = r // blocks
        framed = np.empty((blocks, t, f))
        np.add(z.reshape(blocks, f, t).transpose(0, 2, 1), b.data.reshape(blocks, 1, f),
               out=framed)
        z = framed.reshape(blocks, t * f)
    value = np.tanh(z, out=z)

    def backward(out):
        dz = value * value
        np.subtract(1.0, dz, out=dz)
        dz *= out.grad
        if blocks is not None:
            # copy() makes dz row-major even at K = 1, where reshaping the
            # transposed view alone gives a column-major view; row-major
            # keeps the gradients bitwise those of the op-by-op tape
            dz = dz.reshape(blocks, t, f).transpose(0, 2, 1).copy().reshape(blocks * f, t)
        if w.requires_grad:
            w._accum(dz @ x.data.T)
        if b.requires_grad:
            b._accum(dz.sum(axis=1, keepdims=True))
        if x.requires_grad:
            x._accum(w.data.T @ dz)

    return Tensor._from_op(value, (w, x, b), backward)
