"""Context-window embedding network and the Adam optimizer.

The encoder is a small feed-forward net: each spectrogram frame is
concatenated with its neighbours (edge frames replicated), pushed through
tanh hidden layers, and expanded to an embedding vector per frequency bin.
Input features are standardized per utterance before the first layer.
Everything is float64 and deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .autograd import dense_tanh, dense_tanh_backward
from .dsp import N_FREQ

__all__ = [
    "EmbedNetConfig",
    "EmbedNet",
    "AdamState",
    "adam_step",
    "standardize",
    "context_stack",
]


@dataclass(frozen=True)
class EmbedNetConfig:
    context: int = 2                       # frames on each side
    hidden_sizes: tuple = (128, 128)
    embed_dim: int = 20                    # K
    n_freq: int = N_FREQ                   # F rows of the input spectrogram
    mask_nl: str = "softmax"               # mask nonlinearity: softmax | sigmoid

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        rules = (("embed_dim", self.embed_dim >= 1, ">= 1"), ("n_freq", self.n_freq >= 1, ">= 1"),
                 ("context", self.context >= 0, ">= 0"),
                 ("hidden_sizes", all(h >= 1 for h in self.hidden_sizes), ">= 1 each"),
                 ("mask_nl", self.mask_nl in ("softmax", "sigmoid"), "'softmax' or 'sigmoid'"))
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"EmbedNetConfig.{name} must be {rule}, got "
                                 f"{getattr(self, name)!r}")

    @property
    def input_dim(self) -> int:
        return (2 * self.context + 1) * self.n_freq

    def param_shapes(self, n_anchors: int = 0) -> dict:
        """Expected array shapes, keyed by parameter name."""
        shapes = {}
        prev = self.input_dim
        for i, h in enumerate(self.hidden_sizes):
            shapes[f"w{i}"] = (h, prev)
            shapes[f"b{i}"] = (h, 1)
            prev = h
        shapes["w_out"] = (self.embed_dim * self.n_freq, prev)
        shapes["b_out"] = (self.embed_dim * self.n_freq, 1)
        if n_anchors > 0:
            shapes["anchors"] = (n_anchors, self.embed_dim)
        return shapes


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-frequency zero-mean / unit-variance over the utterance.

    Each frequency row is z-scored across frames so that no band
    dominates the input scale; constant rows map to zero.
    """
    mu = features.mean(axis=1, keepdims=True)
    sd = features.std(axis=1, keepdims=True)
    return (features - mu) / np.maximum(sd, 1e-8)


def context_stack(features: np.ndarray, context: int) -> np.ndarray:
    """Stack each frame with its neighbours: (F, T) -> ((2c+1)F, T).

    Edge frames are replicated so T is unchanged.  Each block is written
    by slices, in one pass over the output.
    """
    f, t = features.shape
    out = np.empty(((2 * context + 1) * f, t), dtype=features.dtype)
    for j, off in enumerate(range(-context, context + 1)):
        block = out[j * f : (j + 1) * f]
        lo = min(t, max(0, -off))          # frames before lo take frame 0
        hi = max(lo, min(t, t - off))      # frames from hi on take frame t-1
        block[:, lo:hi] = features[:, lo + off : hi + off]
        block[:, :lo] = features[:, :1]
        block[:, hi:] = features[:, -1:]
    return out


class EmbedNet:
    """Embedding network with named parameters and optional anchor points.

    Weights and biases initialize uniform(-0.05, 0.05), anchors
    uniform(-1, 1), all drawn in a fixed order from the seed.
    """

    def __init__(self, config: EmbedNetConfig, seed: int = 0, n_anchors: int = 0):
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, shape in config.param_shapes(n_anchors).items():
            bound = 1.0 if name == "anchors" else 0.05
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        self._hold(config, n_anchors, arrays)

    @classmethod
    def from_arrays(cls, config: EmbedNetConfig, arrays: dict,
                    n_anchors: int = 0) -> "EmbedNet":
        """A net whose parameters are ``arrays[name]``, drawing no
        initialization.  The arrays are held, not copied, and Adam updates
        them in place: pass copies of arrays that must stay as they are."""
        net = cls.__new__(cls)
        net._hold(config, n_anchors, arrays)
        return net

    def _hold(self, config: EmbedNetConfig, n_anchors: int, arrays: dict):
        self.config = config
        self.n_anchors = n_anchors
        self.params = {name: arrays[name] for name in config.param_shapes(n_anchors)}
        self.grads = {}   # name -> its gradient, in an array kept for the run

    @property
    def anchors(self) -> np.ndarray:
        if self.n_anchors == 0:
            raise ValueError("this model has no anchor points")
        return self.params["anchors"]

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def grad(self, name: str) -> np.ndarray:
        """The array ``grads`` keeps for parameter ``name``'s gradient."""
        if name not in self.grads:
            self.grads[name] = np.empty(self.params[name].shape)
        return self.grads[name]

    def _layers(self) -> list:
        """``(weight, bias, blocks)`` of each dense layer, input first."""
        hidden = [(f"w{i}", f"b{i}", None) for i in range(len(self.config.hidden_sizes))]
        return [*hidden, ("w_out", "b_out", self.config.embed_dim)]

    def embed(self, features: np.ndarray, acts: list | None = None) -> np.ndarray:
        """Embeddings for every T-F bin: (F, T) features -> (K, F*T) array.

        Column ``t*F + f`` holds the embedding of bin (f, t), matching the
        flattening convention in :mod:`danet.dsp`.  The embedding layer is
        tanh-bounded: squashing V into [-1, 1]^K keeps per-source bins in
        compact regions that euclidean clustering can recover.  The
        training forward passes a list ``acts``: each layer's input is
        appended to it, the first layer's first, and then V, for
        :meth:`backward`.
        """
        cfg = self.config
        f, t = features.shape
        if f != cfg.n_freq:
            raise ValueError(f"features have {f} rows, config expects {cfg.n_freq}")
        h = context_stack(standardize(features), cfg.context)
        for w, b, blocks in self._layers():
            if acts is not None:
                acts.append(h)
            h = dense_tanh(self.params[w], h, self.params[b], blocks)
        if acts is not None:
            acts.append(h)
        return h

    def backward(self, acts: list) -> None:
        """The layers' backward: :func:`danet.autograd.dense_tanh_backward`
        per layer, output layer first, into :meth:`grad`'s arrays.

        ``acts`` holds what :meth:`embed` appended and, on top, dL/dV,
        which is overwritten.  It is popped as the sweep passes, so each
        layer's arrays go once the sweep is done with them.
        """
        g, value = acts.pop(), acts.pop()
        for w, b, blocks in reversed(self._layers()):
            x = acts.pop()
            g = dense_tanh_backward(self.params[w], x, value, g, self.grad(w),
                                    self.grad(b), blocks, need_dx=bool(acts))
            value = x


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on parameters and moments.

    ``params`` and ``grads`` map names to arrays; a parameter without an
    entry in ``grads`` is treated as having a zero gradient.  Each
    parameter is updated a block of rows at a time through two scratch
    arrays, by the formula's operations in its order, so the result is
    bitwise that of the out-of-place update.
    """
    state.step += 1
    b1, b2, t = state.beta1, state.beta2, state.step
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        if state.m[name].shape != p.shape:
            raise ValueError(
                f"optimizer state for '{name}' has shape {state.m[name].shape}, "
                f"parameter has {p.shape}"
            )
        m, v, n, grad = state.m[name], state.v[name], len(p), grads.get(name)
        # blocks of 16384 entries: their slices and the scratch stay in cache
        rows = max(1, min(n, 16384 * n // max(p.size, 1)))
        s1, s2 = np.empty((2, rows, *p.shape[1:]))
        for i in range(0, n, rows):
            g = 0.0 if grad is None else grad[i : i + rows]
            x, mb, vb = (arr[i : i + rows] for arr in (p, m, v))
            a, b = s1[: len(x)], s2[: len(x)]
            mb *= b1
            mb += np.multiply(1 - b1, g, out=a)
            vb *= b2
            vb += np.multiply(np.multiply(g, g, out=b), 1 - b2, out=b)
            np.divide(mb, 1 - b1**t, out=a)
            a *= state.lr
            np.divide(vb, 1 - b2**t, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            x -= a
    return state
