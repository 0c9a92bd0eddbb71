"""Context-window embedding network and the Adam optimizer.

The encoder is a small feed-forward net: each spectrogram frame is
concatenated with its neighbours (edge frames replicated), pushed through
tanh hidden layers, and expanded to an embedding vector per frequency bin.
Input features are standardized per utterance before the first layer.
Everything is float64 and deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, dense_tanh
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
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.context < 0:
            raise ValueError("context must be >= 0")
        if self.mask_nl not in ("softmax", "sigmoid"):
            raise ValueError("mask_nl must be 'softmax' or 'sigmoid'")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))

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
        self.params: dict[str, Tensor] = {
            name: Tensor(arrays[name], requires_grad=True)
            for name in config.param_shapes(n_anchors)
        }

    @property
    def anchors(self) -> Tensor:
        if self.n_anchors == 0:
            raise ValueError("this model has no anchor points")
        return self.params["anchors"]

    def n_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def embed(self, features: np.ndarray) -> Tensor:
        """Embeddings for every T-F bin: (F, T) features -> (K, F*T) tensor.

        Column ``t*F + f`` holds the embedding of bin (f, t), matching the
        flattening convention in :mod:`danet.dsp`.  The embedding layer is
        tanh-bounded: squashing V into [-1, 1]^K keeps per-source bins in
        compact regions that euclidean clustering can recover.
        """
        cfg = self.config
        f, t = features.shape
        if f != cfg.n_freq:
            raise ValueError(f"features have {f} rows, config expects {cfg.n_freq}")
        h = context_stack(standardize(features), cfg.context)  # constant input
        for i in range(len(cfg.hidden_sizes)):
            h = dense_tanh(self.params[f"w{i}"], h, self.params[f"b{i}"])
        return dense_tanh(self.params["w_out"], h, self.params["b_out"],
                          blocks=cfg.embed_dim)


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on parameters and moments.

    Parameters with no accumulated gradient this step are treated as
    having a zero gradient.  Each parameter is updated a block of rows at a
    time through two scratch arrays, by the formula's operations in its
    order, so the result is bitwise that of the out-of-place update.
    """
    state.step += 1
    b1, b2, t = state.beta1, state.beta2, state.step
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if state.m[name].shape != p.data.shape:
            raise ValueError(
                f"optimizer state for '{name}' has shape {state.m[name].shape}, "
                f"parameter has {p.data.shape}"
            )
        m, v, n = state.m[name], state.v[name], len(p.data)
        # blocks of 16384 entries: their slices and the scratch stay in cache
        rows = max(1, min(n, 16384 * n // max(p.data.size, 1)))
        s1, s2 = np.empty((2, rows, *p.data.shape[1:]))
        for i in range(0, n, rows):
            g = 0.0 if p.grad is None else p.grad[i : i + rows]
            x, mb, vb = (arr[i : i + rows] for arr in (p.data, m, v))
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
