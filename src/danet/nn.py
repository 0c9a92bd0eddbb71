"""Context-window embedding network and the Adam optimizer.

The encoder is a small feed-forward net: each spectrogram frame is
concatenated with its neighbours (edge frames replicated), pushed through
tanh hidden layers, and expanded to an embedding vector per frequency bin.
Input features are standardized per utterance before the first layer.
Everything is float64 and deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, tanh
from .dsp import N_FREQ

__all__ = [
    "EmbedNetConfig",
    "EmbedNet",
    "AdamState",
    "adam_step",
    "lr_schedule",
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

    Edge frames are replicated so T is unchanged.
    """
    f, t = features.shape
    blocks = []
    for off in range(-context, context + 1):
        idx = np.clip(np.arange(t) + off, 0, t - 1)
        blocks.append(features[:, idx])
    return np.concatenate(blocks, axis=0)


class EmbedNet:
    """Embedding network with named parameters and optional anchor points.

    Weights and biases initialize uniform(-0.05, 0.05), anchors
    uniform(-1, 1), all drawn in a fixed order from the seed.
    """

    def __init__(self, config: EmbedNetConfig, seed: int = 0, n_anchors: int = 0):
        self.config = config
        self.seed = seed
        self.n_anchors = n_anchors
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in config.param_shapes(n_anchors).items():
            if name == "anchors":
                init = rng.uniform(-1.0, 1.0, size=shape)
            else:
                init = rng.uniform(-0.05, 0.05, size=shape)
            self.params[name] = Tensor(init, requires_grad=True)

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
        x = context_stack(standardize(features), cfg.context)
        h = Tensor(x)  # constant input
        for i in range(len(cfg.hidden_sizes)):
            h = tanh(self.params[f"w{i}"] @ h + self.params[f"b{i}"])
        out = tanh(self.params["w_out"] @ h + self.params["b_out"])  # (K*F, T)
        return (
            out.reshape(cfg.embed_dim, f, t)
            .transpose((0, 2, 1))
            .reshape(cfg.embed_dim, f * t)
        )


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
    """One bias-corrected Adam update, in place on the parameter tensors.

    Parameters with no accumulated gradient this step are treated as
    having a zero gradient.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if state.m[name].shape != p.data.shape:
            raise ValueError(
                f"optimizer state for '{name}' has shape {state.m[name].shape}, "
                f"parameter has {p.data.shape}"
            )
        g = p.grad if p.grad is not None else 0.0
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * (g * g)
        m_hat = state.m[name] / (1 - state.beta1**t)
        v_hat = state.v[name] / (1 - state.beta2**t)
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


def lr_schedule(state: AdamState, epochs_since_best: int,
                patience: int = 3) -> AdamState:
    """Halve the learning rate once no new best has appeared for
    ``patience`` epochs.

    The caller resets its own counter when the rate changes.
    """
    if epochs_since_best >= patience:
        state.lr = state.lr / 2.0
    return state
