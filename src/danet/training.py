"""Curriculum training loop with validation-driven scheduling.

Training runs in two phases: short input chunks first, then long chunks
with the learning rate restarted at a lower value.  Within each phase the
rate is halved after 3 epochs without a new best validation loss; phase
one ends after 5 such epochs (or its epoch cap), phase two stops after 10
(or its cap).  The checkpoint written every epoch carries the full
optimizer and scheduler state, so an interrupted run resumed from disk
retraces the uninterrupted trajectory bit for bit.
"""

import ctypes
import sys
from dataclasses import dataclass, fields

import numpy as np

from .adanet import pit_loss, select_attractor_set
from .attractor import (
    estimate_masks,
    form_attractors,
    reconstruction_loss,
    similarity_scores,
    softmax_parts,
    threshold_vector,
)
from .autograd import Tensor
from .checkpoint import Checkpoint, TrainerState, checkpoint_load, checkpoint_save
from .dsp import (
    HOP,
    WINDOW_LEN,
    flatten_tf,
    log_magnitude,
    n_frames,
    stft,
)
from .inference import embed_mixture, fixed_attractors
from .masks import ibm, wfm
from .nn import AdamState, EmbedNet, EmbedNetConfig, adam_step
from .wavio import pcm_waveform, wav_read_pcm

__all__ = [
    "TrainSettings",
    "TrainerState",
    "TrainingDiverged",
    "train",
    "train_step",
    "training_loss",
    "load_corpus",
    "read_utterance",
]

# Epochs without a new best validation loss after which the learning rate
# halves, phase one ends, and phase two stops.
_PATIENCE_LR = 3
_PATIENCE_SWITCH = 5
_PATIENCE_STOP = 10


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; message records the step."""


# glibc's malloc_trim, or None on a C library without it.  Looked up once:
# every ctypes.CDLL builds a class, and with it reference cycles.
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if sys.platform.startswith("linux") else None)


def _release_freed_memory() -> None:
    """Return the heap pages freed by a training run to the OS.

    glibc keeps freed heap memory resident: after a run, about 5 MB of
    step working set on the benchmark's corpora (18-22 MB before Adam ran
    in place).  A caller's next large buffers fit its holes or add to it,
    so the process's peak moved by 13 MB from one identical run to the
    next.  malloc_trim drops those pages; on a C library without it this
    does nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@dataclass
class TrainSettings:
    model: str = "danet"              # danet | adanet
    anchors: int = 6                  # adanet anchor count
    slots: int | None = None          # adanet output slots; default max C in data
    q: float = 0.9
    lr: float = 1e-3                  # short-chunk phase
    lr_long: float = 1e-4             # long-chunk phase restart
    chunk_short: int = 100
    chunk_long: int = 400
    epochs_short: int = 4             # per-phase epoch caps
    epochs_long: int = 2
    context: int = EmbedNetConfig.context
    hidden_sizes: tuple = EmbedNetConfig.hidden_sizes
    embed_dim: int = EmbedNetConfig.embed_dim
    mask_nl: str = EmbedNetConfig.mask_nl
    seed: int = 0
    stop_after_epochs: int | None = None   # interrupt cleanly after N global epochs

    def embed_config(self) -> EmbedNetConfig:
        return EmbedNetConfig(
            context=self.context,
            hidden_sizes=tuple(self.hidden_sizes),
            embed_dim=self.embed_dim,
            mask_nl=self.mask_nl,
        )

    def __post_init__(self):
        """Refuse, naming the field, a setting no corpus could train with."""
        if not (0 < self.q <= 1):
            raise ValueError(f"TrainSettings.q must lie in (0, 1], got {self.q!r}")
        for name in ("chunk_short", "chunk_long", "epochs_short", "epochs_long", "slots"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"TrainSettings.{name} must be >= 1, got {value!r}")
        self.embed_config()   # EmbedNetConfig refuses a bad architecture field


def load_corpus(rows: list) -> list:
    """Check the signals behind dataset index rows and describe them
    without holding them.

    Every file is read once here, so a bad WAV raises ValueError naming
    it before training writes anything.  Of each row only its paths (the
    mixture first), its sample count ``n`` and its source count ``C`` are
    kept; :func:`read_utterance` reads the samples again when a step
    transforms them, so a run's memory does not grow with its corpus.
    """
    corpus = []
    for row in rows:
        paths = [row["mixture_path"], *row["source_paths"]]
        n = len(wav_read_pcm(paths[0]))
        for path in paths[1:]:
            wav_read_pcm(path)
        corpus.append({"paths": paths, "n": n, "C": len(paths) - 1})
    return corpus


def read_utterance(item: dict) -> dict:
    """The int16 PCM, 2 bytes a sample, of a :func:`load_corpus` item:
    ``{"mix": samples, "sources": [samples, ...]}``.  A step converts only
    the samples it transforms (:func:`danet.wavio.pcm_waveform`)."""
    mix, *sources = (wav_read_pcm(path) for path in item["paths"])
    return {"mix": mix, "sources": sources}


def _utterance_mags(pcm: dict, frames: tuple | None = None) -> tuple:
    """Magnitude spectrograms (mix F x T, sources C x F x T) of the PCM of
    one utterance (:func:`read_utterance`), whole or of its ``frames =
    (start, length)``.  A chunk converts and transforms only the samples
    under its frames, which gives bitwise the columns of the whole
    utterance's spectrogram."""
    def mag(samples: np.ndarray) -> np.ndarray:
        if frames is not None:
            start, length = frames
            samples = samples[start * HOP : (start + length - 1) * HOP + WINDOW_LEN]
        return np.abs(stft(pcm_waveform(samples)))

    return mag(pcm["mix"]), np.stack([mag(s) for s in pcm["sources"]])


def _chunks(frames: int, length: int) -> list:
    """Non-overlapping ``(start, length)`` chunks from frame 0; an utterance
    no longer than ``length`` is one chunk.  The last ``frames % length``
    frames are skipped (47 of 247 in phase 1): a remainder chunk would
    change every model's trajectory."""
    if frames <= length:
        return [(0, frames)]
    return [(s, length) for s in range(0, frames - length + 1, length)]


def training_loss(net: EmbedNet, mix_mag: np.ndarray, source_mags: np.ndarray,
                  q: float = 0.9, slots: int | None = None, record: bool = True) -> Tensor:
    """Differentiable reconstruction loss of one chunk, for either model.

    ``mix_mag`` is the F x T mixture magnitude, ``source_mags`` is
    C x F x T, and the target is the sources' Wiener-like mask.  A net
    without anchors (DANet) takes the assignment Y from the sources' ideal
    binary mask and scores its masks in source order.  A net with anchors
    (ADANet) fills ``slots`` outputs (default C): sources it lacks get
    all-zero target masks, the attractors are those of the anchor subset
    that wins selection on the embeddings, and the loss is minimized over
    target permutations.  Everything after the embedding is one loss
    node (:func:`_loss_node`).  With ``record=False`` (validation) the
    forward keeps nothing for a backward, and the result is the loss alone.
    """
    anchored = net.n_anchors > 0
    c = len(source_mags)
    slots = slots or c
    if anchored and c > slots:
        raise ValueError(f"{c} sources exceed the {slots} output slots")
    src_flat = np.stack([flatten_tf(s) for s in source_mags])
    x_flat = flatten_tf(mix_mag)
    target = wfm(src_flat)
    acts = [] if record else None
    v = net.embed(log_magnitude(mix_mag), acts)
    w = threshold_vector(x_flat, q)
    if not anchored:
        y = ibm(src_flat)
        return _loss_node(net, v, acts, x_flat, target, w, form_attractors(v, y, w), y=y)
    target = np.vstack([target, np.zeros((slots - c, target.shape[1]))])
    selection = select_attractor_set(net.anchors, v, w, slots)
    return _loss_node(net, v, acts, x_flat, target, w, selection.attractors,
                      rows=list(selection.subset))


def _loss_node(net: EmbedNet, vd: np.ndarray, acts: list | None, x: np.ndarray,
               target: np.ndarray, w: np.ndarray, a: np.ndarray,
               y: np.ndarray | None = None, rows: list | None = None) -> Tensor:
    """The loss after the embeddings ``vd``, with its rule when the
    forward kept ``acts`` (V last) for the backward.

    ``a`` are the attractors: DANet's from its oracle assignment ``y``,
    ADANet's those of the anchor ``rows`` of ``net.anchors`` that won
    selection (the backward pass rebuilds that subset's assignment, bitwise
    as the selection built it).  The loss pairs each target with one
    estimate: DANet's with the same-index one, ADANet's as the PIT winner
    does, and only that pairing is differentiated.  The backward rules are
    the closed forms of the formulas in :mod:`danet.attractor`, each
    product and sum in the order the chain rule takes them one operation
    at a time, so the gradients are bitwise that chain's.  The rule writes
    dL/d(anchors) for ADANet and returns dL/dV; it holds only what it
    reads, and :meth:`Tensor.backward` drops it once it has run.
    """
    nl, anchored = net.config.mask_nl, rows is not None
    d = similarity_scores(a, vd)
    if nl == "softmax":
        e, s = softmax_parts(d)
        masks = e / s
    else:
        masks = estimate_masks(d, nl)
    if not anchored:
        loss, perm = reconstruction_loss(x, target, masks), range(len(masks))
    else:
        loss, perm = pit_loss(x, target, masks)
    if acts is None:
        return Tensor(loss)
    x, w = x.reshape(1, -1), w.reshape(1, -1)

    def rule():
        # loss = (1/C) * sum over the pairs of ||x * (target - mask)||^2
        paired = np.empty_like(target)
        paired[list(perm)] = target            # estimate perm[i] meets target i
        dm = x * (paired - masks)
        dm *= 2 / len(masks)
        dm *= x
        np.negative(dm, out=dm)
        # masks of the scores d = a @ V
        dd = _softmax_backward(dm, e, s) if nl == "softmax" else dm * masks * (1.0 - masks)
        dv = a.T @ dd
        da = dd @ vd.T
        # a = (weights @ V.T) / mass, weights = Y * w, mass their row sums
        if not anchored:
            weights = y * w
        else:
            chosen = net.anchors[rows]
            e0, s0 = softmax_parts(chosen @ vd)   # Y = e0 / s0
            weights = (e0 / s0) * w
        mass = weights.sum(axis=1, keepdims=True)
        dnum = da / mass
        dv += (weights.T @ dnum).T
        if not anchored:
            return dv
        dweights = dnum @ vd
        dweights += ((-da) * (weights @ vd.T) / (mass * mass)).sum(axis=1, keepdims=True)
        dweights *= w
        # Y is the softmax of chosen @ V
        dd0 = _softmax_backward(dweights, e0, s0)
        dv += chosen.T @ dd0
        danchors = net.grad("anchors")
        danchors[...] = 0.0
        danchors[rows] += dd0 @ vd.T
        return dv

    return Tensor(loss, rule, net, acts)


def _softmax_backward(dm: np.ndarray, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient of the scores behind the softmax masks ``e / s``
    (:func:`danet.attractor.softmax_parts`) given the masks' gradient."""
    dd = dm / s
    dd += ((-dm) * e / (s * s)).sum(axis=0, keepdims=True)
    dd *= e
    return dd


def train_step(net: EmbedNet, opt: AdamState, mix_mag: np.ndarray,
               source_mags: np.ndarray, q: float = 0.9,
               slots: int | None = None) -> float:
    """One Adam step on :func:`training_loss`; returns the loss."""
    loss = training_loss(net, mix_mag, source_mags, q, slots)
    loss.backward()
    adam_step(net.params, net.grads, opt)
    return loss.item()


def _validation_loss(net, settings, slots, corpus) -> float:
    """Mean per-bin loss over the validation utterances, fixed order."""
    total = 0.0
    for item in corpus:
        mix_mag, src_mags = _utterance_mags(read_utterance(item))
        loss = training_loss(net, mix_mag, src_mags, settings.q, slots, record=False)
        total += loss.item() / mix_mag.size
    return total / len(corpus)


def _fixed_attractor_table(net, settings, corpus, slots) -> np.ndarray | None:
    """Average the oracle-assignment attractors of matching train utterances."""
    sets = []
    for item in corpus:
        if item["C"] != slots:
            continue
        pcm = read_utterance(item)
        _, v, w = embed_mixture(net, pcm_waveform(pcm["mix"]), settings.q)
        y = ibm(np.stack([flatten_tf(np.abs(stft(pcm_waveform(s))))
                          for s in pcm["sources"]]))
        try:
            sets.append(form_attractors(v, y, w))
        except ValueError:
            continue
    return fixed_attractors(sets) if sets else None


def _output_slots(settings: TrainSettings, max_c: int) -> int:
    """Output slots of the model ``settings`` build for data with at most
    ``max_c`` sources; a setting no model can train raises ValueError
    naming the field."""
    if settings.model not in ("danet", "adanet"):
        raise ValueError(
            f"TrainSettings.model must be 'danet' or 'adanet', got {settings.model!r}")
    if settings.model == "danet":
        return max_c  # a DANet forms one attractor per source
    slots = settings.slots or max_c
    if slots < max_c:
        raise ValueError(f"TrainSettings.slots={slots} is below the {max_c} "
                         f"sources of the largest training mixture")
    if settings.anchors < slots:
        raise ValueError(f"TrainSettings.anchors={settings.anchors} is below the "
                         f"{slots} output slots")
    return slots


def _check_resume(ckpt: Checkpoint, path, settings: TrainSettings, slots: int,
                  n_anchors: int) -> None:
    """Refuse to resume a checkpoint of another model than ``settings`` build."""
    if ckpt.model_kind != settings.model:
        raise ValueError(
            f"{path}: checkpoint model_kind {ckpt.model_kind!r} does not "
            f"match the requested model {settings.model!r}"
        )
    config = settings.embed_config()
    pairs = {f"config.{f.name}": (getattr(ckpt.config, f.name), getattr(config, f.name))
             for f in fields(config)}
    pairs["n_anchors"] = (ckpt.n_anchors, n_anchors)
    pairs["slots"] = (ckpt.slots, slots)
    for name, (stored, requested) in pairs.items():
        if stored != requested:
            raise ValueError(f"{path}: checkpoint {name} is {stored!r}, the "
                             f"settings give {requested!r}")


def _epoch_zero(settings: TrainSettings, slots: int, n_anchors: int) -> Checkpoint:
    """The checkpoint a fresh run starts from: the seeded net, zero Adam
    moments, the best parameters equal to the current ones, no epoch run."""
    net = EmbedNet(settings.embed_config(), seed=settings.seed, n_anchors=n_anchors)
    return Checkpoint.of_training(settings.model, slots, net, AdamState(lr=settings.lr),
                                  dict(net.params), None, 0, TrainerState())


def train(
    train_rows: list,
    val_rows: list,
    settings: TrainSettings,
    ckpt_path,
    log_path,
    resume: bool = False,
) -> Checkpoint:
    """Train a model over the corpus, writing a checkpoint and a CSV log.

    A fresh run starts from the epoch-0 checkpoint; with ``resume=True``
    the checkpoint at ``ckpt_path`` is loaded instead, and the log file is
    appended.  Returns the final checkpoint (best parameters included).
    """
    train_corpus = load_corpus(train_rows)
    val_corpus = load_corpus(val_rows)
    if not train_corpus or not val_corpus:
        raise ValueError("training and validation splits must be non-empty")
    slots = _output_slots(settings, max(item["C"] for item in train_corpus))
    n_anchors = settings.anchors if settings.model == "adanet" else 0
    if resume:
        ckpt = checkpoint_load(ckpt_path)
        _check_resume(ckpt, ckpt_path, settings, slots, n_anchors)
    else:
        ckpt = _epoch_zero(settings, slots, n_anchors)
    net, opt, best = ckpt.build_net(best=False), ckpt.build_adam(), ckpt.best_arrays
    best_val, epoch, state = ckpt.best_val_loss, ckpt.epoch, ckpt.trainer
    del ckpt  # held through the loop, it would pin the first parameters and moments

    def save(fixed_table=None) -> Checkpoint:
        saved = Checkpoint.of_training(settings.model, slots, net, opt, best,
                                       best_val, epoch, state, fixed_table)
        checkpoint_save(saved, ckpt_path)
        return saved

    with open(log_path, "a" if resume else "w") as log_fh:
        if not resume:
            log_fh.write("epoch,phase,lr,train_loss,val_loss,new_best\n")
        while not state.done:
            if (settings.stop_after_epochs is not None
                    and epoch >= settings.stop_after_epochs):
                break
            epoch += 1
            state.epoch_in_phase += 1
            # Adam steps in place: move the parameters off the best snapshot
            if any(p is best[name] for name, p in net.params.items()):
                net.params = {name: p.copy() for name, p in net.params.items()}
            chunk_len = (settings.chunk_short if state.phase == 1
                         else settings.chunk_long)

            order = []
            for utt_idx, item in enumerate(train_corpus):
                for start, length in _chunks(n_frames(item["n"]), chunk_len):
                    order.append((utt_idx, start, length))
            rng = np.random.default_rng(
                np.random.SeedSequence([settings.seed, epoch]))
            rng.shuffle(order)

            train_loss = 0.0
            for step, (utt_idx, start, length) in enumerate(order):
                mix_chunk, src_chunk = _utterance_mags(
                    read_utterance(train_corpus[utt_idx]), (start, length))
                loss = train_step(net, opt, mix_chunk, src_chunk, settings.q, slots)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, step {step}")
                train_loss += loss / mix_chunk.size
            train_loss /= max(len(order), 1)

            val_loss = _validation_loss(net, settings, slots, val_corpus)
            if not np.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")

            improved = best_val is None or val_loss < best_val
            if improved:
                best_val = val_loss
                best = dict(net.params)
                state.since_best = 0
                state.since_best_lr = 0
            else:
                state.since_best += 1
                state.since_best_lr += 1

            log_fh.write(
                f"{epoch},{state.phase},{opt.lr!r},"
                f"{train_loss!r},{val_loss!r},{int(improved)}\n"
            )
            log_fh.flush()

            if state.since_best_lr >= _PATIENCE_LR:
                opt.lr = opt.lr / 2.0
                state.since_best_lr = 0

            if state.phase == 1:
                if (state.since_best >= _PATIENCE_SWITCH
                        or state.epoch_in_phase >= settings.epochs_short):
                    state.phase = 2
                    state.epoch_in_phase = 0
                    state.since_best = 0
                    state.since_best_lr = 0
                    opt.lr = settings.lr_long
            else:
                if (state.since_best >= _PATIENCE_STOP
                        or state.epoch_in_phase >= settings.epochs_long):
                    state.done = True

            save()

    # Table of averaged oracle attractors for the fixed-attractor strategy.
    fixed_table = None
    if settings.model == "danet":
        best_net = EmbedNet.from_arrays(net.config, best, net.n_anchors)
        fixed_table = _fixed_attractor_table(best_net, settings, train_corpus, slots)
    saved = save(fixed_table)
    _release_freed_memory()
    return saved
