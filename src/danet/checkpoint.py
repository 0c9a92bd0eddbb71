"""Binary model checkpoints: magic, version, JSON header, raw float64 arrays.

Layout::

    8 bytes   magic  b"DANCKPT\\0"
    uint32    format version (little-endian)
    uint32    header length in bytes
    header    UTF-8 JSON (sorted keys) with configs, counters, and an
              array manifest of (name, shape, offset)
    arrays    float64 little-endian, concatenated at the listed offsets

Arrays are stored at full precision and the encoding is deterministic, so
save -> load -> save reproduces identical bytes and resumed training
continues the original trajectory exactly.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import AdamState, EmbedNet, EmbedNetConfig, adam_step  # noqa: F401

__all__ = ["Checkpoint", "checkpoint_save", "checkpoint_load"]

_MAGIC = b"DANCKPT\0"
_VERSION = 1


@dataclass
class Checkpoint:
    """Everything needed to resume training or run inference."""

    model_kind: str                    # "danet" | "adanet"
    config: EmbedNetConfig
    n_anchors: int = 0
    slots: int = 0                     # adanet output slots (C_max)
    arrays: dict = field(default_factory=dict)
    adam: dict = field(default_factory=dict)      # lr/beta1/beta2/eps/step
    epoch: int = 0
    best_val_loss: float | None = None
    trainer: dict = field(default_factory=dict)   # phase + patience counters

    def build_net(self, best: bool = True) -> EmbedNet:
        """Instantiate the network from stored arrays.

        ``best=True`` loads the best-validation parameter set (inference);
        ``best=False`` loads the current training state (resume).
        """
        net = EmbedNet(self.config, seed=0, n_anchors=self.n_anchors)
        prefix = "best/" if best else "param/"
        for name in net.params:
            net.params[name].data = self.arrays[prefix + name].copy()
        return net

    def build_adam(self) -> AdamState:
        state = AdamState(
            lr=self.adam["lr"],
            beta1=self.adam["beta1"],
            beta2=self.adam["beta2"],
            eps=self.adam["eps"],
            step=self.adam["step"],
        )
        for key, arr in self.arrays.items():
            if key.startswith("adam_m/"):
                state.m[key[len("adam_m/"):]] = arr.copy()
            elif key.startswith("adam_v/"):
                state.v[key[len("adam_v/"):]] = arr.copy()
        return state

    @property
    def fixed_attractor_table(self) -> np.ndarray | None:
        arr = self.arrays.get("fixed_attractors")
        return None if arr is None else arr.copy()


def checkpoint_save(ckpt: Checkpoint, path) -> None:
    """Serialize a checkpoint; deterministic bytes for identical content."""
    names = sorted(ckpt.arrays)
    manifest = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "version": _VERSION,
        "model_kind": ckpt.model_kind,
        "config": {
            "context": ckpt.config.context,
            "hidden_sizes": list(ckpt.config.hidden_sizes),
            "embed_dim": ckpt.config.embed_dim,
            "n_freq": ckpt.config.n_freq,
            "nonlinearity": ckpt.config.nonlinearity,
            "mask_nl": ckpt.config.mask_nl,
        },
        "n_anchors": ckpt.n_anchors,
        "slots": ckpt.slots,
        "adam": ckpt.adam,
        "epoch": ckpt.epoch,
        "best_val_loss": ckpt.best_val_loss,
        "trainer": ckpt.trainer,
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def checkpoint_load(path) -> Checkpoint:
    """Read a checkpoint, validating version and every array shape."""
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 16:
        raise ValueError(
            f"{path}: truncated checkpoint header ({len(blob)} bytes, need 16)"
        )
    version, header_len = struct.unpack_from("<II", blob, 8)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if 16 + header_len > len(blob):
        raise ValueError(
            f"{path}: checkpoint header length {header_len} runs past end of "
            f"file ({len(blob)} bytes)"
        )
    header = json.loads(blob[16 : 16 + header_len].decode())
    cfg = EmbedNetConfig(
        context=header["config"]["context"],
        hidden_sizes=tuple(header["config"]["hidden_sizes"]),
        embed_dim=header["config"]["embed_dim"],
        n_freq=header["config"]["n_freq"],
        nonlinearity=header["config"]["nonlinearity"],
        mask_nl=header["config"]["mask_nl"],
    )
    data = blob[16 + header_len :]
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 8 * count
        if end > len(data):
            raise ValueError(
                f"{path}: array '{entry['name']}' extends past end of file"
            )
        arrays[entry["name"]] = (
            np.frombuffer(data[start:end], dtype="<f8").reshape(shape).copy()
        )

    expected = cfg.param_shapes(header["n_anchors"])
    for prefix in ("param/", "best/"):
        for name, shape in expected.items():
            key = prefix + name
            if key not in arrays:
                raise ValueError(f"{path}: missing array '{key}'")
            if arrays[key].shape != shape:
                raise ValueError(
                    f"{path}: array '{key}' has shape {arrays[key].shape}, "
                    f"config requires {shape}"
                )
    return Checkpoint(
        model_kind=header["model_kind"],
        config=cfg,
        n_anchors=header["n_anchors"],
        slots=header["slots"],
        arrays=arrays,
        adam=header["adam"],
        epoch=header["epoch"],
        best_val_loss=header["best_val_loss"],
        trainer=header["trainer"],
    )
