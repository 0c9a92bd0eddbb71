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
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import AdamState, EmbedNet, EmbedNetConfig

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
    # Write a sibling file, then rename it over the target in one step, so
    # an interrupted save leaves the previous checkpoint intact.
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_load(path) -> Checkpoint:
    """Read a checkpoint, validating version, header fields and every
    array shape; anything malformed raises ValueError naming the field."""
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
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    where = f"{path}: checkpoint header"
    config = _field(header, "config", dict, where)
    where_cfg = f"{where} config"
    # version-1 files written before the field was dropped carry "tanh"
    if config.get("nonlinearity", "tanh") != "tanh":
        raise ValueError(f"{where_cfg}: field 'nonlinearity' must be 'tanh'")
    hidden = _field(config, "hidden_sizes", list, where_cfg)
    if not all(isinstance(h, int) and h > 0 for h in hidden):
        raise ValueError(f"{where_cfg}: field 'hidden_sizes' is malformed")
    cfg = EmbedNetConfig(
        context=_field(config, "context", int, where_cfg),
        hidden_sizes=tuple(hidden),
        embed_dim=_field(config, "embed_dim", int, where_cfg),
        n_freq=_field(config, "n_freq", int, where_cfg),
        mask_nl=_field(config, "mask_nl", str, where_cfg),
    )
    adam = _field(header, "adam", dict, where)
    for key in ("lr", "beta1", "beta2", "eps"):
        _field(adam, key, (int, float), f"{where} adam")
    _field(adam, "step", int, f"{where} adam")
    n_anchors = _field(header, "n_anchors", int, where)

    data = blob[16 + header_len :]
    arrays = {}
    for entry in _field(header, "arrays", list, where):
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: field 'arrays' holds {entry!r}, not an object")
        name = _field(entry, "name", str, f"{where} arrays entry")
        where_arr = f"{path}: array '{name}'"
        shape = tuple(_field(entry, "shape", list, where_arr))
        if not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ValueError(f"{where_arr}: field 'shape' is malformed")
        start = _field(entry, "offset", int, where_arr)
        if start < 0:
            raise ValueError(f"{where_arr}: field 'offset' is negative ({start})")
        count = int(np.prod(shape)) if shape else 1
        end = start + 8 * count
        if end > len(data):
            raise ValueError(f"{where_arr}: extends past end of file")
        arrays[name] = (
            np.frombuffer(data[start:end], dtype="<f8").reshape(shape).copy()
        )

    expected = cfg.param_shapes(n_anchors)
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
        model_kind=_field(header, "model_kind", str, where),
        config=cfg,
        n_anchors=n_anchors,
        slots=_field(header, "slots", int, where),
        arrays=arrays,
        adam=adam,
        epoch=_field(header, "epoch", int, where),
        best_val_loss=_field(header, "best_val_loss", (int, float, type(None)), where),
        trainer=_field(header, "trainer", dict, where),
    )


def _field(block: dict, key: str, kind, where: str):
    """``block[key]`` if present and an instance of ``kind``; else a
    ValueError naming the field."""
    if key not in block or not isinstance(block[key], kind):
        raise ValueError(f"{where}: field '{key}' is missing or malformed")
    return block[key]
