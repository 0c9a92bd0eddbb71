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
import math
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
    unread: tuple = ()                 # arrays an inference load left on disk

    @classmethod
    def of_training(cls, model_kind: str, slots: int, net: EmbedNet,
                    opt: AdamState, best: dict, best_val_loss: float | None,
                    epoch: int, trainer: dict,
                    fixed_table: np.ndarray | None = None) -> "Checkpoint":
        """The full training state: ``net``'s current parameters, the
        ``best`` parameter arrays by name, and ``opt``'s moments (zero for
        a parameter Adam has not stepped yet).

        The arrays are held, not copied: Adam rebinds parameters and
        moments and never writes into an array it held."""
        arrays = {}
        for name, p in net.params.items():
            arrays[f"param/{name}"] = p.data
            arrays[f"best/{name}"] = best[name]
            arrays[f"adam_m/{name}"] = opt.m.get(name, np.zeros_like(p.data))
            arrays[f"adam_v/{name}"] = opt.v.get(name, np.zeros_like(p.data))
        if fixed_table is not None:
            arrays["fixed_attractors"] = np.asarray(fixed_table)
        return cls(
            model_kind=model_kind,
            config=net.config,
            n_anchors=net.n_anchors,
            slots=slots,
            arrays=arrays,
            adam={"lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2,
                  "eps": opt.eps, "step": opt.step},
            epoch=epoch,
            best_val_loss=best_val_loss,
            trainer=trainer,
        )

    @property
    def best_arrays(self) -> dict:
        """The best-validation parameter arrays by name, without a copy."""
        return self._params("best/")

    def build_net(self, best: bool = True) -> EmbedNet:
        """Instantiate the network from stored arrays.

        ``best=True`` loads the best-validation parameter set (inference);
        ``best=False`` loads the current training state (resume).  The
        net holds the stored arrays themselves, without a copy.
        """
        if not best:
            self._require_all_arrays("build the current training state")
        arrays = self.best_arrays if best else self._params("param/")
        return EmbedNet.from_arrays(self.config, arrays, self.n_anchors)

    def _params(self, prefix: str) -> dict:
        return {name: self.arrays[prefix + name]
                for name in self.config.param_shapes(self.n_anchors)}

    def build_adam(self) -> AdamState:
        self._require_all_arrays("build the optimizer state")
        state = AdamState(
            lr=self.adam["lr"],
            beta1=self.adam["beta1"],
            beta2=self.adam["beta2"],
            eps=self.adam["eps"],
            step=self.adam["step"],
        )
        for key, arr in self.arrays.items():
            if key.startswith("adam_m/"):
                state.m[key[len("adam_m/"):]] = arr
            elif key.startswith("adam_v/"):
                state.v[key[len("adam_v/"):]] = arr
        return state

    def _require_all_arrays(self, action: str) -> None:
        if self.unread:
            groups = sorted({name.split("/")[0] + "/*" if "/" in name else name
                             for name in self.unread})
            raise ValueError(
                f"cannot {action}: the checkpoint was loaded for inference, "
                f"without {', '.join(groups)}"
            )

    @property
    def fixed_attractor_table(self) -> np.ndarray | None:
        arr = self.arrays.get("fixed_attractors")
        return None if arr is None else arr.copy()


def checkpoint_save(ckpt: Checkpoint, path) -> None:
    """Serialize a checkpoint; deterministic bytes for identical content."""
    ckpt._require_all_arrays("save it")
    manifest = []
    offset = 0
    data = []  # each array is written from its own buffer, not a bytes copy
    for name in sorted(ckpt.arrays):
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        data.append(arr)
        offset += arr.nbytes
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
            for arr in data:
                fh.write(arr.reshape(-1).view(np.uint8))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_load(path, *, inference: bool = False) -> Checkpoint:
    """Read a checkpoint, validating version, header fields and every
    array's shape and extent; anything malformed raises ValueError naming
    the field.

    Each array is read once, straight from its offset.  ``inference=True``
    reads only the ``best/`` parameters and the fixed-attractor table; the
    other arrays are validated from the manifest but left unread, and the
    result refuses to resume training or to be saved.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if preamble[:8] != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        if len(preamble) < 16:
            raise ValueError(
                f"{path}: truncated checkpoint header ({size} bytes, need 16)"
            )
        version, header_len = struct.unpack_from("<II", preamble, 8)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        data_start = 16 + header_len
        if data_start > size:
            raise ValueError(
                f"{path}: checkpoint header length {header_len} runs past end of "
                f"file ({size} bytes)"
            )
        header = json.loads(fh.read(header_len).decode())
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        where = f"{path}: checkpoint header"
        config = _field(header, "config", dict, where)
        where_cfg = f"{where} config"
        # version-1 files written before the field was dropped carry "tanh"
        if config.get("nonlinearity", "tanh") != "tanh":
            raise ValueError(f"{where_cfg}: field 'nonlinearity' must be 'tanh'")
        hidden = _field(config, "hidden_sizes", list, where_cfg)
        if not all(_is_int(h) and h > 0 for h in hidden):
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

        manifest = _manifest(header, size - data_start, path)
        for prefix in ("param/", "best/"):
            for name, shape in cfg.param_shapes(n_anchors).items():
                key = prefix + name
                if key not in manifest:
                    raise ValueError(f"{path}: missing array '{key}'")
                if manifest[key][0] != shape:
                    raise ValueError(
                        f"{path}: array '{key}' has shape {manifest[key][0]}, "
                        f"config requires {shape}"
                    )

        arrays = {}
        for name, (shape, start) in manifest.items():
            if inference and not (name.startswith("best/")
                                  or name == "fixed_attractors"):
                continue
            arr = np.empty(shape, dtype="<f8")
            fh.seek(data_start + start)
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: array '{name}' is cut short")
            arrays[name] = arr
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
        unread=tuple(sorted(set(manifest) - set(arrays))),
    )


def _manifest(header: dict, data_len: int, path) -> dict:
    """The header's array manifest as ``name -> (shape, offset)``.

    Every entry must name a new array, have non-negative integer dims and
    offset, and lie inside the ``data_len`` bytes after the header; no two
    non-empty arrays may share a byte.
    """
    where = f"{path}: checkpoint header"
    manifest = {}
    extents = []
    for entry in _field(header, "arrays", list, where):
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: field 'arrays' holds {entry!r}, not an object")
        name = _field(entry, "name", str, f"{where} arrays entry")
        where_arr = f"{path}: array '{name}'"
        if name in manifest:
            raise ValueError(f"{where_arr}: field 'name' repeats an earlier entry")
        shape = tuple(_field(entry, "shape", list, where_arr))
        if not all(_is_int(d) and d >= 0 for d in shape):
            raise ValueError(f"{where_arr}: field 'shape' is malformed")
        start = _field(entry, "offset", int, where_arr)
        if start < 0:
            raise ValueError(f"{where_arr}: field 'offset' is negative ({start})")
        end = start + 8 * math.prod(shape)
        if end > data_len:
            raise ValueError(
                f"{where_arr}: fields 'offset' and 'shape' reach data byte "
                f"{end}, past the {data_len} bytes after the header"
            )
        manifest[name] = (shape, start)
        if end > start:
            extents.append((start, end, name))
    extents.sort()
    for (_, prev_end, prev), (start, _, name) in zip(extents, extents[1:]):
        if start < prev_end:
            raise ValueError(
                f"{path}: array '{name}': field 'offset' overlaps array '{prev}'"
            )
    return manifest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(block: dict, key: str, kind, where: str):
    """``block[key]`` if present and an instance of ``kind`` (never a
    bool); else a ValueError naming the field."""
    if (key not in block or isinstance(block[key], bool)
            or not isinstance(block[key], kind)):
        raise ValueError(f"{where}: field '{key}' is missing or malformed")
    return block[key]
