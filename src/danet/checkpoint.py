"""Binary model checkpoints: magic, version, JSON header, raw float64 arrays.

Layout::

    8 bytes   magic  b"DANCKPT\\0"
    uint32    format version (little-endian)
    uint32    header length in bytes
    header    UTF-8 JSON (sorted keys) with configs, counters, and an
              array manifest of (name, shape, offset)
    arrays    float64 little-endian, concatenated at the listed offsets

The ``config``, ``adam`` and ``trainer`` blocks hold the fields of
``EmbedNetConfig``, ``AdamState`` (its scalars) and ``TrainerState``, and
the manifest exactly the arrays of the config (:func:`_check_arrays`).

Arrays are stored at full precision and the encoding is deterministic, so
save -> load -> save reproduces identical bytes and resumed training
continues the original trajectory exactly.
"""

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .nn import AdamState, EmbedNet, EmbedNetConfig

__all__ = ["Checkpoint", "TrainerState", "checkpoint_save", "checkpoint_load"]

_MAGIC = b"DANCKPT\0"
_VERSION = 1


@dataclass
class TrainerState:
    """Curriculum position and patience counters, stored as
    ``Checkpoint.trainer`` so a resumed run picks up where it stopped."""

    phase: int = 1
    epoch_in_phase: int = 0
    since_best: int = 0
    since_best_lr: int = 0
    done: bool = False


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
    trainer: TrainerState = field(default_factory=TrainerState)
    unread: tuple = ()                 # arrays an inference load left on disk

    @classmethod
    def of_training(cls, model_kind: str, slots: int, net: EmbedNet,
                    opt: AdamState, best: dict, best_val_loss: float | None,
                    epoch: int, trainer: TrainerState,
                    fixed_table: np.ndarray | None = None) -> "Checkpoint":
        """The full training state: ``net``'s current parameters, the
        ``best`` parameter arrays by name, and ``opt``'s moments (zero for
        a parameter Adam has not stepped yet).

        The arrays and ``trainer`` are held, not copied.  Adam updates
        parameters and moments in place, so the checkpoint shows the state
        it was made from only until the next step: save it before then."""
        arrays = {}
        for name, p in net.params.items():
            arrays[f"param/{name}"] = p
            arrays[f"best/{name}"] = best[name]
            arrays[f"adam_m/{name}"] = opt.m.get(name, np.zeros_like(p))
            arrays[f"adam_v/{name}"] = opt.v.get(name, np.zeros_like(p))
        if fixed_table is not None:
            arrays["fixed_attractors"] = np.asarray(fixed_table)
        return cls(
            model_kind=model_kind,
            config=net.config,
            n_anchors=net.n_anchors,
            slots=slots,
            arrays=arrays,
            adam=_scalars(opt),
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

        ``best=True`` loads the best-validation parameter set (inference),
        holding the stored arrays themselves; ``best=False`` loads copies
        of the current training state (resume), for Adam to update in place.
        """
        if not best:
            self._require_all_arrays("build the current training state")
        prefix = "best/" if best else "param/"
        arrays = self._params(prefix)
        for name, arr in arrays.items():
            _require_finite(prefix + name, arr)
            if not best:
                arrays[name] = arr.copy()
        return EmbedNet.from_arrays(self.config, arrays, self.n_anchors)

    def _params(self, prefix: str) -> dict:
        return {name: self.arrays[prefix + name]
                for name in self.config.param_shapes(self.n_anchors)}

    def build_adam(self) -> AdamState:
        """The optimizer state, its moments copies of the stored ones, so
        that Adam updates them in place without touching the checkpoint."""
        self._require_all_arrays("build the optimizer state")
        m, v = ({name: arr.copy() for name, arr in self._params(prefix).items()}
                for prefix in ("adam_m/", "adam_v/"))
        return AdamState(**self.adam, m=m, v=v)

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
        return None if arr is None else _require_finite("fixed_attractors", arr).copy()


def _require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, or ValueError naming it if it holds NaN or ±inf."""
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint array '{name}' holds NaN or ±inf")
    return arr


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
        "config": asdict(ckpt.config),
        "n_anchors": ckpt.n_anchors,
        "slots": ckpt.slots,
        "adam": ckpt.adam,
        "epoch": ckpt.epoch,
        "best_val_loss": ckpt.best_val_loss,
        "trainer": asdict(ckpt.trainer),
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
    array's name, shape and extent against the arrays its config holds
    (:func:`_check_arrays`); anything malformed raises ValueError naming
    the field or array.

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
        cfg = _read(EmbedNetConfig, header, "config", where)
        # version-1 files written before the field was dropped carry "tanh"
        if header["config"].get("nonlinearity", "tanh") != "tanh":
            raise ValueError(f"{where} config: field 'nonlinearity' must be 'tanh'")
        adam = _scalars(_read(AdamState, header, "adam", where))
        n_anchors = _field(header, "n_anchors", int, where)
        manifest = _manifest(header, size - data_start, path)
        _check_arrays(manifest, cfg, n_anchors, path)

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
        trainer=_read(TrainerState, header, "trainer", where),
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


def _check_arrays(manifest: dict, cfg: EmbedNetConfig, n_anchors: int, path) -> None:
    """Refuse, naming the array, a manifest that is not the arrays a
    checkpoint of ``cfg`` holds: every parameter in its shape under each
    prefix, and optionally ``fixed_attractors``, a table of attractors
    ``cfg.embed_dim`` wide."""
    shapes = {prefix + name: shape for prefix in ("param/", "best/", "adam_m/", "adam_v/")
              for name, shape in cfg.param_shapes(n_anchors).items()}
    for name in shapes:
        if name not in manifest:
            raise ValueError(f"{path}: missing array '{name}'")
    for name, (shape, _) in manifest.items():
        if name == "fixed_attractors":
            if len(shape) != 2 or shape[1] != cfg.embed_dim:
                raise ValueError(f"{path}: array '{name}' has shape {shape}, config "
                                 f"requires (rows, {cfg.embed_dim})")
        elif name not in shapes:
            raise ValueError(f"{path}: unknown array '{name}'")
        elif shape != shapes[name]:
            raise ValueError(f"{path}: array '{name}' has shape {shape}, config "
                             f"requires {shapes[name]}")


# The JSON type a header field of each annotated type is stored as: a bool
# is never an int or a float, and a tuple is a list of ints.
_JSON_KINDS = {int: int, float: (int, float), str: str, bool: bool, tuple: list}


def _stored(cls) -> dict:
    """The fields of the dataclass ``cls`` that its header block stores,
    each with its JSON type; dict fields (Adam's moments) are arrays."""
    return {f.name: _JSON_KINDS[f.type] for f in fields(cls) if f.type is not dict}


def _scalars(obj) -> dict:
    """The header block of ``obj``: the values of its stored fields."""
    return {name: getattr(obj, name) for name in _stored(type(obj))}


def _read(cls, header: dict, key: str, where: str):
    """``cls`` built from the header block ``key``, each stored field read
    with :func:`_field`; a bad field, or a value ``cls`` refuses, raises
    ValueError naming it."""
    block, where = _field(header, key, dict, where), f"{where} {key}"
    values = {}
    for name, kind in _stored(cls).items():
        value = _field(block, name, kind, where)
        if kind is list and not all(_is_int(v) for v in value):
            raise ValueError(f"{where}: field '{name}' is missing or malformed")
        values[name] = tuple(value) if kind is list else value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(block: dict, key: str, kind, where: str):
    """``block[key]`` if present and an instance of ``kind``, a bool only
    where ``kind`` is ``bool``; else a ValueError naming the field."""
    if (key not in block or isinstance(block[key], bool) != (kind is bool)
            or not isinstance(block[key], kind)):
        raise ValueError(f"{where}: field '{key}' is missing or malformed")
    return block[key]
