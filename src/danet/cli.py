"""Command-line surface: gen | train | separate | evaluate | diagnose.

Every option can also come from a ``--config`` file of flat ``key=value``
lines (flags win on conflict, unknown keys are rejected).  Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import csv
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .adanet import detect_active_sources
from .attractor import form_attractors
from .checkpoint import checkpoint_load
from .data import build_manifest, generate_dataset, load_index
from .dsp import flatten_tf, reconstruct, stft
from .inference import (
    AnchoredStrategy,
    FixedStrategy,
    KMeansStrategy,
    embed_mixture,
    pca_project,
    separate,
)
from .masks import ibm, irm, wfm
from .metrics import score_with_permutation
from .training import TrainSettings, TrainingDiverged, train
from .wavio import wav_read, wav_write

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# Option schemas: name -> (type caster, default, help).  A caster of bool
# marks a store_true flag.  A train option that sets a TrainSettings field
# defaults to None, so only the options given reach the settings.
_SHARED = {
    "seed": (int, 0, "random seed"),
    "config": (str, None, "key=value config file; flags override it"),
}

_SCHEMAS = {
    "gen": {
        **_SHARED,
        "out": (str, None, "output directory (required)"),
        "mixtures": (int, 500, "mixtures to generate"),
        "speakers": (str, "2", "source count per mixture, e.g. 2 or 2,3"),
        "split": (str, "train", "split name: train|validation|test"),
        "all": (bool, False, "generate the standard train/validation/test corpus"),
        "duration": (float, 2.0, "utterance length in seconds"),
    },
    "train": {
        **_SHARED,
        "seed": (int, None, "random seed"),
        "data": (str, None, "corpus directory with train/ and validation/ (required)"),
        "out": (str, None, "checkpoint output path (required)"),
        "log": (str, None, "loss log CSV path (default: <out>.log.csv)"),
        "model": (str, None, "danet | adanet"),
        "anchors": (int, None, "anchor count (adanet)"),
        "slots": (int, None, "adanet output slots (default: max C in data)"),
        "epochs-short": (int, None, "epoch cap for the short-chunk phase"),
        "epochs-long": (int, None, "epoch cap for the long-chunk phase"),
        "chunk-short": (int, None, "short-phase chunk length in frames"),
        "chunk-long": (int, None, "long-phase chunk length in frames"),
        "lr": (float, None, "initial learning rate"),
        "lr-long": (float, None, "learning rate restart for the long phase"),
        "q": (float, None, "salience threshold keep fraction"),
        "context": (int, None, "context frames on each side"),
        "hidden": (str, None, "hidden layer sizes"),
        "embed-dim": (int, None, "embedding dimension"),
        "mask-nl": (str, None, "mask nonlinearity: softmax | sigmoid"),
        "resume": (bool, False, "resume from the checkpoint at --out"),
        "stop-after": (int, None, "stop cleanly after N total epochs"),
    },
    "separate": {
        **_SHARED,
        "checkpoint": (str, None, "model checkpoint (required)"),
        "input": (str, None, "mixture WAV (required)"),
        "out": (str, ".", "output directory"),
        "speakers": (str, "2", "source count, or 'auto' (anchored only)"),
        "strategy": (str, "kmeans", "kmeans | fixed | anchored"),
        "q": (float, 0.9, "salience threshold keep fraction"),
    },
    "evaluate": {
        **_SHARED,
        "checkpoint": (str, None, "model checkpoint (needed unless --oracle)"),
        "data": (str, None, "test split directory with index.jsonl (required)"),
        "out": (str, None, "per-mixture scores CSV (required)"),
        "strategy": (str, "kmeans", "kmeans | fixed | anchored"),
        "oracle": (str, None, "score ideal masks instead: wfm | irm | ibm | mix"),
        "q": (float, 0.9, "salience threshold keep fraction"),
    },
    "diagnose": {
        **_SHARED,
        "checkpoint": (str, None, "model checkpoint (required)"),
        "input": (str, None, "mixture WAV (required)"),
        "refs": (str, None, "comma-separated reference WAVs (required)"),
        "out": (str, None, "embedding diagnostics CSV (required)"),
        "q": (float, 0.9, "salience threshold keep fraction"),
    },
}


def _build_parser(invoked: str | None) -> _Parser:
    """The parser of every command name, with the options of the
    ``invoked`` command alone: a run parses only one command's options."""
    parser = _Parser(prog="danet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, prog=f"danet {command}")
        if command != invoked:
            continue
        for name, (caster, default, help_text) in schema.items():
            flag = f"--{name}"
            if caster is bool:
                p.add_argument(flag, action="store_true", default=None,
                               help=help_text, dest=name.replace("-", "_"))
            else:
                p.add_argument(flag, type=str, default=None, help=help_text,
                               dest=name.replace("-", "_"))
    return parser


def _merge_options(command: str, args) -> dict:
    """defaults <- config file <- explicit flags, with casting."""
    schema = _SCHEMAS[command]
    merged = {name: default for name, (_, default, _) in schema.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        for lineno, raw_line in enumerate(Path(config_path).read_text().splitlines(), 1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{config_path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in schema or key == "config":
                raise UsageError(f"{config_path}:{lineno}: unknown key '{key}'")
            merged[key] = _cast(schema[key][0], value, key)
    for name, (caster, _, _) in schema.items():
        given = getattr(args, name.replace("-", "_"))
        if given is not None:
            merged[name] = _cast(caster, given, name) if caster is not bool else given
    return merged


def _cast(caster, value, key):
    if caster is bool:
        if isinstance(value, bool):
            return value
        lowered = str(value).lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise UsageError(f"option '{key}': expected a boolean, got {value!r}")
    try:
        return caster(value)
    except (TypeError, ValueError):
        raise UsageError(f"option '{key}': invalid value {value!r}")


def _require(opts: dict, *names):
    for name in names:
        if opts[name] is None:
            raise UsageError(f"--{name} is required")


def _parse_speakers(text: str) -> tuple:
    try:
        counts = tuple(int(c) for c in str(text).split(","))
    except ValueError:
        raise UsageError(f"invalid --speakers value {text!r}")
    if not counts or any(not (1 <= c <= 3) for c in counts):
        raise UsageError("supported speaker counts: 1-3")
    return counts


def _check_strategy(name: str) -> None:
    if name not in ("kmeans", "fixed", "anchored"):
        raise UsageError(f"unknown strategy {name!r}")


def _check_q(q: float | None) -> None:
    """Refuse a ``--q`` outside (0, 1], NaN included; None means not given."""
    if q is not None and not (0 < q <= 1):
        raise UsageError(f"--q must lie in (0, 1], got {q!r}")


def _load_net(opts) -> tuple:
    ckpt = checkpoint_load(opts["checkpoint"], inference=True)
    return ckpt, ckpt.build_net(best=True)


def _make_strategy(name: str, ckpt, seed: int):
    """The strategy ``name``, which :func:`_check_strategy` has passed."""
    if name == "kmeans":
        return KMeansStrategy(seed=seed)
    if name == "anchored":
        return AnchoredStrategy()
    table = ckpt.fixed_attractor_table
    if table is None:
        raise RuntimeError("checkpoint has no stored fixed-attractor table")
    return FixedStrategy(table)


# -- commands -----------------------------------------------------------------


def cmd_gen(opts) -> int:
    _require(opts, "out")
    speakers = _parse_speakers(opts["speakers"])
    out = Path(opts["out"])
    if opts["all"]:
        plan = [("train", 500), ("validation", 100), ("test", 100)]
    else:
        if opts["split"] not in ("train", "validation", "test"):
            raise UsageError("split must be train, validation, or test")
        plan = [(opts["split"], opts["mixtures"])]
    for split, count in plan:
        manifest = build_manifest(split, count, speakers, seed=opts["seed"],
                                  duration=opts["duration"])
        target = out / split if opts["all"] else out
        index = generate_dataset(manifest, target)
        print(f"{split}: {count} mixtures (speakers {speakers}) -> {index}")
    return 0


# train options whose TrainSettings field is not the option's own name
_TRAIN_FIELDS = {"hidden": "hidden_sizes", "stop-after": "stop_after_epochs"}


def cmd_train(opts) -> int:
    _require(opts, "data", "out")
    if opts["model"] not in (None, "danet", "adanet"):
        raise UsageError("model must be danet or adanet")
    _check_q(opts["q"])
    known = {f.name for f in fields(TrainSettings)}
    given = {}
    for name, value in opts.items():
        field = _TRAIN_FIELDS.get(name, name.replace("-", "_"))
        if field in known and value is not None:
            given[field] = value
    if "hidden_sizes" in given:
        try:
            given["hidden_sizes"] = tuple(int(h) for h in opts["hidden"].split(","))
        except ValueError:
            raise UsageError(f"invalid --hidden value {opts['hidden']!r}")
    settings = TrainSettings(**given)
    data = Path(opts["data"])
    train_rows = load_index(data / "train" / "index.jsonl")
    val_rows = load_index(data / "validation" / "index.jsonl")
    log_path = opts["log"] or f"{opts['out']}.log.csv"
    ckpt = train(train_rows, val_rows, settings, opts["out"], log_path,
                 resume=opts["resume"])
    best = "n/a" if ckpt.best_val_loss is None else f"{ckpt.best_val_loss:.6g}"
    print(f"trained {settings.model} for {ckpt.epoch} epochs, "
          f"best validation loss {best} -> {opts['out']}")
    return 0


def cmd_separate(opts) -> int:
    _require(opts, "checkpoint", "input")
    _check_strategy(opts["strategy"])
    _check_q(opts["q"])
    auto = str(opts["speakers"]).lower() == "auto"
    if auto and opts["strategy"] != "anchored":
        raise UsageError("--speakers auto requires --strategy anchored")
    c = None if auto else _parse_speakers(opts["speakers"])[0]
    ckpt, net = _load_net(opts)
    mixture = wav_read(opts["input"])
    if auto:
        c = ckpt.slots
    strategy = _make_strategy(opts["strategy"], ckpt, opts["seed"])
    estimates = separate(net, mixture, c, strategy, q=opts["q"])
    if auto:
        active = detect_active_sources(estimates)
        estimates = [estimates[i] for i in active]
        print(f"active outputs: {active}")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(opts["input"]).stem
    for i, est in enumerate(estimates):
        path = out / f"{stem}_src{i}.wav"
        wav_write(est, path)
        print(path)
    return 0


def _score(opts, net, strategy, mixture, refs):
    """Separate one mixture (or apply an oracle) and score it against refs."""
    c = len(refs)
    if opts["oracle"] == "mix":
        estimates = [mixture] * c
    elif opts["oracle"] is not None:
        spec = stft(mixture)
        src_flat = np.stack([flatten_tf(np.abs(stft(r))) for r in refs])
        oracle_masks = {"wfm": wfm, "irm": irm, "ibm": ibm}[opts["oracle"]](src_flat)
        estimates = reconstruct(oracle_masks, spec)
    else:
        estimates = separate(net, mixture, c, strategy, q=opts["q"])
    n = len(estimates[0])
    return score_with_permutation(
        estimates,
        [r.samples[:n] for r in refs],
        mixture.samples[:n],
    )


def cmd_evaluate(opts) -> int:
    _require(opts, "data", "out")
    _check_strategy(opts["strategy"])
    _check_q(opts["q"])
    net = strategy = None
    if opts["oracle"] is None:
        _require(opts, "checkpoint")
        ckpt, net = _load_net(opts)
        strategy = _make_strategy(opts["strategy"], ckpt, opts["seed"])
    elif opts["oracle"] not in ("wfm", "irm", "ibm", "mix"):
        raise UsageError("oracle must be wfm, irm, ibm, or mix")
    rows = load_index(Path(opts["data"]) / "index.jsonl")
    results = []
    missing = []
    refused = []
    for row in rows:
        try:
            mixture = wav_read(row["mixture_path"])
            refs = [wav_read(p) for p in row["source_paths"]]
        except (OSError, ValueError) as exc:
            missing.append(str(exc))
            continue
        # one mixture the separator or the scorer refuses (say, a silent
        # reference) is left out; the rest are still scored
        try:
            report = _score(opts, net, strategy, mixture, refs)
        except ValueError as exc:
            refused.append(f"{row['mixture_path'].name}: {exc}")
            continue
        results.append((row["mixture_path"].name, len(refs), report))
    for skipped, why in ((missing, "with missing/unreadable files"),
                         (refused, "that could not be separated or scored")):
        if skipped:
            print(f"skipped {len(skipped)} mixtures {why}:", file=sys.stderr)
            for msg in skipped:
                print(f"  {msg}", file=sys.stderr)
    if not results:
        raise RuntimeError(f"no mixture was scored: of the {len(rows)} rows of "
                           f"the index, {len(missing)} could not be read and "
                           f"{len(refused)} were refused")
    with open(opts["out"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mixture", "C", "si_snr_db", "si_snri_db", "snr_db",
                         "permutation"])
        for name, c, report in results:
            writer.writerow([
                name, c,
                f"{report.mean_si_snr:.4f}",
                f"{report.mean_si_snri:.4f}",
                f"{np.mean(report.snr):.4f}",
                " ".join(map(str, report.permutation)),
            ])
    means = [r.mean_si_snri for _, _, r in results]
    snrs = [r.mean_si_snr for _, _, r in results]
    summary_path = Path(opts["out"]).with_name(Path(opts["out"]).stem + "_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "median"])
        writer.writerow(["si_snr_db", f"{np.mean(snrs):.4f}", f"{np.median(snrs):.4f}"])
        writer.writerow(["si_snri_db", f"{np.mean(means):.4f}", f"{np.median(means):.4f}"])
        writer.writerow(["mixtures_skipped", len(missing) + len(refused), ""])
    print(f"evaluated {len(results)} mixtures: "
          f"SI-SNRi mean {np.mean(means):.2f} dB, median {np.median(means):.2f} dB")
    return 0


def cmd_diagnose(opts) -> int:
    _require(opts, "checkpoint", "input", "refs", "out")
    _check_q(opts["q"])
    ckpt, net = _load_net(opts)
    mixture = wav_read(opts["input"])
    refs = [wav_read(Path(p.strip())) for p in str(opts["refs"]).split(",")]
    _, v, w = embed_mixture(net, mixture, opts["q"])
    src_flat = np.stack([flatten_tf(np.abs(stft(r))) for r in refs])
    labels = np.argmax(src_flat, axis=0)
    attractors = form_attractors(v, ibm(src_flat), w)
    dims = min(3, net.config.embed_dim)
    pca = pca_project(v, dims)

    def pad(coords):
        return list(coords) + [0.0] * (3 - len(coords))

    with open(opts["out"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "pc1", "pc2", "pc3", "label",
                         "thresholded"])
        for ft in range(v.shape[1]):
            writer.writerow(["bin", ft, *pad(pca.coords[:, ft]), labels[ft],
                             int(w[ft])])
        att_proj = pca.project(attractors)
        for i in range(att_proj.shape[0]):
            writer.writerow(["attractor", i, *pad(att_proj[i]), i, 1])
        if net.n_anchors:
            anchor_proj = pca.project(net.anchors.data)
            for j in range(anchor_proj.shape[0]):
                writer.writerow(["anchor", j, *pad(anchor_proj[j]), -1, 1])
    print(f"wrote {v.shape[1]} bin rows + {att_proj.shape[0]} attractors + "
          f"{net.n_anchors} anchors (variance explained: "
          f"{', '.join(f'{e:.3f}' for e in pca.explained)}) -> {opts['out']}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "separate": cmd_separate,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        opts = _merge_options(args.command, args)
        return _COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"danet {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"danet {args.command}: training diverged: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"danet {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
