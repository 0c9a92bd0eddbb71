"""Anchored separation: no oracle assignments, unknown speaker count.

Trains a 6-anchor model with 3 output slots on mixtures of two AND three
sources, then separates test mixtures without being told how many
speakers they contain: the model always emits 3 outputs, and outputs more
than 20 dB below the loudest are discarded.

At this demo scale (200 mixtures, a couple of minutes of training) the
auxiliary zero-mask is only partly learned: on two-source mixtures the
third output sits 10-20 dB down, visibly quieter than any genuine source
but not always past the 20 dB cut. The gap widens with the full corpus
(danet gen --all) and default training settings.
"""

import tempfile
from pathlib import Path

import numpy as np

from danet import (
    AnchoredStrategy,
    build_manifest,
    detect_active_sources,
    generate_dataset,
    score_with_permutation,
    separate,
    train,
    wav_read,
)
from danet.data import load_index
from danet.training import TrainSettings

# the corpus is removed at the end, or at exit if the demo fails
scratch = tempfile.TemporaryDirectory(prefix="adanet_demo_")
work = Path(scratch.name)
for split, count in [("train", 200), ("validation", 40), ("test", 12)]:
    generate_dataset(build_manifest(split, count, (2, 3), seed=1), work / split)

settings = TrainSettings(
    model="adanet", anchors=6, slots=3, epochs_short=4, epochs_long=2, seed=0
)
ckpt = train(
    load_index(work / "train" / "index.jsonl"),
    load_index(work / "validation" / "index.jsonl"),
    settings,
    work / "adanet.ckpt",
    work / "adanet.log.csv",
)
net = ckpt.build_net(best=True)
print(f"trained {ckpt.epoch} epochs, best validation loss {ckpt.best_val_loss:.4f}")

rows = load_index(work / "test" / "index.jsonl")
correct = 0
for row in rows:
    mixture = wav_read(row["mixture_path"])
    refs = [wav_read(p) for p in row["source_paths"]]
    # always ask for all 3 slots, then look at the output energies
    outputs = separate(net, mixture, 3, AnchoredStrategy())
    powers = np.array([np.mean(o.samples**2) for o in outputs])
    drops = 10 * np.log10(powers.max() / np.maximum(powers, 1e-30))
    active = detect_active_sources(outputs)
    correct += len(active) == row["C"]

    loudest = sorted(np.argsort(powers)[::-1][: row["C"]])
    kept = [outputs[i] for i in (active if len(active) == row["C"] else loudest)]
    n = len(kept[0])
    rep = score_with_permutation(
        kept, [r.samples[:n] for r in refs], mixture.samples[:n]
    )
    print(
        f"C={row['C']}: quietest output {drops.max():5.1f} dB below loudest, "
        f"detected {len(active)} active, SI-SNRi {rep.mean_si_snri:5.2f} dB"
    )
print(f"source count matched on {correct}/{len(rows)} mixtures at demo scale")
scratch.cleanup()
