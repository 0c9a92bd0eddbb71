"""Train a small attractor network and separate unseen mixtures.

Generates a throwaway corpus (60 train / 12 validation / 12 test
mixtures), trains with the two-phase curriculum for about a minute, then
compares the k-means and fixed-attractor strategies on the test split.
The full-size corpus (danet gen --all) trains to a much higher score;
this is a quick tour.
"""

import tempfile
from pathlib import Path

import numpy as np

from danet import (
    FixedStrategy,
    KMeansStrategy,
    build_manifest,
    generate_dataset,
    score_with_permutation,
    separate,
    train,
    wav_read,
)
from danet.data import load_index
from danet.training import TrainSettings

# the corpus is removed at the end, or at exit if the demo fails
scratch = tempfile.TemporaryDirectory(prefix="danet_demo_")
work = Path(scratch.name)
for split, count in [("train", 60), ("validation", 12), ("test", 12)]:
    generate_dataset(build_manifest(split, count, (2,), seed=0), work / split)

settings = TrainSettings(epochs_short=3, epochs_long=1, seed=0)
ckpt = train(
    load_index(work / "train" / "index.jsonl"),
    load_index(work / "validation" / "index.jsonl"),
    settings,
    work / "model.ckpt",
    work / "model.log.csv",
)
print(f"trained {ckpt.epoch} epochs, best validation loss {ckpt.best_val_loss:.4f}")
print((work / "model.log.csv").read_text())

net = ckpt.build_net(best=True)
strategies = {
    "k-means": KMeansStrategy(seed=0),
    "fixed": FixedStrategy(ckpt.fixed_attractor_table),
}
for name, strategy in strategies.items():
    scores = []
    for row in load_index(work / "test" / "index.jsonl"):
        mixture = wav_read(row["mixture_path"])
        refs = [wav_read(p) for p in row["source_paths"]]
        estimates = separate(net, mixture, 2, strategy)
        n = len(estimates[0])
        rep = score_with_permutation(
            estimates, [r.samples[:n] for r in refs], mixture.samples[:n]
        )
        scores.append(rep.mean_si_snri)
    print(f"{name:8s}: median SI-SNRi {np.median(scores):5.2f} dB over 12 mixtures")
scratch.cleanup()
