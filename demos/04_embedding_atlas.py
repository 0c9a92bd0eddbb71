"""Project trained embeddings to principal components for plotting.

Writes a CSV with one row per time-frequency bin (3 PCA coordinates, the
dominant-source label, the salience flag) plus rows for the oracle
attractors, mirroring what `danet diagnose` emits.  Load it in any
plotting tool to see the per-source clusters and the attractors sitting
inside them.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from danet import (
    build_manifest,
    embed_mixture,
    flatten_tf,
    form_attractors,
    generate_dataset,
    ibm,
    magnitude,
    pca_project,
    stft,
    train,
    wav_read,
)
from danet.data import load_index
from danet.training import TrainSettings

work = Path(tempfile.mkdtemp(prefix="atlas_demo_"))
for split, count in [("train", 60), ("validation", 12), ("test", 4)]:
    generate_dataset(build_manifest(split, count, (2,), seed=0), work / split)

ckpt = train(
    load_index(work / "train" / "index.jsonl"),
    load_index(work / "validation" / "index.jsonl"),
    TrainSettings(epochs_short=3, epochs_long=1, seed=0),
    work / "model.ckpt",
    work / "model.log.csv",
)
net = ckpt.build_net(best=True)

row = load_index(work / "test" / "index.jsonl")[0]
mixture = wav_read(row["mixture_path"])
refs = [wav_read(p) for p in row["source_paths"]]

_, v, w = embed_mixture(net, mixture, 0.9)
src = np.stack([flatten_tf(magnitude(stft(r))) for r in refs])
labels = ibm(src).argmax(axis=0)
attractors = form_attractors(v, ibm(src), w)

pca = pca_project(v, 3)
print("variance explained by PC1-3:", np.round(pca.explained, 3))

out = work / "embedding_atlas.csv"
with open(out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["kind", "pc1", "pc2", "pc3", "label", "salient"])
    for ft in range(v.shape[1]):
        writer.writerow(["bin", *pca.coords[:, ft], labels[ft], int(w[ft])])
    for i, coords in enumerate(pca.project(attractors)):
        writer.writerow(["attractor", *coords, i, 1])
print(f"wrote {v.shape[1] + 2} rows -> {out}")

# quick separation summary of the same geometry
att = pca.project(attractors)
spread = []
for i in range(2):
    member = (labels == i) & (w > 0)
    spread.append(
        np.linalg.norm(pca.coords[:, member] - att[i][:, None], axis=0).mean()
    )
print(
    f"attractor distance {np.linalg.norm(att[0] - att[1]):.3f} vs "
    f"mean within-source spread {np.mean(spread):.3f}"
)
