"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-7 generate the standard 500/100/100 synthetic corpus and train
both models with default settings; criterion 7 also retrains ADANet at two
more seeds.  Run it with ``pytest tests/test_acceptance.py -v -s`` to watch
progress.  All seeds are fixed, so every number here repeats exactly on one
platform at one BLAS thread count.  A different platform or thread count
changes the float rounding inside the matrix products, and over a full
training run that moves the trained-model numbers by tenths of a dB.
"""

import time
from itertools import combinations, permutations

import numpy as np
import pytest

from danet.adanet import (
    assignments_from_anchors,
    detect_active_sources,
    pit_loss,
    select_attractor_set,
)
from danet.attractor import form_attractors
from danet.data import build_manifest, generate_dataset, load_index
from danet.dsp import Waveform, flatten_tf, istft, reconstruct, stft
from danet.inference import AnchoredStrategy, KMeansStrategy, separate
from danet.masks import wfm
from danet.metrics import score_with_permutation, si_snr
from danet.nn import EmbedNet, EmbedNetConfig
from danet.training import TrainSettings, train, training_loss
from danet.wavio import wav_read

# Training-scale: ``pytest -m "not slow"`` leaves this module out.
pytestmark = pytest.mark.slow

# Golden numbers pinned from the reference run on the standard corpus
# (seed 0).  The SI-SNRi medians for trained models are asserted only
# against the criterion floor because long training runs amplify
# platform-level float differences.  For the same reason criterion 7 does
# not judge one training run: the k-means/anchored gap of a single seed-0
# model moved from 0.3 to 1.4 dB between epochs and across BLAS thread
# counts, so the criterion pools the test scores of ADANet trained at
# CONSISTENCY_SEEDS and bounds the gap between the pooled medians.
GOLDEN_WFM_CEILING_DB = 11.44
CONSISTENCY_SEEDS = (0, 1, 2)

TRAIN_BUDGET_SECONDS = 900  # 15 minutes


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- shared corpus and trained models (criteria 5-7) ---------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    for split, n in [("train", 500), ("validation", 100), ("test", 100)]:
        generate_dataset(build_manifest(split, n, (2,), seed=0), root / split)
    return {
        "root": root,
        "train": load_index(root / "train" / "index.jsonl"),
        "validation": load_index(root / "validation" / "index.jsonl"),
        "test": load_index(root / "test" / "index.jsonl"),
    }


@pytest.fixture(scope="module")
def danet_model(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("danet_model")
    start = time.perf_counter()
    ckpt = train(corpus["train"], corpus["validation"], TrainSettings(seed=0),
                 out / "danet.ckpt", out / "danet.log.csv")
    return ckpt, time.perf_counter() - start


def train_adanet(corpus, out, seed: int):
    start = time.perf_counter()
    ckpt = train(corpus["train"], corpus["validation"],
                 TrainSettings(model="adanet", anchors=6, seed=seed),
                 out / "adanet.ckpt", out / "adanet.log.csv")
    return ckpt, time.perf_counter() - start


@pytest.fixture(scope="module")
def adanet_model(corpus, tmp_path_factory):
    return train_adanet(corpus, tmp_path_factory.mktemp("adanet_model"), seed=0)


@pytest.fixture(scope="module")
def adanet_reseeded_models(corpus, tmp_path_factory) -> dict:
    """Checkpoints of ADANet trained like ``adanet_model`` but at the other
    CONSISTENCY_SEEDS, keyed by seed."""
    return {
        seed: train_adanet(corpus, tmp_path_factory.mktemp(f"adanet_seed{seed}"),
                           seed=seed)[0]
        for seed in CONSISTENCY_SEEDS[1:]
    }


def evaluate_strategy(net, rows, strategy) -> list:
    scores = []
    for row in rows:
        mixture = wav_read(row["mixture_path"])
        refs = [wav_read(p) for p in row["source_paths"]]
        ests = separate(net, mixture, len(refs), strategy)
        n = len(ests[0])
        rep = score_with_permutation(
            ests, [r.samples[:n] for r in refs], mixture.samples[:n]
        )
        scores.append(rep.mean_si_snri)
    return scores


@pytest.fixture(scope="module")
def adanet_anchored_scores(adanet_model, corpus) -> list:
    """Test-split SI-SNRi of the seed-0 ADANet with anchored attractors,
    evaluated once for criteria 6b and 7."""
    net = adanet_model[0].build_net(best=True)
    return evaluate_strategy(net, corpus["test"], AnchoredStrategy())


@pytest.fixture(scope="module")
def wfm_ceiling(corpus) -> float:
    scores = []
    for row in corpus["test"][:50]:
        mixture = wav_read(row["mixture_path"])
        refs = [wav_read(p) for p in row["source_paths"]]
        spec = stft(mixture)
        src = np.stack([flatten_tf(np.abs(stft(r))) for r in refs])
        masks = wfm(src)
        ests = reconstruct(masks, spec)
        n = len(ests[0])
        rep = score_with_permutation(
            ests, [r.samples[:n] for r in refs], mixture.samples[:n]
        )
        scores.append(rep.mean_si_snri)
    return float(np.median(scores))


# -- criterion 1: STFT round-trip ----------------------------------------------


def test_criterion_1_stft_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 8000)
    start = time.perf_counter()
    back = istft(stft(Waveform(x))).samples
    elapsed = time.perf_counter() - start
    err = np.abs(back[256:-256] - x[256 : len(back) - 256]).max()
    report(
        "criterion 1 (STFT round-trip)",
        err < 1e-6 and elapsed < 1.0,
        f"interior max abs error {err:.2e}, runtime {elapsed * 1000:.1f} ms",
    )


# -- criterion 2: gradient fidelity ---------------------------------------------


def _gradient_fidelity(make_loss, net, h=1e-4):
    loss = make_loss()
    net.zero_grad()
    loss.backward()
    grads = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in net.params.items()
    }
    total, good, worst = 0, 0, 0.0
    for name, p in net.params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            total += 1
            good += rel < 1e-3
            worst = max(worst, rel)
    return good / total, worst, total


def test_criterion_2_gradient_fidelity():
    cfg = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)
    rng = np.random.default_rng(7)
    src = rng.uniform(0.01, 1.0, size=(2, 7, 6))
    mix = src.sum(axis=0)

    net = EmbedNet(cfg, seed=1)
    assert net.n_params() <= 2000
    frac, worst, total = _gradient_fidelity(lambda: training_loss(net, mix, src), net)
    report(
        "criterion 2a (DANet loss gradients)",
        frac >= 0.99,
        f"{frac * 100:.2f}% of {total} coordinates within 1e-3 (worst {worst:.2e})",
    )

    net2 = EmbedNet(cfg, seed=1, n_anchors=6)
    assert net2.n_params() <= 2000
    frac2, worst2, total2 = _gradient_fidelity(
        lambda: training_loss(net2, mix, src, slots=2), net2
    )
    report(
        "criterion 2b (ADANet PIT loss gradients)",
        frac2 >= 0.99,
        f"{frac2 * 100:.2f}% of {total2} coordinates within 1e-3 (worst {worst2:.2e})",
    )


# -- criterion 3: oracle equivalence --------------------------------------------


def _brute_force_attractors(v, y, w):
    c, ft = y.shape
    k = v.shape[0]
    out = np.empty((c, k))
    for i in range(c):
        num = np.zeros(k)
        den = 0.0
        for b in range(ft):
            weight = y[i, b] * w[b]
            num += weight * v[:, b]
            den += weight
        out[i] = num / den
    return out


def _brute_force_assignments(anchors, v):
    c = anchors.shape[0]
    ft = v.shape[1]
    out = np.empty((c, ft))
    for b in range(ft):
        scores = np.array([float(anchors[i] @ v[:, b]) for i in range(c)])
        e = np.exp(scores - scores.max())
        out[:, b] = e / e.sum()
    return out


def _brute_force_selection(anchors, v, w, c):
    best = None
    for p, subset in enumerate(combinations(range(anchors.shape[0]), c)):
        y = _brute_force_assignments(anchors[list(subset)], v)
        a = _brute_force_attractors(v, y, w)
        sim = 0.0
        if c > 1:
            sim = max(
                float(a[i] @ a[j]) for i in range(c) for j in range(c) if i != j
            )
        if best is None or sim < best[1]:
            best = (p, sim, a)
    return best


def _brute_force_pit(x, targets, estimates):
    c = targets.shape[0]
    best = None
    for perm in permutations(range(c)):
        val = np.mean(
            [np.sum((x * (targets[i] - estimates[perm[i]])) ** 2) for i in range(c)]
        )
        if best is None or val < best[0]:
            best = (val, perm)
    return best


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, min(3, n) + 1))
        k = int(rng.integers(2, 9))
        ft = int(rng.integers(c + 2, 201))
        v = rng.standard_normal((k, ft))
        w = (rng.uniform(0, 1, ft) > 0.2).astype(float)
        w[0] = 1.0
        anchors = rng.standard_normal((n, k))
        y_soft = rng.uniform(0.01, 1.0, (c, ft))

        a = form_attractors(v, y_soft, w)
        np.testing.assert_allclose(
            a, _brute_force_attractors(v, y_soft, w), atol=1e-10
        )

        y_hat = assignments_from_anchors(anchors[:c], v)
        np.testing.assert_allclose(
            y_hat, _brute_force_assignments(anchors[:c], v), atol=1e-10
        )

        choice = select_attractor_set(anchors, v, w, c)
        ref_idx, _, ref_a = _brute_force_selection(anchors, v, w, c)
        assert choice.subset_index == ref_idx, f"trial {trial}"
        np.testing.assert_allclose(choice.attractors, ref_a, atol=1e-10)

        x = rng.uniform(0, 1, ft)
        targets = rng.uniform(0, 1, (c, ft))
        estimates = rng.uniform(0, 1, (c, ft))
        loss, perm = pit_loss(x, targets, estimates)
        ref_val, ref_perm = _brute_force_pit(x, targets, estimates)
        assert perm == ref_perm, f"trial {trial}"
        np.testing.assert_allclose(loss, ref_val, atol=1e-10)
    report(
        "criterion 3 (oracle equivalence)",
        True,
        "attractors, assignments, subset selection, PIT all match brute force "
        "on 100 random instances",
    )


# -- criterion 4: metric sanity --------------------------------------------------


def test_criterion_4_metric_sanity():
    s = np.array([1.0, -1.0, 1.0, -1.0])
    n_orth = np.array([1.0, 1.0, -1.0, -1.0])
    zero_db = si_snr(s + n_orth, s)
    ten_db = si_snr(s + n_orth * np.sqrt(0.1), s)
    est = s + 0.3 * n_orth
    base = si_snr(est, s)
    drift = max(abs(si_snr(alpha * est, s) - base) for alpha in (0.1, 10.0))
    report(
        "criterion 4 (metric sanity)",
        abs(zero_db) < 1e-9 and abs(ten_db - 10.0) < 1e-9 and drift < 1e-9,
        f"orthogonal {zero_db:.2e} dB, 10dB fixture err {abs(ten_db - 10):.2e}, "
        f"scale drift {drift:.2e} dB",
    )


# -- criterion 5: ideal-mask ceiling ---------------------------------------------


def test_criterion_5_wfm_ceiling(wfm_ceiling):
    report(
        "criterion 5 (WFM oracle ceiling)",
        wfm_ceiling >= 10.0 and abs(wfm_ceiling - GOLDEN_WFM_CEILING_DB) < 0.5,
        f"median SI-SNRi {wfm_ceiling:.2f} dB on 50 test mixtures "
        f"(golden {GOLDEN_WFM_CEILING_DB})",
    )


# -- criterion 6: learning evidence ----------------------------------------------


def test_criterion_6a_danet_learns(danet_model, corpus, wfm_ceiling):
    ckpt, elapsed = danet_model
    net = ckpt.build_net(best=True)
    median = float(np.median(evaluate_strategy(net, corpus["test"],
                                               KMeansStrategy(seed=0))))
    report(
        "criterion 6a (DANet k-means learning)",
        median >= 3.0 and median < wfm_ceiling and elapsed < TRAIN_BUDGET_SECONDS,
        f"median SI-SNRi {median:.2f} dB (ceiling {wfm_ceiling:.2f}), "
        f"trained in {elapsed:.0f}s",
    )


def test_criterion_6b_adanet_learns(adanet_model, adanet_anchored_scores,
                                    wfm_ceiling):
    elapsed = adanet_model[1]
    median = float(np.median(adanet_anchored_scores))
    report(
        "criterion 6b (ADANet anchored learning)",
        median >= 3.0 and median < wfm_ceiling and elapsed < TRAIN_BUDGET_SECONDS,
        f"median SI-SNRi {median:.2f} dB (ceiling {wfm_ceiling:.2f}), "
        f"trained in {elapsed:.0f}s",
    )


# -- criterion 7: strategy consistency -------------------------------------------


def test_criterion_7_strategy_consistency(adanet_model, adanet_reseeded_models,
                                          adanet_anchored_scores, corpus):
    ckpts = {CONSISTENCY_SEEDS[0]: adanet_model[0], **adanet_reseeded_models}
    anchored, km = [], []
    for seed, ckpt in ckpts.items():
        net = ckpt.build_net(best=True)
        if seed == CONSISTENCY_SEEDS[0]:
            seed_anchored = adanet_anchored_scores
        else:
            seed_anchored = evaluate_strategy(net, corpus["test"], AnchoredStrategy())
        seed_km = evaluate_strategy(net, corpus["test"], KMeansStrategy(seed=0))
        a, k = float(np.median(seed_anchored)), float(np.median(seed_km))
        print(f"  seed {seed}: anchored {a:.2f} dB vs k-means {k:.2f} dB, "
              f"gap {abs(a - k):.2f} dB")
        anchored += seed_anchored
        km += seed_km
    a, k = float(np.median(anchored)), float(np.median(km))
    gap = abs(a - k)
    report(
        "criterion 7 (strategy consistency)",
        gap <= 1.0,
        f"pooled over seeds {list(ckpts)} ({len(km)} scores each): "
        f"anchored {a:.2f} dB vs k-means {k:.2f} dB, gap {gap:.2f} dB",
    )


# -- criterion 8: source-count detection ------------------------------------------


def test_criterion_8_source_count_detection():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(100):
        loud = rng.uniform(0.5, 1.0, 2)
        quiet = loud.max() * 10 ** (-rng.uniform(30, 60) / 20)
        scales = np.empty(3)
        quiet_slot = int(rng.integers(3))
        loud_slots = [i for i in range(3) if i != quiet_slot]
        scales[loud_slots] = loud
        scales[quiet_slot] = quiet
        base = rng.standard_normal(400)
        outputs = [Waveform(base * s) for s in scales]
        if detect_active_sources(outputs) == sorted(loud_slots):
            hits += 1
    report(
        "criterion 8 (source-count detection)",
        hits == 100,
        f"{hits}/100 fixtures returned exactly the two loud outputs",
    )


# -- criterion 9: determinism & persistence ---------------------------------------


def test_criterion_9_determinism_and_resume(tmp_path):
    root = tmp_path / "micro"
    for split, n in [("train", 8), ("validation", 4)]:
        generate_dataset(build_manifest(split, n, (2,), seed=0, duration=0.5),
                         root / split)
    rows = {
        "train": load_index(root / "train" / "index.jsonl"),
        "validation": load_index(root / "validation" / "index.jsonl"),
    }
    micro = dict(chunk_short=40, chunk_long=80, epochs_short=2, epochs_long=1,
                 context=1, hidden_sizes=(12,), embed_dim=4, seed=0)

    train(rows["train"], rows["validation"], TrainSettings(**micro),
          tmp_path / "a.ckpt", tmp_path / "a.log")
    train(rows["train"], rows["validation"], TrainSettings(**micro),
          tmp_path / "b.ckpt", tmp_path / "b.log")
    logs_equal = (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    train(rows["train"], rows["validation"],
          TrainSettings(**{**micro, "stop_after_epochs": 1}),
          tmp_path / "c.ckpt", tmp_path / "c.log")
    train(rows["train"], rows["validation"], TrainSettings(**micro),
          tmp_path / "c.ckpt", tmp_path / "c.log", resume=True)
    resume_equal = (
        (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "c.ckpt").read_bytes()
        and (tmp_path / "a.log").read_bytes() == (tmp_path / "c.log").read_bytes()
    )
    report(
        "criterion 9 (determinism & persistence)",
        logs_equal and resume_equal,
        f"identical logs: {logs_equal}, bitwise resume: {resume_equal}",
    )


# -- supplementary: embedding-space geometry of the trained model -----------------


def test_supplementary_trained_embeddings_cluster(danet_model, corpus):
    """Inter-attractor distance exceeds intra-cluster spread after training."""
    from danet.attractor import threshold_vector
    from danet.dsp import log_magnitude
    from danet.inference import pca_project
    from danet.masks import ibm

    ckpt, _ = danet_model
    net = ckpt.build_net(best=True)
    row = corpus["test"][0]
    mixture = wav_read(row["mixture_path"])
    refs = [wav_read(p) for p in row["source_paths"]]
    mag = np.abs(stft(mixture))
    v = net.embed(log_magnitude(mag)).data
    w = threshold_vector(flatten_tf(mag), 0.9)
    src = np.stack([flatten_tf(np.abs(stft(r))) for r in refs])
    labels = ibm(src).argmax(axis=0)
    attractors = form_attractors(v, ibm(src), w)
    pca = pca_project(v, 3)
    att = pca.project(attractors)
    inter = np.linalg.norm(att[0] - att[1])
    intra = []
    for i in range(2):
        member = (labels == i) & (w > 0)
        coords = pca.coords[:, member]
        intra.append(np.linalg.norm(coords - att[i][:, None], axis=0).mean())
    assert inter > np.mean(intra), (inter, intra)
