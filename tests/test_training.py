"""Curriculum trainer: determinism, resume equivalence, divergence guard."""

import gc
import platform
import sys
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.checkpoint import checkpoint_load, checkpoint_save
from danet.data import build_manifest, generate_dataset, load_index
from danet.dsp import HOP, WINDOW_LEN, n_frames, stft
from danet.nn import AdamState, EmbedNet, EmbedNetConfig, adam_step
from danet.training import (
    TrainerState,
    TrainSettings,
    TrainingDiverged,
    _chunks,
    _release_freed_memory,
    _utterance_mags,
    load_corpus,
    read_utterance,
    train,
    train_step,
    training_loss,
)
from danet.wavio import pcm_waveform, wav_read

MICRO = dict(
    chunk_short=40,
    chunk_long=80,
    epochs_short=2,
    epochs_long=1,
    context=1,
    hidden_sizes=(12,),
    embed_dim=4,
    seed=0,
)


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for split, n in [("train", 8), ("validation", 4)]:
        generate_dataset(
            build_manifest(split, n, (2,), seed=0, duration=0.5), root / split
        )
    return {
        "train": load_index(root / "train" / "index.jsonl"),
        "validation": load_index(root / "validation" / "index.jsonl"),
    }


class TestTraining:
    def test_validation_loss_improves(self, micro_corpus, tmp_path):
        ckpt = train(
            micro_corpus["train"], micro_corpus["validation"],
            TrainSettings(**MICRO), tmp_path / "m.ckpt", tmp_path / "m.log",
        )
        log = (tmp_path / "m.log").read_text().strip().splitlines()
        first_val = float(log[1].split(",")[4])
        assert ckpt.best_val_loss < first_val

    def test_identical_seeds_identical_logs(self, micro_corpus, tmp_path):
        for name in ("a", "b"):
            train(
                micro_corpus["train"], micro_corpus["validation"],
                TrainSettings(**MICRO), tmp_path / f"{name}.ckpt",
                tmp_path / f"{name}.log",
            )
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    def test_different_seed_changes_log(self, micro_corpus, tmp_path):
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**MICRO), tmp_path / "s0.ckpt", tmp_path / "s0.log")
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**{**MICRO, "seed": 1}), tmp_path / "s1.ckpt",
              tmp_path / "s1.log")
        assert (tmp_path / "s0.log").read_bytes() != (tmp_path / "s1.log").read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, micro_corpus, tmp_path):
        for kind in ({"model": "danet"}, {"model": "adanet", "anchors": 6}):
            out = tmp_path / kind["model"]
            out.mkdir()
            straight = train(
                micro_corpus["train"], micro_corpus["validation"],
                TrainSettings(**MICRO, **kind), out / "full.ckpt", out / "full.log",
            )
            # interrupted after the first epoch, or before any (a resume of
            # the epoch-0 checkpoint), then resumed to completion
            for stop in (1, 0):
                train(
                    micro_corpus["train"], micro_corpus["validation"],
                    TrainSettings(**MICRO, **kind, stop_after_epochs=stop),
                    out / "part.ckpt", out / "part.log",
                )
                resumed = train(
                    micro_corpus["train"], micro_corpus["validation"],
                    TrainSettings(**MICRO, **kind), out / "part.ckpt",
                    out / "part.log", resume=True,
                )
                assert (out / "full.log").read_bytes() == (out / "part.log").read_bytes()
                assert (out / "full.ckpt").read_bytes() == (out / "part.ckpt").read_bytes()
                assert straight.best_val_loss == resumed.best_val_loss

    @pytest.mark.parametrize("kind", [{"model": "danet"},
                                      {"model": "adanet", "anchors": 6}],
                             ids=["danet", "adanet"])
    def test_leaves_no_reference_cycles(self, micro_corpus, tmp_path, kind):
        # a tape node that captured its own output would keep every step's
        # arrays alive until the cyclic collector ran
        gc.collect()
        gc.disable()
        try:
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**MICRO, **kind), tmp_path / "g.ckpt",
                  tmp_path / "g.log")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_start_checkpoint_released_before_first_step(self, micro_corpus,
                                                         tmp_path, monkeypatch):
        # held through the loop, the epoch-0 or loaded checkpoint would pin
        # the first parameters and Adam moments for the whole run
        import danet.training as training_mod

        starts, alive = [], []

        def recorded(make):
            def wrapper(*args, **kwargs):
                ckpt = make(*args, **kwargs)
                starts.append(weakref.ref(ckpt))
                return ckpt
            return wrapper

        def step(*args, **kwargs):
            alive.append(starts[-1]() is not None)
            return real_step(*args, **kwargs)

        real_step = training_mod.train_step
        monkeypatch.setattr(training_mod, "_epoch_zero",
                            recorded(training_mod._epoch_zero))
        monkeypatch.setattr(training_mod, "checkpoint_load",
                            recorded(training_mod.checkpoint_load))
        monkeypatch.setattr(training_mod, "train_step", step)
        for resume in (False, True):
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**MICRO, stop_after_epochs=1 + resume),
                  tmp_path / "w.ckpt", tmp_path / "w.log", resume=resume)
        assert len(starts) == 2 and alive and not any(alive)

    def test_resume_rejects_other_model_kind(self, micro_corpus, tmp_path):
        adanet = {**MICRO, "model": "adanet", "anchors": 6}
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**adanet, stop_after_epochs=1),
              tmp_path / "a.ckpt", tmp_path / "a.log")
        before = (tmp_path / "a.ckpt").read_bytes()
        with pytest.raises(ValueError, match="model_kind"):
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**MICRO), tmp_path / "a.ckpt", tmp_path / "a.log",
                  resume=True)
        assert (tmp_path / "a.ckpt").read_bytes() == before

    def test_resume_rejects_trainer_block_without_phase(self, micro_corpus, tmp_path):
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**MICRO, stop_after_epochs=1),
              tmp_path / "t.ckpt", tmp_path / "t.log")
        ckpt = checkpoint_load(tmp_path / "t.ckpt")
        del ckpt.trainer["phase"]
        checkpoint_save(ckpt, tmp_path / "t.ckpt")
        with pytest.raises(ValueError, match="'phase'"):
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**MICRO), tmp_path / "t.ckpt", tmp_path / "t.log",
                  resume=True)

    def test_trainer_state_round_trips_through_checkpoint(self, micro_corpus,
                                                          tmp_path):
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**MICRO, stop_after_epochs=1),
              tmp_path / "s.ckpt", tmp_path / "s.log")
        assert checkpoint_load(tmp_path / "s.ckpt").trainer == {
            "phase": 1, "epoch_in_phase": 1, "since_best": 0,
            "since_best_lr": 0, "done": False}
        block = {"phase": 2, "epoch_in_phase": 3, "since_best": 2,
                 "since_best_lr": 1, "done": True}
        assert asdict(TrainerState.from_dict(block)) == block

    def test_checkpoint_carries_anchor_array_for_adanet(self, micro_corpus, tmp_path):
        settings = TrainSettings(**{**MICRO, "model": "adanet", "anchors": 6})
        train(micro_corpus["train"], micro_corpus["validation"], settings,
              tmp_path / "a.ckpt", tmp_path / "a.log")
        loaded = checkpoint_load(tmp_path / "a.ckpt")
        assert loaded.arrays["best/anchors"].shape == (6, 4)
        assert loaded.model_kind == "adanet"

    def test_danet_checkpoint_stores_fixed_table(self, micro_corpus, tmp_path):
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**MICRO), tmp_path / "f.ckpt", tmp_path / "f.log")
        loaded = checkpoint_load(tmp_path / "f.ckpt")
        assert loaded.fixed_attractor_table is not None
        assert loaded.fixed_attractor_table.shape == (2, 4)

    def test_divergence_aborts_with_step_recorded(self, micro_corpus, tmp_path,
                                                  monkeypatch):
        import danet.training as training_mod

        monkeypatch.setattr(training_mod, "train_step",
                            lambda *a, **k: float("nan"))
        with pytest.raises(TrainingDiverged, match="epoch 1, step 0"):
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**MICRO), tmp_path / "n.ckpt", tmp_path / "n.log")

    def test_patience_lr_below_three_halves_rate(self, micro_corpus, tmp_path,
                                                 monkeypatch):
        import danet.training as training_mod

        # No updates: the validation loss never improves after epoch 1, so
        # the rate halves every 3 epochs, phase one ends 5 epochs after its
        # best and phase two stops after 10, well inside the epoch caps.
        monkeypatch.setattr(training_mod, "train_step", lambda *a, **k: 0.0)
        settings = TrainSettings(**{**MICRO, "epochs_short": 8, "epochs_long": 20})
        train(micro_corpus["train"], micro_corpus["validation"], settings,
              tmp_path / "p.ckpt", tmp_path / "p.log")
        rows = [line.split(",") for line in
                (tmp_path / "p.log").read_text().strip().splitlines()[1:]]
        lr = {phase: [float(r[2]) for r in rows if r[1] == phase]
              for phase in ("1", "2")}
        assert lr["1"] == [1e-3] * 4 + [5e-4] * 2
        assert lr["2"] == [1e-4] * 3 + [5e-5] * 3 + [2.5e-5] * 3 + [1.25e-5]

    def test_settings_default_to_the_net_config(self):
        assert TrainSettings().embed_config() == EmbedNetConfig()

    def _refused(self, micro_corpus, tmp_path, settings, match):
        with pytest.raises(ValueError, match=match):
            train(micro_corpus["train"], micro_corpus["validation"], settings,
                  tmp_path / "x.ckpt", tmp_path / "x.log")
        assert not (tmp_path / "x.ckpt").exists()
        assert not (tmp_path / "x.log").exists()

    def test_adanet_without_anchors_rejected(self, micro_corpus, tmp_path):
        self._refused(micro_corpus, tmp_path,
                      TrainSettings(**MICRO, model="adanet", anchors=0), "anchors=0")

    def test_unknown_model_rejected(self, micro_corpus, tmp_path):
        self._refused(micro_corpus, tmp_path,
                      TrainSettings(**MICRO, model="bogus"), "model.*'bogus'")

    def test_fewer_anchors_than_slots_rejected(self, micro_corpus, tmp_path):
        self._refused(micro_corpus, tmp_path,
                      TrainSettings(**MICRO, model="adanet", anchors=2, slots=3),
                      "anchors=2 is below the 3 output slots")

    def test_fewer_slots_than_sources_rejected(self, micro_corpus, tmp_path):
        self._refused(micro_corpus, tmp_path,
                      TrainSettings(**MICRO, model="adanet", slots=1), "slots=1")

    @pytest.mark.parametrize("stored, requested, match", [
        ({}, {"hidden_sizes": (64, 64), "embed_dim": 8}, "config.hidden_sizes"),
        ({"model": "adanet", "anchors": 6}, {"model": "adanet", "anchors": 5},
         "n_anchors"),
        ({"model": "adanet", "anchors": 6}, {"model": "adanet", "anchors": 6,
                                             "slots": 3}, "slots"),
    ], ids=["architecture", "anchors", "slots"])
    def test_resume_rejects_other_net(self, micro_corpus, tmp_path, stored,
                                      requested, match):
        train(micro_corpus["train"], micro_corpus["validation"],
              TrainSettings(**{**MICRO, **stored}, stop_after_epochs=1),
              tmp_path / "r.ckpt", tmp_path / "r.log")
        before = [(tmp_path / n).read_bytes() for n in ("r.ckpt", "r.log")]
        with pytest.raises(ValueError, match=match):
            train(micro_corpus["train"], micro_corpus["validation"],
                  TrainSettings(**{**MICRO, **requested}), tmp_path / "r.ckpt",
                  tmp_path / "r.log", resume=True)
        assert [(tmp_path / n).read_bytes() for n in ("r.ckpt", "r.log")] == before

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train([], [], TrainSettings(**MICRO), tmp_path / "x.ckpt",
                  tmp_path / "x.log")

    @pytest.mark.parametrize("q", [0.0, 1.5, -0.1, float("nan")])
    def test_q_outside_unit_interval_rejected_before_any_io(self, tmp_path, q):
        # the rows name no file: reading the corpus would raise OSError
        rows = [{"mixture_path": tmp_path / "missing.wav",
                 "source_paths": [tmp_path / "missing_s0.wav"]}]
        with pytest.raises(ValueError, match=r"TrainSettings\.q"):
            train(rows, rows, TrainSettings(**MICRO, q=q), tmp_path / "x.ckpt",
                  tmp_path / "x.log")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_truncated_wav_fails_before_log_or_checkpoint(self, micro_corpus,
                                                          tmp_path, split):
        # the last source of the split's last row: every file is read up
        # front, not only those the first steps transform
        rows = {name: [dict(r) for r in micro_corpus[name]]
                for name in ("train", "validation")}
        last = rows[split][-1]
        cut = tmp_path / "cut.wav"
        cut.write_bytes(last["source_paths"][-1].read_bytes()[:-100])
        last["source_paths"] = [*last["source_paths"][:-1], cut]
        with pytest.raises(ValueError, match="cut.wav"):
            train(rows["train"], rows["validation"], TrainSettings(**MICRO),
                  tmp_path / "t.ckpt", tmp_path / "t.log")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.wav"]


class TestLoadCorpus:
    def test_holds_int16_pcm_of_the_files(self, micro_corpus):
        rows = micro_corpus["train"]
        corpus = load_corpus(rows)
        assert [item["C"] for item in corpus] == [len(r["source_paths"]) for r in rows]
        for row, item in zip(rows, corpus):
            paths = [row["mixture_path"], *row["source_paths"]]
            utterance = read_utterance(item)
            assert item["n"] == len(utterance["mix"])
            for path, pcm in zip(paths, [utterance["mix"], *utterance["sources"]],
                                 strict=True):
                assert pcm.dtype == np.int16 and pcm.itemsize == 2
                assert (pcm_waveform(pcm).samples.tobytes()
                        == wav_read(path).samples.tobytes())


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096 / 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="malloc_trim is a glibc call")
class TestReleaseFreedMemory:
    def test_freed_heap_holes_leave_the_resident_set(self):
        # 100 kB arrays sit below glibc's mmap threshold, on the heap; every
        # tenth stays alive, so the 36 MB freed around them are holes that
        # free() cannot hand back from the top of the heap.
        arrays = [np.ones(12_800) for _ in range(400)]
        kept = arrays[::10]
        del arrays
        gc.collect()
        before = _resident_mb()
        _release_freed_memory()
        assert before - _resident_mb() > 18.0
        assert all(a[0] == 1.0 for a in kept)


class TestChunks:
    def test_remainder_frames_are_skipped(self):
        # a 2 s utterance has 247 frames: phase 1 trains on frames 0-199
        # and skips the last 47; a chunk no longer than the utterance is
        # the whole utterance
        assert _chunks(247, 100) == [(0, 100), (100, 100)]
        assert _chunks(100, 100) == [(0, 100)]
        assert _chunks(50, 100) == [(0, 50)]


class TestChunkSpectrogram:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(WINDOW_LEN, 4000), data=st.data())
    def test_chunk_equals_slice_of_whole_utterance(self, n, data):
        frames = n_frames(n)
        start = data.draw(st.integers(0, frames - 1), label="start")
        length = data.draw(st.integers(1, frames - start), label="length")
        rng = np.random.default_rng(n)
        item = {"mix": rng.integers(-32768, 32768, n, dtype=np.int16),
                "sources": [rng.integers(-16384, 16384, n, dtype=np.int16)
                            for _ in range(2)]}
        cols = slice(start, start + length)
        samples = item["mix"][start * HOP : (start + length - 1) * HOP + WINDOW_LEN]
        np.testing.assert_array_equal(stft(pcm_waveform(samples)),
                                      stft(pcm_waveform(item["mix"]))[:, cols])
        mix, src = _utterance_mags(item)
        mix_chunk, src_chunk = _utterance_mags(item, (start, length))
        np.testing.assert_array_equal(mix_chunk, mix[:, cols])
        np.testing.assert_array_equal(src_chunk, src[:, :, cols])


class TestLossGradients:
    """Every parameter's gradient of ``training_loss`` against central
    differences, on a tiny net, in the cases the acceptance check (softmax
    masks, C = slots = 2) leaves out."""

    @pytest.mark.parametrize("n_anchors,c,slots,mask_nl", [
        (0, 2, None, "sigmoid"),
        (6, 2, 2, "sigmoid"),
        (6, 2, 3, "softmax"),      # one slot left empty, its target all zero
        (6, 3, 3, "softmax"),      # PIT searches all six permutations
    ])
    def test_matches_finite_differences(self, n_anchors, c, slots, mask_nl):
        cfg = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7,
                             mask_nl=mask_nl)
        net = EmbedNet(cfg, seed=3, n_anchors=n_anchors)
        src = np.random.default_rng(c).uniform(0.01, 1.0, size=(c, 7, 6))
        mix = src.sum(axis=0)
        net.zero_grad()
        training_loss(net, mix, src, slots=slots).backward()
        h = 1e-5
        for name, p in net.params.items():
            flat = p.data.reshape(-1)
            fd = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = training_loss(net, mix, src, slots=slots).item()
                flat[i] = orig - h
                down = training_loss(net, mix, src, slots=slots).item()
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(p.grad.reshape(-1), fd, rtol=1e-5, atol=1e-9,
                                       err_msg=name)


class TestStepMemory:
    # tracemalloc peak, in bytes, of the same steady-state step when every
    # operation after the embedding was its own tape node; the peak is the
    # same on every repeat and at any BLAS thread count
    @pytest.mark.parametrize("n_anchors,c,slots,tape_peak", [
        (0, 2, None, 22_691_232),
        (6, 2, 3, 28_815_432),
        (6, 3, 3, 28_815_432),
    ])
    def test_step_peak_within_the_per_op_tape(self, n_anchors, c, slots, tape_peak):
        net = EmbedNet(EmbedNetConfig(), seed=0, n_anchors=n_anchors)
        opt = AdamState()
        src = np.random.default_rng(0).uniform(0.0, 1.0, (c, 129, 247)) ** 3
        mix = src.sum(axis=0)
        train_step(net, opt, mix, src, slots=slots)      # Adam's moments exist
        tracemalloc.start()
        try:
            train_step(net, opt, mix, src, slots=slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tape_peak

    def test_adam_step_peak_under_one_mib(self):
        # parameters, moments and gradients are updated in place through a
        # small scratch; the out-of-place update peaked at 18 MB here
        net = EmbedNet(EmbedNetConfig(), seed=0)
        rng = np.random.default_rng(1)
        for p in net.params.values():
            p.grad = rng.standard_normal(p.data.shape)
        opt = AdamState()
        adam_step(net.params, opt)                        # the moments exist
        tracemalloc.start()
        try:
            adam_step(net.params, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_steady_step_makes_no_new_gradient_array(self):
        # every weight and bias gradient lands in the array its parameter
        # keeps for the run
        net = EmbedNet(EmbedNetConfig(), seed=0)
        opt = AdamState()
        src = np.random.default_rng(0).uniform(0.0, 1.0, (2, 129, 100)) ** 3
        train_step(net, opt, src.sum(axis=0), src)
        held = {name: p.grad for name, p in net.params.items()}
        for _ in range(2):
            train_step(net, opt, src.sum(axis=0), src)
            for name, p in net.params.items():
                assert p.grad is held[name], name


class TestBestSnapshot:
    @pytest.mark.parametrize("resumed", [False, True], ids=["straight", "resumed"])
    def test_steps_leave_the_best_parameters_alone(self, micro_corpus, tmp_path,
                                                   monkeypatch, resumed):
        # Adam steps in place, so the best snapshot must not share arrays
        # with the parameters it steps: every checkpoint's best/* must equal
        # the param/* saved at the best epoch so far
        import danet.training as training_mod

        saved = {}

        def save(ckpt, path):
            saved[ckpt.epoch] = {k: a.copy() for k, a in ckpt.arrays.items()}
            real_save(ckpt, path)

        real_save = training_mod.checkpoint_save
        monkeypatch.setattr(training_mod, "checkpoint_save", save)
        # at this rate epoch 3 does not improve on epoch 2
        settings = {**MICRO, "model": "adanet", "anchors": 6, "lr": 0.05}
        args = (micro_corpus["train"], micro_corpus["validation"])
        paths = (tmp_path / "b.ckpt", tmp_path / "b.log")
        if resumed:
            train(*args, TrainSettings(**settings, stop_after_epochs=1), *paths)
        final = train(*args, TrainSettings(**settings), *paths, resume=resumed)
        rows = [line.split(",") for line in paths[1].read_text().splitlines()[1:]]
        improved = [row[-1] == "1" for row in rows]
        assert len(rows) >= 3 and improved[1] and not improved[2]
        best_epoch = 0
        for epoch, better in enumerate(improved, start=1):
            if better:
                best_epoch = epoch
            for name in net_names(saved[epoch]):
                assert (saved[epoch][f"best/{name}"].tobytes()
                        == saved[best_epoch][f"param/{name}"].tobytes()), (epoch, name)
        for name in net_names(saved[best_epoch]):
            assert (final.arrays[f"best/{name}"].tobytes()
                    == saved[best_epoch][f"param/{name}"].tobytes())


def net_names(arrays: dict) -> list:
    return [key[len("param/"):] for key in arrays if key.startswith("param/")]
