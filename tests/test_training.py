"""Curriculum trainer: determinism, resume equivalence, divergence guard."""

import gc
import platform
import sys
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.checkpoint import checkpoint_load, checkpoint_save
from danet.data import build_manifest, generate_dataset, load_index
from danet.dsp import HOP, WINDOW_LEN, n_frames, stft
from danet.nn import EmbedNetConfig
from danet.training import (
    TrainerState,
    TrainSettings,
    TrainingDiverged,
    _release_freed_memory,
    _utterance_mags,
    load_corpus,
    train,
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


class TestLoadCorpus:
    def test_holds_int16_pcm_of_the_files(self, micro_corpus):
        rows = micro_corpus["train"]
        corpus = load_corpus(rows)
        assert [item["C"] for item in corpus] == [len(r["source_paths"]) for r in rows]
        for row, item in zip(rows, corpus):
            paths = [row["mixture_path"], *row["source_paths"]]
            for path, pcm in zip(paths, [item["mix"], *item["sources"]]):
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
