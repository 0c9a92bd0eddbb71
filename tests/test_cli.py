"""End-to-end command-line behavior on a micro corpus."""

import csv
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from danet.checkpoint import checkpoint_load, checkpoint_save
from danet.cli import main
from danet.data import load_index
from danet.dsp import Waveform, istft, stft
from danet.training import TrainSettings
from danet.wavio import wav_read, wav_write

MICRO_TRAIN = [
    "--chunk-short", "40", "--chunk-long", "80",
    "--epochs-short", "2", "--epochs-long", "1",
    "--context", "1", "--hidden", "12", "--embed-dim", "4",
]


# index rows the loader refuses, with the field its message names
MALFORMED_ROWS = [
    ({"source_paths": ["a.wav"]}, "'mixture_path'"),
    ([1, 2], "not a JSON object"),
    ({"mixture_path": 5, "source_paths": ["a.wav"]}, "'mixture_path'"),
    ({"mixture_path": "m.wav", "source_paths": "a.wav"}, "'source_paths'"),
]


# `danet <command> --help` at 80 columns, pinned byte for byte
HELP = {
    "gen": """\
usage: danet gen [-h] [--seed SEED] [--config CONFIG] [--out OUT]
                 [--mixtures MIXTURES] [--speakers SPEAKERS] [--split SPLIT]
                 [--all] [--duration DURATION]

options:
  -h, --help           show this help message and exit
  --seed SEED          random seed
  --config CONFIG      key=value config file; flags override it
  --out OUT            output directory (required)
  --mixtures MIXTURES  mixtures to generate
  --speakers SPEAKERS  source count per mixture, e.g. 2 or 2,3
  --split SPLIT        split name: train|validation|test
  --all                generate the standard train/validation/test corpus
  --duration DURATION  utterance length in seconds
""",
    "train": """\
usage: danet train [-h] [--seed SEED] [--config CONFIG] [--data DATA]
                   [--out OUT] [--log LOG] [--model MODEL] [--anchors ANCHORS]
                   [--slots SLOTS] [--epochs-short EPOCHS_SHORT]
                   [--epochs-long EPOCHS_LONG] [--chunk-short CHUNK_SHORT]
                   [--chunk-long CHUNK_LONG] [--lr LR] [--lr-long LR_LONG]
                   [--q Q] [--context CONTEXT] [--hidden HIDDEN]
                   [--embed-dim EMBED_DIM] [--mask-nl MASK_NL] [--resume]
                   [--stop-after STOP_AFTER]

options:
  -h, --help            show this help message and exit
  --seed SEED           random seed
  --config CONFIG       key=value config file; flags override it
  --data DATA           corpus directory with train/ and validation/
                        (required)
  --out OUT             checkpoint output path (required)
  --log LOG             loss log CSV path (default: <out>.log.csv)
  --model MODEL         danet | adanet
  --anchors ANCHORS     anchor count (adanet)
  --slots SLOTS         adanet output slots (default: max C in data)
  --epochs-short EPOCHS_SHORT
                        epoch cap for the short-chunk phase
  --epochs-long EPOCHS_LONG
                        epoch cap for the long-chunk phase
  --chunk-short CHUNK_SHORT
                        short-phase chunk length in frames
  --chunk-long CHUNK_LONG
                        long-phase chunk length in frames
  --lr LR               initial learning rate
  --lr-long LR_LONG     learning rate restart for the long phase
  --q Q                 salience threshold keep fraction
  --context CONTEXT     context frames on each side
  --hidden HIDDEN       hidden layer sizes
  --embed-dim EMBED_DIM
                        embedding dimension
  --mask-nl MASK_NL     mask nonlinearity: softmax | sigmoid
  --resume              resume from the checkpoint at --out
  --stop-after STOP_AFTER
                        stop cleanly after N total epochs
""",
    "separate": """\
usage: danet separate [-h] [--seed SEED] [--config CONFIG]
                      [--checkpoint CHECKPOINT] [--input INPUT] [--out OUT]
                      [--speakers SPEAKERS] [--strategy STRATEGY] [--q Q]

options:
  -h, --help            show this help message and exit
  --seed SEED           random seed
  --config CONFIG       key=value config file; flags override it
  --checkpoint CHECKPOINT
                        model checkpoint (required)
  --input INPUT         mixture WAV (required)
  --out OUT             output directory
  --speakers SPEAKERS   source count, or 'auto' (anchored only)
  --strategy STRATEGY   kmeans | fixed | anchored
  --q Q                 salience threshold keep fraction
""",
    "evaluate": """\
usage: danet evaluate [-h] [--seed SEED] [--config CONFIG]
                      [--checkpoint CHECKPOINT] [--data DATA] [--out OUT]
                      [--strategy STRATEGY] [--oracle ORACLE] [--q Q]

options:
  -h, --help            show this help message and exit
  --seed SEED           random seed
  --config CONFIG       key=value config file; flags override it
  --checkpoint CHECKPOINT
                        model checkpoint (needed unless --oracle)
  --data DATA           test split directory with index.jsonl (required)
  --out OUT             per-mixture scores CSV (required)
  --strategy STRATEGY   kmeans | fixed | anchored
  --oracle ORACLE       score ideal masks instead: wfm | irm | ibm | mix
  --q Q                 salience threshold keep fraction
""",
    "diagnose": """\
usage: danet diagnose [-h] [--seed SEED] [--config CONFIG]
                      [--checkpoint CHECKPOINT] [--input INPUT] [--refs REFS]
                      [--out OUT] [--q Q]

options:
  -h, --help            show this help message and exit
  --seed SEED           random seed
  --config CONFIG       key=value config file; flags override it
  --checkpoint CHECKPOINT
                        model checkpoint (required)
  --input INPUT         mixture WAV (required)
  --refs REFS           comma-separated reference WAVs (required)
  --out OUT             embedding diagnostics CSV (required)
  --q Q                 salience threshold keep fraction
""",
}


def rewrite_header(src, dst, edit):
    """Copy a checkpoint, passing its JSON header through ``edit``."""
    blob = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    encoded = json.dumps(header).encode()
    dst.write_bytes(blob[:12] + struct.pack("<I", len(encoded)) + encoded
                    + blob[16 + header_len :])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    for split, n in [("train", 8), ("validation", 4), ("test", 4)]:
        assert main([
            "gen", "--out", str(root / split), "--split", split,
            "--mixtures", str(n), "--speakers", "2", "--seed", "0",
            "--duration", "0.5",
        ]) == 0
    return root


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model")
    ckpt = out / "model.ckpt"
    assert main([
        "train", "--data", str(corpus), "--out", str(ckpt), "--seed", "0",
        *MICRO_TRAIN,
    ]) == 0
    return ckpt


@pytest.fixture(scope="module")
def trained_adanet(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_adanet")
    ckpt = out / "adanet.ckpt"
    assert main([
        "train", "--data", str(corpus), "--out", str(ckpt), "--seed", "0",
        "--model", "adanet", "--anchors", "6", *MICRO_TRAIN,
    ]) == 0
    return ckpt


@pytest.fixture(scope="module")
def trained_mixed(tmp_path_factory):
    """A DANet trained on 2- and 3-speaker mixtures, and that corpus."""
    root = tmp_path_factory.mktemp("cli_mixed")
    for split, n in [("train", 8), ("validation", 4), ("test", 6)]:
        assert main([
            "gen", "--out", str(root / split), "--split", split,
            "--mixtures", str(n), "--speakers", "2,3", "--seed", "1",
            "--duration", "0.5",
        ]) == 0
    ckpt = root / "model.ckpt"
    assert main([
        "train", "--data", str(root), "--out", str(ckpt), "--seed", "0",
        *MICRO_TRAIN,
    ]) == 0
    return root, ckpt


class TestGen:
    def test_index_row_count(self, corpus):
        rows = (corpus / "test" / "index.jsonl").read_text().strip().splitlines()
        assert len(rows) == 4

    def test_rerun_identical_tree(self, corpus, tmp_path):
        assert main([
            "gen", "--out", str(tmp_path / "re"), "--split", "test",
            "--mixtures", "4", "--speakers", "2", "--seed", "0",
            "--duration", "0.5",
        ]) == 0
        for f in sorted((corpus / "test").iterdir()):
            assert (tmp_path / "re" / f.name).read_bytes() == f.read_bytes()

    def test_four_speakers_usage_error(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path), "--speakers", "4"]) == 1

    def test_missing_out_usage_error(self):
        assert main(["gen", "--mixtures", "3"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert "--mixtures" in capsys.readouterr().out

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--bogus", "1"])
        assert exc.value.code == 1


class TestConfigFile:
    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "out = {}\nmixtures = 3\nspeakers = 2\nseed = 5\nduration = 0.5\n"
            "split = test\n".format(tmp_path / "from_cfg")
        )
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main([
            "gen", "--out", str(tmp_path / "from_flags"), "--split", "test",
            "--mixtures", "3", "--speakers", "2", "--seed", "5",
            "--duration", "0.5",
        ]) == 0
        for f in sorted((tmp_path / "from_cfg").iterdir()):
            assert (tmp_path / "from_flags" / f.name).read_bytes() == f.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"out = {tmp_path / 'o'}\nmixtures = 2\nduration = 0.5\n")
        assert main(["gen", "--config", str(cfg), "--mixtures", "5",
                     "--split", "test"]) == 0
        rows = (tmp_path / "o" / "index.jsonl").read_text().strip().splitlines()
        assert len(rows) == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path)]) == 1


class TestTrain:
    def test_loss_log_written(self, trained):
        log = trained.parent / (trained.name + ".log.csv")
        lines = log.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,phase,lr")
        assert len(lines) >= 3

    def test_identical_seeds_identical_logs(self, corpus, tmp_path):
        for name in ("r1", "r2"):
            assert main([
                "train", "--data", str(corpus), "--out", str(tmp_path / name),
                "--seed", "3", *MICRO_TRAIN,
            ]) == 0
        assert (tmp_path / "r1.log.csv").read_bytes() == (tmp_path / "r2.log.csv").read_bytes()

    def test_adanet_checkpoint_stores_anchor_table(self, trained_adanet):
        from danet.checkpoint import checkpoint_load

        ckpt = checkpoint_load(trained_adanet)
        assert ckpt.arrays["best/anchors"].shape == (6, 4)

    def test_resume_with_other_model_exits_two(self, corpus, trained_adanet,
                                                tmp_path, capsys):
        ckpt = tmp_path / "adanet.ckpt"
        ckpt.write_bytes(trained_adanet.read_bytes())
        # --model defaults to danet, which the anchored checkpoint is not
        assert main([
            "train", "--data", str(corpus), "--out", str(ckpt), "--seed", "0",
            "--resume", *MICRO_TRAIN,
        ]) == 2
        assert "model_kind" in capsys.readouterr().err
        assert ckpt.read_bytes() == trained_adanet.read_bytes()

    def test_resume_without_trainer_phase_exits_two(self, corpus, trained,
                                                    tmp_path, capsys):
        ckpt = tmp_path / "nophase.ckpt"
        rewrite_header(trained, ckpt, lambda h: h["trainer"].pop("phase"))
        assert main([
            "train", "--data", str(corpus), "--out", str(ckpt), "--seed", "0",
            "--resume", *MICRO_TRAIN,
        ]) == 2
        err = capsys.readouterr().err
        assert "'phase'" in err and "Traceback" not in err

    def test_untrainable_settings_exit_two(self, corpus, trained, tmp_path,
                                           capsys):
        resumed = tmp_path / "resumed.ckpt"
        resumed.write_bytes(trained.read_bytes())
        cases = [
            (["--model", "adanet", "--anchors", "0"], "anchors=0"),
            (["--model", "adanet", "--anchors", "2", "--slots", "3"], "anchors=2"),
            (["--model", "adanet", "--slots", "1"], "slots=1"),
            (["--resume", "--hidden", "64,64", "--embed-dim", "8"],
             "config.hidden_sizes"),
        ]
        for extra, field in cases:
            out = resumed if "--resume" in extra else tmp_path / "new.ckpt"
            assert main([
                "train", "--data", str(corpus), "--out", str(out), "--seed", "0",
                *MICRO_TRAIN, *extra,
            ]) == 2
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err
            assert not (tmp_path / "new.ckpt").exists()
        assert resumed.read_bytes() == trained.read_bytes()

    @pytest.mark.parametrize("row, field", MALFORMED_ROWS)
    def test_malformed_index_row_exits_two(self, corpus, tmp_path, capsys,
                                           row, field):
        data = tmp_path / "data"
        for split in ("train", "validation"):
            (data / split).mkdir(parents=True)
            for f in (corpus / split).iterdir():
                (data / split / f.name).write_bytes(f.read_bytes())
        with open(data / "validation" / "index.jsonl", "a") as fh:
            fh.write(json.dumps(row) + "\n")
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "x.ckpt"), *MICRO_TRAIN]) == 2
        err = capsys.readouterr().err
        assert "index.jsonl:5" in err and field in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_data_runtime_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_bad_model_usage_error(self, corpus, tmp_path):
        assert main(["train", "--data", str(corpus), "--out",
                     str(tmp_path / "x.ckpt"), "--model", "mystery"]) == 1

    def test_only_given_options_reach_the_settings(self, corpus, tmp_path,
                                                   monkeypatch):
        import danet.cli as cli_mod

        seen = []

        def fake_train(train_rows, val_rows, settings, *args, **kwargs):
            seen.append(settings)
            return SimpleNamespace(epoch=0, best_val_loss=None)

        monkeypatch.setattr(cli_mod, "train", fake_train)
        out = str(tmp_path / "x.ckpt")
        config = tmp_path / "train.cfg"
        config.write_text("lr = 0.5\nhidden = 4,4\n")
        assert main(["train", "--data", str(corpus), "--out", out]) == 0
        assert main(["train", "--data", str(corpus), "--out", out,
                     "--config", str(config), "--seed", "3",
                     "--stop-after", "0"]) == 0
        assert seen == [TrainSettings(),
                        TrainSettings(lr=0.5, hidden_sizes=(4, 4), seed=3,
                                      stop_after_epochs=0)]


class TestSeparate:
    def test_writes_per_source_files(self, corpus, trained, tmp_path):
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(trained),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
            "--speakers", "2", "--strategy", "kmeans",
        ]) == 0
        stem = row["mixture_path"].stem
        outs = sorted(tmp_path.glob(f"{stem}_src*.wav"))
        assert len(outs) == 2

    def test_outputs_sum_to_reconstruction(self, corpus, trained, tmp_path):
        row = load_index(corpus / "test" / "index.jsonl")[1]
        assert main([
            "separate", "--checkpoint", str(trained),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
            "--speakers", "2",
        ]) == 0
        stem = row["mixture_path"].stem
        outs = sorted(tmp_path.glob(f"{stem}_src*.wav"))
        total = sum(wav_read(p).samples for p in outs)
        mix = wav_read(row["mixture_path"])
        recon = istft(stft(mix)).samples
        # quantization adds at most 1 LSB per source on top of the 1e-6 match
        assert np.abs(total - recon).max() < 1e-4

    def test_fixed_strategy_runs_from_stored_table(self, corpus, trained, tmp_path):
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(trained),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path / "fx"),
            "--speakers", "2", "--strategy", "fixed",
        ]) == 0

    def test_fixed_without_table_fails(self, corpus, trained_adanet, tmp_path):
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(trained_adanet),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
            "--speakers", "2", "--strategy", "fixed",
        ]) == 2

    def test_truncated_checkpoint_exits_two(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(b"DANCKPT\0" + b"\x01\x00")
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(ckpt),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "header" in err and "Traceback" not in err

    def test_header_without_config_exits_two(self, corpus, trained, tmp_path,
                                             capsys):
        ckpt = tmp_path / "noconfig.ckpt"
        rewrite_header(trained, ckpt, lambda h: h.pop("config"))
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(ckpt),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "'config'" in err and "Traceback" not in err

    @pytest.mark.parametrize("model,strategy,array,bad", [
        ("trained", "kmeans", "best/w_out", np.nan),
        ("trained", "fixed", "fixed_attractors", np.inf),
        ("trained_adanet", "anchored", "best/w_out", np.nan),
        ("trained_adanet", "anchored", "best/anchors", -np.inf),
    ])
    def test_non_finite_array_named(self, corpus, tmp_path, capsys, request, model,
                                    strategy, array, bad):
        ckpt = checkpoint_load(request.getfixturevalue(model))
        ckpt.arrays[array] = ckpt.arrays[array].copy()
        ckpt.arrays[array].flat[0] = bad
        path = tmp_path / "bad.ckpt"
        checkpoint_save(ckpt, path)
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(path), "--strategy", strategy,
            "--input", str(row["mixture_path"]), "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"'{array}'" in err and "NaN or ±inf" in err
        assert not (tmp_path / "out").exists()

    def test_auto_requires_anchored(self, corpus, trained, tmp_path):
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(trained),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
            "--speakers", "auto",
        ]) == 1

    @pytest.mark.parametrize("extra, message", [
        (["--strategy", "bogus"], "unknown strategy 'bogus'"),
        (["--speakers", "auto", "--strategy", "kmeans"],
         "--speakers auto requires --strategy anchored"),
        (["--speakers", "x"], "invalid --speakers value 'x'"),
    ], ids=["strategy", "auto-kmeans", "speakers"])
    def test_usage_error_before_any_read(self, tmp_path, capsys, extra, message):
        # the checkpoint and input do not exist: a usage error must win
        assert main([
            "separate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--input", str(tmp_path / "missing.wav"),
            "--out", str(tmp_path / "out"), *extra,
        ]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_auto_discards_silent_output(self, corpus, trained_adanet, tmp_path,
                                         monkeypatch):
        # constructed fixture: the separator returns two live outputs and one
        # 40 dB quieter; auto mode must keep exactly the two live ones
        import danet.cli as cli_mod

        rng = np.random.default_rng(0)
        live = [Waveform(rng.uniform(-0.5, 0.5, 4000)) for _ in range(2)]
        silent = Waveform(rng.uniform(-0.005, 0.005, 4000))
        monkeypatch.setattr(cli_mod, "separate",
                            lambda *a, **k: [live[0], silent, live[1]])
        row = load_index(corpus / "test" / "index.jsonl")[0]
        assert main([
            "separate", "--checkpoint", str(trained_adanet),
            "--input", str(row["mixture_path"]), "--out", str(tmp_path),
            "--speakers", "auto", "--strategy", "anchored",
        ]) == 0
        stem = row["mixture_path"].stem
        outs = sorted(tmp_path.glob(f"{stem}_src*.wav"))
        assert len(outs) == 2


def skipped_count(summary) -> int:
    """The count on the ``mixtures_skipped`` row of an evaluate summary."""
    with open(summary) as fh:
        counts = [r["mean"] for r in csv.DictReader(fh)
                  if r["metric"] == "mixtures_skipped"]
    assert len(counts) == 1
    return int(counts[0])


class TestEvaluate:
    def test_csv_row_count_equals_mixtures(self, corpus, trained, tmp_path):
        out = tmp_path / "scores.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained),
            "--data", str(corpus / "test"), "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert skipped_count(tmp_path / "scores_summary.csv") == 0

    def test_oracle_wfm_has_positive_median(self, corpus, tmp_path):
        out = tmp_path / "wfm.csv"
        assert main([
            "evaluate", "--oracle", "wfm", "--data", str(corpus / "test"),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            med = np.median([float(r["si_snri_db"]) for r in csv.DictReader(fh)])
        assert med > 0

    def test_mixture_baseline_scores_zero_improvement(self, corpus, tmp_path):
        out = tmp_path / "mix.csv"
        assert main([
            "evaluate", "--oracle", "mix", "--data", str(corpus / "test"),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            vals = [float(r["si_snri_db"]) for r in csv.DictReader(fh)]
        assert np.abs(vals).max() < 1e-9

    def test_missing_files_skipped_not_fatal(self, corpus, trained, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        rows = (corpus / "test" / "index.jsonl").read_text().strip().splitlines()
        (broken / "index.jsonl").write_text("\n".join(rows) + "\n")
        # only copy the files for the first two mixtures
        for row in [json.loads(r) for r in rows[:2]]:
            for name in [row["mixture_path"], *row["source_paths"]]:
                (broken / name).write_bytes((corpus / "test" / name).read_bytes())
        out = tmp_path / "partial.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained), "--data", str(broken),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 2
        assert skipped_count(tmp_path / "partial_summary.csv") == len(rows) - 2

    def test_cut_wav_skipped_not_fatal(self, corpus, trained, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        for f in (corpus / "test").iterdir():
            (cut / f.name).write_bytes(f.read_bytes())
        first = json.loads((cut / "index.jsonl").read_text().splitlines()[0])
        mix = cut / first["mixture_path"]
        mix.write_bytes(mix.read_bytes()[:30])  # ends inside the fmt chunk
        out = tmp_path / "cut.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained), "--data", str(cut),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 3
        assert "fmt chunk truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("row, field", MALFORMED_ROWS)
    def test_malformed_index_row_exits_two(self, corpus, trained, tmp_path,
                                           capsys, row, field):
        data = tmp_path / "bad"
        data.mkdir()
        rows = (corpus / "test" / "index.jsonl").read_text()
        (data / "index.jsonl").write_text(rows + json.dumps(row) + "\n")
        out = tmp_path / "bad.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained), "--data", str(data),
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "index.jsonl:5" in err and field in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_strategy_before_any_read(self, tmp_path, capsys):
        # the checkpoint and data do not exist: the usage error must win,
        # also for an oracle run, which uses no strategy
        for source in (["--checkpoint", str(tmp_path / "missing.ckpt")],
                       ["--oracle", "wfm"]):
            assert main([
                "evaluate", *source, "--data", str(tmp_path / "missing"),
                "--out", str(tmp_path / "x.csv"), "--strategy", "bogus",
            ]) == 1
            err = capsys.readouterr().err
            assert "unknown strategy 'bogus'" in err and "Traceback" not in err

    def test_silent_source_skipped_not_fatal(self, corpus, trained, tmp_path,
                                            capsys):
        # a reference that is zero after mean removal cannot be scored;
        # that one mixture is left out and the others are scored
        data = tmp_path / "silent"
        data.mkdir()
        for f in (corpus / "test").iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        third = json.loads((data / "index.jsonl").read_text().splitlines()[2])
        wav_write(Waveform(np.zeros(4000)), data / third["source_paths"][1])
        out = tmp_path / "silent.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained), "--data", str(data),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            names = [r["mixture"] for r in csv.DictReader(fh)]
        assert len(names) == 3 and third["mixture_path"] not in names
        assert skipped_count(tmp_path / "silent_summary.csv") == 1
        err = capsys.readouterr().err
        assert "skipped 1 mixtures that could not be separated or scored" in err
        assert f"{third['mixture_path']}: reference is zero" in err
        assert "Traceback" not in err

    def test_fixed_table_of_other_c_skipped_not_fatal(self, trained_mixed,
                                                      tmp_path, capsys):
        # the fixed table has one row per source of the largest training
        # mixture, so the 2-speaker mixtures are refused and the
        # 3-speaker ones scored
        root, ckpt = trained_mixed
        rows = load_index(root / "test" / "index.jsonl")
        counts = [len(r["source_paths"]) for r in rows]
        assert 2 in counts and 3 in counts
        out = tmp_path / "fixed.csv"
        assert main([
            "evaluate", "--checkpoint", str(ckpt), "--data", str(root / "test"),
            "--out", str(out), "--strategy", "fixed",
        ]) == 0
        with open(out) as fh:
            scored = [(r["mixture"], r["C"]) for r in csv.DictReader(fh)]
        assert scored == [(r["mixture_path"].name, "3") for r in rows
                          if len(r["source_paths"]) == 3]
        err = capsys.readouterr().err
        assert f"skipped {counts.count(2)} mixtures that could not" in err
        for r in rows:
            if len(r["source_paths"]) == 2:
                assert (f"{r['mixture_path'].name}: fixed attractor table has 3 rows"
                        in err)
        assert "Traceback" not in err

    def test_nothing_scored_exits_two(self, corpus, trained, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "index.jsonl").write_text(
            (corpus / "test" / "index.jsonl").read_text())
        out = tmp_path / "none.csv"
        assert main([
            "evaluate", "--checkpoint", str(trained), "--data", str(empty),
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "skipped 4 mixtures" in err and "no mixture was scored" in err
        assert not out.exists()
        assert not (tmp_path / "none_summary.csv").exists()


class TestDiagnose:
    def test_row_count_is_bins_plus_attractors_plus_anchors(
        self, corpus, trained_adanet, tmp_path
    ):
        row = load_index(corpus / "test" / "index.jsonl")[0]
        out = tmp_path / "diag.csv"
        assert main([
            "diagnose", "--checkpoint", str(trained_adanet),
            "--input", str(row["mixture_path"]),
            "--refs", ",".join(str(p) for p in row["source_paths"]),
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        mix = wav_read(row["mixture_path"])
        n_frames = 1 + (len(mix) - 256) // 64
        ft = 129 * n_frames
        assert len(rows) == ft + 2 + 6
        kinds = {r["kind"] for r in rows}
        assert kinds == {"bin", "attractor", "anchor"}

    def test_bin_labels_match_dominant_source(self, corpus, trained, tmp_path):
        from danet.dsp import flatten_tf
        from danet.masks import ibm

        row = load_index(corpus / "test" / "index.jsonl")[1]
        out = tmp_path / "diag2.csv"
        assert main([
            "diagnose", "--checkpoint", str(trained),
            "--input", str(row["mixture_path"]),
            "--refs", ",".join(str(p) for p in row["source_paths"]),
            "--out", str(out),
        ]) == 0
        src_flat = np.stack([
            flatten_tf(np.abs(stft(wav_read(p))))
            for p in row["source_paths"]
        ])
        expected = ibm(src_flat).argmax(axis=0)
        with open(out) as fh:
            got = [int(r["label"]) for r in csv.DictReader(fh) if r["kind"] == "bin"]
        np.testing.assert_array_equal(got, expected)


class TestTopLevel:
    def test_no_command_exits_one(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command", list(HELP))
    def test_command_help_unchanged(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    def test_unknown_command_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1
        assert ("invalid choice: 'bogus' (choose from 'gen', 'train', 'separate', "
                "'evaluate', 'diagnose')") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{d}/missing", "--out", "{d}/m.ckpt", "--q", "0"],
        ["separate", "--checkpoint", "{d}/m.ckpt", "--input", "{d}/m.wav",
         "--out", "{d}/out", "--q", "1.5"],
        ["evaluate", "--checkpoint", "{d}/m.ckpt", "--data", "{d}/missing",
         "--out", "{d}/x.csv", "--q", "nan"],
        ["diagnose", "--checkpoint", "{d}/m.ckpt", "--input", "{d}/m.wav",
         "--refs", "{d}/r.wav", "--out", "{d}/d.csv", "--q", "-0.5"],
    ], ids=lambda argv: argv[0])
    def test_q_outside_unit_interval_before_any_io(self, tmp_path, capsys, argv):
        # no input exists: reading any would exit 2, not 1
        assert main([a.format(d=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "--q must lie in (0, 1]" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_top_level_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
