"""WAV codec validation and checkpoint round-trips."""

import errno
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import danet.checkpoint as checkpoint_module
from danet.checkpoint import Checkpoint, checkpoint_load, checkpoint_save
from danet.dsp import Waveform
from danet.nn import AdamState, EmbedNet, EmbedNetConfig
from danet.training import train_step
from danet.wavio import wav_read, wav_read_pcm, wav_write

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


class TestWavWrite:
    def test_roundtrip_within_quantization_step(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.9, 0.9, 2000))
        path = tmp_path / "x.wav"
        wav_write(w, path)
        back = wav_read(path)
        assert np.abs(back.samples - w.samples).max() <= 1.0 / 32768.0

    def test_full_scale_saturates(self, tmp_path):
        path = tmp_path / "one.wav"
        wav_write(Waveform(np.array([1.0, -1.0])), path)
        payload = path.read_bytes()[-4:]
        assert struct.unpack("<hh", payload) == (32767, -32768)

    def test_zero_signal_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        wav_write(Waveform(np.zeros(64)), path)
        assert path.read_bytes()[-128:] == b"\x00" * 128

    def test_clipping_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="clipped"):
            wav_write(Waveform(np.array([1.5, 0.0, -2.0])), tmp_path / "c.wav")
        back = wav_read(tmp_path / "c.wav")
        assert abs(back.samples[0] - 32767 / 32768) < 1e-9

    def test_round_half_away_from_zero(self, tmp_path):
        # 0.5/32768 quantizes away from zero in both directions
        val = 0.5 / 32768.0
        path = tmp_path / "h.wav"
        wav_write(Waveform(np.array([val, -val])), path)
        assert struct.unpack("<hh", path.read_bytes()[-4:]) == (1, -1)


class TestWavRead:
    def _base(self, tmp_path):
        path = tmp_path / "ok.wav"
        wav_write(Waveform(np.linspace(-0.5, 0.5, 100)), path)
        return path

    def test_stereo_rejected(self, tmp_path):
        path = self._base(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[22:24] = struct.pack("<H", 2)  # channel count field
        bad = tmp_path / "stereo.wav"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="mono required"):
            wav_read(bad)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._base(tmp_path)
        blob = path.read_bytes()
        bad = tmp_path / "trunc.wav"
        bad.write_bytes(blob[:-20])
        with pytest.raises(ValueError, match="payload shorter"):
            wav_read(bad)

    def test_wrong_rate_rejected(self, tmp_path):
        path = self._base(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<I", 44100)
        bad = tmp_path / "rate.wav"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="8000"):
            wav_read(bad)

    def test_not_riff_rejected(self, tmp_path):
        bad = tmp_path / "junk.wav"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError, match="RIFF"):
            wav_read(bad)

    def test_skips_extra_chunks(self, tmp_path):
        # a LIST chunk between fmt and data must be ignored
        path = self._base(tmp_path)
        blob = path.read_bytes()
        header, payload = blob[:36], blob[36:]
        extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
        stitched = bytearray(header + extra + payload)
        stitched[4:8] = struct.pack("<I", len(stitched) - 8)
        bad = tmp_path / "extra.wav"
        bad.write_bytes(bytes(stitched))
        np.testing.assert_array_equal(wav_read(bad).samples, wav_read(path).samples)

    def test_cut_fmt_chunk_rejected(self, tmp_path):
        # the file ends 10 bytes into the 16-byte fmt body
        bad = tmp_path / "cutfmt.wav"
        bad.write_bytes(self._base(tmp_path).read_bytes()[:30])
        with pytest.raises(ValueError, match="fmt chunk truncated"):
            wav_read(bad)

    def test_odd_payload_rejected(self, tmp_path):
        blob = bytearray(self._base(tmp_path).read_bytes()[:-1])
        blob[40:44] = struct.pack("<I", len(blob) - 44)  # data chunk size
        bad = tmp_path / "odd.wav"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="data chunk"):
            wav_read(bad)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_file_reads_or_raises_value_error(self, tmp_path, data):
        blob = bytearray(self._base(tmp_path).read_bytes())
        if data.draw(st.booleans(), label="cut"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
        bad = tmp_path / "damaged.wav"
        bad.write_bytes(bytes(blob))
        try:
            pcm = wav_read_pcm(bad)
        except ValueError:
            with pytest.raises(ValueError):
                wav_read(bad)
        else:
            assert wav_read(bad).samples.tobytes() == (pcm / 32768.0).tobytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pcm=st.lists(st.integers(-32768, 32767), min_size=1, max_size=400))
    @example(pcm=[-32768, 32767, 0, -1, 1])
    def test_read_is_pcm_over_two_to_the_fifteen(self, tmp_path, pcm):
        pcm = np.array(pcm, dtype=np.int16)
        path = tmp_path / "pcm.wav"
        wav_write(Waveform(pcm / 32768.0), path)
        got = wav_read_pcm(path)
        assert got.dtype == np.int16 and got.tobytes() == pcm.tobytes()
        assert wav_read(path).samples.tobytes() == (got / 32768.0).tobytes()


def make_checkpoint(seed=0) -> Checkpoint:
    rng = np.random.default_rng(seed)
    shapes = TINY.param_shapes(n_anchors=3)
    arrays = {}
    for prefix in ("param/", "best/", "adam_m/", "adam_v/"):
        for name, shape in shapes.items():
            arrays[prefix + name] = rng.standard_normal(shape)
    return Checkpoint(
        model_kind="adanet",
        config=TINY,
        n_anchors=3,
        slots=2,
        arrays=arrays,
        adam={"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 17},
        epoch=4,
        best_val_loss=0.125,
        trainer={"phase": 1, "epoch_in_phase": 4, "since_best": 1,
                 "since_best_lr": 1, "done": False},
    )


def rewrite_header(src, dst, edit):
    """Copy a checkpoint, passing its JSON header through ``edit``."""
    blob = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 12)
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:12] + struct.pack("<I", len(encoded)) + encoded
                    + blob[16 + header_len :])


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self, tmp_path):
        ckpt = make_checkpoint()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        checkpoint_save(ckpt, p1)
        checkpoint_save(checkpoint_load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_arrays_roundtrip_bitwise(self, tmp_path):
        ckpt = make_checkpoint(1)
        path = tmp_path / "c.ckpt"
        checkpoint_save(ckpt, path)
        loaded = checkpoint_load(path)
        for name, arr in ckpt.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)
        assert loaded.adam == ckpt.adam
        assert loaded.epoch == ckpt.epoch
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert loaded.trainer == ckpt.trainer

    @pytest.mark.parametrize("n_anchors", [0, 3], ids=["danet", "adanet"])
    def test_file_is_header_then_each_array_from_its_buffer(self, tmp_path,
                                                             n_anchors):
        net = EmbedNet(TINY, seed=0, n_anchors=n_anchors)
        opt = AdamState(step=2, m={"w0": np.ones_like(net.params["w0"].data)})
        best = {name: p.data * 0.5 for name, p in net.params.items()}
        # a transposed (non-contiguous) table is stored in C order
        table = (np.arange(12.0).reshape(4, 3).T if n_anchors == 0 else None)
        ckpt = Checkpoint.of_training("adanet" if n_anchors else "danet", 2, net,
                                      opt, best, 0.5, 3, {"phase": 1}, table)
        path = tmp_path / "m.ckpt"
        checkpoint_save(ckpt, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 12)
        header_bytes = blob[16 : 16 + header_len]
        names = sorted(ckpt.arrays)
        payloads = [np.ascontiguousarray(ckpt.arrays[n], dtype="<f8").tobytes()
                    for n in names]
        offsets = np.cumsum([0] + [len(b) for b in payloads[:-1]]).tolist()
        manifest = json.loads(header_bytes)["arrays"]
        assert [(e["name"], e["offset"]) for e in manifest] == list(zip(names, offsets))
        assert blob == (b"DANCKPT\0" + struct.pack("<II", 1, header_len)
                        + header_bytes + b"".join(payloads))

    def test_tampered_shape_rejected(self, tmp_path):
        ckpt = make_checkpoint(2)
        path = tmp_path / "d.ckpt"
        checkpoint_save(ckpt, path)
        blob = path.read_bytes()
        # last occurrence belongs to param/w0, which load validates
        idx = blob.rindex(b'"shape":[8,21]')
        tampered = blob[:idx] + b'"shape":[7,21]' + blob[idx + 14 :]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tampered)
        with pytest.raises(ValueError):
            checkpoint_load(bad)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            checkpoint_load(bad)

    @pytest.mark.parametrize("keep", [10, 16, 40])
    def test_truncated_header_rejected(self, tmp_path, keep):
        path = tmp_path / "full.ckpt"
        checkpoint_save(make_checkpoint(4), path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="header"):
            checkpoint_load(cut)

    def test_build_net_uses_best_or_current(self, tmp_path):
        ckpt = make_checkpoint(3)
        path = tmp_path / "e.ckpt"
        checkpoint_save(ckpt, path)
        loaded = checkpoint_load(path)
        best = loaded.build_net(best=True)
        current = loaded.build_net(best=False)
        np.testing.assert_array_equal(best.params["w0"].data, ckpt.arrays["best/w0"])
        np.testing.assert_array_equal(current.params["w0"].data, ckpt.arrays["param/w0"])

    @pytest.mark.parametrize("best", [True, False])
    def test_build_net_without_drawing(self, tmp_path, monkeypatch, best):
        # inference holds the stored arrays; a resume gets copies for Adam
        # to update in place
        checkpoint_save(make_checkpoint(6), tmp_path / "h.ckpt")
        loaded = checkpoint_load(tmp_path / "h.ckpt")

        def no_rng(*args, **kwargs):
            raise AssertionError("build_net drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        net = loaded.build_net(best=best)
        prefix = "best/" if best else "param/"
        assert net.params.keys() == TINY.param_shapes(n_anchors=3).keys()
        for name, p in net.params.items():
            stored = loaded.arrays[prefix + name]
            if best:
                assert p.data is stored
            else:
                assert not np.shares_memory(p.data, stored)
                assert p.data.tobytes() == stored.tobytes()

    def test_build_adam_copies_stored_moments(self, tmp_path):
        checkpoint_save(make_checkpoint(6), tmp_path / "a.ckpt")
        loaded = checkpoint_load(tmp_path / "a.ckpt")
        opt = loaded.build_adam()
        for name in TINY.param_shapes(n_anchors=3):
            for moments, key in ((opt.m, "adam_m/"), (opt.v, "adam_v/")):
                stored = loaded.arrays[key + name]
                assert not np.shares_memory(moments[name], stored)
                assert moments[name].tobytes() == stored.tobytes()

    def test_resumed_step_leaves_stored_arrays_alone(self, tmp_path):
        ckpt = make_checkpoint(7)
        for name in [k for k in ckpt.arrays if k.startswith("adam_v/")]:
            ckpt.arrays[name] = np.abs(ckpt.arrays[name])  # second moments are >= 0
        checkpoint_save(ckpt, tmp_path / "r.ckpt")
        loaded = checkpoint_load(tmp_path / "r.ckpt")
        before = {name: arr.copy() for name, arr in loaded.arrays.items()}
        net, opt = loaded.build_net(best=False), loaded.build_adam()
        rng = np.random.default_rng(8)
        mix = rng.uniform(0.1, 1.0, (7, 9))
        train_step(net, opt, mix, np.stack([0.6 * mix, 0.4 * mix]), slots=2)
        assert not np.array_equal(net.params["w0"].data, before["param/w0"])
        for name, arr in loaded.arrays.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_header_without_config_rejected(self, tmp_path):
        checkpoint_save(make_checkpoint(5), tmp_path / "ok.ckpt")
        rewrite_header(tmp_path / "ok.ckpt", tmp_path / "bad.ckpt",
                       lambda h: h.pop("config"))
        with pytest.raises(ValueError, match="'config'"):
            checkpoint_load(tmp_path / "bad.ckpt")

    def test_non_list_arrays_rejected(self, tmp_path):
        checkpoint_save(make_checkpoint(6), tmp_path / "ok.ckpt")
        rewrite_header(tmp_path / "ok.ckpt", tmp_path / "bad.ckpt",
                       lambda h: h.update(arrays={"param/w0": 0}))
        with pytest.raises(ValueError, match="'arrays'"):
            checkpoint_load(tmp_path / "bad.ckpt")

    def test_negative_array_offset_names_the_array(self, tmp_path):
        checkpoint_save(make_checkpoint(7), tmp_path / "ok.ckpt")

        def edit(header):
            entry = next(e for e in header["arrays"] if e["name"] == "param/w0")
            entry["offset"] = -8

        rewrite_header(tmp_path / "ok.ckpt", tmp_path / "bad.ckpt", edit)
        with pytest.raises(ValueError, match="'param/w0'.*offset"):
            checkpoint_load(tmp_path / "bad.ckpt")

    def test_version_one_nonlinearity_key_accepted(self, tmp_path):
        # files written while the config still had the field read as before
        ckpt = make_checkpoint(8)
        checkpoint_save(ckpt, tmp_path / "ok.ckpt")
        rewrite_header(tmp_path / "ok.ckpt", tmp_path / "old.ckpt",
                       lambda h: h["config"].update(nonlinearity="tanh"))
        loaded = checkpoint_load(tmp_path / "old.ckpt")
        assert loaded.config == ckpt.config
        checkpoint_save(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "ok.ckpt").read_bytes()

    def test_other_nonlinearity_rejected(self, tmp_path):
        checkpoint_save(make_checkpoint(9), tmp_path / "ok.ckpt")
        rewrite_header(tmp_path / "ok.ckpt", tmp_path / "bad.ckpt",
                       lambda h: h["config"].update(nonlinearity="relu"))
        with pytest.raises(ValueError, match="'nonlinearity'"):
            checkpoint_load(tmp_path / "bad.ckpt")

    def test_file_cut_after_its_size_was_taken_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        checkpoint_save(make_checkpoint(4), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(checkpoint_module.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(ValueError, match="'param/w_out' is cut short"):
            checkpoint_load(path)


def edit_entry(tmp_path, edit, seed=0):
    """Save ``make_checkpoint(seed)``, pass its manifest (a list of entries)
    through ``edit`` and return the path of the edited copy."""
    checkpoint_save(make_checkpoint(seed), tmp_path / "ok.ckpt")
    rewrite_header(tmp_path / "ok.ckpt", tmp_path / "bad.ckpt",
                   lambda h: edit(h["arrays"]))
    return tmp_path / "bad.ckpt"


def entry(manifest, name):
    return next(e for e in manifest if e["name"] == name)


class TestManifest:
    def test_bool_shape_dim_rejected(self, tmp_path):
        bad = edit_entry(tmp_path, lambda m: entry(m, "best/b0").update(shape=[True, 1]))
        with pytest.raises(ValueError, match="'best/b0'.*'shape'"):
            checkpoint_load(bad)

    def test_bool_shape_dim_exits_two_from_the_cli(self, tmp_path, capsys):
        from danet.cli import main

        bad = edit_entry(tmp_path, lambda m: entry(m, "best/b0").update(shape=[True]))
        code = main(["separate", "--checkpoint", str(bad),
                     "--input", str(tmp_path / "mix.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "'best/b0'" in err and "'shape'" in err and "Traceback" not in err

    def test_bool_offset_rejected(self, tmp_path):
        bad = edit_entry(tmp_path, lambda m: entry(m, "adam_m/b0").update(offset=True))
        with pytest.raises(ValueError, match="'adam_m/b0'.*'offset'"):
            checkpoint_load(bad)

    def test_huge_shape_rejected_without_wrapping(self, tmp_path):
        # the element count 2**80 wraps to 0 in int64 arithmetic
        bad = edit_entry(tmp_path, lambda m: entry(m, "adam_v/w0").update(
            shape=[2**40, 2**40]))
        with pytest.raises(ValueError, match="'adam_v/w0'.*'shape'"):
            checkpoint_load(bad)

    def test_duplicate_name_rejected(self, tmp_path):
        bad = edit_entry(tmp_path, lambda m: m.append(dict(entry(m, "best/w0"))))
        with pytest.raises(ValueError, match="'best/w0'.*'name'"):
            checkpoint_load(bad)

    def test_overlapping_extents_rejected(self, tmp_path):
        def edit(manifest):
            entry(manifest, "param/b0")["offset"] = entry(manifest, "param/anchors")["offset"] + 8

        with pytest.raises(ValueError, match="'param/b0'.*'offset' overlaps.*'param/anchors'"):
            checkpoint_load(edit_entry(tmp_path, edit))

    def test_empty_array_overlaps_nothing(self, tmp_path):
        def edit(manifest):
            manifest.append({"name": "extra", "shape": [0, 3],
                             "offset": entry(manifest, "best/w0")["offset"] + 8})

        loaded = checkpoint_load(edit_entry(tmp_path, edit))
        assert loaded.arrays["extra"].shape == (0, 3)


def with_fixed_table(seed=0) -> Checkpoint:
    ckpt = make_checkpoint(seed)
    ckpt.arrays["fixed_attractors"] = np.random.default_rng(seed + 100).standard_normal((2, 4))
    return ckpt


class TestInferenceLoad:
    def test_reads_only_best_arrays_and_fixed_table(self, tmp_path):
        ckpt = with_fixed_table()
        checkpoint_save(ckpt, tmp_path / "c.ckpt")
        loaded = checkpoint_load(tmp_path / "c.ckpt", inference=True)
        wanted = {k for k in ckpt.arrays if k.startswith("best/")} | {"fixed_attractors"}
        assert set(loaded.arrays) == wanted
        assert set(loaded.unread) == set(ckpt.arrays) - wanted
        for name in wanted:
            np.testing.assert_array_equal(loaded.arrays[name], ckpt.arrays[name])

    def test_net_equals_full_load_bitwise(self, tmp_path):
        checkpoint_save(with_fixed_table(1), tmp_path / "c.ckpt")
        full = checkpoint_load(tmp_path / "c.ckpt")
        lean = checkpoint_load(tmp_path / "c.ckpt", inference=True)
        net_full, net_lean = full.build_net(best=True), lean.build_net(best=True)
        assert net_full.params.keys() == net_lean.params.keys()
        for name, param in net_full.params.items():
            np.testing.assert_array_equal(net_lean.params[name].data, param.data)
        np.testing.assert_array_equal(lean.fixed_attractor_table,
                                      full.fixed_attractor_table)
        for key in ("model_kind", "config", "n_anchors", "slots", "adam", "epoch",
                    "best_val_loss", "trainer"):
            assert getattr(lean, key) == getattr(full, key)

    def test_refuses_to_resume_or_save(self, tmp_path):
        checkpoint_save(with_fixed_table(2), tmp_path / "c.ckpt")
        lean = checkpoint_load(tmp_path / "c.ckpt", inference=True)
        with pytest.raises(ValueError, match="training state.*param/\\*"):
            lean.build_net(best=False)
        with pytest.raises(ValueError, match="optimizer.*adam_m/\\*, adam_v/\\*"):
            lean.build_adam()
        with pytest.raises(ValueError, match="save.*inference"):
            checkpoint_save(lean, tmp_path / "again.ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]

    def test_training_arrays_still_validated(self, tmp_path):
        bad = edit_entry(tmp_path, lambda m: entry(m, "param/w0").update(shape=[7, 21]))
        with pytest.raises(ValueError, match="'param/w0' has shape"):
            checkpoint_load(bad, inference=True)
        bad = edit_entry(tmp_path, lambda m: m.remove(entry(m, "param/b_out")))
        with pytest.raises(ValueError, match="missing array 'param/b_out'"):
            checkpoint_load(bad, inference=True)

    def test_cut_training_array_still_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint_save(make_checkpoint(3), path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:-8])  # the last array is param/w_out
        with pytest.raises(ValueError, match="'param/w_out'"):
            checkpoint_load(cut, inference=True)


def decode_as_written(blob: bytes, name: str) -> np.ndarray:
    """Array ``name`` decoded straight from checkpoint bytes by its
    manifest entry, apart from ``checkpoint_load``."""
    (header_len,) = struct.unpack_from("<I", blob, 12)
    found = entry(json.loads(blob[16 : 16 + header_len])["arrays"], name)
    count = int(np.prod(found["shape"], dtype=object))
    return np.frombuffer(blob, dtype="<f8", count=count,
                         offset=16 + header_len + found["offset"]).reshape(found["shape"])


class TestDamagedCheckpoint:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_as_written_or_raises_value_error(self, tmp_path, data):
        path = tmp_path / "ok.ckpt"
        checkpoint_save(with_fixed_table(), path)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", blob, 12)
        if data.draw(st.booleans(), label="cut"):
            blob = blob[: data.draw(st.integers(0, len(blob)), label="length")]
        else:
            # half the mutations land in the preamble or the JSON header
            end = 16 + header_len if data.draw(st.booleans(), label="header") else len(blob)
            pos = data.draw(st.integers(0, end - 1), label="position")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
        bad = tmp_path / "damaged.ckpt"
        bad.write_bytes(bytes(blob))
        loaded = {}
        for inference in (False, True):
            try:
                loaded[inference] = checkpoint_load(bad, inference=inference)
            except ValueError:
                pass
        assert loaded.keys() in ({False, True}, set()), "the two loads disagree"
        if loaded:
            full, lean = loaded[False], loaded[True]
            for name, arr in full.arrays.items():
                np.testing.assert_array_equal(arr, decode_as_written(bytes(blob), name))
            assert set(lean.arrays) <= set(full.arrays)
            for name, arr in lean.arrays.items():
                np.testing.assert_array_equal(arr, full.arrays[name])
            assert set(lean.arrays) | set(lean.unread) == set(full.arrays)


class _FullDisk:
    """A writable file that takes ``room`` bytes and then fails like a full
    disk."""

    def __init__(self, fh, room):
        self.fh = fh
        self.room = room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        checkpoint_save(make_checkpoint(0), path)
        before = path.read_bytes()
        monkeypatch.setattr(checkpoint_module, "open",
                            lambda file, mode: _FullDisk(open(file, mode), len(before) // 2),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            checkpoint_save(make_checkpoint(1), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        checkpoint_save(checkpoint_load(path), tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["again.ckpt", "c.ckpt"]

    def test_save_over_existing_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint_save(make_checkpoint(0), path)
        checkpoint_save(make_checkpoint(1), path)
        checkpoint_save(make_checkpoint(1), tmp_path / "fresh.ckpt")
        assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.ckpt", "fresh.ckpt", "plain"]
