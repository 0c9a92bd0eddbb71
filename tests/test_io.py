"""WAV codec validation and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from danet.checkpoint import Checkpoint, checkpoint_load, checkpoint_save
from danet.dsp import Waveform
from danet.nn import EmbedNetConfig
from danet.wavio import wav_read, wav_write

TINY = EmbedNetConfig(context=1, hidden_sizes=(8,), embed_dim=4, n_freq=7)


class TestWavWrite:
    def test_roundtrip_within_quantization_step(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.9, 0.9, 2000), 8000)
        path = tmp_path / "x.wav"
        wav_write(w, path)
        back = wav_read(path)
        assert np.abs(back.samples - w.samples).max() <= 1.0 / 32768.0

    def test_full_scale_saturates(self, tmp_path):
        path = tmp_path / "one.wav"
        wav_write(Waveform(np.array([1.0, -1.0]), 8000), path)
        payload = path.read_bytes()[-4:]
        assert struct.unpack("<hh", payload) == (32767, -32768)

    def test_zero_signal_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        wav_write(Waveform(np.zeros(64), 8000), path)
        assert path.read_bytes()[-128:] == b"\x00" * 128

    def test_clipping_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="clipped"):
            wav_write(Waveform(np.array([1.5, 0.0, -2.0]), 8000), tmp_path / "c.wav")
        back = wav_read(tmp_path / "c.wav")
        assert abs(back.samples[0] - 32767 / 32768) < 1e-9

    def test_wrong_rate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sample rate"):
            wav_write(Waveform(np.zeros(10), 16000), tmp_path / "r.wav")

    def test_round_half_away_from_zero(self, tmp_path):
        # 0.5/32768 quantizes away from zero in both directions
        val = 0.5 / 32768.0
        path = tmp_path / "h.wav"
        wav_write(Waveform(np.array([val, -val]), 8000), path)
        assert struct.unpack("<hh", path.read_bytes()[-4:]) == (1, -1)


class TestWavRead:
    def _base(self, tmp_path):
        path = tmp_path / "ok.wav"
        wav_write(Waveform(np.linspace(-0.5, 0.5, 100), 8000), path)
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
