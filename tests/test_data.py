"""Synthetic source/mixture generation and the dataset writer."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from danet.data import (
    SourceSpec,
    build_manifest,
    generate_dataset,
    load_index,
    mix_at_snr,
    render_mixture,
    synth_source,
)
from danet.dsp import Waveform, stft
from danet.wavio import wav_read


class TestSynthSource:
    def test_pure_tone_peaks_at_expected_bin(self):
        spec = SourceSpec(f0=250.0, n_harmonics=1, am_rate=0.0, duration=1.0, seed=0)
        w = synth_source(spec)
        mags = np.abs(stft(w))
        expected_bin = round(250.0 / 8000.0 * 256)
        assert np.all(mags.argmax(axis=0) == expected_bin)

    def test_deterministic_from_seed(self):
        spec = SourceSpec(f0=120.0, n_harmonics=5, am_rate=3.0, duration=0.5, seed=7)
        np.testing.assert_array_equal(
            synth_source(spec).samples, synth_source(spec).samples
        )

    def test_peak_is_half(self):
        spec = SourceSpec(f0=180.0, n_harmonics=6, am_rate=2.0, duration=0.5, seed=1)
        assert abs(np.abs(synth_source(spec).samples).max() - 0.5) < 1e-9

    def test_nyquist_violation_rejected(self):
        spec = SourceSpec(f0=900.0, n_harmonics=5, am_rate=0.0, duration=0.5, seed=0)
        with pytest.raises(ValueError, match="Nyquist"):
            synth_source(spec)


class TestMixAtSnr:
    def _pair(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000)
        b *= np.sqrt(np.mean(a**2) / np.mean(b**2))  # equal power
        return Waveform(a), Waveform(b)

    def test_equal_power_zero_db_scale_one(self):
        s1, s2 = self._pair()
        _, scaled = mix_at_snr(s1, s2, 0.0)
        np.testing.assert_allclose(scaled.samples, s2.samples, atol=1e-12)

    def test_six_db_scale_half(self):
        s1, s2 = self._pair(1)
        _, scaled = mix_at_snr(s1, s2, 10 * np.log10(4.0))
        np.testing.assert_allclose(scaled.samples, 0.5 * s2.samples, atol=1e-12)

    def test_measured_snr_matches_request(self):
        s1, s2 = self._pair(2)
        for snr_db in (0.0, 2.5, 5.0):
            mix, scaled = mix_at_snr(s1, s2, snr_db)
            p1 = np.mean(s1.samples**2)
            p2 = np.mean(scaled.samples**2)
            assert abs(10 * np.log10(p1 / p2) - snr_db) < 1e-9
            np.testing.assert_array_equal(mix.samples, s1.samples + scaled.samples)

    def test_zero_power_rejected(self):
        quiet = Waveform(np.zeros(100) + 1e-300)
        loud = Waveform(np.ones(100))
        with pytest.raises(ValueError):
            mix_at_snr(loud, Waveform(np.zeros(100)), 0.0)
        del quiet


class TestManifest:
    def test_deterministic(self):
        m1 = build_manifest("train", 20, (2,), seed=5)
        m2 = build_manifest("train", 20, (2,), seed=5)
        assert m1.mixtures == m2.mixtures

    def test_fundamentals_distinct(self):
        m = build_manifest("train", 30, (2, 3), seed=3)
        for mix in m.mixtures:
            f0s = sorted(s.f0 for s in mix.sources)
            for lo, hi in zip(f0s, f0s[1:]):
                assert hi / lo >= 1.25 - 1e-9

    def test_speaker_counts_respected(self):
        m = build_manifest("train", 30, (3,), seed=4)
        assert all(len(mix.sources) == 3 for mix in m.mixtures)

    def test_snr_in_range(self):
        m = build_manifest("train", 50, (2,), seed=6)
        assert all(0.0 <= mix.snr_db <= 5.0 for mix in m.mixtures)

    def test_bad_speaker_count_rejected(self):
        with pytest.raises(ValueError):
            build_manifest("train", 5, (4,), seed=0)


class TestRenderMixture:
    def test_additivity_exact_in_float(self):
        manifest = build_manifest("t", 5, (2, 3), seed=8)
        for spec in manifest.mixtures:
            mixture, sources = render_mixture(spec)
            np.testing.assert_array_equal(
                mixture.samples, sum(s.samples for s in sources)
            )

    def test_no_clipping(self):
        manifest = build_manifest("t", 10, (3,), seed=9)
        for spec in manifest.mixtures:
            mixture, _ = render_mixture(spec)
            assert np.abs(mixture.samples).max() <= 0.99 + 1e-12


class TestGenerateDataset:
    def test_file_count_and_index_rows(self, tmp_path):
        manifest = build_manifest("test", 10, (2,), seed=0, duration=0.5)
        index = generate_dataset(manifest, tmp_path)
        wavs = sorted(tmp_path.glob("*.wav"))
        assert len(wavs) == 30  # mixture + 2 sources each
        rows = [json.loads(line) for line in index.read_text().splitlines()]
        assert len(rows) == 10
        for row in rows:
            assert row["C"] == 2
            assert len(row["source_paths"]) == 2

    def test_regeneration_byte_identical(self, tmp_path):
        manifest = build_manifest("test", 4, (2,), seed=1, duration=0.5)
        generate_dataset(manifest, tmp_path / "a")
        generate_dataset(manifest, tmp_path / "b")
        for fa in sorted((tmp_path / "a").iterdir()):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_additivity_within_one_lsb_after_pcm(self, tmp_path):
        manifest = build_manifest("test", 6, (2, 3), seed=2, duration=0.5)
        index = generate_dataset(manifest, tmp_path)
        lsb = 1.0 / 32768.0
        for row in load_index(index):
            mix = wav_read(row["mixture_path"]).samples
            total = sum(wav_read(p).samples for p in row["source_paths"])
            assert np.abs(mix - total).max() <= lsb + 1e-12

    def test_index_paths_resolve(self, tmp_path):
        manifest = build_manifest("test", 3, (2,), seed=3, duration=0.5)
        rows = load_index(generate_dataset(manifest, tmp_path))
        for row in rows:
            assert row["mixture_path"].exists()
            assert all(p.exists() for p in row["source_paths"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestLoadIndex:
    @pytest.mark.parametrize("row, field", [
        ({"source_paths": ["a.wav"]}, "'mixture_path'"),
        ([1, 2], "not a JSON object"),
        ({"mixture_path": 5, "source_paths": ["a.wav"]}, "'mixture_path'"),
        ({"mixture_path": "m.wav", "source_paths": "a.wav"}, "'source_paths'"),
        ({"mixture_path": "m.wav", "source_paths": ["a.wav", 3]}, "'source_paths'"),
        ({"mixture_path": "m.wav", "source_paths": []}, "'source_paths'"),
    ])
    def test_malformed_row_names_file_line_and_field(self, tmp_path, row, field):
        index = tmp_path / "index.jsonl"
        good = {"mixture_path": "m.wav", "source_paths": ["a.wav"]}
        index.write_text(json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"index.jsonl:3: .*{field}"):
            load_index(index)

    def test_line_that_is_not_json_rejected(self, tmp_path):
        index = tmp_path / "index.jsonl"
        index.write_text("{not json\n")
        with pytest.raises(ValueError, match="index.jsonl:1: not valid JSON"):
            load_index(index)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=JSON_VALUES | st.fixed_dictionaries(
        {"mixture_path": JSON_VALUES, "source_paths": JSON_VALUES}))
    def test_any_json_row_loads_or_raises_value_error(self, tmp_path, row):
        index = tmp_path / "index.jsonl"
        index.write_text(json.dumps(row) + "\n")
        try:
            rows = load_index(index)
        except ValueError:
            return
        assert isinstance(rows[0]["mixture_path"], type(tmp_path))
        assert rows[0]["source_paths"] and all(
            p.parent == tmp_path for p in rows[0]["source_paths"])
