"""SI-SNR fixtures and best-permutation scoring."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.dsp import Waveform
from danet.metrics import score_with_permutation, si_snr, si_snr_improvement, snr

S = np.array([1.0, -1.0, 1.0, -1.0])
N_ORTH = np.array([1.0, 1.0, -1.0, -1.0])  # orthogonal to S, equal power


class TestSiSnr:
    def test_orthogonal_equal_power_is_zero_db(self):
        assert abs(si_snr(S + N_ORTH, S)) < 1e-9

    def test_noise_power_point_four_is_ten_db(self):
        noise = N_ORTH * np.sqrt(0.4 / 4.0)  # ||n||^2 = 0.4 vs ||s||^2 = 4
        assert abs(si_snr(S + noise, S) - 10.0) < 1e-9

    def test_scale_invariance(self):
        est = S + 0.3 * N_ORTH
        base = si_snr(est, S)
        for alpha in (0.1, 10.0):
            assert abs(si_snr(alpha * est, S) - base) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 500), alpha=st.floats(1e-3, 1e3),
           negative=st.booleans(), noise=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_scale_invariance_in_the_estimate(self, n, alpha, negative, noise, seed):
        # enough samples that the residual is never rounding noise: after
        # mean removal any two 2-sample signals are collinear
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(n)
        est = ref + noise * rng.standard_normal(n)
        base = si_snr(est, ref)
        assert math.isfinite(base)
        assert si_snr((-alpha if negative else alpha) * est, ref) == pytest.approx(
            base, rel=1e-9, abs=1e-9)

    def test_reference_scale_invariance(self):
        est = S + 0.3 * N_ORTH
        base = si_snr(est, S)
        for alpha in (0.1, 10.0):
            assert abs(si_snr(est, alpha * S) - base) < 1e-9

    def test_perfect_reconstruction_sentinel(self):
        assert si_snr(S * 2.0, S) == math.inf  # scaled copy: zero residual

    def test_orthogonal_estimate_is_minus_inf(self):
        assert si_snr(N_ORTH, S) == -math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            si_snr(np.ones(5), np.ones(4))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_snr(S, np.full(4, 3.0))  # constant ref is zero after mean removal

    def test_matches_projection_oracle(self):
        # explicit orthogonal-projection computation, independent path
        rng = np.random.default_rng(0)
        for _ in range(50):
            ref = rng.standard_normal(64)
            est = rng.standard_normal(64)
            e = est - est.mean()
            r = ref - ref.mean()
            proj = np.outer(r, r) @ e / (r @ r)
            resid = e - proj
            oracle = 10 * np.log10((proj @ proj) / (resid @ resid))
            assert abs(si_snr(est, ref) - oracle) < 1e-9

    def test_accepts_waveforms(self):
        a = Waveform(S + N_ORTH)
        b = Waveform(S)
        assert abs(si_snr(a, b)) < 1e-9


class TestImprovement:
    def test_mixture_as_estimate_is_zero(self):
        mix = S + N_ORTH
        assert si_snr_improvement(mix, S, mix) == 0.0

    def test_better_estimate_is_positive(self):
        mix = S + N_ORTH
        est = S + 0.1 * N_ORTH
        assert si_snr_improvement(est, S, mix) > 0

    def test_ten_db_fixture_composes(self):
        mix = S + N_ORTH  # 0 dB mixture
        est = S + N_ORTH * np.sqrt(0.1)  # 10 dB estimate
        assert abs(si_snr_improvement(est, S, mix) - 10.0) < 1e-9


class TestPlainSnr:
    def test_exact_reconstruction_is_inf(self):
        assert snr(S, S) == math.inf

    def test_known_ratio(self):
        est = S + np.array([0.1, 0, 0, 0])
        expected = 10 * np.log10(4.0 / 0.01)
        assert abs(snr(est, S) - expected) < 1e-9


class TestScoreWithPermutation:
    def _three_sources(self):
        rng = np.random.default_rng(1)
        refs = [rng.standard_normal(128) for _ in range(3)]
        return refs

    def test_swapped_estimates_recovered(self):
        refs = self._three_sources()[:2]
        mixture = refs[0] + refs[1]
        report = score_with_permutation([refs[1], refs[0]], refs, mixture)
        assert report.permutation == (1, 0)
        assert all(v == math.inf for v in report.si_snr)

    def test_c3_matches_exhaustive_search(self):
        rng = np.random.default_rng(2)
        refs = self._three_sources()
        mixture = sum(refs)
        ests = [refs[i] + 0.3 * rng.standard_normal(128) for i in (2, 0, 1)]
        report = score_with_permutation(ests, refs, mixture)
        best = None
        for perm in permutations(range(3)):
            mean = np.mean([si_snr(ests[perm[i]], refs[i]) for i in range(3)])
            if best is None or mean > best[0]:
                best = (mean, perm)
        assert report.permutation == best[1]
        assert abs(np.mean(report.si_snr) - best[0]) < 1e-12

    def test_best_at_least_identity(self):
        rng = np.random.default_rng(3)
        refs = self._three_sources()
        mixture = sum(refs)
        for _ in range(10):
            ests = [rng.standard_normal(128) for _ in range(3)]
            report = score_with_permutation(ests, refs, mixture)
            identity = np.mean([si_snr(ests[i], refs[i]) for i in range(3)])
            assert np.mean(report.si_snr) >= identity - 1e-12

    def test_count_mismatch_rejected(self):
        refs = self._three_sources()
        with pytest.raises(ValueError):
            score_with_permutation(refs[:2], refs, sum(refs))
