"""Row-batched DFA / Lomb–Scargle / pitch vs the scalar kernels (same
pinned semantics, independent implementations)."""

from __future__ import annotations

import numpy as np
import pytest

from mpds_ray.kernels import batched
from mpds_ray.kernels.batched import dfa_batch, lomb_batch
from mpds_ray.kernels.dfa import fastdfa
from mpds_ray.kernels.lomb import dominant_frequency
from mpds_ray.kernels.welch import get_pitch, pitch_batch
from mpds_ray.oracle.independent import _naive_pitch

rng = np.random.default_rng(42)


class TestDfaBatch:
    @pytest.mark.parametrize("n", [16, 68, 127, 512])
    def test_matches_scalar(self, n):
        x = rng.integers(0, 50257, (20, n)).astype(np.float64)
        got = dfa_batch(x)
        want = np.array([fastdfa(r) for r in x])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True)

    @pytest.mark.filterwarnings("error")
    def test_constant_rows_nan(self):
        x = np.vstack([np.ones(64), rng.normal(size=64)])
        got = dfa_batch(x)
        assert np.isnan(got[0]) and np.isfinite(got[1])

    def test_short_windows_nan(self):
        assert np.isnan(dfa_batch(rng.normal(size=(3, 3)))).all()

    @pytest.mark.parametrize("n", [49, 57, 64, 71, 86])
    def test_matches_scalar_at_event_lengths(self, n):
        # the per-user sequence lengths of the events table
        x = rng.normal(size=(12, n)).cumsum(axis=1)
        want = np.array([fastdfa(r) for r in x])
        np.testing.assert_allclose(dfa_batch(x), want, rtol=1e-9, atol=1e-12)


class TestLombBatch:
    @pytest.mark.parametrize("n", [8, 68, 128])
    def test_matches_scalar(self, n):
        x = rng.integers(0, 50257, (15, n)).astype(np.float64)
        dfc, amp = lomb_batch(x, sample_rate=50.0)
        t = np.arange(n) / 50.0
        want = np.array([dominant_frequency(t, r) for r in x])
        np.testing.assert_allclose(dfc, want[:, 0], rtol=1e-9, equal_nan=True)
        np.testing.assert_allclose(amp, want[:, 1], rtol=1e-9, equal_nan=True)

    def test_recovers_planted_frequency(self):
        n = 256
        t = np.arange(n) / 50.0
        x = np.vstack([np.sin(2 * np.pi * f * t) for f in (2.0, 7.5, 14.0)])
        dfc, _ = lomb_batch(x, sample_rate=50.0)
        np.testing.assert_allclose(dfc, [2.0, 7.5, 14.0], atol=0.1)


def _irregular(m, n, seed=0):
    """m rows of n sorted random times spanning exactly [0, 1] (as the
    spectral query normalizes them) and their values."""
    r = np.random.default_rng(seed)
    t = np.sort(r.uniform(0, 1, (m, n)), axis=1)
    span = t[:, -1] - t[:, 0]
    return (t - t[:, :1]) / span[:, None], r.normal(size=(m, n)).cumsum(axis=1)


class TestLombIrregular:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 49, 86, 300])
    def test_matches_scalar_row_by_row(self, n):
        # three samples fit a sinusoid at every frequency: the peaks tie
        t, x = _irregular(40, n, seed=n)
        x[3] = 1.5  # zero variance
        dfc, amp = lomb_batch(x, t=t)
        for i in range(len(x)):
            want_dfc, want_amp = dominant_frequency(t[i], x[i])
            assert dfc[i] == want_dfc
            assert amp[i] == pytest.approx(want_amp, rel=1e-9)
        assert amp[3] == 0.0

    def test_evenly_spaced_rows_match_scalar(self):
        # phases align at some frequencies: the scalar kernel's sums decide
        t = np.vstack([np.linspace(0, 1, 5)] * 3)
        x = np.array([[1.0, 3, 2, 5, 4], [0, 1, 0, 1, 0], [2, 2, 2, 2, 3]])
        dfc, amp = lomb_batch(x, t=t)
        want = np.array([dominant_frequency(t[i], x[i]) for i in range(3)])
        assert dfc.tolist() == want[:, 0].tolist()
        assert amp.tolist() == want[:, 1].tolist()

    def test_chunks_are_bit_equal_to_small_calls(self, monkeypatch):
        t, x = _irregular(70, 40)
        small = [lomb_batch(x[i : i + 1], t=t[i : i + 1]) for i in range(70)]
        calls = []
        harmonics = batched._lomb_harmonics
        monkeypatch.setattr(
            batched, "_lomb_harmonics", lambda t, *a: calls.append(len(t)) or harmonics(t, *a)
        )
        # room for 32 rows of 80 frequencies x 40 samples
        monkeypatch.setattr(batched, "CHUNK_ELEMENTS", 32 * 80 * 40)
        dfc, amp = lomb_batch(x, t=t)
        assert calls == [32, 32, 6]
        assert _bits(dfc, amp) == _bits(*(np.concatenate(c) for c in zip(*small)))

    def test_rows_of_other_spans_raise(self):
        t, x = _irregular(3, 20)
        t[2] *= 2.0
        with pytest.raises(ValueError, match=r"row 2 spans 2\.0"):
            lomb_batch(x, t=t)

    def test_degenerate_calls_are_nan(self):
        t, x = _irregular(2, 8)
        for tt, xx in ((np.zeros((2, 8)), x), (t[:, :1], x[:, :1])):
            assert np.isnan(np.concatenate(lomb_batch(xx, t=tt))).all()


class TestPitchBatch:
    @pytest.mark.parametrize("n", [1, 2, 48, 85, 255, 256, 300, 700])
    def test_matches_get_pitch_bit_equal(self, n):
        # n >= nfft rows average several Welch segments in the block too
        x = rng.normal(size=(6, n))
        x[1] = 0.0  # flat PSD: no interior peak
        got = pitch_batch(x, fs=1.0, nfft=256)
        want = np.array([get_pitch(r, fs=1.0, nfft=256) for r in x])
        assert _bits(got) == _bits(want)
        assert np.isnan(got[1])

    @pytest.mark.parametrize("n", [40, 300])
    def test_matches_naive_dft(self, n):
        x = np.sin(2 * np.pi * 0.2 * np.arange(n)) + 0.05 * rng.normal(size=(3, n))
        got = pitch_batch(x, fs=1.0, nfft=256)
        assert got.tolist() == [_naive_pitch(r, fs=1.0, nfft=256) for r in x]


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty length-state cache for one test; the process's cache is
    restored afterwards."""
    cache = batched._StateCache()
    monkeypatch.setattr(batched, "_STATE", cache)
    return cache


class TestStateCache:
    def test_cold_warm_and_evicted_calls_give_the_same_bits(self, fresh_cache, monkeypatch):
        x = rng.integers(0, 50257, (12, 96)).astype(np.float64)
        cold = _bits(dfa_batch(x), *lomb_batch(x))
        assert ("dfa", 96) in fresh_cache.entries
        assert ("lomb", 96, 50.0, 0.5, 20.0, 4) in fresh_cache.entries
        assert _bits(dfa_batch(x), *lomb_batch(x)) == cold
        # room for ~one length: the next lengths evict 96's state
        monkeypatch.setattr(batched, "STATE_CACHE_BYTES", fresh_cache.nbytes)
        for n in (97, 98):
            dfa_batch(rng.normal(size=(2, n)))
            lomb_batch(rng.normal(size=(2, n)))
        assert ("dfa", 96) not in fresh_cache.entries
        assert _bits(dfa_batch(x), *lomb_batch(x)) == cold

    def test_sweep_keeps_the_cache_under_its_cap(self, fresh_cache, monkeypatch):
        cap = 1 << 20
        monkeypatch.setattr(batched, "STATE_CACHE_BYTES", cap)
        for n in range(8, 140, 3):
            x = rng.normal(size=(3, n))
            dfa_batch(x)
            lomb_batch(x)
            assert fresh_cache.nbytes <= cap
            assert fresh_cache.nbytes == sum(size for _, size in fresh_cache.entries.values())
        assert 0 < len(fresh_cache.entries) < 2 * len(range(8, 140, 3))

    def test_state_over_the_cap_is_computed_not_kept(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(batched, "STATE_CACHE_BYTES", 1 << 16)
        lomb_batch(rng.normal(size=(4, 16)))
        assert list(fresh_cache.entries) == [("lomb", 16, 50.0, 0.5, 20.0, 4)]
        x = rng.normal(size=(4, 300))
        dfc, amp = lomb_batch(x)
        # not kept, and nothing kept was evicted for it
        assert list(fresh_cache.entries) == [("lomb", 16, 50.0, 0.5, 20.0, 4)]
        t = np.arange(300) / 50.0
        want = np.array([dominant_frequency(t, r) for r in x])
        np.testing.assert_allclose(dfc, want[:, 0], rtol=1e-9)
        np.testing.assert_allclose(amp, want[:, 1], rtol=1e-9)

    def test_cached_arrays_are_read_only(self, fresh_cache):
        x = rng.normal(size=(2, 64))
        dfa_batch(x)
        lomb_batch(x)
        arrays = batched._arrays([state for state, _ in fresh_cache.entries.values()])
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0


class TestHeavyStageIntegration:
    def test_token_stats_heavy_batched(self):
        from mpds_ray.stages.window_stats import token_stats_arrays

        lens = rng.integers(8, 128, 60)
        vals = [rng.integers(0, 50257, int(m)).astype(np.float64) for m in lens]
        flat = np.concatenate(vals)
        offs = np.r_[0, np.cumsum(lens)].astype(np.int64)
        got = token_stats_arrays(flat, offs, stats=("dfa", "dfc", "dfc_amp"), sample_rate=50.0)
        want_dfa = np.array([fastdfa(r) for r in vals])
        np.testing.assert_allclose(got["dfa"], want_dfa, rtol=1e-9, equal_nan=True)
        want_dfc = np.array(
            [dominant_frequency(np.arange(len(r)) / 50.0, r) for r in vals]
        )
        np.testing.assert_allclose(got["dfc"], want_dfc[:, 0], rtol=1e-9, equal_nan=True)
        np.testing.assert_allclose(got["dfc_amp"], want_dfc[:, 1], rtol=1e-9, equal_nan=True)
