"""Row-batched DFA / Lomb–Scargle vs the scalar kernels (same pinned
semantics, independent implementations)."""

from __future__ import annotations

import numpy as np
import pytest

from mpds_ray.kernels import batched
from mpds_ray.kernels.batched import dfa_batch, lomb_batch
from mpds_ray.kernels.dfa import fastdfa
from mpds_ray.kernels.lomb import dominant_frequency

rng = np.random.default_rng(42)


class TestDfaBatch:
    @pytest.mark.parametrize("n", [16, 68, 127, 512])
    def test_matches_scalar(self, n):
        x = rng.integers(0, 50257, (20, n)).astype(np.float64)
        got = dfa_batch(x)
        want = np.array([fastdfa(r) for r in x])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, equal_nan=True)

    def test_constant_rows_nan(self):
        x = np.vstack([np.ones(64), rng.normal(size=64)])
        got = dfa_batch(x)
        assert np.isnan(got[0]) and np.isfinite(got[1])

    def test_short_windows_nan(self):
        assert np.isnan(dfa_batch(rng.normal(size=(3, 3)))).all()


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
