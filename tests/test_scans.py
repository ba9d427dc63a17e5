"""Engine (vectorized) vs oracle (loop) conformance for the scan operators —
FIXTURES.md F4: entities with leading NAs, long NA runs, short ON-runs,
mergeable gaps, events at entity boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from mpds_ray.oracle import scans as oracle
from mpds_ray.stages import scans as engine
from mpds_ray.stages.sessionize import sessionize_gap


def make_fixture(seed=42, n_entities=10, rows=100):
    rng = np.random.default_rng(seed)
    ids, ts, val, ev = [], [], [], []
    for e in range(n_entities):
        m = rng.integers(3, rows)
        t = np.cumsum(rng.exponential(10.0, m))
        v = rng.normal(size=m)
        v[rng.random(m) < 0.35] = np.nan  # NA runs incl. leading
        if rng.random() < 0.3:
            v[: rng.integers(1, min(4, m) + 1)] = np.nan  # force leading NAs
        event = (rng.random(m) < 0.15).astype(np.int64)
        if rng.random() < 0.3:
            event[-1] = 1  # events at entity boundary
        ids.append(np.full(m, 1000 + e))
        ts.append(t)
        val.append(v)
        ev.append(event)
    return (
        np.concatenate(ids),
        np.concatenate(ts),
        np.concatenate(val),
        np.concatenate(ev),
    )


IDS, TS, VAL, EV = make_fixture()


def assert_dict_close(a: dict, b: dict):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_allclose(a[k], b[k], equal_nan=True, err_msg=k, atol=1e-12)


class TestTimeSinceToEvent:
    def test_matches_oracle(self):
        assert_dict_close(
            engine.time_since_to_event(IDS, TS, EV),
            oracle.time_since_to_event(IDS, TS, EV),
        )

    def test_strictly_before_semantics(self):
        # an event row itself measures distance to the PREVIOUS event
        ids = np.zeros(3)
        ts = np.array([0.0, 5.0, 9.0])
        ev = np.array([1, 1, 0])
        r = engine.time_since_to_event(ids, ts, ev)
        np.testing.assert_allclose(r["time_since_last_event"], [np.nan, 5.0, 4.0])
        np.testing.assert_allclose(r["time_to_next_event"], [5.0, np.nan, np.nan])

    def test_entity_reset(self):
        ids = np.array([1, 1, 2, 2])
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        ev = np.array([1, 0, 0, 1])
        r = engine.time_since_to_event(ids, ts, ev)
        assert np.isnan(r["time_since_last_event"][2])  # entity 2 saw no event yet
        assert np.isnan(r["time_to_next_event"][1])  # entity 1 has no later event


class TestLocf:
    @pytest.mark.parametrize("valid_time", [5.0, 30.0, 1e9])
    def test_matches_oracle(self, valid_time):
        assert_dict_close(
            engine.locf_with_expiration(IDS, TS, VAL, valid_time),
            oracle.locf_with_expiration(IDS, TS, VAL, valid_time),
        )

    def test_expiration_and_leading_na(self):
        ids = np.zeros(4)
        ts = np.array([0.0, 1.0, 2.0, 50.0])
        v = np.array([np.nan, 7.0, np.nan, np.nan])
        r = engine.locf_with_expiration(ids, ts, v, valid_time=10.0)
        np.testing.assert_allclose(r["locf"], [np.nan, 7.0, 7.0, 7.0])
        np.testing.assert_allclose(r["locf_with_expir"], [np.nan, 7.0, 7.0, np.nan])
        np.testing.assert_allclose(r["time_since_last_sample"], [np.nan, 0.0, 1.0, 49.0])


def _edge_fixture(seed: int):
    """Entity-sorted rows with single-row entities, entities without any
    event, all-event entities and runs of missing values."""
    rng = np.random.default_rng(seed)
    ids, ts, val, ev = [], [], [], []
    for e in range(40):
        m = 1 if e % 4 == 0 else int(rng.integers(2, 25))
        t = np.cumsum(rng.exponential(3.0, m))
        v = rng.normal(size=m)
        v[rng.random(m) < 0.4] = np.nan
        if e % 5 == 1:
            v[:] = np.nan  # an entity never sampled
        mode = e % 3
        event = (
            np.zeros(m, dtype=np.int64) if mode == 0
            else np.ones(m, dtype=np.int64) if mode == 1
            else (rng.random(m) < 0.3).astype(np.int64)
        )
        ids.append(np.full(m, f"u{e:03d}"))
        ts.append(t)
        val.append(v)
        ev.append(event)
    return np.concatenate(ids), np.concatenate(ts), np.concatenate(val), np.concatenate(ev)


class TestSegmentScansExact:
    """The run-based forward/backward scans copy and subtract exactly what
    the loop oracle does, so they equal it bit for bit (not within a
    tolerance) on every edge: no events, only events, single-row entities,
    NaN runs, never-sampled entities."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_time_since_to_event_exact(self, seed):
        ids, ts, _, ev = _edge_fixture(seed)
        got = engine.time_since_to_event(ids, ts, ev)
        want = oracle.time_since_to_event(ids, ts, ev)
        assert got.keys() == want.keys()
        for k in got:
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("valid_time", [2.0, np.inf])
    def test_locf_with_expiration_exact(self, seed, valid_time):
        ids, ts, val, _ = _edge_fixture(seed)
        got = engine.locf_with_expiration(ids, ts, val, valid_time)
        want = oracle.locf_with_expiration(ids, ts, val, valid_time)
        assert got.keys() == want.keys()
        for k in got:
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    def test_integer_codes_equal_string_ids(self):
        ids, ts, val, ev = _edge_fixture(3)
        codes = np.unique(ids, return_inverse=True)[1]
        for fn, args in (
            (engine.time_since_to_event, (ts, ev)),
            (engine.locf_with_expiration, (ts, val, 5.0)),
        ):
            a, b = fn(ids, *args), fn(codes, *args)
            for k in a:
                np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    def test_empty_input(self):
        e = np.zeros(0)
        assert all(v.size == 0 for v in engine.time_since_to_event(e, e, e).values())
        assert all(v.size == 0 for v in engine.locf_with_expiration(e, e, e, 1.0).values())


class TestInterpolation:
    def test_matches_oracle(self):
        np.testing.assert_allclose(
            engine.linear_interpolation(IDS, TS, VAL, default=-1.5),
            oracle.linear_interpolation(IDS, TS, VAL, default=-1.5),
            equal_nan=True,
            atol=1e-12,
        )

    def test_boundary_rules(self):
        ids = np.zeros(5)
        ts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        v = np.array([np.nan, 2.0, np.nan, 4.0, np.nan])
        out = engine.linear_interpolation(ids, ts, v, default=0.0)
        np.testing.assert_allclose(out, [0.0, 2.0, 3.0, 4.0, 4.0])

    def test_sample_and_hold(self):
        np.testing.assert_allclose(
            engine.sample_and_hold(IDS, VAL, default=9.9),
            oracle.sample_and_hold(IDS, VAL, default=9.9),
            atol=1e-12,
        )


class TestIntervals:
    def make_onoff(self, seed):
        rng = np.random.default_rng(seed)
        ids, ts, sig = [], [], []
        for e in range(8):
            m = int(rng.integers(5, 60))
            t = np.cumsum(rng.exponential(5.0, m))
            s = (rng.random(m) < 0.5).astype(np.float64)
            s[rng.random(m) < 0.1] = np.nan
            ids.append(np.full(m, e))
            ts.append(t)
            sig.append(s)
        return np.concatenate(ids), np.concatenate(ts), np.concatenate(sig)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("th", [0.0, 5.0, 20.0])
    def test_debounce_matches_oracle(self, seed, th):
        ids, ts, sig = self.make_onoff(seed)
        np.testing.assert_array_equal(
            engine.remove_short_on_intervals(ids, ts, sig, th),
            oracle.remove_short_on_intervals(ids, ts, sig, th),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("th", [1.0, 10.0, 100.0])
    def test_unite_matches_oracle(self, seed, th):
        ids, ts, sig = self.make_onoff(seed)
        np.testing.assert_array_equal(
            engine.unite_adjacent_on_intervals(ids, ts, sig, th),
            oracle.unite_adjacent_on_intervals(ids, ts, sig, th),
        )


class TestSessionize:
    def test_matches_oracle(self):
        np.testing.assert_array_equal(
            sessionize_gap(IDS, TS, gap=15.0),
            oracle.sessionize_gap(IDS, TS, gap=15.0),
        )

    def test_monotone_and_gap_respected(self):
        sid = sessionize_gap(IDS, TS, gap=15.0)
        assert np.all(np.diff(sid) >= 0)
        same = (sid[1:] == sid[:-1])
        dt = TS[1:] - TS[:-1]
        assert np.all(dt[same] <= 15.0)

    def test_batch_size_invariance(self):
        # F6: scan output identical regardless of how the sorted input is cut,
        # PROVIDED cuts fall on entity boundaries (the engine's invariant)
        sid_full = sessionize_gap(IDS, TS, gap=15.0)
        bounds = np.flatnonzero(np.r_[True, IDS[1:] != IDS[:-1]])
        cut = bounds[len(bounds) // 2]
        a = sessionize_gap(IDS[:cut], TS[:cut], gap=15.0)
        b = sessionize_gap(IDS[cut:], TS[cut:], gap=15.0)
        np.testing.assert_array_equal(sid_full, np.r_[a, b + a[-1] + 1])


class TestPrefixFeatures:
    def test_matches_oracle(self):
        """The cumulative scans make the oracle's sequential per-entity
        operations, so they equal it exactly; only ``twmean`` keeps a
        tolerance, as the oracle sums each prefix's areas pairwise."""
        ids, ts = IDS, TS
        score = np.nan_to_num(VAL, nan=0.0)
        got = engine.prefix_features(ids, ts, score)
        want = oracle.prefix_features(ids, ts, score)
        assert got.keys() == want.keys()
        for k in ("cummax", "cummin", "cumsum", "runmean", "roc"):
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)
        np.testing.assert_allclose(got["twmean"], want["twmean"], atol=1e-12)
