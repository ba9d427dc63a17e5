"""As-of join conformance: engine (one composite-key search) vs oracle
(quadratic scan), tolerance expiry, direction variants, unsorted-input
errors, and the FIXTURES.md F6 zero-temporal-leakage property."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mpds_ray.oracle.scans import asof_backward
from mpds_ray.stages.asof import asof_join_arrays, range_join_sorted
from mpds_ray.stages.partition import search_runs


def make_sides(seed=11, n_entities=12):
    rng = np.random.default_rng(seed)
    li, lt = [], []
    ri, rt, rv = [], [], []
    for e in range(n_entities):
        m = int(rng.integers(5, 50))
        li.append(np.full(m, e))
        lt.append(np.sort(rng.uniform(0, 1000, m)))
        if e % 4 == 0:
            continue  # entities absent on the right -> null-join coverage (F2)
        k = int(rng.integers(1, 20))
        ri.append(np.full(k, e))
        # some right rows after all left rows, some before any (F2)
        rt.append(np.sort(rng.uniform(-100, 1200, k)))
        rv.append(rng.normal(size=k))
    return (
        np.concatenate(li),
        np.concatenate(lt),
        np.concatenate(ri),
        np.concatenate(rt),
        np.concatenate(rv),
    )


LI, LT, RI, RT, RV = make_sides()


def _one_entity(lt, rt, **kw) -> np.ndarray:
    """The matched right index per left row of one entity's join (-1: none)."""
    got = asof_join_arrays(np.zeros(lt.size), lt, np.zeros(rt.size), rt,
                           {"i": np.arange(rt.size)}, **kw)
    return np.where(np.isnan(got["i"]), -1, got["i"]).astype(np.int64)


def _brute_asof(li, lt, ri, rt, tol, direction) -> np.ndarray:
    """Per left row, the matched right index by a scan over every right row
    (-1: none). Backward takes the last of equal timestamps, forward the
    first; nearest takes the closer of the two, backward on a tie."""
    out = np.full(lt.size, -1)
    for i in range(lt.size):
        same = [j for j in range(rt.size) if ri[j] == li[i]]
        back = [j for j in same if rt[j] <= lt[i] and (tol is None or lt[i] - rt[j] <= tol)]
        fwd = [j for j in same if rt[j] >= lt[i] and (tol is None or rt[j] - lt[i] <= tol)]
        b = max(back, key=lambda j: (rt[j], j)) if back else -1
        f = min(fwd, key=lambda j: (rt[j], j)) if fwd else -1
        if direction == "backward":
            out[i] = b
        elif direction == "forward":
            out[i] = f
        else:
            out[i] = b if b >= 0 and (f < 0 or lt[i] - rt[b] <= rt[f] - lt[i]) else f
    return out


class TestAsofArrays:
    @pytest.mark.parametrize("tol", [None, 50.0, 500.0])
    def test_matches_oracle(self, tol):
        got = asof_join_arrays(LI, LT, RI, RT, {"score": RV}, tolerance=tol)
        want_v, want_ts = asof_backward(LI, LT, RI, RT, RV, tolerance=tol)
        np.testing.assert_allclose(got["score"], want_v, equal_nan=True)
        np.testing.assert_allclose(got["_matched_ts"], want_ts, equal_nan=True)

    def test_matches_pandas_merge_asof(self):
        left = pd.DataFrame({"id": LI, "ts": LT})
        right = pd.DataFrame({"id": RI, "ts": RT, "score": RV})
        want = pd.merge_asof(
            left.sort_values("ts"), right.sort_values("ts"), on="ts", by="id"
        ).sort_values(["id", "ts"])
        got = asof_join_arrays(LI, LT, RI, RT, {"score": RV})
        np.testing.assert_allclose(got["score"], want["score"].to_numpy(), equal_nan=True)

    def test_zero_temporal_leakage(self):
        """F6: perturbing every right row with ts > t_q leaves as-of outputs
        at query times <= t_q unchanged."""
        t_q = 400.0
        base = asof_join_arrays(LI, LT, RI, RT, {"score": RV})
        rv2 = RV.copy()
        rv2[RT > t_q] = 1e9  # corrupt the future
        pert = asof_join_arrays(LI, LT, RI, RT, {"score": rv2})
        mask = LT <= t_q
        np.testing.assert_array_equal(base["score"][mask], pert["score"][mask])
        np.testing.assert_array_equal(base["_matched_ts"][mask], pert["_matched_ts"][mask])

    def test_forward_and_nearest_directions(self):
        lt = np.array([10.0, 20.0, 30.0])
        rt = np.array([12.0, 29.0])
        f = _one_entity(lt, rt, direction="forward")
        np.testing.assert_array_equal(f, [0, 1, -1])
        nrst = _one_entity(lt, rt, direction="nearest")
        np.testing.assert_array_equal(nrst, [0, 0, 1])  # |20-12|=8 < |29-20|=9

    def test_tolerance_expiry(self):
        lt = np.array([10.0, 100.0])
        rt = np.array([9.0])
        idx = _one_entity(lt, rt, tolerance=5.0)
        np.testing.assert_array_equal(idx, [0, -1])

    @pytest.mark.parametrize("seed", range(6))
    def test_all_directions_match_brute_force(self, seed):
        """Left rows in random order, integer ts on a small grid (ties on
        both sides and at equal left/right ts), entities missing on either
        side: every direction, with and without tolerance, picks the row a
        scan over all right rows picks."""
        rng = np.random.default_rng(seed)
        li, lt = rng.integers(0, 9, 150), rng.integers(0, 40, 150).astype(float)
        ri, rt = rng.integers(2, 12, 90), rng.integers(0, 40, 90).astype(float)
        o = np.lexsort((rt, ri))
        ri, rt = ri[o], rt[o]
        for direction in ("backward", "forward", "nearest"):
            for tol in (None, 3.0):
                got = asof_join_arrays(li, lt, ri, rt, {"i": np.arange(rt.size)}, tol, direction)
                want = _brute_asof(li, lt, ri, rt, tol, direction)
                np.testing.assert_array_equal(got["i"], np.where(want >= 0, want, np.nan))

    def test_unsorted_right_raises(self):
        ri, rt = np.array([0, 0, 1]), np.array([5.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            search_runs(np.array([0]), np.array([3.0]), ri, rt)
        with pytest.raises(ValueError):
            asof_join_arrays(np.array([0]), np.array([3.0]), ri, rt, {"v": rt})
        with pytest.raises(ValueError):
            range_join_sorted(np.array([1]), np.array([9]), np.array([1, 0]),
                              np.array([1, 2]), np.array([1.0, 2.0]), 5)

    def test_entity_never_crossed(self):
        # right has only entity 0; entity 1 rows must stay unmatched
        got = asof_join_arrays(
            np.array([0, 1]), np.array([5.0, 5.0]),
            np.array([0]), np.array([1.0]), {"v": np.array([42.0])},
        )
        np.testing.assert_allclose(got["v"], [42.0, np.nan])

    def test_string_value_columns(self):
        got = asof_join_arrays(
            np.array([0, 0]), np.array([5.0, 0.5]),
            np.array([0]), np.array([1.0]), {"label": np.array(["a"])},
        )
        assert got["label"][0] == "a" and got["label"][1] is None


def test_flagship_bucket_with_right_only_entities_between_left_ones():
    """Score-only entities sort before, between and after the left ones, so
    the bucket's entity codes must follow value order for the sorted score
    side to be searchable: the flagship's as-of column equals the oracle's."""
    from mpds_ray.pipelines.flagship import process_bucket

    rng = np.random.default_rng(3)
    ts = rng.choice(20_000, 100, replace=False)  # distinct: no tie to break
    left = pa.table({
        "doc_id": np.repeat(["b", "d", "f"], 20),
        "ts": ts[:60],
        "tok_mean": rng.normal(size=60),
    })
    right = pa.table({
        "doc_id": rng.choice(list("abcdeg"), 40),
        "ts": ts[60:],
        "score": rng.normal(50, 10, 40),
    })
    out = process_bucket(left, right, "doc_id", "ts", 300.0, 2_000.0, ["tok_mean"])
    want, _ = asof_backward(
        out["doc_id"].to_numpy(zero_copy_only=False), out["ts"].to_numpy(),
        right["doc_id"].to_numpy(zero_copy_only=False), right["ts"].to_numpy(),
        right["score"].to_numpy(), tolerance=2_000.0,
    )
    assert np.isfinite(want).sum() > 5
    np.testing.assert_array_equal(out["score_asof"].to_numpy(zero_copy_only=False), want)
