"""As-of join conformance: engine (vectorized merge) vs oracle (quadratic
scan), tolerance expiry, direction variants, and the FIXTURES.md F6
zero-temporal-leakage property."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from mpds_ray.oracle.scans import asof_backward
from mpds_ray.stages.asof import asof_join_arrays, asof_merge_sorted


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
        f = asof_merge_sorted(lt, rt, direction="forward")
        np.testing.assert_array_equal(f, [0, 1, -1])
        nrst = asof_merge_sorted(lt, rt, direction="nearest")
        np.testing.assert_array_equal(nrst, [0, 0, 1])  # |20-12|=8 < |29-20|=9

    def test_tolerance_expiry(self):
        lt = np.array([10.0, 100.0])
        rt = np.array([9.0])
        idx = asof_merge_sorted(lt, rt, tolerance=5.0)
        np.testing.assert_array_equal(idx, [0, -1])

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
