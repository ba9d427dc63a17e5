"""exchange_join (two-sided distributed hash equi-join) vs a pandas merge
oracle: inner-join semantics across bucket counts, combiner pushdown, and the
driver-root bound."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import force_buckets

from mpds_ray.stages.hashjoin import exchange_join

rng = np.random.default_rng(3)


def _write_shards(tmp_path, name: str, df: pd.DataFrame, n_shards: int) -> list[str]:
    paths = []
    for i, part in enumerate(np.array_split(df, n_shards)):
        p = tmp_path / f"{name}_{i}.parquet"
        pq.write_table(pa.Table.from_pandas(part.reset_index(drop=True)), p)
        paths.append(str(p))
    return paths


class TestExchangeJoin:
    def test_inner_join_matches_pandas_any_bucket_count(self, ray_session, tmp_path, tasks,
                                                         monkeypatch):
        left = pd.DataFrame(
            {"k": rng.integers(0, 40, 300).astype(np.int64),
             "x": rng.normal(size=300)}
        )
        right = pd.DataFrame(
            {"k": rng.integers(20, 60, 100).astype(np.int64),
             "y": rng.normal(size=100)}
        )
        lp = _write_shards(tmp_path, "left", left, 4)
        rp = _write_shards(tmp_path, "right", right, 3)

        def reduce_fn(b: int, l: pa.Table, r: pa.Table) -> pd.DataFrame:
            return l.to_pandas().merge(r.to_pandas(), on="k")

        want = (
            left.merge(right, on="k")
            .sort_values(["k", "x", "y"])
            .reset_index(drop=True)
        )
        for nb in (1, 2, 8):
            force_buckets(monkeypatch, nb)
            got = (
                exchange_join(lp, rp, "k", reduce_fn)
                .sort_values(["k", "x", "y"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got[["k", "x", "y"]], want)
        assert tasks["_reduce_bucket"] == 1 + 2 + 8

    def test_left_join_matches_pandas(self, ray_session, tmp_path, tasks, monkeypatch):
        # right keys cover only [0, 8): many buckets are left-only and must
        # still surface their left rows (the how='left' contract)
        left = pd.DataFrame(
            {"k": np.arange(64, dtype=np.int64), "x": np.arange(64) * 0.5}
        )
        right = pd.DataFrame(
            {"k": rng.integers(0, 8, 30).astype(np.int64),
             "y": rng.normal(size=30)}
        )
        lp = _write_shards(tmp_path, "ll", left, 3)
        rp = _write_shards(tmp_path, "rl", right, 2)

        def reduce_fn(b: int, l: pa.Table, r) -> pd.DataFrame:
            lf = l.to_pandas()
            if r is None:
                out = lf.copy()
                out["y"] = np.nan
                return out
            return lf.merge(r.to_pandas(), on="k", how="left")

        want = (
            left.merge(right, on="k", how="left")
            .sort_values(["k", "y"])
            .reset_index(drop=True)
        )
        for nb in (1, 4, 16):
            force_buckets(monkeypatch, nb)
            got = (
                exchange_join(lp, rp, "k", reduce_fn, how="left")
                .sort_values(["k", "y"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got[["k", "x", "y"]], want)
        # every left row survives even where no bucket had right rows
        assert len(got) == len(want) and got["k"].nunique() == 64
        assert tasks["_reduce_bucket"] == 1 + 4 + 16

    def test_left_join_rejects_right_bloom(self, ray_session, tmp_path):
        df = pd.DataFrame({"k": np.arange(4, dtype=np.int64), "x": np.arange(4.0)})
        lp = _write_shards(tmp_path, "lb", df, 1)
        rp = _write_shards(tmp_path, "rb", df.rename(columns={"x": "y"}), 1)
        with pytest.raises(ValueError, match="bloom_from='right'"):
            exchange_join(
                lp, rp, "k", lambda b, l, r: pd.DataFrame(), how="left", bloom_from="right",
            )

    def test_driver_root_bound_enforced(self, ray_session, tmp_path, monkeypatch):
        from mpds_ray.stages import exchange

        monkeypatch.setattr(exchange, "DRIVER_ROOT_ROW_CAP", 1000)
        df = pd.DataFrame({"k": np.zeros(200, dtype=np.int64),
                           "x": np.arange(200, dtype=np.float64)})
        lp = _write_shards(tmp_path, "l2", df, 2)
        rp = _write_shards(tmp_path, "r2", df.rename(columns={"x": "y"}), 2)

        def reduce_fn(b, l, r):
            return l.to_pandas().merge(r.to_pandas(), on="k")  # 200x200 rows

        with pytest.raises(RuntimeError, match="driver root"):
            exchange_join(lp, rp, "k", reduce_fn)
