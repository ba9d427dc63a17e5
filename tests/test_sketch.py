"""Mergeable quantile summary (stages/sketch.py): exact-path bit parity with
np.percentile, sketch-path rank-error bound, and moment merging."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from mpds_ray.stages.sketch import (
    batch_quantile_summary,
    column_moments,
    column_quantiles,
    weighted_quantiles,
)


class TestWeightedQuantiles:
    def test_unit_weights_bit_equal_to_percentile(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=10_001)
        got = weighted_quantiles(v, np.ones(v.size), [0.1, 0.5, 0.9, 0.15, 0.85])
        want = np.percentile(v, [10, 50, 90, 15, 85])
        np.testing.assert_array_equal(got, want)  # bitwise, not approx

    def test_empty_is_nan(self):
        out = weighted_quantiles(np.empty(0), np.empty(0), [0.5])
        assert np.isnan(out).all()

    def test_compressed_batch_rank_error(self):
        rng = np.random.default_rng(1)
        v = rng.lognormal(size=200_000)
        val, wt = batch_quantile_summary(v, raw_limit=1000, k=2048)
        assert val.size == 2048 and wt.sum() == pytest.approx(v.size)
        for q in (0.05, 0.5, 0.95):
            est = weighted_quantiles(val, wt, [q])[0]
            # rank of the estimate in the true data within 1/(2K) + slack
            rank = np.searchsorted(np.sort(v), est) / v.size
            assert abs(rank - q) < 1.5 / 2048


class TestDistributedQuantiles:
    def test_exact_path_matches_percentile(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(2)
        v = rng.normal(size=50_000)
        ds = rd.from_pandas(pd.DataFrame({"x": v}))
        got = column_quantiles(ds, ["x"], [0.5, 0.9])["x"]
        np.testing.assert_array_equal(got, np.percentile(v, [50, 90]))

    def test_sketch_path_error_bound(self, ray_session, monkeypatch):
        """Force the sketch path (tiny raw_limit) on a 1M-row skewed column:
        the merged estimate must be within ~1/(2K) rank error of exact, AND
        the driver-side summary must actually be compressed (the r2 stage's
        batch_size <= raw_limit made the compression branch dead code and
        collected the raw column — ADVICE r2)."""
        import ray.data as rd

        from mpds_ray.stages import sketch
        from mpds_ray.stages.sketch import quantile_summary_stage

        rng = np.random.default_rng(3)
        v = rng.lognormal(sigma=2.0, size=1_000_000)
        ds = rd.from_pandas(pd.DataFrame({"x": v})).repartition(8)
        parts = quantile_summary_stage(ds, ["x"], raw_limit=10_000, k=2048).to_pandas()
        assert len(parts) < 200_000, "summary not compressed: driver got raw column"
        assert (parts["weight"] > 1).any(), "no batch took the compression branch"
        monkeypatch.setattr(sketch, "RAW_LIMIT", 10_000)
        monkeypatch.setattr(sketch, "K", 2048)
        budgets = []
        monkeypatch.setattr(sketch, "quantile_summary_stage", lambda ds, cols, raw_limit, k: (
            budgets.append((raw_limit, k)) or quantile_summary_stage(ds, cols, raw_limit, k)))
        got = column_quantiles(ds, ["x"], [0.5, 0.9, 0.99])["x"]
        assert budgets == [(10_000, 2048)]
        sv = np.sort(v)
        for q, est in zip((0.5, 0.9, 0.99), got):
            rank = np.searchsorted(sv, est) / v.size
            assert abs(rank - q) < 3.0 / 2048, (q, est, rank)

    def test_moments_merge_exact(self, ray_session):
        import ray.data as rd

        rng = np.random.default_rng(4)
        df = pd.DataFrame({"a": rng.normal(size=30_000), "b": rng.uniform(size=30_000)})
        df.loc[5::7, "a"] = np.nan
        ds = rd.from_pandas(df).repartition(6)
        m = column_moments(ds, ["a", "b"])
        a = df["a"].dropna().to_numpy()
        assert m["a"]["n"] == a.size
        assert m["a"]["min"] == a.min() and m["a"]["max"] == a.max()
        assert m["a"]["mean"] == pytest.approx(a.mean(), rel=1e-12)
        assert m["b"]["n"] == len(df)


class TestShardQuantiles:
    """``shard_quantiles`` — the path the quantile queries run on — over a
    parquet file of several row groups, one summary per row group."""

    @staticmethod
    def _write(tmp_path, v, row_group_size):
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = str(tmp_path / "x.parquet")
        pq.write_table(pa.table({"x": v}), path, row_group_size=row_group_size)
        assert pq.read_metadata(path).num_row_groups > 1
        return path

    def test_exact_path_matches_percentile(self, ray_session, tmp_path):
        from mpds_ray.stages.sketch import RAW_LIMIT, shard_quantiles

        rng = np.random.default_rng(5)
        v = rng.normal(size=60_000)
        path = self._write(tmp_path, v, 15_000)
        assert 15_000 <= RAW_LIMIT
        got = shard_quantiles([path], ["x"], [0.5, 0.9, 0.15])["x"]
        np.testing.assert_array_equal(got, np.percentile(v, [50, 90, 15]))

    def test_sketch_path_error_bound(self, ray_session, tmp_path, monkeypatch):
        """Row groups above the raw limit compress to K points each; the
        merged estimate stays within ~1/(2K) rank error of exact."""
        from mpds_ray.stages import sketch

        monkeypatch.setattr(sketch, "RAW_LIMIT", 10_000)
        monkeypatch.setattr(sketch, "K", 2048)
        folded = []
        fold = sketch.fold_quantiles

        def spy(parts, cols, qs):
            folded.append(parts)
            return fold(parts, cols, qs)

        monkeypatch.setattr(sketch, "fold_quantiles", spy)
        rng = np.random.default_rng(6)
        v = rng.lognormal(sigma=2.0, size=1_000_000)
        path = self._write(tmp_path, v, 125_000)
        got = sketch.shard_quantiles([path], ["x"], [0.5, 0.9, 0.99])["x"]
        (parts,) = folded
        assert len(parts) == 8 * 2048, "each row group compresses to K points"
        assert (parts["weight"] > 1).all()
        sv = np.sort(v)
        for q, est in zip((0.5, 0.9, 0.99), got):
            rank = np.searchsorted(sv, est) / v.size
            assert abs(rank - q) < 3.0 / 2048, (q, est, rank)


class TestKMV:
    def test_exact_below_k(self):
        from mpds_ray.stages.sketch import kmv_merge_count, kmv_partial

        rng = np.random.default_rng(7)
        keys = rng.integers(0, 500, size=100_000).astype(np.uint64)
        # split into batches, fold partials — exact because distinct <= k
        parts = [kmv_partial(c, k=1024) for c in np.array_split(keys, 9)]
        assert kmv_merge_count(parts, k=1024) == len(np.unique(keys))

    def test_estimate_error_bound_above_k(self):
        from mpds_ray.stages.sketch import kmv_merge_count, kmv_partial

        rng = np.random.default_rng(8)
        true_n = 1_000_000
        keys = rng.permutation(np.arange(3_000_000, dtype=np.uint64))[:true_n]
        keys = np.concatenate([keys, keys[: true_n // 2]])  # duplicates too
        k = 1024
        parts = [kmv_partial(c, k=k) for c in np.array_split(keys, 16)]
        # every partial is bounded by k (the shipped summary size)
        assert all(p.size <= k for p in parts)
        est = kmv_merge_count(parts, k=k)
        # relative stderr ~ 1/sqrt(k-2) ≈ 3.1%; assert within 5 sigma
        assert abs(est - true_n) / true_n < 5.0 / np.sqrt(k - 2)

    def test_merge_invariant_to_batching(self):
        from mpds_ray.stages.sketch import kmv_merge_count, kmv_partial

        rng = np.random.default_rng(9)
        keys = rng.integers(0, 50_000, size=200_000).astype(np.uint64)
        k = 512
        one = kmv_merge_count([kmv_partial(keys, k=k)], k=k)
        many = kmv_merge_count(
            [kmv_partial(c, k=k) for c in np.array_split(keys, 23)], k=k
        )
        assert one == many  # the summary is mergeable: fold order/shape free
