"""Explicit hash exchange: equivalence with the Dataset groupby path,
resume-skip, and split correctness."""

from __future__ import annotations

import glob
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mpds_ray.pipelines.flagship import run_flagship, run_flagship_exchange
from mpds_ray.stages.exchange import _split_by_bucket
from mpds_ray.synth import cached_fixture_dir


class TestSplit:
    def test_split_partitions_and_preserves_rows(self):
        t = pa.table({"k": list(range(10)), "b": [3, 1, 0, 1, 2, 3, 0, 0, 1, 2]})
        bucket = t["b"].to_numpy()
        parts = _split_by_bucket(t, bucket, 4)
        assert sum(p.num_rows for p in parts) == 10
        for b, p in enumerate(parts):
            assert (p["b"].to_numpy() == b).all()
        # stable within bucket: original order preserved
        assert parts[0]["k"].to_pylist() == [2, 6, 7]

    def test_empty_buckets(self):
        t = pa.table({"k": [1], "b": [2]})
        parts = _split_by_bucket(t, np.array([2]), 4)
        assert [p.num_rows for p in parts] == [0, 0, 1, 0]

    def test_sort_keys_produce_sorted_runs(self):
        t = pa.table(
            {
                "e": ["b", "a", "a", "b", "a"],
                "ts": [3.0, 2.0, 1.0, 1.0, 2.0],
                "uid": [0, 1, 2, 3, 4],
            }
        )
        bucket = np.array([0, 0, 0, 0, 0])
        (run,) = _split_by_bucket(t, bucket, 1, sort_keys=["e", "ts"])
        assert run["e"].to_pylist() == ["a", "a", "a", "b", "b"]
        assert run["ts"].to_pylist() == [1.0, 2.0, 2.0, 1.0, 3.0]
        # stable: the (a, 2.0) tie keeps original order (uid 1 before 4)
        assert run["uid"].to_pylist() == [2, 1, 4, 3, 0]


class TestAutoNumBuckets:
    def test_scales_with_bytes_and_clamps(self, tmp_path):
        from mpds_ray.stages.exchange import auto_num_buckets

        p = tmp_path / "x.parquet"
        pq.write_table(pa.table({"a": list(range(1000))}), p)
        small = auto_num_buckets([str(p)], target_task_bytes=1 << 30)
        assert small == 1  # tiny input -> one reduce task, no floor
        big = auto_num_buckets([str(p)] * 50, target_task_bytes=1024, max_buckets=64)
        assert big == 64  # would exceed -> ceiling
        mid = auto_num_buckets(
            [str(p)] * 10, target_task_bytes=20_000, max_buckets=10_000, expansion=1.0,
        )
        import os

        want = -(-os.path.getsize(p) * 10 // 20_000)
        assert want > 1
        assert mid == want

    def test_byte_count_input(self):
        from mpds_ray.stages.exchange import auto_num_buckets

        assert auto_num_buckets(0) == 1
        assert auto_num_buckets(1000, target_task_bytes=1 << 20) == 1
        # ceil(10_001 * 4 / 1_000) = 41: the same rule as for paths
        assert auto_num_buckets(10_001, target_task_bytes=1_000) == 41
        assert auto_num_buckets(10**12, target_task_bytes=1_000, max_buckets=100) == 100


class TestExchangeFlagship:
    @pytest.fixture(scope="class")
    def dirs(self, ray_session):
        d = cached_fixture_dir("small")
        a, b = "/tmp/mpds_test_ex/a", "/tmp/mpds_test_ex/b"
        shutil.rmtree("/tmp/mpds_test_ex", ignore_errors=True)
        run_flagship(f"{d}/tokens.parquet", f"{d}/scores.parquet",
                     out_dir=a, num_buckets=8).to_pandas()
        run_flagship_exchange(f"{d}/tokens.parquet", f"{d}/scores.parquet",
                              out_dir=b, num_buckets=8)
        return a, b

    def _load(self, out_dir):
        files = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
        df = pd.concat([pq.read_table(p).to_pandas() for p in files])
        return df.sort_values(["doc_id", "ts"]).reset_index(drop=True)

    def test_byte_equivalent_outputs(self, dirs):
        a, b = dirs
        fa, fb = self._load(a), self._load(b)
        pd.testing.assert_frame_equal(fa, fb[fa.columns])

    def test_exchange_resume_skips(self, dirs, ray_session):
        d = cached_fixture_dir("small")
        _, b = dirs
        res = run_flagship_exchange(f"{d}/tokens.parquet", f"{d}/scores.parquet",
                                    out_dir=b, num_buckets=8)
        assert res["skipped"].all()

    def test_in_memory_result_is_bucket_count_invariant(self, ray_session):
        """With out_dir=None the returned features hold only the written
        columns, so one bucket and eight give the same frame."""
        d = cached_fixture_dir("small")
        one, eight = (
            run_flagship_exchange(f"{d}/tokens.parquet", f"{d}/scores.parquet",
                                  num_buckets=b)
            .sort_values(["doc_id", "ts"], kind="mergesort").reset_index(drop=True)
            for b in (1, 8)
        )
        pd.testing.assert_frame_equal(one, eight, check_exact=True)


class TestWideOutput:
    def test_wide_output_token_byte_identity(self, ray_session, tmp_path):
        import numpy as np

        d = cached_fixture_dir("small")
        wide_dir = str(tmp_path / "wide")
        run_flagship_exchange(
            f"{d}/tokens.parquet", f"{d}/scores.parquet",
            out_dir=str(tmp_path / "narrow"), wide_out_dir=wide_dir, num_buckets=4,
        )
        files = sorted(glob.glob(f"{wide_dir}/wide-*.parquet"))
        assert files
        wide = pd.concat([pq.read_table(p).to_pandas() for p in files])
        orig = pq.read_table(f"{d}/tokens.parquet").to_pandas()
        assert len(wide) == len(orig)
        assert "tok_mean" in wide.columns

        # (doc_id, ts) can repeat -> compare canonically sorted token bytes
        def canon(df):
            key = df["tokens"].map(lambda v: np.asarray(v, dtype=np.int32).tobytes())
            return (
                df.assign(_k=key)
                .sort_values(["doc_id", "ts", "_k"], kind="mergesort")["_k"]
                .to_numpy()
            )

        a, b = canon(orig), canon(wide)
        assert (a == b).all()


def _recording_reduce():
    # built in a factory so cloudpickle ships it by value (a test module is
    # not importable on Ray workers)
    def reduce_fn(b: int, first, other) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "b": [b],
                "first_rows": [-1 if first is None else first.num_rows],
                "other_rows": [-1 if other is None else other.num_rows],
            }
        )

    return reduce_fn


class TestReduceGridContract:
    """The empty-bucket rule every reducer relies on: ``reduce_fn`` never
    gets a ``None`` or zero-row first table; with ``how='left'`` it gets
    ``None`` for an empty other grid. The bucket reducers of
    pipelines/eventspipe.py carry no empty-frame guard because of it."""

    @pytest.fixture()
    def grids(self, ray_session):
        import ray

        def t(n: int) -> pa.Table:
            return pa.table({"k": np.arange(n, dtype=np.int64)})

        # buckets: 0 rows on both sides, 1 first side only, 2 other side
        # only, 3 neither; empty slices come as zero-row tables and None
        first = [[t(2), t(1), t(0), None], [t(0), t(3), None, t(0)]]
        other = [[t(1), None, t(2), t(0)], [t(0), t(0), t(4), None]]
        return [[ray.put(p) for p in row] for row in first], [
            [ray.put(p) for p in row] for row in other
        ]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_first_grid_never_empty(self, grids, how):
        from mpds_ray.stages.exchange import reduce_grid

        out = reduce_grid(_recording_reduce(), 4, *grids, how=how).sort_values("b")
        want = {"inner": [[0, 2, 1]], "left": [[0, 2, 1], [1, 4, -1]]}[how]
        assert out[["b", "first_rows", "other_rows"]].to_numpy().tolist() == want

    def test_skipped_buckets_resolve_to_none(self, grids):
        import ray

        from mpds_ray.stages.exchange import reduce_grid

        refs = reduce_grid(_recording_reduce(), 4, *grids, how="left", emit="refs")
        got = ray.get(refs)
        assert got[2] is None and got[3] is None
        assert got[1]["other_rows"].tolist() == [-1]


class TestCollectCap:
    def test_features_collect_enforces_driver_cap(self, ray_session, monkeypatch):
        """With out_dir=None every feature row comes back to the driver: past
        ``DRIVER_ROOT_ROW_CAP`` that is a loud error naming the root."""
        import mpds_ray.stages.exchange as ex

        d = cached_fixture_dir("small")
        args = (f"{d}/tokens.parquet", f"{d}/scores.parquet")
        rows = pq.read_table(args[0], columns=["doc_id"]).num_rows
        monkeypatch.setattr(ex, "DRIVER_ROOT_ROW_CAP", rows)
        assert len(run_flagship_exchange(*args, num_buckets=4)) == rows
        monkeypatch.setattr(ex, "DRIVER_ROOT_ROW_CAP", rows - 1)
        with pytest.raises(RuntimeError, match="driver root 'run_flagship_exchange'"):
            run_flagship_exchange(*args, num_buckets=4)
