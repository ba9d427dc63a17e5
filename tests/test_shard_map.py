"""stages/exchange.shard_map, the per-shard pass every query runs on: one
task per shard or per row group, columns pruned and the filter pushed into
the read, a driver collect bounded by DRIVER_ROOT_ROW_CAP, and a fold of
fixed-size partials as the tasks finish."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


def _write(path, n: int, row_group_size: int) -> str:
    x = np.arange(n, dtype=np.int64)
    pq.write_table(pa.table({"x": x, "y": x % 7}), path, row_group_size=row_group_size)
    return str(path)


def test_one_task_per_row_group(ray_session, tmp_path):
    from mpds_ray.stages.exchange import shard_map

    one = _write(tmp_path / "one.parquet", 100, 1_000)
    multi = _write(tmp_path / "multi.parquet", 1_000, 250)
    assert pq.read_metadata(multi).num_row_groups == 4

    # one result per task, in shard then row-group order
    assert shard_map([one, multi], lambda t: t.num_rows, columns=["x"]) == [100, 250, 250, 250, 250]
    firsts = shard_map([multi], lambda t: t["x"][0].as_py(), columns=["x"])
    assert firsts == [0, 250, 500, 750]


def test_filter_pushed_into_read(ray_session, tmp_path):
    from mpds_ray.stages.exchange import shard_map

    path = _write(tmp_path / "t.parquet", 1_000, 250)
    whole = _write(tmp_path / "whole.parquet", 1_000, 1_000)

    # the filter column is not among the read columns: only the scan can
    # have applied it, so fn sees filtered rows of the pruned columns — in
    # a whole-shard task and in row-group tasks alike
    seen = shard_map(
        [whole, path], lambda t: (t.column_names, t["x"].to_pylist()),
        columns=["x"], filters=pads.field("y") == 3,
    )
    assert len(seen) == 5 and all(cols == ["x"] for cols, _ in seen)
    want = [x for x in range(1_000) if x % 7 == 3]
    assert seen[0][1] == want and sum((xs for _, xs in seen[1:]), []) == want
    # a range filter on the sorted column leaves three row groups empty
    counts = shard_map([path], lambda t: t.num_rows, columns=["x"], filters=pads.field("x") < 200)
    assert counts == [200, 0, 0, 0]


def test_collect_concatenates_in_task_order(ray_session, tmp_path):
    from mpds_ray.stages.exchange import shard_map

    path = _write(tmp_path / "t.parquet", 1_000, 250)
    arrow = shard_map([path], lambda t: t, columns=["x"], collect="arrow_rows")
    assert isinstance(arrow, pa.Table) and arrow["x"].to_pylist() == list(range(1_000))
    frame = shard_map([path], lambda t: t.to_pandas(), columns=["x"], collect="pandas_rows")
    assert isinstance(frame, pd.DataFrame) and frame["x"].tolist() == list(range(1_000))
    # every task empty: the empty frame keeps its columns
    empty = shard_map([path], lambda t: t, columns=["x"], filters=pads.field("x") < 0,
                      collect="no_rows")
    assert empty.num_rows == 0 and empty.column_names == ["x"]


def test_fold_combines_every_partial(ray_session, tmp_path):
    from mpds_ray.stages.exchange import shard_map

    one = _write(tmp_path / "one.parquet", 100, 1_000)
    multi = _write(tmp_path / "multi.parquet", 1_000, 250)
    counts = shard_map(
        [one, multi], lambda t: np.bincount(t["y"].to_numpy(), minlength=7),
        columns=["y"], fold=np.add,
    )
    want = np.bincount(np.r_[np.arange(100), np.arange(1_000)] % 7, minlength=7)
    np.testing.assert_array_equal(counts, want)
    assert shard_map([], lambda t: t.num_rows, fold=np.add) is None


def test_over_cap_collect_raises_and_names_the_query(ray_session, sf_dir, monkeypatch):
    from mpds_ray.pipelines.text import token_counts
    from mpds_ray.stages import exchange

    assert len(token_counts(sf_dir)) > 10
    monkeypatch.setattr(exchange, "DRIVER_ROOT_ROW_CAP", 10)
    with pytest.raises(RuntimeError, match="driver root 'token_counts' collected"):
        token_counts(sf_dir)
