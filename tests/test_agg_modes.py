"""shard_groupby_sum (per-task partials folded at a bounded driver root)
must equal a pandas groupby of the same rows, over a sharded table whose
shards hold several row groups (one task per row group)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_driver_fold_matches_pandas(ray_session, tmp_path):
    from mpds_ray.pipelines.common import shard_groupby_sum

    rng = np.random.default_rng(0)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c", "d"], 20_000),
            "k2": rng.integers(0, 3, 20_000),
            "v": rng.normal(10, 2, 20_000),
            "w": rng.uniform(size=20_000),
        }
    )
    # three shards of three row groups each: nine fold tasks
    table_dir = tmp_path / "t.parquet"
    table_dir.mkdir()
    for i, rows in enumerate(np.array_split(np.arange(len(df)), 3)):
        pq.write_table(
            pa.Table.from_pandas(df.iloc[rows], preserve_index=False),
            table_dir / f"part-{i}.parquet", row_group_size=2_500,
        )
    assert all(pq.read_metadata(p).num_row_groups > 1 for p in table_dir.iterdir())

    def canon(out):
        return out[sorted(out.columns)].sort_values(["k", "k2"]).reset_index(drop=True)

    a = canon(
        shard_groupby_sum(str(tmp_path), "t", ["k", "k2"], {"v": "sum_v", "w": "sum_w"},
                          count_as="n")
    )
    assert a["n"].sum() == len(df)
    # pandas ground truth
    want = canon(df.groupby(["k", "k2"], as_index=False).agg(
        sum_v=("v", "sum"), sum_w=("w", "sum"), n=("v", "size")
    ))
    np.testing.assert_allclose(a["sum_v"], want["sum_v"], rtol=1e-12)
    np.testing.assert_allclose(a["sum_w"], want["sum_w"], rtol=1e-12)
    assert (a["n"].to_numpy() == want["n"].to_numpy()).all()
