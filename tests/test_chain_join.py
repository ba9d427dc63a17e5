"""Chained (multi-way) exchange joins: exchange_map over a hop's output
refs + reduce_grid.

- a two-hop chain (fact ⨝ dimA on k1, result ⨝ dimB on k2) matches a single
  driver-side pandas merge exactly, across bucket counts (including hops
  whose bucket counts differ)
- empty buckets / upstream None outputs flow through without error
- build_key_bloom over hop-1 output refs admits every surviving key
- the q5 pipeline runs end-to-end on sf0.001 and matches DuckDB
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mpds_ray.stages.exchange import exchange_map, key_bucket, reduce_grid
from mpds_ray.stages.hashjoin import BLOOM_BITS, BLOOM_HASHES, bloom_probe, build_key_bloom


@pytest.fixture()
def chain_dirs(tmp_path):
    rng = np.random.default_rng(11)
    fact_dir = tmp_path / "fact"
    fact_dir.mkdir()
    n = 4000
    for s in range(3):
        pq.write_table(
            pa.table(
                {
                    "k1": rng.integers(0, 200, n),
                    "k2": rng.integers(0, 50, n),
                    "v": rng.integers(0, 1000, n).astype(np.int64),
                }
            ),
            fact_dir / f"part-{s}.parquet",
        )
    dim_a = pd.DataFrame({"k1": np.arange(0, 200, 2), "a": np.arange(100) % 5})
    dim_b = pd.DataFrame({"k2": np.arange(0, 50, 3), "b": np.arange(17) % 3})
    a_dir, b_dir = tmp_path / "dima", tmp_path / "dimb"
    a_dir.mkdir(), b_dir.mkdir()
    pq.write_table(pa.Table.from_pandas(dim_a), a_dir / "part-0.parquet")
    pq.write_table(pa.Table.from_pandas(dim_b), b_dir / "part-0.parquet")
    return (
        sorted(str(p) for p in fact_dir.iterdir()),
        [str(a_dir / "part-0.parquet")],
        [str(b_dir / "part-0.parquet")],
        (pd.concat([pq.read_table(p).to_pandas() for p in sorted(fact_dir.iterdir())]),
         dim_a, dim_b),
    )


def _expected(fact, dim_a, dim_b):
    j = fact.merge(dim_a, on="k1").merge(dim_b, on="k2")
    out = j.groupby(["a", "b"], as_index=False)["v"].sum()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _chain(fact_paths, a_paths, b_paths, b1, b2):
    # factory-scoped fns so cloudpickle ships them by value
    def bucket_k1(t):
        return key_bucket(t, "k1", b1)

    def bucket_k2(t):
        return key_bucket(t, "k2", b2)

    ident = lambda t: t  # noqa: E731
    f_grid = exchange_map(fact_paths, ident, bucket_k1, b1)
    a_grid = exchange_map(a_paths, ident, bucket_k1, b1)

    def join1(b, f, a):
        j = f.to_pandas().merge(a.to_pandas(), on="k1")
        return pa.Table.from_pandas(j[["k2", "a", "v"]], preserve_index=False)

    hop1 = reduce_grid(join1, b1, f_grid, a_grid, emit="refs")
    h1_grid = exchange_map(hop1, None, bucket_k2, b2)
    b_grid = exchange_map(b_paths, ident, bucket_k2, b2)

    def join2(b, h1, dimb):
        j = h1.to_pandas().merge(dimb.to_pandas(), on="k2")
        return j.groupby(["a", "b"], as_index=False)["v"].sum()

    parts = reduce_grid(join2, b2, h1_grid, b_grid)
    if not len(parts):  # columns unknowable from an all-empty chain
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ("a", "b", "v")})
    out = parts.groupby(["a", "b"], as_index=False)["v"].sum()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


@pytest.mark.parametrize("b1,b2", [(1, 1), (4, 4), (8, 3), (3, 8)])
def test_chain_join_matches_pandas(ray_session, chain_dirs, b1, b2):
    fact_paths, a_paths, b_paths, (fact, dim_a, dim_b) = chain_dirs
    got = _chain(fact_paths, a_paths, b_paths, b1, b2)
    pd.testing.assert_frame_equal(got, _expected(fact, dim_a, dim_b))


def test_bloom_refs_admits_all_hop_keys(ray_session, chain_dirs):
    import ray

    fact_paths, a_paths, _, (fact, dim_a, _) = chain_dirs

    def bucket_k1(t):
        return key_bucket(t, "k1", 4)

    ident = lambda t: t  # noqa: E731
    f_grid = exchange_map(fact_paths, ident, bucket_k1, 4)
    a_grid = exchange_map(a_paths, ident, bucket_k1, 4)

    def join1(b, f, a):
        j = f.to_pandas().merge(a.to_pandas(), on="k1")
        return pa.Table.from_pandas(j[["k2", "v"]], preserve_index=False)

    hop1 = reduce_grid(join1, 4, f_grid, a_grid, emit="refs")
    bits = build_key_bloom(hop1, "k2")
    surviving = fact.merge(dim_a, on="k1")["k2"].unique()
    assert bloom_probe(surviving, bits, BLOOM_BITS, BLOOM_HASHES).all()
    ray.get(hop1)  # refs remain fetchable after the bloom pass


def test_chain_join_empty_hop(ray_session, chain_dirs, tmp_path):
    # dimA filtered to an impossible key set -> hop1 empty everywhere;
    # the chain must return an empty frame, not crash
    fact_paths, _, b_paths, _ = chain_dirs
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    pq.write_table(
        pa.table({"k1": pa.array([], pa.int64()), "a": pa.array([], pa.int64())}),
        empty_dir / "part-0.parquet",
    )
    got = _chain(fact_paths, [str(empty_dir / "part-0.parquet")], b_paths, 4, 4)
    assert len(got) == 0


def test_q5_matches_duckdb(ray_session):
    import duckdb

    from mpds_ray.pipelines.relational import Q5_SQL, q5_region_nation_revenue

    sf = "/root/testdata/sf0.001"
    got = q5_region_nation_revenue(sf, num_buckets=4)
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem", "supplier", "nation", "region"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    exp = con.execute(Q5_SQL).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


@pytest.mark.parametrize("num_buckets", [1, 4])
def test_q7_nation_pair_matches_duckdb(ray_session, num_buckets):
    import duckdb

    from mpds_ray.pipelines.relational import Q7_SQL, nation_pair_trade

    sf = "/root/testdata/sf0.001"
    got = nation_pair_trade(sf, num_buckets=num_buckets)
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem", "supplier", "nation"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    exp = con.execute(Q7_SQL).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


def test_empty_upstream_outputs_give_no_rows(ray_session):
    """A None or 0-row upstream output is a source with no rows: the map
    task returns empty slices, ``shard_map`` gives no partial, and neither
    calls its function."""
    import ray

    from mpds_ray.stages.exchange import shard_map

    def boom(t):
        raise AssertionError("called on an upstream output with no rows")

    sources = [ray.put(None), pa.table({"k2": pa.array([], pa.int64())})]
    grid = exchange_map(sources, boom, lambda t: key_bucket(t, "k2", 3), 3)
    assert [[ray.get(r).num_rows for r in row] for row in grid] == [[0, 0, 0]] * 2
    assert shard_map(sources, boom) == [None, None]
    assert shard_map(sources, boom, fold=np.bitwise_or) is None
    assert not build_key_bloom(sources, "k2").any()
