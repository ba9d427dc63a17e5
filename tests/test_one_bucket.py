"""Bucket counts derived from input bytes: at sf0.001 every exchange below
derives ONE bucket (the ``num_buckets == 1`` paths of ``exchange_map``
over shards and over a hop's output refs, ``reduce_grid`` and
``labelprop._propose``), and its output must equal the same query's
output at 16 buckets, forced through the exchange constants
(``conftest.force_buckets``). At 16 buckets the LEFT joins
(``customers_without_orders``, ``rich_customers_without_orders``,
``customer_order_distribution``) see customer buckets with no orders."""

from __future__ import annotations

import pandas as pd
import pytest
from conftest import force_buckets

from mpds_ray.pipelines import eventspipe, relational, traindata
from mpds_ray.pipelines.common import shard_list
from mpds_ray.stages.exchange import auto_num_buckets

TPCH = ("orders", "customer", "lineitem", "supplier")

# name -> (query, tables whose bytes size the exchange)
CASES = {
    "q3_top_orders": (relational.q3_top_orders, ("orders", "lineitem")),
    "customers_without_orders": (relational.customers_without_orders, ("customer", "orders")),
    "rich_customers_without_orders": (
        relational.rich_customers_without_orders, ("customer", "orders"),
    ),
    "customer_order_distribution": (
        relational.customer_order_distribution, ("customer", "orders"),
    ),
    "pack_sequences": (traindata.pack_sequences, ("documents",)),
    "q5_region_nation_revenue": (relational.q5_region_nation_revenue, TPCH),
    "nation_pair_trade": (relational.nation_pair_trade, TPCH),
    "returned_item_revenue": (relational.returned_item_revenue, ("lineitem", "orders")),
    "sessionize_user_events": (eventspipe.sessionize_user_events, ("events",)),
    "top_users_per_event_type": (eventspipe.top_users_per_event_type, ("events",)),
    "dedup_passages": (traindata.dedup_passages, ("documents",)),
    "curate_corpus": (traindata.curate_corpus, ("documents",)),
}


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


def at_16_buckets(run, sf_dir, tasks, monkeypatch) -> pd.DataFrame:
    """``run(sf_dir)`` with every derived bucket count forced to 16; its
    reduce tasks show that the count reached the exchange."""
    before = tasks["_reduce_bucket"]
    force_buckets(monkeypatch, 16)
    out = canonical(run(sf_dir))
    assert tasks["_reduce_bucket"] - before >= 16
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_derived_one_bucket_matches_sixteen(ray_session, sf_dir, tasks, monkeypatch, name):
    run, tables = CASES[name]
    assert auto_num_buckets([p for t in tables for p in shard_list(sf_dir, t)]) == 1
    derived = canonical(run(sf_dir))
    assert len(derived)
    pd.testing.assert_frame_equal(derived, at_16_buckets(run, sf_dir, tasks, monkeypatch))


def test_dup_clusters_labelprop_one_bucket_matches_sixteen(ray_session, sf_dir, tasks,
                                                           monkeypatch):
    """``CC_DRIVER_PAIR_CAP = 0`` forces label propagation (the driver
    union-find takes pairs this few); its bucket count derives from the
    pairs frame's bytes."""
    from mpds_ray.stages import labelprop

    seen = []
    orig = labelprop.connected_components_labelprop

    def spy(pairs):
        seen.append(pairs)
        return orig(pairs)

    monkeypatch.setattr(traindata, "CC_DRIVER_PAIR_CAP", 0)
    monkeypatch.setattr(labelprop, "connected_components_labelprop", spy)
    derived = canonical(traindata.dup_clusters(sf_dir))
    (pairs,) = seen
    assert auto_num_buckets(int(pairs.memory_usage(deep=True).sum())) == 1
    assert len(derived)

    before = tasks["_propose"]
    force_buckets(monkeypatch, 16)
    at_16 = canonical(traindata.dup_clusters(sf_dir))
    assert len(seen) == 2 and tasks["_propose"] - before >= 16
    pd.testing.assert_frame_equal(derived, at_16)


@pytest.fixture(scope="module")
def orderless_dir(sf_dir, tmp_path_factory):
    """sf0.001's customer table plus its orders minus those of every
    customer hashed to buckets 0-3 of 16: at 16 buckets those four customer
    buckets have no orders at all (in sf0.001 every customer has one)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from mpds_ray.stages.partition import stable_bucket

    out = tmp_path_factory.mktemp("orderless")
    pq.write_table(pq.read_table(f"{sf_dir}/customer.parquet"), out / "customer.parquet")
    orders = pq.read_table(f"{sf_dir}/orders.parquet")
    bucket = stable_bucket(orders["o_custkey"].to_numpy(), 16)
    pq.write_table(orders.filter(pc.greater_equal(bucket, 4)), out / "orders.parquet")
    return str(out)


@pytest.mark.parametrize(
    "name",
    ["customers_without_orders", "rich_customers_without_orders", "customer_order_distribution"],
)
def test_left_join_orderless_buckets_match_oracle(ray_session, orderless_dir, tasks,
                                                  monkeypatch, name):
    """The LEFT rule of ``exchange_join(how='left')``: a customer bucket with
    no orders still reaches ``reduce_fn`` (with ``None``), at 16 buckets as at
    one, and the result equals the DuckDB oracle on the same files."""
    import duckdb

    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{orderless_dir}/{t}.parquet'")
    want = canonical(con.execute(relational.ORACLE[name]).df())
    run, _tables = CASES[name]
    derived = canonical(run(orderless_dir))
    at_16 = at_16_buckets(run, orderless_dir, tasks, monkeypatch)
    pd.testing.assert_frame_equal(derived, at_16)
    pd.testing.assert_frame_equal(at_16, want, check_dtype=False)
