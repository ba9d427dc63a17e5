"""Bucket counts derived from input bytes: at sf0.001 every exchange below
derives ONE bucket (the ``num_buckets == 1`` paths of ``exchange_map``
over shards and over a hop's output refs, ``reduce_grid`` and
``labelprop._propose``), and its output must equal the same query's
output at 16 buckets. At 16 buckets the LEFT joins
(``customers_without_orders``, ``rich_customers_without_orders``,
``customer_order_distribution``) see customer buckets with no orders."""

from __future__ import annotations

import functools

import pandas as pd
import pytest

from mpds_ray.pipelines import eventspipe, relational, traindata
from mpds_ray.pipelines.common import shard_list
from mpds_ray.stages.exchange import auto_num_buckets

TPCH = ("orders", "customer", "lineitem", "supplier")

# name -> (run(sf_dir, num_buckets), tables whose bytes size the exchange)
CASES = {
    "q3_top_orders": (
        lambda sf, nb: relational.q3_top_orders(sf, num_buckets=nb), ("orders", "lineitem"),
    ),
    "customers_without_orders": (
        lambda sf, nb: relational.customers_without_orders(sf, num_buckets=nb),
        ("customer", "orders"),
    ),
    "rich_customers_without_orders": (
        lambda sf, nb: relational.rich_customers_without_orders(sf, num_buckets=nb),
        ("customer", "orders"),
    ),
    "customer_order_distribution": (
        lambda sf, nb: relational.customer_order_distribution(sf, num_buckets=nb),
        ("customer", "orders"),
    ),
    "pack_sequences": (
        lambda sf, nb: traindata.pack_sequences(sf, num_buckets=nb), ("documents",),
    ),
    "q5_region_nation_revenue": (
        lambda sf, nb: relational.q5_region_nation_revenue(sf, num_buckets=nb), TPCH,
    ),
    "nation_pair_trade": (
        lambda sf, nb: relational.nation_pair_trade(sf, num_buckets=nb), TPCH,
    ),
    "returned_item_revenue": (
        lambda sf, nb: relational.returned_item_revenue(sf, num_buckets=nb),
        ("lineitem", "orders"),
    ),
    "sessionize_user_events": (
        lambda sf, nb: eventspipe.sessionize_user_events(sf, num_buckets=nb), ("events",),
    ),
    "top_users_per_event_type": (
        lambda sf, nb: eventspipe.top_users_per_event_type(sf, num_buckets=nb), ("events",),
    ),
    "dedup_passages": (
        lambda sf, nb: traindata.dedup_passages(sf, num_buckets=nb), ("documents",),
    ),
    "curate_corpus": (
        lambda sf, nb: traindata.curate_corpus(sf, num_buckets=nb), ("documents",),
    ),
}


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_derived_one_bucket_matches_sixteen(ray_session, sf_dir, name):
    run, tables = CASES[name]
    assert auto_num_buckets([p for t in tables for p in shard_list(sf_dir, t)]) == 1
    derived = canonical(run(sf_dir, None))
    assert len(derived)
    pd.testing.assert_frame_equal(derived, canonical(run(sf_dir, 16)))


def test_dup_clusters_labelprop_one_bucket_matches_sixteen(ray_session, sf_dir, monkeypatch):
    """``cc='labelprop'`` forces label propagation (the default ``cc='auto'``
    takes the driver union-find at this size); its bucket count derives from
    the pairs frame's bytes."""
    from mpds_ray.stages import labelprop

    seen = []
    orig = labelprop.connected_components_labelprop

    def spy(pairs, **kw):
        seen.append(pairs)
        return orig(pairs, **kw)

    monkeypatch.setattr(labelprop, "connected_components_labelprop", spy)
    derived = canonical(traindata.dup_clusters(sf_dir, cc="labelprop"))
    (pairs,) = seen
    assert auto_num_buckets(int(pairs.memory_usage(deep=True).sum())) == 1
    assert len(derived)

    monkeypatch.setattr(
        labelprop, "connected_components_labelprop", functools.partial(orig, num_buckets=16)
    )
    at_16 = canonical(traindata.dup_clusters(sf_dir, cc="labelprop"))
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
def test_left_join_orderless_buckets_match_oracle(ray_session, orderless_dir, name):
    """The LEFT rule of ``exchange_join(how='left')``: a customer bucket with
    no orders still reaches ``reduce_fn`` (with ``None``), at 16 buckets as at
    one, and the result equals the DuckDB oracle on the same files."""
    import duckdb

    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{orderless_dir}/{t}.parquet'")
    want = canonical(con.execute(relational.ORACLE[name]).df())
    run, _tables = CASES[name]
    at_16 = canonical(run(orderless_dir, 16))
    pd.testing.assert_frame_equal(canonical(run(orderless_dir, None)), at_16)
    pd.testing.assert_frame_equal(at_16, want, check_dtype=False)
