"""Bucket counts derived from input bytes: at sf0.001 every exchange below
derives ONE bucket (the ``num_buckets == 1`` paths of ``exchange_map``,
``rebucket_refs``, ``exchange_join_refs`` and ``labelprop._propose``), and
its output must equal the same query's output at 16 buckets."""

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
