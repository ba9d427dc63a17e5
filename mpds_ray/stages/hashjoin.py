"""General two-sided distributed hash equi-join over the explicit exchange.

Both inputs exchange on the SAME key with the SAME bucket function
(``exchange_map``), and ``exchange.reduce_grid`` joins each co-partitioned
bucket pair. Map fns can pre-aggregate (combiner) so only partials shuffle;
filters push into the parquet scans so filtered rows never leave storage.

    left  shards --map/filter--> bucket by hash(key) --\
                                                        +--> per-bucket join
    right shards --map/filter--> bucket by hash(key) --/

Returns the concatenated per-bucket reduce outputs (callers make the reduce
output SMALL — aggregated partials or top-k — or write it out per bucket;
the concat is a driver root and is bound-checked). A chained join keeps its
hops in the object store instead: ``exchange_map`` over a hop's output refs
re-keys them and ``reduce_grid(..., emit='refs')`` joins the next hop."""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .exchange import auto_num_buckets, exchange_map, key_bucket, reduce_grid, shard_map

# --- bloom-filter join prefilter -------------------------------------------
#
# When one join side is selective (a pushed-down predicate keeps only a small
# key set), the OTHER side's map tasks can drop non-matching rows BEFORE the
# exchange: build a bloom filter over the selective side's keys (one extra
# pruned-column scan of the SMALL side), broadcast the packed bits once via
# ray.put, and probe inside every big-side map task. False positives only
# re-admit rows the per-bucket exact join discards anyway, so results are
# byte-identical with the filter on or off (tests/test_bloom_join.py); what
# changes is shuffle volume — at 100 TB the big fact side ships only rows
# whose key MIGHT match instead of the whole table.
#
# Every engine filter has the same size: BLOOM_BITS bits (1 MiB packed, so
# each partial that crosses the driver is 1 MiB whatever its row count) and
# BLOOM_HASHES probes per key.

BLOOM_BITS = 1 << 23
BLOOM_HASHES = 4


def _bloom_positions(values: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """(num_hashes, n) bit positions via double hashing off the same stable
    uint64 hash the bucket exchange uses (process-stable, any key dtype)."""
    h1 = pd.util.hash_pandas_object(
        pd.Series(np.asarray(values)), index=False
    ).to_numpy()
    h2 = h1 * np.uint64(0x9E3779B97F4A7C15)
    h2 = (h2 >> np.uint64(29)) ^ h2 | np.uint64(1)  # odd so strides differ
    ks = np.arange(num_hashes, dtype=np.uint64)[:, None]
    return ((h1[None, :] + ks * h2[None, :]) % np.uint64(num_bits)).astype(np.int64)


def bloom_insert(values: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """Packed (uint8) bloom bits with every value's positions set."""
    flat = np.zeros(num_bits, dtype=bool)
    if len(values):
        flat[_bloom_positions(values, num_bits, num_hashes).ravel()] = True
    return np.packbits(flat)


def bloom_probe(
    values: np.ndarray, bits: np.ndarray, num_bits: int, num_hashes: int
) -> np.ndarray:
    """Boolean mask: True where the value MIGHT be in the inserted set
    (never False for an inserted value)."""
    if not len(values):
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(values, num_bits, num_hashes)
    hit = (bits[pos >> 3] >> (np.uint8(7) - (pos & 7).astype(np.uint8))) & 1
    return hit.all(axis=0)


def build_key_bloom(
    sources: list,
    key: str,
    map_fn: Callable[[pa.Table], pa.Table] | None = None,
    columns: list[str] | None = None,
    filters=None,
) -> np.ndarray:
    """Distributed bloom build: one ``shard_map`` task per source inserts
    its post-map keys, and the driver ORs the packed arrays as they arrive.
    A shard source reads only ``key`` (plus whatever ``map_fn`` needs). An
    upstream hop's output refs as sources let a later hop prefilter its BIG
    storage side by the keys that survived the earlier joins; an empty
    upstream output inserts nothing. One filter per task crosses the
    driver, whatever the row count."""

    def shard_bits(t: pa.Table) -> np.ndarray:
        if map_fn is not None:
            t = map_fn(t)
        return bloom_insert(t[key].to_numpy(zero_copy_only=False), BLOOM_BITS, BLOOM_HASHES)

    bits = shard_map(
        sources, shard_bits, columns=columns or [key], filters=filters, fold=np.bitwise_or
    )
    return np.zeros(BLOOM_BITS // 8, dtype=np.uint8) if bits is None else bits


def exchange_join(
    left_shards: list[str],
    right_shards: list[str],
    key: str,
    reduce_fn: Callable[[int, pa.Table, pa.Table], pd.DataFrame],
    num_buckets: int | None,
    left_map: Callable[[pa.Table], pa.Table] | None = None,
    right_map: Callable[[pa.Table], pa.Table] | None = None,
    columns_left: list[str] | None = None,
    columns_right: list[str] | None = None,
    filters_left=None,
    filters_right=None,
    bloom_from: str | None = None,
    how: str = "inner",
) -> pd.DataFrame:
    """Co-partition both sides on ``hash(key) % num_buckets`` and run
    ``reduce_fn(bucket, left_tbl, right_tbl)`` per bucket. ``left_map`` /
    ``right_map`` default to identity — pass combiners to pre-aggregate
    map-side so the exchange moves partials, not rows. ``num_buckets=None``
    takes ``auto_num_buckets`` of both sides' shards.

    ``bloom_from='right'`` (or ``'left'``) builds a bloom filter over that
    side's post-map keys and prefilters the OTHER side's rows map-side,
    before its combiner and the shuffle — use when one side is selective.
    Results are identical with or without (exact join per bucket).

    ``how='left'`` preserves LEFT rows in buckets where the right side is
    empty: ``reduce_fn`` is then called as ``reduce_fn(b, left_tbl,
    right_tbl_or_None)`` and must treat ``None`` as zero matches (the inner
    path SKIPS one-sided buckets — wrong for LEFT/anti semantics; see
    ``reduce_grid``). ``bloom_from='right'`` is rejected for
    'left' — it prefilters the preserved side, dropping its unmatched rows;
    ``bloom_from='left'`` (filtering the nullable side) remains valid."""
    if num_buckets is None:
        num_buckets = auto_num_buckets(left_shards + right_shards)
    bucket_fn = partial(key_bucket, key=key, num_buckets=num_buckets)

    if how == "left" and bloom_from == "right":
        raise ValueError(
            "bloom_from='right' with how='left' would prefilter the "
            "preserved side and drop its unmatched rows"
        )
    ident = lambda t: t  # noqa: E731
    left_map = left_map or ident
    right_map = right_map or ident

    if bloom_from is not None:
        src = dict(
            left=(left_shards, left_map, columns_left, filters_left),
            right=(right_shards, right_map, columns_right, filters_right),
        )[bloom_from]
        bits_ref = ray.put(
            build_key_bloom(
                src[0], key, map_fn=src[1], columns=src[2], filters=src[3]
            )
        )

        def bloomed(inner: Callable[[pa.Table], pa.Table]):
            def fn(t: pa.Table) -> pa.Table:
                t = inner(t)
                bits = ray.get(bits_ref)  # zero-copy plasma view
                keep = bloom_probe(
                    t[key].to_numpy(zero_copy_only=False),
                    bits, BLOOM_BITS, BLOOM_HASHES,
                )
                return t.filter(pa.array(keep))

            return fn

        if bloom_from == "right":
            left_map = bloomed(left_map)
        else:
            right_map = bloomed(right_map)

    l_refs = exchange_map(
        left_shards, left_map, bucket_fn, num_buckets,
        columns=columns_left, filters=filters_left,
    )
    r_refs = exchange_map(
        right_shards, right_map, bucket_fn, num_buckets,
        columns=columns_right, filters=filters_right,
    )

    return reduce_grid(reduce_fn, num_buckets, l_refs, r_refs, how=how)


# --- chained (multi-way) exchange joins -------------------------------------
#
# A star/chain query (fact ⨝ dim1 ⨝ dim2 ⨝ ...) changes join key between
# hops, so each hop's output must be RE-EXCHANGED on the next key. The
# intermediates stay in the object store as per-bucket Arrow tables — the
# driver only ever holds ObjectRefs, never rows — so a three-hop join over a
# 10^12-row fact table moves each surviving row through plasma twice and
# through the driver zero times. A hop's output refs are exchange sources
# like shards (one map task per upstream output; a None or 0-row output
# gives empty slices), so every hop runs on the same map and reduce tasks:
#
#   by_k = lambda k, B: partial(key_bucket, key=k, num_buckets=B)
#   grid_l = exchange_map(paths, map_fn, by_k(key1, B1), B1)   # from storage
#   refs1  = reduce_grid(reduce1, B1, grid_l, grid_r, emit="refs")
#   bits   = build_key_bloom(refs1, key2)          # hop-1 survivors' keys
#   grid2  = exchange_map(refs1, None, by_k(key2, B2), B2)     # re-key hop
#   refs2  = reduce_grid(reduce2, B2, grid2, grid_fact2, emit="refs")
#   final  = reduce_grid(reduce3, B3, ...)                     # small root
#
# reduce_fn for emit="refs" must return a pyarrow Table (pre-aggregate /
# project so hops shrink); for emit="pandas" a small pandas DataFrame.
