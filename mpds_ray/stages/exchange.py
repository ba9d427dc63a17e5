"""Explicit two-stage hash exchange (map-split -> reduce-merge).

``Dataset.groupby`` implements its shuffle as a sort: sample boundaries on
the driver, sort-map every block, sort-reduce — two driver round trips and a
global barrier that cost a fixed ~3-4 s regardless of cluster size (measured
on the flagship). For the flagship's bucket exchange the key is ALREADY an
integer in [0, P), so the engine provides the classic MR-style alternative,
built from raw Ray tasks exactly as SURVEY §2 licenses for operators the
Dataset API cannot express efficiently:

    map task (one per input shard, fully parallel):
        read shard -> map_fn -> bucket = stable_hash(entity) % P
        -> ONE stable argsort by bucket -> P zero-copy table slices
        (``num_returns=P``: each slice is its own object, fetched only by
        its reduce task — the all-to-all moves through the object store
        with no driver barrier)
    reduce task (one per bucket, fully parallel):
        concat its P_in slices -> reduce_fn(bucket_table)

Ordering inside a bucket is irrelevant by construction: every reduce_fn in
this engine re-sorts by (entity, ts) — the partition invariant is established
per bucket, never assumed from the exchange.

Skew note: bucket granularity bounds reduce-task size; heavy ENTITIES cannot
be split (scans need whole entities) but heavy SOURCES can be salted on the
map side with a per-key stitch in reduce (SURVEY §4.2).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .partition import stable_bucket


def accepts_n_positional(fn, n: int) -> bool:
    """True when ``fn`` can be CALLED with ``n`` positional args: counts only
    POSITIONAL_ONLY/POSITIONAL_OR_KEYWORD parameters and treats *args as
    accepting any arity; keyword-only/**kwargs never count (ADVICE r3 — a
    ``def f(b, tbl, *, opt=None)`` used to be mis-sniffed as lineage-aware
    and called with 3 positionals). Unintrospectable callables (C extensions
    raise ValueError from ``inspect.signature``) fall back to False — the
    minimal-arity call."""
    import inspect

    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return False
    n_pos = 0
    for p in params:
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            n_pos += 1
        elif p.kind == p.VAR_POSITIONAL:
            return True
    return n_pos >= n


def _split_by_bucket(
    table: pa.Table,
    bucket: np.ndarray,
    num_buckets: int,
    sort_keys: list[str] | None = None,
) -> list[pa.Table]:
    """One stable argsort + P zero-copy slices of the bucket-sorted table.
    With ``sort_keys`` the single sort is a stable lexsort by (bucket, *keys)
    so every slice is additionally a sorted RUN (the chunked-reduce merge
    input); ties keep original within-shard order either way."""
    if sort_keys:
        keys = [table[c].to_numpy(zero_copy_only=False) for c in sort_keys]
        order = np.lexsort((*reversed(keys), bucket))
    else:
        order = np.argsort(bucket, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    counts = np.bincount(bucket, minlength=num_buckets)
    offsets = np.r_[0, np.cumsum(counts)]
    return [
        sorted_tbl.slice(int(offsets[b]), int(counts[b])) for b in range(num_buckets)
    ]


def auto_num_buckets(
    inputs: list[str] | int,
    target_task_bytes: int = 512 << 20,
    max_buckets: int = 4096,
    expansion: float = 4.0,
) -> int:
    """The one bucket-count rule of every exchange whose count is not given:
    ``clamp(ceil(bytes * expansion / target_task_bytes), 1, max_buckets)``.

    ``inputs`` is a list of file paths (their on-disk sizes are summed) or a
    byte count. ``expansion`` covers parquet decompression plus pandas
    overhead, so each reduce task holds about ``target_task_bytes`` in
    memory, and the fan-out grows with the data instead of a constant: a
    tiny input runs as one reduce task. Past ``max_buckets`` (where per-map
    object counts explode) the chunked reduce protocol (``chunk_rows``)
    bounds task memory instead."""
    total = inputs if isinstance(inputs, int) else sum(os.path.getsize(p) for p in inputs)
    return int(min(max_buckets, max(1, math.ceil(total * expansion / target_task_bytes))))


def exchange_map(
    shard_paths: list[str],
    map_fn: Callable[[pa.Table], pa.Table],
    bucket_fn: Callable[[pa.Table], np.ndarray],
    num_buckets: int,
    map_num_cpus: float = 1.0,
    columns: list[str] | None = None,
    filters=None,
    sort_keys: list[str] | None = None,
    chunk_rows: int | None = None,
) -> list[list["ray.ObjectRef"]]:
    """Map phase only: one task per shard, ``bucket_fn`` assigns each row a
    bucket in [0, num_buckets); returns ``refs[s][b]`` = the slice of shard s
    destined for bucket b (each its own object — fetched only by its
    consumer). Callers drive the reduce side (the flagship's salted path
    needs a carry/fix protocol rather than a flat reduce).

    ``columns`` prunes the shard read; ``filters`` (a pyarrow dataset
    expression) pushes a row predicate into the scan — row-group pruning at
    the read, so filtered rows never leave storage.

    ``sort_keys`` + ``chunk_rows`` enable the BOUNDED-MEMORY reduce protocol
    (stages/chunked.py): each bucket slice is sorted by the keys and cut into
    <= chunk_rows sub-objects (``ray.put`` each), so ``refs[s][b]`` becomes a
    LIST of sub-chunk refs a reduce task can fetch and release one at a time
    instead of pinning the whole run."""

    map_takes_path = accepts_n_positional(map_fn, 2)

    @ray.remote(num_cpus=map_num_cpus, num_returns=num_buckets)
    def map_shard(path: str):
        import pyarrow.parquet as pq

        raw = pq.read_table(path, columns=columns, filters=filters)
        t = map_fn(raw, path) if map_takes_path else map_fn(raw)
        bucket = bucket_fn(t)
        parts = _split_by_bucket(t, bucket, num_buckets, sort_keys=sort_keys)
        if chunk_rows is not None:
            from .chunked import split_chunks

            parts = [[ray.put(c) for c in split_chunks(p, chunk_rows)] for p in parts]
        return tuple(parts) if num_buckets > 1 else parts[0]

    refs = [map_shard.remote(p) for p in shard_paths]
    if num_buckets == 1:
        refs = [[r] for r in refs]
    return refs


def hash_exchange(
    shard_paths: list[str],
    map_fn: Callable[[pa.Table], pa.Table],
    entity_col: str,
    num_buckets: int | None,
    reduce_fn: Callable[[int, pa.Table], pd.DataFrame],
    map_num_cpus: float = 1.0,
    reduce_num_cpus: float = 1.0,
    columns: list[str] | None = None,
) -> pd.DataFrame:
    """Run the exchange; returns the concatenated reduce outputs (small).
    ``columns`` prunes the shard read (only those columns leave storage).
    ``num_buckets=None`` takes ``auto_num_buckets(shard_paths)``.

    Lineage: a ``reduce_fn`` accepting a third parameter receives the list of
    input-fragment basenames whose map slices actually contributed rows to its
    bucket — the per-partition lineage a resumable sink records in its
    manifest (SURVEY §4.2)."""
    if num_buckets is None:
        num_buckets = auto_num_buckets(shard_paths)
    reduce_takes_frags = accepts_n_positional(reduce_fn, 3)
    frag_names = [os.path.basename(p) for p in shard_paths]

    def bucket_fn(t: pa.Table) -> np.ndarray:
        return stable_bucket(t[entity_col].to_numpy(zero_copy_only=False), num_buckets)

    refs = exchange_map(shard_paths, map_fn, bucket_fn, num_buckets, map_num_cpus, columns)

    @ray.remote(num_cpus=reduce_num_cpus)
    def reduce_bucket(b: int, *parts: pa.Table):
        contrib = [s for s, p in enumerate(parts) if p.num_rows]
        if not contrib:
            return pd.DataFrame()
        tbl = pa.concat_tables([parts[s] for s in contrib])
        if reduce_takes_frags:
            return reduce_fn(b, tbl, [frag_names[s] for s in contrib])
        return reduce_fn(b, tbl)

    out = [
        reduce_bucket.remote(b, *[refs[s][b] for s in range(len(shard_paths))])
        for b in range(num_buckets)
    ]
    frames = [f for f in ray.get(out) if len(f)]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
