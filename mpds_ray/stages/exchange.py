"""Explicit two-stage hash exchange (map-split -> reduce-merge).

``Dataset.groupby`` implements its shuffle as a sort: sample boundaries on
the driver, sort-map every block, sort-reduce — two driver round trips and a
global barrier that cost a fixed ~3-4 s regardless of cluster size (measured
on the flagship). For the flagship's bucket exchange the key is ALREADY an
integer in [0, P), so the engine provides the classic MR-style alternative,
built from raw Ray tasks exactly as SURVEY §2 licenses for operators the
Dataset API cannot express efficiently:

    map task (``exchange_map``, one per source, fully parallel):
        source -> map_fn -> bucket = bucket_fn(rows) in [0, P)
        -> ONE stable argsort by bucket -> P zero-copy table slices
        (``num_returns=P``: each slice is its own object, fetched only by
        its reduce task — the all-to-all moves through the object store
        with no driver barrier)
    reduce task (``reduce_grid``, one per bucket, fully parallel):
        per source grid, concat bucket b's non-empty slices (``None`` when
        the grid has no rows there) -> reduce_fn(b, *tables)

A one-source, one-bucket grid (no ``groups``, ``chunk_rows`` or
``sort_keys``) has nothing to split, so it starts no map task: its one cell
is the upstream output itself (``map_fn=None``) or a ``DeferredMap`` (the
read and map) run by the task that consumes it. A deferred cell has exactly
one consumer. Several sources keep their parallel map tasks.

A source is a shard path, read from storage with the pruned columns and the
pushed-down filter, or an upstream output: an Arrow table or the ObjectRef
of one (a reduce output of an earlier hop, a slice of an in-memory table).
A ``None`` or 0-row upstream output holds no rows. Every keyed hop is the
same map task whatever its source, so a chained join re-keys a hop's
outputs with ``exchange_map`` over their refs. ``key_bucket`` is the one
bucket rule of a keyed exchange: ``stable_bucket`` of one key column.

Buckets are partitions; tasks are groups of them. Bucket ``b`` is always
partition ``b``; ``task_groups`` only decides how many tasks run them. With
``groups`` a map task returns one object per group (the group's per-bucket
slices), and the flagship runs each group in one reduce task, so a small
input costs one reduce task whatever its bucket count. ``reduce_grid``
runs one task per bucket, which runs its grids' deferred maps.

``reduce_grid`` is the one reducer of every exchange: a one-grid reduce
(``hash_exchange``), a two-sided join (``hashjoin.exchange_join``) and each
hop of a chained join. Its empty-side rule: a bucket whose FIRST grid has no
rows is skipped; with ``how='inner'`` so is a bucket where any other grid is
empty, while ``how='left'`` calls ``reduce_fn`` with ``None`` for the empty
side. ``emit='pandas'`` concatenates the reduce outputs on the driver under
``DRIVER_ROOT_ROW_CAP``; ``emit='refs'`` leaves them in the object store.

A pass that needs no exchange (a row-level map, a per-shard partial folded
on the driver, a decoder over fixed slices) runs on ``shard_map``: one task
per source, or per row group of a shard, that reads the pruned columns with
the filter pushed into the scan and returns ``fn(table)``. Every query and
the flagship run on these plain tasks; no query runs Ray Data (the
Dataset-native flagship is kept only as perfbench's reference engine).

The engine's generic tasks are three module-level remote functions:
``_map_shard`` (a map task), ``_reduce_bucket`` (a reduce task) and
``_read_map`` (a ``shard_map`` task), exported once per process. The
per-call callables and parameters travel as task arguments (``reduce_fn``
and ``fn`` are ``ray.put`` once when several tasks share them, else
inline), so a call costs no function export and no worker re-import of a fresh function.

Ordering inside a bucket is irrelevant by construction: every reduce_fn in
this engine re-sorts by (entity, ts) — the partition invariant is established
per bucket, never assumed from the exchange.

Skew note: bucket granularity bounds reduce-task size. A heavy entity cannot
be split by hashing (scans need whole entities); the flagship range-salts it
on the map side through its own ``bucket_fn`` and stitches the ranges with
carry kernels in reduce (SURVEY §4.2, stages/salted.py).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .partition import stable_bucket

# every driver-side combiner root must be BOUNDED by construction (key
# domain x batches, k x batches, candidate set, ...). The cap turns a silent
# unbounded collect (a future fact-table key riding the driver combiner)
# into a loud error naming the fix (VERDICT r2 'Next round' #7).
DRIVER_ROOT_ROW_CAP = 5_000_000


def accepts_n_positional(fn, n: int) -> bool:
    """True when ``fn`` can be CALLED with ``n`` positional args: counts only
    POSITIONAL_ONLY/POSITIONAL_OR_KEYWORD parameters and treats *args as
    accepting any arity; keyword-only/**kwargs never count, so a
    ``def f(t, *, opt=None)`` is not mistaken for a two-argument map.
    Unintrospectable callables (C extensions raise ValueError from
    ``inspect.signature``) fall back to False — the minimal-arity call."""
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


def key_bucket(t: pa.Table, key: str, num_buckets: int) -> np.ndarray:
    """The bucket of every row of ``t`` on column ``key``: the bucket rule
    of every keyed exchange, so two sides keyed alike are co-partitioned."""
    return stable_bucket(t[key].to_numpy(zero_copy_only=False), num_buckets)


def _no_rows(src) -> bool:
    """True for an upstream output that holds no rows (``None`` or 0 rows)."""
    return src is None or src.num_rows == 0


def _split_by_bucket(
    table: pa.Table,
    bucket: np.ndarray,
    num_buckets: int,
    sort_keys: list[str] | None = None,
) -> list[pa.Table]:
    """One stable argsort + P zero-copy slices of the bucket-sorted table.
    With ``sort_keys`` the single sort is a stable lexsort by (bucket, *keys)
    so every slice is additionally a sorted RUN (the chunked-reduce merge
    input); ties keep original within-shard order either way. One bucket
    and no keys: the table itself, not a sorted copy."""
    if num_buckets == 1 and not sort_keys:
        return [table]
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


def task_groups(items: range, inputs: list[str] | int) -> list[range]:
    """Which tasks run the partitions ``items`` (buckets, or one hot
    entity's salted ranges): ``min(len(items), max(auto_num_buckets(inputs),
    cluster CPUs))`` contiguous sub-ranges of nearly equal length. A group
    never changes which rows land in which partition, so the output does
    not depend on the cluster."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    n = min(len(items), max(auto_num_buckets(inputs), cpus))
    return [items[len(items) * g // n:len(items) * (g + 1) // n] for g in range(n)]


def exchange_map(
    sources: list,
    map_fn: Callable[[pa.Table], pa.Table] | None,
    bucket_fn: Callable[[pa.Table], np.ndarray],
    num_buckets: int,
    columns: list[str] | None = None,
    filters=None,
    sort_keys: list[str] | None = None,
    chunk_rows: int | None = None,
    groups: list[range] | None = None,
) -> list[list["ray.ObjectRef"]]:
    """Map phase only: one task per source, ``bucket_fn`` assigns each row
    a bucket in [0, num_buckets); returns ``refs[s][b]`` = the slice of
    source s destined for bucket b (each its own object — fetched only by
    its consumer). ``reduce_grid`` drives the reduce side; the flagship
    drives its own (it streams each bucket through a carry scan into a
    resumable sink).

    One source at one bucket (no ``groups``, ``chunk_rows`` or ``sort_keys``)
    starts no task: ``refs[0][0]`` is the upstream output itself
    (``map_fn=None``) or a ``DeferredMap`` of a path or an Arrow table.

    A source is a shard path or an upstream output (an Arrow table or its
    ObjectRef). A ``None`` or 0-row upstream output gives empty slices
    without calling ``map_fn``; ``map_fn=None`` keeps the rows as they are.
    A ``map_fn`` taking two positional arguments also receives the source
    (the shard path, so a map can write per-fragment side outputs).

    ``groups`` (contiguous ranges covering [0, num_buckets), from
    ``task_groups``) makes ``refs[s][g]`` the list of source s's slices of
    group g's buckets instead, for a reduce task that runs the group.

    ``columns`` prunes the shard read; ``filters`` (a pyarrow dataset
    expression) pushes a row predicate into the scan — row-group pruning at
    the read, so filtered rows never leave storage. Both apply to shard
    reads only: an upstream output is mapped whole.

    ``sort_keys`` + ``chunk_rows`` enable the BOUNDED-MEMORY reduce protocol
    (stages/chunked.py): each bucket slice is sorted by the keys and cut into
    <= chunk_rows sub-objects (``ray.put`` each), so ``refs[s][b]`` becomes a
    LIST of sub-chunk refs (empty when the slice is) a reduce task can fetch
    and release one at a time instead of pinning the whole run."""
    map_takes_path = map_fn is not None and accepts_n_positional(map_fn, 2)
    if (num_buckets == 1 and len(sources) == 1 and groups is None and chunk_rows is None
            and not sort_keys and (map_fn is None or not isinstance(sources[0], ray.ObjectRef))):
        s = sources[0]
        return [[s if map_fn is None and not isinstance(s, str)
                 else DeferredMap(s, map_fn, map_takes_path, columns, filters)]]
    n_out = num_buckets if groups is None else len(groups)
    task = _map_shard.options(num_returns=n_out)
    refs = [
        task.remote(
            src, map_fn, map_takes_path, bucket_fn, num_buckets,
            columns, filters, sort_keys, chunk_rows, groups,
        )
        for src in sources
    ]
    if n_out == 1:
        refs = [[r] for r in refs]
    return refs


class DeferredMap(NamedTuple):
    """A one-bucket cell's read and map, run by its one consumer; ``src`` is
    never an ObjectRef (the consumer would block on it; it gets a map task)."""

    src: object
    map_fn: Callable | None
    takes_path: bool
    columns: list[str] | None
    filters: object

    def run(self) -> pa.Table | None:
        """The mapped source; ``None`` (``map_fn`` not called) for no rows."""
        import pyarrow.parquet as pq

        path = self.src if isinstance(self.src, str) else None
        if path is None and _no_rows(self.src):
            return None
        t = self.src if path is None else pq.read_table(path, columns=self.columns, filters=self.filters)
        if self.map_fn is not None:
            t = self.map_fn(t, path) if self.takes_path else self.map_fn(t)
        return t


def resolve_cell(cell):
    """A grid cell's table: a ``DeferredMap`` runs here; a slice is itself."""
    return cell.run() if isinstance(cell, DeferredMap) else cell


@ray.remote
def _map_shard(
    src, map_fn, map_takes_path, bucket_fn, num_buckets,
    columns, filters, sort_keys, chunk_rows, groups,
):
    """``exchange_map``'s task: read or take one source, map it, split it
    by bucket, and return one object per bucket or, with ``groups``, per
    group."""
    t = DeferredMap(src, map_fn, map_takes_path, columns, filters).run()
    if t is None:
        parts = [pa.table({})] * num_buckets
    else:
        parts = _split_by_bucket(t, bucket_fn(t), num_buckets, sort_keys=sort_keys)
    if chunk_rows is not None:
        from .chunked import split_chunks

        parts = [[ray.put(c) for c in split_chunks(p, chunk_rows)] for p in parts]
    if groups is not None:
        parts = [parts[g.start:g.stop] for g in groups]
    return tuple(parts) if len(parts) > 1 else parts[0]


def shard_map(
    sources: list,
    fn: Callable[[pa.Table], object],
    columns: list[str] | None = None,
    filters=None,
    collect: str | None = None,
    fold: Callable[[object, object], object] | None = None,
):
    """The per-source pass: one task per source, or one per row group of a
    shard that has several, returning ``fn(table)``; the results come back
    in source and row-group order.

    A source is a shard path or an upstream output (an Arrow table or its
    ObjectRef). A shard task reads only ``columns``, with ``filters`` (a
    pyarrow dataset expression, or ``pq.read_table``'s list form) pushed
    into the scan; an upstream output is passed to ``fn`` whole. A ``None``
    or 0-row upstream output gives no partial: its task returns ``None``
    without calling ``fn``, and ``collect`` and ``fold`` skip it.

    With ``collect`` the results are frames, concatenated on the driver by
    ``collect_frames`` under ``DRIVER_ROOT_ROW_CAP``; ``collect`` names the
    query in the over-cap error. With ``fold`` (commutative and associative,
    e.g. ``np.add`` on integer arrays) the results are folded in
    arrival order as the tasks finish, so the driver holds one accumulator
    instead of every fixed-size partial; the first partial seeds it and no
    partial at all gives ``None``."""
    import pyarrow.parquet as pq

    units = []
    for src in sources:
        n_rg = pq.read_metadata(src).num_row_groups if isinstance(src, str) else 1
        units += [(src, rg) for rg in ([None] if n_rg <= 1 else range(n_rg))]
    fn_arg = fn if len(units) == 1 else ray.put(fn)
    tasks = [_read_map.remote(fn_arg, src, rg, columns, filters) for src, rg in units]
    if fold is None:
        out = ray.get(tasks)
        return out if collect is None else collect_frames(out, collect)
    acc = None
    while tasks:
        done, tasks = ray.wait(tasks, num_returns=1)
        part = ray.get(done[0])
        if part is not None:
            acc = part if acc is None else fold(acc, part)
    return acc


@ray.remote
def _read_map(fn, src, row_group, columns, filters):
    """``shard_map``'s task: read one shard, or one of its row groups, or
    take one upstream output, and apply ``fn``."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if not isinstance(src, str):
        return None if _no_rows(src) else fn(src)
    if filters is not None:
        filters = pq.filters_to_expression(filters)
    frag = next(iter(pads.dataset(src, format="parquet").get_fragments()))
    if row_group is not None:
        frag = frag.subset(row_group_ids=[row_group])
    return fn(frag.to_table(columns=columns, filter=filters))


def collect_frames(frames, what: str):
    """Concatenate task outputs at a driver root, enforcing
    ``DRIVER_ROOT_ROW_CAP`` (``what`` names the root in the error). ``None``
    outputs are dropped, and empty ones too unless every output is empty (so
    the columns survive). Arrow outputs concatenate to a ``pa.Table``, pandas
    ones to a ``pd.DataFrame``; no output at all gives an empty
    ``pd.DataFrame``."""
    frames = [f for f in frames if f is not None]
    rows = sum(len(f) for f in frames)
    if rows > DRIVER_ROOT_ROW_CAP:
        raise RuntimeError(
            f"driver root '{what}' collected {rows:,} rows (> cap "
            f"{DRIVER_ROOT_ROW_CAP:,}): the result is not driver-bounded — emit "
            "aggregated partials or top-k per task, or keep it in the object store"
        )
    frames = [f for f in frames if len(f)] or frames[:1]
    if not frames:
        return pd.DataFrame()
    if isinstance(frames[0], pa.Table):
        return pa.concat_tables(frames)
    return pd.concat(frames, ignore_index=True)


def gather_slices(parts) -> pa.Table | None:
    """One bucket's cells from one grid, resolved and concatenated: empty
    and ``None`` tables dropped, ``None`` when no cell holds rows."""
    nonempty = [t for t in map(resolve_cell, parts) if t is not None and t.num_rows]
    return pa.concat_tables(nonempty) if nonempty else None


def reduce_grid(
    reduce_fn: Callable[..., object],
    num_buckets: int,
    *grids: list[list["ray.ObjectRef"]],
    how: str = "inner",
    emit: str = "pandas",
):
    """One reduce task per bucket over ``refs[s][b]`` grids (from
    ``exchange_map``, over shards or an upstream hop's outputs): bucket
    ``b`` calls ``reduce_fn(b, *tables)`` with one table per grid, the
    concatenation of that grid's non-empty slices, or ``None`` when it has
    none.

    The bucket is skipped when the first grid has no rows there; with
    ``how='inner'`` also when any other grid has none, while ``how='left'``
    passes ``None`` and ``reduce_fn`` must read it as zero matches.

    ``emit='pandas'`` ray.gets the (small) outputs and concatenates them
    with ``collect_frames``; ``emit='refs'`` returns one ref per bucket
    (resolving to ``None`` for a skipped bucket) and leaves the outputs in
    the object store for the next hop."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    ends = list(accumulate(len(g) for g in grids))
    spans = list(zip([0] + ends[:-1], ends))  # each grid's run of task args

    fn_arg = reduce_fn if num_buckets == 1 else ray.put(reduce_fn)
    out = [
        _reduce_bucket.remote(fn_arg, spans, how, b, *[row[b] for g in grids for row in g])
        for b in range(num_buckets)
    ]
    if emit == "refs":
        return out
    return collect_frames(ray.get(out), "reduce_grid")


@ray.remote
def _reduce_bucket(reduce_fn, spans, how: str, b: int, *parts):
    """``reduce_grid``'s task: gather each grid's slices of bucket ``b``
    (``spans`` are the grids' runs of ``parts``) and apply the empty-side
    rule before calling ``reduce_fn``."""
    tables = [gather_slices(parts[lo:hi]) for lo, hi in spans]
    if tables[0] is None or (how == "inner" and any(t is None for t in tables)):
        return None
    return reduce_fn(b, *tables)


def hash_exchange(
    shard_paths: list[str],
    map_fn: Callable[[pa.Table], pa.Table],
    entity_col: str,
    num_buckets: int | None,
    reduce_fn: Callable[[int, pa.Table], pd.DataFrame],
    columns: list[str] | None = None,
) -> pd.DataFrame:
    """Exchange on ``hash(entity_col) % num_buckets`` and return the
    concatenated reduce outputs (small, under the driver-root cap).
    ``columns`` prunes the shard read (only those columns leave storage).
    ``num_buckets=None`` takes ``auto_num_buckets(shard_paths)``.

    ``reduce_fn(b, table)`` sees the concatenation of bucket ``b``'s
    non-empty map slices and is not called for an empty bucket. A reduce
    that needs lineage or a streaming protocol (the flagship's resumable
    sink records which input fragments fed each partition) drives
    ``exchange_map`` itself."""
    if num_buckets is None:
        num_buckets = auto_num_buckets(shard_paths)
    bucket_fn = partial(key_bucket, key=entity_col, num_buckets=num_buckets)
    refs = exchange_map(shard_paths, map_fn, bucket_fn, num_buckets, columns=columns)
    return reduce_grid(reduce_fn, num_buckets, refs)
