"""Shared helpers for the query library (SURVEY §2 operator surface).

Conventions that make the DuckDB oracle comparison exact:
- every float output column is rounded to a fixed number of decimals in BOTH
  the Ray pipeline and the oracle SQL (fp summation order differs);
- timestamps are converted to epoch seconds (float64) before leaving a
  pipeline — hashing datetimes across engines is not portable;
- aggregate columns carry explicit names matching the SQL aliases.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray

from ..stages.exchange import DRIVER_ROOT_ROW_CAP

TABLES = (
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
)


def tpath(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def shard_list(sf_dir: str, name: str) -> list[str]:
    """Parquet shard paths for a table: the 100-TB layout is a DIRECTORY of
    shards (one read/map task per file); a single file degrades to [file]."""
    import glob
    import os

    path = tpath(sf_dir, name)
    if os.path.isdir(path):
        return sorted(glob.glob(f"{path}/*.parquet"))
    return [path]


def exchange_buckets(sf_dir: str, tables: tuple[str, ...], num_buckets: int | None) -> int:
    """``num_buckets`` when given, else ``auto_num_buckets`` over the shards
    of every table the query exchanges — so every hop of a multi-hop join is
    sized from the same inputs."""
    if num_buckets is not None:
        return num_buckets
    from ..stages.exchange import auto_num_buckets

    return auto_num_buckets([p for t in tables for p in shard_list(sf_dir, t)])


def table_num_rows(sf_dir: str, name: str) -> int:
    """Row count from parquet METADATA only (no scan) — sums over shard files
    when the table is a directory (``pq.read_metadata`` on a directory raises
    OSError — ADVICE r2)."""
    return sum(pq.read_metadata(p).num_rows for p in shard_list(sf_dir, name))


def read(sf_dir: str, name: str, columns: list[str] | None = None, filter_expr=None):
    """Pruned parquet read: only ``columns`` leave storage, and an optional
    pyarrow dataset expression is pushed to the scan (row-group / page-level
    pruning — at 100 TB the filter must run at the read, not in a map)."""
    import ray.data as rd

    kwargs = {}
    if filter_expr is not None:
        kwargs["filter"] = filter_expr
    return rd.read_parquet(tpath(sf_dir, name), columns=columns, **kwargs)


def read_small(sf_dir: str, name: str, columns: list[str] | None = None) -> pd.DataFrame:
    """Driver-side read of a SMALL table for broadcast (dimension tables)."""
    return pq.read_table(tpath(sf_dir, name), columns=columns).to_pandas()


def bounded_to_pandas(ds, what: str, cap: int = DRIVER_ROOT_ROW_CAP) -> pd.DataFrame:
    """Collect a SMALL Dataset at a driver root, enforcing the stated bound."""
    parts = ds.to_pandas()
    if len(parts) > cap:
        raise RuntimeError(
            f"driver root '{what}' collected {len(parts):,} rows (> cap {cap:,}): "
            "the key domain is not driver-bounded — use a distributed "
            "reduction (an exchange), or raise the cap deliberately"
        )
    return parts


def partial_groupby_sum(
    ds,
    keys: list[str],
    sums: dict[str, str],
    count_as: str | None = None,
):
    """Map-side partial aggregation (SURVEY A2/A4 scale shape): each batch is
    pre-reduced to one row per key with pandas, then the partial rows —
    bounded by (distinct keys x batches), NOT by input rows — are collected
    and folded in one pandas groupby, skipping Ray's sort-based shuffle and
    its fixed multi-second barrier. Returns a Dataset with ``keys +
    list(sums.values()) (+ count_as)``. Correct whenever the key domain is
    bounded (aggregation state must fit one node regardless of engine — the
    standard combiner-tree root); an unbounded key domain belongs on an
    exchange (stages/exchange.py).

    At 10^12-row scale the map-side partial is the difference between
    shuffling every row and shuffling ~(keys x batches) partial rows.
    """
    import ray.data as rd

    sum_cols = list(sums)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, as_index=False, sort=False)[sum_cols].sum()
        if count_as:
            cnt = batch.groupby(keys, as_index=False, sort=False).size()
            g = g.merge(cnt, on=keys)
            g = g.rename(columns={"size": count_as})
        return g

    partial = ds.map_batches(_partial, batch_format="pandas", batch_size=65536)
    # bound: (distinct keys x batches) — valid only for bounded key domains
    parts = bounded_to_pandas(partial, f"partial_groupby_sum{keys}")
    agg_cols = sum_cols + ([count_as] if count_as else [])
    out = parts.groupby(keys, as_index=False, sort=False)[agg_cols].sum()
    return rd.from_pandas(out.rename(columns=sums))


def shard_groupby_sum(
    sf_dir: str,
    table: str,
    keys: list[str],
    sums: dict[str, str],
    count_as: str | None = None,
    columns: list[str] | None = None,
    filter_expr=None,
    filter_cols: tuple = (),
    prep=None,
) -> pd.DataFrame:
    """Combiner tree over RAW per-shard tasks for bounded-key grouped sums —
    the same semantics as ``partial_groupby_sum`` without the
    Dataset plan's fixed multi-second setup (measured ~3 s on q1 at sf0.1;
    the events scans saw the same win when routed over the explicit exchange).

    One task per (shard, row-group run): reads only ``columns + filter_cols``
    from its row groups, applies ``filter_expr`` (a pyarrow dataset
    expression) and ``prep`` (pandas), pre-reduces to one row per key. The
    driver folds partials bounded by key-domain x tasks (enforced via
    bounded collect). At the 100-TB sharded-directory layout parallelism =
    shards x row-group runs; filtered columns never reach pandas."""
    sum_cols = list(sums)
    read_cols = (
        list(dict.fromkeys(list(columns) + list(filter_cols))) if columns else None
    )
    spec = (read_cols, filter_expr, prep, keys, sum_cols, count_as)

    # task list: whole file when it has one row group, per-row-group otherwise
    tasks = []
    for p in shard_list(sf_dir, table):
        n_rg = pq.read_metadata(p).num_row_groups
        if n_rg <= 1:
            tasks.append(_shard_sum_task.remote(p, None, *spec))
        else:
            tasks.extend(_shard_sum_task.remote(p, [i], *spec) for i in range(n_rg))
    parts = [f for f in ray.get(tasks) if len(f)]
    out = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=keys + sum_cols + ([count_as] if count_as else [])
    )
    # bound: key domain x tasks (same contract as the Dataset combiner root)
    if len(out) > DRIVER_ROOT_ROW_CAP:
        raise RuntimeError(
            f"shard_groupby_sum('{table}', {keys}) collected {len(out):,} partial "
            f"rows (> cap {DRIVER_ROOT_ROW_CAP:,}): key domain is not driver-bounded"
        )
    agg_cols = sum_cols + ([count_as] if count_as else [])
    return (
        out.groupby(keys, as_index=False, sort=False)[agg_cols].sum().rename(columns=sums)
    )


@ray.remote
def _shard_sum_task(
    path, rgs, read_cols, filter_expr, prep, keys, sum_cols, count_as
) -> pd.DataFrame:
    """``shard_groupby_sum``'s task: one shard (or row-group run) read,
    filtered, prepared and pre-reduced to one row per key."""
    if rgs is None:
        t = pq.read_table(path, columns=read_cols, filters=filter_expr)
    else:
        t = pq.ParquetFile(path).read_row_groups(rgs, columns=read_cols)
        if filter_expr is not None:
            t = t.filter(filter_expr)
    b = t.to_pandas()
    if prep is not None:
        b = prep(b)
    g = b.groupby(keys, as_index=False, sort=False)[sum_cols].sum()
    if count_as:
        cnt = b.groupby(keys, as_index=False, sort=False).size()
        g = g.merge(cnt, on=keys).rename(columns={"size": count_as})
    return g


def topk_driver(ds, k: int, by: list[str], ascending: list[bool]) -> pd.DataFrame:
    """Distributed top-k root (O3 scale shape): callers pre-reduce every
    batch to <= k rows map-side, so the collected partials are bounded by
    k x batches regardless of input size; the final selection is one pandas
    sort. Replaces ``Dataset.sort().limit(k)``, which pays a full
    sort-shuffle barrier to pick k rows."""
    # bound: k rows per pre-reduced batch -> k x batches
    parts = bounded_to_pandas(ds, f"topk_driver(k={k})")
    return (
        parts.sort_values(by, ascending=ascending, kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def round_half_away(x, decimals: int = 6):
    """DuckDB-exact ``round(x, d)``: half-AWAY-from-zero applied to the
    double ``x * 10**d`` (DuckDB evaluates ``std::round(value * 10^d) /
    10^d``), where numpy's ``round`` is half-EVEN. The two differ only when
    the scaled double lands exactly on ``.5`` — e.g. a mean of 44.7590625
    (the single red hash in CORRECTNESS r4). Use this, not ``np.round``,
    whenever the oracle SQL rounds a value the engine computes from the
    SAME double (exact int-cents accumulation on both sides guarantees
    that). Vectorized; exact while ``|x| * 10^d < 2^52``."""
    x = np.asarray(x, dtype=np.float64)
    p = np.float64(10.0**decimals)
    w = np.abs(x) * p
    f = np.floor(w)
    return np.sign(x) * (f + (w - f >= 0.5)) / p


def round_columns(ds, decimals: dict[str, int]):
    def _round(batch: pd.DataFrame) -> pd.DataFrame:
        for c, d in decimals.items():
            if c in batch.columns:
                batch[c] = batch[c].astype(np.float64).round(d)
        return batch

    return ds.map_batches(_round, batch_format="pandas")
