"""Shared helpers for the query library (SURVEY §2 operator surface).

Queries run on plain Ray tasks over the parquet shards of their tables:
``stages/exchange.shard_map`` for per-shard passes (row-level maps and
per-shard partials folded on the driver, ``shard_groupby_sum`` for bounded
grouped sums) and the hash exchanges of ``stages/exchange`` and
``stages/hashjoin`` for everything keyed. No query runs Ray Data.

Conventions that make the DuckDB oracle comparison exact:
- every float output column is rounded to a fixed number of decimals in BOTH
  the Ray pipeline and the oracle SQL (fp summation order differs);
- timestamps are converted to epoch seconds (float64) before leaving a
  pipeline — hashing datetimes across engines is not portable;
- aggregate columns carry explicit names matching the SQL aliases.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.exchange import shard_map


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


def exchange_buckets(sf_dir: str, tables: tuple[str, ...]) -> int:
    """``auto_num_buckets`` over the shards of every table the query
    exchanges — so every hop of a multi-hop join is sized from the same
    inputs."""
    from ..stages.exchange import auto_num_buckets

    return auto_num_buckets([p for t in tables for p in shard_list(sf_dir, t)])


def table_num_rows(sf_dir: str, name: str) -> int:
    """Row count from parquet METADATA only (no scan) — sums over shard files
    when the table is a directory (``pq.read_metadata`` on a directory raises
    OSError — ADVICE r2)."""
    return sum(pq.read_metadata(p).num_rows for p in shard_list(sf_dir, name))


def read_small(sf_dir: str, name: str, columns: list[str] | None = None) -> pd.DataFrame:
    """Driver-side read of a SMALL table for broadcast (dimension tables)."""
    return pq.read_table(tpath(sf_dir, name), columns=columns).to_pandas()


def shard_groupby_sum(
    sf_dir: str,
    table: str,
    keys: list[str],
    sums: dict[str, str],
    count_as: str | None = None,
    columns: list[str] | None = None,
    filters=None,
    prep=None,
) -> pd.DataFrame:
    """Grouped sums over a BOUNDED key domain as a combiner tree of
    ``shard_map`` tasks: each task reads ``columns`` of its shard or row
    group with ``filters`` pushed into the scan, applies ``prep`` (pandas)
    and pre-reduces to one row per key; the driver folds the partials,
    bounded by key domain x tasks (``DRIVER_ROOT_ROW_CAP``). Returns ``keys
    + list(sums.values()) (+ count_as)``. An unbounded key domain belongs on
    an exchange (stages/exchange.py)."""
    sum_cols = list(sums)
    parts = shard_map(
        shard_list(sf_dir, table),
        partial(_group_sums, keys=keys, sum_cols=sum_cols, count_as=count_as, prep=prep),
        columns=columns,
        filters=filters,
        collect=f"shard_groupby_sum('{table}', {keys})",
    )
    agg_cols = sum_cols + ([count_as] if count_as else [])
    return (
        parts.groupby(keys, as_index=False, sort=False)[agg_cols].sum().rename(columns=sums)
    )


def _group_sums(t: pa.Table, keys, sum_cols, count_as, prep) -> pd.DataFrame:
    """``shard_groupby_sum``'s per-task partial: one row per key."""
    b = t.to_pandas()
    if prep is not None:
        b = prep(b)
    g = b.groupby(keys, as_index=False, sort=False)[sum_cols].sum()
    if count_as:
        cnt = b.groupby(keys, as_index=False, sort=False).size()
        g = g.merge(cnt, on=keys).rename(columns={"size": count_as})
    return g


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
