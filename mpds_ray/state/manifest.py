"""Per-partition lineage manifest -> resumable restarts (SURVEY §4.2).

The reference's only recovery mechanism is ad-hoc ``save()`` checkpoints per
hyper-param combo (dssFunctionLibrary.R:431-434,767-771). The engine
generalizes: every partitioned sink appends one JSON line per completed
partition — ``(stage, partition_id, row_count, checksum, wall_time_s,
input_fragments)`` — and a restart skips the partitions ``Manifest.committed``
finds intact: listed, with a file that holds the recorded rows. Every other
partition is recomputed. Writes are atomic (tmp file + rename), so a killed
run never leaves a partition half-written AND listed.

The checksum is an order-insensitive uint64 XOR-fold of row hashes, so a
resumed run can be verified equal to a fresh run without sorting output.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pandas.core.util.hashing import combine_hash_arrays, hash_array


def frame_checksum(frame: pd.DataFrame | pa.Table) -> int:
    """Order-insensitive content checksum (XOR of per-row uint64 hashes).
    Non-scalar columns (token arrays) are folded via their per-row sums so the
    checksum still reflects their content without materializing strings.

    A ``pa.Table`` checksums to the value of its ``to_pandas()`` frame
    without building it: each numeric column's NumPy values (a null reads as
    NaN, as in pandas) are hashed with pandas' ``hash_array``, and a string
    column is hashed through its dictionary, as pandas hashes the factorized
    object column."""
    if isinstance(frame, pa.Table):
        if not frame.num_rows or not frame.num_columns:
            return 0
        h = combine_hash_arrays(
            (_arrow_column_hash(frame[c]) for c in frame.column_names), frame.num_columns
        )
        return int(np.bitwise_xor.reduce(h))
    parts = {c: _scalar_values(frame[c]) for c in frame.columns}
    h = pd.util.hash_pandas_object(pd.DataFrame(parts), index=False).to_numpy()
    return int(np.bitwise_xor.reduce(h)) if h.size else 0


def _scalar_values(col: pd.Series) -> pd.Series:
    """A column as ``frame_checksum`` hashes it: an array column becomes
    its per-row sums."""
    if col.dtype == object and len(col) and isinstance(col.iloc[0], (list, np.ndarray)):
        return col.map(lambda v: float(np.sum(v)) if v is not None else np.nan)
    return col


def _arrow_column_hash(col: pa.ChunkedArray) -> np.ndarray:
    """The uint64 row hashes pandas gives the ``to_pandas()`` form of one
    Arrow column."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        enc = col.combine_chunks().dictionary_encode()
        words = np.asarray(enc.dictionary.to_numpy(zero_copy_only=False), dtype=object)
        # a null row takes the extra last slot: pandas hashes a missing
        # categorical code as the maximum uint64
        hashed = np.append(hash_array(words, categorize=False), np.iinfo(np.uint64).max)
        codes = enc.indices.fill_null(len(words)).to_numpy(zero_copy_only=False)
        return hashed.take(codes)
    if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
        return hash_array(col.to_numpy())
    return hash_array(_scalar_values(col.to_pandas())._values)


class Manifest:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def append(self, stage: str, partition_id, row_count: int, checksum: int,
               wall_time_s: float, input_fragments=None) -> None:
        rec = {
            "stage": stage,
            "partition_id": partition_id,
            "row_count": int(row_count),
            "checksum": int(checksum),
            "wall_time_s": round(float(wall_time_s), 4),
            "input_fragments": input_fragments or [],
        }
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")

    def records(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as f:
            return [json.loads(line) for line in f]

    def rewrite(self, records: list[dict]) -> None:
        """Replace the manifest by ``records`` atomically (tmp file + rename)."""
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in records)
        os.replace(tmp, self.path)

    def committed(self, stage: str, out_dir: str) -> set:
        """The skip check of a rerun: the partitions of ``stage`` whose last
        record names a file in ``out_dir`` holding the recorded rows. Every
        other record of the stage (its file missing or truncated, or
        superseded by a later record of the same partition) is dropped from
        the manifest, so a recomputed partition ends with one record and the
        XOR of the manifest's checksums still equals the XOR of what is on
        disk."""
        recs = self.records()
        last = {r["partition_id"]: i for i, r in enumerate(recs) if r["stage"] == stage}

        def intact(rec: dict) -> bool:
            try:
                meta = pq.read_metadata(partition_path(out_dir, rec["partition_id"]))
            except (OSError, ValueError):  # missing, or not a whole parquet file
                return False
            return meta.num_rows == rec["row_count"]

        keep = [
            r for i, r in enumerate(recs)
            if r["stage"] != stage or (last[r["partition_id"]] == i and intact(r))
        ]
        if len(keep) < len(recs):
            self.rewrite(keep)
        return {r["partition_id"] for r in keep if r["stage"] == stage}


def partition_path(out_dir: str, partition_id) -> str:
    """The file of one partition of a partitioned sink."""
    return os.path.join(out_dir, f"part-{partition_id}.parquet")


def write_partition_atomic(df: pd.DataFrame, out_dir: str, partition_id) -> str:
    """Atomic per-partition parquet write: tmp file + rename."""
    os.makedirs(out_dir, exist_ok=True)
    final = partition_path(out_dir, partition_id)
    tmp = final + f".tmp.{os.getpid()}"
    df.to_parquet(tmp, index=False)
    os.replace(tmp, final)
    return final


def write_partitioned_resumable(
    shard_paths: list[str],
    out_dir: str,
    stage: str,
    manifest_path: str,
    partition_col: str,
    columns: list[str] | None = None,
) -> pd.DataFrame:
    """Resumable sink: the rows of ``shard_paths`` (``columns`` read),
    partitioned by ``partition_col``, one atomic parquet file plus one
    manifest line per partition; the written body drops ``partition_col``.
    A rerun skips the partitions ``Manifest.committed`` finds intact and
    rewrites the rest. Returns one ``(partition_id, rows, skipped)`` row per
    partition.

    Runs on ``hash_exchange`` keyed on ``partition_col``, so each partition
    is written by exactly one reduce task; the manifest append is the
    commit point."""
    from ..stages.exchange import hash_exchange

    done = Manifest(manifest_path).committed(stage, out_dir)

    def write_bucket(b: int, tbl: pa.Table) -> pd.DataFrame:
        rows = []
        for pid, g in tbl.to_pandas().groupby(partition_col, sort=True):
            pid_key = int(pid) if not isinstance(pid, str) else pid
            if pid_key in done:
                rows.append((pid_key, 0, True))
                continue
            t0 = time.perf_counter()
            body = g.drop(columns=[partition_col])
            write_partition_atomic(body, out_dir, pid_key)
            Manifest(manifest_path).append(
                stage, pid_key, len(body), frame_checksum(body), time.perf_counter() - t0
            )
            rows.append((pid_key, len(body), False))
        return pd.DataFrame(rows, columns=["partition_id", "rows", "skipped"])

    return hash_exchange(
        shard_paths, lambda t: t, partition_col, write_bucket, columns=columns
    )
