"""Per-partition lineage manifest -> resumable restarts (SURVEY §4.2).

The reference's only recovery mechanism is ad-hoc ``save()`` checkpoints per
hyper-param combo (dssFunctionLibrary.R:431-434,767-771). The engine
generalizes: every partitioned sink appends one JSON line per completed
partition — ``(stage, partition_id, row_count, checksum, wall_time_s,
input_fragments)`` — and a restart skips partitions already present (the
flagship sink first checks that each listed file holds its rows). Writes
are atomic (tmp file + rename), so a killed run never leaves a partition
half-written AND listed.

The checksum is an order-insensitive uint64 XOR-fold of row hashes, so a
resumed run can be verified equal to a fresh run without sorting output.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd


def frame_checksum(df: pd.DataFrame) -> int:
    """Order-insensitive content checksum (XOR of per-row uint64 hashes).
    Non-scalar columns (token arrays) are folded via their per-row sums so the
    checksum still reflects their content without materializing strings."""
    parts = {}
    for c in df.columns:
        col = df[c]
        if col.dtype == object and len(col) and isinstance(col.iloc[0], (list, np.ndarray)):
            parts[c] = col.map(lambda v: float(np.sum(v)) if v is not None else np.nan)
        else:
            parts[c] = col
    h = pd.util.hash_pandas_object(pd.DataFrame(parts), index=False).to_numpy()
    return int(np.bitwise_xor.reduce(h)) if h.size else 0


class Manifest:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def completed(self, stage: str) -> set:
        done = set()
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    rec = json.loads(line)
                    if rec.get("stage") == stage:
                        done.add(rec["partition_id"])
        return done

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


def write_partition_atomic(df: pd.DataFrame, out_dir: str, partition_id) -> str:
    """Atomic per-partition parquet write: tmp file + rename."""
    os.makedirs(out_dir, exist_ok=True)
    final = os.path.join(out_dir, f"part-{partition_id}.parquet")
    tmp = final + f".tmp.{os.getpid()}"
    df.to_parquet(tmp, index=False)
    os.replace(tmp, final)
    return final


def write_partitioned_resumable(
    ds,
    out_dir: str,
    stage: str,
    manifest_path: str,
    partition_col: str = "_bucket",
):
    """Resumable sink: per-partition atomic parquet + manifest line. Skips
    partitions listed as complete. Returns the manifest records dataset.

    Runs as ``groupby(partition_col).map_groups`` so each partition is written
    by exactly one task; the manifest append is the commit point.
    """
    manifest = Manifest(manifest_path)
    done = manifest.completed(stage)

    def _write_group(g: pd.DataFrame) -> pd.DataFrame:
        pid = g[partition_col].iloc[0]
        pid_key = int(pid) if not isinstance(pid, str) else pid
        if pid_key in done:
            return pd.DataFrame({"partition_id": [pid_key], "rows": [0], "skipped": [True]})
        t0 = time.perf_counter()
        body = g.drop(columns=[partition_col])
        write_partition_atomic(body, out_dir, pid_key)
        Manifest(manifest_path).append(
            stage, pid_key, len(body), frame_checksum(body), time.perf_counter() - t0
        )
        return pd.DataFrame({"partition_id": [pid_key], "rows": [len(body)], "skipped": [False]})

    return ds.groupby(partition_col).map_groups(_write_group, batch_format="pandas")
