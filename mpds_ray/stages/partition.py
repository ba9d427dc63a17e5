"""Stable entity bucketing — the key of every hash exchange (SURVEY §4.3).

The reference's load-bearing physical property is (id, ht)-sorted data
(mimicUsefulFunction.R:293). The engine establishes it per bucket: rows are
hash-bucketed by entity (``bucket = stable_hash(entity) % B``), exchanged
once (stages/exchange.py) and sorted by (entity, ts) in each reduce task, so
every bucket is entity-complete. Bucketing is stable across runs and
processes (pandas' uint64 hash), so resumes and oracle comparisons agree.

Every operator then scans its sorted bucket run by run, and ``run_bounds``
is the one rule for where the runs are: a run of rows sorted by one or
more keys starts at row 0 and wherever any key differs from the row
before, and ends where the next run starts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def stable_bucket(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic, process-stable bucket per value (uint64 hash mod B)."""
    h = pd.util.hash_pandas_object(pd.Series(np.asarray(values)), index=False)
    return (h % np.uint64(num_buckets)).to_numpy().astype(np.int32)


def run_bounds(*keys) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal keys in arrays sorted by those
    keys (a new run wherever ANY key changes from the previous row). The
    runs tile the rows in order; no rows give no runs."""
    n = len(keys[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        k = np.asarray(k)
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, n))
