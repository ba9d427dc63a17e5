"""Stable entity bucketing — the key of every hash exchange (SURVEY §4.3).

The reference's load-bearing physical property is (id, ht)-sorted data
(mimicUsefulFunction.R:293). The engine establishes it per bucket: rows are
hash-bucketed by entity (``bucket = stable_hash(entity) % B``), exchanged
once (stages/exchange.py) and sorted by (entity, ts) in each reduce task, so
every bucket is entity-complete. Bucketing is stable across runs and
processes (pandas' uint64 hash), so resumes and oracle comparisons agree.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def stable_bucket(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic, process-stable bucket per value (uint64 hash mod B)."""
    h = pd.util.hash_pandas_object(pd.Series(np.asarray(values)), index=False)
    return (h % np.uint64(num_buckets)).to_numpy().astype(np.int32)
