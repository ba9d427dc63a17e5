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
before, and ends where the next run starts. ``search_runs`` is the one
rule for where a (entity, ts) lookup lands in another side's sorted runs;
every as-of, nearest, range and grid join is built on it. ``seg_accumulate``
is the one segmented scan: a prefix scan restarted at each run, on which
every per-entity cumulative, trapezoid and window sum is built.
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


def length_groups(starts, lens):
    """For each distinct run length, shortest first: the runs' positions
    (ascending) and the (runs, length) index matrix of their rows."""
    order = np.argsort(lens, kind="stable")
    group_starts, group_rows = run_bounds(lens[order])
    for g0, gn in zip(group_starts.tolist(), group_rows.tolist()):
        rows = order[g0 : g0 + gn]
        yield rows, starts[rows][:, None] + np.arange(lens[rows[0]])


def search_runs(l_id, l_key, r_id, r_key, side: str = "left") -> np.ndarray:
    """For each left row, the position of ``(l_id, l_key)`` in the right
    rows, which are sorted by (id, key): ``np.searchsorted`` over the pairs,
    with its ``side``. The left rows may be in any order.

    Both sides map to one int64 composite key ``code * (U + 1) + rank``:
    ``code`` is the id's position among both sides' distinct ids, ``rank``
    the key's among both sides' U distinct keys (NaN ranks last, as NumPy
    sorts it). Every comparison is then on integers, so the search is exact
    for float keys, ties and id domains of any size. Raises ``ValueError``
    when the right rows are not sorted by (id, key)."""
    n = len(l_id)
    _, code = np.unique(np.concatenate([l_id, r_id]), return_inverse=True)
    keys, rank = np.unique(np.concatenate([l_key, r_key]), return_inverse=True)
    comp = code.astype(np.int64) * (keys.size + 1) + rank
    r_comp = comp[n:]
    if np.any(r_comp[1:] < r_comp[:-1]):
        raise ValueError("right rows are not sorted by (id, key)")
    return np.searchsorted(r_comp, comp[:n], side=side)


def seg_accumulate(ufunc: np.ufunc, x, starts, lens) -> np.ndarray:
    """``ufunc.accumulate`` restarted at every run: ``out[s:s+l]`` is
    ``ufunc.accumulate(x[s:s+l])`` for each run ``(s, l)``; rows outside the
    (disjoint) runs keep ``x``. Runs of length in ``(L/2, L]`` form one
    ``(runs, L)`` matrix, padded at the tail and accumulated along its rows:
    the same left-to-right operations as a per-run accumulate, so the result
    is bit-identical to it (a sequential sum, not a compensated or pairwise
    one). The loop is over the at most log2(longest run) + 1 classes."""
    x = np.asarray(x)
    out = x.copy()
    keep = np.asarray(lens) > 0
    starts, lens = np.asarray(starts)[keep], np.asarray(lens)[keep]
    cls = np.frexp(lens - 1)[1]  # bit length of lens - 1: L = 2**cls >= lens
    for c in np.unique(cls):
        sel = cls == c
        st, ln = starts[sel], lens[sel]
        col = np.arange(1 << int(c))
        idx = st[:, None] + np.minimum(col, (ln - 1)[:, None])
        acc = ufunc.accumulate(x[idx], axis=1)
        real = col < ln[:, None]
        out[idx[real]] = acc[real]
    return out
