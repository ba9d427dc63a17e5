"""Point-in-time (as-of) join — the engine's flagship operator (SURVEY J4).

Semantics: for each left row (entity, ts), attach the right-side row with the
greatest right_ts <= left_ts for the same entity (direction="backward"),
optionally rejected when left_ts - right_ts > tolerance — exactly the
reference's LOCF-with-expiration applied across tables
(mimicUsefulFunction.R:301-332) and its event-window lookups
(dssFunctionLibrary.R:1419-1503). "forward"/"nearest" directions are provided
for the pre/post variants.

Physical plan (SURVEY §4.3): the join runs in the reduce task of the
engine's one hash exchange on entity (stages/exchange.py). Left rows reach
bucket ``stable_bucket(entity) % B`` through the exchange; the right side is
bucketed by the same function (the flagship splits its small scores table
on the driver, the events queries join two filters of one bucket). The
reduce task sorts both sides by (entity, ts) and ``asof_join_arrays`` runs
one vectorized searchsorted merge per left entity run
(``partition.run_bounds``) against the same entity's right run.

B is chosen so one bucket's rows fit a worker's heap; a heavy entity is
salted on the LEFT side only (its right rows go to every salt range)
without changing results — backward lookups never cross entities.

Zero temporal leakage: no output field depends on right rows with
right_ts > left_ts (property-tested in tests/test_asof.py).
"""

from __future__ import annotations

import numpy as np

from .partition import run_bounds


def asof_merge_sorted(
    left_ts: np.ndarray,
    right_ts: np.ndarray,
    tolerance: float | None = None,
    direction: str = "backward",
) -> np.ndarray:
    """Vectorized two-pointer merge of ONE entity's sorted timestamp arrays.
    Returns, per left row, the matched right index or -1. ``np.searchsorted``
    is the vectorized equivalent of a galloping two-pointer merge: both sides
    sorted, O((n+m) log) worst, cache-friendly."""
    if direction == "backward":
        idx = np.searchsorted(right_ts, left_ts, side="right") - 1
        ok = idx >= 0
        if tolerance is not None:
            ok &= np.where(ok, left_ts - right_ts[np.maximum(idx, 0)] <= tolerance, False)
    elif direction == "forward":
        idx = np.searchsorted(right_ts, left_ts, side="left")
        ok = idx < right_ts.size
        idx = np.minimum(idx, right_ts.size - 1)
        if tolerance is not None:
            ok &= np.where(ok, right_ts[idx] - left_ts <= tolerance, False)
    elif direction == "nearest":
        b = asof_merge_sorted(left_ts, right_ts, tolerance, "backward")
        f = asof_merge_sorted(left_ts, right_ts, tolerance, "forward")
        db = np.where(b >= 0, np.abs(left_ts - right_ts[np.maximum(b, 0)]), np.inf)
        df_ = np.where(f >= 0, np.abs(right_ts[np.maximum(f, 0)] - left_ts), np.inf)
        return np.where(db <= df_, b, f)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return np.where(ok, idx, -1)


def asof_join_arrays(
    left_id,
    left_ts,
    right_id,
    right_ts,
    right_values: dict[str, np.ndarray],
    tolerance: float | None = None,
    direction: str = "backward",
) -> dict[str, np.ndarray]:
    """As-of join of (entity, ts)-sorted column arrays: per-entity segment
    lookup via the vectorized merge above. Left rows keep their order; columns
    from ``right_values`` come back NaN-filled where unmatched, plus
    ``_matched_ts``. Both sides MUST be sorted by (entity, ts)."""
    left_id = np.asarray(left_id)
    right_id = np.asarray(right_id)
    lt = np.asarray(left_ts, dtype=np.float64)
    rt = np.asarray(right_ts, dtype=np.float64)

    match = np.full(lt.size, -1, dtype=np.int64)
    r_start, r_len = run_bounds(right_id)
    r_pos = {
        k: (int(s), int(s + c)) for k, s, c in zip(right_id[r_start], r_start, r_len)
    }

    l_start, l_len = run_bounds(left_id)
    for k, s, e in zip(left_id[l_start], l_start, l_start + l_len):
        seg = r_pos.get(k)
        if seg is None:
            continue
        rs, re = seg
        idx = asof_merge_sorted(lt[s:e], rt[rs:re], tolerance, direction)
        match[s:e] = np.where(idx >= 0, idx + rs, -1)

    ok = match >= 0
    safe = np.maximum(match, 0)
    out: dict[str, np.ndarray] = {}
    for name, col in right_values.items():
        col = np.asarray(col)
        if col.dtype.kind in "fiu":
            vals = col.astype(np.float64)[safe]
            out[name] = np.where(ok, vals, np.nan)
        else:
            vals = col[safe].astype(object)
            vals[~ok] = None
            out[name] = vals
    out["_matched_ts"] = np.where(ok, rt[safe], np.nan)
    return out


def range_join_sorted(
    left_ent: np.ndarray,
    left_ts_us: np.ndarray,
    right_ent: np.ndarray,
    right_ts_us: np.ndarray,
    right_val: np.ndarray,
    window_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized interval (range) join over (entity, ts)-sorted sides: per
    left row, the COUNT and SUM of right rows of the SAME entity with
    ``right_ts in [left_ts - window, left_ts)`` — the trailing-window
    non-equi join the reference's event-window lookups run one entity at a
    time (dssFunctionLibrary.R:1419-1503), here as ONE composite-key
    ``searchsorted`` pair across all entities.

    Exactness: timestamps are integer MICROSECONDS and every composite key
    ``ent * offset + (ts - lo)`` is an integer-valued float64 below 2**53,
    so the window-boundary comparisons are exact (no float rounding at the
    >= / < edges). When the composite domain would exceed 2**53 (huge
    per-bucket entity count x span) the kernel falls back to a per-entity
    SEGMENT loop — one vectorized searchsorted per entity, same outputs.

    Both sides must be sorted by (entity code, ts); entity codes must come
    from one shared factorization. Returns (counts int64, sums float64).
    """
    n_l = left_ts_us.size
    counts = np.zeros(n_l, dtype=np.int64)
    sums = np.zeros(n_l, dtype=np.float64)
    if n_l == 0 or right_ts_us.size == 0:
        return counts, sums
    lo_us = int(min(left_ts_us.min(), right_ts_us.min()))
    lt = (left_ts_us - lo_us).astype(np.float64)
    rt = (right_ts_us - lo_us).astype(np.float64)
    w = float(window_us)
    span = float(max(lt.max(), rt.max()))
    offset = span + w + 2.0
    max_ent = int(max(left_ent.max(), right_ent.max()))
    if (max_ent + 1) * offset < 2.0**53:
        lbase = left_ent.astype(np.float64) * offset
        rkey = right_ent.astype(np.float64) * offset + rt
        # offset > span + w keeps (lbase + lt - w) inside the entity's own
        # key block, so no cross-entity bleed
        lo = np.searchsorted(rkey, lbase + (lt - w), side="left")
        hi = np.searchsorted(rkey, lbase + lt, side="left")
    else:
        rs = np.searchsorted(right_ent, left_ent, side="left")
        re = np.searchsorted(right_ent, left_ent, side="right")
        lo = np.empty(n_l, dtype=np.int64)
        hi = np.empty(n_l, dtype=np.int64)
        seg_starts, seg_lens = run_bounds(left_ent)
        for s, e in zip(seg_starts, seg_starts + seg_lens):
            a, b = int(rs[s]), int(re[s])
            seg = rt[a:b]
            lo[s:e] = a + np.searchsorted(seg, lt[s:e] - w, side="left")
            hi[s:e] = a + np.searchsorted(seg, lt[s:e], side="left")
    counts = (hi - lo).astype(np.int64)
    csum = np.concatenate([[0.0], np.cumsum(right_val.astype(np.float64))])
    sums = csum[hi] - csum[lo]
    return counts, sums
