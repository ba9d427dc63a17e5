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
bucketed by the same function (the flagship sorts and splits its small
scores table once on the driver, the events queries join two filters of one
bucket). The right side is in (entity, ts) order, and every lookup of the
bucket is ONE exact composite-key search (``partition.search_runs``): each
left row's position among the right rows, whatever the left order. A match
is the row at that position when it has the left row's entity; no Python
loop runs per entity.

B is chosen so one bucket's rows fit a worker's heap; a heavy entity is
salted on the LEFT side only (its right rows go to every salt range)
without changing results — backward lookups never cross entities.

Zero temporal leakage: no output field depends on right rows with
right_ts > left_ts (property-tested in tests/test_asof.py).
"""

from __future__ import annotations

import numpy as np

from .partition import search_runs


def _at(col: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``col[idx]`` where ``idx >= 0``, else NaN (None in a column that is
    not numeric); a numeric column comes back as float64."""
    numeric = col.dtype.kind in "fiu"
    out = np.full(idx.size, np.nan if numeric else None,
                  dtype=np.float64 if numeric else object)
    hit = idx >= 0
    out[hit] = col[idx[hit]]
    return out


def asof_join_arrays(
    left_id,
    left_ts,
    right_id,
    right_ts,
    right_values: dict[str, np.ndarray],
    tolerance: float | None = None,
    direction: str = "backward",
) -> dict[str, np.ndarray]:
    """As-of join of column arrays: per left row, the right row of the same
    entity found by ``direction`` — "backward" (the last at or before
    left_ts; among equal timestamps the last), "forward" (the first at or
    after) or "nearest" (the closer of the two, backward on a tie) — and
    rejected when further than ``tolerance``. Left rows keep their order and
    may come in any; the right side MUST be sorted by (entity, ts), else
    ``ValueError``. Columns from ``right_values`` come back NaN-filled (None
    when not numeric) where unmatched, plus ``_matched_ts``."""
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown direction {direction!r}")
    left_id = np.asarray(left_id)
    right_id = np.asarray(right_id)
    lt = np.asarray(left_ts, dtype=np.float64)
    rt = np.asarray(right_ts, dtype=np.float64)

    def match(side: str) -> np.ndarray:
        # side "right": the last right row at or before lt; "left": the first
        # at or after; -1 when that row is another entity's or too far away
        pos = search_runs(left_id, lt, right_id, rt, side) - (side == "right")
        ok = (pos >= 0) & (pos < rt.size)
        ok[ok] = right_id[pos[ok]] == left_id[ok]
        if tolerance is not None:
            gap = lt[ok] - rt[pos[ok]] if side == "right" else rt[pos[ok]] - lt[ok]
            ok[ok] = gap <= tolerance
        return np.where(ok, pos, -1)

    if direction == "nearest":
        b, f = match("right"), match("left")
        db = np.where(b >= 0, np.abs(lt - _at(rt, b)), np.inf)
        df_ = np.where(f >= 0, np.abs(_at(rt, f) - lt), np.inf)
        idx = np.where(db <= df_, b, f)
    else:
        idx = match("right" if direction == "backward" else "left")
    out = {name: _at(np.asarray(col), idx) for name, col in right_values.items()}
    out["_matched_ts"] = _at(rt, idx)
    return out


def range_join_sorted(
    left_ent: np.ndarray,
    left_ts_us: np.ndarray,
    right_ent: np.ndarray,
    right_ts_us: np.ndarray,
    right_val: np.ndarray,
    window_us: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized interval (range) join: per left row, the COUNT and SUM of
    right rows of the SAME entity with ``right_ts in [left_ts - window,
    left_ts)`` — the trailing-window non-equi join the reference's
    event-window lookups run one entity at a time
    (dssFunctionLibrary.R:1419-1503), here as two ``search_runs`` calls (the
    window's first and one-past-last right rows) and one prefix sum across
    all entities.

    Exactness: timestamps are integer MICROSECONDS and ``search_runs``
    compares integer ranks, so the window edges are exact for any entity
    domain. The right side must be sorted by (entity, ts), else
    ``ValueError``; the left side may be in any order. Returns (counts
    int64, sums float64).
    """
    lo = search_runs(left_ent, left_ts_us - window_us, right_ent, right_ts_us, "left")
    hi = search_runs(left_ent, left_ts_us, right_ent, right_ts_us, "left")
    csum = np.concatenate([[0.0], np.cumsum(np.asarray(right_val, dtype=np.float64))])
    return (hi - lo).astype(np.int64), csum[hi] - csum[lo]
