"""Event-window range lookups (T10): per-event time-weighted averages.

Port of the reference's response-to-treatment windows
(dssFunctionLibrary.R:1419-1503):

- ``time_weighted_average``: trapezoid mean over irregular samples
  (:1350-1368): sum((v[:-1] + dv/2) * dht) / sum(dht); a single sample
  returns itself.
- ``event_window_response``: for each marked event row, walk forward within
  ``wind`` of the same entity -> avgAfter = trapezoid average over
  [event .. end], avgBefore = value at the event (:1434-1453); rows with no
  forward neighbors get NaN.
- ``event_window_pre_post``: the PrePost variant (:1460-1503) with backward
  AND forward windows, trendBefore/trendAfter.

Vectorized: window boundaries via searchsorted per entity segment; trapezoid
sums via prefix sums evaluated at the boundaries — O(n log n), no per-event
Python loop.
"""

from __future__ import annotations

import numpy as np

from .partition import run_bounds


def time_weighted_average(val: np.ndarray, ht: np.ndarray) -> float:
    val = np.asarray(val, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    if val.size == 1:
        return float(val[0])
    dv = np.diff(val) / 2.0
    dht = np.diff(ht)
    return float(np.sum((val[:-1] + dv) * dht) / np.sum(dht))


def _trapz_prefix(val: np.ndarray, ht: np.ndarray) -> np.ndarray:
    """prefix[i] = integral of the piecewise-linear curve over ht[0..i]."""
    areas = (val[:-1] + np.diff(val) / 2.0) * np.diff(ht)
    return np.r_[0.0, np.cumsum(areas)]


def event_window_response(
    ids: np.ndarray,
    ht: np.ndarray,
    val: np.ndarray,
    is_event: np.ndarray,
    wind: float,
) -> dict[str, np.ndarray]:
    """Forward variant (:1434-1453). Output arrays align with the event rows
    (in input order): num_after, avg_before, avg_after."""
    ids = np.asarray(ids)
    ht = np.asarray(ht, dtype=np.float64)
    val = np.asarray(val, dtype=np.float64)
    ev_idx = np.flatnonzero(np.asarray(is_event) == 1)
    n_ev = ev_idx.size
    num_after = np.full(n_ev, np.nan)
    avg_before = np.full(n_ev, np.nan)
    avg_after = np.full(n_ev, np.nan)

    out_pos = {int(i): k for k, i in enumerate(ev_idx)}
    starts, lens = run_bounds(ids)
    for s, e in zip(starts, starts + lens):
        seg_ht = ht[s:e]
        seg_val = val[s:e]
        prefix = _trapz_prefix(seg_val, seg_ht)
        seg_ev = ev_idx[(ev_idx >= s) & (ev_idx < e)] - s
        if seg_ev.size == 0:
            continue
        # last index with ht <= ht[event] + wind  (forward walk)
        fwd = np.searchsorted(seg_ht, seg_ht[seg_ev] + wind, side="right") - 1
        has_fwd = fwd > seg_ev
        span = seg_ht[fwd] - seg_ht[seg_ev]
        area = prefix[fwd] - prefix[seg_ev]
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(span > 0, area / np.where(span > 0, span, 1.0), seg_val[seg_ev])
        for j, local in enumerate(seg_ev):
            k = out_pos[int(local + s)]
            if has_fwd[j]:
                num_after[k] = fwd[j] - local + 1
                avg_before[k] = seg_val[local]
                avg_after[k] = avg[j]
    return {"num_after": num_after, "avg_before": avg_before, "avg_after": avg_after}


def event_window_pre_post(
    ids: np.ndarray,
    ht: np.ndarray,
    val: np.ndarray,
    is_event: np.ndarray,
    wind: float,
) -> dict[str, np.ndarray]:
    """PrePost variant (:1460-1503): backward + forward trapezoid windows and
    trends; NaN when either side has no neighbors."""
    ids = np.asarray(ids)
    ht = np.asarray(ht, dtype=np.float64)
    val = np.asarray(val, dtype=np.float64)
    ev_idx = np.flatnonzero(np.asarray(is_event) == 1)
    n_ev = ev_idx.size
    out = {
        k: np.full(n_ev, np.nan)
        for k in ("num_before", "num_after", "avg_before", "avg_after",
                  "avg_now", "trend_before", "trend_after")
    }
    out_pos = {int(i): k for k, i in enumerate(ev_idx)}
    starts, lens = run_bounds(ids)
    for s, e in zip(starts, starts + lens):
        seg_ht = ht[s:e]
        seg_val = val[s:e]
        prefix = _trapz_prefix(seg_val, seg_ht)
        seg_ev = ev_idx[(ev_idx >= s) & (ev_idx < e)] - s
        if seg_ev.size == 0:
            continue
        fwd = np.searchsorted(seg_ht, seg_ht[seg_ev] + wind, side="right") - 1
        bck = np.searchsorted(seg_ht, seg_ht[seg_ev] - wind, side="left")
        ok = (fwd > seg_ev) & (bck < seg_ev)
        span_f = seg_ht[fwd] - seg_ht[seg_ev]
        span_b = seg_ht[seg_ev] - seg_ht[bck]
        with np.errstate(invalid="ignore", divide="ignore"):
            avg_f = np.where(span_f > 0, (prefix[fwd] - prefix[seg_ev]) / np.where(span_f > 0, span_f, 1.0), seg_val[seg_ev])
            avg_b = np.where(span_b > 0, (prefix[seg_ev] - prefix[bck]) / np.where(span_b > 0, span_b, 1.0), seg_val[seg_ev])
        for j, local in enumerate(seg_ev):
            if not ok[j]:
                continue
            k = out_pos[int(local + s)]
            now = seg_val[local]
            out["num_before"][k] = local - bck[j] + 1
            out["num_after"][k] = fwd[j] - local
            out["avg_before"][k] = avg_b[j]
            out["avg_after"][k] = avg_f[j]
            out["avg_now"][k] = now
            out["trend_before"][k] = now - avg_b[j]
            out["trend_after"][k] = avg_f[j] - now
    return out
