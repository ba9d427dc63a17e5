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

Vectorized over the entity runs of ``partition.run_bounds``, with no loop
over events or entities: each window edge is one ``partition.search_runs``
call over (entity, ht +/- wind), and the trapezoid sums are one
``partition.seg_accumulate`` prefix per entity, evaluated at the edges.
"""

from __future__ import annotations

import numpy as np

from .partition import run_bounds, search_runs, seg_accumulate


def time_weighted_average(val: np.ndarray, ht: np.ndarray) -> float:
    val = np.asarray(val, dtype=np.float64)
    ht = np.asarray(ht, dtype=np.float64)
    if val.size == 1:
        return float(val[0])
    dv = np.diff(val) / 2.0
    dht = np.diff(ht)
    return float(np.sum((val[:-1] + dv) * dht) / np.sum(dht))


def _window_edges(ids, ht, val, is_event, wind):
    """The event rows, their values, the prefix integral of each entity's
    trapezoid curve, and each event's forward (last row within ``+wind``)
    and backward (first row within ``-wind``) window edge in its entity.
    ``prefix[i]`` is the integral over ht[run start .. i], the sequential
    per-run sum of the rows' areas (:1350-1368's ``(v[:-1] + dv/2) * dht``)."""
    ht = np.asarray(ht, dtype=np.float64)
    val = np.asarray(val, dtype=np.float64)
    ev = np.flatnonzero(np.asarray(is_event) == 1)
    starts, lens = run_bounds(np.asarray(ids))
    run = np.repeat(np.arange(starts.size), lens)
    area = np.zeros(ht.size)
    area[1:] = (val[:-1] + np.diff(val) / 2.0) * np.diff(ht)
    area[starts] = 0.0
    # each run's areas start at its second row, so no 0.0 is ever added
    prefix = seg_accumulate(np.add, area, starts + 1, lens - 1)
    fwd = search_runs(run[ev], ht[ev] + wind, run, ht, side="right") - 1
    bck = search_runs(run[ev], ht[ev] - wind, run, ht, side="left")
    return ht, ev, val[ev], prefix, fwd, bck


def _window_mean(prefix, ht, a, b, fallback):
    """Trapezoid mean over rows a..b; ``fallback`` on a zero-length span."""
    span = ht[b] - ht[a]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(span > 0, (prefix[b] - prefix[a]) / np.where(span > 0, span, 1.0), fallback)


def event_window_response(
    ids: np.ndarray,
    ht: np.ndarray,
    val: np.ndarray,
    is_event: np.ndarray,
    wind: float,
) -> dict[str, np.ndarray]:
    """Forward variant (:1434-1453). Output arrays align with the event rows
    (in input order): num_after, avg_before, avg_after."""
    ht, ev, now, prefix, fwd, _ = _window_edges(ids, ht, val, is_event, wind)
    ok = fwd > ev
    return {
        "num_after": np.where(ok, fwd - ev + 1, np.nan),
        "avg_before": np.where(ok, now, np.nan),
        "avg_after": np.where(ok, _window_mean(prefix, ht, ev, fwd, now), np.nan),
    }


def event_window_pre_post(
    ids: np.ndarray,
    ht: np.ndarray,
    val: np.ndarray,
    is_event: np.ndarray,
    wind: float,
) -> dict[str, np.ndarray]:
    """PrePost variant (:1460-1503): backward + forward trapezoid windows and
    trends; NaN when either side has no neighbors."""
    ht, ev, now, prefix, fwd, bck = _window_edges(ids, ht, val, is_event, wind)
    ok = (fwd > ev) & (bck < ev)
    avg_b = _window_mean(prefix, ht, bck, ev, now)
    avg_f = _window_mean(prefix, ht, ev, fwd, now)
    cols = {
        "num_before": ev - bck + 1,
        "num_after": fwd - ev,
        "avg_before": avg_b,
        "avg_after": avg_f,
        "avg_now": now,
        "trend_before": now - avg_b,
        "trend_after": avg_f - now,
    }
    return {k: np.where(ok, v, np.nan) for k, v in cols.items()}
