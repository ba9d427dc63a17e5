"""Vectorized sequential-scan operators (engine side).

Same semantics as ``mpds_ray.oracle.scans`` (the loop oracle transliterated
from mimicUsefulFunction.R) but vectorized over the entity runs of
``partition.run_bounds``: the forward/backward scans are NumPy segment
operations (last/next valid row within the run, then a copy and one
subtraction), the remaining scans use pandas grouped ffill/bfill/cum* —
no Python loop over rows. Inputs are arrays sorted by (entity, ts), where
an entity is a run of equal ids (the flagship passes integer entity codes);
outputs are aligned arrays. They run in the reduce task of a hash exchange
on one (entity, ts)-sorted bucket, which holds every row of its entities,
so no cross-bucket carry state is needed (see stages/partition.py; a salted
heavy entity is stitched by stages/salted.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .partition import run_bounds


def _series(x) -> pd.Series:
    return pd.Series(np.asarray(x))


def _last_valid(valid: np.ndarray, run_start: np.ndarray, strict: bool) -> np.ndarray:
    """Per row, the index of the last ``valid`` row at or before it
    (strictly before with ``strict``) inside its entity run; -1 if none."""
    idx = np.where(valid, np.arange(valid.size), -1)
    np.maximum.accumulate(idx, out=idx)
    if strict:
        idx[1:] = idx[:-1].copy()
        idx[:1] = -1
    return np.where(idx >= run_start, idx, -1)


def _next_valid(valid: np.ndarray, run_end: np.ndarray, strict: bool) -> np.ndarray:
    """Per row, the index of the first ``valid`` row at or after it
    (strictly after with ``strict``) inside its entity run; -1 if none."""
    n = valid.size
    idx = np.where(valid, np.arange(n), n)[::-1]
    idx = np.minimum.accumulate(idx)[::-1]
    if strict:
        idx[:-1] = idx[1:].copy()
        idx[-1:] = n
    return np.where(idx < run_end, idx, -1)


def _gather(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``x[idx]``, NaN where ``idx`` is -1."""
    return np.where(idx >= 0, x[np.maximum(idx, 0)], np.nan)


def _run_rows(id_arr) -> tuple[np.ndarray, np.ndarray]:
    """Each row's entity-run start and end (exclusive)."""
    starts, lens = run_bounds(id_arr)
    return np.repeat(starts, lens), np.repeat(starts + lens, lens)


def time_since_to_event(id_arr, ht, event) -> dict[str, np.ndarray]:
    """Vectorized T4 (mimicUsefulFunction.R:23-94): per-entity forward scan
    (time since last/first event, events strictly BEFORE the row) and backward
    scan (time to next event), with entity-boundary resets. An event row
    with a NaN time is no event."""
    ht = np.asarray(ht, dtype=np.float64)
    ev_ts = np.where(np.asarray(event) == 1, ht, np.nan)
    ev = ~np.isnan(ev_ts)
    run_start, run_end = _run_rows(id_arr)
    prev = _last_valid(ev, run_start, strict=True)
    prev_ev = _gather(ev_ts, prev)
    # the entity's first event, wherever an event precedes the row
    first_ev = _gather(ev_ts, np.where(prev >= 0, _next_valid(ev, run_end, False)[run_start], -1))
    next_ev = _gather(ev_ts, _next_valid(ev, run_end, strict=True))

    t_since_last = ht - prev_ev
    t_since_first = ht - first_ev
    t_next = next_ev - ht
    t_to_first = np.where(~np.isnan(t_next) & np.isnan(t_since_first), t_next, np.nan)
    return {
        "time_to_next_event": t_next,
        "time_to_first_event": t_to_first,
        "time_since_last_event": t_since_last,
        "time_since_first_event": t_since_first,
    }


def locf_with_expiration(id_arr, ht, vec, valid_time) -> dict[str, np.ndarray]:
    """Vectorized T5 (mimicUsefulFunction.R:301-332): grouped LOCF, time since
    last observed sample, and the LOCF value expired after ``valid_time``."""
    ht = np.asarray(ht, dtype=np.float64)
    v = np.asarray(vec, dtype=np.float64)
    run_start, _ = _run_rows(id_arr)
    locf = _gather(v, _last_valid(~np.isnan(v), run_start, strict=False))
    sample_ts = np.where(~np.isnan(v), ht, np.nan)
    sample_ts = _gather(sample_ts, _last_valid(~np.isnan(sample_ts), run_start, strict=False))
    tsls = ht - sample_ts
    expir = np.where(~np.isnan(tsls) & (tsls > valid_time), np.nan, locf)
    return {
        "locf": locf,
        "time_since_last_sample": tsls,
        "locf_with_expir": expir,
    }


def linear_interpolation(id_arr, ht, vec, default) -> np.ndarray:
    """Vectorized T6 (mimicUsefulFunction.R:631-708): per-entity linear
    interpolation of NA gaps in event time; leading NAs (and all-NA entities)
    get ``default``; trailing NAs carry the last observation."""
    ids = _series(id_arr)
    t = np.asarray(ht, dtype=np.float64)
    v = np.asarray(vec, dtype=np.float64)
    n = v.size
    idx = np.arange(n, dtype=np.float64)
    obs_idx = pd.Series(np.where(~np.isnan(v), idx, np.nan))
    prev_i = obs_idx.groupby(ids, sort=False).ffill().to_numpy()
    next_i = obs_idx.groupby(ids, sort=False).bfill().to_numpy()

    out = v.copy()
    na = np.isnan(v)
    # interior gap: both neighbors exist
    both = na & ~np.isnan(prev_i) & ~np.isnan(next_i)
    p = prev_i[both].astype(np.int64)
    q = next_i[both].astype(np.int64)
    dt = t[q] - t[p]
    frac = np.where(dt != 0, (t[both] - t[p]) / np.where(dt != 0, dt, 1.0), 0.0)
    out[both] = v[p] + frac * (v[q] - v[p])
    # trailing: only prev
    trail = na & ~np.isnan(prev_i) & np.isnan(next_i)
    out[trail] = v[prev_i[trail].astype(np.int64)]
    # leading / all-NA entity
    out[na & np.isnan(prev_i)] = default
    return out


def sample_and_hold(id_arr, vec, default) -> np.ndarray:
    """Vectorized T7 (mimicUsefulFunction.R:711-718)."""
    ids = _series(id_arr)
    v = pd.Series(np.asarray(vec, dtype=np.float64))
    return v.groupby(ids, sort=False).ffill().fillna(default).to_numpy()


def _on_run_ids(sig: np.ndarray, ent_starts: np.ndarray) -> np.ndarray:
    """Monotone run id per ON-run (0 for OFF rows); runs never straddle
    entities (``ent_starts`` are the entity runs' first rows)."""
    on = sig == 1
    prev_on = np.r_[False, on[:-1]]
    prev_on[ent_starts] = False
    run = np.cumsum(on & ~prev_on)
    return np.where(on, run, 0)


def remove_short_on_intervals(id_arr, ht, vec, time_th) -> np.ndarray:
    """Vectorized T8 debounce (mimicUsefulFunction.R:384-436): keep ON-runs
    whose span (last ON ts - first ON ts) >= time_th. Reproduces the reference
    quirk that a single-row run terminating at the entity's last row is
    dropped even when time_th <= 0."""
    t = np.asarray(ht, dtype=np.float64)
    sig = np.nan_to_num(np.asarray(vec, dtype=np.float64), nan=0.0)
    ent_starts, ent_lens = run_bounds(id_arr)
    run = _on_run_ids(sig, ent_starts)
    on = run > 0
    if not on.any():
        return np.zeros(sig.size)
    df = pd.DataFrame({"run": run[on], "t": t[on]})
    spans = df.groupby("run")["t"].agg(["min", "max", "count"])
    keep_runs = spans.index[(spans["max"] - spans["min"]) >= time_th]
    keep = np.isin(run, keep_runs) & on
    # reference quirk: a 1-row run at the entity's LAST row never survives
    is_last = np.zeros(sig.size, dtype=bool)
    is_last[ent_starts + ent_lens - 1] = True
    singles = spans.index[spans["count"] == 1]
    keep &= ~(np.isin(run, singles) & is_last)
    return keep.astype(np.float64)


def unite_adjacent_on_intervals(id_arr, ht, vec, union_th) -> np.ndarray:
    """Vectorized T9 gap-merge (mimicUsefulFunction.R:449-494): OFF-gaps
    bounded by ON on both sides within one entity are turned ON when
    (first ON ts after gap) - (last ON ts before gap) <= union_th."""
    ids = _series(id_arr)
    t = np.asarray(ht, dtype=np.float64).copy()
    t[t < 0] = 0  # reference compatibility clamp
    sig = np.nan_to_num(np.asarray(vec, dtype=np.float64), nan=0.0)
    on_ts = pd.Series(np.where(sig == 1, t, np.nan))
    prev_on = on_ts.groupby(ids, sort=False).ffill().to_numpy()
    next_on = on_ts.groupby(ids, sort=False).bfill().to_numpy()
    fill = (
        (sig == 0)
        & ~np.isnan(prev_on)
        & ~np.isnan(next_on)
        & ((next_on - prev_on) <= union_th)
    )
    return np.where(fill, 1.0, sig)


def prefix_features(id_arr, ht, score) -> dict[str, np.ndarray]:
    """Vectorized T12 (dssFunctionLibrary.R:876-917): per-entity cumulative
    max/min/sum, running mean, trapezoid time-weighted running mean, and
    rate-of-change."""
    ids = _series(id_arr)
    t = np.asarray(ht, dtype=np.float64)
    s = pd.Series(np.asarray(score, dtype=np.float64))
    g = s.groupby(ids, sort=False)
    cmax = g.cummax().to_numpy()
    cmin = g.cummin().to_numpy()
    csum = g.cumsum().to_numpy()
    cnt = g.cumcount().to_numpy() + 1
    rmean = csum / cnt

    ts_ser = pd.Series(t)
    tg = ts_ser.groupby(ids, sort=False)
    prev_t = tg.shift(1).to_numpy()
    prev_s = g.shift(1).to_numpy()
    dt = t - prev_t
    area = 0.5 * (s.to_numpy() + prev_s) * dt
    # per-entity SEQUENTIAL naive cumsum (np.add.accumulate), NOT pandas'
    # Kahan-compensated group cumsum: the salted boundary-stitch replays this
    # chain from a carried scalar (stages/salted.py), which is only
    # bit-reproducible for plain left-to-right addition — and it matches the
    # reference loop oracle's `acc += area` semantics exactly.
    area_z = np.nan_to_num(area, nan=0.0)
    cum_area = np.empty_like(area_z)
    starts, lens = run_bounds(ids.to_numpy())
    for s_, e_ in zip(starts, starts + lens):
        cum_area[s_:e_] = np.cumsum(area_z[s_:e_])
    t0 = tg.transform("first").to_numpy()
    s0 = g.transform("first").to_numpy()
    span = t - t0
    twmean = np.where(span > 0, cum_area / np.where(span > 0, span, 1.0), s0)

    dv = s.to_numpy() - prev_s
    roc = np.where(np.nan_to_num(dt, nan=0.0) > 0, dv / np.where(dt > 0, dt, 1.0), np.nan)
    return {
        "cummax": cmax,
        "cummin": cmin,
        "cumsum": csum,
        "runmean": rmean,
        "twmean": twmean,
        "roc": roc,
    }
