"""Vectorized sequential-scan operators (engine side).

Same semantics as ``mpds_ray.oracle.scans`` (the loop oracle transliterated
from mimicUsefulFunction.R) but in NumPy over the entity runs of
``partition.run_bounds``, with no loop over rows or entities: fills, shifts
and firsts are index arithmetic on the runs (the last/next valid row within
the run), cumulative scans are ``partition.seg_accumulate`` and per-run
spans ``reduceat``. Inputs are arrays sorted by (entity, ts), where an
entity is a run of equal ids (the flagship passes integer entity codes);
outputs are aligned arrays. They run in the reduce task of a hash exchange
on one (entity, ts)-sorted bucket, which holds every row of its entities
(see stages/partition.py). A piece of an entity (the flagship's chunks
and salted ranges) is scanned from the state of the pieces before it: the
carried last row in front, with its accumulators (stages/salted.py).
"""

from __future__ import annotations

import numpy as np

from .partition import run_bounds, seg_accumulate


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


def trapezoid_area(s, s_prev, t, t_prev):
    """The trapezoid area between two samples, ``0.5 * (s + s_prev) *
    (t - t_prev)``, 0 where it is NaN. The one expression of the prefix
    scan's cum-area chain and of the carry fold that sums a piece's areas
    (stages/salted.py): their byte identity rests on its float order."""
    return np.nan_to_num(0.5 * (s + s_prev) * (t - t_prev), nan=0.0)


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
    t = np.asarray(ht, dtype=np.float64)
    v = np.asarray(vec, dtype=np.float64)
    run_start, run_end = _run_rows(id_arr)
    na = np.isnan(v)
    prev_i = _last_valid(~na, run_start, strict=False)
    next_i = _next_valid(~na, run_end, strict=False)

    out = v.copy()
    # interior gap: both neighbors exist
    both = na & (prev_i >= 0) & (next_i >= 0)
    p = prev_i[both]
    q = next_i[both]
    dt = t[q] - t[p]
    frac = np.where(dt != 0, (t[both] - t[p]) / np.where(dt != 0, dt, 1.0), 0.0)
    out[both] = v[p] + frac * (v[q] - v[p])
    # trailing: only prev
    trail = na & (prev_i >= 0) & (next_i < 0)
    out[trail] = v[prev_i[trail]]
    # leading / all-NA entity
    out[na & (prev_i < 0)] = default
    return out


def sample_and_hold(id_arr, vec, default) -> np.ndarray:
    """Vectorized T7 (mimicUsefulFunction.R:711-718)."""
    v = np.asarray(vec, dtype=np.float64)
    run_start, _ = _run_rows(id_arr)
    prev = _last_valid(~np.isnan(v), run_start, strict=False)
    return np.where(prev >= 0, v[np.maximum(prev, 0)], default)


def remove_short_on_intervals(id_arr, ht, vec, time_th) -> np.ndarray:
    """Vectorized T8 debounce (mimicUsefulFunction.R:384-436): keep ON-runs
    whose span (last ON ts - first ON ts) >= time_th. Reproduces the reference
    quirk that a single-row run terminating at the entity's last row is
    dropped even when time_th <= 0."""
    t = np.asarray(ht, dtype=np.float64)
    sig = np.nan_to_num(np.asarray(vec, dtype=np.float64), nan=0.0)
    ent_starts, ent_lens = run_bounds(id_arr)
    on = sig == 1
    rise = on & ~np.r_[False, on[:-1]]
    rise[ent_starts] = on[ent_starts]  # ON-runs never straddle entities
    on_rows = np.flatnonzero(on)
    starts, lens = run_bounds(np.cumsum(rise)[on_rows])
    t_on = t[on_rows]
    span = np.fmax.reduceat(t_on, starts) - np.fmin.reduceat(t_on, starts)
    single = np.add.reduceat(~np.isnan(t_on), starts) == 1  # one timed row
    # reference quirk: a 1-row run at the entity's LAST row never survives
    is_last = np.zeros(sig.size, dtype=bool)
    is_last[ent_starts + ent_lens - 1] = True
    keep = np.repeat(span >= time_th, lens) & ~(np.repeat(single, lens) & is_last[on_rows])
    out = np.zeros(sig.size)
    out[on_rows[keep]] = 1.0
    return out


def unite_adjacent_on_intervals(id_arr, ht, vec, union_th) -> np.ndarray:
    """Vectorized T9 gap-merge (mimicUsefulFunction.R:449-494): OFF-gaps
    bounded by ON on both sides within one entity are turned ON when
    (first ON ts after gap) - (last ON ts before gap) <= union_th."""
    t = np.asarray(ht, dtype=np.float64).copy()
    t[t < 0] = 0  # reference compatibility clamp
    sig = np.nan_to_num(np.asarray(vec, dtype=np.float64), nan=0.0)
    run_start, run_end = _run_rows(id_arr)
    on_ts = np.where(sig == 1, t, np.nan)
    timed = ~np.isnan(on_ts)
    prev_on = _gather(on_ts, _last_valid(timed, run_start, strict=False))
    next_on = _gather(on_ts, _next_valid(timed, run_end, strict=False))
    fill = (
        (sig == 0)
        & ~np.isnan(prev_on)
        & ~np.isnan(next_on)
        & ((next_on - prev_on) <= union_th)
    )
    return np.where(fill, 1.0, sig)


def _cum_extreme(ufunc: np.ufunc, s: np.ndarray, starts, lens, run_start, run_end):
    """pandas' grouped cummax (``np.fmax``) or cummin (``np.fmin``): NaN
    rows stay NaN and are skipped, and of equal extremes the first seen
    stays, so a zero extreme has the sign of its run's first zero."""
    out = seg_accumulate(ufunc, s, starts, lens)
    out[np.isnan(s)] = np.nan
    zero = np.flatnonzero(out == 0)
    out[zero] = s[_next_valid(s == 0, run_end, strict=False)[run_start[zero]]]
    return out


def prefix_features(id_arr, ht, score, carry: dict | None = None) -> dict[str, np.ndarray]:
    """Vectorized T12 (dssFunctionLibrary.R:876-917): per-entity cumulative
    max/min/sum, running mean, trapezoid time-weighted running mean, and
    rate-of-change. The cumulative max/min/sum skip a NaN score and are NaN
    on its row, as pandas' grouped cum* are. With ``carry``, row 0 is the
    last row of an earlier piece of its entity, and cummax, twmean and roc
    continue from that row's accumulators: ``cummax``, ``cum_area_end`` and
    the entity's first non-NaN ts and score ``t0``, ``s0`` (a NaN one yields
    to the run's own) (stages/salted.state_scans)."""
    t = np.asarray(ht, dtype=np.float64)
    s = np.asarray(score, dtype=np.float64)
    starts, lens = run_bounds(id_arr)
    run_start, run_end = np.repeat(starts, lens), np.repeat(starts + lens, lens)

    def carried(x, key):  # x with row 0's accumulator ``key`` from the carry
        return x if carry is None else np.r_[carry[key], x[1:]]

    cmax = _cum_extreme(np.fmax, carried(s, "cummax"), starts, lens, run_start, run_end)
    cmin = _cum_extreme(np.fmin, s, starts, lens, run_start, run_end)
    # the loop oracle's sequential per-run sum; adding -0.0 changes nothing
    nan = np.isnan(s)
    csum = seg_accumulate(np.add, np.where(nan, -0.0, s), starts, lens)
    csum[nan] = np.nan
    rmean = csum / (np.arange(s.size) - run_start + 1)

    prev = np.arange(s.size) - 1
    prev[starts] = -1
    prev_t, prev_s = _gather(t, prev), _gather(s, prev)
    dt = t - prev_t
    # per-entity SEQUENTIAL cumsum of the areas: a carried piece continues
    # it from row 0's cum-area, which the carry fold sums up (stages/salted.py)
    # and is only bit-reproducible for plain left-to-right addition
    area = carried(trapezoid_area(s, prev_s, t, prev_t), "cum_area_end")
    cum_area = seg_accumulate(np.add, area, starts, lens)
    # the first non-NaN time and score of each run
    t_in, s_in = carried(t, "t0"), carried(s, "s0")
    t0 = _gather(t_in, _next_valid(~np.isnan(t_in), run_end, strict=False)[run_start])
    s0 = _gather(s_in, _next_valid(~np.isnan(s_in), run_end, strict=False)[run_start])
    span = t - t0
    twmean = np.where(span > 0, cum_area / np.where(span > 0, span, 1.0), s0)

    dv = s - prev_s
    roc = np.where(np.nan_to_num(dt, nan=0.0) > 0, dv / np.where(dt > 0, dt, 1.0), np.nan)
    return {
        "cummax": cmax,
        "cummin": cmin,
        "cumsum": csum,
        "runmean": rmean,
        "twmean": twmean,
        "roc": roc,
    }
