"""Longitudinal operators over the events stream (the flagship semantics on
driver testdata): sessionize, lag/lead, LOCF, as-of with tolerance, debounce,
tumbling windows, prefix scans — each with a DuckDB window-function oracle.

All pipelines establish the (user_id, ts)-sorted entity-complete invariant
via ONE user-hash exchange (stages.exchange.hash_exchange), then run the
vectorized scans of mpds_ray.stages per bucket. Ties in ts are broken by
event_id (both sides), making every output deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages import sketch
from ..stages.asof import asof_join_arrays
from ..stages.scans import (
    locf_with_expiration,
    prefix_features,
    remove_short_on_intervals,
    time_since_to_event,
)
from ..stages.exchange import hash_exchange, shard_map
from ..stages.partition import length_groups, run_bounds, search_runs, seg_accumulate
from ..stages.sessionize import sessionize_gap
from ..stages.sketch import kmv_merge_count, kmv_partial, shard_quantiles
from .common import round_half_away, shard_groupby_sum, shard_list

SESSION_GAP = 1800.0  # 30 min


def _per_bucket_events(sf_dir: str, columns: list[str], fn):
    """The events-table bucket scan over the explicit hash exchange: map
    tasks read pruned shard columns and convert ts to epoch seconds; reduce
    tasks sort their bucket (user_id, ts, event_id) and run ``fn`` on it.
    Every user lands wholly in one bucket, so ``fn`` sees entity-complete,
    (user_id, ts, event_id)-sorted rows at any bucket count."""
    import pyarrow as pa

    shards = shard_list(sf_dir, "events")
    cols = list(dict.fromkeys(columns + ["user_id", "ts", "event_id"]))

    def map_fn(t: pa.Table) -> pa.Table:
        epoch = pa.array(t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) / 1e6)
        return t.set_column(t.schema.get_field_index("ts"), "ts", epoch)

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = (
            tbl.to_pandas()
            .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        return fn(g)

    return hash_exchange(shards, map_fn, "user_id", reduce_fn, columns=cols)


# --- T2/T9: gap sessionize + per-session aggregate (A2) ---


def sessionize_user_events(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        sid = sessionize_gap(g["user_id"].to_numpy(), g["ts"].to_numpy(), SESSION_GAP)
        g["_sid"] = sid
        out = (
            g.groupby(["user_id", "_sid"], sort=True)
            .agg(n_events=("event_id", "size"), t_start=("ts", "min"), t_end=("ts", "max"),
                 sum_value=("value", "sum"))
            .reset_index()
        )
        out["session_seq"] = out.groupby("user_id").cumcount()
        out["duration"] = (out["t_end"] - out["t_start"]).round(6)
        out["sum_value"] = out["sum_value"].round(2)
        out["t_start"] = out["t_start"].round(6)
        out["t_end"] = out["t_end"].round(6)
        return out[["user_id", "session_seq", "n_events", "t_start", "t_end", "duration", "sum_value"]]

    return _per_bucket_events(sf_dir, ["value"], fn)


SESSIONIZE_SQL = f"""
WITH e AS (
  SELECT user_id, event_id, value, epoch(ts) AS ts FROM events
), m AS (
  SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > {SESSION_GAP}
                 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_seq
  FROM m
)
SELECT user_id, session_seq, count(*) AS n_events,
       round(min(ts), 6) AS t_start, round(max(ts), 6) AS t_end,
       round(max(ts) - min(ts), 6) AS duration,
       round(sum(value), 2) AS sum_value
FROM s GROUP BY user_id, session_seq
"""

def session_funnel(sf_dir: str):
    """Sessionized funnel conversion (view → later purchase in the SAME
    session): each bucket sessionizes its users, computes per-session
    first-view timestamps with a masked-min transform and flags purchases
    at/after it — all vectorized — then emits ONE partial count row, so the
    driver folds a bucket-count-bounded frame into three exact int64 counts
    and a rate that is a single int/int double division on both sides."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        sid = sessionize_gap(g["user_id"].to_numpy(), g["ts"].to_numpy(), SESSION_GAP)
        g = g.assign(_sid=sid)
        vts = np.where(g["event_type"].to_numpy() == "view",
                       g["ts"].to_numpy(), np.inf)
        g = g.assign(_vts=vts)
        grp = g.groupby(["user_id", "_sid"], sort=False)
        first_view = grp["_vts"].transform("min").to_numpy()
        conv = (g["event_type"].to_numpy() == "purchase") & (
            g["ts"].to_numpy() >= first_view
        )
        per_sess = grp.agg(
            has_view=("_vts", lambda v: bool(np.isfinite(v).any())),
        )
        per_sess["converted"] = pd.Series(conv, index=g.index).groupby(
            [g["user_id"], g["_sid"]], sort=False
        ).any()
        return pd.DataFrame(
            {
                "n_sessions": [len(per_sess)],
                "sessions_with_view": [int(per_sess.has_view.sum())],
                "converted_sessions": [int(per_sess.converted.sum())],
            }
        )

    parts = _per_bucket_events(sf_dir, ["event_type"], fn)
    out = parts.sum().to_frame().T.astype(np.int64)
    out["conversion_rate"] = float(out.converted_sessions.iloc[0]) / float(
        out.sessions_with_view.iloc[0]
    )
    return out.reset_index(drop=True)


FUNNEL_SQL = f"""
WITH e AS (
  SELECT user_id, event_id, event_type, epoch(ts) AS ts FROM events
), m AS (
  SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > {SESSION_GAP}
                 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS session_seq
  FROM m
), sess AS (
  SELECT user_id, session_seq,
         min(CASE WHEN event_type = 'view' THEN ts END) AS first_view
  FROM s GROUP BY user_id, session_seq
), conv AS (
  SELECT s.user_id, s.session_seq,
         max(CASE WHEN s.event_type = 'purchase' AND s.ts >= sess.first_view
                  THEN 1 ELSE 0 END) AS converted,
         max(CASE WHEN sess.first_view IS NOT NULL THEN 1 ELSE 0 END) AS has_view
  FROM s JOIN sess USING (user_id, session_seq)
  GROUP BY s.user_id, s.session_seq
)
SELECT count(*) AS n_sessions,
       CAST(sum(has_view) AS BIGINT) AS sessions_with_view,
       CAST(sum(converted) AS BIGINT) AS converted_sessions,
       CAST(sum(converted) AS DOUBLE) / CAST(sum(has_view) AS DOUBLE)
         AS conversion_rate
FROM conv
"""


def user_value_lag_lead(sf_dir: str):
    """Per-event lag/lead/delta of value within each user's timeline — the
    north-star's lag/lead feature as a bucket scan: each reduce task holds
    its bucket sorted by (user_id, ts, event_id), so lag/lead are two
    shifted views with user-boundary rows masked to NaN (no per-row loop,
    no window shuffle). Entity-hash partitioning guarantees a user never
    straddles buckets, so boundaries are exact."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy()
        u = g["user_id"].to_numpy()
        starts, lens = run_bounds(u)
        lag = np.empty_like(v)
        lag[1:] = v[:-1]
        lag[starts] = np.nan
        lead = np.empty_like(v)
        lead[:-1] = v[1:]
        lead[starts + lens - 1] = np.nan
        return pd.DataFrame(
            {
                "user_id": u,
                "event_id": g["event_id"].to_numpy().astype(np.int64),
                "value": v,
                "value_lag1": lag,
                "value_lead1": lead,
                "value_delta": v - lag,
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


LAG_LEAD_SQL = """
SELECT user_id, event_id, value,
       lag(value)  OVER w AS value_lag1,
       lead(value) OVER w AS value_lead1,
       value - lag(value) OVER w AS value_delta
FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def user_mode_event_type(sf_dir: str):
    """Grouped mode (most frequent event_type per user), ties broken by
    type name: counts are associative, so map tasks pre-reduce each shard
    to (user, type, n) partials — the exchange moves at most
    |users|×|types| rows per shard regardless of row count — and each
    reduce bucket folds partials and takes one deterministic argmax row
    per user."""

    shards = shard_list(sf_dir, "events")

    def map_fn(t):
        import pyarrow as pa

        g = (
            pd.DataFrame(
                {
                    "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                    "event_type": t["event_type"].to_pandas(),
                }
            )
            .groupby(["user_id", "event_type"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = (
            tbl.to_pandas()
            .groupby(["user_id", "event_type"], as_index=False, sort=False)["n"]
            .sum()
        )
        top = (
            g.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
            .groupby("user_id", as_index=False, sort=False)
            .head(1)
        )
        return pd.DataFrame(
            {
                "user_id": top["user_id"],
                "top_type": top["event_type"],
                "n_events": top["n"].astype(np.int64),
            }
        )

    out = hash_exchange(
        shards, map_fn, "user_id", reduce_fn, columns=["user_id", "event_type"]
    )
    return out.sort_values("user_id").reset_index(drop=True)


MODE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n FROM events GROUP BY 1, 2
), r AS (
  SELECT *, row_number() OVER (PARTITION BY user_id
                               ORDER BY n DESC, event_type) AS rn
  FROM c
)
SELECT user_id, event_type AS top_type, n AS n_events
FROM r WHERE rn = 1 ORDER BY user_id
"""


def user_value_percent_rank(sf_dir: str):
    """Per-user rank and percent_rank of value — the window-rank feature as
    a bucket scan: each bucket re-sorts by (user, value, event_id) with ONE
    stable mergesort, then rank is arange minus a repeated segment start
    (no per-group loop). The (value, event_id) order key is a total order,
    so percent_rank degenerates to (row_number-1)/(n-1) — an integer/integer
    double division computed identically on both sides."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g2 = g.sort_values(["user_id", "value", "event_id"], kind="mergesort")
        u = g2["user_id"].to_numpy()
        starts, seg_len = run_bounds(u)
        idx = np.arange(len(u)) - np.repeat(starts, seg_len)
        denom = np.repeat(seg_len, seg_len) - 1
        pct = np.where(denom > 0, idx / np.maximum(denom, 1), 0.0)
        return pd.DataFrame(
            {
                "user_id": u,
                "event_id": g2["event_id"].to_numpy().astype(np.int64),
                "value": g2["value"].to_numpy(),
                "value_rank": (idx + 1).astype(np.int64),
                "pct_rank": np.round(pct, 9),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


PCT_RANK_SQL = """
SELECT user_id, event_id, value,
       row_number() OVER w AS value_rank,
       round(percent_rank() OVER w, 9) AS pct_rank
FROM events WINDOW w AS (PARTITION BY user_id ORDER BY value, event_id)
"""


def user_time_weighted_value(sf_dir: str):
    """Time-weighted (LOCF-held) mean value per user: each event's value
    holds until the next event, so the weight is the forward gap and the
    mean is Σ v·Δt over the user's span — two segment reduceats over the
    sorted bucket, no window shuffle. Single-event / zero-span users are
    excluded on both sides (HAVING span > 0)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        v = g["value"].to_numpy()
        starts, lens = run_bounds(u)
        last = starts + lens - 1
        dt = np.empty_like(ts)
        dt[:-1] = ts[1:] - ts[:-1]
        dt[last] = 0.0
        num = np.add.reduceat(v * dt, starts)
        span = ts[last] - ts[starts]
        mask = span > 0
        return pd.DataFrame(
            {
                "user_id": u[starts][mask],
                "twa_value": np.round(num[mask] / span[mask], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


TWA_SQL = """
WITH e AS (
  SELECT user_id, event_id, value, epoch(ts) AS ts FROM events
), w AS (
  SELECT user_id, value, ts,
         lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM e
)
SELECT user_id,
       round(sum(value * (nxt - ts)) / (max(ts) - min(ts)), 6) AS twa_value
FROM w GROUP BY user_id HAVING max(ts) > min(ts) ORDER BY user_id
"""


def user_value_ewma(sf_dir: str):
    """Final exponentially-weighted moving average of ``value`` per user
    (s_0 = x_0, s_i = α·x_i + (1-α)·s_{i-1} over (ts, event_id) order).
    The recursion unrolls to a weighted sum — w_i = (α if i>0 else 1) ·
    (1-α)^(n-1-i) — so the scan is position-from-segment-start arithmetic
    plus one segment reduceat: no sequential state, no window shuffle.
    Rounded to 6 dp on both sides (the unrolled sum's ADDITION ORDER is the
    only Ray/SQL difference; ~1e-15 relative)."""
    alpha = EWMA_ALPHA

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        v = g["value"].to_numpy()
        starts, seglen = run_bounds(u)
        pos = np.arange(len(u)) - np.repeat(starts, seglen)
        w = np.power(1.0 - alpha, np.repeat(seglen, seglen) - 1 - pos)
        w[pos > 0] *= alpha
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "ewma": np.round(np.add.reduceat(v * w, starts), 6),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


EWMA_ALPHA = 0.3
EWMA_SQL = """
WITH o AS (
  SELECT user_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events
)
SELECT user_id,
       round(sum(value * (CASE WHEN rn = 1 THEN 1.0 ELSE 0.3 END)
                 * power(0.7, n - rn)), 6) AS ewma
FROM o GROUP BY user_id ORDER BY user_id
"""


def event_type_user_reach(sf_dir: str):
    """Exact grouped COUNT(DISTINCT): distinct users per event_type. The
    user-hash exchange makes each user's rows bucket-complete, so per-bucket
    distinct (event_type, user_id) pairs are globally disjoint and the
    driver fold is a plain sum — bounded by |event_type| × buckets rows,
    never the user domain."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).size()
        return out.rename(columns={"size": "n_users"})

    parts = _per_bucket_events(sf_dir, ["event_type"], fn)
    out = parts.groupby("event_type", as_index=False)["n_users"].sum()
    return out.sort_values("event_type").reset_index(drop=True)


REACH_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def event_type_cooccurrence(sf_dir: str):
    """Unordered event-type pair co-occurrence: for every pair (a < b) of
    event types, how many users emitted BOTH. Per bucket the distinct
    (user, type) pairs become a users × types 0/1 indicator matrix whose
    Bᵀ·B upper triangle is the bucket's pair-count matrix (one matmul, no
    pair enumeration); users are bucket-complete so the matrices are
    globally disjoint and the driver sums |types|² ints per bucket."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])
        types = np.unique(d["event_type"].to_numpy())
        u, uinv = np.unique(d["user_id"].to_numpy(), return_inverse=True)
        tinv = np.searchsorted(types, d["event_type"].to_numpy())
        ind = np.zeros((u.size, types.size), dtype=np.int64)
        ind[uinv, tinv] = 1
        cc = ind.T @ ind
        ii, jj = np.triu_indices(types.size, k=1)
        return pd.DataFrame(
            {"type_a": types[ii], "type_b": types[jj], "n_users": cc[ii, jj]}
        )

    parts = _per_bucket_events(sf_dir, ["event_type"], fn)
    out = parts.groupby(["type_a", "type_b"], as_index=False)["n_users"].sum()
    out = out[out.n_users > 0]
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


COOCCURRENCE_SQL = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b, count(*) AS n_users
FROM d a JOIN d b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def user_value_dense_rank(sf_dir: str):
    """dense_rank() of ``value`` per user (ascending): one stable re-sort of
    the bucket by (user, value), a value-change cumsum rebased per segment,
    and a scatter back to event order — no window shuffle, rank is exact
    integer so Ray and SQL are bit-identical."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        v = g["value"].to_numpy()
        e = g["event_id"].to_numpy()
        n = len(u)
        order = np.lexsort((v, u))
        us, vs = u[order], v[order]
        inc = np.zeros(n, dtype=np.int64)
        inc[1:] = ((vs[1:] != vs[:-1]) & (us[1:] == us[:-1])).astype(np.int64)
        cs = np.cumsum(inc)
        starts, seglen = run_bounds(us)
        rank_sorted = 1 + cs - np.repeat(cs[starts], seglen)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = rank_sorted
        out = pd.DataFrame(
            {"user_id": u, "event_id": e, "value": v, "dense_rank": rank}
        )
        return out.sort_values(["user_id", "event_id"])

    return _per_bucket_events(sf_dir, ["value"], fn).sort_values(
        ["user_id", "event_id"]
    ).reset_index(drop=True)


DENSE_RANK_SQL = """
SELECT user_id, event_id, value,
       CAST(dense_rank() OVER (PARTITION BY user_id ORDER BY value) AS BIGINT)
         AS dense_rank
FROM events ORDER BY user_id, event_id
"""


def user_median_gap(sf_dir: str):
    """Median inter-arrival gap per user — a grouped EXACT median over a
    DERIVED column (the window→aggregate composition): gaps come from one
    shifted diff over the sorted bucket (entity boundaries masked) and the
    per-user median is exact because the user-hash exchange makes every
    user's gaps bucket-complete — a per-segment sort + middle-rank gather,
    no sketch needed. Users with < 2 events are excluded on both sides.
    Gaps are float-second diffs of the SAME epoch doubles DuckDB derives,
    and the even-n median is the same (a+b)/2 — rounded 6 dp only to pin
    the epoch-division ulps."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        n = len(u)
        same = np.zeros(n, dtype=bool)
        same[1:] = u[1:] == u[:-1]
        gaps = np.empty(n)
        gaps[1:] = ts[1:] - ts[:-1]
        gu = u[same]
        gv = gaps[same]
        if gu.size == 0:
            return pd.DataFrame({"user_id": [], "median_gap": []})
        # per-segment exact median: one lexsort, then gather the middle
        # rank(s) per segment via its offsets
        order = np.lexsort((gv, gu))
        gu, gv = gu[order], gv[order]
        starts, lens = run_bounds(gu)
        lo = starts + (lens - 1) // 2
        hi = starts + lens // 2
        return pd.DataFrame(
            {
                "user_id": gu[starts],
                "median_gap": np.round((gv[lo] + gv[hi]) / 2.0, 6),
            }
        )

    return _per_bucket_events(sf_dir, [], fn)


MEDIAN_GAP_SQL = """
WITH g AS (
  SELECT user_id,
         epoch(ts) - lag(epoch(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id, round(median(gap), 6) AS median_gap
FROM g WHERE gap IS NOT NULL
GROUP BY user_id ORDER BY user_id
"""


def session_bounce_rate(sf_dir: str):
    """Bounce rate: share of sessions containing exactly one event, plus
    the session counts — one sessionize + bincount per bucket, partials
    folded on the driver (bucket-count-bounded). The rate is the same
    int/int double division in Ray and SQL."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        sid = sessionize_gap(
            g["user_id"].to_numpy(), g["ts"].to_numpy(), SESSION_GAP
        )
        sizes = np.bincount(sid - sid.min())
        sizes = sizes[sizes > 0]
        return pd.DataFrame(
            {
                "n_sessions": [int(sizes.size)],
                "n_bounces": [int((sizes == 1).sum())],
            }
        )

    parts = _per_bucket_events(sf_dir, [], fn)
    tot = parts.sum()
    n_sessions = int(tot["n_sessions"])
    out = pd.DataFrame(
        {
            "n_sessions": [np.int64(n_sessions)],
            "n_bounces": [np.int64(tot["n_bounces"])],
        }
    )
    out["bounce_rate"] = np.round(int(tot["n_bounces"]) / max(n_sessions, 1), 6)
    return out


BOUNCE_SQL = f"""
WITH e AS (
  SELECT user_id, event_id, epoch(ts) AS ts FROM events
), m AS (
  SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > {SESSION_GAP}
                 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
), sz AS (
  SELECT count(*) AS n FROM s GROUP BY user_id, sid
)
SELECT count(*) AS n_sessions,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces,
       round(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1.0
             / greatest(count(*), 1), 6) AS bounce_rate
FROM sz
"""


def signup_view_purchase_funnel(sf_dir: str):
    """Three-step strict-order funnel at USER grain: first signup, then the
    first view strictly after it, then the first purchase strictly after
    that view. Each stage is one masked segment-min over the sorted bucket
    (mask = type match AND ts beyond the previous stage's repeated
    timestamp) — three reduceats, no joins, no window shuffle; each bucket
    emits one partial count row and the conversion is a single int/int
    double division on both sides."""

    inf = np.inf

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        et = g["event_type"].to_numpy()
        starts, seglen = run_bounds(u)

        def stage_min(mask: np.ndarray) -> np.ndarray:
            v = np.where(mask, ts, inf)
            return np.minimum.reduceat(v, starts)

        t1 = stage_min(et == "signup")
        t2 = stage_min((et == "view") & (ts > np.repeat(t1, seglen)))
        t3 = stage_min((et == "purchase") & (ts > np.repeat(t2, seglen)))
        return pd.DataFrame(
            {
                "n_signup": [int(np.isfinite(t1).sum())],
                "n_signup_view": [int(np.isfinite(t2).sum())],
                "n_signup_view_purchase": [int(np.isfinite(t3).sum())],
            }
        )

    parts = _per_bucket_events(sf_dir, ["event_type"], fn)
    tot = parts.sum()
    n1 = int(tot["n_signup"])
    out = pd.DataFrame(
        {
            "n_signup": [np.int64(n1)],
            "n_signup_view": [np.int64(tot["n_signup_view"])],
            "n_signup_view_purchase": [np.int64(tot["n_signup_view_purchase"])],
        }
    )
    out["conversion"] = np.round(
        int(tot["n_signup_view_purchase"]) / max(n1, 1), 6
    )
    return out


FUNNEL3_SQL = """
WITH e AS (SELECT user_id, event_type, epoch(ts) AS ts FROM events),
s1 AS (SELECT user_id, min(ts) AS t1 FROM e WHERE event_type = 'signup'
       GROUP BY 1),
s2 AS (SELECT e.user_id, min(ts) AS t2 FROM e JOIN s1 USING (user_id)
       WHERE event_type = 'view' AND ts > t1 GROUP BY 1),
s3 AS (SELECT e.user_id, min(ts) AS t3 FROM e JOIN s2 USING (user_id)
       WHERE event_type = 'purchase' AND ts > t2 GROUP BY 1)
SELECT (SELECT count(*) FROM s1) AS n_signup,
       (SELECT count(*) FROM s2) AS n_signup_view,
       (SELECT count(*) FROM s3) AS n_signup_view_purchase,
       round((SELECT count(*) FROM s3) * 1.0
             / greatest((SELECT count(*) FROM s1), 1), 6) AS conversion
"""


def hourly_user_value_grid(sf_dir: str):
    """Resample each user's irregular value stream onto the exact hourly
    grid inside their span via LOCF — the align-to-grid shape (reference
    T7 sample-and-hold driven by a GENERATED grid + as-of join). Grid
    points are built vectorized from per-user span bounds (repeat/arange)
    in (user, grid_ts) order, and the hold itself is one bucket-local
    backward ``asof_join_arrays`` (no re-sort, no per-user loop; among
    equal timestamps it takes the last row); output is
    grid-domain-bounded (hours in span × users)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        starts, lens = run_bounds(u)
        ends = starts + lens - 1
        g0 = np.ceil(ts[starts] / 3600.0).astype(np.int64)
        g1 = np.floor(ts[ends] / 3600.0).astype(np.int64)
        cnt = np.maximum(g1 - g0 + 1, 0)
        within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        grid_u = np.repeat(u[starts], cnt)
        grid_ts = (np.repeat(g0, cnt) + within) * 3600.0
        joined = asof_join_arrays(grid_u, grid_ts, u, ts, {"value": g["value"].to_numpy()})
        return pd.DataFrame({"user_id": grid_u, "grid_ts": grid_ts, "value": joined["value"]})

    parts = _per_bucket_events(sf_dir, ["value"], fn)
    return parts.sort_values(["user_id", "grid_ts"]).reset_index(drop=True)


GRID_SQL = """
WITH e AS (
  -- pin the duplicate-(user, ts) tie the way the engine resolves it:
  -- the backward as-of search takes the LAST row among equal timestamps,
  -- which after the bucket's stable (user, ts, event_id) sort is the
  -- max-event_id row;
  -- a bare ASOF JOIN picks an unspecified tie, so dedupe with arg_max
  SELECT user_id, epoch(ts) AS ts, arg_max(value, event_id) AS value
  FROM events GROUP BY user_id, epoch(ts)
),
b AS (
  SELECT user_id, CAST(ceil(min(ts) / 3600.0) AS BIGINT) AS g0,
         CAST(floor(max(ts) / 3600.0) AS BIGINT) AS g1
  FROM e GROUP BY 1
),
grid AS (
  SELECT user_id, unnest(generate_series(g0, g1)) * 3600.0 AS grid_ts
  FROM b WHERE g1 >= g0
)
SELECT g.user_id, g.grid_ts, e.value
FROM grid g ASOF JOIN e ON g.user_id = e.user_id AND g.grid_ts >= e.ts
ORDER BY 1, 2
"""


def user_retention_cohorts(sf_dir: str):
    """Day-grain retention cohorts (the classic growth-analytics triangle):
    cohort = a user's first active day, and for each day offset k, how many
    of that cohort's users were active on cohort+k. The user-hash exchange
    makes each user's rows bucket-complete, so a bucket computes its users'
    cohorts and distinct (user, offset) activity locally and the per-(cohort,
    offset) count partials are globally disjoint — the driver fold is
    bounded by |days|² × buckets, never the user domain."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        day = np.floor(ts / 86400.0).astype(np.int64)
        starts, seglen = run_bounds(u)
        cohort = np.repeat(day[starts], seglen)  # sorted by ts -> min day
        d = pd.DataFrame(
            {"user_id": u, "cohort_day": cohort, "day_offset": day - cohort}
        ).drop_duplicates(["user_id", "day_offset"])
        out = d.groupby(["cohort_day", "day_offset"], as_index=False).size()
        return out.rename(columns={"size": "n_users"})

    parts = _per_bucket_events(sf_dir, [], fn)
    out = parts.groupby(["cohort_day", "day_offset"], as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


RETENTION_SQL = """
WITH e AS (
  SELECT user_id, CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day FROM events
), f AS (
  SELECT user_id, min(day) AS cohort_day FROM e GROUP BY 1
), a AS (
  SELECT DISTINCT e.user_id, cohort_day, day - cohort_day AS day_offset
  FROM e JOIN f USING (user_id)
)
SELECT cohort_day, day_offset, count(*) AS n_users
FROM a GROUP BY 1, 2 ORDER BY 1, 2
"""


def view_purchase_transitions(sf_dir: str):
    """Adjacent-pair sequence-pattern count (MATCH_RECOGNIZE-lite): per
    user, how many immediate view→purchase transitions occur in the
    (ts, event_id)-ordered stream. One shifted-mask AND over the sorted
    bucket — entity boundaries masked — then a bincount-style segment sum;
    users with zero matches are kept (LEFT semantics) so the output is
    exactly one row per user."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        starts, _ = run_bounds(u)
        hit = np.zeros(len(u), dtype=np.int64)
        hit[1:] = (et[:-1] == "view") & (et[1:] == "purchase")
        hit[starts] = 0
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "n_transitions": np.add.reduceat(hit, starts),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type"], fn)


def write_events_partitioned(sf_dir: str, out_root: str = "/tmp/mpds_sink_gate"):
    """Gate the RESUMABLE SINK itself through the oracle: partition events
    by event_type, write each partition through the atomic manifest sink
    (S2 + S3), then answer FROM THE MANIFEST — per-type row counts as the
    lineage recorded them. The DuckDB oracle recounts from the raw table,
    so a green row proves the written lineage matches the source exactly.
    Each run writes to a fresh scratch dir (the resume path — a rerun
    rewrites exactly the partitions whose file is missing or truncated — is
    pytest-covered in test_resume_fault); partition files are one per type,
    atomic-rename committed."""
    import shutil
    import uuid

    from ..state.manifest import Manifest, write_partitioned_resumable

    out_dir = f"{out_root}/{uuid.uuid4().hex}"
    manifest_path = f"{out_dir}/manifest.jsonl"
    # the result itself comes from the lineage, not the returned summary
    write_partitioned_resumable(
        shard_list(sf_dir, "events"), out_dir, "sink_gate", manifest_path,
        "event_type", columns=["event_id", "event_type", "value"],
    )
    rows = Manifest(manifest_path).records()
    out = pd.DataFrame(
        {
            "event_type": [r["partition_id"] for r in rows],
            "n_rows": np.array([r["row_count"] for r in rows], dtype=np.int64),
        }
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return out.sort_values("event_type").reset_index(drop=True)


SINK_GATE_SQL = """
SELECT event_type, count(*) AS n_rows FROM events
GROUP BY event_type ORDER BY event_type
"""


def user_activity_entropy(sf_dir: str):
    """Shannon entropy (bits) of each user's event-type distribution — the
    W2 discrete-entropy kernel surfaced as a gated per-entity query. One
    composite bincount per bucket ((user_rank, type_rank) pairs), then the
    -Σ p·log2(p) fold per user row — all segment arithmetic, no per-user
    loop. Matches the DuckDB replica with the same epsilon guard and 6-dp
    round (log2 libm ulps)."""
    eps = 2.220446049250313e-16

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        uu, uinv = np.unique(u, return_inverse=True)
        tt, tinv = np.unique(et, return_inverse=True)
        cnt = np.bincount(uinv * tt.size + tinv, minlength=uu.size * tt.size)
        cnt = cnt.reshape(uu.size, tt.size).astype(np.float64)
        tot = cnt.sum(axis=1, keepdims=True)
        p = cnt / tot
        ent = -(np.where(cnt > 0, p * np.log2(p + eps), 0.0)).sum(axis=1)
        return pd.DataFrame(
            {"user_id": uu, "type_entropy": np.round(ent, 6)}
        )

    return _per_bucket_events(sf_dir, ["event_type"], fn)


ACTIVITY_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS c FROM events GROUP BY 1, 2
), p AS (
  SELECT user_id, c, sum(c) OVER (PARTITION BY user_id) AS n FROM c
)
SELECT user_id,
       round(-sum((c * 1.0 / n)
                  * log2(c * 1.0 / n + 2.220446049250313e-16)), 6)
         AS type_entropy
FROM p GROUP BY user_id ORDER BY user_id
"""


def event_transition_matrix(sf_dir: str):
    """Full first-order Markov transition matrix over per-user event
    streams: count of (current → next) event-type pairs in (ts, event_id)
    order, plus each row's conditional probability P(next | current). One
    shifted pair join over the sorted bucket (entity boundaries masked),
    a bincount over the composite pair index — partials are
    |types|²-bounded per bucket and the probability is the same int/int
    double division in Ray and SQL."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        cur, nxt = et[:-1][same], et[1:][same]
        if cur.size == 0:
            return pd.DataFrame({"cur_type": [], "next_type": [], "n": []})
        types, inv_c = np.unique(cur, return_inverse=True)
        types2, inv_n = np.unique(nxt, return_inverse=True)
        # composite index over the bucket-local type vocabularies
        code = inv_c * types2.size + inv_n
        cnt = np.bincount(code, minlength=types.size * types2.size)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame(
            {
                "cur_type": types[nz // types2.size],
                "next_type": types2[nz % types2.size],
                "n": cnt[nz].astype(np.int64),
            }
        )

    parts = _per_bucket_events(sf_dir, ["event_type"], fn)
    out = parts.groupby(["cur_type", "next_type"], as_index=False)["n"].sum()
    row_tot = out.groupby("cur_type")["n"].transform("sum")
    out["p_next"] = np.round(out["n"] / row_tot, 6)
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["cur_type", "next_type"]).reset_index(drop=True)


TRANSITION_MATRIX_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS next_type
  FROM events
), p AS (
  SELECT event_type AS cur_type, next_type, count(*) AS n
  FROM e WHERE next_type IS NOT NULL
  GROUP BY 1, 2
)
SELECT cur_type, next_type, n,
       round(n * 1.0 / sum(n) OVER (PARTITION BY cur_type), 6) AS p_next
FROM p ORDER BY cur_type, next_type
"""


TRANSITIONS_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events
)
SELECT user_id,
       CAST(sum(CASE WHEN prev_type = 'view' AND event_type = 'purchase'
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_transitions
FROM e GROUP BY user_id ORDER BY user_id
"""


# --- T4 forward: inter-arrival time ---


def time_since_prev_event(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        r = time_since_to_event(
            g["user_id"].to_numpy(), g["ts"].to_numpy(), np.ones(len(g), dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "secs_since_prev": np.round(r["time_since_last_event"], 6),
            }
        )

    return _per_bucket_events(sf_dir, [], fn)


SINCE_PREV_SQL = """
SELECT event_id,
       round(epoch(ts) - lag(epoch(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id), 6)
         AS secs_since_prev
FROM events
"""

# --- T4 backward: time to next error event ---


def time_to_next_error(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        ev = (g["event_type"] == "error").to_numpy().astype(np.int64)
        r = time_since_to_event(g["user_id"].to_numpy(), g["ts"].to_numpy(), ev)
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "secs_to_next_error": np.round(r["time_to_next_event"], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type"], fn)


TO_NEXT_ERROR_SQL = """
SELECT event_id,
       round(min(CASE WHEN event_type = 'error' THEN epoch(ts) END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING)
             - epoch(ts), 6) AS secs_to_next_error
FROM events
"""

# --- T5: LOCF of the last purchase value (inclusive) ---


def locf_last_purchase(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        vec = np.where(g["event_type"].to_numpy() == "purchase", g["value"].to_numpy(), np.nan)
        r = locf_with_expiration(g["user_id"].to_numpy(), g["ts"].to_numpy(), vec, np.inf)
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "last_purchase_value": np.round(r["locf"], 6),
                "secs_since_purchase": np.round(r["time_since_last_sample"], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type", "value"], fn)


LOCF_SQL = """
SELECT event_id,
       round(last_value(CASE WHEN event_type = 'purchase' THEN value END IGNORE NULLS)
               OVER w, 6) AS last_purchase_value,
       round(epoch(ts) - last_value(CASE WHEN event_type = 'purchase' THEN epoch(ts) END
               IGNORE NULLS) OVER w, 6) AS secs_since_purchase
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
"""

# --- J4/T5: as-of join with tolerance (views <- purchases) ---

ASOF_TOL = 86_400.0


def asof_purchase_for_views(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        views = g[g["event_type"] == "view"]
        purch = g[g["event_type"] == "purchase"]
        joined = asof_join_arrays(
            views["user_id"].to_numpy(),
            views["ts"].to_numpy(),
            purch["user_id"].to_numpy(),
            purch["ts"].to_numpy(),
            {"value": purch["value"].to_numpy()},
            tolerance=ASOF_TOL,
            direction="backward",
        )
        return pd.DataFrame(
            {
                "event_id": views["event_id"].to_numpy(),
                "purchase_value": np.round(joined["value"], 6),
                "secs_since": np.round(views["ts"].to_numpy() - joined["_matched_ts"], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type", "value"], fn)


ASOF_SQL = f"""
SELECT v.event_id,
       round(CASE WHEN p.ts IS NOT NULL AND epoch(v.ts) - epoch(p.ts) <= {ASOF_TOL}
                  THEN p.value END, 6) AS purchase_value,
       round(CASE WHEN p.ts IS NOT NULL AND epoch(v.ts) - epoch(p.ts) <= {ASOF_TOL}
                  THEN epoch(v.ts) - epoch(p.ts) END, 6) AS secs_since
FROM (SELECT * FROM events WHERE event_type = 'view') v
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
  ON v.user_id = p.user_id AND v.ts >= p.ts
"""

# --- J4 variant: nearest (bidirectional) as-of join ---


def nearest_purchase_for_views(sf_dir: str):
    """For each view event, the single nearest purchase by the same user in
    EITHER time direction (the pre/post variant of the flagship backward
    as-of; reference event-window lookups, dssFunctionLibrary.R:1419-1503).
    Same bucketed-exchange plan as ``asof_purchase_for_views``; the nearest
    direction is the bucket's backward and forward composite-key searches
    (stages/partition.search_runs) + an elementwise argmin, with no
    per-entity loop. Views whose user never purchases
    drop (inner semantics). Ties are impossible at microsecond resolution
    (verified: zero duplicate purchase ts / equidistant pairs at every SF)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        views = g[g["event_type"] == "view"]
        purch = g[g["event_type"] == "purchase"]
        joined = asof_join_arrays(
            views["user_id"].to_numpy(),
            views["ts"].to_numpy(),
            purch["user_id"].to_numpy(),
            purch["ts"].to_numpy(),
            {"value": purch["value"].to_numpy()},
            tolerance=None,
            direction="nearest",
        )
        ok = ~np.isnan(joined["_matched_ts"])
        return pd.DataFrame(
            {
                "event_id": views["event_id"].to_numpy()[ok],
                "nearest_purchase_ts": np.round(joined["_matched_ts"][ok], 6),
                "nearest_gap": np.round(
                    np.abs(views["ts"].to_numpy()[ok] - joined["_matched_ts"][ok]), 6
                ),
                "purchase_value": np.round(joined["value"][ok], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type", "value"], fn)


NEAREST_SQL = """
SELECT v.event_id,
       round(p.pts, 6) AS nearest_purchase_ts,
       round(abs(epoch(v.ts) - p.pts), 6) AS nearest_gap,
       round(p.value, 6) AS purchase_value
FROM events v JOIN LATERAL (
    SELECT epoch(p.ts) AS pts, p.value
    FROM events p
    WHERE p.user_id = v.user_id AND p.event_type = 'purchase'
    ORDER BY abs(epoch(p.ts) - epoch(v.ts)), p.event_id LIMIT 1
) p ON true
WHERE v.event_type = 'view'
"""

# --- A-row: per-user OLS trend (grouped regression features) ---

TREND_ORIGIN_S = 1_704_067_200  # 2024-01-01 epoch; keeps x small so the
# 6-dp intercept round is insensitive to summation-order noise


def user_value_trend(sf_dir: str):
    """Per-user least-squares trend of value over time (slope per DAY +
    intercept at the 2024-01-01 origin) — the grouped-regression feature a
    longitudinal pipeline derives per entity (reference fits per-patient
    trends over visit dates). One bucketed exchange; inside each reduce the
    per-user sums ride np.add.reduceat over the (user-sorted) segment
    boundaries — exact two-pass centered OLS, no per-row or per-user loop.
    Users with <2 events or zero time spread drop (slope undefined)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        x = (g["ts"].to_numpy(dtype=np.float64) - TREND_ORIGIN_S) / 86400.0
        y = g["value"].to_numpy(dtype=np.float64)
        starts, counts = run_bounds(uid)
        mx = np.add.reduceat(x, starts) / counts
        my = np.add.reduceat(y, starts) / counts
        dx = x - np.repeat(mx, counts)
        dy = y - np.repeat(my, counts)
        sxx = np.add.reduceat(dx * dx, starts)
        sxy = np.add.reduceat(dx * dy, starts)
        keep = (counts >= 2) & (sxx > 0)
        slope = sxy[keep] / sxx[keep]
        return pd.DataFrame(
            {
                "user_id": uid[starts][keep],
                "slope": np.round(slope, 6),
                "intercept": np.round(my[keep] - slope * mx[keep], 6),
                "n_events": counts[keep].astype(np.int64),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


TREND_SQL = f"""
SELECT user_id,
       round(regr_slope(value, (epoch(ts) - {TREND_ORIGIN_S}) / 86400), 6) AS slope,
       round(regr_intercept(value, (epoch(ts) - {TREND_ORIGIN_S}) / 86400), 6) AS intercept,
       count(*) AS n_events
FROM events GROUP BY user_id
HAVING count(*) >= 2 AND var_samp((epoch(ts) - {TREND_ORIGIN_S}) / 86400) > 0
"""

# --- W9/W10/W11: per-user spectral/fractal feature block ---


def session_spectral_features(sf_dir: str):
    """Per-user DFA scaling exponent + Lomb–Scargle dominant frequency +
    Welch pitch over the user's time-ordered value sequence — the reference's
    heavy per-session kernel block (fastdfa_core.c:41-161 / fastdfa.m:21-33,
    extractAccelTestV2.m:60-71 plomb dfc/dfc_amp, getPitch.m:10-18) driven
    through a driver-gated query so kernel regressions are gate-visible
    (VERDICT r4 'Next round' #7).

    Pinned conventions (engine == independent golden, documented not
    MATLAB-bit-matched): Lomb runs on the user's irregular timestamps
    normalized to [0, 1] span (so the pinned grid df=1/ofac, fmax=20 is
    scale-free); pitch runs on the FIRST-DIFFERENCED value sequence (the
    reference's pitch path sees oscillatory audio; a raw noisy event series
    puts every user's PSD peak in the lowest interior bin, which would make
    the feature a constant) with fs=1, nfft=256 (a sequence shorter than
    nfft is one zero-padded segment); all floats rounded half-even at 6 dp.

    Scale shape: one bucketed hash exchange on user_id; each reduce task runs
    ``dfa_batch``, ``lomb_batch`` (irregular times) and ``pitch_batch`` once
    per distinct sequence length L, on a (users, L) block. Events per user
    do not grow with corpus size, so reduce-task memory is bucket-bounded."""
    from ..kernels.batched import dfa_batch, lomb_batch
    from ..kernels.welch import pitch_batch

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy(dtype=np.float64)
        val = g["value"].to_numpy(dtype=np.float64)
        starts, counts = run_bounds(uid)
        alphas, dfcs, amps, pitches = np.full((4, starts.size), np.nan)
        for rows, idx in length_groups(starts, counts):
            v, t = val[idx], ts[idx]
            span = t[:, -1] - t[:, 0]
            ok = span > 0  # a user without a time span has no dfc
            tn = (t[ok] - t[ok, :1]) / span[ok, None]
            alphas[rows] = dfa_batch(v)
            dfcs[rows[ok]], amps[rows[ok]] = lomb_batch(v[ok], t=tn)
            pitches[rows] = pitch_batch(np.diff(v, axis=1), fs=1.0, nfft=256)
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "n_events": counts.astype(np.int64),
                "dfa_alpha": np.round(alphas, 6),
                "dfc": np.round(dfcs, 6),
                "dfc_amp": np.round(amps, 6),
                "pitch": np.round(pitches, 6),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


# --- T12: per-user cumulative value ---


def cumulative_user_value(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        r = prefix_features(g["user_id"].to_numpy(), g["ts"].to_numpy(), g["value"].to_numpy())
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "cum_value": np.round(r["cumsum"], 6),
                "cum_max": np.round(r["cummax"], 6),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


CUMSUM_SQL = """
SELECT event_id,
       round(sum(value) OVER w, 6) AS cum_value,
       round(max(value) OVER w, 6) AS cum_max
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
"""

# --- windowed aggregate: tumbling hour x type (A2) ---


def hourly_event_stats(sf_dir: str):
    def prep(b: pd.DataFrame) -> pd.DataFrame:
        epoch = b["ts"].astype("int64") // 1_000_000
        b = b.assign(hour_epoch=(epoch // 3600 * 3600).astype(np.int64))
        return b[["hour_epoch", "event_type", "value"]]

    agg = shard_groupby_sum(
        sf_dir, "events", ["hour_epoch", "event_type"], {"value": "sum_value"},
        count_as="n", columns=["ts", "event_type", "value"], prep=prep,
    )
    agg["sum_value"] = agg["sum_value"].round(2)
    return agg


HOURLY_SQL = """
SELECT CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS hour_epoch, event_type,
       round(sum(value), 2) AS sum_value, count(*) AS n
FROM events GROUP BY 1, 2
"""

def hopping_window_stats(sf_dir: str):
    """HOPPING (overlapping) event-time windows — the streaming aggregate
    shape tumbling windows can't express: size 1800 s sliding by 900 s, so
    every event belongs to size/hop = 2 windows. The expansion is a
    vectorized repeat inside each shard task (each event emits its size/hop
    window_starts), then the same grouped-sum fold as the tumbling query —
    window-domain-bounded, no shuffle of raw rows."""
    hop_s = HOP_S
    k = HOP_SIZE_S // hop_s

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        epoch = (b["ts"].astype("int64") // 1_000_000).to_numpy()
        base = epoch // hop_s
        starts = (
            np.repeat(base, k) - np.tile(np.arange(k, dtype=np.int64), len(base))
        ) * hop_s
        return pd.DataFrame(
            {
                "window_start": starts,
                "event_type": np.repeat(b["event_type"].to_numpy(), k),
                "value": np.repeat(b["value"].to_numpy(), k),
            }
        )

    agg = shard_groupby_sum(
        sf_dir, "events", ["window_start", "event_type"], {"value": "sum_value"},
        count_as="n", columns=["ts", "event_type", "value"], prep=prep,
    )
    agg["sum_value"] = agg["sum_value"].round(2)
    return agg


HOP_SIZE_S = 1800
HOP_S = 900
HOPPING_SQL = """
WITH e AS (
  SELECT CAST(floor(epoch(ts) / 900) AS BIGINT) AS base, event_type, value
  FROM events
)
SELECT CAST((base - i) * 900 AS BIGINT) AS window_start, event_type,
       round(sum(value), 2) AS sum_value, count(*) AS n
FROM e, (SELECT unnest([0, 1]) AS i)
GROUP BY 1, 2
"""


# --- T8 debounce: error bursts lasting >= 600 s ---

DEBOUNCE_TH = 600.0


def debounced_error_bursts(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        sig = (g["event_type"] == "error").to_numpy().astype(np.float64)
        kept = remove_short_on_intervals(
            g["user_id"].to_numpy(), g["ts"].to_numpy(), sig, DEBOUNCE_TH
        )
        return pd.DataFrame({"event_id": g["event_id"], "kept": kept})

    return _per_bucket_events(sf_dir, ["event_type"], fn)


DEBOUNCE_SQL = f"""
WITH e AS (
  SELECT event_id, user_id, epoch(ts) AS ts, (event_type = 'error') AS err,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
         count(*)    OVER (PARTITION BY user_id) AS n_user
  FROM events
), l AS (
  SELECT *, CASE WHEN err AND (lag(err) OVER w IS NULL OR NOT lag(err) OVER w)
                 THEN 1 ELSE 0 END AS rise
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY rn)
), r AS (
  SELECT *, sum(rise) OVER (PARTITION BY user_id ORDER BY rn
                            ROWS UNBOUNDED PRECEDING) AS run_id
  FROM l
), d AS (
  SELECT user_id, run_id, max(ts) - min(ts) AS dur, count(*) AS n_run, max(rn) AS last_rn
  FROM r WHERE err GROUP BY user_id, run_id
)
SELECT r.event_id,
       CAST(CASE WHEN r.err AND d.dur >= {DEBOUNCE_TH}
                  AND NOT (d.n_run = 1 AND d.last_rn = r.n_user)
                 THEN 1 ELSE 0 END AS DOUBLE) AS kept
FROM r LEFT JOIN d ON r.user_id = d.user_id AND r.run_id = d.run_id
"""


# --- sliding time-range window (streaming-shaped): trailing 600 s mean ---

SLIDE_WIN = 600.0


def sliding_window_mean(sf_dir: str):
    """Per event: mean/count of ``value`` over the trailing 600 s window of
    the same user (inclusive): the window's first row is one ``search_runs``
    call, its sum a per-user running sum minus the sum before that row."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["user_id"].to_numpy()
        t = g["ts"].to_numpy()
        v = g["value"].to_numpy()
        starts, lens = run_bounds(ids)
        lo = search_runs(ids, t - SLIDE_WIN, ids, t, side="left")
        csum = seg_accumulate(np.add, v, starts, lens)
        before = np.where(lo > np.repeat(starts, lens), csum[lo - 1], 0.0)
        cnt = np.arange(len(g)) + 1 - lo
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "win_mean": np.round((csum - before) / cnt, 6),
                "win_n": cnt,
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


SLIDING_SQL = f"""
SELECT event_id,
       round(avg(value) OVER w, 6) AS win_mean,
       count(*) OVER w             AS win_n
FROM (SELECT event_id, user_id, value, epoch(ts) AS ts FROM events)
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN {SLIDE_WIN} PRECEDING AND CURRENT ROW)
"""

# --- A3: order-sensitive per-group first ---


def first_event_per_user(sf_dir: str):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("user_id", sort=True, as_index=False).first()
        return pd.DataFrame(
            {
                "user_id": first["user_id"],
                "first_event_id": first["event_id"].astype(np.int64),
                "first_type": first["event_type"],
                "first_ts": first["ts"].round(6),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type"], fn)


def latest_event_per_user_type(sf_dir: str):
    """Last-writer-wins compaction (the upsert / log-compaction view): the
    newest event per (user_id, event_type), ties on ts broken by event_id.
    'Latest' is associative, so every map task compacts its shard BEFORE
    the exchange — shuffle volume is bounded by keys-per-shard, not rows,
    which is what makes compaction of a 10^12-row log feasible; the reduce
    re-compacts each user bucket. Driver root is bounded by the compacted
    key domain (|users| × |event types|) — at real scale this is a
    write_parquet sink, not a collect."""

    shards = shard_list(sf_dir, "events")
    cols = ["user_id", "event_type", "ts", "event_id", "value"]

    def compact(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["user_id", "event_type", "ts", "event_id"],
                           kind="mergesort")
            .groupby(["user_id", "event_type"], as_index=False, sort=False)
            .tail(1)
        )

    def map_fn(t):
        import pyarrow as pa

        epoch = pa.array(t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) / 1e6)
        t = t.set_column(t.schema.get_field_index("ts"), "ts", epoch)
        return pa.Table.from_pandas(compact(t.to_pandas()), preserve_index=False)

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        last = compact(tbl.to_pandas())
        return pd.DataFrame(
            {
                "user_id": last["user_id"],
                "event_type": last["event_type"],
                "last_event_id": last["event_id"].astype(np.int64),
                "last_value": last["value"],
                "last_ts": last["ts"].round(6),
            }
        )

    out = hash_exchange(shards, map_fn, "user_id", reduce_fn, columns=cols)
    return out.sort_values(["user_id", "event_type"]).reset_index(drop=True)


LATEST_EVENT_SQL = """
WITH r AS (
  SELECT user_id, event_type, event_id, value, epoch(ts) AS ts,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
SELECT user_id, event_type, event_id AS last_event_id, value AS last_value,
       round(ts, 6) AS last_ts
FROM r WHERE rn = 1 ORDER BY user_id, event_type
"""


FIRST_EVENT_SQL = """
WITH r AS (
  SELECT user_id, event_id, event_type, epoch(ts) AS ts,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id, event_id AS first_event_id, event_type AS first_type,
       round(ts, 6) AS first_ts
FROM r WHERE rn = 1
"""

# --- D3/D4: set ops on id universes (union / intersect / difference) ---


def user_set_ops(sf_dir: str):
    """Set ops over per-user event-type flags: a hash exchange on user_id
    (map tasks pre-reduce to one flag row per user and shard), each bucket
    folds its users' flags and emits the three set counts; the driver sums
    one row per bucket."""
    import pyarrow as pa

    def map_fn(t: pa.Table) -> pa.Table:
        # vectorized flag columns, one grouped max (no per-group lambdas)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        f = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "has_purchase": (et == "purchase").astype(np.int64),
                "has_error": (et == "error").astype(np.int64),
                "has_signup": (et == "signup").astype(np.int64),
            }
        )
        g = f.groupby("user_id", as_index=False, sort=False).max()
        return pa.Table.from_pandas(g, preserve_index=False)

    def count_bucket(b: int, t: pa.Table) -> pd.DataFrame:
        f = t.to_pandas().groupby("user_id", sort=False).max()
        pur, err, sig = (
            f[c].to_numpy() == 1 for c in ("has_purchase", "has_error", "has_signup")
        )
        return pd.DataFrame(
            {
                "n_union_purchase_error": [int((pur | err).sum())],
                "n_intersect_purchase_error": [int((pur & err).sum())],
                "n_purchase_minus_signup": [int((pur & ~sig).sum())],
            }
        )

    parts = hash_exchange(
        shard_list(sf_dir, "events"), map_fn, "user_id", count_bucket,
        columns=["user_id", "event_type"],
    )
    return parts.sum().astype(np.int64).to_frame().T


SET_OPS_SQL = """
WITH f AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS has_purchase,
         max(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS has_error,
         max(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS has_signup
  FROM events GROUP BY user_id
)
SELECT count(*) FILTER (has_purchase = 1 OR has_error = 1)   AS n_union_purchase_error,
       count(*) FILTER (has_purchase = 1 AND has_error = 1)  AS n_intersect_purchase_error,
       count(*) FILTER (has_purchase = 1 AND has_signup = 0) AS n_purchase_minus_signup
FROM f
"""


def props_json_stats(sf_dir: str):
    """Semi-structured parser surface (SURVEY §2.2): extract the integer
    ``k`` field from the JSON ``props`` column with ONE vectorized Arrow
    regex per batch (no per-row json.loads), then per-type mean/max via the
    map-side partial combiner."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pd.DataFrame:
        props = b["props"].combine_chunks()
        m = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        k = pd.to_numeric(pd.Series(m.field("k").to_pandas()), errors="coerce")
        g = pd.DataFrame(
            {"event_type": b["event_type"].to_pandas(), "k": k}
        ).dropna(subset=["k"])
        # map-side partials: (sum, n, max) per type — bounded by type domain
        return g.groupby("event_type", as_index=False).agg(
            k_sum=("k", "sum"), n=("k", "size"), k_max=("k", "max")
        )

    # bound: event-type domain x tasks
    parts = shard_map(
        shard_list(sf_dir, "events"), fn, columns=["event_type", "props"],
        collect="props_json_stats",
    )
    out = parts.groupby("event_type", as_index=False).agg(
        k_sum=("k_sum", "sum"), n=("n", "sum"), k_max=("k_max", "max")
    )
    out["mean_k"] = (out["k_sum"] / out["n"]).round(6)
    out["max_k"] = out["k_max"].astype(np.int64)
    out["n_with_k"] = out["n"].astype(np.int64)
    return (
        out[["event_type", "n_with_k", "mean_k", "max_k"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


PROPS_JSON_SQL = """
SELECT event_type,
       count(*) AS n_with_k,
       round(avg(CAST(json_extract_string(props, '$.k') AS BIGINT)), 6) AS mean_k,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k
FROM events
WHERE json_extract_string(props, '$.k') IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def approx_distinct_users(sf_dir: str):
    """Global distinct-user count via the mergeable KMV sketch
    (stages/sketch.py): each shard task ships its KMV_K smallest distinct
    user-id hashes (k uint64s — never the id column), the driver folds the
    partials. Exact (bijective-hash set fold) whenever the true distinct
    count is strictly < KMV_K — the sf0.01/sf0.1 oracle gate — with a
    ~1/sqrt(KMV_K) relative-error estimate beyond, so driver memory is k x
    tasks no matter how many distinct users the corpus has."""
    k = sketch.KMV_K
    # bound: KMV_K hashes x tasks by construction
    parts = shard_map(
        shard_list(sf_dir, "events"),
        lambda t: kmv_partial(t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64), k),
        columns=["user_id"],
    )
    n = kmv_merge_count(parts, k)
    return pd.DataFrame({"n_distinct_users": np.array([n], dtype=np.int64)})


APPROX_DISTINCT_SQL = """
SELECT count(DISTINCT user_id) AS n_distinct_users FROM events
"""


def approx_distinct_users_by_type(sf_dir: str):
    """GROUPED mergeable-sketch distinct: one KMV summary per (shard task,
    event_type), folded per type on the driver — the grouped companion to
    ``approx_distinct_users``. Driver state is bounded by KMV_K x types x
    tasks (the type domain is fixed); the user-id column itself never
    leaves the map tasks. Exact while each type's distinct count is
    STRICTLY < KMV_K (``kmv_merge_count`` switches to the estimator when
    the folded union reaches k — at exactly k distinct a partial may have
    truncated; ADVICE r4 #2). The oracle gate holds at every test SF with
    wide margin (<= 1500 distinct users vs K = 8192); ~1/sqrt(K) relative
    error beyond."""
    k = sketch.KMV_K

    def partial(t) -> pd.DataFrame:
        b = t.to_pandas()
        frames = [pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                "h": pd.Series([], dtype=np.int64)})]
        for et, g in b.groupby("event_type", sort=False):
            h = kmv_partial(g["user_id"].to_numpy().astype(np.uint64), k)
            frames.append(pd.DataFrame({"event_type": et, "h": h.astype(np.int64)}))
        return pd.concat(frames, ignore_index=True)  # zero-row shard safe

    # bound: KMV_K hashes x types x tasks by construction
    parts = shard_map(
        shard_list(sf_dir, "events"), partial, columns=["user_id", "event_type"],
        collect="approx_distinct_users_by_type",
    )
    out = (
        parts.groupby("event_type", sort=True)["h"]
        .apply(lambda s: kmv_merge_count([s.to_numpy().astype(np.uint64)], k))
        .rename("n_distinct_users")
        .reset_index()
    )
    out["n_distinct_users"] = out["n_distinct_users"].astype(np.int64)
    return out


APPROX_DISTINCT_BY_TYPE_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_distinct_users
FROM events GROUP BY 1 ORDER BY 1
"""


ROLLING_K = 5


def rolling_value_mean(sf_dir: str):
    """ROWS-window rolling mean (last K rows per user, ordered by ts) — the
    row-count sibling of ``sliding_window_mean``'s RANGE window. Per bucket:
    one global cumsum + a clipped-offset gather per segment (no per-row or
    per-user loop)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64)
        uid = g["user_id"].to_numpy()
        n = len(g)
        idx = np.arange(n)
        # a window starts no earlier than its row's user run
        lo = np.maximum(idx - (ROLLING_K - 1), np.repeat(*run_bounds(uid)))
        csum = np.concatenate([[0.0], np.cumsum(v)])
        s = csum[idx + 1] - csum[lo]
        cnt = idx + 1 - lo
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "rolling_mean_5": np.round(s / cnt, 6),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


ROLLING_SQL = f"""
SELECT event_id, user_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN {ROLLING_K - 1} PRECEDING AND CURRENT ROW),
             6) AS rolling_mean_5
FROM events
"""


def rolling_value_median(sf_dir: str):
    """EXACT ROWS-window rolling MEDIAN (last K rows per user) — the
    order-statistic sibling of ``rolling_value_mean`` and an operator the
    Dataset API has no primitive for (windowed aggregates compose from
    sort + segment kernels here, not from a shuffle per window). Per
    bucket: build the (n, K) trailing-window matrix with one strided
    gather, mask pre-segment slots to +inf, ONE row-wise sort, then gather
    the two middle order statistics per row and average — no per-row or
    per-user loop. The interpolated median (a+b)/2 is computed the same
    way DuckDB's windowed ``median`` interpolates, on the same two
    cents-exact doubles, so the rounded values agree bit-for-bit."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64)
        uid = g["user_id"].to_numpy()
        n = len(g)
        idx = np.arange(n)
        lo = np.maximum(idx - (ROLLING_K - 1), np.repeat(*run_bounds(uid)))
        # trailing-window matrix: column j holds v[i - (K-1) + j]; slots
        # before the row's own segment window get +inf so one ascending
        # sort pushes them past every real value
        pos = idx[:, None] - (ROLLING_K - 1) + np.arange(ROLLING_K)[None, :]
        win = np.where(pos >= lo[:, None], v[np.clip(pos, 0, n - 1)], np.inf)
        win.sort(axis=1)
        cnt = idx + 1 - lo
        a = win[idx, (cnt - 1) // 2]
        b = win[idx, cnt // 2]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "rolling_median_5": round_half_away((a + b) / 2.0),
            }
        )

    return _per_bucket_events(sf_dir, ["value"], fn)


ROLLING_MEDIAN_SQL = f"""
SELECT event_id, user_id,
       round(median(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS BETWEEN {ROLLING_K - 1} PRECEDING AND CURRENT ROW),
             6) AS rolling_median_5
FROM events
"""


def rolling_distinct_types(sf_dir: str):
    """ROWS-window COUNT(DISTINCT event_type) over the last K rows per user
    — the windowed-distinct sibling of the rolling mean/median (another
    windowed aggregate with no Dataset primitive; a naive implementation
    re-shuffles per window, this one is a map-side kernel after the one
    user-hash exchange). Per bucket: event types map to small codes
    (the fixed EVENT_TYPES domain), one strided (n, K) trailing-window
    gather with a -1 sentinel for pre-segment slots, and the distinct
    count is the number of FIRST OCCURRENCES in each window — K(K-1)/2
    pairwise equality masks for K = 5, fully vectorized, exact integers
    (no rounding surface at all). A type outside EVENT_TYPES raises
    ``ValueError`` naming it."""
    domain = np.asarray(EVENT_TYPES)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        n = len(g)
        codes = np.searchsorted(domain, et).astype(np.int64)
        unknown = domain[np.minimum(codes, len(domain) - 1)] != et
        if unknown.any():
            raise ValueError(
                f"rolling_distinct_types: unknown event_type {et[unknown][0]!r}; "
                f"expected one of {EVENT_TYPES}"
            )
        idx = np.arange(n)
        lo = np.maximum(idx - (ROLLING_K - 1), np.repeat(*run_bounds(uid)))
        pos = idx[:, None] - (ROLLING_K - 1) + np.arange(ROLLING_K)[None, :]
        win = np.where(pos >= lo[:, None], codes[np.clip(pos, 0, n - 1)], -1)
        # first-occurrence indicator per window slot
        first = win >= 0
        for j in range(1, ROLLING_K):
            for k in range(j):
                first[:, j] &= win[:, j] != win[:, k]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "n_types_5": first.sum(axis=1).astype(np.int64),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type"], fn)


ROLLING_DISTINCT_SQL = f"""
SELECT event_id, user_id,
       count(DISTINCT event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS BETWEEN {ROLLING_K - 1} PRECEDING AND CURRENT ROW)
           AS n_types_5
FROM events
"""


def event_value_zscore(sf_dir: str):
    """Per-event-type z-score (grouped standardize, M6's grouped sibling):
    TRUE two-pass — pass 1 folds per-type (sum, n) partials on the driver
    (bounded by the type domain), pass 2 folds per-type sum((v-mean)^2)
    partials for a numerically stable sample variance, then a map-only
    transform attaches z = (v - mean) / std. Neither pass collects rows."""
    shards = shard_list(sf_dir, "events")
    cols = ["event_id", "event_type", "value"]

    def p1(t) -> pd.DataFrame:
        g = t.to_pandas().groupby("event_type", as_index=False, sort=False)["value"].agg(
            ["sum", "count"]
        )
        return g.reset_index() if "event_type" not in g.columns else g

    # bound: event_type domain x tasks
    m1 = shard_map(shards, p1, columns=cols, collect="event_value_zscore pass 1").groupby(
        "event_type", as_index=False
    )[["sum", "count"]].sum()
    means = dict(zip(m1["event_type"], m1["sum"] / m1["count"]))
    ns = dict(zip(m1["event_type"], m1["count"]))

    def p2(t) -> pd.DataFrame:
        b = t.to_pandas()
        mu = b["event_type"].map(means).to_numpy(dtype=np.float64)
        d = b["value"].to_numpy(dtype=np.float64) - mu
        return pd.DataFrame({"event_type": b["event_type"], "ss": d * d}).groupby(
            "event_type", as_index=False, sort=False
        )["ss"].sum()

    m2 = shard_map(shards, p2, columns=cols, collect="event_value_zscore pass 2").groupby(
        "event_type", as_index=False
    )["ss"].sum()
    stds = {
        t: float(np.sqrt(ss / (ns[t] - 1))) for t, ss in zip(m2["event_type"], m2["ss"])
    }

    def z(t) -> pd.DataFrame:
        b = t.to_pandas()
        mu = b["event_type"].map(means).to_numpy(dtype=np.float64)
        sd = b["event_type"].map(stds).to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_id": b["event_id"],
                "value_z": np.round((b["value"].to_numpy(dtype=np.float64) - mu) / sd, 6),
            }
        )

    return shard_map(shards, z, columns=cols, collect="event_value_zscore")


ZSCORE_SQL = """
SELECT event_id,
       round((value - avg(value) OVER w) / stddev_samp(value) OVER w, 6) AS value_z
FROM events WINDOW w AS (PARTITION BY event_type)
"""


RANGE_JOIN_WINDOW_S = 604_800  # 7 days


def views_before_purchase(sf_dir: str):
    """Range (interval) join: for each purchase, the count and value-sum of
    the same user's 'view' events in the trailing 7-day window
    ``[ts - 7d, ts)``. Rides the entity-complete bucket exchange; inside a
    bucket the trailing-window lookup is two exact composite-key searches
    over (user, integer microseconds) (stages/asof.py:range_join_sorted) —
    exact window edges, no per-row or per-entity Python loop."""
    from ..stages.asof import range_join_sorted

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        user = g["user_id"].to_numpy()
        ts_us = np.round(g["ts"].to_numpy() * 1e6).astype(np.int64)
        etype = g["event_type"].to_numpy()
        is_p = etype == "purchase"
        is_v = etype == "view"
        cnt, sm = range_join_sorted(
            user[is_p], ts_us[is_p],
            user[is_v], ts_us[is_v], g["value"].to_numpy()[is_v],
            RANGE_JOIN_WINDOW_S * 1_000_000,
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy()[is_p],
                "user_id": user[is_p],
                "n_views_7d": cnt,
                "sum_view_value_7d": np.round(sm, 2),
            }
        )

    return _per_bucket_events(sf_dir, ["event_type", "value"], fn)


# the oracle compares in integer microseconds (epoch_us) — the same exact
# domain the kernel joins in, so the window edges cannot disagree by float
# rounding
VIEWS_BEFORE_PURCHASE_SQL = f"""
WITH p AS (
  SELECT user_id, event_id, epoch_us(ts) AS us FROM events WHERE event_type = 'purchase'
), v AS (
  SELECT user_id, value, epoch_us(ts) AS us FROM events WHERE event_type = 'view'
)
SELECT p.event_id, p.user_id,
       count(v.us) AS n_views_7d,
       round(coalesce(sum(v.value), 0), 2) AS sum_view_value_7d
FROM p LEFT JOIN v
  ON v.user_id = p.user_id
 AND v.us >= p.us - {RANGE_JOIN_WINDOW_S * 1_000_000}
 AND v.us <  p.us
GROUP BY p.event_id, p.user_id
"""


def top_users_with_ties(sf_dir: str):
    """Grouped top-k WITH TIES (RANK() <= k semantics — every user tied at
    the k-th event count is kept, unlike the row-limited variant). Counts
    per (type, user) ride the user-hash exchange (bucket-complete), and the
    per-bucket prune keeps bucket-RANK <= k: a user's bucket rank is a
    LOWER bound on their global rank (other buckets only push ranks down),
    so the pruned union is a superset of the global winners and the driver
    re-ranks k-plus-ties × types × buckets rows, never the user domain."""
    import pyarrow as pa

    k = TOP_TIES_K
    shards = shard_list(sf_dir, "events")

    def map_fn(t: pa.Table) -> pa.Table:
        g = (
            t.select(["event_type", "user_id"])
            .to_pandas()
            .groupby(["event_type", "user_id"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = (
            tbl.to_pandas()
            .groupby(["event_type", "user_id"], sort=False, as_index=False)["n"]
            .sum()
        )
        rank = g.groupby("event_type")["n"].rank(method="min", ascending=False)
        return g[rank <= k]

    out = hash_exchange(shards, map_fn, "user_id", reduce_fn, columns=["event_type", "user_id"])
    rank = out.groupby("event_type")["n"].rank(method="min", ascending=False)
    out = out[rank <= k].copy()
    out["n"] = out["n"].astype(np.int64)
    out["n_rank"] = (
        out.groupby("event_type")["n"]
        .rank(method="min", ascending=False)
        .astype(np.int64)
    )
    return out.sort_values(
        ["event_type", "n", "user_id"], ascending=[True, False, True]
    ).reset_index(drop=True)


TOP_TIES_K = 3
TOP_TIES_SQL = """
WITH c AS (
  SELECT event_type, user_id, count(*) AS n
  FROM events GROUP BY 1, 2
), r AS (
  SELECT *, CAST(rank() OVER (PARTITION BY event_type ORDER BY n DESC)
                 AS BIGINT) AS n_rank
  FROM c
)
SELECT event_type, user_id, n, n_rank
FROM r WHERE n_rank <= 3
ORDER BY event_type, n DESC, user_id
"""


def top_users_per_event_type(sf_dir: str):
    """Grouped top-k: per event type, the k users with the largest total
    value. Two-level distributed shape: map tasks pre-aggregate
    (event_type, user_id) partial sums per shard (the user domain is
    unbounded at corpus scale, so partials ride the hash exchange keyed on
    user_id — each (type, user) pair lands wholly in one bucket); reduce
    tasks finish the sums and emit a tie-aware per-type top-k, so the driver
    folds k x types x buckets rows regardless of user count."""
    import pyarrow as pa

    k = TOP_USERS_K
    shards = shard_list(sf_dir, "events")

    def map_fn(t: pa.Table) -> pa.Table:
        g = (
            t.select(["event_type", "user_id", "value"])
            .to_pandas()
            .groupby(["event_type", "user_id"], sort=False, as_index=False)["value"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = (
            tbl.to_pandas()
            .groupby(["event_type", "user_id"], sort=False, as_index=False)["value"]
            .sum()
        )
        g["total_value"] = g["value"].round(6)
        # tie-AWARE partial top-k: sort by the FULL final key so a rank-k
        # total_value tie cannot drop the row the final sort would keep
        return (
            g.sort_values(["total_value", "user_id"], ascending=[False, True],
                          kind="mergesort")
            .groupby("event_type", sort=False)
            .head(k)[["event_type", "user_id", "total_value"]]
        )

    out = hash_exchange(
        shards, map_fn, "user_id", reduce_fn, columns=["event_type", "user_id", "value"],
    )
    return (
        out.sort_values(["total_value", "user_id"], ascending=[False, True],
                        kind="mergesort")
        .groupby("event_type", sort=False)
        .head(k)
        .sort_values(["event_type", "total_value", "user_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )


TOP_USERS_K = 3
TOP_USERS_PER_TYPE_SQL = """
SELECT event_type, user_id, total_value FROM (
  SELECT event_type, user_id, round(sum(value), 6) AS total_value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY round(sum(value), 6) DESC, user_id) AS r
  FROM events GROUP BY event_type, user_id
) WHERE r <= 3
ORDER BY event_type, total_value DESC, user_id
"""


# --- distributed histogram (A9 as a first-class query) ---

HIST_BIN_WIDTH = 25.0


def value_histogram(sf_dir: str):
    """Fixed-width histogram of events.value: shard tasks pre-reduce to
    per-bin counts (bin domain is value_range/width — bounded), the driver
    folds partials. The distributed shape of functions/metrics.py:hist —
    counts ride the combiner tree, rows never leave the map tasks."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"bin": (np.floor(b["value"].to_numpy() / HIST_BIN_WIDTH)).astype(np.int64)}
        )

    return shard_groupby_sum(
        sf_dir, "events", ["bin"], {}, count_as="n", columns=["value"], prep=prep
    )


HIST_SQL = f"""
SELECT CAST(floor(value / {HIST_BIN_WIDTH}) AS BIGINT) AS bin, count(*) AS n
FROM events GROUP BY 1
"""

# --- quantile-threshold bucketizer (feature discretization) ---


def value_quartile_label(sf_dir: str):
    """Per-event quartile label from GLOBAL quantile thresholds: pass 1
    computes q25/q50/q75 via the mergeable summary (exact at test scale,
    bounded-error sketch at 100 TB), pass 2 bucketizes map-side against the
    three broadcast thresholds — the standard feature-discretization op."""
    shards = shard_list(sf_dir, "events")
    q25, q50, q75 = shard_quantiles(shards, ["value"], [0.25, 0.5, 0.75])["value"]

    def fn(t) -> pd.DataFrame:
        b = t.to_pandas()
        v = b["value"].to_numpy()
        quartile = 1 + (v > q25).astype(np.int64) + (v > q50) + (v > q75)
        return pd.DataFrame({"event_id": b["event_id"], "quartile": quartile})

    return shard_map(shards, fn, columns=["event_id", "value"], collect="value_quartile_label")


QUARTILE_SQL = """
WITH q AS (
  SELECT quantile_cont(value, 0.25) AS q25, quantile_cont(value, 0.5) AS q50,
         quantile_cont(value, 0.75) AS q75
  FROM events
)
SELECT event_id,
       1 + CAST(value > q25 AS BIGINT) + CAST(value > q50 AS BIGINT)
         + CAST(value > q75 AS BIGINT) AS quartile
FROM events, q
"""


# --- per-user one-hot aggregate pivot (wide feature table) ---

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_event_pivot(sf_dir: str):
    """events -> one row per user with per-type counts + total value (the
    classic feature-eng pivot). Map tasks pre-reduce each shard to per-user
    one-hot partials (types are a FIXED small domain -> columns, not rows);
    partials exchange on user_id and fold per bucket — the same combiner
    shape as top_users_per_event_type, output bounded by distinct users."""

    shards = shard_list(sf_dir, "events")

    def map_fn(t) -> "pd.DataFrame":
        import pyarrow as pa

        b = t.select(["user_id", "event_type", "value"]).to_pandas()
        for et in EVENT_TYPES:
            b[f"n_{et}"] = (b["event_type"] == et).astype(np.int64)
        # exact int-cents accumulation: float partial sums are order-
        # sensitive and driver-red at a 6-dp rounding boundary (X88 lesson)
        b["cents"] = round_half_away(b.pop("value").to_numpy() * 100, 0).astype(np.int64)
        g = b.groupby("user_id", as_index=False, sort=False)[
            [f"n_{et}" for et in EVENT_TYPES] + ["cents"]
        ].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_fn(bkt: int, tbl) -> pd.DataFrame:
        g = tbl.to_pandas().groupby("user_id", as_index=False, sort=False).sum()
        g["total_value"] = round_half_away(g.pop("cents") / 100.0)
        return g

    out = hash_exchange(
        shards, map_fn, "user_id", reduce_fn,
        columns=["user_id", "event_type", "value"],
    )
    return out.sort_values("user_id").reset_index(drop=True)


PIVOT_SQL = """
SELECT user_id,
       count(*) FILTER (event_type = 'click') AS n_click,
       count(*) FILTER (event_type = 'error') AS n_error,
       count(*) FILTER (event_type = 'purchase') AS n_purchase,
       count(*) FILTER (event_type = 'signup') AS n_signup,
       count(*) FILTER (event_type = 'view') AS n_view,
       round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 6) AS total_value
FROM events GROUP BY user_id
"""


def user_feature_matrix(sf_dir: str):
    """Feature-engineering capstone: the per-user FEATURE MATRIX a training
    pipeline feeds downstream — event counts, session count (gap rule),
    type diversity, purchase count, value sums/means, recency span — built
    in ONE fused pass: a single (user_id)-keyed exchange, each bucket
    sorted once, every feature computed from the same sorted arrays. The
    alternative (one groupby per feature) pays the shuffle nine times; this
    shape pays it once — the per-user result IS the reduce output (users
    are entity-complete per bucket), so no driver re-fold."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        sid = sessionize_gap(g["user_id"].to_numpy(), g["ts"].to_numpy(), SESSION_GAP)
        new_sess = np.diff(sid, prepend=-1)  # 1 on each session's first row
        # assign the derived columns in place of a full-bucket copy — this
        # is the query's largest frame, held once per reduce task. value is
        # accumulated as exact int64 CENTS: a float sum is order-sensitive,
        # and round(6) cannot pin a mean that lands exactly on a .5 boundary
        # (user-25 44.7590625 was r4's only driver-red hash). One division
        # of two exact integers = one correctly-rounded double, identical to
        # the oracle's BIGINT-cents formulation — then DuckDB's half-away
        # rounding is replicated by round_half_away.
        df = g.assign(is_purchase=g["event_type"].to_numpy() == "purchase",
                      new_sess=new_sess,
                      cents=round_half_away(g["value"].to_numpy() * 100, 0).astype(np.int64))
        out = df.groupby("user_id", sort=False).agg(
            n_events=("ts", "size"),
            n_sessions=("new_sess", "sum"),
            n_types=("event_type", "nunique"),
            n_purchases=("is_purchase", "sum"),
            total_cents=("cents", "sum"),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
        )
        total_cents = out.pop("total_cents").to_numpy()
        out["span_s"] = out["last_ts"] - out["first_ts"]
        out["total_value"] = round_half_away(total_cents / 100.0)
        out["mean_value"] = round_half_away(
            total_cents / (100.0 * out["n_events"].to_numpy())
        )
        for c in ("first_ts", "last_ts", "span_s"):
            out[c] = round_half_away(out[c])
        for c in ("n_events", "n_sessions", "n_types", "n_purchases"):
            out[c] = out[c].astype(np.int64)
        return out.reset_index()

    out = _per_bucket_events(sf_dir, ["event_type", "value"], fn)
    return out.sort_values("user_id").reset_index(drop=True)


USER_FEATURES_SQL = f"""
WITH e AS (
  SELECT user_id, event_id, event_type, value, epoch(ts) AS ts FROM events
), m AS (
  SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > {SESSION_GAP}
                 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
       count(*) AS n_events,
       count(*) FILTER (WHERE brk = 1) AS n_sessions,
       count(DISTINCT event_type) AS n_types,
       count(*) FILTER (WHERE event_type = 'purchase') AS n_purchases,
       round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 6) AS total_value,
       round(sum(CAST(round(value * 100) AS BIGINT))
             / (100.0 * count(*)), 6) AS mean_value,
       round(min(ts), 6) AS first_ts,
       round(max(ts), 6) AS last_ts,
       round(max(ts) - min(ts), 6) AS span_s
FROM m GROUP BY user_id ORDER BY user_id
"""


QUERIES = {
    "user_feature_matrix": user_feature_matrix,
    "user_event_pivot": user_event_pivot,
    "value_histogram": value_histogram,
    "value_quartile_label": value_quartile_label,
    "approx_distinct_users": approx_distinct_users,
    "approx_distinct_users_by_type": approx_distinct_users_by_type,
    "props_json_stats": props_json_stats,
    "top_users_per_event_type": top_users_per_event_type,
    "sessionize_user_events": sessionize_user_events,
    "session_funnel": session_funnel,
    "user_value_lag_lead": user_value_lag_lead,
    "user_mode_event_type": user_mode_event_type,
    "user_value_percent_rank": user_value_percent_rank,
    "user_time_weighted_value": user_time_weighted_value,
    "user_value_ewma": user_value_ewma,
    "event_type_user_reach": event_type_user_reach,
    "event_type_cooccurrence": event_type_cooccurrence,
    "user_value_dense_rank": user_value_dense_rank,
    "user_retention_cohorts": user_retention_cohorts,
    "hourly_user_value_grid": hourly_user_value_grid,
    "signup_view_purchase_funnel": signup_view_purchase_funnel,
    "user_median_gap": user_median_gap,
    "session_bounce_rate": session_bounce_rate,
    "hopping_window_stats": hopping_window_stats,
    "view_purchase_transitions": view_purchase_transitions,
    "event_transition_matrix": event_transition_matrix,
    "user_activity_entropy": user_activity_entropy,
    "write_events_partitioned": write_events_partitioned,
    "top_users_with_ties": top_users_with_ties,
    "first_event_per_user": first_event_per_user,
    "latest_event_per_user_type": latest_event_per_user_type,
    "user_set_ops": user_set_ops,
    "sliding_window_mean": sliding_window_mean,
    "time_since_prev_event": time_since_prev_event,
    "time_to_next_error": time_to_next_error,
    "locf_last_purchase": locf_last_purchase,
    "asof_purchase_for_views": asof_purchase_for_views,
    "nearest_purchase_for_views": nearest_purchase_for_views,
    "user_value_trend": user_value_trend,
    "views_before_purchase": views_before_purchase,
    "rolling_value_mean": rolling_value_mean,
    "rolling_value_median": rolling_value_median,
    "rolling_distinct_types": rolling_distinct_types,
    "event_value_zscore": event_value_zscore,
    "session_spectral_features": session_spectral_features,
    "cumulative_user_value": cumulative_user_value,
    "hourly_event_stats": hourly_event_stats,
    "debounced_error_bursts": debounced_error_bursts,
}

ORACLE = {
    "user_feature_matrix": USER_FEATURES_SQL,
    "user_event_pivot": PIVOT_SQL,
    "value_histogram": HIST_SQL,
    "value_quartile_label": QUARTILE_SQL,
    "approx_distinct_users": APPROX_DISTINCT_SQL,
    "approx_distinct_users_by_type": APPROX_DISTINCT_BY_TYPE_SQL,
    "props_json_stats": PROPS_JSON_SQL,
    "top_users_per_event_type": TOP_USERS_PER_TYPE_SQL,
    "sessionize_user_events": SESSIONIZE_SQL,
    "first_event_per_user": FIRST_EVENT_SQL,
    "latest_event_per_user_type": LATEST_EVENT_SQL,
    "session_funnel": FUNNEL_SQL,
    "user_value_lag_lead": LAG_LEAD_SQL,
    "user_mode_event_type": MODE_SQL,
    "user_value_percent_rank": PCT_RANK_SQL,
    "user_time_weighted_value": TWA_SQL,
    "user_value_ewma": EWMA_SQL,
    "event_type_user_reach": REACH_SQL,
    "event_type_cooccurrence": COOCCURRENCE_SQL,
    "user_value_dense_rank": DENSE_RANK_SQL,
    "user_retention_cohorts": RETENTION_SQL,
    "hourly_user_value_grid": GRID_SQL,
    "signup_view_purchase_funnel": FUNNEL3_SQL,
    "user_median_gap": MEDIAN_GAP_SQL,
    "session_bounce_rate": BOUNCE_SQL,
    "hopping_window_stats": HOPPING_SQL,
    "view_purchase_transitions": TRANSITIONS_SQL,
    "event_transition_matrix": TRANSITION_MATRIX_SQL,
    "user_activity_entropy": ACTIVITY_ENTROPY_SQL,
    "write_events_partitioned": SINK_GATE_SQL,
    "top_users_with_ties": TOP_TIES_SQL,
    "user_set_ops": SET_OPS_SQL,
    "sliding_window_mean": SLIDING_SQL,
    "time_since_prev_event": SINCE_PREV_SQL,
    "time_to_next_error": TO_NEXT_ERROR_SQL,
    "locf_last_purchase": LOCF_SQL,
    "asof_purchase_for_views": ASOF_SQL,
    "nearest_purchase_for_views": NEAREST_SQL,
    "user_value_trend": TREND_SQL,
    "views_before_purchase": VIEWS_BEFORE_PURCHASE_SQL,
    "rolling_value_mean": ROLLING_SQL,
    "rolling_value_median": ROLLING_MEDIAN_SQL,
    "rolling_distinct_types": ROLLING_DISTINCT_SQL,
    "event_value_zscore": ZSCORE_SQL,
    "cumulative_user_value": CUMSUM_SQL,
    "hourly_event_stats": HOURLY_SQL,
    "debounced_error_bursts": DEBOUNCE_SQL,
}
