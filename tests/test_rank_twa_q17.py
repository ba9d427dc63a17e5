"""Percent-rank window, time-weighted value, and Q17-shape self-join."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import force_buckets


def _write_events(d, rows):
    """rows: (event_id, user_id, event_type, sec_offset, value)."""
    base = pd.Timestamp("2024-01-01").value // 1000
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array(
                    [base + int(r[3] * 1_000_000) for r in rows],
                    pa.timestamp("us"),
                ),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": [r[2] for r in rows],
                "value": [float(r[4]) for r in rows],
                "props": ["{}"] * len(rows),
            }
        ),
        d / "events.parquet",
    )


def test_percent_rank_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_value_percent_rank

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: values 5, 1, 3 -> ranks 3, 1, 2; pct 1.0, 0.0, 0.5
    # user 2: single event -> rank 1, pct 0.0
    # user 3: tied values, ties broken by event_id
    _write_events(
        d,
        [
            (1, 1, "view", 0, 5.0),
            (2, 1, "view", 10, 1.0),
            (3, 1, "view", 20, 3.0),
            (4, 2, "view", 0, 9.0),
            (5, 3, "view", 0, 7.0),
            (6, 3, "view", 10, 7.0),
        ],
    )
    out = user_value_percent_rank(str(d)).sort_values("event_id")
    got = dict(zip(out.event_id, zip(out.value_rank, out.pct_rank)))
    assert got[1] == (3, 1.0)
    assert got[2] == (1, 0.0)
    assert got[3] == (2, 0.5)
    assert got[4] == (1, 0.0)
    assert got[5] == (1, 0.0) and got[6] == (2, 1.0)


def test_time_weighted_value_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_time_weighted_value

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: v=10 held 30s, v=20 held 10s -> (10*30+20*10)/40 = 12.5
    # user 2: single event -> excluded (zero span)
    _write_events(
        d,
        [
            (1, 1, "view", 0, 10.0),
            (2, 1, "view", 30, 20.0),
            (3, 1, "view", 40, 99.0),
            (4, 2, "view", 0, 5.0),
        ],
    )
    out = user_time_weighted_value(str(d))
    assert list(out.user_id) == [1]
    assert np.isclose(out.twa_value.iloc[0], 12.5)


def test_small_quantity_revenue_matches_duckdb(ray_session, sf_dir, tasks, monkeypatch):
    import duckdb

    from mpds_ray.pipelines.relational import Q17_SQL, small_quantity_revenue

    force_buckets(monkeypatch, 4)
    got = small_quantity_revenue(sf_dir)
    assert tasks["_reduce_bucket"] == 4
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    exp = con.execute(Q17_SQL).df()
    assert np.isclose(got.avg_yearly.iloc[0], exp.avg_yearly.iloc[0])
    assert got.avg_yearly.iloc[0] > 0


def test_small_quantity_revenue_bloom_parity(ray_session, sf_dir, tasks, monkeypatch):
    """The bloom prefilter must not change the result (exact per-bucket
    join discards false positives)."""
    from unittest import mock

    from mpds_ray.pipelines import relational
    from mpds_ray.stages import hashjoin

    force_buckets(monkeypatch, 4)
    with_bloom = relational.small_quantity_revenue(sf_dir)

    orig = hashjoin.exchange_join

    def no_bloom(*a, **kw):
        kw["bloom_from"] = None
        return orig(*a, **kw)

    with mock.patch.object(hashjoin, "exchange_join", side_effect=no_bloom):
        # relational imports exchange_join inside the function body, so the
        # module-level patch is what it resolves
        without = relational.small_quantity_revenue(sf_dir)
    assert tasks["_reduce_bucket"] == 2 * 4
    pd.testing.assert_frame_equal(with_bloom, without)


def test_view_purchase_transitions_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import view_purchase_transitions

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: view,purchase,view,view,purchase -> 2 transitions
    # user 2: purchase,view -> 0 (order matters)
    # user 3 ends with view while user 4 STARTS with purchase: the
    # boundary between them must not count as a transition
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "purchase", 1, 1),
            (3, 1, "view", 2, 1), (4, 1, "view", 3, 1),
            (5, 1, "purchase", 4, 1),
            (6, 2, "purchase", 0, 1), (7, 2, "view", 1, 1),
            (8, 3, "view", 0, 1),
            (9, 4, "purchase", 0, 1),
        ],
    )
    out = view_purchase_transitions(str(d)).sort_values("user_id")
    assert dict(zip(out.user_id, out.n_transitions)) == {1: 2, 2: 0, 3: 0, 4: 0}


def test_user_value_ewma_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_value_ewma

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: x = [10, 20, 30]; s = 10 -> 13 -> 18.1 (alpha 0.3)
    # user 2: single event -> ewma == value exactly
    _write_events(
        d,
        [
            (1, 1, "view", 0, 10), (2, 1, "view", 1, 20), (3, 1, "view", 2, 30),
            (4, 2, "view", 0, 7.5),
        ],
    )
    out = user_value_ewma(str(d)).sort_values("user_id")
    got = dict(zip(out.user_id, out.ewma))
    s = 10.0
    for x in (20.0, 30.0):
        s = 0.3 * x + 0.7 * s
    assert got[1] == pytest.approx(round(s, 6), abs=1e-9)
    assert got[2] == 7.5


def test_event_type_user_reach_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import event_type_user_reach

    d = tmp_path / "sf"
    d.mkdir()
    # view reached by users {1, 2}; purchase by {1}; repeat rows don't double
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 1, 1),
            (3, 1, "purchase", 2, 1), (4, 2, "view", 0, 1),
        ],
    )
    out = event_type_user_reach(str(d))
    assert dict(zip(out.event_type, out.n_users)) == {"purchase": 1, "view": 2}


def test_event_type_cooccurrence_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import event_type_cooccurrence

    d = tmp_path / "sf"
    d.mkdir()
    # user 1 has {view, purchase}; user 2 has {view}; user 3 has
    # {view, purchase, click}; repeats must not double-count
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "purchase", 1, 1), (3, 1, "view", 2, 1),
            (4, 2, "view", 0, 1),
            (5, 3, "view", 0, 1), (6, 3, "purchase", 1, 1), (7, 3, "click", 2, 1),
        ],
    )
    out = event_type_cooccurrence(str(d))
    got = {(a, b): n for a, b, n in out.itertuples(index=False)}
    assert got == {
        ("click", "purchase"): 1,
        ("click", "view"): 1,
        ("purchase", "view"): 2,
    }


def test_user_value_dense_rank_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_value_dense_rank

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: values 5, 1, 5, 3 -> dense ranks 3, 1, 3, 2 (tie shares rank)
    # user 2: single event -> rank 1; ranks restart per user
    _write_events(
        d,
        [
            (1, 1, "view", 0, 5), (2, 1, "view", 1, 1),
            (3, 1, "view", 2, 5), (4, 1, "view", 3, 3),
            (5, 2, "view", 0, 9),
        ],
    )
    out = user_value_dense_rank(str(d))
    got = dict(zip(out.event_id, out.dense_rank))
    assert got == {1: 3, 2: 1, 3: 3, 4: 2, 5: 1}


def test_user_retention_cohorts_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_retention_cohorts

    d = tmp_path / "sf"
    d.mkdir()
    day = 86400
    # users 1,2 start day 0 (cohort d0); user 1 returns day 1 and day 2,
    # user 2 returns day 2 only; user 3 starts day 1 (cohort d1).
    # Repeat events on the same day must not double-count.
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 100, 1),
            (3, 1, "view", day, 1), (4, 1, "view", 2 * day, 1),
            (5, 2, "view", 50, 1), (6, 2, "view", 2 * day + 5, 1),
            (7, 3, "view", day + 9, 1),
        ],
    )
    out = user_retention_cohorts(str(d))
    got = {(c - out.cohort_day.min(), o): n
           for c, o, n in out.itertuples(index=False)}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 2): 2, (1, 0): 1}


def test_source_vocab_overlap_hand_values(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mpds_ray.pipelines.text import source_vocab_overlap

    df = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["a b c", "a b", "a x y", "q r s t"],
            "lang": "en",
            "source": ["s1", "s1", "s2", "s3"],
            "n_chars": [5, 3, 5, 7],
        }
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    out = source_vocab_overlap(str(tmp_path))
    got = {(a, b): (n, j) for a, b, n, j in out.itertuples(index=False)}
    # s1 vocab {a,b,c}, s2 {a,x,y}: share {a} -> 1/5; s3 disjoint -> absent
    assert got == {("s1", "s2"): (1, 0.2)}


def test_signup_view_purchase_funnel_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import signup_view_purchase_funnel

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: signup -> view -> purchase (full funnel)
    # user 2: view BEFORE signup doesn't count; no view after -> stage 1 only
    # user 3: signup -> view, purchase BEFORE the view -> stage 2 only
    # user 4: no signup -> not in the funnel at all
    _write_events(
        d,
        [
            (1, 1, "signup", 0, 1), (2, 1, "view", 1, 1), (3, 1, "purchase", 2, 1),
            (4, 2, "view", 0, 1), (5, 2, "signup", 1, 1),
            (6, 3, "signup", 0, 1), (7, 3, "purchase", 1, 1), (8, 3, "view", 2, 1),
            (9, 4, "view", 0, 1), (10, 4, "purchase", 1, 1),
        ],
    )
    out = signup_view_purchase_funnel(str(d))
    row = out.iloc[0]
    assert (row.n_signup, row.n_signup_view, row.n_signup_view_purchase) == (3, 2, 1)
    assert row.conversion == round(1 / 3, 6)


def test_hopping_window_stats_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import hopping_window_stats

    d = tmp_path / "sf"
    d.mkdir()
    base = pd.Timestamp("2024-01-01").value // 1000 // 1_000_000  # epoch s
    # event at +100 s lands in windows [base-900, base] starts; the event at
    # +1000 s shares one window with it and opens the next
    _write_events(
        d,
        [
            (1, 1, "view", 100, 2.0),
            (2, 1, "view", 1000, 3.0),
        ],
    )
    out = hopping_window_stats(str(d))
    out = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    got = {int(w - (base // 900) * 900): (n, s)
           for w, _, s, n in out[["window_start", "event_type",
                                  "sum_value", "n"]].itertuples(index=False)}
    # windows relative to the aligned start: event1 in [-900, 0], event2 in
    # [0, 900] -> window -900 has {e1}, window 0 has {e1, e2}, window 900 {e2}
    assert got == {-900: (1, 2.0), 0: (2, 5.0), 900: (1, 3.0)}


def test_hourly_user_value_grid_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import hourly_user_value_grid

    d = tmp_path / "sf"
    d.mkdir()
    h = 3600
    # The fixture's base timestamp (2024-01-01 00:00) is ON an hour edge.
    # user 1: events at +10s (v=1) and +2h+50s (v=9); grid points at 1h and
    # 2h hold v=1 (the 2h+50s event is after the 2h grid point)
    # user 2: starts exactly on the hour edge -> ONE grid point at +0
    # holding the exact-match event (ASOF >= includes equality); the rest of
    # its sub-hour span adds no further points
    # user 3: span strictly inside an hour, off the edge -> no grid rows
    _write_events(
        d,
        [
            (1, 1, "view", 10, 1.0),
            (2, 1, "view", 2 * h + 50, 9.0),
            (3, 2, "view", 0, 5.0),
            (4, 2, "view", 100, 6.0),
            (5, 3, "view", 30, 7.0),
            (6, 3, "view", 90, 8.0),
        ],
    )
    out = hourly_user_value_grid(str(d))
    base = pd.Timestamp("2024-01-01").value // 1000 // 1_000_000
    rel = {(int(u), int(t - base)): v
           for u, t, v in zip(out.user_id, out.grid_ts, out.value)}
    assert rel == {(1, h): 1.0, (1, 2 * h): 1.0, (2, 0): 5.0}


def test_user_median_gap_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_median_gap

    d = tmp_path / "sf"
    d.mkdir()
    # user 1 gaps: 10, 30, 20 -> median 20 (odd count)
    # user 2 gaps: 5, 15 -> median 10 (even count, (a+b)/2)
    # user 3: single event -> excluded
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 10, 1),
            (3, 1, "view", 40, 1), (4, 1, "view", 60, 1),
            (5, 2, "view", 0, 1), (6, 2, "view", 5, 1), (7, 2, "view", 20, 1),
            (8, 3, "view", 0, 1),
        ],
    )
    out = user_median_gap(str(d)).sort_values("user_id")
    assert dict(zip(out.user_id, out.median_gap)) == {1: 20.0, 2: 10.0}


def test_session_bounce_rate_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import SESSION_GAP, session_bounce_rate

    d = tmp_path / "sf"
    d.mkdir()
    g = int(SESSION_GAP)
    # user 1: two events close together (1 session, no bounce), then one
    # isolated event after the gap (1 bounce session)
    # user 2: one lone event (bounce)
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 60, 1),
            (3, 1, "view", 60 + g + 1, 1),
            (4, 2, "view", 0, 1),
        ],
    )
    out = session_bounce_rate(str(d)).iloc[0]
    assert (out.n_sessions, out.n_bounces) == (3, 2)
    assert out.bounce_rate == round(2 / 3, 6)


def test_event_transition_matrix_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import event_transition_matrix

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: view->view->purchase; user 2: purchase->view
    # boundary between users must not create a pair
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 1, 1), (3, 1, "purchase", 2, 1),
            (4, 2, "purchase", 0, 1), (5, 2, "view", 1, 1),
        ],
    )
    out = event_transition_matrix(str(d))
    got = {(c, x): (n, p) for c, x, n, p in out.itertuples(index=False)}
    assert got == {
        ("purchase", "view"): (1, 1.0),
        ("view", "purchase"): (1, 0.5),
        ("view", "view"): (1, 0.5),
    }


def test_top_users_with_ties_keeps_ties(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import TOP_TIES_K, top_users_with_ties

    d = tmp_path / "sf"
    d.mkdir()
    # view counts: u1=3, u2=2, u3=2, u4=2, u5=1 -> rank()<=3 keeps u1..u4
    # (the three users tied at rank 2 ALL stay; u5 at rank 5 drops)
    rows, eid = [], 1
    for u, cnt in [(1, 3), (2, 2), (3, 2), (4, 2), (5, 1)]:
        for j in range(cnt):
            rows.append((eid, u, "view", eid, 1.0))
            eid += 1
    _write_events(d, rows)
    assert TOP_TIES_K == 3
    out = top_users_with_ties(str(d))
    assert set(out.user_id) == {1, 2, 3, 4}
    got = dict(zip(out.user_id, out.n_rank))
    assert got == {1: 1, 2: 2, 3: 2, 4: 2}


def test_hourly_grid_duplicate_ts_tie_pinned(ray_session, tmp_path):
    """Two events at the IDENTICAL (user, ts): the engine's backward as-of
    search takes the max-event_id row (last among equal ts after the stable bucket sort);
    the oracle pins the same choice via arg_max — both must return v=9."""
    import duckdb

    from mpds_ray.pipelines.eventspipe import GRID_SQL, hourly_user_value_grid

    d = tmp_path / "sf"
    d.mkdir()
    h = 3600
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1.0),
            (2, 1, "view", h, 3.0),   # duplicate ts pair at the grid point
            (3, 1, "view", h, 9.0),
            (4, 1, "view", h + 10, 5.0),
        ],
    )
    out = hourly_user_value_grid(str(d))
    got = {int(t): v for t, v in zip(out.grid_ts, out.value)}
    base = pd.Timestamp("2024-01-01").value // 1000 // 1_000_000
    assert got == {base: 1.0, base + h: 9.0}
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    exp = con.execute(GRID_SQL).df()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), exp.reset_index(drop=True),
        check_dtype=False,
    )


def test_user_activity_entropy_hand_values(ray_session, tmp_path):
    from mpds_ray.pipelines.eventspipe import user_activity_entropy

    d = tmp_path / "sf"
    d.mkdir()
    # user 1: 2 view + 2 purchase -> 1 bit; user 2: all view -> 0 bits
    _write_events(
        d,
        [
            (1, 1, "view", 0, 1), (2, 1, "view", 1, 1),
            (3, 1, "purchase", 2, 1), (4, 1, "purchase", 3, 1),
            (5, 2, "view", 0, 1), (6, 2, "view", 1, 1),
        ],
    )
    out = user_activity_entropy(str(d)).sort_values("user_id")
    got = dict(zip(out.user_id, out.type_entropy))
    assert got[1] == pytest.approx(1.0, abs=1e-6)
    assert got[2] == pytest.approx(0.0, abs=1e-6)
