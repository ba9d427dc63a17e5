"""Q14-shape part join and sessionized funnel conversion."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from conftest import force_buckets


def test_part_type_revenue_share_sums_to_one(ray_session, sf_dir, tasks, monkeypatch):
    from mpds_ray.pipelines.relational import part_type_revenue_share

    force_buckets(monkeypatch, 4)
    out = part_type_revenue_share(sf_dir)
    assert tasks["_reduce_bucket"] == 4
    assert len(out) >= 1
    assert abs(out.share.sum() - 1.0) < 1e-12
    assert (out.share > 0).all() and (out.revenue > 0).all()


def test_part_share_matches_duckdb(ray_session, sf_dir, tasks, monkeypatch):
    import duckdb

    from mpds_ray.pipelines.relational import (
        Q14_SHARE_SQL,
        part_type_revenue_share,
    )

    force_buckets(monkeypatch, 4)
    got = part_type_revenue_share(sf_dir)
    assert tasks["_reduce_bucket"] == 4
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    exp = con.execute(Q14_SHARE_SQL).df()
    pd.testing.assert_frame_equal(got, exp)


def test_session_funnel_counts(ray_session, tmp_path):
    # hand-built sessions: user 1 converts (view then purchase in-session),
    # user 2 views with no purchase, user 3 purchases BEFORE its first view
    # (no conversion), user 4 has a purchase-only session (not view-bearing)
    from mpds_ray.pipelines.eventspipe import session_funnel

    d = tmp_path / "sf"
    d.mkdir()
    base = pd.Timestamp("2024-01-01").value // 1000
    rows = [
        # user 1, one session: view @0, purchase @60
        (1, 1, "view", 0), (2, 1, "purchase", 60),
        # user 2, one session: views only
        (3, 2, "view", 0), (4, 2, "view", 30),
        # user 3, one session: purchase @0 then view @60 (purchase precedes)
        (5, 3, "purchase", 0), (6, 3, "view", 60),
        # user 4, one session: purchase only
        (7, 4, "purchase", 0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array(
                    [base + r[3] * 1_000_000 for r in rows], pa.timestamp("us")
                ),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": [r[2] for r in rows],
                "value": [1.0] * len(rows),
                "props": ["{}"] * len(rows),
            }
        ),
        d / "events.parquet",
    )
    out = session_funnel(str(d))
    assert out.n_sessions.iloc[0] == 4
    assert out.sessions_with_view.iloc[0] == 3
    assert out.converted_sessions.iloc[0] == 1
    assert np.isclose(out.conversion_rate.iloc[0], 1 / 3)
