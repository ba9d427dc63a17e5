"""Oracle-facing rounding in the events pipeline is half-away-from-zero,
like DuckDB's ``round``: the cents casts of ``user_event_pivot`` and
``user_feature_matrix`` and the 6-decimal ``rolling_value_median``. The
fixture's values put the scaled double exactly on ``.5``, where numpy's
half-even rounding differs (0.125 * 100 = 12.5; 0.1234565 * 1e6 =
123456.5)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# (user_id, event_type, value); one row per event, ts one hour apart
EVENTS = [
    (1, "click", 0.125),
    (2, "purchase", 1.625),
    (2, "view", 0.375),
    (3, "view", 0.1234565),
    (4, "error", 0.2500005),
    (4, "purchase", 2.5),
]


@pytest.fixture
def events_dir(tmp_path):
    n = len(EVENTS)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(n), type=pa.int64()),
                "ts": pa.array(
                    pd.to_datetime(np.arange(n) * 3600, unit="s"), type=pa.timestamp("us")
                ),
                "user_id": pa.array([e[0] for e in EVENTS], type=pa.int64()),
                "event_type": pa.array([e[1] for e in EVENTS]),
                "value": pa.array([e[2] for e in EVENTS], type=pa.float64()),
                "props": pa.array(['{"k": 0}'] * n),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    return str(tmp_path)


def _oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")
    return con.execute(sql).df()


@pytest.mark.parametrize(
    "query, key, cols",
    [
        ("user_event_pivot", "user_id", ["total_value"]),
        ("user_feature_matrix", "user_id", ["total_value", "mean_value"]),
        ("rolling_value_median", "event_id", ["rolling_median_5"]),
    ],
)
def test_matches_duckdb_half_away(ray_session, events_dir, query, key, cols):
    from mpds_ray.pipelines import eventspipe

    got = eventspipe.QUERIES[query](events_dir).sort_values(key).reset_index(drop=True)
    want = _oracle(events_dir, eventspipe.ORACLE[query]).sort_values(key).reset_index(drop=True)
    np.testing.assert_array_equal(got[key].to_numpy(), want[key].to_numpy())
    for c in cols:
        np.testing.assert_array_equal(got[c].to_numpy(np.float64), want[c].to_numpy(np.float64),
                                      err_msg=f"{query}.{c}")
