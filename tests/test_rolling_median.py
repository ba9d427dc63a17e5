"""rolling_value_median: exact ROWS-window median per user (strided
one-sort kernel) vs an independent pandas rolling oracle + hand values."""

import numpy as np
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def test_matches_pandas_rolling_oracle(ray_session):
    from mpds_ray.pipelines.eventspipe import ROLLING_K, rolling_value_median

    got = (
        rolling_value_median(SF_DIR)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ev = (
        pd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["event_id", "user_id", "ts", "value"])
        .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    want = (
        ev.assign(
            rolling_median_5=ev.groupby("user_id")["value"]
            .rolling(ROLLING_K, min_periods=1)
            .median()
            .reset_index(level=0, drop=True)
            .round(6)
        )[["event_id", "user_id", "rolling_median_5"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hand_values(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mpds_ray.pipelines.eventspipe import rolling_value_median

    # one user, values 5,1,4,2,3 at increasing ts -> trailing medians:
    # [5], [1,5]->3, [1,4,5]->4, [1,2,4,5]->3, [1,2,3,4,5]->3
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
                "user_id": pa.array([7] * 5, type=pa.int64()),
                "ts": pa.array(
                    pd.to_datetime([1, 2, 3, 4, 5], unit="s"), type=pa.timestamp("us")
                ),
                "value": pa.array([5.0, 1.0, 4.0, 2.0, 3.0]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    got = rolling_value_median(str(tmp_path)).sort_values("event_id")
    assert got["rolling_median_5"].tolist() == [5.0, 3.0, 4.0, 3.0, 3.0]


def test_segment_boundaries_do_not_leak(ray_session, tmp_path):
    """A window must never read the previous user's rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mpds_ray.pipelines.eventspipe import rolling_value_median

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
                "user_id": pa.array([1, 1, 2, 2], type=pa.int64()),
                "ts": pa.array(
                    pd.to_datetime([1, 2, 3, 4], unit="s"), type=pa.timestamp("us")
                ),
                "value": pa.array([100.0, 100.0, 1.0, 3.0]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    got = rolling_value_median(str(tmp_path)).sort_values("event_id")
    # user 2's windows see only its own values: [1] -> 1, [1,3] -> 2
    assert got["rolling_median_5"].tolist() == [100.0, 100.0, 1.0, 2.0]


def test_rolling_distinct_types_matches_pandas(ray_session):
    from mpds_ray.pipelines.eventspipe import ROLLING_K, rolling_distinct_types

    got = (
        rolling_distinct_types(SF_DIR)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ev = (
        pd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["event_id", "user_id", "ts", "event_type"])
        .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    # pandas rolling needs a numeric column: factorize types to codes first
    ev["code"] = pd.factorize(ev["event_type"])[0].astype(np.float64)
    want = (
        ev.assign(
            n_types_5=ev.groupby("user_id")["code"]
            .rolling(ROLLING_K, min_periods=1)
            .apply(lambda w: len(np.unique(w)), raw=True)
            .reset_index(level=0, drop=True)
            .astype(np.int64)
        )[["event_id", "user_id", "n_types_5"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rolling_distinct_types_rejects_unknown_type(ray_session, tmp_path):
    """An event type outside EVENT_TYPES must raise and name the value, not
    silently share a neighbour's code ('login' sorts between 'error' and
    'purchase', so it would count as a purchase)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from mpds_ray.pipelines.eventspipe import rolling_distinct_types

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1], type=pa.int64()),
                "user_id": pa.array([1, 1], type=pa.int64()),
                "ts": pa.array(pd.to_datetime([1, 2], unit="s"), type=pa.timestamp("us")),
                "event_type": pa.array(["purchase", "login"]),
                "value": pa.array([1.0, 2.0]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    with pytest.raises(ValueError, match="'login'"):
        rolling_distinct_types(str(tmp_path))
