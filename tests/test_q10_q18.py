"""Q18-shape (aggregate-HAVING-join top-k) and Q10-shape (returned-item
revenue per customer) pipelines:

- both match DuckDB at sf0.001 across bucket counts (so tie-aware per-bucket
  partial top-k is exercised with qualifying rows straddling buckets)
- an unreachable HAVING threshold yields the empty frame with the stable
  output schema (driver smoke-check contract)
"""

from __future__ import annotations

import pandas as pd
import pytest
from conftest import force_buckets

SF = "/root/testdata/sf0.001"
TABLES = ["customer", "orders", "lineitem", "nation"]


def _duck(sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.execute(sql).df()


@pytest.mark.parametrize("num_buckets", [1, 4, 16])
def test_large_order_customers_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    from mpds_ray.pipelines.relational import Q18_SQL, large_order_customers

    force_buckets(monkeypatch, num_buckets)
    got = large_order_customers(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q18_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


def test_large_order_customers_empty_threshold(ray_session, tasks, monkeypatch):
    from mpds_ray.pipelines import relational

    monkeypatch.setattr(relational, "LARGE_ORDER_MIN_QTY", 1e9)
    force_buckets(monkeypatch, 4)
    got = relational.large_order_customers(SF)
    assert tasks["_reduce_bucket"] == 4
    assert len(got) == 0
    assert list(got.columns) == ["c_name", "o_orderkey", "o_totalprice", "sum_qty"]


@pytest.mark.parametrize("num_buckets", [1, 4, 16])
def test_returned_item_revenue_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    from mpds_ray.pipelines.relational import Q10_SQL, returned_item_revenue

    force_buckets(monkeypatch, num_buckets)
    got = returned_item_revenue(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q10_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_priority_ship_lag_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    from mpds_ray.pipelines.relational import Q12_SQL, priority_ship_lag_counts

    force_buckets(monkeypatch, num_buckets)
    got = priority_ship_lag_counts(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q12_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_late_order_priority_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    from mpds_ray.pipelines.relational import Q4_SQL, late_order_priority_counts

    force_buckets(monkeypatch, num_buckets)
    got = late_order_priority_counts(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q4_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_rich_customers_without_orders_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    """Includes the empty-orders-bucket anti-join edge at num_buckets=8 (the
    1999+ order subset leaves some buckets without orders rows; those
    buckets must KEEP their customers)."""
    from mpds_ray.pipelines.relational import (
        Q22_SQL,
        rich_customers_without_orders,
    )

    force_buckets(monkeypatch, num_buckets)
    got = rich_customers_without_orders(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q22_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


@pytest.mark.parametrize("num_buckets", [1, 8])
def test_customer_order_distribution_matches_duckdb(ray_session, tasks, monkeypatch, num_buckets):
    from mpds_ray.pipelines.relational import Q13_SQL, customer_order_distribution

    force_buckets(monkeypatch, num_buckets)
    got = customer_order_distribution(SF)
    assert tasks["_reduce_bucket"] >= num_buckets
    exp = _duck(Q13_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )


def test_monthly_revenue_cumshare_matches_duckdb(ray_session, tasks, monkeypatch):
    from mpds_ray.pipelines.relational import CUMSHARE_SQL, monthly_revenue_cumshare

    force_buckets(monkeypatch, 4)
    got = monthly_revenue_cumshare(SF)
    assert tasks["_reduce_bucket"] == 4
    exp = _duck(CUMSHARE_SQL)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True)
    )
    assert got.cum_share.iloc[-1] == 1.0
    assert got.cum_share.is_monotonic_increasing


class TestExactMedian:
    def _write(self, tmp_path, values):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        n = len(values)
        base = pd.Timestamp("2024-01-01").value // 1000
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(np.arange(n), pa.int64()),
                    "ts": pa.array([base + i for i in range(n)], pa.timestamp("us")),
                    "user_id": pa.array(np.zeros(n), pa.int64()),
                    "event_type": ["view"] * n,
                    "value": pa.array(values, pa.float64()),
                    "props": ["{}"] * n,
                }
            ),
            tmp_path / "events.parquet",
        )
        return str(tmp_path)

    @pytest.mark.parametrize("cap", [1_000_000, 50])
    @pytest.mark.parametrize("n", [999, 1000])
    def test_matches_numpy_median(self, ray_session, tmp_path, monkeypatch, cap, n):
        """cap=50 forces the histogram-refinement loop (n > cap); both
        parities; duplicates included so ranks can tie across bins."""
        import numpy as np

        from mpds_ray.pipelines import relational

        rng = np.random.default_rng(n)
        vals = np.round(rng.normal(100, 25, n), 2)  # 2-dp -> many exact ties
        d = tmp_path / f"sf{cap}_{n}"
        d.mkdir()
        sf = self._write(d, vals.tolist())
        monkeypatch.setattr(relational, "MEDIAN_DRIVER_CAP", cap)
        passes = []
        shard_map = relational.shard_map
        monkeypatch.setattr(
            relational, "shard_map", lambda *a, **kw: passes.append(1) or shard_map(*a, **kw)
        )
        got = relational.value_median_exact(sf).median_value.iloc[0]
        assert got == np.median(vals)
        # the stats and collect passes, plus histogram rounds while n > cap
        assert (len(passes) > 2) == (n > cap)

    def test_point_mass(self, ray_session, tmp_path, monkeypatch):
        """A single repeated value larger than the cap must terminate (the
        max-iteration guard) and return that value exactly."""
        from mpds_ray.pipelines import relational

        d = tmp_path / "pm"
        d.mkdir()
        sf = self._write(d, [7.5] * 300)
        monkeypatch.setattr(relational, "MEDIAN_DRIVER_CAP", 50)
        got = relational.value_median_exact(sf).median_value.iloc[0]
        assert got == 7.5
