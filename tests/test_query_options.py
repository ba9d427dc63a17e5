"""No query takes an option: every ``__ray_entry__.queries()`` callable takes
``sf_dir`` only (``write_events_partitioned`` also takes its output root), so
what a query computes is what its oracle checks. Its constants live beside
it, and every bucket count is derived from input bytes, which tests force
through the exchange constants alone."""

from __future__ import annotations

import inspect

import pyarrow as pa
import pyarrow.parquet as pq

import __ray_entry__
from mpds_ray.pipelines.common import exchange_buckets
from mpds_ray.stages import exchange

# queries that take more than ``sf_dir``, and what they take
EXTRA_PARAMETERS = {"write_events_partitioned": ["sf_dir", "out_root"]}


def test_every_query_takes_sf_dir_only():
    wrong = {}
    for name, fn in __ray_entry__.queries().items():
        params = list(inspect.signature(fn).parameters)
        if params != EXTRA_PARAMETERS.get(name, ["sf_dir"]):
            wrong[name] = params
    assert not wrong, f"{len(wrong)} queries take options: {wrong}"


def test_exchange_constants_force_every_derived_count(tmp_path, monkeypatch):
    for name in ("orders", "lineitem"):
        pq.write_table(pa.table({"k": [1, 2, 3]}), tmp_path / f"{name}.parquet")
    paths = [str(tmp_path / "orders.parquet")]
    assert exchange.auto_num_buckets(paths) == 1
    monkeypatch.setattr(exchange, "TARGET_TASK_BYTES", 1)
    monkeypatch.setattr(exchange, "MAX_BUCKETS", 16)
    for inputs in (paths, 4, 10**15):  # a parquet file is far over 4 bytes
        assert exchange.auto_num_buckets(inputs) == 16
    assert exchange_buckets(str(tmp_path), ("orders", "lineitem")) == 16
