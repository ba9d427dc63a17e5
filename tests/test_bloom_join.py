"""Bloom-prefiltered exchange join: byte-identical results, real pruning.

- no false negatives: every inserted key probes True (property, randomized)
- false-positive rate on a disjoint key set is loosely bounded
- exchange_join(bloom_from=...) equals the bloom-off join exactly
- the prefilter actually drops non-matching rows before the shuffle
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import force_buckets

from mpds_ray.stages.hashjoin import (
    BLOOM_BITS,
    BLOOM_HASHES,
    bloom_insert,
    bloom_probe,
    build_key_bloom,
    exchange_join,
)

BITS, HASHES = 1 << 16, 4


def test_bloom_no_false_negatives():
    rng = np.random.default_rng(0)
    for vals in (
        rng.integers(0, 10**12, 5000),
        rng.choice([f"k{i}" for i in range(100000)], 3000, replace=False),
    ):
        bits = bloom_insert(vals, BITS, HASHES)
        assert bloom_probe(vals, bits, BITS, HASHES).all()


def test_bloom_false_positive_rate_bounded():
    rng = np.random.default_rng(1)
    inserted = rng.integers(0, 10**9, 2000)
    probes = rng.integers(10**9 + 1, 2 * 10**9, 20000)  # disjoint range
    bits = bloom_insert(inserted, BITS, HASHES)
    fp = bloom_probe(probes, bits, BITS, HASHES).mean()
    # theoretical fp ~ (1 - e^(-kn/m))^k ~= 0.0%–0.2% at n=2000, m=65536, k=4
    assert fp < 0.05, fp


@pytest.fixture()
def join_dirs(tmp_path):
    rng = np.random.default_rng(7)
    left_dir, right_dir = tmp_path / "facts", tmp_path / "dims"
    left_dir.mkdir(), right_dir.mkdir()
    # right: selective key subset; left: many rows over a wider key range
    right_keys = rng.choice(np.arange(1000), 120, replace=False)
    for s in range(3):
        pq.write_table(
            pa.table({"k": right_keys[s::3], "tag": right_keys[s::3] % 7}),
            right_dir / f"part-{s}.parquet",
        )
    for s in range(4):
        n = 5000
        pq.write_table(
            pa.table({"k": rng.integers(0, 1000, n), "v": rng.normal(0, 1, n)}),
            left_dir / f"part-{s}.parquet",
        )
    return (
        sorted(str(p) for p in left_dir.iterdir()),
        sorted(str(p) for p in right_dir.iterdir()),
    )


def _make_reduce():
    # defined via a factory so cloudpickle ships it by value (a test module
    # is not importable on Ray workers)
    def _reduce(b: int, left: pa.Table, right: pa.Table) -> pd.DataFrame:
        j = left.to_pandas().merge(right.to_pandas(), on="k")
        return j.groupby("tag", as_index=False)["v"].sum()

    return _reduce


def _run(left, right, **kw) -> pd.DataFrame:
    out = exchange_join(left, right, "k", _make_reduce(), **kw)
    out = out.groupby("tag", as_index=False)["v"].sum()
    out["v"] = out["v"].round(9)
    return out.sort_values("tag").reset_index(drop=True)


def test_bloom_join_identical_and_prunes(ray_session, join_dirs, tasks, monkeypatch):
    left, right = join_dirs
    force_buckets(monkeypatch, 8)
    base = _run(left, right)
    for side in ("right", "left"):
        got = _run(left, right, bloom_from=side)
        pd.testing.assert_frame_equal(got, base)
    assert tasks["_reduce_bucket"] == 3 * 8

    # the prefilter itself: ~12% of left keys survive a right-side bloom
    bits = build_key_bloom(right, "k")
    lk = pq.read_table(left[0], columns=["k"])["k"].to_numpy()
    keep = bloom_probe(lk, bits, BLOOM_BITS, BLOOM_HASHES)
    true_frac = np.isin(lk, pq.read_table(right[0]).column("k").to_numpy()).mean()
    assert keep.mean() < 0.25  # 120/1000 keys + small fp slack
    assert keep.mean() >= true_frac  # never drops a real match


def test_bloom_join_empty_side(ray_session, tmp_path, tasks, monkeypatch):
    ldir, rdir = tmp_path / "l", tmp_path / "r"
    ldir.mkdir(), rdir.mkdir()
    pq.write_table(pa.table({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]}), ldir / "a.parquet")
    pq.write_table(
        pa.table({"k": pa.array([], type=pa.int64()), "tag": pa.array([], type=pa.int64())}),
        rdir / "a.parquet",
    )
    force_buckets(monkeypatch, 4)
    out = exchange_join(
        [str(ldir / "a.parquet")], [str(rdir / "a.parquet")], "k", _make_reduce(),
        bloom_from="right",
    )
    assert len(out) == 0
    assert tasks["_reduce_bucket"] == 4
