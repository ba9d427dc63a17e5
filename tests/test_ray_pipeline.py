"""Ray Data integration: the Dataset-native flagship pipeline, token
passthrough, resumable sink (FIXTURES.md F6)."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from mpds_ray.pipelines.flagship import flagship_features, run_flagship
from mpds_ray.synth import cached_fixture_dir


@pytest.fixture(scope="module")
def fixture_dir(ray_session):
    return cached_fixture_dir("small")


@pytest.fixture(scope="module")
def tiny_dir(ray_session):
    return cached_fixture_dir("tiny")


class TestFlagship:
    def test_end_to_end_and_leakage(self, fixture_dir):
        import ray.data as rd

        tokens = rd.read_parquet(f"{fixture_dir}/tokens.parquet")
        scores = rd.read_parquet(f"{fixture_dir}/scores.parquet")
        feats = flagship_features(tokens, scores, num_buckets=8).to_pandas()
        assert len(feats) == tokens.count()
        # schema essentials
        for c in ("session_seq", "secs_since_prev", "score_asof", "score_locf", "tok_mean"):
            assert c in feats.columns
        # sessionization: ordinals start at 0 per entity
        assert (feats.groupby("doc_id")["session_seq"].min() == 0).all()
        # zero temporal leakage: corrupt future scores, rerun, compare past
        sc = pq.read_table(f"{fixture_dir}/scores.parquet").to_pandas()
        t_q = float(np.median(sc["ts"]))
        sc2 = sc.copy()
        sc2.loc[sc2["ts"] > t_q, "score"] = 1e9
        feats2 = flagship_features(
            tokens, rd.from_pandas(sc2), num_buckets=8
        ).to_pandas()
        a = feats.sort_values(["doc_id", "ts"]).reset_index(drop=True)
        b = feats2.sort_values(["doc_id", "ts"]).reset_index(drop=True)
        mask = a["ts"] <= t_q
        np.testing.assert_allclose(
            a.loc[mask, "score_asof"], b.loc[mask, "score_asof"], equal_nan=True
        )

    def test_bucket_count_invariance(self, tiny_dir):
        import ray.data as rd

        tokens = rd.read_parquet(f"{tiny_dir}/tokens.parquet")
        scores = rd.read_parquet(f"{tiny_dir}/scores.parquet")
        a = (
            flagship_features(tokens, scores, num_buckets=2)
            .to_pandas()
            .sort_values(["doc_id", "ts"])
            .reset_index(drop=True)
        )
        b = (
            flagship_features(tokens, scores, num_buckets=7)
            .to_pandas()
            .sort_values(["doc_id", "ts"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            a.drop(columns=["_bucket"]), b.drop(columns=["_bucket"])
        )

    def test_resumable_sink(self, tiny_dir):
        out_dir = "/tmp/mpds_test_out/flagship"
        shutil.rmtree(out_dir, ignore_errors=True)
        res = run_flagship(
            f"{tiny_dir}/tokens.parquet", f"{tiny_dir}/scores.parquet",
            out_dir=out_dir, num_buckets=4,
        ).to_pandas()
        assert not res["skipped"].any()
        files = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
        assert files and os.path.exists(f"{out_dir}/manifest.jsonl")
        total_rows = sum(pq.read_metadata(f).num_rows for f in files)
        assert total_rows == res["rows"].sum()
        # resume: all partitions skipped, files untouched
        mtimes = {f: os.path.getmtime(f) for f in files}
        res2 = run_flagship(
            f"{tiny_dir}/tokens.parquet", f"{tiny_dir}/scores.parquet",
            out_dir=out_dir, num_buckets=4,
        ).to_pandas()
        assert res2["skipped"].all()
        assert {f: os.path.getmtime(f) for f in files} == mtimes


class TestTokenPassthrough:
    def test_tokens_byte_identical(self, tiny_dir):
        import ray.data as rd

        from mpds_ray.stages.window_stats import TokenWindowStats

        tokens = rd.read_parquet(f"{tiny_dir}/tokens.parquet")
        enriched = tokens.map_batches(
            TokenWindowStats(stats=("mean", "En")), batch_format="pyarrow"
        ).to_pandas()
        orig = pq.read_table(f"{tiny_dir}/tokens.parquet").to_pandas()
        merged = orig.merge(
            enriched[["doc_id", "ts", "tokens"]],
            on=["doc_id", "ts"],
            suffixes=("", "_out"),
        )
        assert len(merged) == len(orig)
        for a, b in zip(merged["tokens"], merged["tokens_out"]):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
