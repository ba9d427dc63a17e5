"""F6 resume equivalence: a run killed mid-way resumes from the manifest and
produces byte-identical output to a never-interrupted run, on every shape
of the flagship's reduce protocol; a rerun recomputes parts that are missing
or truncated on disk, in the flagship sink and in the partitioned sink;
lineage and output agree across protocols and bucket counts; plus
batch-size invariance of the stats stage through the Ray surface."""

from __future__ import annotations

import glob
import os
import re
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from mpds_ray.pipelines.flagship import run_flagship_exchange
from mpds_ray.synth import cached_fixture_dir


def _load_parts(out_dir: str) -> pd.DataFrame:
    files = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
    df = pd.concat([pq.read_table(p).to_pandas() for p in files])
    return df.sort_values(["doc_id", "ts"]).reset_index(drop=True)


# the three shapes of the one reduce protocol: one chunk per bucket, a
# bounded chunk stream, and a chunk stream plus salted ranges of the hot
# entity (d00000 holds 26% of the small fixture's rows)
CONFIGS = {
    "flat": dict(),
    "chunked": dict(chunk_rows=1_000),
    "salted_chunked": dict(salt_min_rows=1_000, chunk_rows=1_000),
}
B = 6


def _manifest_fold(out_dir: str) -> tuple[int, int, int]:
    """(records, rows, XOR of checksums) over every manifest record."""
    from mpds_ray.state.manifest import Manifest

    recs = Manifest(f"{out_dir}/manifest.jsonl").records()
    xor = 0
    for r in recs:
        xor ^= r["checksum"]
    return len(recs), sum(r["row_count"] for r in recs), xor


def _read_back_xor(out_dir: str) -> int:
    from mpds_ray.state.manifest import frame_checksum

    xor = 0
    for p in glob.glob(f"{out_dir}/part-*.parquet"):
        xor ^= frame_checksum(pq.read_table(p).to_pandas())
    return xor


class TestKillAndResume:
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_mid_run_failure_then_resume_is_byte_identical(self, ray_session, tmp_path, config):
        d = cached_fixture_dir("small")
        kw = CONFIGS[config]
        clean_dir = str(tmp_path / "clean")
        crash_dir = str(tmp_path / "crash")

        # reference: uninterrupted run
        clean = run_flagship_exchange(
            f"{d}/tokens.parquet", f"{d}/scores.parquet", out_dir=clean_dir,
            num_buckets=B, **kw,
        )
        salted = clean[clean["partition_id"] >= B]
        assert salted.empty == (config != "salted_chunked"), "salting did not engage"
        # the salted run dies in a fix task (a salted range), the others in
        # a hash bucket's reduce
        victim = B if config == "salted_chunked" else 3

        # interrupted run: one partition dies at its commit the first time
        # through (simulates a task/node death AFTER some partitions
        # committed): a directory holds its final path, so the sink's atomic
        # rename fails in whichever worker runs it
        blocker = os.path.join(crash_dir, f"part-{victim}.parquet")
        os.makedirs(blocker)
        with pytest.raises(Exception, match=f"Is a directory.*{re.escape(blocker)}"):
            run_flagship_exchange(
                f"{d}/tokens.parquet", f"{d}/scores.parquet",
                out_dir=crash_dir, num_buckets=B, **kw,
            )
        os.rmdir(blocker)  # fail exactly once

        # NB: sibling reduce tasks may still be committing when ray.get
        # raises, so the exact number of completed partitions at this point
        # is racy — the invariant under test is that RESUME always converges
        # to the complete, byte-identical output, skipping whatever already
        # committed (atomic per-partition writes make concurrent stragglers
        # harmless: same deterministic content).
        manifest = f"{crash_dir}/manifest.jsonl"
        n_done = sum(1 for _ in open(manifest)) if os.path.exists(manifest) else 0

        res = run_flagship_exchange(
            f"{d}/tokens.parquet", f"{d}/scores.parquet",
            out_dir=crash_dir, num_buckets=B, **kw,
        )
        assert len(res) == len(clean) and n_done < len(res)
        assert res["skipped"].sum() >= n_done
        assert not res.loc[res["partition_id"] == victim, "skipped"].any()
        pd.testing.assert_frame_equal(_load_parts(clean_dir), _load_parts(crash_dir))

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_rerun_rewrites_missing_and_truncated_parts(self, ray_session, tmp_path, config):
        """A rerun trusts a manifest record only when its file holds the
        recorded rows: a deleted part, a part cut to a valid file with fewer
        rows and a part cut mid-file are all recomputed, each ends with one
        manifest record, and the manifest's fold still equals what is on
        disk."""
        d = cached_fixture_dir("small")
        kw = CONFIGS[config]
        out = str(tmp_path / "out")
        args = (f"{d}/tokens.parquet", f"{d}/scores.parquet")
        first = run_flagship_exchange(*args, out_dir=out, num_buckets=B, **kw)
        want = _load_parts(out)
        want_fold = _manifest_fold(out)
        assert want_fold == (len(first), len(want), _read_back_xor(out))

        os.remove(f"{out}/part-1.parquet")
        short = pq.read_table(f"{out}/part-2.parquet")
        pq.write_table(short.slice(0, short.num_rows // 2), f"{out}/part-2.parquet")
        raw = open(f"{out}/part-4.parquet", "rb").read()
        open(f"{out}/part-4.parquet", "wb").write(raw[: len(raw) // 2])

        res = run_flagship_exchange(*args, out_dir=out, num_buckets=B, **kw)
        redone = set(res.loc[~res["skipped"], "partition_id"])
        assert redone == {1, 2, 4}
        pd.testing.assert_frame_equal(_load_parts(out), want)
        assert _manifest_fold(out) == want_fold

        # a third run finds every partition intact
        assert run_flagship_exchange(*args, out_dir=out, num_buckets=B, **kw)["skipped"].all()


class TestPartitionedSinkResume:
    def test_rerun_rewrites_missing_and_truncated_partitions(self, ray_session, tmp_path):
        """``write_partitioned_resumable`` applies the flagship sink's resume
        rule: a rerun skips the partitions whose file holds the recorded
        rows and rewrites a deleted part and a part cut mid-file, each
        ending with one manifest record."""
        import pyarrow as pa

        from mpds_ray.state.manifest import write_partitioned_resumable

        rng = np.random.default_rng(5)
        src = str(tmp_path / "src.parquet")
        pq.write_table(pa.table({"k": rng.choice(["a", "b", "c"], 3_000),
                                 "v": rng.integers(0, 1_000, 3_000)}), src)
        out = str(tmp_path / "out")
        args = ([src], out, "sink", f"{out}/manifest.jsonl", "k")
        first = write_partitioned_resumable(*args)
        assert sorted(first["partition_id"]) == ["a", "b", "c"] and not first["skipped"].any()
        want = {k: pq.read_table(f"{out}/part-{k}.parquet") for k in "abc"}
        want_fold = _manifest_fold(out)
        assert want_fold == (3, 3_000, _read_back_xor(out))

        os.remove(f"{out}/part-b.parquet")
        raw = open(f"{out}/part-c.parquet", "rb").read()
        open(f"{out}/part-c.parquet", "wb").write(raw[: len(raw) // 2])

        res = write_partitioned_resumable(*args)
        assert dict(zip(res["partition_id"], res["skipped"])) == {"a": True, "b": False, "c": False}
        for k in "abc":
            assert pq.read_table(f"{out}/part-{k}.parquet").equals(want[k])
        assert _manifest_fold(out) == want_fold
        assert write_partitioned_resumable(*args)["skipped"].all()


class TestBatchSizeInvariance:
    def test_stats_stage_invariant_to_batch_size(self, ray_session):
        import ray.data as rd

        from mpds_ray.stages.window_stats import TokenWindowStats

        d = cached_fixture_dir("tiny")
        outs = []
        for bs in (7, 64, None):
            ds = rd.read_parquet(f"{d}/tokens.parquet").map_batches(
                TokenWindowStats(stats=("mean", "std", "En", "mode")),
                batch_format="pyarrow",
                batch_size=bs,
            )
            outs.append(
                ds.to_pandas().sort_values(["doc_id", "ts"]).reset_index(drop=True)
            )
        for other in outs[1:]:
            np.testing.assert_allclose(
                outs[0]["tok_En"].to_numpy(), other["tok_En"].to_numpy()
            )
            np.testing.assert_allclose(
                outs[0]["tok_mode"].to_numpy(), other["tok_mode"].to_numpy()
            )

class TestManifestLineage:
    """North-rule lineage: every committed partition's manifest record names
    the input fragments (shard basenames) whose rows it contains — on every
    shape of the reduce protocol (one chunk, chunked, salted+chunked) — and
    all of them write the same content, at every bucket count."""

    def _fixture(self, tmp_path):
        import pyarrow.parquet as _pq

        from mpds_ray.synth import synth_scores_table, synth_tokens_table

        tok_dir = tmp_path / "tokens.parquet"
        tok_dir.mkdir()
        table = synth_tokens_table(40, 30_000, seed=31, max_tok=64, hot_share=0.5)
        per = (table.num_rows + 3) // 4
        for i in range(4):
            piece = table.slice(i * per, per)
            if piece.num_rows:
                _pq.write_table(piece, f"{tok_dir}/part-{i:02d}.parquet")
        _pq.write_table(synth_scores_table(40, seed=32), f"{tmp_path}/scores.parquet")
        return str(tok_dir), f"{tmp_path}/scores.parquet"

    @staticmethod
    def _manifest(out_dir):
        import json

        with open(f"{out_dir}/manifest.jsonl") as f:
            return [json.loads(line) for line in f]

    def test_fragments_recorded_by_every_engine(self, ray_session, tmp_path):
        from mpds_ray.stages.partition import stable_bucket

        tok_dir, scores = self._fixture(tmp_path)
        shard_paths = sorted(glob.glob(f"{tok_dir}/*.parquet"))
        shard_names = [os.path.basename(p) for p in shard_paths]
        shard_ids = [
            pq.read_table(p, columns=["doc_id"])["doc_id"].to_numpy(zero_copy_only=False)
            for p in shard_paths
        ]

        configs = {
            "flat": dict(),
            "chunked": dict(chunk_rows=1_000),
            "salted": dict(salt_min_rows=1_000, chunk_rows=1_500),
        }
        content, folds = {}, {}
        for B in (1, 4):
            # ground truth: which shards hold rows of each hash bucket
            expect: dict[int, set] = {b: set() for b in range(B)}
            for ids, name in zip(shard_ids, shard_names):
                for b in np.unique(stable_bucket(ids, B)):
                    expect[int(b)].add(name)
            for label, kw in configs.items():
                out = str(tmp_path / f"out_{label}_{B}")
                run_flagship_exchange(tok_dir, scores, out_dir=out, num_buckets=B, **kw)
                recs = self._manifest(out)
                assert recs, label
                if label == "salted":
                    assert any(r["partition_id"] >= B for r in recs), "salting did not engage"
                for r in recs:
                    frags = r["input_fragments"]
                    assert frags, (label, r["partition_id"])
                    assert set(frags) <= set(shard_names), (label, frags)
                    if r["partition_id"] < B and label != "salted":
                        # hash buckets: exact contributing-shard set
                        assert set(frags) == expect[r["partition_id"]], (label, r)
                _, rows, xor = _manifest_fold(out)
                assert xor == _read_back_xor(out), (label, B)
                folds[label, B] = (rows, xor)
                df = _load_parts(out)  # ties in (doc_id, ts): order every column
                content[label, B] = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
        first = next(iter(content))
        for key, df in content.items():
            pd.testing.assert_frame_equal(df, content[first], check_exact=True, obj=str(key))
        assert len(set(folds.values())) == 1, folds
