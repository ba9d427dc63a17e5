"""Bounded-memory chunked exchange reduce (stages/chunked.py +
flagship.scan_chunks_with_carry) — VERDICT r2 top item:

- the k-way sorted-run merge reproduces the flat concat+stable-sort row
  order EXACTLY, including tie groups straddling a run's own chunk boundary;
- every merged chunk stays within the chunk budget while the bucket is many
  times larger (peak reduce memory is chunk-bounded, not bucket-bounded);
- the carry-threaded streaming scan is byte-identical to the flat
  whole-bucket ``process_bucket``;
- the end-to-end chunked flagship writes byte-identical partitions and
  manifest checksums to the flat exchange, and resumes.
"""

from __future__ import annotations

import glob

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from conftest import (
    FIRST_TIES, NAN_FIRST, NAN_FIRST_TS, SIGNED_ZERO, assert_bit_identical, one_entity,
)
from mpds_ray.pipelines.flagship import process_bucket, scan_chunks_with_carry
from mpds_ray.stages.chunked import sorted_run_merge, split_chunks

rng = np.random.default_rng(7)


def _make_runs(n_runs: int, rows_per_run: int, chunk_rows: int, tie_frac: float):
    """Sorted runs with deliberate duplicate (entity, ts) keys, plus a global
    ``row_uid`` so the flat tie order (shard, within-shard position) is
    checkable. Returns (runs_as_chunk_lists, flat_reference_frame)."""
    frames = []
    uid = 0
    for _ in range(n_runs):
        ent = np.sort(rng.integers(0, 12, rows_per_run))
        ts = rng.integers(0, int(rows_per_run * (1 - tie_frac)) + 2, rows_per_run).astype(
            np.float64
        )
        # sort by (ent, ts) stably; ties (frequent by construction) remain
        order = np.lexsort((ts, ent))
        df = pd.DataFrame(
            {
                "doc_id": np.array([f"d{e:03d}" for e in ent[order]]),
                "ts": ts[order],
                "row_uid": np.arange(uid, uid + rows_per_run, dtype=np.int64),
            }
        )
        uid += rows_per_run
        frames.append(df)
    flat = pd.concat(frames, ignore_index=True)
    order = np.lexsort((flat["ts"].to_numpy(), flat["doc_id"].to_numpy()))
    flat = flat.take(order).reset_index(drop=True)
    runs = [
        split_chunks(pa.Table.from_pandas(f, preserve_index=False), chunk_rows)
        for f in frames
    ]
    return runs, flat


class TestSortedRunMerge:
    def test_matches_flat_stable_sort_with_ties(self):
        chunk = 37  # awkward: tie groups straddle run-chunk boundaries
        runs, flat = _make_runs(4, 1000, chunk, tie_frac=0.6)
        stats: dict = {}
        out = list(sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", 200, stats))
        merged = pa.concat_tables(out).to_pandas()
        # exact row order, including tie order (row_uid tracks it)
        pd.testing.assert_frame_equal(merged, flat)
        assert stats["n_chunks"] > 5

    def test_chunk_budget_holds_while_bucket_is_larger(self):
        """The memory-bound criterion: bucket = 40k rows, budget 2k — every
        merged chunk must stay within budget + per-run tie spill while the
        stream covers the whole bucket."""
        target = 2000
        runs, flat = _make_runs(5, 8000, 500, tie_frac=0.3)
        stats: dict = {}
        out = list(
            sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", target, stats)
        )
        assert sum(len(c) for c in out) == len(flat) == 40_000
        assert stats["n_chunks"] >= 40_000 // (3 * target)
        # bound: target + one tie group per run; ties here are narrow
        assert stats["max_chunk_rows"] <= 3 * target, stats

    def test_partition_that_fits_is_one_chunk(self):
        """Runs holding at most ``target_rows`` rows in all come out as one
        chunk: their concatenation given one stable sort."""
        runs, flat = _make_runs(4, 600, 4096, tie_frac=0.3)
        stats: dict = {}
        out = list(sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", 4096, stats))
        assert stats["n_chunks"] == 1
        pd.testing.assert_frame_equal(out[0].to_pandas(), flat)

    @pytest.mark.parametrize("sub_chunk", [4096, 512])
    def test_tail_is_not_cut_into_slivers(self, sub_chunk):
        """A partition larger than ``target_rows`` is cut into chunks of
        about ``target_rows``: runs near their end do not pin each cut to
        their last key, so 16k rows at a 4096-row target give <= 5 chunks."""
        runs, flat = _make_runs(8, 2000, sub_chunk, tie_frac=0.3)
        stats: dict = {}
        out = list(sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", 4096, stats))
        pd.testing.assert_frame_equal(pa.concat_tables(out).to_pandas(), flat)
        assert stats["n_chunks"] <= 5, [len(c) for c in out]

    def test_single_run_passthrough(self):
        runs, flat = _make_runs(1, 500, 64, tie_frac=0.2)
        out = list(sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", 100))
        pd.testing.assert_frame_equal(pa.concat_tables(out).to_pandas(), flat)


def _bucket_fixture(n_rows: int = 6_000, n_entities: int = 25):
    """One bucket's (left, right) tables in flagship narrow shape."""
    ent = np.sort(rng.integers(0, n_entities, n_rows))
    left = pa.table(
        {
            "doc_id": np.array([f"e{v:04d}" for v in ent]),
            "ts": np.round(rng.uniform(0, 50_000, n_rows), 0),  # int-valued: ts ties
            "source": rng.choice(["a", "b"], n_rows),
            "n_tok": rng.integers(8, 64, n_rows).astype(np.int32),
            "tok_mean": np.round(rng.normal(size=n_rows), 4),
        }
    )
    sc_ent = rng.integers(0, n_entities, 200)
    right = pa.table(
        {
            "doc_id": np.array([f"e{v:04d}" for v in sc_ent]),
            "ts": np.round(rng.uniform(-5_000, 55_000, 200), 0),
            "score": np.round(rng.uniform(0, 100, 200), 2),
        }
    )
    return left, right


def _sorted(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending"), ("ts", "ascending")]))


class TestScanChunksWithCarry:
    @pytest.mark.parametrize("chunk_rows", [97, 500, 4096, 10_000_000])
    def test_byte_identical_to_flat_scan(self, chunk_rows):
        left, right = _bucket_fixture()
        flat = process_bucket(
            left, right, "doc_id", "ts", 300.0, 3_600.0,
            ["tok_mean"],
        )
        srt = _sorted(left)
        chunks = [srt.slice(i, chunk_rows) for i in range(0, srt.num_rows, chunk_rows)]
        got: list[pa.Table] = []
        scan_chunks_with_carry(
            iter(chunks), right, "doc_id", "ts", 300.0, 3_600.0,
            ["tok_mean"], got.append,
        )
        # chunk-boundary state (session offsets, lag, cummax, twmean chain,
        # LOCF) must be BIT-identical to the whole-bucket scan, null masks
        # included
        assert_bit_identical(pa.concat_tables(got), flat)

    def test_no_tolerance_and_single_entity_chunks(self):
        left, right = _bucket_fixture(n_rows=900, n_entities=3)
        flat = process_bucket(
            left, right, "doc_id", "ts", 120.0, None,
            ["tok_mean"],
        )
        srt = _sorted(left)
        chunks = [srt.slice(i, 113) for i in range(0, 900, 113)]
        got: list[pa.Table] = []
        scan_chunks_with_carry(
            iter(chunks), right, "doc_id", "ts", 120.0, None,
            ["tok_mean"], got.append,
        )
        assert_bit_identical(pa.concat_tables(got), flat)


class TestInlineRuns:
    """The chunked map keeps a run of at most ``chunk_rows`` rows inline,
    in the one table of its object; only a longer run becomes ``ray.put``
    sub-chunks. The merge fetches only those."""

    @staticmethod
    def _map(t: pa.Table, chunk_rows: int):
        """The grouped map's run of ``t`` at one bucket, sorted by (doc_id, ts)."""
        from mpds_ray.stages.exchange import _map_group

        def one_bucket(x):
            return np.zeros(x.num_rows, dtype=np.int32)

        obj = _map_group._function([t], None, False, one_bucket, 1, None, None,
                                   ["doc_id", "ts"], chunk_rows, [range(1)])
        ((run,),) = obj.runs()
        return run

    def test_map_inlines_a_slice_of_chunk_rows(self, ray_session):
        import ray

        left, _ = _bucket_fixture(n_rows=65)
        (inline,) = self._map(left.slice(0, 64), 64)
        assert isinstance(inline, pa.Table) and inline.num_rows == 64
        refs = self._map(left, 64)
        assert len(refs) == 2 and all(isinstance(r, ray.ObjectRef) for r in refs)
        assert_bit_identical(pa.concat_tables(ray.get(refs)), _sorted(left))
        assert self._map(left.slice(0, 0), 64) == []

    @pytest.mark.parametrize("target", [4096, 300])
    def test_inline_runs_take_no_get(self, monkeypatch, target):
        """All runs inline: no ``ray.get``, whether the partition is one
        chunk or cut into several."""
        import ray

        runs, flat = _make_runs(4, 600, 4096, tie_frac=0.3)
        assert all(len(r) == 1 for r in runs)

        def banned(*args, **kwargs):
            raise AssertionError("an inline run was fetched")

        monkeypatch.setattr(ray, "get", banned)
        out = list(sorted_run_merge([iter(r) for r in runs], "doc_id", "ts", target))
        assert (len(out) == 1) == (target == 4096)
        pd.testing.assert_frame_equal(pa.concat_tables(out).to_pandas(), flat)

    def test_inline_and_ref_runs_scan_as_one_bucket(self, ray_session):
        """Three shards of 400, 1100 and 1500 rows at ``chunk_rows=500``:
        the first run is inline, the others are sub-chunk refs. The chunked
        scan equals one ``process_bucket`` over the shards' rows."""
        import ray

        from mpds_ray.pipelines.flagship import ScanPlan, _scan_bucket

        left, right = _bucket_fixture(n_rows=3_000)
        shards = [left.slice(0, 400), left.slice(400, 1_100), left.slice(1_500)]
        parts = [self._map(sh, 500) for sh in shards]
        assert [type(r[0]) for r in parts] == [pa.Table, ray.ObjectRef, ray.ObjectRef]
        plan = ScanPlan("doc_id", "ts", 300.0, 3_600.0, ["tok_mean"], 500,
                        ["s0", "s1", "s2"], None, None, frozenset())
        got: list[pa.Table] = []
        _scan_bucket(plan, right, parts, got.append)
        assert len(got) > 1
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert_bit_identical(pa.concat_tables(got), want)


class TestSortOnce:
    """``process_bucket`` sorts only a side that is not in (entity, ts)
    order, and the order it finds is the order a stable sort makes."""

    @staticmethod
    def _edge_inputs():
        """A bucket with tied ts, signed zeros and NaN in the stat and the
        scores, its rows shuffled."""
        left, right = _bucket_fixture(n_rows=2_000)
        stat = left["tok_mean"].to_numpy().copy()
        stat[::7], stat[1::7], stat[2::11] = -0.0, 0.0, np.nan
        score = right["score"].to_numpy().copy()
        score[::5], score[1::5], score[2::9] = -0.0, 0.0, np.nan
        left = left.set_column(4, "tok_mean", pa.array(stat))
        right = right.set_column(2, "score", pa.array(score))
        rng_ = np.random.default_rng(5)
        return (left.take(rng_.permutation(left.num_rows)),
                right.take(rng_.permutation(right.num_rows)))

    def test_sides_in_order_take_no_sort(self, monkeypatch):
        left, right = self._edge_inputs()
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        left, right = _sorted(left), _sorted(right)

        def banned(*args, **kwargs):
            raise AssertionError("a side in (entity, ts) order was sorted")

        monkeypatch.setattr(pc, "sort_indices", banned)
        got = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        monkeypatch.undo()
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_unsorted_equals_stably_sorted(self, side):
        left, right = self._edge_inputs()
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        if side != "right":
            left = _sorted(left)
        if side != "left":
            right = _sorted(right)
        got = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert_bit_identical(got, want)


class TestCarrySummaryAtCutsOnly:
    """A chunk's carry summary is taken only when a further chunk follows
    it, and a salted range's summary once, on its collected output."""

    @staticmethod
    def _counted(monkeypatch):
        import mpds_ray.pipelines.flagship as flagship

        calls = []
        real = flagship.chunk_carry_info

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flagship, "chunk_carry_info", counting)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scan_takes_k_minus_one_summaries(self, monkeypatch, k):
        left, right = _bucket_fixture(n_rows=1_000)
        flat = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        srt = _sorted(left)
        step = -(-srt.num_rows // k)
        calls = self._counted(monkeypatch)
        got: list[pa.Table] = []
        scan_chunks_with_carry(
            (srt.slice(i, step) for i in range(0, srt.num_rows, step)), right,
            "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"], got.append,
        )
        assert len(calls) == k - 1
        assert_bit_identical(pa.concat_tables(got), flat)

    @pytest.mark.parametrize("chunk_rows", [None, 4096])
    def test_scan_range_one_summary_per_range(self, ray_session, monkeypatch, chunk_rows):
        from mpds_ray.pipelines.flagship import ScanPlan, scan_range
        from mpds_ray.stages.exchange import GroupSlices

        left, right = _bucket_fixture(n_rows=1_200)
        srt = _sorted(left)
        # two ranges, each split over two shards; shard s holds rows s::2,
        # and each shard is its own map task's object
        ranges = [srt.slice(0, 600), srt.slice(600)]
        objs = [GroupSlices.build([[r.take(np.arange(s, r.num_rows, 2)) for r in ranges]],
                                  range(2), chunk_rows) for s in range(2)]
        plan = ScanPlan("doc_id", "ts", 300.0, 3_600.0, ["tok_mean"], chunk_rows,
                        ["s0", "s1"], None, None, frozenset())
        calls = self._counted(monkeypatch)
        feats, infos, _ = scan_range._function(plan, right, *objs)
        assert len(calls) == len(ranges) == len(infos)
        for f, r in zip(feats, ranges):
            assert f.num_rows == r.num_rows


class TestCarryEdgeStats:
    """The carry reads the boundary entity's state from the scan itself, so
    a cut reproduces the one-chunk scan bit for bit on stats the synthetic
    fixtures never hold: signed zeros and a NaN first stat."""

    @staticmethod
    def _scan_cut(left, right, cuts):
        bounds = [0, *cuts, left.num_rows]
        got: list[pa.Table] = []
        scan_chunks_with_carry(
            (left.slice(a, b - a) for a, b in zip(bounds, bounds[1:])), right,
            "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"], got.append,
        )
        return pa.concat_tables(got)

    @pytest.mark.parametrize("cuts", [[1], [2], [3], [4], [5], [1, 2, 3, 4, 5]])
    def test_signed_zero_cummax(self, cuts):
        left, right = one_entity(SIGNED_ZERO, np.arange(6) * 10.0)
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert np.signbit(want["run_cummax"].to_numpy()).all()
        assert_bit_identical(self._scan_cut(left, right, cuts), want)

    @pytest.mark.parametrize("cuts", [[1], [2], [1, 2]])
    def test_nan_first_stat_twmean(self, cuts):
        left, right = one_entity(NAN_FIRST, NAN_FIRST_TS)
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert want["run_twmean"].to_pylist()[:3] == [5.0, 5.0, 5.0]
        assert_bit_identical(self._scan_cut(left, right, cuts), want)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 12: a chunk whose entity has only NaN stats so far takes the "
        "first stat from the next chunk's head only, so row 0 reads None"))
    def test_nan_first_stat_two_chunks_ahead(self):
        left, right = one_entity([np.nan, np.nan, 5.0, 7.0, 1.0], [0.0, 0.0, 0.0, 0.0, 10.0])
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert want["run_twmean"].to_pylist() == [5.0, 5.0, 5.0, 5.0, 4.0]
        assert_bit_identical(self._scan_cut(left, right, [1, 2]), want)

    @pytest.mark.parametrize("cuts", [[1], [2]])
    def test_first_ts_ties_twmean(self, cuts):
        left, right = one_entity(FIRST_TIES, NAN_FIRST_TS)
        want = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
        assert want["run_twmean"].to_pylist()[:3] == [5.0, 5.0, 5.0]
        assert_bit_identical(self._scan_cut(left, right, cuts), want)


class TestChunkedFlagshipE2E:
    @pytest.fixture(scope="class")
    def dirs(self, ray_session, tmp_path_factory):
        from mpds_ray.pipelines.flagship import run_flagship_exchange
        from mpds_ray.synth import synth_scores_table, synth_tokens_table

        root = tmp_path_factory.mktemp("chunked_e2e")
        tok_dir = root / "tokens.parquet"
        tok_dir.mkdir()
        table = synth_tokens_table(60, 40_000, seed=11, max_tok=64)
        per = (table.num_rows + 5) // 6
        for i in range(6):
            piece = table.slice(i * per, per)
            if piece.num_rows:
                pq.write_table(piece, f"{tok_dir}/part-{i:02d}.parquet")
        pq.write_table(synth_scores_table(60, seed=12), f"{root}/scores.parquet")
        a, b = str(root / "flat"), str(root / "chunked")
        run_flagship_exchange(
            str(tok_dir), f"{root}/scores.parquet", out_dir=a, num_buckets=4,
        )
        # bucket ~10k rows, chunk budget 1k: chunking must engage ~10x/bucket
        run_flagship_exchange(
            str(tok_dir), f"{root}/scores.parquet", out_dir=b, num_buckets=4,
            chunk_rows=1_000,
        )
        return str(root), a, b

    def test_partitions_byte_identical(self, dirs):
        _, a, b = dirs
        fa = sorted(glob.glob(f"{a}/part-*.parquet"))
        fb = sorted(glob.glob(f"{b}/part-*.parquet"))
        assert [f.split("/")[-1] for f in fa] == [f.split("/")[-1] for f in fb]
        for pa_, pb_ in zip(fa, fb):
            assert_bit_identical(pq.read_table(pb_), pq.read_table(pa_))

    def test_manifest_checksums_match(self, dirs):
        import json

        _, a, b = dirs

        def sums(d):
            with open(f"{d}/manifest.jsonl") as f:
                recs = [json.loads(line) for line in f]
            return {r["partition_id"]: (r["row_count"], r["checksum"]) for r in recs}

        assert sums(a) == sums(b)

    def test_chunked_resume_skips(self, dirs, ray_session):
        from mpds_ray.pipelines.flagship import run_flagship_exchange

        root, _, b = dirs
        res = run_flagship_exchange(
            f"{root}/tokens.parquet", f"{root}/scores.parquet", out_dir=b,
            num_buckets=4, chunk_rows=1_000,
        )
        assert res["skipped"].all()


class TestSaltedChunked:
    def test_salted_plus_chunked_matches_flat(self, ray_session, tmp_path):
        """Hot entity (50% of rows) forces the salted path while chunk_rows
        routes the NORMAL buckets through the chunked reduce — output must
        equal the flat unsalted run row-for-row."""
        from mpds_ray.pipelines.flagship import run_flagship_exchange
        from mpds_ray.synth import synth_scores_table, synth_tokens_table

        tok_dir = tmp_path / "tokens.parquet"
        tok_dir.mkdir()
        table = synth_tokens_table(40, 30_000, seed=21, max_tok=64, hot_share=0.5)
        per = (table.num_rows + 3) // 4
        for i in range(4):
            piece = table.slice(i * per, per)
            if piece.num_rows:
                pq.write_table(piece, f"{tok_dir}/part-{i:02d}.parquet")
        pq.write_table(synth_scores_table(40, seed=22), f"{tmp_path}/scores.parquet")

        flat = run_flagship_exchange(
            str(tok_dir), f"{tmp_path}/scores.parquet", num_buckets=4,
        )
        salted = run_flagship_exchange(
            str(tok_dir), f"{tmp_path}/scores.parquet", num_buckets=4,
            salt_min_rows=1_000, chunk_rows=1_500,
        )
        def canon(df):
            return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

        assert_bit_identical(canon(salted), canon(flat))
