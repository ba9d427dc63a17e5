"""Salt invariance (FIXTURES.md F6): the salted flagship exchange equals the
unsalted one, and the carry chain reproduces the unsplit scan for every
chunking of a heavy key."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import (
    FIRST_TIES, NAN_FIRST, NAN_FIRST_TS, SIGNED_ZERO, assert_bit_identical, one_entity,
)


class TestDistributedSalting:
    """VERDICT round-1 'Next round' #3: the salted distributed flagship must
    (a) produce byte-identical output to the unsalted path on a fixture where
    one entity holds ~70% of rows, and (b) bound every salted reduce task to
    at most 2/S of that entity's rows."""

    HOT_ROWS = 3000

    def _fixture(self, tmp_path):
        import os

        rng = np.random.default_rng(5)
        ents = ["hotent"] * self.HOT_ROWS + [
            f"e{i:03d}" for i in range(40) for _ in range(30)
        ]
        n = len(ents)
        perm = rng.permutation(n)
        ents = [ents[i] for i in perm]
        ts = rng.integers(0, 500_000, n).astype(np.int64)  # duplicate ts occur
        toks = [rng.integers(0, 50257, rng.integers(8, 17)).astype(np.int32) for _ in range(n)]
        tok_dir = tmp_path / "tokens.parquet"
        os.makedirs(tok_dir, exist_ok=True)
        per = (n + 2) // 3
        for s in range(3):
            sl = slice(s * per, min((s + 1) * per, n))
            t = pa.table(
                {
                    "doc_id": pa.array(ents[sl]),
                    "tokens": pa.array([t.tolist() for t in toks[sl]],
                                       type=pa.list_(pa.int32())),
                    "n_tok": pa.array([len(t) for t in toks[sl]], type=pa.int32()),
                    "source": pa.array(["s"] * (sl.stop - sl.start)),
                    "ts": pa.array(ts[sl.start:sl.stop]),
                }
            )
            pq.write_table(t, tok_dir / f"part-{s}.parquet")
        sc_ents = ["hotent"] + [f"e{i:03d}" for i in range(0, 40, 3)]
        sids, sts, sval = [], [], []
        for e in sc_ents:
            k = int(rng.integers(2, 6))
            sids += [e] * k
            sts += list(rng.integers(0, 500_000, k))
            sval += list(rng.normal(50, 10, k))
        pq.write_table(
            pa.table({"doc_id": pa.array(sids), "ts": pa.array(np.array(sts, dtype=np.int64)),
                      "score": pa.array(np.array(sval))}),
            tmp_path / "scores.parquet",
        )
        return str(tok_dir), str(tmp_path / "scores.parquet")

    def _canon(self, df):
        return df.sort_values(["doc_id", "ts"], kind="mergesort").reset_index(drop=True)

    def test_salted_byte_identical_and_bounded(self, ray_session, tmp_path):
        from mpds_ray.pipelines.flagship import detect_salt_spec, run_flagship_exchange

        tok_dir, scores = self._fixture(tmp_path)
        base = run_flagship_exchange(
            tok_dir, scores, out_dir=None, num_buckets=8,
            session_gap=5_000.0, tolerance=100_000.0,
        )
        salted = run_flagship_exchange(
            tok_dir, scores, out_dir=None, num_buckets=8,
            salt_min_rows=0, session_gap=5_000.0, tolerance=100_000.0,
        )
        assert_bit_identical(self._canon(salted), self._canon(base))

        # (b) chunk bound: run with a sink to get per-partition row counts
        out_dir = str(tmp_path / "out")
        res = run_flagship_exchange(
            tok_dir, scores, out_dir=out_dir, num_buckets=8,
            salt_min_rows=0, session_gap=5_000.0, tolerance=100_000.0,
        )
        salted_parts = res[res["partition_id"] >= 8]
        assert len(salted_parts) >= 2, "salting did not engage"
        s_chunks = len(salted_parts)
        assert salted_parts["rows"].sum() == self.HOT_ROWS
        assert salted_parts["rows"].max() <= 2 * self.HOT_ROWS / s_chunks

    def test_salt_spec_detection(self, ray_session, tmp_path, monkeypatch):
        import mpds_ray.pipelines.flagship as flagship
        from mpds_ray.pipelines.flagship import detect_salt_spec

        tok_dir, _ = self._fixture(tmp_path)
        import glob

        shards = sorted(glob.glob(f"{tok_dir}/*.parquet"))
        spec, n_extra = detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=0)
        assert set(spec) == {"hotent"}
        off, bounds = spec["hotent"]
        assert off == 0 and n_extra == bounds.size + 1 and bounds.size >= 1
        # no heavy key at a higher threshold
        monkeypatch.setattr(flagship, "SALT_SHARE", 0.9)
        spec2, n2 = detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=0)
        assert spec2 == {} and n2 == 0


class TestSaltFooterSkip:
    """``detect_salt_spec`` salts only keys with more than ``min_rows`` rows,
    so when the shards' footers hold no more than ``min_rows`` rows in all
    it answers from the footers alone."""

    def _shards(self, tmp_path, hot_rows=600, cold=40, per_cold=10):
        rng = np.random.default_rng(9)
        cold_ents = [f"c{i:02d}" for i in range(cold) for _ in range(per_cold)]
        ents = np.array(["hot"] * hot_rows + cold_ents)
        ents = ents[rng.permutation(ents.size)]
        ts = rng.integers(0, 100_000, ents.size)
        paths = []
        for s, idx in enumerate(np.array_split(np.arange(ents.size), 2)):
            p = str(tmp_path / f"part-{s}.parquet")
            pq.write_table(pa.table({"doc_id": pa.array(ents[idx]), "ts": pa.array(ts[idx])}), p)
            paths.append(p)
        return paths, ents.size

    @staticmethod
    def _corrupt_pages(path: str) -> None:
        """Overwrite the column data after the leading magic, keeping the
        footer intact: the footer still reads, the rows no longer do."""
        import os

        # layout: magic (4 bytes), column data, footer, footer length, magic
        data_end = os.path.getsize(path) - 8 - pq.read_metadata(path).serialized_size
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(b"\xff" * (data_end - 4))

    def test_no_shard_read_when_footers_rule_it_out(self, ray_session, tmp_path):
        from mpds_ray.pipelines.flagship import detect_salt_spec

        shards, total = self._shards(tmp_path)
        for p in shards:
            self._corrupt_pages(p)
            with pytest.raises(Exception):
                pq.read_table(p)
        assert detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=total) == ({}, 0)
        # one row more than min_rows allows a salted key: the pre-pass reads
        with pytest.raises(Exception):
            detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=total - 1)

    def test_hot_key_found_when_min_rows_below_it(self, ray_session, tmp_path):
        from mpds_ray.pipelines.flagship import detect_salt_spec

        shards, _ = self._shards(tmp_path, hot_rows=600)
        spec, n_extra = detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=599)
        assert set(spec) == {"hot"} and n_extra == spec["hot"][1].size + 1
        spec, n_extra = detect_salt_spec(shards, "doc_id", "ts", 8, min_rows=600)
        assert spec == {} and n_extra == 0


class TestSaltTop8Miss:
    """A key can be heavy over all shards while in no shard's local top-8:
    the pre-pass then reads that key's rows alone for its ts sample, and
    the boundaries equal those of a sample taken by a full scan."""

    SHARDS, LOCAL, LOCAL_ROWS, SPREAD_ROWS = 4, 9, 100, 90

    def _shards(self, tmp_path, kind):
        rng = np.random.default_rng(17)
        key = (lambda i: f"k{i}") if kind == "str" else (lambda i: i)
        spread = key(10_000)
        paths = []
        for s in range(self.SHARDS):
            # nine shard-local keys, each above the spread key's count here
            ents = [key(s * 100 + j) for j in range(self.LOCAL) for _ in range(self.LOCAL_ROWS)]
            ents += [spread] * self.SPREAD_ROWS
            ents = [ents[i] for i in rng.permutation(len(ents))]
            p = str(tmp_path / f"part-{s}.parquet")
            pq.write_table(
                pa.table({"doc_id": pa.array(ents),
                          "ts": pa.array(rng.integers(0, 1_000_000, len(ents)))}),
                p,
            )
            paths.append(p)
        return paths, spread

    @pytest.mark.parametrize("kind", ["str", "int"])
    def test_heavy_key_outside_every_top8(self, ray_session, tmp_path, monkeypatch, kind):
        import mpds_ray.pipelines.flagship as flagship
        from mpds_ray.pipelines.flagship import detect_salt_spec

        shards, spread = self._shards(tmp_path, kind)
        full = pa.concat_tables([pq.read_table(p) for p in shards]).to_pandas()
        for p in shards:
            top8 = pq.read_table(p).to_pandas()["doc_id"].value_counts().index[:8]
            assert spread not in set(top8)
        share = (full["doc_id"] == spread).mean()
        assert share == pytest.approx(90 / 990)

        num_buckets = 64
        monkeypatch.setattr(flagship, "SALT_SHARE", 0.05)
        spec, n_extra = detect_salt_spec(shards, "doc_id", "ts", num_buckets, min_rows=0)
        assert set(spec) == {spread}
        # the full-scan sample: every ts of the key (no shard holds 4096)
        sample = np.sort(full.loc[full["doc_id"] == spread, "ts"].to_numpy(np.float64))
        n_salts = int(np.ceil(share * num_buckets))
        expect = np.unique(np.quantile(sample, np.linspace(0, 1, n_salts + 1)[1:-1]))
        off, bounds = spec[spread]
        assert off == 0 and n_extra == bounds.size + 1 == n_salts
        np.testing.assert_array_equal(bounds, expect)


class TestCarryChainNaNEdges:
    """Kernel-level replay of the salted stitch: cutting process_bucket's
    input at arbitrary points, scanning each piece alone and replaying the
    driver's chunk_carry_info / range_carries / flagship_apply_carry chain
    must reproduce the uncut output bit for bit (pandas cummax NaN rows,
    nan_to_num'd trapezoid areas, LOCF prefix fills, signed zeros, a NaN
    first stat, and cuts between entities as well as inside one)."""

    GAP, TOL = 200.0, 500.0

    def _entity_frame(self, n=400, nan_frac=0.15, seed=3):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.exponential(40.0, n))
        stat = rng.normal(10, 3, n)
        stat[rng.random(n) < nan_frac] = np.nan
        left = pa.table(
            {
                "doc_id": pa.array(["e0"] * n),
                "ts": t,
                "source": pa.array(["s"] * n),
                "n_tok": np.full(n, 8, dtype=np.int32),
                "tok_mean": stat,
            }
        )
        k = 6
        right = pa.table(
            {
                "doc_id": pa.array(["e0"] * k),
                "ts": np.sort(rng.uniform(0, t[-1], k)),
                "score": rng.normal(50, 10, k),
                "_side": np.ones(k, dtype=np.int64),
            }
        )
        return left, right

    def _replay(self, left, right, cuts):
        """The salted driver over the pieces ``left`` is cut into at
        ``cuts``: each piece is scanned alone and summarized, and then
        rescanned from the carry folded over every earlier summary and with
        its next non-empty piece's head."""
        from mpds_ray.pipelines.flagship import process_bucket
        from mpds_ray.stages.salted import chunk_carry_info, flagship_apply_carry, range_carries

        bounds = [0, *cuts, left.num_rows]
        feats = [
            process_bucket(left.slice(a, b - a), right, "doc_id", "ts", self.GAP, self.TOL,
                           ["tok_mean"])
            for a, b in zip(bounds, bounds[1:])
        ]
        infos = [chunk_carry_info(f, "doc_id", "ts", "tok_mean") for f in feats]
        carries, heads = range_carries(infos, self.GAP)
        return pa.concat_tables([
            flagship_apply_carry(f, c, h, "doc_id", "ts", "tok_mean", self.GAP)
            for f, c, h in zip(feats, carries, heads)
        ])

    def _want(self, left, right):
        from mpds_ray.pipelines.flagship import process_bucket

        return process_bucket(left, right, "doc_id", "ts", self.GAP, self.TOL, ["tok_mean"])

    @pytest.mark.parametrize("cuts", [[100, 250], [1], [399], [50, 100, 150, 200, 399]])
    def test_split_replay_byte_identical(self, cuts):
        left, right = self._entity_frame()
        assert_bit_identical(self._replay(left, right, cuts), self._want(left, right))

    @pytest.mark.parametrize("cuts", [[1], [2], [3], [4], [5], [1, 2, 3, 4, 5]])
    def test_signed_zero_cummax(self, cuts):
        left, right = one_entity(SIGNED_ZERO, np.arange(6) * 10.0)
        assert_bit_identical(self._replay(left, right, cuts), self._want(left, right))

    @pytest.mark.parametrize("cuts", [[1], [2], [1, 2]])
    def test_nan_first_stat_twmean(self, cuts):
        left, right = one_entity(NAN_FIRST, NAN_FIRST_TS)
        assert_bit_identical(self._replay(left, right, cuts), self._want(left, right))

    @pytest.mark.parametrize("cuts", [[1], [2]])
    def test_first_ts_ties_twmean(self, cuts):
        left, right = one_entity(FIRST_TIES, NAN_FIRST_TS)
        assert_bit_identical(self._replay(left, right, cuts), self._want(left, right))

    @pytest.mark.parametrize("cuts", [[1], [2], [1, 2], [1, 2, 3]])
    def test_nan_first_stat_reaches_past_ranges(self, cuts):
        """Two leading NaN stats: with cuts [1, 2] the first range's head is
        the second range, which holds no stat either, so the driver reaches
        on to the third for the entity's first stat."""
        left, right = one_entity([np.nan, np.nan, 5.0, 7.0, 1.0], [0.0, 0.0, 0.0, 0.0, 10.0])
        want = self._want(left, right)
        assert want["run_twmean"].to_pylist()[:4] == [5.0] * 4
        assert_bit_identical(self._replay(left, right, cuts), want)

    def test_fix_runs_no_sort_and_no_asof(self, monkeypatch):
        """A salted range's fix rescans only the state-dependent features of
        its phase-1 output: it neither sorts nor searches the scores."""
        import pyarrow.compute as pc

        import mpds_ray.pipelines.flagship as flagship
        import mpds_ray.stages.asof as asof
        from mpds_ray.stages.salted import chunk_carry_info, flagship_apply_carry, range_carries

        left, right = self._entity_frame()
        feats = [flagship.process_bucket(left.slice(a, n), right, "doc_id", "ts", self.GAP,
                                         self.TOL, ["tok_mean"])
                 for a, n in ((0, 100), (100, 150), (250, 150))]
        carries, heads = range_carries(
            [chunk_carry_info(f, "doc_id", "ts", "tok_mean") for f in feats], self.GAP)

        def banned(*args, **kwargs):
            raise AssertionError("a fix sorted or searched the scores")

        for owner, name in ((flagship, "asof_join_arrays"), (asof, "asof_join_arrays"),
                            (pc, "sort_indices")):
            monkeypatch.setattr(owner, name, banned)
        fixed = [flagship_apply_carry(f, c, h, "doc_id", "ts", "tok_mean", self.GAP)
                 for f, c, h in zip(feats, carries, heads)]
        monkeypatch.undo()
        assert_bit_identical(pa.concat_tables(fixed), self._want(left, right))

    @pytest.mark.parametrize("cuts", [[120, 285], [60, 285]])
    def test_cut_between_entities_and_inside_one(self, cuts):
        """Three entities of 120 rows. Cut where e0 ends and e1 begins and
        again inside e2: the carry out of e0 must not touch e1, and e2's
        carry must stitch its two pieces. Cut inside e0 instead: the middle
        piece continues e0 but ends in e2, so its carry out starts afresh."""
        one, right0 = self._entity_frame(n=120, seed=4)
        frames, rights = [], []
        for k in range(3):
            ent = pa.array([f"e{k}"] * one.num_rows)
            frames.append(one.set_column(0, "doc_id", ent))
            rights.append(right0.set_column(0, "doc_id", pa.array([f"e{k}"] * right0.num_rows)))
        left, right = pa.concat_tables(frames), pa.concat_tables(rights)
        assert_bit_identical(self._replay(left, right, cuts), self._want(left, right))
