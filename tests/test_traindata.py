"""Training-data prep operators (pipelines/traindata.py) — semantic tests
beyond the DuckDB gate: planted contamination, packing-offset invariants
across bucket counts, transitive dup clustering."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import force_buckets

from mpds_ray.pipelines import traindata
from mpds_ray.pipelines.traindata import (
    BLOCKLIST_DOCS,
    decontaminate,
    dup_clusters,
    mid_quality_docs,
    pack_sequences,
    stratified_sample,
)

rng = np.random.default_rng(7)
WORDS = np.array(
    ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa"]
)


def _write_docs(tmp_path, texts, sources=None):
    n = len(texts)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": "en",
            "source": sources if sources is not None else ["s"] * n,
            "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
        }
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    return str(tmp_path)


class TestDecontaminate:
    def test_planted_contamination_flagged(self, ray_session, tmp_path):
        texts = [" ".join(rng.choice(WORDS, 40)) for _ in range(BLOCKLIST_DOCS + 10)]
        # doc BLOCKLIST_DOCS+3 copies a long span of blocklist doc 2 -> shares
        # trigrams; doc BLOCKLIST_DOCS+5 is made of one repeated word ->
        # shares nothing (its single trigram is not in the blocklist)
        texts[BLOCKLIST_DOCS + 3] = texts[2]
        texts[BLOCKLIST_DOCS + 5] = " ".join(["unique"] * 40)
        sf = _write_docs(tmp_path, texts)
        out = decontaminate(sf).to_pandas().set_index("doc_id")
        assert out.loc[BLOCKLIST_DOCS + 3, "keep"] == 0
        assert out.loc[BLOCKLIST_DOCS + 3, "n_shared"] > 0
        assert out.loc[BLOCKLIST_DOCS + 5, "keep"] == 1
        # no blocklist docs in the output
        assert int(out.index.min()) >= BLOCKLIST_DOCS


class TestStratifiedSample:
    def test_deterministic_and_rule_exact(self, ray_session, tmp_path):
        texts = ["a b c"] * 200
        sources = [f"src{i % 4}" for i in range(200)]
        sf = _write_docs(tmp_path, texts, sources)
        out1 = stratified_sample(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        out2 = stratified_sample(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out1, out2)  # deterministic
        ids = np.arange(200, dtype=np.int64)
        pct = np.where(np.isin(np.array(sources), ["src0", "src1"]), 50, 10)
        want = ids[(ids * 2654435761) % 100 < pct]
        assert np.array_equal(out1["doc_id"].to_numpy(), want)


class TestPackSequences:
    def test_offsets_match_serial_cumsum_any_bucket_count(self, ray_session, tmp_path, tasks,
                                                          monkeypatch):
        texts = [" ".join(rng.choice(WORDS, int(k))) for k in rng.integers(1, 50, 120)]
        sf = _write_docs(tmp_path, texts)
        n_tok = np.array([len(t.split(" ")) for t in texts], dtype=np.int64)
        want_start = np.r_[0, np.cumsum(n_tok)[:-1]]
        monkeypatch.setattr(traindata, "PACK_CTX", 16)
        for nb in (1, 3, 8):
            force_buckets(monkeypatch, nb)
            out = pack_sequences(sf)
            assert np.array_equal(out["doc_id"].to_numpy(), np.arange(120))
            assert np.array_equal(out["tok_start"].to_numpy(), want_start)
            assert np.array_equal(out["chunk_id"].to_numpy(), want_start // 16)
        assert tasks["_reduce_bucket"] == 1 + 3 + 8

    def test_chunks_cover_stream_without_gaps(self, ray_session, tmp_path, monkeypatch):
        texts = [" ".join(rng.choice(WORDS, 10)) for _ in range(64)]
        sf = _write_docs(tmp_path, texts)
        monkeypatch.setattr(traindata, "PACK_CTX", 32)
        out = pack_sequences(sf)
        # chunk ids are non-decreasing in doc order and start at chunk 0
        c = out["chunk_id"].to_numpy()
        assert c[0] == 0 and (np.diff(c) >= 0).all()
        assert c[-1] == 63 * 10 // 32  # the last doc starts at token 630


class TestDupClusters:
    def test_transitive_chain_single_cluster(self, ray_session, tmp_path, monkeypatch):
        """a~b and b~c overlap pairwise >= 0.5 but a~c may not — the
        component must still merge all three (transitivity via union-find)."""
        base = list(rng.choice(WORDS, 60))
        b = list(base)
        b[:18] = rng.choice(WORDS, 18)  # ~70% overlap with a
        c = list(b)
        c[-18:] = rng.choice(WORDS, 18)  # ~70% overlap with b, less with a
        texts = [" ".join(base), " ".join(b), " ".join(c)] + [
            " ".join(rng.choice(WORDS, 60)) for _ in range(20)
        ]
        sf = _write_docs(tmp_path, texts)
        monkeypatch.setattr(traindata, "DUP_CLUSTER_THRESHOLD", 0.3)
        out = dup_clusters(sf)
        got = out.set_index("doc_id")["cluster_id"]
        assert got.loc[0] == got.loc[1] == got.loc[2] == 0
        # the constant reaches the reduce: no Jaccard reaches 1.01
        monkeypatch.setattr(traindata, "DUP_CLUSTER_THRESHOLD", 1.01)
        assert len(dup_clusters(sf)) == 0

    def test_blocking_by_source_respected(self, ray_session, tmp_path):
        """Identical texts in DIFFERENT sources must not pair (source is the
        blocking key)."""
        t = " ".join(rng.choice(WORDS, 50))
        texts = [t, t, t]
        sf = _write_docs(tmp_path, texts, sources=["s1", "s1", "s2"])
        out = dup_clusters(sf)
        got = dict(zip(out["doc_id"], out["cluster_id"]))
        assert got == {0: 0, 1: 0}  # doc 2 (other source) not clustered


class TestMidQuality:
    def test_band_filter_matches_percentiles(self, ray_session, tmp_path):
        lens = rng.integers(1, 80, 300)
        texts = [" ".join(["w"] * int(k)) for k in lens]
        sf = _write_docs(tmp_path, texts)
        out = mid_quality_docs(sf).to_pandas()
        n_chars = np.array([len(t) for t in texts], dtype=np.float64)
        lo, hi = np.percentile(n_chars, [25, 75])
        want = np.flatnonzero((n_chars >= lo) & (n_chars <= hi))
        assert np.array_equal(np.sort(out["doc_id"].to_numpy()), want)


class TestDedupPassages:
    def test_planted_chunk_dup_counts(self, ray_session, tmp_path, tasks, monkeypatch):
        """Doc 1 repeats doc 0's full 64-word chunk (dup attributes to the
        LATER (doc, chunk)); doc 2 shares no chunk. Short docs (< chunk)
        still form one chunk each and exact-match across docs."""
        from mpds_ray.pipelines.traindata import dedup_passages

        rng = np.random.default_rng(7)
        base = " ".join(rng.choice(WORDS, 64))       # exactly one chunk
        other = " ".join(rng.choice(WORDS, 64))
        sf = _write_docs(
            tmp_path,
            [
                base,                      # doc 0: chunk A
                base + " " + other,        # doc 1: chunk A (dup) + chunk B
                "unique tail words here",  # doc 2: one short chunk
                "unique tail words here",  # doc 3: dup of doc 2's chunk
            ],
        )
        force_buckets(monkeypatch, 4)
        out = dedup_passages(sf).set_index("doc_id")
        assert tasks["_reduce_bucket"] == 4
        assert out.loc[0, "n_chunks"] == 1 and out.loc[0, "n_dup_chunks"] == 0
        assert out.loc[1, "n_chunks"] == 2 and out.loc[1, "n_dup_chunks"] == 1
        assert out.loc[2, "n_dup_chunks"] == 0
        assert out.loc[3, "n_chunks"] == 1 and out.loc[3, "n_dup_chunks"] == 1

    def test_bucket_count_invariance(self, ray_session, tasks, monkeypatch):
        from mpds_ray.pipelines.traindata import dedup_passages

        sf = "/root/testdata/sf0.001"
        force_buckets(monkeypatch, 1)
        a = dedup_passages(sf)
        force_buckets(monkeypatch, 16)
        b = dedup_passages(sf)
        assert tasks["_reduce_bucket"] == 1 + 16
        pd.testing.assert_frame_equal(a, b)


class TestCurateCorpus:
    def test_each_filter_bites(self, ray_session, tmp_path, tasks, monkeypatch):
        """A corpus planted so every filter drops at least one doc: a dup
        pair (later id dropped), a short doc, a contaminated doc (shares a
        blocklist trigram), and the sampling rule; survivors' per-source
        counts and word totals match a pandas replay of the same rules."""
        from mpds_ray.pipelines.traindata import (
            BLOCKLIST_DOCS,
            CURATE_MIN_WORDS,
            SAMPLE_HEAVY_PCT,
            SAMPLE_HEAVY_SOURCES,
            SAMPLE_LIGHT_PCT,
            curate_corpus,
        )

        # The stand-in tokenizer hashes (first byte, length) only — so give
        # every doc its OWN first character (all words of doc d start with
        # c_d, lengths vary by position): cross-doc trigrams can then match
        # ONLY for the planted full copy, never by accident
        def long(ch):
            return " ".join(ch * (j + 2) for j in range(CURATE_MIN_WORDS + 10))

        chars = [chr(48 + i) for i in range(45)]  # '0'..'\\' distinct bytes
        block_text = long(chars[0])
        texts, sources = [], []
        # blocklist ids 0..19
        for i in range(BLOCKLIST_DOCS):
            texts.append(block_text if i == 0 else long(chars[i]))
            sources.append("src0")
        # corpus docs 20..39
        dup = long(chars[20])
        for i in range(20):
            if i == 0 or i == 1:
                texts.append(dup)            # dup pair: 21 drops
            elif i == 2:
                texts.append("too short")    # quality drop
            elif i == 3:
                texts.append(block_text)     # contaminated drop
            else:
                texts.append(long(chars[21 + i]))
            sources.append("src0" if i % 2 == 0 else "src9")
        sf = _write_docs(tmp_path, texts, sources)
        force_buckets(monkeypatch, 4)
        out = curate_corpus(sf)
        assert tasks["_reduce_bucket"] == 2 * 4  # the dedup and the join

        # pandas replay of the four rules
        df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts,
                           "source": sources})
        df["n_words"] = df.text.str.split(" ").str.len()
        keep_ids = df.groupby("text").doc_id.min()
        blk = set(texts[i] for i in range(BLOCKLIST_DOCS))
        def contaminated(t):
            return t in blk  # full-text match implies shared trigrams here
        pct = df.source.isin(SAMPLE_HEAVY_SOURCES).map(
            {True: SAMPLE_HEAVY_PCT, False: SAMPLE_LIGHT_PCT})
        m = (
            df.doc_id.isin(keep_ids)
            & (df.doc_id >= BLOCKLIST_DOCS)
            & ~df.text.map(contaminated)
            & (df.n_words >= CURATE_MIN_WORDS)
            & ((df.doc_id * 2654435761) % 100 < pct)
        )
        exp = (
            df[m].groupby("source")
            .agg(n_docs=("doc_id", "size"), n_words_kept=("n_words", "sum"))
            .reset_index()
        )
        got = out.set_index("source")
        for _, r in exp.iterrows():
            assert got.loc[r.source, "n_docs"] == r.n_docs
            assert got.loc[r.source, "n_words_kept"] == r.n_words_kept
        assert int(out.n_docs.sum()) == int(m.sum())


class TestGroupWeightedSample:
    def test_exactly_k_per_source_and_weighting(self, ray_session, sf_dir):
        import pandas as pd

        from mpds_ray.pipelines.traindata import (
            GROUP_SAMPLE_K,
            group_uniform_sample,
            group_weighted_sample,
        )

        out = group_weighted_sample(sf_dir)
        assert (out.groupby("source").size() == GROUP_SAMPLE_K).all()
        # PPS property (statistical, deterministic for this fixture): the
        # length-weighted sample's mean n_chars exceeds the uniform sample's
        docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])
        m = docs.set_index("doc_id")["n_chars"]
        uni = group_uniform_sample(sf_dir)
        assert m.loc[out["doc_id"]].mean() > m.loc[uni["doc_id"]].mean()

    def test_parallelism_invariant(self, ray_session, tmp_path):
        """Sharded input selects the same rows as the single-file input."""
        import pandas as pd
        import pyarrow.parquet as pq

        from mpds_ray.pipelines.traindata import group_weighted_sample

        src = "/root/testdata/sf0.01/documents.parquet"
        full = group_weighted_sample("/root/testdata/sf0.01")
        df = pd.read_parquet(src)
        d = tmp_path / "documents.parquet"
        d.mkdir()
        for i in range(4):
            import pyarrow as pa

            pq.write_table(pa.Table.from_pandas(df.iloc[i::4], preserve_index=False),
                           str(d / f"part-{i}.parquet"))
        sharded = group_weighted_sample(str(tmp_path))
        pd.testing.assert_frame_equal(full, sharded)
