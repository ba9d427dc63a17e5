"""Vocabulary / n-gram frequency, stopword rewrite, grouped top-k — semantic
tests beyond the DuckDB gate: boundary masking, tie-straddling partials,
empty-after-filter docs, batching invariance."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts):
    df = pd.DataFrame(
        {
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
            "source": "s",
            "lang": "en",
            "n_chars": [len(t) for t in texts],
        }
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")


class TestVocab:
    def test_counts_match_loop_oracle(self, ray_session, tmp_path):
        rng = np.random.default_rng(11)
        words = np.array(["aa", "bb", "cc", "dd", "ee"])
        texts = [" ".join(rng.choice(words, rng.integers(1, 30))) for _ in range(50)]
        _write_docs(tmp_path, texts)
        from collections import Counter

        from mpds_ray.pipelines.text import VOCAB_K, vocab_top_terms

        want = Counter(w for t in texts for w in t.split(" "))
        assert VOCAB_K == 100
        got = vocab_top_terms(str(tmp_path))
        assert dict(zip(got["term"], got["n"])) == dict(want)
        # ordering: (n DESC, term ASC)
        key = list(zip(-got["n"].to_numpy(), got["term"]))
        assert key == sorted(key)

    def test_topk_tie_straddles_buckets(self, ray_session, tmp_path, monkeypatch):
        # 6 terms with IDENTICAL counts; k=3 must keep the lexicographically
        # smallest 3 even though per-bucket partials see disjoint subsets
        texts = ["t1 t2 t3", "t4 t5 t6", "t1 t2 t3", "t4 t5 t6"]
        _write_docs(tmp_path, texts)
        from mpds_ray.pipelines import text

        monkeypatch.setattr(text, "VOCAB_K", 3)
        got = text.vocab_top_terms(str(tmp_path))
        assert list(got["term"]) == ["t1", "t2", "t3"]
        assert list(got["n"]) == [2, 2, 2]

    def test_bigrams_never_cross_documents(self, ray_session, tmp_path):
        # doc0 ends "x"; doc1 starts "y": bigram "x y" must NOT appear
        texts = ["a b x", "y c d", "a b x", "y c d"]
        _write_docs(tmp_path, texts)
        from mpds_ray.pipelines.text import BIGRAM_K, bigram_top_terms

        assert BIGRAM_K == 100
        got = bigram_top_terms(str(tmp_path))
        terms = set(got["term"])
        assert "x y" not in terms
        assert dict(zip(got["term"], got["n"])) == {
            "a b": 2, "b x": 2, "y c": 2, "c d": 2
        }


class TestCleanText:
    def test_rewrite_and_empty_doc(self, ray_session, tmp_path):
        texts = ["the a of", "keep the word", "keep keep"]
        _write_docs(tmp_path, texts)
        from mpds_ray.pipelines.text import clean_text

        got = clean_text(str(tmp_path)).to_pandas().sort_values("doc_id")
        assert list(got["clean_text"]) == ["", "keep word", "keep keep"]
        assert list(got["n_kept"]) == [0, 2, 2]


class TestGroupedTopK:
    def _write_events(self, tmp_path, df):
        pq.write_table(pa.Table.from_pandas(df), tmp_path / "events.parquet")

    def test_matches_pandas_oracle_with_rank_k_ties(self, ray_session, tmp_path):
        rng = np.random.default_rng(13)
        n = 4000
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(n), "s"),
                "user_id": rng.integers(0, 40, n).astype(np.int64),
                "event_type": rng.choice(["view", "click", "purchase"], n),
                # quantized values => exact rank-k total ties occur
                "value": rng.integers(1, 4, n).astype(np.float64),
                "props": "{}",
            }
        )
        self._write_events(tmp_path, df)
        from mpds_ray.pipelines.eventspipe import TOP_USERS_K, top_users_per_event_type

        assert TOP_USERS_K == 3
        got = top_users_per_event_type(str(tmp_path))
        agg = df.groupby(["event_type", "user_id"], as_index=False)["value"].sum()
        agg["total_value"] = agg["value"].round(6)
        want = (
            agg.sort_values(["total_value", "user_id"], ascending=[False, True])
            .groupby("event_type", sort=False)
            .head(3)
            .sort_values(["event_type", "total_value", "user_id"],
                         ascending=[True, False, True])
            .reset_index(drop=True)[["event_type", "user_id", "total_value"]]
        )
        pd.testing.assert_frame_equal(got, want)


class TestTfIdf:
    def test_matches_loop_oracle_and_vocab_cap(self, ray_session, tmp_path, monkeypatch):
        import math
        from collections import Counter

        rng = np.random.default_rng(17)
        words = np.array(["w%02d" % i for i in range(12)])
        texts = [" ".join(rng.choice(words, rng.integers(3, 25))) for _ in range(30)]
        _write_docs(tmp_path, texts)
        from mpds_ray.pipelines import text
        from mpds_ray.pipelines.text import tfidf_top_term

        got = tfidf_top_term(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
        # loop oracle: tf * ln(N/df), rank on the rounded score, term ASC ties
        df_count = Counter(w for t in texts for w in set(t.split(" ")))
        n = len(texts)
        want = []
        for i, t in enumerate(texts):
            tf = Counter(t.split(" "))
            best = min(
                ((-round(c * math.log(n / df_count[w]), 6), w) for w, c in tf.items())
            )
            want.append((i, best[1], -best[0]))
        want = pd.DataFrame(want, columns=["doc_id", "term", "tfidf"])
        pd.testing.assert_frame_equal(got, want)

        # vocab cap: with k=1 only the highest-df term is scoreable
        monkeypatch.setattr(text, "TFIDF_VOCAB_K", 1)
        capped = tfidf_top_term(str(tmp_path)).to_pandas()
        assert capped["term"].nunique() == 1
        top_df_term = min((-c, w) for w, c in df_count.items())[1]
        assert set(capped["term"]) == {top_df_term}


class TestPropsJson:
    def test_missing_and_malformed_props_drop(self, ray_session, tmp_path):
        df = pd.DataFrame(
            {
                "event_id": np.arange(6, dtype=np.int64),
                "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(6), "s"),
                "user_id": np.zeros(6, dtype=np.int64),
                "event_type": ["view"] * 3 + ["click"] * 3,
                "value": np.ones(6),
                "props": ['{"k": 5}', "{}", '{"k": -3}', "not json", '{"k": 10}', ""],
            }
        )
        pq.write_table(pa.Table.from_pandas(df), tmp_path / "events.parquet")
        from mpds_ray.pipelines.eventspipe import props_json_stats

        got = props_json_stats(str(tmp_path))
        want = pd.DataFrame(
            {
                "event_type": ["click", "view"],
                "n_with_k": np.array([1, 2], dtype=np.int64),
                "mean_k": [10.0, 1.0],
                "max_k": np.array([10, 5], dtype=np.int64),
            }
        )
        pd.testing.assert_frame_equal(got, want)


class TestMisraGries:
    def test_summary_bound_and_guarantee(self):
        """On an over-capacity adversarial stream the MG undercount stays
        <= N/(capacity+1) and every term with true count above that bound
        is present in the summary."""
        import numpy as np

        from mpds_ray.pipelines.text import _mg_summary

        rng = np.random.default_rng(0)
        # 500 distinct terms, Zipf-ish: a few heavy, long light tail
        heavy = np.repeat([f"h{i}" for i in range(5)], 400)
        tail = rng.choice([f"t{i}" for i in range(495)], 2000)
        stream = np.concatenate([heavy, tail])
        terms, counts = np.unique(stream, return_counts=True)
        cap = 64
        st, sc = _mg_summary(terms, counts.astype(np.int64), cap)
        assert st.size <= cap
        n = stream.size
        bound = n / (cap + 1)
        true = dict(zip(terms, counts))
        for t, c in zip(st, sc):
            assert 0 < c <= true[t]
            assert true[t] - c <= bound
        for t, c in true.items():
            if c > bound:
                assert t in set(st)

    def test_two_pass_exact_over_capacity(self, ray_session, tmp_path, monkeypatch):
        """capacity < distinct terms: the two-pass protocol still returns
        the EXACT top-k because pass 2 recounts candidates exactly."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mpds_ray.pipelines import text

        rng = np.random.default_rng(1)
        docs = []
        for i in range(40):
            words = [f"common{j}" for j in range(3)] * 10 + list(
                rng.choice([f"rare{j}" for j in range(300)], 30)
            )
            rng.shuffle(words)
            docs.append(" ".join(words))
        df = pd.DataFrame(
            {"doc_id": np.arange(40, dtype=np.int64), "text": docs,
             "lang": "en", "source": "s", "n_chars": [len(t) for t in docs]}
        )
        pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
        monkeypatch.setattr(text, "HEAVY_HITTER_K", 3)
        monkeypatch.setattr(text, "HEAVY_HITTER_CAPACITY", 32)
        capacities = []
        mg_summary = text._mg_summary
        monkeypatch.setattr(text, "_mg_summary", lambda terms, counts, capacity: (
            capacities.append(capacity) or mg_summary(terms, counts, capacity)))
        got = text.heavy_hitter_terms(str(tmp_path))
        all_words = np.concatenate([d.split(" ") for d in docs])
        t, c = np.unique(all_words, return_counts=True)
        assert capacities == [32] and len(t) > 32  # the driver merge ran over capacity
        exp = pd.DataFrame({"term": t, "n": c.astype(np.int64)}).sort_values(
            ["n", "term"], ascending=[False, True], kind="mergesort"
        ).head(3).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)

    def test_mg_violation_warns_not_silent(self, ray_session, tmp_path, monkeypatch):
        """ADVICE r3: when the k-th exact candidate count does NOT clear the
        N/(capacity+1) undercount bound, the caller gets a RuntimeWarning
        instead of a silently-maybe-approximate top-k."""
        import warnings

        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mpds_ray.pipelines import text

        rng = np.random.default_rng(3)
        # near-uniform stream: every count is far below N/(capacity+1)
        words = rng.choice([f"w{j}" for j in range(2000)], 8000)
        docs = [" ".join(words[i * 200:(i + 1) * 200]) for i in range(40)]
        df = pd.DataFrame(
            {"doc_id": np.arange(40, dtype=np.int64), "text": docs,
             "lang": "en", "source": "s", "n_chars": [len(t) for t in docs]}
        )
        pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            monkeypatch.setattr(text, "HEAVY_HITTER_K", 3)
            monkeypatch.setattr(text, "HEAVY_HITTER_CAPACITY", 4)
            text.heavy_hitter_terms(str(tmp_path))
        assert any("Misra-Gries bound" in str(x.message) for x in w)
