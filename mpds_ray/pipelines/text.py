"""Training-data text operators over documents: exact & near dedup, token
counting, quality scoring, language-id, fingerprinting, windowed token stats
(SURVEY §2.8 + the large-scale-pipeline additions).

SQL-expressible operators carry DuckDB oracles; the sketch-based ones
(MinHash-LSH, SimHash, fingerprints) are deterministic and covered by pytest
(driver records rows-only checks for them).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.exchange import key_bucket, shard_map
from ..stages.partition import run_bounds
from ..stages.window_stats import token_stats_arrays
from ..tokenize import TOKENS_SQL_EXPR, VOCAB, tokenize_batch
from .common import round_half_away, shard_list

DOC_COLS = ["doc_id", "text", "source"]  # what tokenize_batch reads

STOPWORDS = ("the", "a", "of", "and", "to")

# --- exact dedup (D1): first doc per identical text ---


def dedup_exact(sf_dir: str):
    """Exact dedup over the engine's explicit hash exchange: map tasks hash
    the text per shard (only the 64-bit content hash is shuffled, never the
    payload), reduce tasks take per-hash (min doc_id, count). The r1 Dataset
    ``groupby`` version paid the sort-shuffle's fixed ~3-4 s twice (groupby +
    trailing global sort) to produce 500 rows — VERDICT 'Next round' #5."""
    from ..stages.exchange import hash_exchange

    shards = shard_list(sf_dir, "documents")

    def map_fn(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(t["text"].to_pandas(), index=False).astype("uint64")
        return pa.table(
            {"text_hash": pa.array(h.astype("int64")), "doc_id": t["doc_id"]}
        )

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = (
            tbl.to_pandas()
            .groupby("text_hash", sort=False)
            .agg(keep_doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))
        )
        return g.reset_index(drop=True)

    out = hash_exchange(shards, map_fn, "text_hash", reduce_fn, columns=["doc_id", "text"])
    return out.sort_values("keep_doc_id").reset_index(drop=True)


DEDUP_SQL = """
SELECT min(doc_id) AS keep_doc_id, count(*) AS n_copies
FROM documents GROUP BY text ORDER BY keep_doc_id
"""

# --- exact-substring (repeated k-gram) dedup stats ---

REPEAT_K = 8


def repeated_ngram_stats(sf_dir: str):
    """Exact-substring dedup statistics (the repeated-k-gram formulation of
    Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better", re-expressed as one hash exchange): every token k-gram is keyed
    by its exact byte image; a gram occurring >= 2 times anywhere in the
    corpus (any doc, including within one doc) marks its positions repeated.
    Output per doc: gram count, repeated-position count, repeated fraction.

    Scale shape: the shuffle carries (gram bytes, doc_id) pairs — O(tokens *
    4k) bytes, the standard substring-dedup exchange. A gram's occurrences
    all co-locate in one bucket (keyed by gram hash), so each bucket holds
    its grams' GLOBAL counts — no second pass. Per-bucket partials are
    (doc_id, n_occ, n_rep), bounded by docs-per-bucket; the driver fold is
    O(result rows). Gram-hash keys are near-uniform, so no salting needed.
    """
    from ..stages.exchange import hash_exchange

    shards = shard_list(sf_dir, "documents")
    kk = REPEAT_K

    def map_fn(t: pa.Table) -> pa.Table:
        tok = tokenize_batch(t)
        arr = tok["tokens"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        if flat.size < kk:
            return pa.table(
                {
                    "gram_hash": pa.array([], type=pa.int64()),
                    "gram": pa.array([], type=pa.binary(4 * kk)),
                    "doc_id": pa.array([], type=pa.int64()),
                }
            )
        doc_ids = tok["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = np.diff(offs)
        win = np.lib.stride_tricks.sliding_window_view(flat, kk)  # (N-k+1, k)
        # doc of each window start; valid iff the window stays inside the doc
        doc_of = np.repeat(np.arange(offs.size - 1, dtype=np.int64), lengths)[
            : win.shape[0]
        ]
        starts = np.arange(win.shape[0], dtype=np.int64)
        valid = starts + kk <= offs[1:][doc_of]
        win = np.ascontiguousarray(win[valid])
        gdoc = doc_ids[doc_of[valid]]
        # routing hash: uint64 wraparound polynomial over the k token ids —
        # collisions only affect routing; equality below is on exact bytes
        h = np.zeros(win.shape[0], dtype=np.uint64)
        wu = win.astype(np.uint64)
        p = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for j in range(kk):
                h = h * p + wu[:, j]
        gram = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(4 * kk),
            win.shape[0],
            [None, pa.py_buffer(win.astype("<i4").tobytes())],
        )
        return pa.table(
            {
                "gram_hash": pa.array(h.astype(np.int64)),
                "gram": gram,
                "doc_id": pa.array(gdoc),
            }
        )

    void_t = np.dtype((np.void, 4 * kk))

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        garr = tbl["gram"].combine_chunks()
        item = 4 * kk
        raw = np.frombuffer(garr.buffers()[1], dtype=np.uint8)
        raw = raw[garr.offset * item : (garr.offset + len(garr)) * item]
        key = raw.view(void_t)
        _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
        rep = (counts >= 2)[inv]
        docs = tbl["doc_id"].to_numpy(zero_copy_only=False)
        uids, dinv = np.unique(docs, return_inverse=True)
        return pd.DataFrame(
            {
                "doc_id": uids,
                "n_occ": np.bincount(dinv).astype(np.int64),
                "n_rep": np.bincount(dinv, weights=rep.astype(np.float64)).astype(
                    np.int64
                ),
            }
        )

    out = hash_exchange(
        shards, map_fn, "gram_hash", reduce_fn,
        columns=["doc_id", "text", "source"],
    )
    g = (
        out.groupby("doc_id", sort=True)
        .agg(n_grams=("n_occ", "sum"), n_repeated=("n_rep", "sum"))
        .reset_index()
    )
    g["n_grams"] = g["n_grams"].astype(np.int64)
    g["n_repeated"] = g["n_repeated"].astype(np.int64)
    g["repeated_frac"] = np.round(g["n_repeated"] / g["n_grams"], 6)
    return g


REPEAT_NGRAM_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), pos AS (
  SELECT doc_id, tokens, unnest(range(1, len(tokens) - {REPEAT_K} + 2)) AS i
  FROM tok WHERE len(tokens) >= {REPEAT_K}
), grams AS (
  SELECT doc_id, list_slice(tokens, i, i + {REPEAT_K} - 1) AS g FROM pos
), cnt AS (
  SELECT g, count(*) AS c FROM grams GROUP BY g
)
SELECT doc_id,
       count(*) AS n_grams,
       count(*) FILTER (WHERE c >= 2) AS n_repeated,
       round(count(*) FILTER (WHERE c >= 2) * 1.0 / count(*), 6) AS repeated_frac
FROM grams JOIN cnt USING (g)
GROUP BY doc_id
ORDER BY doc_id
"""

# --- token counting / quality scoring ---


def token_counts(sf_dir: str):
    """Vectorized word counting: one Arrow split + one list_value_length per
    batch — no per-row Python (the r2 ``words.map(len)`` was the last row
    loop in a hot text stage, VERDICT 'What's wrong' #3)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        return pa.table({"doc_id": batch["doc_id"], "n_words": n.cast(pa.int64())})

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"], collect="token_counts"
    )


TOKEN_COUNT_SQL = "SELECT doc_id, len(string_split(text, ' ')) AS n_words FROM documents"

# BPE-ish segmentation: alpha runs, digit runs, and single non-alnum marks —
# the shape a byte-pair pretokenizer produces. Same regex runs in pandas
# (Python re) and DuckDB (RE2): alternation of three simple classes only.
BPE_PATTERN = "[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]"


def token_counts_bpe(sf_dir: str):
    """Token counting under a BPE-ish pretokenizer regex (large-scale
    pipeline brief: whitespace + BPE-ish regex counting)."""

    def fn(t: pa.Table) -> pd.DataFrame:
        b = t.to_pandas()
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_bpe_tokens": b["text"].str.count(BPE_PATTERN).astype(np.int64),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"],
        collect="token_counts_bpe",
    )


TOKEN_COUNT_BPE_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{BPE_PATTERN}')) AS n_bpe_tokens
FROM documents
"""


def quality_scores(sf_dir: str):
    """length / stopword-ratio / mean-word-length quality features
    (the reference's stat-block shape applied to text hygiene).
    Segment-vectorized over the flattened word array (no per-row Python,
    VERDICT 'What's wrong' #6): one split, one is_in, one utf8_length, then
    ``np.add.reduceat`` over the list offsets."""
    import pyarrow.compute as pc

    stop_set = pa.array(list(STOPWORDS))

    def fn(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        words = pc.split_pattern(text, " ")
        words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        flat = words.flatten()
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        # n >= 1 for non-null text (splitting "" yields [""]) but a NULL text
        # row is an EMPTY list segment, where raw np.add.reduceat would return
        # a neighbour's value — route through the empty-safe segment reducer
        # (ADVICE r2) and guard the divisions.
        n = np.diff(offs)
        safe_n = np.where(n > 0, n, 1)
        stop_n = _segment_reduceat(
            np.add,
            pc.is_in(flat, value_set=stop_set).to_numpy(zero_copy_only=False).astype(np.int64),
            offs,
            0,
        )
        wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.float64)
        mean_len = _segment_reduceat(np.add, wlen, offs, 0.0) / safe_n
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n),
                "stop_ratio": pa.array(np.round(stop_n / safe_n, 6)),
                "mean_word_len": pa.array(np.round(mean_len, 6)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"],
        collect="quality_scores",
    )


QUALITY_SQL = f"""
SELECT doc_id,
       len(string_split(text, ' ')) AS n_words,
       round(len(list_filter(string_split(text, ' '),
                 w -> w IN {STOPWORDS!r})) * 1.0
             / len(string_split(text, ' ')), 6) AS stop_ratio,
       round(list_aggregate(list_transform(string_split(text, ' '),
                 w -> length(w) * 1.0), 'avg'), 6) AS mean_word_len
FROM documents
"""

def doc_repetition_ratio(sf_dir: str):
    """Duplicate token-trigram fraction per document — the Gopher-style
    repetition quality signal (1 − distinct/total trigrams; docs with < 3
    tokens score 0). Fully segment-vectorized across ALL docs in a batch:
    trigram ids are the EXACT injective base-VOCAB combination
    (t1·V + t2)·V + t3 (int64, no hash-collision caveat — identical to the
    SQL identity), distinct counts come from one per-segment sorted-unique
    pass. The int/int division is bit-identical on both sides."""

    def fn(batch: pa.Table) -> pa.Table:
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        lens = np.diff(offs)
        out_lens = np.maximum(lens - 2, 0)
        new_offs = np.r_[0, np.cumsum(out_lens)]
        total = int(new_offs[-1])
        base = np.repeat(offs[:-1], out_lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            new_offs[:-1], out_lens
        )
        starts = base + within
        t = flat.astype(np.int64)
        tri = (t[starts] * VOCAB + t[starts + 1]) * VOCAB + t[starts + 2]
        _, _, uniq = _unique_per_segment(tri, new_offs)
        safe = np.where(out_lens > 0, out_lens, 1)
        ratio = np.where(out_lens > 0, 1.0 - uniq / safe, 0.0)
        return pa.table(
            {
                "doc_id": tok["doc_id"],
                "rep_ratio": pa.array(np.round(ratio, 6)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS, collect="doc_repetition_ratio"
    )


REPETITION_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), tg AS (
  SELECT doc_id, len(tokens) AS n,
         CASE WHEN len(tokens) >= 3 THEN
           list_transform(range(len(tokens) - 2),
             i -> (CAST(tokens[i + 1] AS BIGINT) * 50257
                   + tokens[i + 2]) * 50257 + tokens[i + 3])
         ELSE [] END AS tri
  FROM tok
)
SELECT doc_id,
       CASE WHEN n >= 3
            THEN round(1.0 - len(list_distinct(tri)) * 1.0 / len(tri), 6)
            ELSE 0.0 END AS rep_ratio
FROM tg
"""


def unigram_logprob(sf_dir: str):
    """CCNet/Wenzek-style unigram-LM quality score: mean token log-prob per
    document under the corpus's OWN Laplace-smoothed unigram model (the
    perplexity-filter shape with the LM fit in-pipeline). Pass 1 is a
    VOCAB-bounded distributed bincount — one (50257,) int64 partial per
    shard task (~400 KB, independent of row count) summed on the driver;
    the log-prob table travels ONCE with the map function and the scoring
    pass is map-only (one fancy-index gather + one segment mean per task).
    6-dp round pins the Ray/SQL mean-order and libm-ln ulps."""
    shards = shard_list(sf_dir, "documents")
    counts = shard_map(shards, _token_counts, columns=DOC_COLS, fold=np.add)
    total = int(counts.sum())
    lp = np.log((counts + 1.0) / (total + VOCAB))  # travels once, inside fn

    def fn(batch: pa.Table) -> pa.Table:
        flat, offs = _flat_tokens(tokenize_batch(batch))
        n = np.diff(offs)
        safe = np.where(n > 0, n, 1)
        mean_lp = (
            _segment_reduceat(np.add, lp[flat.astype(np.int64)], offs, 0.0) / safe
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "mean_logprob": pa.array(
                    np.round(np.where(n > 0, mean_lp, 0.0), 6)
                ),
            }
        )

    return shard_map(shards, fn, columns=DOC_COLS, collect="unigram_logprob")


def _token_counts(t: pa.Table) -> np.ndarray:
    """``unigram_logprob``'s pass 1: one shard's token bincount."""
    flat, _ = _flat_tokens(tokenize_batch(t))
    return np.bincount(flat.astype(np.int64), minlength=VOCAB)


UNIGRAM_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), flat AS (
  SELECT doc_id, unnest(tokens) AS t FROM tok
), cnt AS (
  SELECT t, count(*) AS c FROM flat GROUP BY t
), tot AS (
  SELECT count(*) AS n FROM flat
), scored AS (
  SELECT f.doc_id, ln((c + 1.0) / (n + 50257)) AS lp
  FROM flat f JOIN cnt USING (t) CROSS JOIN tot
)
SELECT k.doc_id, round(coalesce(avg(lp), 0.0), 6) AS mean_logprob
FROM tok k LEFT JOIN scored s ON k.doc_id = s.doc_id
GROUP BY k.doc_id
"""


def _mg_summary(terms: np.ndarray, counts: np.ndarray, capacity: int):
    """Reduce exact (term, count) pairs to a Misra–Gries summary of at most
    ``capacity`` entries: decrement every count by the (capacity+1)-th
    largest and keep the positive remainder. Undercount per term <=
    N/(capacity+1); summaries MERGE by summing counts then re-reducing
    (Agarwal et al., Mergeable Summaries)."""
    if terms.size <= capacity:
        return terms, counts
    order = np.argsort(counts, kind="stable")[::-1]
    t = int(counts[order[capacity]])
    keep = counts - t > 0
    return terms[keep], counts[keep] - t


def heavy_hitter_terms(sf_dir: str):
    """Exact top-k terms via the two-pass heavy-hitter protocol — the
    bounded-memory alternative to a full vocab exchange when the term
    domain is unbounded: pass 1 builds a mergeable Misra–Gries summary per
    shard (<= capacity entries each, merged and re-reduced on the driver —
    every term with frequency >= N/(capacity+1) is guaranteed present);
    pass 2 broadcasts the candidate set and counts ONLY those terms
    exactly, so the final top-k is EXACT whenever the true k-th frequency
    clears the MG guarantee (capacity >> k; bound pytest-pinned on an
    adversarial over-capacity stream). The guarantee is now VERIFIED, not
    assumed (ADVICE r3): pass 1 tracks the total token count N, and if the
    k-th exact candidate count fails to clear the N/(capacity+1) undercount
    bound the function emits a RuntimeWarning naming the violated condition
    — callers learn when the result is only approximate."""
    k, capacity = HEAVY_HITTER_K, HEAVY_HITTER_CAPACITY
    shards = shard_list(sf_dir, "documents")
    merged: dict[str, int] = {}
    n_total = 0
    for terms, counts, n_shard in shard_map(
        shards, partial(_term_summary, capacity=capacity), columns=["text"]
    ):
        n_total += n_shard
        for t, c in zip(terms, counts):
            merged[t] = merged.get(t, 0) + int(c)
    mt = np.array(list(merged.keys()))
    mc = np.array(list(merged.values()), dtype=np.int64)
    cand, _ = _mg_summary(mt, mc, capacity)
    exact: dict[str, int] = {}
    for terms, counts in shard_map(
        shards, partial(_term_exact, cand=np.sort(cand)), columns=["text"]
    ):
        for t, c in zip(terms, counts):
            exact[t] = exact.get(t, 0) + int(c)
    out = pd.DataFrame({"term": list(exact.keys()),
                        "n": np.array(list(exact.values()), dtype=np.int64)})
    out = (
        out.sort_values(["n", "term"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    # verify the MG exactness condition against the tracked stream length:
    # every term with true frequency > N/(capacity+1) is guaranteed in the
    # candidate set, so the top-k is exact iff the k-th exact candidate
    # count clears that bound — detectable, so detect it
    if len(out) and out["n"].iloc[-1] <= n_total / (capacity + 1):
        import warnings

        warnings.warn(
            f"heavy_hitter_terms: k-th candidate count {int(out['n'].iloc[-1])} "
            f"does not clear the Misra-Gries bound N/(capacity+1) = "
            f"{n_total / (capacity + 1):.1f} (N={n_total}, capacity={capacity}) — "
            "top-k may be approximate; raise capacity",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def _terms(t: pa.Table) -> np.ndarray:
    flat, _ = _split_flat_offsets(t["text"])
    return np.asarray(flat.to_pandas())


def _term_summary(t: pa.Table, capacity: int):
    """``heavy_hitter_terms``' pass 1: one shard's Misra–Gries summary and
    its token count."""
    v = _terms(t)
    terms, counts = np.unique(v, return_counts=True)
    mg_t, mg_c = _mg_summary(terms, counts.astype(np.int64), capacity)
    return mg_t, mg_c, int(v.size)


def _term_exact(t: pa.Table, cand: np.ndarray):
    """``heavy_hitter_terms``' pass 2: exact counts of the candidate terms
    in one shard."""
    v = _terms(t)
    terms, counts = np.unique(v[np.isin(v, cand)], return_counts=True)
    return terms, counts.astype(np.int64)


HEAVY_HITTER_K = 20
HEAVY_HITTER_CAPACITY = 4096
HEAVY_HITTER_SQL = """
SELECT term, count(*) AS n FROM (
  SELECT unnest(string_split(text, ' ')) AS term FROM documents
) GROUP BY term ORDER BY n DESC, term LIMIT 20
"""


def source_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources (the corpus-mix audit a
    pretraining pipeline runs before weighting sources): map tasks emit
    DISTINCT (source, token) pairs — bounded by |sources| × VOCAB, never by
    rows — and the driver computes the |sources|² overlap matrix with one
    indicator matmul. Intersections/sizes are exact ints, so the Jaccard
    division is bit-identical to SQL."""

    def fn(batch: pa.Table) -> pa.Table:
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        src = tok["source"].to_numpy(zero_copy_only=False)
        d = pd.DataFrame(
            {
                "source": np.repeat(src, np.diff(offs)),
                "t": flat.astype(np.int64),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(d, preserve_index=False)

    # bound: |sources| x VOCAB distinct (source, token) pairs per task
    pairs = shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS,
        collect="source_vocab_overlap",
    ).to_pandas().drop_duplicates()
    su, sinv = np.unique(pairs["source"].to_numpy(), return_inverse=True)
    tu, tinv = np.unique(pairs["t"].to_numpy(), return_inverse=True)
    m = np.zeros((su.size, tu.size), dtype=np.float32)
    m[sinv, tinv] = 1.0
    inter = (m @ m.T).astype(np.int64)
    sizes = inter.diagonal()
    ii, jj = np.triu_indices(su.size, k=1)
    i = inter[ii, jj]
    keep = i > 0
    ii, jj, i = ii[keep], jj[keep], i[keep]
    union = sizes[ii] + sizes[jj] - i
    return pd.DataFrame(
        {
            "source_a": su[ii],
            "source_b": su[jj],
            "n_shared": i,
            "vocab_jaccard": np.round(i / union, 6),
        }
    ).sort_values(["source_a", "source_b"]).reset_index(drop=True)


VOCAB_OVERLAP_SQL = f"""
WITH tok AS (
  SELECT source, {TOKENS_SQL_EXPR} AS tokens FROM documents
), f AS (
  SELECT DISTINCT source, t
  FROM (SELECT source, unnest(tokens) AS t FROM tok)
), sz AS (
  SELECT source, count(*) AS n FROM f GROUP BY 1
), inter AS (
  SELECT a.source AS source_a, b.source AS source_b, count(*) AS n_shared
  FROM f a JOIN f b ON a.t = b.t AND a.source < b.source
  GROUP BY 1, 2
)
SELECT source_a, source_b, n_shared,
       round(n_shared * 1.0 / (sa.n + sb.n - n_shared), 6) AS vocab_jaccard
FROM inter
JOIN sz sa ON sa.source = source_a
JOIN sz sb ON sb.source = source_b
ORDER BY 1, 2
"""


# --- windowed token stats over the derived tokens table (W1 surface) ---


def doc_token_stats(sf_dir: str):
    def fn(batch: pa.Table) -> pa.Table:
        tok = tokenize_batch(batch)
        arr = tok["tokens"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = offsets - offsets[0]
        st = token_stats_arrays(flat, offsets, stats=("mean", "std", "median", "range", "En"))
        return pa.table(
            {
                "doc_id": tok["doc_id"],
                "tok_mean": pa.array(np.round(st["mean"], 6)),
                "tok_std": pa.array(np.round(st["std"], 6)),
                "tok_median": pa.array(np.round(st["median"], 6)),
                "tok_range": pa.array(np.round(st["range"], 6)),
                "tok_entropy": pa.array(np.round(st["En"], 6)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS, collect="doc_token_stats"
    )


TOKEN_STATS_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), flat AS (
  SELECT doc_id, unnest(tokens) AS t FROM tok
), counts AS (
  SELECT doc_id, t, count(*) AS c FROM flat GROUP BY doc_id, t
), ent AS (
  SELECT doc_id,
         -sum((c * 1.0 / n) * log2(c * 1.0 / n + 2.220446049250313e-16)) AS entropy
  FROM (SELECT doc_id, c, sum(c) OVER (PARTITION BY doc_id) AS n FROM counts)
  GROUP BY doc_id
)
SELECT f.doc_id,
       round(avg(t), 6)                    AS tok_mean,
       round(coalesce(stddev_samp(t), 0), 6) AS tok_std,
       round(median(t), 6)                 AS tok_median,
       round(max(t) - min(t), 6)           AS tok_range,
       round(any_value(e.entropy), 6)      AS tok_entropy
FROM flat f JOIN ent e ON f.doc_id = e.doc_id
GROUP BY f.doc_id
"""

# --- language id (heuristic; rows-only check + pytest) ---


LANG_PROFILES = {
    "en": ("the", "and", "of", "to", "a"),
    "de": ("der", "die", "und", "das", "ist"),
    "fr": ("le", "la", "et", "les", "des"),
    "es": ("el", "la", "de", "los", "que"),
    "zh": (),
}
LANGS = sorted(k for k, v in LANG_PROFILES.items() if v)  # scored languages


def _lang_pred(batch: pa.Table) -> pa.Table:
    """Stopword-profile language id, heuristic and deterministic: each doc
    scores one point per word in a language's profile and takes the best
    language, or 'und' when nothing scores. Segment-vectorized: one split,
    one is_in per language, reduceat — no per-row Python."""
    import pyarrow.compute as pc

    text = batch["text"].combine_chunks()
    words = pc.split_pattern(text, " ")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    flat = words.flatten()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offs = offs - offs[0]
    scores = np.stack(
        [
            _segment_reduceat(
                np.add,
                pc.is_in(flat, value_set=pa.array(list(LANG_PROFILES[k])))
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                offs,
                0,  # empty (null-text) segments score 0 -> 'und'
            )
            for k in LANGS
        ]
    )  # (n_langs, n_docs); langs sorted ascending
    # argmax with the reference tie-break max(score, lang): on ties the
    # lexicographically LARGEST language wins -> scan langs in REVERSE
    best = (scores.shape[0] - 1) - np.argmax(scores[::-1], axis=0)
    pred = np.where(scores.max(axis=0) > 0, np.array(LANGS, dtype=object)[best], "und")
    return pa.table({"doc_id": batch["doc_id"], "lang_pred": pa.array(pred.astype(str))})


def lang_id(sf_dir: str):
    return shard_map(
        shard_list(sf_dir, "documents"), _lang_pred, columns=["doc_id", "text"],
        collect="lang_id",
    )


def _lang_count_expr(words: tuple[str, ...]) -> str:
    return f"len(list_filter(string_split(text, ' '), w -> w IN {words!r}))"


# CASE chain replicates _lang_pred's tie-break max(score, lang): on equal scores
# the lexicographically LARGEST language wins (fr > es > en > de).
LANG_ID_SQL = f"""
WITH s AS (
  SELECT doc_id,
         {_lang_count_expr(LANG_PROFILES["en"])} AS s_en,
         {_lang_count_expr(LANG_PROFILES["de"])} AS s_de,
         {_lang_count_expr(LANG_PROFILES["fr"])} AS s_fr,
         {_lang_count_expr(LANG_PROFILES["es"])} AS s_es
  FROM documents
)
SELECT doc_id,
       CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
            WHEN s_fr >= s_es AND s_fr >= s_en AND s_fr >= s_de THEN 'fr'
            WHEN s_es >= s_en AND s_es >= s_de THEN 'es'
            WHEN s_en >= s_de THEN 'en'
            ELSE 'de' END AS lang_pred
FROM s
"""


# --- SimHash (64-bit) over tokens — deterministic sketch (rows-only) ---


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return x ^ (x >> np.uint64(31))


def _flat_tokens(tok: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """tokens list column -> (flat uint64 values, rebased int64 offsets)."""
    arr = tok["tokens"].combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offs - offs[0]


def _segment_reduceat(op, values: np.ndarray, offs: np.ndarray, empty) -> np.ndarray:
    """``op.reduceat`` per [offs[i], offs[i+1]) segment with correct handling
    of EMPTY segments (NumPy's reduceat returns a neighbour element there)."""
    lens = np.diff(offs)
    out = np.full(lens.size, empty, dtype=values.dtype if values.size else np.float64)
    nz = lens > 0
    if nz.any():
        out[nz] = op.reduceat(values, offs[:-1][nz])
    return out


def simhash_batch(tokens_list: list[np.ndarray]) -> np.ndarray:
    """Scalar reference implementation (kept as the pytest oracle)."""
    out = np.empty(len(tokens_list), dtype=np.uint64)
    bits = np.arange(64, dtype=np.uint64)
    for i, toks in enumerate(tokens_list):
        h = _splitmix64(np.asarray(toks, dtype=np.uint64))
        bitmat = ((h[:, None] >> bits[None, :]) & np.uint64(1)).astype(np.int64)
        score = (2 * bitmat - 1).sum(axis=0)
        set_bits = bits[score > 0]
        out[i] = (
            np.bitwise_or.reduce(np.left_shift(np.uint64(1), set_bits))
            if set_bits.size
            else np.uint64(0)
        )
    return out


def simhash_flat(flat: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Segment-vectorized 64-bit SimHash: per bit, one mask + one reduceat
    over the flat hashed-token array (64 cache-friendly passes; no per-doc
    Python loop). Identical output to ``simhash_batch``."""
    h = _splitmix64(flat)
    n_tok = np.diff(offs)
    out = np.zeros(n_tok.size, dtype=np.uint64)
    for b in range(64):
        cnt = _segment_reduceat(
            np.add, ((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64), offs, 0
        )
        # score = 2*cnt - n_tok > 0
        out |= (2 * cnt > n_tok).astype(np.uint64) << np.uint64(b)
    return out


def simhash_docs(sf_dir: str):
    def fn(batch: pa.Table) -> pa.Table:
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        sh = simhash_flat(flat, offs)
        return pa.table(
            {"doc_id": tok["doc_id"], "simhash": pa.array(sh.view(np.int64))}
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS, collect="simhash_docs"
    )


# --- MinHash-LSH near-dup candidates (rows-only; pytest proves recall) ---

N_HASHES = 64
N_BANDS = 16  # 4 rows/band


def minhash_signature(shingles: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """64 min-hashes of a shingle set (vectorized over hashes x shingles)."""
    if shingles.size == 0:
        return np.full(seeds.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    h = _splitmix64(shingles[None, :].astype(np.uint64) ^ seeds[:, None])
    return h.min(axis=1)


def _shingles(tokens: np.ndarray) -> np.ndarray:
    k = 3
    t = np.asarray(tokens, dtype=np.uint64)
    if t.size < k:
        return _splitmix64(t)
    acc = np.zeros(t.size - k + 1, dtype=np.uint64)
    for j in range(k):
        acc = _splitmix64(acc ^ t[j : t.size - k + 1 + j])
    return np.unique(acc)


def _shingles_flat(flat: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment-vectorized k=3 rolling shingle hashes over ALL docs at once
    (no per-doc loop). Matches ``_shingles`` per doc minus the np.unique —
    min-hash is invariant under duplicates, and the exact-Jaccard consumers
    unique per segment themselves. Docs with < 3 tokens fall back to
    per-token hashes, like ``_shingles``."""
    k = 3
    lens = np.diff(offs)
    out_lens = np.where(lens >= k, lens - (k - 1), lens)
    new_offs = np.r_[0, np.cumsum(out_lens)]
    total = int(new_offs[-1])
    base = np.repeat(offs[:-1], out_lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(new_offs[:-1], out_lens)
    starts = base + within
    short = np.repeat(lens < k, out_lens)
    acc = np.zeros(total, dtype=np.uint64)
    for j in range(k):
        # short docs hash each token once (j=0 shape); long docs roll k wide
        idx = np.where(short, starts, starts + j)
        step = _splitmix64(acc ^ flat[idx])
        acc = step if j == 0 else np.where(short, acc, step)
    return acc, new_offs


def _unique_per_segment(
    values: np.ndarray, offs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each segment and drop duplicates: returns (sorted unique flat
    values, their segment ids, unique-count per segment)."""
    if values.size == 0:
        empty = values[:0]
        return empty, empty.astype(np.int64), np.zeros(offs.size - 1, dtype=np.int64)
    seg = np.repeat(np.arange(offs.size - 1, dtype=np.int64), np.diff(offs))
    order = np.lexsort((values, seg))
    v, s = values[order], seg[order]
    first, _ = run_bounds(v, s)
    return v[first], s[first], np.bincount(s[first], minlength=offs.size - 1)


PAIRWISE_CHUNK_VALUES = 1 << 22  # gathered set elements per _pairwise_inter pass


def _pairwise_inter(
    flat: np.ndarray,
    offs: np.ndarray,
    pos_a: np.ndarray,
    pos_b: np.ndarray,
):
    """Exact |set_a ∩ set_b| (plus both set sizes) for many pairs at once,
    fully vectorized: ``flat``/``offs`` hold per-doc SORTED-UNIQUE shingle
    sets; ``pos_a[i]`` / ``pos_b[i]`` index the two docs of pair i. Each
    pair's two sets are gathered into one (pair_id, value) stream; after a
    lexsort, adjacent equal values within a pair are exactly the
    intersection elements (each side is duplicate-free). No per-pair
    Python loop. Pairs run in consecutive chunks of about
    PAIRWISE_CHUNK_VALUES gathered elements, so the gather and sort
    allocations stay bounded however many pairs one call gets. Returns
    (inter, len_a, len_b)."""
    lens = np.diff(offs)
    la, lb = lens[pos_a], lens[pos_b]
    inter = np.zeros(pos_a.size, dtype=np.int64)
    ends = np.cumsum(la + lb)
    lo = 0
    while lo < pos_a.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + PAIRWISE_CHUNK_VALUES, "right")))
        inter[lo:hi] = _inter_chunk(flat, offs, pos_a[lo:hi], pos_b[lo:hi], la[lo:hi], lb[lo:hi])
        lo = hi
    return inter, la, lb


def _inter_chunk(flat, offs, pos_a, pos_b, la, lb) -> np.ndarray:
    n_pairs = pos_a.size

    def gather(pos, ln):
        total = int(ln.sum())
        out_start = np.r_[0, np.cumsum(ln)[:-1]]
        idx = np.repeat(offs[pos] - out_start, ln) + np.arange(total, dtype=np.int64)
        return flat[idx], np.repeat(np.arange(n_pairs, dtype=np.int64), ln)

    va, ia = gather(pos_a, la)
    vb, ib = gather(pos_b, lb)
    vals = np.concatenate([va, vb])
    pids = np.concatenate([ia, ib])
    order = np.lexsort((vals, pids))
    vals, pids = vals[order], pids[order]
    dup = (pids[1:] == pids[:-1]) & (vals[1:] == vals[:-1])
    return np.bincount(pids[1:][dup], minlength=n_pairs)


def _pairwise_jaccard(
    flat: np.ndarray,
    offs: np.ndarray,
    pos_a: np.ndarray,
    pos_b: np.ndarray,
) -> np.ndarray:
    """Exact Jaccard per pair (see ``_pairwise_inter``)."""
    inter, la, lb = _pairwise_inter(flat, offs, pos_a, pos_b)
    union = la + lb - inter
    return np.where(inter > 0, inter / np.where(union > 0, union, 1), 0.0)


EMPTY_PAIR_TABLE = pa.table(
    {"doc_a": pa.array([], type=pa.int64()), "doc_b": pa.array([], type=pa.int64())}
)  # shared empty candidate-pair schema (banding, ssjoin, verify tail)


def _dedupe_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """The distinct (doc_a, doc_b) pairs of ``a``/``b``, sorted by (doc_a,
    doc_b): one lexsort and an adjacent-row compare."""
    if not a.size:
        return EMPTY_PAIR_TABLE
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first, _ = run_bounds(a, b)
    return pa.table(
        {"doc_a": pa.array(a[first], type=pa.int64()),
         "doc_b": pa.array(b[first], type=pa.int64())}
    )


def _band_pairs(tbl: pa.Table) -> pa.Table:
    """One band-hash bucket's candidate pairs from its (band, band_hash,
    doc_id) rows: every pair of docs sharing a (band, band_hash)."""
    band, band_hash, did = (
        tbl[c].to_numpy(zero_copy_only=False) for c in ("band", "band_hash", "doc_id")
    )
    return _group_pairs((band, band_hash), did)


MINHASH_THRESHOLD = 0.5


def minhash_dup_candidates(sf_dir: str):
    """Banded-LSH candidate pairs + exact shingle-Jaccard verification —
    fully scale-safe end to end: signatures are segment-vectorized per batch,
    candidate pairs come from an id-only (band, band_hash) exchange and STAY
    IN PLASMA (a ref-to-ref rebucket routes them by hash(doc_a) to verify
    buckets — the r3 driver candidate-root is gone, VERDICT r3 #2), the
    doc->verify-bucket need relation is built map-side per bucket, and the
    exact-verify tail is exchange-routed (pairs and candidate shingle sets
    co-partitioned by hash(doc_a); per-bucket vectorized Jaccard). No driver
    candidate DataFrame, no driver dict, no per-pair or per-doc Python loop;
    the driver holds object refs plus one pair-count int per bucket."""

    shards = shard_list(sf_dir, "documents")
    seeds = _splitmix64(np.arange(1, N_HASHES + 1, dtype=np.uint64) * np.uint64(0x9E3779B9))

    def sig_batch(batch: pa.Table) -> pd.DataFrame:
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        sh, sh_offs = _shingles_flat(flat, offs)
        n_docs = sh_offs.size - 1
        sig = np.empty((N_HASHES, n_docs), dtype=np.uint64)
        for s_i in range(N_HASHES):
            sig[s_i] = _segment_reduceat(
                np.minimum, _splitmix64(sh ^ seeds[s_i]), sh_offs, np.iinfo(np.uint64).max
            )
        bands = sig.reshape(N_BANDS, N_HASHES // N_BANDS, n_docs)
        bh = _splitmix64(
            bands[:, 0] ^ _splitmix64(bands[:, 1] ^ _splitmix64(bands[:, 2] ^ bands[:, 3]))
        )  # (N_BANDS, n_docs) — same mixing chain as the scalar reference
        doc_ids = tok["doc_id"].to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "band": np.repeat(np.arange(N_BANDS, dtype=np.int64), n_docs),
                "band_hash": bh.reshape(-1).view(np.int64),
                "doc_id": np.tile(doc_ids, N_BANDS),
            }
        )

    def sig_map(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(sig_batch(t), preserve_index=False)

    # candidate ROOT is fully distributed (VERDICT r3 'Next round' #2 — the
    # r3 root collected the banding output as a driver DataFrame and built
    # the doc->verify-bucket map as a driver dict; on a dup-heavy corpus
    # candidates are O(dups), unbounded). Now: pairs stay in plasma per
    # band-bucket, a second ref-to-ref hop (``exchange_map`` over the pair
    # refs) routes them by hash(doc_a) to verify buckets, each verify bucket
    # dedupes ITS pairs (cross-band copies of a pair share doc_a, so they
    # always co-locate) and emits its own (doc_id, vb) need table map-side.
    # The driver only ever holds object refs plus one int per bucket (the
    # pair count for the empty-result early exit).
    from ..stages.exchange import auto_num_buckets, exchange_map, reduce_grid

    n_bb = auto_num_buckets(shards)  # band-hash buckets

    sig_bucket_fn = partial(key_bucket, key="band_hash", num_buckets=n_bb)

    sig_refs = exchange_map(
        shards, sig_map, sig_bucket_fn, n_bb, columns=["doc_id", "text", "source"],
    )

    pair_refs = reduce_grid(lambda b, t: _band_pairs(t), n_bb, sig_refs, emit="refs")
    return _verify_pairs_exact(shards, pair_refs, MINHASH_THRESHOLD)


def _verify_pairs_exact(
    shards: list[str],
    pair_refs: list,
    threshold: float,
    metric: str = "jaccard",
) -> pd.DataFrame:
    """Exchange-routed EXACT shingle-Jaccard verification of candidate doc
    pairs held in plasma (shared tail of the MinHash banding and the
    prefix-filter set-similarity join): a ref-to-ref rebucket routes pairs
    by hash(doc_a) to verify buckets, each bucket dedupes ITS pairs and
    emits its (doc_id, vb) need table map-side, shard tasks re-derive the
    needed shingle sets and ship each once per referencing bucket, and the
    vectorized ``_pairwise_inter`` kernel runs per bucket. The driver
    holds object refs plus one pair-count int per bucket — never pairs.

    ``metric``: "jaccard" (symmetric, |A∩B|/|A∪B|) or "containment"
    (ORDERED, |A∩B|/|A| — doc_a is the contained side); the output score
    column is named after the metric and rounded half-away (the family's
    DuckDB-round convention) before the ``>= threshold`` filter."""
    from ..stages.exchange import auto_num_buckets, exchange_map, gather_slices, reduce_grid

    # per-bucket state (pairs + their shingle sets) tracks corpus size, so a
    # FIXED verify fan-out would grow task memory with the input
    n_vb = auto_num_buckets(shards)
    n_pb = len(pair_refs)
    vb_grid = exchange_map(
        pair_refs, None, partial(key_bucket, key="doc_a", num_buckets=n_vb), n_vb
    )

    vb_pair_refs, need_refs, count_refs = [], [], []
    for b in range(n_vb):
        pr, nr, cr = _vb_pairs_and_need.remote(b, *[vb_grid[i][b] for i in range(n_pb)])
        vb_pair_refs.append(pr)
        need_refs.append(nr)
        count_refs.append(cr)

    if sum(ray.get(count_refs)) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             metric: pd.Series([], dtype="float64")})

    # verify: EXCHANGE-ROUTED exact Jaccard — each candidate doc's shingle
    # set is computed DISTRIBUTED (per documents shard) and emitted once per
    # verify bucket referencing it; each bucket runs the vectorized
    # ``_pairwise_inter`` kernel. Reduce memory is (candidate pairs + their
    # shingles) / n_vb plus the kernel's bounded chunk — never the corpus —
    # and there is no per-pair (or per-doc) Python loop anywhere. Map tasks fetch the need
    # tables from plasma (one shared copy per node), not a driver broadcast.
    def shingle_map(batch: pa.Table) -> pa.Table:
        need_tbl = gather_slices(ray.get(list(need_refs)))
        empty = pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "_vb": pa.array([], type=pa.int32()),
                "shingles": pa.array([], type=pa.list_(pa.uint64())),
            }
        )
        if need_tbl is None:
            return empty
        need_ids = need_tbl["doc_id"].to_numpy(zero_copy_only=False)
        need_vb = need_tbl["_vb"].to_numpy(zero_copy_only=False)
        order = np.argsort(need_ids, kind="stable")
        need_ids, need_vb = need_ids[order], need_vb[order]

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(need_ids, ids, side="left")
        hi = np.searchsorted(need_ids, ids, side="right")
        keep = hi > lo
        if not keep.any():
            return empty
        sub = batch.filter(pa.array(keep))
        tok = tokenize_batch(sub)
        flat, offs = _flat_tokens(tok)
        sh, sh_offs = _shingles_flat(flat, offs)
        u, seg, n_uniq = _unique_per_segment(sh, sh_offs)
        kept_ids = tok["doc_id"].to_numpy(zero_copy_only=False)
        # replicate each doc's shingle row once per verify bucket needing it
        # — vectorized range-gather over the sorted need relation
        klo, khi = lo[keep], hi[keep]
        reps = khi - klo
        total_vb = int(reps.sum())
        vstart = np.r_[0, np.cumsum(reps)[:-1]]
        vidx = np.repeat(klo - vstart, reps) + np.arange(total_vb, dtype=np.int64)
        vb_out = need_vb[vidx]
        row_idx = np.repeat(np.arange(kept_ids.size), reps)
        doc_offs = np.r_[0, np.cumsum(n_uniq)]
        starts, lens = doc_offs[row_idx], n_uniq[row_idx]
        out_start = np.r_[0, np.cumsum(lens)[:-1]]
        gidx = np.repeat(starts - out_start, lens) + np.arange(int(lens.sum()), dtype=np.int64)
        new_offs = np.r_[0, np.cumsum(lens)]
        return pa.table(
            {
                "doc_id": pa.array(kept_ids[row_idx], type=pa.int64()),
                "_vb": pa.array(vb_out, type=pa.int32()),
                "shingles": pa.ListArray.from_arrays(
                    pa.array(new_offs, type=pa.int32()), pa.array(u[gidx], type=pa.uint64())
                ),
            }
        )

    sh_refs = exchange_map(
        shards,
        shingle_map,
        lambda t: t["_vb"].to_numpy(zero_copy_only=False).astype(np.int64),
        n_vb,
        columns=["doc_id", "text", "source"],
    )

    def verify_bucket(b: int, pairs_tbl: pa.Table, tbl: pa.Table) -> pd.DataFrame:
        doc_a = pairs_tbl["doc_a"].to_numpy(zero_copy_only=False)
        doc_b = pairs_tbl["doc_b"].to_numpy(zero_copy_only=False)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        arr = tbl["shingles"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        # each needed doc has one shingle row per verify bucket: locate by id
        by_id = np.argsort(ids)
        sorted_ids = ids[by_id]
        inter, la, _lb = _pairwise_inter(
            flat, offs,
            by_id[np.searchsorted(sorted_ids, doc_a)],
            by_id[np.searchsorted(sorted_ids, doc_b)],
        )
        if metric == "containment":
            score = np.where(inter > 0, inter / np.where(la > 0, la, 1), 0.0)
        else:
            union = la + _lb - inter
            score = np.where(inter > 0, inter / np.where(union > 0, union, 1), 0.0)
        # half-away like the DuckDB oracles: pair scores are ratios of
        # small ints and can sit exactly on a 6-dp half boundary
        out = pd.DataFrame({"doc_a": doc_a, "doc_b": doc_b, metric: round_half_away(score)})
        return out[out[metric] >= threshold]

    # the pairs refs are a one-source grid: bucket b's pairs lead, and a
    # bucket without pairs (or without shingles) is skipped
    out = reduce_grid(verify_bucket, n_vb, [vb_pair_refs], sh_refs)
    if not len(out):
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             metric: pd.Series([], dtype="float64")})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


@ray.remote(num_returns=3)
def _vb_pairs_and_need(b: int, *parts: pa.Table):
    """Per verify bucket: dedupe the pairs routed here (copies of one pair
    from different bands co-locate by hash(doc_a)) and emit the bucket's
    need relation — the sorted unique doc_ids whose shingles this bucket
    requires. Returns (pairs, need, n_pairs)."""
    from ..stages.exchange import gather_slices

    pairs = gather_slices(parts)
    if pairs is None:
        pairs = EMPTY_PAIR_TABLE
    pairs = _dedupe_pairs(
        pairs["doc_a"].to_numpy(zero_copy_only=False),
        pairs["doc_b"].to_numpy(zero_copy_only=False),
    )
    docs = np.unique(np.concatenate(
        [pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()]
    ))
    need = pa.table(
        {"doc_id": pa.array(docs, type=pa.int64()),
         "_vb": pa.array(np.full(docs.size, b, dtype=np.int32))}
    )
    return pairs, need, pairs.num_rows


# --- shared pieces of the prefix-filter joins --------------------------------

DF_BUCKETS = 1 << 20  # hashed document-frequency counters (4 MB of uint32)


def _shingle_df_ref(shards: list[str]):
    """Global document frequency of every shingle, approximated by a BOUNDED
    hashed count array (``DF_BUCKETS`` counters): one uint32 bincount per
    shard task, summed on the driver and broadcast once via ray.put — 4 MB
    regardless of corpus size. Hash collisions only inflate a counter, which
    is a perf heuristic: the (df_bucket, hash) key is still a fixed total
    order, so prefix-filter completeness is unaffected."""
    # folded as the tasks finish, so the driver holds one 4 MB sum; uint32
    # addition wraps like the uint32 cast of a wider sum would
    return ray.put(shard_map(shards, _shingle_df, columns=DOC_COLS, fold=np.add))


def _shingle_df(t: pa.Table) -> np.ndarray:
    """``_shingle_df_ref``'s partial: one shard's hashed shingle-df counts."""
    tok = tokenize_batch(t)
    flat, offs = _flat_tokens(tok)
    sh, sh_offs = _shingles_flat(flat, offs)
    u, _seg, _n = _unique_per_segment(sh, sh_offs)
    return np.bincount(
        (u % np.uint64(DF_BUCKETS)).astype(np.int64), minlength=DF_BUCKETS
    ).astype(np.uint32)


def _rarest_first(batch: pa.Table, df_ref, tq_prune: int):
    """Every doc's distinct shingles in the shared total order — rarest
    (bucketed df, from ``_shingle_df_ref``) first, hash tiebreak, the fixed
    order the prefix theorem requires — with the doc's set size and whether
    the shingle is in the doc's prefix of p = s - ceil(t'·s) + 1 elements
    at the prune threshold t' = tq_prune / 1e6. Returns (shingle as int64,
    doc_id, size, in_prefix), one entry per distinct (doc, shingle)."""
    tok = tokenize_batch(batch)
    flat, offs = _flat_tokens(tok)
    sh, sh_offs = _shingles_flat(flat, offs)
    u, seg, n_uniq = _unique_per_segment(sh, sh_offs)
    doc_ids = tok["doc_id"].to_numpy(zero_copy_only=False)
    # exact integer ceil((tq_prune/1e6)*s): float np.ceil(0.07*100) == 8,
    # one too high, which would SHORTEN the prefix and break completeness
    ceil_ts = -(-(tq_prune * n_uniq.astype(np.int64)) // 1_000_000)
    p = np.minimum(np.maximum(n_uniq - ceil_ts + 1, 1), n_uniq)
    dfs = ray.get(df_ref)
    dfv = dfs[(u % np.uint64(DF_BUCKETS)).astype(np.int64)]
    order = np.lexsort((u, dfv, seg))
    u_s, seg_s = u[order], seg[order]
    # rank within each (contiguous) segment, then keep rank < p
    doffs = np.r_[0, np.cumsum(n_uniq)]
    rank = np.arange(u.size, dtype=np.int64) - np.repeat(doffs[:-1], n_uniq)
    in_prefix = rank < np.repeat(p, n_uniq)
    return u_s.view(np.int64), doc_ids[seg_s], n_uniq[seg_s], in_prefix


def _probe_pairs(probes: np.ndarray, group_start: np.ndarray, group_len: np.ndarray):
    """Row-index pairs (ii, jj) pairing probe row ``probes[k]`` with every
    row of its group ``[group_start[k], group_start[k] + group_len[k])``, in
    probe order, yielded in ranges of at most PAIRWISE_CHUNK_VALUES pairs —
    a probe whose group is larger than a range spans several."""
    ends = np.cumsum(group_len)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, PAIRWISE_CHUNK_VALUES):
        k = np.arange(lo, min(lo + PAIRWISE_CHUNK_VALUES, total), dtype=np.int64)
        p = np.searchsorted(ends, k, side="right")
        yield probes[p], group_start[p] + k - (ends[p] - group_len[p])


def _group_pairs(keys: tuple[np.ndarray, ...], did: np.ndarray, keep=None) -> pa.Table:
    """The candidate pairs of the band and prefix kernels: every pair of
    distinct docs sharing a group key (one array per key column), doc_a <
    doc_b, deduplicated; with ``keep``, only the pairs whose input row
    indices (ra, rb) pass ``keep(ra, rb)``. One lexsort by (*keys, doc_id)
    with duplicate (key, doc) rows dropped; every row is a probe paired with
    the rows after it in its group through ``_probe_pairs``, so no range
    exceeds PAIRWISE_CHUNK_VALUES pairs however hot a group is, and no
    Python runs per group."""
    order = np.lexsort((did, *reversed(keys)))
    first, _ = run_bounds(*(k[order] for k in keys), did[order])
    rows = order[first]
    starts, counts = run_bounds(*(k[rows] for k in keys))
    group_end = np.repeat(starts + counts, counts)
    probes = np.flatnonzero(group_end - np.arange(rows.size) > 1)
    doc_a, doc_b = [did[:0]], [did[:0]]
    for ii, jj in _probe_pairs(probes, probes + 1, group_end[probes] - probes - 1):
        ra, rb = rows[ii], rows[jj]
        if keep is not None:
            ok = keep(ra, rb)
            ra, rb = ra[ok], rb[ok]
        doc_a.append(did[ra])
        doc_b.append(did[rb])
    return _dedupe_pairs(np.concatenate(doc_a), np.concatenate(doc_b))


def _containment_candidates(tbl: pa.Table, tq_prune: int) -> pa.Table:
    """One containment bucket's candidate (doc_a, doc_b) pairs from its
    (shingle, doc_id, size, is_probe) rows: each probe row pairs with every
    row of its shingle group, minus self-pairs and pairs failing the
    lossless size filter |Sb| >= t'·|Sa| (exact integer-rational compare at
    t' = tq_prune / 1e6). Fully vectorized — no per-shingle Python loop; the
    probe x posting expansion runs through ``_probe_pairs`` in bounded
    ranges, so a hot shingle cannot blow up one task's allocations."""
    sh = tbl["shingle"].to_numpy(zero_copy_only=False)
    did = tbl["doc_id"].to_numpy(zero_copy_only=False)
    sz = tbl["size"].to_numpy(zero_copy_only=False)
    probe = tbl["is_probe"].to_numpy(zero_copy_only=False)
    order = np.lexsort((did, sh))
    sh, did, sz, probe = sh[order], did[order], sz[order], probe[order]
    starts, counts = run_bounds(sh)
    seg_id = np.repeat(np.arange(starts.size), counts)
    probes = np.flatnonzero(probe)
    g_of_p = seg_id[probes]
    doc_a, doc_b = [did[:0]], [did[:0]]
    for ii, jj in _probe_pairs(probes, starts[g_of_p], counts[g_of_p]):
        keep = (did[ii] != did[jj]) & (sz[jj] * 1_000_000 >= tq_prune * sz[ii])
        doc_a.append(did[ii[keep]])
        doc_b.append(did[jj[keep]])
    return _dedupe_pairs(np.concatenate(doc_a), np.concatenate(doc_b))


def _prefix_candidates(tbl: pa.Table, tq_prune: int) -> pa.Table:
    """One prefix-shingle bucket's candidate pairs from its (shingle, doc_id,
    size) rows: every pair of docs sharing a prefix shingle that passes the
    size filter. J >= t' requires min(|a|,|b|) >= t' * max(|a|,|b|) at the
    PRUNE threshold t' = tq_prune/1e6 (covers the rounded contract's
    slack); exact integer-rational compare — a float product t*max can
    exceed the true bound by an ulp and reject a legitimate candidate."""
    sz = tbl["size"].to_numpy(zero_copy_only=False).astype(np.int64)

    def size_ok(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
        sa, sb = sz[ra], sz[rb]
        return np.minimum(sa, sb) * 1_000_000 >= tq_prune * np.maximum(sa, sb)

    return _group_pairs(
        (tbl["shingle"].to_numpy(zero_copy_only=False),),
        tbl["doc_id"].to_numpy(zero_copy_only=False),
        size_ok,
    )


# --- exact set-similarity join (prefix filter, Vernica et al. SIGMOD'10) ---

SSJOIN_THRESHOLD = 0.5


def similar_pairs_exact(sf_dir: str):
    """EXACT all-pairs shingle-Jaccard >= t via PREFIX FILTERING — the
    lossless complement to the MinHash path (same output schema, no LSH
    recall caveat). The committed contract is on the 6-dp-ROUNDED Jaccard
    (round(J, 6) >= t, matching the SQL oracle and the repo's round(6)
    ulp-pinning convention; candidate pruning uses the rational
    floor(t*1e6) - 1, strictly below anything the rounded contract can
    admit, so pruning is never stricter than the final filter — complete
    for the rounded contract, ADVICE r4 #1). Exactness costs ~3 corpus
    passes (df pass, prefix pass, verify re-shingle pass) — inherent to the
    lossless path; the MinHash twin trades passes for recall.
    Each doc emits only its p = s - ceil(t*s) + 1 FIRST shingles in the
    shared total order (prefix theorem: two sets with J >= t must share a
    prefix element under any fixed total order); candidate pairs form per
    shared prefix shingle
    with the size filter min >= t * max, stay in plasma, and run through
    the shared exchange-routed exact-verify tail (``_verify_pairs_exact``).
    Prefix ORDER is frequency-ascending (the Vernica et al. heuristic):
    without it, common shingles land in prefixes and per-shingle candidate
    groups explode quadratically (measured 10.4 s at sf0.1 under plain hash
    order vs rare-first); document frequency is the bounded hashed count of
    ``_shingle_df_ref`` and the order is ``_rarest_first``'s."""
    from ..stages.exchange import auto_num_buckets, exchange_map, reduce_grid

    threshold = SSJOIN_THRESHOLD
    shards = shard_list(sf_dir, "documents")
    # prefix-shingle buckets from input bytes: a fixed fan-out would make
    # each reduce task's share of ALL prefix entries grow with the corpus
    n_tb = auto_num_buckets(shards)
    # The committed contract is round(J, 6) >= threshold, so a pair with
    # true J as low as threshold - 5e-7 can round UP into the result.
    # Candidate pruning therefore uses tq_prune = floor(t*1e6) - 1, i.e. a
    # prune threshold <= threshold - 1e-6 — strictly below everything the
    # rounded contract can admit (ADVICE r4 #1: pruning from the floored tq
    # alone leaves a [threshold-5e-7, tq/1e6) sliver that the verify tail
    # would accept but the prefix/size filters could drop). The final
    # filter is the verify tail's exact 6-dp-rounded Jaccard >= threshold.
    tq_prune = max(int(threshold * 1_000_000) - 1, 0)

    df_ref = _shingle_df_ref(shards)

    def prefix_map(batch: pa.Table) -> pa.Table:
        sh, did, size, in_prefix = _rarest_first(batch, df_ref, tq_prune)
        return pa.table(
            {
                "shingle": pa.array(sh[in_prefix]),
                "doc_id": pa.array(did[in_prefix], type=pa.int64()),
                "size": pa.array(size[in_prefix], type=pa.int64()),
            }
        )

    tb_bucket_fn = partial(key_bucket, key="shingle", num_buckets=n_tb)

    tok_refs = exchange_map(
        shards, prefix_map, tb_bucket_fn, n_tb, columns=["doc_id", "text", "source"],
    )

    pair_refs = reduce_grid(
        lambda b, t: _prefix_candidates(t, tq_prune), n_tb, tok_refs, emit="refs"
    )
    return _verify_pairs_exact(shards, pair_refs, threshold)


SSJOIN_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id,
         list_distinct(
           CASE WHEN len(tokens) < 3
                THEN list_transform(tokens, t -> CAST(t AS VARCHAR))
                ELSE list_transform(range(1, len(tokens) - 1),
                     i -> concat(tokens[i], '_', tokens[i + 1], '_', tokens[i + 2]))
           END) AS s
  FROM tok
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       round(len(list_intersect(a.s, b.s)) * 1.0 /
             (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))), 6) AS jaccard
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE round(len(list_intersect(a.s, b.s)) * 1.0 /
      (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))), 6) >= {SSJOIN_THRESHOLD}
ORDER BY doc_a, doc_b
"""


# --- exact containment join (near-subset / superset dedup) ------------------

CONTAIN_THRESHOLD = 0.5


def contained_pairs_exact(sf_dir: str):
    """EXACT all-pairs shingle CONTAINMENT join: ORDERED pairs (a, b) with
    round(|Sa ∩ Sb| / |Sa|, 6) >= t, a != b — the asymmetric-overlap dedup
    a pretraining pipeline uses where Jaccard misses near-SUBSETS (a short
    doc quoted inside a long one has high containment but low Jaccard, so
    the symmetric join never surfaces it).

    Prefix filtering adapts (Vernica et al. SIGMOD'10, containment form):
    C(a→b) >= t forces b to contain >= ceil(t·|Sa|) of Sa's elements, so b
    must share at least one of Sa's FIRST p = |Sa| - ceil(t·|Sa|) + 1
    elements under any fixed total order — but unlike the Jaccard join the
    INDEX side has no prefix: every shingle of every doc is indexed, and a
    candidate forms per (probe-prefix row × posting row). One gram-hash
    exchange therefore carries one (shingle, doc_id, size, is_probe) row
    per distinct (doc, shingle) — id-only, the text never moves — and the
    per-shingle candidate count is bounded by probe_docs x posting_docs.
    The only lossless size filter is |Sb| >= ceil(t·|Sa|) (applied as an
    exact integer-rational compare at the prune threshold, covering the
    rounded contract's slack like the Jaccard join); there is NO upper
    bound on |Sb| by construction. Scale note: postings of globally common
    shingles dominate the exchange — the same inverted-index cost
    ``repeated_ngram_stats`` pays, bounded per reduce task by the
    bytes-derived bucket count; rarest-first probe prefixes (the shared
    hashed-df order) keep the probe side of each bucket sparse.

    Verification runs through the shared exchange-routed exact tail with
    ``metric='containment'``."""
    from ..stages.exchange import auto_num_buckets, exchange_map, reduce_grid

    threshold = CONTAIN_THRESHOLD
    shards = shard_list(sf_dir, "documents")
    n_cb = auto_num_buckets(shards)
    tq_prune = max(int(threshold * 1_000_000) - 1, 0)

    df_ref = _shingle_df_ref(shards)

    def posting_map(batch: pa.Table) -> pa.Table:
        sh, did, size, in_prefix = _rarest_first(batch, df_ref, tq_prune)
        return pa.table(
            {
                "shingle": pa.array(sh),
                "doc_id": pa.array(did, type=pa.int64()),
                "size": pa.array(size, type=pa.int64()),
                "is_probe": pa.array(in_prefix),
            }
        )

    cb_bucket_fn = partial(key_bucket, key="shingle", num_buckets=n_cb)

    post_refs = exchange_map(
        shards, posting_map, cb_bucket_fn, n_cb, columns=["doc_id", "text", "source"],
    )

    pair_refs = reduce_grid(
        lambda b, t: _containment_candidates(t, tq_prune), n_cb, post_refs, emit="refs"
    )
    return _verify_pairs_exact(shards, pair_refs, threshold, metric="containment")


CONTAIN_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id,
         list_distinct(
           CASE WHEN len(tokens) < 3
                THEN list_transform(tokens, t -> CAST(t AS VARCHAR))
                ELSE list_transform(range(1, len(tokens) - 1),
                     i -> concat(tokens[i], '_', tokens[i + 1], '_', tokens[i + 2]))
           END) AS s
  FROM tok
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       round(len(list_intersect(a.s, b.s)) * 1.0 / len(a.s), 6) AS containment
FROM sh a JOIN sh b ON a.doc_id != b.doc_id
WHERE round(len(list_intersect(a.s, b.s)) * 1.0 / len(a.s), 6)
      >= {CONTAIN_THRESHOLD}
ORDER BY doc_a, doc_b
"""


# --- n-gram Jaccard vs a reference doc (rows-only) ---


def ngram_jaccard_vs_doc0(sf_dir: str):
    first = tokenize_batch(
        pa.Table.from_pandas(read_small_doc0(sf_dir))
    )
    ref = _shingles(np.asarray(first["tokens"][0].as_py()))

    def fn(batch: pa.Table) -> pa.Table:
        # segment-vectorized: shingle ALL docs at once, unique per segment,
        # one np.isin against the sorted reference set, counts via bincount
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        sh, sh_offs = _shingles_flat(flat, offs)
        u, seg, n_uniq = _unique_per_segment(sh, sh_offs)
        inter = np.bincount(seg[np.isin(u, ref)], minlength=n_uniq.size)
        denom = n_uniq + ref.size - inter
        out = np.where(inter > 0, inter / np.where(denom > 0, denom, 1), 0.0)
        # DuckDB-exact half-away round: a Jaccard of small-int sets can be
        # a DYADIC rational sitting exactly on a 6-dp half boundary (sf0.1
        # hit 1/128 = .0078125: np.round half-even .007812, DuckDB .007813)
        return pa.table(
            {"doc_id": tok["doc_id"], "jaccard_vs_doc0": pa.array(round_half_away(out))}
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS, collect="ngram_jaccard_vs_doc0"
    )


# Oracle computes Jaccard over DISTINCT token-trigram strings; the engine
# computes it over distinct splitmix64-hashed trigrams. Equal unless the
# 64-bit hash collides within the involved shingle sets (P ~ 1e-10 at this
# corpus size) — the hash is a set-preserving relabeling of the trigrams.
NGRAM_JACCARD_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(tokens) - 1),
             i -> concat(tokens[i], '_', tokens[i + 1], '_', tokens[i + 2]))) AS shingles
  FROM tok
), ref AS (
  SELECT shingles AS r FROM sh WHERE doc_id = 0
)
SELECT doc_id,
       round(CASE WHEN len(list_intersect(shingles, r)) = 0 THEN 0.0
                  ELSE len(list_intersect(shingles, r)) * 1.0
                       / (len(shingles) + len(r) - len(list_intersect(shingles, r)))
             END, 6) AS jaccard_vs_doc0
FROM sh, ref
"""


def read_small_doc0(sf_dir: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    return con.sql(
        f"SELECT doc_id, text, source FROM read_parquet('{sf_dir}/documents.parquet') "
        "WHERE doc_id = 0"
    ).df()


# --- rolling-hash fingerprint (winnowing-lite; rows-only) ---


def doc_fingerprints(sf_dir: str):
    def fn(batch: pa.Table) -> pa.Table:
        tok = tokenize_batch(batch)
        flat, offs = _flat_tokens(tok)
        sh, sh_offs = _shingles_flat(flat, offs)
        mins = _segment_reduceat(np.minimum, sh, sh_offs, 0)
        # signed fold: x - 2^63 over uint64 == flip the top bit, view int64
        fp = (mins ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table({"doc_id": tok["doc_id"], "fingerprint": pa.array(fp)})

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS, collect="doc_fingerprints"
    )


# --- corpus vocabulary / n-gram frequency (training-data tokenizer prep) ---


def _split_flat_offsets(text: pa.ChunkedArray | pa.Array):
    """text column -> (flat word array, per-row list offsets starting at 0)."""
    import pyarrow.compute as pc

    t = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    words = pc.split_pattern(t, " ")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = words.flatten()
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offs - offs[0]


def _term_topk(out: pd.DataFrame, k: int) -> pd.DataFrame:
    out = out.sort_values(["n", "term"], ascending=[False, True], kind="mergesort")
    return out.head(k).reset_index(drop=True)


def _vocab_exchange(sf_dir: str, term_fn, k: int) -> pd.DataFrame:
    """Shared corpus-term-frequency shape: map tasks count terms PER SHARD
    (``value_counts`` — the shuffle carries the shard's distinct-term domain,
    not one row per token), terms hash-exchange so each term sums in exactly
    one reduce task, reduce emits a tie-aware top-k partial, and the driver
    folds k x buckets rows. The term domain never materializes anywhere."""
    import pyarrow.compute as pc

    from ..stages.exchange import hash_exchange

    def map_fn(t: pa.Table) -> pa.Table:
        terms = term_fn(t["text"])
        vc = pc.value_counts(terms)
        return pa.table({"term": vc.field("values"), "n": vc.field("counts").cast(pa.int64())})

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        g = tbl.to_pandas().groupby("term", sort=False, as_index=False)["n"].sum()
        # tie-aware partial top-k: (n DESC, term ASC) is the final key
        return _term_topk(g, k)

    out = hash_exchange(
        shard_list(sf_dir, "documents"), map_fn, "term", reduce_fn, columns=["text"],
    )
    return _term_topk(out, k)


def vocab_top_terms(sf_dir: str):
    """Corpus vocabulary build: global term frequencies, top-k by (count
    DESC, term ASC) — the tokenizer-training / vocab-pruning primitive."""

    def unigrams(text):
        flat, _ = _split_flat_offsets(text)
        return flat

    return _vocab_exchange(sf_dir, unigrams, VOCAB_K)


VOCAB_K = 100
VOCAB_SQL = """
SELECT term, count(*) AS n FROM (
  SELECT unnest(string_split(text, ' ')) AS term FROM documents
) GROUP BY term ORDER BY n DESC, term LIMIT 100
"""


def bigram_top_terms(sf_dir: str):
    """Corpus bigram frequencies (top-k): bigrams are built on the FLAT word
    array — one element-wise join of ``flat[:-1]`` with ``flat[1:]`` plus a
    boundary mask that drops pairs straddling two documents — so no per-row
    Python touches the hot path."""
    import pyarrow.compute as pc

    def bigrams(text):
        flat, offs = _split_flat_offsets(text)
        if len(flat) < 2:
            return pa.array([], type=pa.string())
        joined = pc.binary_join_element_wise(
            flat.slice(0, len(flat) - 1), flat.slice(1), " "
        )
        valid = np.ones(len(flat) - 1, dtype=bool)
        ends = offs[1:-1] - 1  # last word of every doc but the final one
        valid[ends[ends >= 0]] = False
        return joined.filter(pa.array(valid))

    return _vocab_exchange(sf_dir, bigrams, BIGRAM_K)


BIGRAM_K = 100
BIGRAM_SQL = """
SELECT term, count(*) AS n FROM (
  SELECT z[1] || ' ' || z[2] AS term
  FROM (SELECT unnest(list_zip(l[:len(l)-1], l[2:])) AS z
        FROM (SELECT string_split(text, ' ') AS l FROM documents))
) GROUP BY term ORDER BY n DESC, term LIMIT 100
"""


def tfidf_top_term(sf_dir: str):
    """Per-document most distinctive term by TF-IDF (tf * ln(N/df), rank on
    the rounded score, ties broken by term ASC). The broadcast-of-aggregate
    shape: document frequencies ride the same term exchange as the vocab
    build (per-doc-unique terms -> per-shard value_counts partials), CAPPED
    at the ``TFIDF_VOCAB_K`` highest-df terms so the broadcast idf dict is bounded
    by the vocabulary, never the term domain; the scoring pass is then
    map-only. At the test scale the cap exceeds the term domain, so the
    DuckDB oracle (uncapped) matches exactly; at corpus scale out-of-vocab
    terms drop from scoring by design (standard vocabulary pruning)."""
    import math

    from .common import table_num_rows

    def doc_unique_terms(text):
        flat, offs = _split_flat_offsets(text)
        seg = np.repeat(np.arange(offs.size - 1, dtype=np.int64), np.diff(offs))
        u = pd.DataFrame({"seg": seg, "term": flat.to_pandas()}).drop_duplicates()
        return pa.array(u["term"].to_numpy(), type=pa.string())

    n_docs = table_num_rows(sf_dir, "documents")
    dfreq = _vocab_exchange(sf_dir, doc_unique_terms, TFIDF_VOCAB_K)  # term, n (= df)
    idf = {t: math.log(n_docs / n) for t, n in zip(dfreq["term"], dfreq["n"])}

    def fn(b: pa.Table) -> pa.Table:
        flat, offs = _split_flat_offsets(b["text"])
        seg = np.repeat(np.arange(offs.size - 1, dtype=np.int64), np.diff(offs))
        tf = (
            pd.DataFrame({"seg": seg, "term": flat.to_pandas()})
            .groupby(["seg", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        tf["idf"] = tf["term"].map(idf)
        tf = tf.dropna(subset=["idf"])  # out-of-vocab terms (cap) drop
        tf["tfidf"] = (tf["tf"] * tf["idf"]).round(6)
        top = tf.sort_values(
            ["tfidf", "term"], ascending=[False, True], kind="mergesort"
        ).drop_duplicates("seg")
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": ids[top["seg"].to_numpy()],
                "term": pa.array(top["term"].to_numpy(), type=pa.string()),
                "tfidf": top["tfidf"].to_numpy(),
            }
        )

    # the idf dict travels once, inside fn
    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"],
        collect="tfidf_top_term",
    )


TFIDF_VOCAB_K = 10_000
TFIDF_SQL = """
WITH words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM words GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS dfreq FROM words GROUP BY term),
n AS (SELECT count(*) AS n_docs FROM documents)
SELECT doc_id, term, tfidf FROM (
  SELECT tf.doc_id, tf.term,
         round(tf.tf * ln(n.n_docs * 1.0 / df.dfreq), 6) AS tfidf,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY round(tf.tf * ln(n.n_docs * 1.0 / df.dfreq), 6) DESC, tf.term
         ) AS r
  FROM tf JOIN df USING (term) CROSS JOIN n
) WHERE r = 1
"""


# --- stopword-removal rewrite (training-data cleaning transform) ---


def clean_text(sf_dir: str):
    """Stopword-removal rewrite of the text column — the map-only cleaning
    transform shape (drop terms, rebuild the document). Fully
    Arrow-vectorized: one split, one is_in, one filter on the flat word
    array, rebuilt list offsets from the per-segment keep counts, one
    binary_join — no per-row Python, output streams (never collected)."""
    import pyarrow.compute as pc

    stop_set = pa.array(list(STOPWORDS))

    def fn(batch: pa.Table) -> pa.Table:
        flat, offs = _split_flat_offsets(batch["text"])
        keep = pc.invert(pc.is_in(flat, value_set=stop_set))
        keep_np = keep.to_numpy(zero_copy_only=False).astype(np.int64)
        kept_per_doc = _segment_reduceat(np.add, keep_np, offs, 0)
        new_offs = np.concatenate(([0], np.cumsum(kept_per_doc))).astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(new_offs, type=pa.int32()), flat.filter(keep))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "clean_text": pc.binary_join(lst, " "),
                "n_kept": pa.array(kept_per_doc.astype(np.int64)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"], collect="clean_text"
    )


CLEAN_TEXT_SQL = f"""
SELECT doc_id,
       array_to_string(list_filter(string_split(text, ' '),
           w -> w NOT IN {STOPWORDS!r}), ' ') AS clean_text,
       len(list_filter(string_split(text, ' '),
           w -> w NOT IN {STOPWORDS!r})) AS n_kept
FROM documents
"""


QUERIES = {
    "vocab_top_terms": vocab_top_terms,
    "heavy_hitter_terms": heavy_hitter_terms,
    "bigram_top_terms": bigram_top_terms,
    "clean_text": clean_text,
    "tfidf_top_term": tfidf_top_term,
    "dedup_exact": dedup_exact,
    "repeated_ngram_stats": repeated_ngram_stats,
    "token_counts": token_counts,
    "token_counts_bpe": token_counts_bpe,
    "quality_scores": quality_scores,
    "doc_repetition_ratio": doc_repetition_ratio,
    "unigram_logprob": unigram_logprob,
    "source_vocab_overlap": source_vocab_overlap,
    "doc_token_stats": doc_token_stats,
    "lang_id": lang_id,
    "simhash_docs": simhash_docs,
    "minhash_dup_candidates": minhash_dup_candidates,
    "similar_pairs_exact": similar_pairs_exact,
    "contained_pairs_exact": contained_pairs_exact,
    "ngram_jaccard_vs_doc0": ngram_jaccard_vs_doc0,
    "doc_fingerprints": doc_fingerprints,
}

ORACLE = {
    "vocab_top_terms": VOCAB_SQL,
    "heavy_hitter_terms": HEAVY_HITTER_SQL,
    "bigram_top_terms": BIGRAM_SQL,
    "clean_text": CLEAN_TEXT_SQL,
    "tfidf_top_term": TFIDF_SQL,
    "dedup_exact": DEDUP_SQL,
    "repeated_ngram_stats": REPEAT_NGRAM_SQL,
    "token_counts": TOKEN_COUNT_SQL,
    "token_counts_bpe": TOKEN_COUNT_BPE_SQL,
    "quality_scores": QUALITY_SQL,
    "doc_repetition_ratio": REPETITION_SQL,
    "unigram_logprob": UNIGRAM_SQL,
    "source_vocab_overlap": VOCAB_OVERLAP_SQL,
    "doc_token_stats": TOKEN_STATS_SQL,
    "lang_id": LANG_ID_SQL,
    "ngram_jaccard_vs_doc0": NGRAM_JACCARD_SQL,
    "similar_pairs_exact": SSJOIN_SQL,
    "contained_pairs_exact": CONTAIN_SQL,
}
