"""Large-scale training-data preparation operators over ``documents``:
benchmark decontamination, deterministic stratified sampling, quantile-band
quality filtering, sequence packing (global token offsets), and near-dup
connected-component clustering.

These extend the text/dedup surface (pipelines/text.py) with the remaining
ops a 100-TB pretraining pipeline runs between "raw corpus" and "training
shards". Every op is a per-shard pass (``shard_map``) or an explicit
hash/range exchange; every op carries a DuckDB oracle with identical column
names and arithmetic.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import ray

from ..stages.exchange import key_bucket, shard_map
from ..stages.partition import run_bounds
from ..stages.sketch import shard_quantiles
from ..tokenize import TOKENS_SQL_EXPR, tokenize_batch
from .common import shard_list, table_num_rows
from .text import (
    DOC_COLS,
    _flat_tokens,
    _shingles_flat,
    _splitmix64,
    _unique_per_segment,
    _pairwise_jaccard,
)

# --- benchmark decontamination (n-gram blocklist filter) --------------------
#
# The canonical "remove eval-set contamination" op: hash every doc's token
# trigrams, broadcast the blocklist's (small) shingle set once with the map fn,
# and mark any doc sharing >= 1 distinct shingle. The blocklist is the "held
# out benchmark": here, docs with doc_id < BLOCKLIST_DOCS.

BLOCKLIST_DOCS = 20

# SQL trigram expression mirroring _shingles_flat (incl. the <3-token
# fallback to per-token "shingles"). Engine compares splitmix64-hashed
# trigrams, the oracle compares trigram STRINGS — equal counts unless the
# 64-bit hash collides inside the involved sets (P ~ 1e-10 at corpus size);
# same caveat as NGRAM_JACCARD_SQL (pipelines/text.py).
_SHINGLES_SQL = """
CASE WHEN len(tokens) < 3
     THEN list_transform(tokens, t -> CAST(t AS VARCHAR))
     ELSE list_transform(range(1, len(tokens) - 1),
              i -> concat(tokens[i], '_', tokens[i + 1], '_', tokens[i + 2]))
END
"""


def _doc_shingle_sets(batch: pa.Table):
    """batch -> (sorted-unique flat shingle hashes, offsets, doc_ids)."""
    tok = tokenize_batch(batch)
    flat, offs = _flat_tokens(tok)
    sh, sh_offs = _shingles_flat(flat, offs)
    u, _seg, n_uniq = _unique_per_segment(sh, sh_offs)
    doc_ids = tok["doc_id"].to_numpy(zero_copy_only=False)
    return u, np.r_[0, np.cumsum(n_uniq)], doc_ids


def decontaminate(sf_dir: str):
    """(doc_id, n_shared, keep) for every non-blocklist doc: ``n_shared`` =
    distinct trigram shingles shared with the blocklist union, ``keep`` = 1
    iff zero overlap. Blocklist shingles are built from a driver-side
    FILTERED read (bounded by BLOCKLIST_DOCS, not the corpus), broadcast
    once; the corpus side is one pruned scan with the doc_id predicate pushed
    to the parquet read and a fully segment-vectorized membership count."""
    import pyarrow.parquet as pq

    block = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source"],
        filters=[("doc_id", "<", BLOCKLIST_DOCS)],
    )
    u, offs, _ids = _doc_shingle_sets(block)
    bset = np.unique(u)  # sorted union over blocklist docs, travels inside fn

    def fn(batch: pa.Table) -> pa.Table:
        u, offs, doc_ids = _doc_shingle_sets(batch)
        seg = np.repeat(np.arange(doc_ids.size, dtype=np.int64), np.diff(offs))
        n_shared = np.bincount(seg[np.isin(u, bset)], minlength=doc_ids.size)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_shared": pa.array(n_shared.astype(np.int64)),
                "keep": pa.array((n_shared == 0).astype(np.int64)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=DOC_COLS,
        filters=pads.field("doc_id") >= BLOCKLIST_DOCS, collect="decontaminate",
    )


DECONTAMINATE_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id, list_distinct({_SHINGLES_SQL}) AS shingles FROM tok
), block AS (
  SELECT list_distinct(flatten(list(shingles))) AS b
  FROM sh WHERE doc_id < {BLOCKLIST_DOCS}
)
SELECT doc_id,
       len(list_intersect(shingles, b)) AS n_shared,
       CAST(len(list_intersect(shingles, b)) = 0 AS BIGINT) AS keep
FROM sh, block
WHERE doc_id >= {BLOCKLIST_DOCS}
"""

# --- deterministic stratified sampling --------------------------------------
#
# Per-stratum sampling with a content-free deterministic rule (Knuth
# multiplicative hash of the primary key): resumable, engine-independent,
# and exactly replicable in SQL — the property a 100-TB sampling pass needs
# so a re-run (or a different engine) selects the SAME rows.

SAMPLE_HEAVY_SOURCES = ("src0", "src1")
SAMPLE_HEAVY_PCT = 50
SAMPLE_LIGHT_PCT = 10


def stratified_sample(sf_dir: str):
    """Keep ``doc`` iff ((doc_id * 2654435761) mod 2^64) mod 100 < pct(source) — 50% for
    the two heavy strata, 10% elsewhere. Pure map-side filter: no shuffle,
    no RNG state, identical selection at any parallelism."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        pct = np.where(
            np.isin(src, np.asarray(SAMPLE_HEAVY_SOURCES)),
            SAMPLE_HEAVY_PCT,
            SAMPLE_LIGHT_PCT,
        )
        # uint64 multiply wraps mod 2^64 by construction — the documented
        # selection rule is ((doc_id * 2654435761) mod 2^64) mod 100, exactly
        # replicable in SQL via HUGEINT (ADVICE r3: the int64 form wrapped
        # SILENTLY and differently from the oracle for doc_id >~ 3.47e9)
        keep = (ids * np.uint64(2654435761)) % np.uint64(100) < pct
        return batch.filter(pa.array(keep))

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "source"],
        collect="stratified_sample",
    )


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, source FROM documents
WHERE (CAST(doc_id AS HUGEINT) * 2654435761) % 18446744073709551616 % 100 <
      CASE WHEN source IN {SAMPLE_HEAVY_SOURCES!r}
           THEN {SAMPLE_HEAVY_PCT} ELSE {SAMPLE_LIGHT_PCT} END
"""

GROUP_SAMPLE_K = 10


def group_uniform_sample(sf_dir: str):
    """Deterministic uniform sample of exactly k docs per source: keep the k
    docs with the SMALLEST multiplicative hash ((doc_id * 2654435761) mod
    2^64) within each source — a hash-rank reservoir with no RNG state and
    no full shuffle. Each shard emits only its per-source k smallest
    (mergeable partial top-k), so the driver folds <= k x sources x shards
    tiny rows; the multiplier is odd, hence a bijection mod 2^64 — no hash
    ties, identical selection at any parallelism."""
    kk = GROUP_SAMPLE_K
    merged = shard_map(
        shard_list(sf_dir, "documents"), partial(_uniform_partial, kk=kk),
        columns=["doc_id", "source"], collect="group_uniform_sample",
    )
    out = (
        merged.sort_values("h")
        .groupby("source", sort=False)
        .head(kk)[["doc_id", "source"]]
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    return out


def _uniform_partial(t: pa.Table, kk: int) -> pd.DataFrame:
    """``group_uniform_sample``'s partial: one shard's per-source ``kk``
    smallest hash ranks."""
    df = pd.DataFrame(
        {
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "source": t["source"].to_numpy(zero_copy_only=False),
        }
    )
    df["h"] = df["doc_id"].to_numpy().astype(np.uint64) * np.uint64(2654435761)
    return df.sort_values("h").groupby("source", sort=False).head(kk).reset_index(drop=True)


GROUP_SAMPLE_SQL = f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761)
                    % 18446744073709551616
         ) AS rn
  FROM documents
) WHERE rn <= {GROUP_SAMPLE_K}
ORDER BY source, doc_id
"""


def group_weighted_sample(sf_dir: str):
    """Deterministic WEIGHTED (probability-proportional-to-size) sample of k
    docs per source — sequential Poisson sampling (Ohlsson 1998): rank by
    the order variable xi = u / w where u is the doc's uniform hash (the
    same bijective multiplicative hash as ``group_uniform_sample``) and
    w = max(n_chars, 1) is the size weight, keep the k smallest xi per
    source. P(xi < t) = t*w/2^64, so inclusion probability is proportional
    to document length — the quality/length-weighted corpus sampler a
    training-data pipeline uses where uniform sampling under-represents
    long documents. No RNG state: identical selection at any parallelism,
    each shard emits only its per-source k smallest (mergeable partial
    top-k). xi is ONE IEEE division of the nearest-rounded uint64 hash by
    an exact small int on both engine and oracle, so the doubles (and the
    ranking) agree bit-for-bit; ties broken by doc_id on both sides."""
    kk = GROUP_SAMPLE_K
    merged = shard_map(
        shard_list(sf_dir, "documents"), partial(_weighted_partial, kk=kk),
        columns=["doc_id", "source", "n_chars"], collect="group_weighted_sample",
    )
    return (
        merged.sort_values(["xi", "doc_id"])
        .groupby("source", sort=False)
        .head(kk)[["doc_id", "source"]]
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )


def _weighted_partial(t: pa.Table, kk: int) -> pd.DataFrame:
    """``group_weighted_sample``'s partial: one shard's per-source ``kk``
    smallest order variables xi = hash / weight."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    w = np.maximum(t["n_chars"].to_numpy(zero_copy_only=False), 1)
    h = ids.astype(np.uint64) * np.uint64(2654435761)
    df = pd.DataFrame(
        {
            "doc_id": ids,
            "source": t["source"].to_numpy(zero_copy_only=False),
            "xi": h.astype(np.float64) / w.astype(np.float64),
        }
    )
    return (
        df.sort_values(["xi", "doc_id"])
        .groupby("source", sort=False)
        .head(kk)
        .reset_index(drop=True)
    )


GROUP_WEIGHTED_SAMPLE_SQL = f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                         % 18446744073709551616 AS DOUBLE)
                    / greatest(n_chars, 1),
                    doc_id
         ) AS rn
  FROM documents
) WHERE rn <= {GROUP_SAMPLE_K}
ORDER BY source, doc_id
"""

# --- quantile-band quality filter -------------------------------------------


def mid_quality_docs(sf_dir: str):
    """Docs whose n_chars lies in the global [p25, p75] band. Two passes:
    the band edges come from the mergeable quantile summary (stages/sketch.py
    — exact linear interpolation == DuckDB quantile_cont at test scale,
    bounded-error sketch beyond), then a second PRUNED read with the band
    predicate pushed into the parquet scan — filtered rows never leave
    storage. The composition a quality-filter stage runs at 100 TB."""
    shards = shard_list(sf_dir, "documents")
    lo, hi = shard_quantiles(shards, ["n_chars"], [0.25, 0.75])["n_chars"]
    return shard_map(
        shards, lambda t: t, columns=["doc_id", "n_chars"],
        filters=(pads.field("n_chars") >= float(lo)) & (pads.field("n_chars") <= float(hi)),
        collect="mid_quality_docs",
    )


MID_QUALITY_SQL = """
WITH q AS (
  SELECT quantile_cont(n_chars, 0.25) AS lo, quantile_cont(n_chars, 0.75) AS hi
  FROM documents
)
SELECT doc_id, n_chars FROM documents, q
WHERE n_chars >= lo AND n_chars <= hi
"""

# --- sequence packing (concat-then-chunk) -----------------------------------
#
# The LLM-training packing layout: concatenate all docs in doc_id order and
# cut the token stream into fixed CTX-token chunks. Per doc we emit its
# global token start offset and the chunk containing its first token.
# A global ordered prefix sum is the textbook two-pass range exchange:
#   pass 1: per-shard tasks emit per-RANGE-bucket token sums (bounded:
#           num_buckets rows per shard) -> driver folds exclusive offsets;
#   pass 2: rows exchange on the SAME range bucket; each reduce task sorts
#           its bucket by doc_id and adds (bucket offset + local cumsum).
# Nothing materializes beyond one bucket per task; offsets are a tiny
# broadcast. Resumable and deterministic at any parallelism.

PACK_CTX = 512


def pack_sequences(sf_dir: str):
    from ..stages.exchange import auto_num_buckets, exchange_map, reduce_grid

    ctx = PACK_CTX
    shards = shard_list(sf_dir, "documents")
    num_buckets = auto_num_buckets(shards)
    n_rows = table_num_rows(sf_dir, "documents")

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        # monotone range bucketing by doc_id: bucket boundaries align with
        # the global doc_id order, so per-bucket cumsum + bucket offset = the
        # global ordered prefix sum
        b = (ids.astype(np.int64) * num_buckets) // max(n_rows, 1)
        return np.clip(b, 0, num_buckets - 1).astype(np.int32)

    def map_fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_tok = pc.list_value_length(pc.split_pattern(t["text"], " ")).cast(pa.int64())
        return pa.table({"doc_id": t["doc_id"], "n_tok": n_tok})

    def bucket_fn(t: pa.Table) -> np.ndarray:
        return bucket_of(t["doc_id"].to_numpy(zero_copy_only=False))

    def bucket_totals(t: pa.Table) -> np.ndarray:
        t = map_fn(t)
        n_tok = t["n_tok"].to_numpy(zero_copy_only=False)
        return np.bincount(bucket_fn(t), weights=n_tok, minlength=num_buckets).astype(np.int64)

    # pass 1: per-shard per-bucket token sums (num_buckets rows per task)
    totals = shard_map(shards, bucket_totals, columns=["doc_id", "text"], fold=np.add)
    offsets = np.r_[0, np.cumsum(totals)[:-1]]  # exclusive per-bucket offsets

    # pass 2: range exchange + per-bucket ordered cumsum
    refs = exchange_map(shards, map_fn, bucket_fn, num_buckets, columns=["doc_id", "text"])

    def reduce_bucket(b: int, t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas().sort_values("doc_id", kind="mergesort")
        n = df["n_tok"].to_numpy()
        start = int(offsets[b]) + np.r_[0, np.cumsum(n)[:-1]]
        return pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(),
             "tok_start": start,
             "chunk_id": start // ctx}
        )

    out = reduce_grid(reduce_bucket, num_buckets, refs)
    if not len(out):
        cols = ("doc_id", "tok_start", "chunk_id")
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    return out.sort_values("doc_id").reset_index(drop=True)


PACK_SQL = f"""
SELECT doc_id,
       CAST(coalesce(SUM(len(string_split(text, ' ')))
                OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                      AND 1 PRECEDING), 0) AS BIGINT) AS tok_start,
       CAST(coalesce(SUM(len(string_split(text, ' ')))
                OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                      AND 1 PRECEDING), 0) AS BIGINT) // {PACK_CTX} AS chunk_id
FROM documents
"""

# --- near-dup connected-component clustering --------------------------------
#
# Dedup's final step: cluster the verified near-dup pairs and pick one
# canonical doc per cluster. Blocking key = source (the realistic blocking
# column: domain/crawl shard); within a block the verification is EXACT
# all-pairs trigram Jaccard (the same vectorized kernel the MinHash verify
# tail uses). Components are folded with a driver union-find over the
# VERIFIED PAIRS only (bounded by true near-dup pairs, not the corpus), or
# by iterative min-label propagation over the same exchange when pairs
# outgrow one node.

DUP_CLUSTER_THRESHOLD = 0.5


# above this many verified pairs the driver union-find gives way to the
# distributed min-label propagation (stages/labelprop.py) — same contract,
# bucketed exchanges only
CC_DRIVER_PAIR_CAP = 2_000_000


BLOCK_DENSE_CAP = 50_000_000  # ``_block_jaccard_pairs``' ``dense_cap``


def _block_jaccard_pairs(
    flat: np.ndarray, offs: np.ndarray, idx: np.ndarray, threshold: float, dense_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs exact Jaccard >= threshold inside one block, via a single
    docs × block-vocab 0/1 incidence matmul: intersection counts come out
    EXACT (fp32 holds integers to 2^24, set sizes are thousands at most)
    and the jac division replays _pairwise_jaccard's float64 arithmetic, so
    the kept pair set is identical to the per-pair kernel at ~25x less
    wall. Falls back to the per-pair kernel when the dense incidence would
    exceed ``dense_cap`` floats (huge block × huge vocab)."""
    lens = np.diff(offs)[idx]
    total = int(lens.sum())
    cstarts = np.r_[0, np.cumsum(lens)[:-1]]
    take = np.repeat(offs[:-1][idx], lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(cstarts, lens)
    )
    vals = flat[take]
    u, inv = np.unique(vals, return_inverse=True)
    if idx.size * u.size > dense_cap:
        ii, jj = np.triu_indices(idx.size, k=1)
        jac = _pairwise_jaccard(flat, offs, idx[ii], idx[jj])
        keep = jac >= threshold
        return ii[keep], jj[keep]
    m = np.zeros((idx.size, u.size), dtype=np.float32)
    m[np.repeat(np.arange(idx.size), lens), inv] = 1.0
    inter = (m @ m.T).astype(np.float64)
    sizes = lens.astype(np.float64)
    union = sizes[:, None] + sizes[None, :] - inter
    jac = inter / np.maximum(union, 1.0)
    ii, jj = np.triu_indices(idx.size, k=1)
    keep = jac[ii, jj] >= threshold
    return ii[keep], jj[keep]


def dup_clusters(sf_dir: str):
    """(doc_id, cluster_id) for every doc in a near-dup component of size
    >= 2, cluster_id = min doc_id of the component.

    The verified near-dup edges are the exact all-pairs trigram Jaccard
    >= ``DUP_CLUSTER_THRESHOLD`` within each ``source`` block (the SQL-oracle
    semantics): quadratic per block, valid while the blocking key bounds
    block size. Components come from a driver union-find over the edges
    (bounded by verified near-dup pairs) up to ``CC_DRIVER_PAIR_CAP`` edges
    and from the distributed min-label propagation (the 100-TB path) beyond;
    both give the same bytes (tests/test_labelprop.py)."""
    from ..stages.exchange import hash_exchange

    threshold, dense_cap = DUP_CLUSTER_THRESHOLD, BLOCK_DENSE_CAP
    shards = shard_list(sf_dir, "documents")

    def map_fn(t: pa.Table) -> pa.Table:
        u, offs, doc_ids = _doc_shingle_sets(t)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "source": t["source"],
                "shingles": pa.ListArray.from_arrays(
                    pa.array(offs, type=pa.int32()), pa.array(u, type=pa.uint64())
                ),
            }
        )

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        df_src = tbl["source"].to_numpy(zero_copy_only=False)
        doc_ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        sh = tbl["shingles"].combine_chunks()
        flat = sh.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        offs = sh.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        frames = []
        # all-pairs per source group inside this bucket (block-bounded):
        # one incidence matmul per block — intersections are exact integer
        # counts (fp32 holds ints to 2^24; set sizes are far below) and the
        # final division matches _pairwise_jaccard's float64 arithmetic, so
        # the keep mask is identical to the per-pair kernel
        # (tests/test_labelprop.py::test_block_matmul_matches_pair_kernel),
        # ~25x faster on 250-doc blocks
        order = np.argsort(df_src, kind="stable")
        starts, lens = run_bounds(df_src[order])
        for g0, g1 in zip(starts, starts + lens):
            idx = order[g0:g1]
            if idx.size < 2:
                continue
            ii, jj = _block_jaccard_pairs(flat, offs, idx, threshold, dense_cap)
            if ii.size:
                a, bids = doc_ids[idx[ii]], doc_ids[idx[jj]]
                lo, hi_ = np.minimum(a, bids), np.maximum(a, bids)
                frames.append(pd.DataFrame({"doc_a": lo, "doc_b": hi_}))
        if not frames:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    edge_df = hash_exchange(
        shards, map_fn, "source", reduce_fn, columns=["doc_id", "text", "source"]
    )
    return _cluster_pairs(edge_df)


def _cluster_pairs(pairs: pd.DataFrame) -> pd.DataFrame:
    if len(pairs) == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "cluster_id": pd.Series([], dtype="int64")})
    if len(pairs) > CC_DRIVER_PAIR_CAP:
        from ..stages.labelprop import connected_components_labelprop

        return connected_components_labelprop(pairs)
    # driver union-find over verified pairs — bounded by TRUE near-dup pairs
    # (output-scale), never by the corpus; beyond CC_DRIVER_PAIR_CAP the
    # distributed min-label propagation above takes over
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    parent = np.arange(nodes.size)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ia, ib = inv[: a.size], inv[a.size :]
    for x, y in zip(ia, ib):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = np.array([find(int(i)) for i in range(nodes.size)])
    cluster = nodes[roots]  # root index -> min doc_id holds because parents
    # always point to the smaller root index and nodes is sorted
    return (
        pd.DataFrame({"doc_id": nodes, "cluster_id": cluster})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


DUP_CLUSTERS_SQL = f"""
WITH RECURSIVE tok AS (
  SELECT doc_id, source, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id, source, list_distinct({_SHINGLES_SQL}) AS shingles FROM tok
), pairs AS (
  SELECT a.doc_id AS da, b.doc_id AS db
  FROM sh a JOIN sh b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.shingles, b.shingles)) * 1.0
        / (len(a.shingles) + len(b.shingles)
           - len(list_intersect(a.shingles, b.shingles)))
        >= {DUP_CLUSTER_THRESHOLD}
), edges AS (
  SELECT da AS u, db AS v FROM pairs UNION ALL SELECT db, da FROM pairs
), cc AS (
  SELECT u AS doc_id, u AS lbl FROM (SELECT DISTINCT u FROM edges)
  UNION
  SELECT e.v, cc.lbl FROM cc JOIN edges e ON e.u = cc.doc_id
  WHERE cc.lbl < e.v
)
SELECT doc_id, min(lbl) AS cluster_id FROM cc GROUP BY doc_id
"""


# --- document chunking (vectorized flat_map row expansion) ------------------

CHUNK_WORDS = 64


def doc_chunks(sf_dir: str):
    """Split every doc into fixed-size word chunks — one input row expands to
    ceil(n_words/chunk) output rows. The expansion is a VECTORIZED flat_map:
    a shard map fn emitting np.repeat-expanded arrays (a per-row flat_map
    would be a Python loop; a batch transform that returns more rows than it
    takes is the same operator at Arrow speed)."""
    import pyarrow.compute as pc

    chunk_words = CHUNK_WORDS

    def fn(batch: pa.Table) -> pa.Table:
        n = (
            pc.list_value_length(pc.split_pattern(batch["text"], " "))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        n_chunks = -(-n // chunk_words)  # ceil
        ids = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), n_chunks)
        total = int(n_chunks.sum())
        starts = np.r_[0, np.cumsum(n_chunks)[:-1]]
        chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, n_chunks)
        remaining = np.repeat(n, n_chunks) - chunk_idx * chunk_words
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "chunk_idx": pa.array(chunk_idx),
                "chunk_words": pa.array(np.minimum(chunk_words, remaining)),
            }
        )

    return shard_map(
        shard_list(sf_dir, "documents"), fn, columns=["doc_id", "text"], collect="doc_chunks"
    )


DOC_CHUNKS_SQL = f"""
WITH n AS (
  SELECT doc_id, len(string_split(text, ' ')) AS n_words FROM documents
)
SELECT doc_id,
       unnest(range(CAST(ceil(n_words / {CHUNK_WORDS}.0) AS BIGINT))) AS chunk_idx,
       least({CHUNK_WORDS}, n_words
             - unnest(range(CAST(ceil(n_words / {CHUNK_WORDS}.0) AS BIGINT)))
               * {CHUNK_WORDS}) AS chunk_words
FROM n
"""


def dedup_passages(sf_dir: str):
    """Passage-grain exact dedup across the WHOLE corpus (the sub-document
    dedup pass a pretraining pipeline runs after doc-level dedup): every doc
    splits into the ``doc_chunks`` fixed-size token windows, and a chunk is
    a duplicate iff an earlier (doc_id, chunk_idx) carries the identical
    token sequence. Chunk identity travels as a 64-bit position-salted sum
    hash, so the exchange ships (doc_id, chunk_idx, hash) int64 triples —
    never text; each hash group is bucket-complete, dup = everything except
    the group's min (doc_id, chunk_idx); per-doc partials fold on the driver
    (doc-grain, the standard bound for documents queries)."""
    from ..stages.exchange import hash_exchange
    from .text import _segment_reduceat

    W = CHUNK_WORDS

    def map_fn(t: pa.Table) -> pa.Table:
        flat, offs = _flat_tokens(tokenize_batch(t))
        n = np.diff(offs)
        n_chunks = -(-n // W)  # ceil; 0-token docs emit no chunks
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_idx": pa.array([], pa.int64()),
                    "chash": pa.array([], pa.int64()),
                }
            )
        cfirst = np.r_[0, np.cumsum(n_chunks)[:-1]]
        chunk_idx = np.arange(total, dtype=np.int64) - np.repeat(cfirst, n_chunks)
        chunk_start = np.repeat(offs[:-1], n_chunks) + chunk_idx * W
        chunk_len = np.minimum(W, np.repeat(n, n_chunks) - chunk_idx * W)
        # chunks tile each doc contiguously, so their cumulative lengths ARE
        # the flat-array segment offsets
        chunk_offs = np.r_[0, np.cumsum(chunk_len)]
        pos = np.arange(flat.size, dtype=np.int64) - np.repeat(
            chunk_start, chunk_len
        )
        h = _splitmix64(flat ^ _splitmix64((pos + 1).astype(np.uint64)))
        chash = _segment_reduceat(np.add, h, chunk_offs, np.uint64(0))
        ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), n_chunks)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "chunk_idx": pa.array(chunk_idx),
                "chash": pa.array(chash.view(np.int64)),
            }
        )

    def reduce_fn(b: int, tbl: pa.Table) -> pd.DataFrame:
        df = tbl.to_pandas().sort_values(
            ["chash", "doc_id", "chunk_idx"], kind="mergesort"
        )
        dup = np.ones(len(df), dtype=np.int64)
        dup[run_bounds(df["chash"].to_numpy())[0]] = 0  # a hash's first chunk
        df["dup"] = dup
        return df.groupby("doc_id", as_index=False).agg(
            n_chunks=("dup", "size"), n_dup_chunks=("dup", "sum")
        )

    parts = hash_exchange(
        shard_list(sf_dir, "documents"), map_fn, "chash", reduce_fn,
        columns=["doc_id", "text", "source"],
    )
    out = parts.groupby("doc_id", as_index=False)[["n_chunks", "n_dup_chunks"]].sum()
    out["n_chunks"] = out["n_chunks"].astype(np.int64)
    out["n_dup_chunks"] = out["n_dup_chunks"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


DEDUP_PASSAGES_SQL = f"""
WITH tok AS (
  SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents
), ex AS (
  SELECT doc_id, len(tokens) AS n, tokens,
         unnest(range(CAST(ceil(len(tokens) / {CHUNK_WORDS}.0) AS BIGINT)))
           AS chunk_idx
  FROM tok
), ch AS (
  SELECT doc_id, chunk_idx,
         array_to_string(tokens[chunk_idx * {CHUNK_WORDS} + 1 :
                         least((chunk_idx + 1) * {CHUNK_WORDS}, n)], ',') AS ck
  FROM ex
), rk AS (
  SELECT doc_id,
         row_number() OVER (PARTITION BY ck ORDER BY doc_id, chunk_idx) AS rn
  FROM ch
)
SELECT doc_id, count(*) AS n_chunks,
       CAST(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_chunks
FROM rk GROUP BY doc_id
"""


CURATE_MIN_WORDS = 20


def curate_corpus(sf_dir: str):
    """The canonical end-to-end corpus-curation pipeline as ONE scale-safe
    composition — keep a doc iff it survives ALL of: exact dedup (first
    doc_id per identical text), length quality (>= CURATE_MIN_WORDS words),
    benchmark decontamination (zero trigram-shingle overlap with the
    blocklist union; blocklist docs themselves excluded), and the
    deterministic stratified sampling rule — then report per-source kept
    counts and kept word totals.

    Shape: the dedup keep-set never lands on the driver — the text-hash
    exchange's per-bucket winners re-exchange BY doc_id (``exchange_map``
    over their refs) and join the per-doc flag rows (one pruned scan
    computing quality/decon/sample flags map-side, exchanged on the same
    doc_id buckets); each
    bucket emits per-source partial sums, so the driver folds
    |sources| × buckets rows. Blocklist shingles broadcast once (bounded
    by BLOCKLIST_DOCS)."""
    import pyarrow.dataset as pds

    from ..stages.exchange import auto_num_buckets, exchange_map, reduce_grid
    from .common import tpath

    shards = shard_list(sf_dir, "documents")
    num_buckets = auto_num_buckets(shards)

    # --- blocklist shingle union (bounded driver read, broadcast once;
    # pyarrow.dataset handles the single-file AND sharded-dir layouts) -----
    block = pds.dataset(tpath(sf_dir, "documents")).to_table(
        columns=["doc_id", "text", "source"],
        filter=pds.field("doc_id") < BLOCKLIST_DOCS,
    )
    u, _offs, _ids = _doc_shingle_sets(block)
    block_ref = ray.put(np.unique(u))

    # --- exchange 1: exact-dedup winners on hash(text) ----------------------
    def hash_map(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            t["text"].to_pandas(), index=False
        ).astype("uint64")
        return pa.table(
            {"text_hash": pa.array(h.astype("int64")), "doc_id": t["doc_id"]}
        )

    bucket_hash = partial(key_bucket, key="text_hash", num_buckets=num_buckets)

    h_grid = exchange_map(
        shards, hash_map, bucket_hash, num_buckets, columns=["doc_id", "text"]
    )

    def keep_bucket(b: int, t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("text_hash", sort=False)["doc_id"].min()
        return pa.table({"doc_id": pa.array(g.to_numpy(), pa.int64())})

    keep_refs = reduce_grid(keep_bucket, num_buckets, h_grid, emit="refs")
    bucket_doc = partial(key_bucket, key="doc_id", num_buckets=num_buckets)
    keep_grid = exchange_map(keep_refs, None, bucket_doc, num_buckets)

    # --- exchange 2: per-doc flag rows on doc_id ----------------------------
    def flags_map(t: pa.Table) -> pa.Table:
        bset = ray.get(block_ref)
        # tokenize ONCE: shingle sets and word counts both derive from the
        # same flat token array (tokenization dominates the text-scan cost)
        tok = tokenize_batch(t)
        flat, toffs = _flat_tokens(tok)
        n_words = np.diff(toffs)
        sh, sh_offs = _shingles_flat(flat, toffs)
        uu, _seg_ids, n_uniq = _unique_per_segment(sh, sh_offs)
        offs = np.r_[0, np.cumsum(n_uniq)]
        doc_ids = tok["doc_id"].to_numpy(zero_copy_only=False)
        seg = np.repeat(np.arange(doc_ids.size, dtype=np.int64), np.diff(offs))
        n_shared = np.bincount(seg[np.isin(uu, bset)], minlength=doc_ids.size)
        src = t["source"].to_numpy(zero_copy_only=False)
        pct = np.where(
            np.isin(src, np.asarray(SAMPLE_HEAVY_SOURCES)),
            SAMPLE_HEAVY_PCT,
            SAMPLE_LIGHT_PCT,
        )
        ok = (
            (doc_ids >= BLOCKLIST_DOCS)
            & (n_shared == 0)
            & (n_words >= CURATE_MIN_WORDS)
            & ((doc_ids.astype(np.uint64) * np.uint64(2654435761))
               % np.uint64(100) < pct)  # mod-2^64 rule, see stratified_sample
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "source": t["source"],
                "n_words": pa.array(n_words),
                "ok": pa.array(ok),
            }
        )

    f_grid = exchange_map(
        shards, flags_map, bucket_doc, num_buckets,
        columns=["doc_id", "text", "source"],
    )

    def join_flags(b: int, keep: pa.Table, flags: pa.Table) -> pd.DataFrame:
        kd = keep.to_pandas()
        fd = flags.to_pandas()
        fd = fd[fd["ok"] & fd["doc_id"].isin(kd["doc_id"])]
        return fd.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), n_words_kept=("n_words", "sum")
        )

    parts = reduce_grid(join_flags, num_buckets, keep_grid, f_grid)
    empty = pd.DataFrame(
        {
            "source": pd.Series(dtype=object),
            "n_docs": pd.Series(dtype=np.int64),
            "n_words_kept": pd.Series(dtype=np.int64),
        }
    )
    if not len(parts):
        return empty
    out = parts.groupby("source", as_index=False)[["n_docs", "n_words_kept"]].sum()
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_words_kept"] = out["n_words_kept"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


CURATE_SQL = f"""
WITH tok AS (
  SELECT doc_id, source, text, {TOKENS_SQL_EXPR} AS tokens FROM documents
), sh AS (
  SELECT doc_id, source, text, len(tokens) AS n_words,
         list_distinct({_SHINGLES_SQL}) AS shingles
  FROM tok
), block AS (
  SELECT list_distinct(flatten(list(shingles))) AS b
  FROM sh WHERE doc_id < {BLOCKLIST_DOCS}
), dedup AS (
  SELECT min(doc_id) AS keep_id FROM documents GROUP BY text
), kept AS (
  SELECT s.source, s.n_words
  FROM sh s, block
  WHERE s.doc_id IN (SELECT keep_id FROM dedup)
    AND s.doc_id >= {BLOCKLIST_DOCS}
    AND len(list_intersect(s.shingles, b)) = 0
    AND s.n_words >= {CURATE_MIN_WORDS}
    AND (CAST(s.doc_id AS HUGEINT) * 2654435761) % 18446744073709551616 % 100 <
        CASE WHEN s.source IN {SAMPLE_HEAVY_SOURCES!r}
             THEN {SAMPLE_HEAVY_PCT} ELSE {SAMPLE_LIGHT_PCT} END
)
SELECT source, count(*) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS n_words_kept
FROM kept GROUP BY source ORDER BY source
"""


QUERIES = {
    "doc_chunks": doc_chunks,
    "decontaminate": decontaminate,
    "stratified_sample": stratified_sample,
    "group_uniform_sample": group_uniform_sample,
    "group_weighted_sample": group_weighted_sample,
    "mid_quality_docs": mid_quality_docs,
    "pack_sequences": pack_sequences,
    "dup_clusters": dup_clusters,
    "dedup_passages": dedup_passages,
    "curate_corpus": curate_corpus,
}

ORACLE = {
    "doc_chunks": DOC_CHUNKS_SQL,
    "decontaminate": DECONTAMINATE_SQL,
    "stratified_sample": STRATIFIED_SAMPLE_SQL,
    "group_uniform_sample": GROUP_SAMPLE_SQL,
    "group_weighted_sample": GROUP_WEIGHTED_SAMPLE_SQL,
    "mid_quality_docs": MID_QUALITY_SQL,
    "pack_sequences": PACK_SQL,
    "dup_clusters": DUP_CLUSTERS_SQL,
    "dedup_passages": DEDUP_PASSAGES_SQL,
    "curate_corpus": CURATE_SQL,
}
