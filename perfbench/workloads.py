"""Workloads: seeded inputs, one operation each, and the output checks.

See README.md in this directory for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np

# Tokens-table shape shared by the flagship workloads: Zipf(1.2) rows over
# 2000 entities, 8..128 tokens per sequence (the engine's bench fixture).
N_ENTITIES = 2_000
MAX_TOK = 128
CHEAP_STATS = ("mean", "std", "n")

# name -> input shape and the run_flagship_exchange arguments. Sizes keep one
# operation near 1-4 s on one core, so a run measures several operations.
FLAGSHIP = {
    "flagship-scan": {
        "rows": 100_000, "shards": 6, "hot_share": 0.0,
        # 16 buckets keep ~6k rows per bucket, near the engine bench's 15k
        # (1M rows, 64 buckets); with 64 here, Ray's per-task cost held 39%
        # of an operation and its run-to-run spread was wider
        "engine": {"stats": CHEAP_STATS, "num_buckets": 16},
    },
    "flagship-kernels": {
        "rows": 60_000, "shards": 2, "hot_share": 0.0,
        # None: the engine's NARROW_STATS. With 64 buckets the per-bucket
        # costs (sort, sink, Ray tasks) held ~75% of an operation at this
        # size; with 8, window stats and kernels hold ~2/3 of it.
        "engine": {"stats": None, "heavy": True, "num_buckets": 8},
    },
    "flagship-skew": {
        "rows": 40_000, "shards": 4, "hot_share": 0.6,
        # salt_min_rows sits below the hot entity's ~24k rows so salting
        # runs; chunk_rows = 4096 is the engine bench's chunked-reduce size.
        # With the default 64 buckets an operation took ~3.5 s, so a run
        # measured two and their median spread 0.17 over ten seeds; with 16
        # it takes ~1.3 s and salting/chunking keep their share (~9%).
        "engine": {"stats": CHEAP_STATS, "salt_min_rows": 10_000, "chunk_rows": 4_096,
                   "num_buckets": 16},
    },
}

# The query mix of the repository's bench.py (BENCH_QUERIES), fixed here so
# later changes to bench.py do not change the benchmark.
QUERY_MIX = (
    "q1_pricing_summary", "sessionize_user_events", "asof_purchase_for_views",
    "locf_last_purchase", "cumulative_user_value", "dedup_exact",
    "doc_token_stats", "quality_scores", "simhash_docs",
    "minhash_dup_candidates", "knn_cosine_top10", "embedding_near_dups",
    "vocab_top_terms", "top_users_per_event_type", "views_before_purchase",
    "dup_clusters", "pack_sequences", "q5_region_nation_revenue",
    "large_order_customers", "returned_item_revenue", "nation_pair_trade",
    "doc_repetition_ratio", "user_value_ewma", "value_median_exact",
    "heavy_hitter_terms", "dedup_passages", "unigram_logprob",
    "hourly_user_value_grid", "customer_order_distribution", "curate_corpus",
    "user_feature_matrix", "similar_pairs_exact", "repeated_ngram_stats",
    "segment_urgent_coverage", "group_uniform_sample",
    "approx_distinct_users_by_type", "session_spectral_features",
)
QUERY_TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
                "lineitem", "events", "documents", "embeddings")
QUERY_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sf0.01")

WORKLOADS = tuple(FLAGSHIP) + ("query-mix",)

# Input sets kept per workload in the cache; older ones are deleted.
CACHE_KEEP = 3


def _engine_kwargs(spec: dict) -> dict:
    from mpds_ray.pipelines.flagship import NARROW_STATS

    kw = dict(spec["engine"])
    kw["stats"] = kw["stats"] or NARROW_STATS
    return kw


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_inputs(name: str, seed: int, out_dir: str) -> dict:
    """Write the tokens shards and the scores table of flagship workload
    ``name`` for ``seed`` into ``out_dir``; return their description."""
    import pyarrow.parquet as pq

    from mpds_ray.synth import synth_scores_table, synth_tokens_table

    spec = FLAGSHIP[name]
    table = synth_tokens_table(N_ENTITIES, spec["rows"], seed, max_tok=MAX_TOK,
                               hot_share=spec["hot_share"])
    tokens_dir = os.path.join(out_dir, "tokens")
    os.makedirs(tokens_dir, exist_ok=True)
    per = -(-table.num_rows // spec["shards"])
    for i in range(spec["shards"]):
        pq.write_table(table.slice(i * per, per),
                       os.path.join(tokens_dir, f"part-{i:04d}.parquet"),
                       row_group_size=16_384)
    pq.write_table(synth_scores_table(N_ENTITIES, seed + 1),
                   os.path.join(out_dir, "scores.parquet"))
    ent = table["doc_id"].to_numpy(zero_copy_only=False)
    _, counts = np.unique(ent, return_counts=True)
    return {"rows": table.num_rows, "shards": spec["shards"],
            "hot_share": round(float(counts.max()) / table.num_rows, 4)}


class FlagshipInputs:
    """Cached inputs of one (workload, seed) and the reference checksum."""

    def __init__(self, name: str, seed: int, cache_root: str):
        spec = FLAGSHIP[name]
        self.name = name
        self.dir = os.path.join(cache_root, f"{name}-n{spec['rows']}-seed{seed}")
        self.tokens_dir = os.path.join(self.dir, "tokens")
        self.scores_path = os.path.join(self.dir, "scores.parquet")
        self.meta_path = os.path.join(self.dir, "meta.json")
        self.cached = os.path.exists(self.meta_path)
        if self.cached:
            with open(self.meta_path) as f:
                self.meta = json.load(f)
            os.utime(self.dir)
        else:
            shutil.rmtree(self.dir, ignore_errors=True)
            t0 = time.perf_counter()
            self.meta = write_inputs(name, seed, self.dir)
            self.meta["gen_s"] = time.perf_counter() - t0
            self._save()
            _evict(cache_root, name, keep=self.dir)
        self.rows = self.meta["rows"]

    def _save(self) -> None:
        tmp = self.meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, self.meta_path)

    def reference_xor(self, scratch: str) -> int:
        """Canonical content checksum (``read_back``) of what the
        Dataset-native engine ``run_flagship`` writes for these inputs; its
        output equals the exchange engine's (tests/test_exchange.py). Needs
        Ray."""
        if "reference_xor" not in self.meta:
            from mpds_ray.pipelines.flagship import run_flagship

            kw = _engine_kwargs(FLAGSHIP[self.name])
            out = os.path.join(scratch, "reference")
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            run_flagship(self.tokens_dir, self.scores_path, out_dir=out,
                         stats=kw["stats"], heavy=kw.get("heavy", False)).materialize()
            self.meta["reference_s"] = time.perf_counter() - t0
            self.meta["reference_xor"] = read_back(out)["canonical_xor"]
            shutil.rmtree(out, ignore_errors=True)
            self._save()
        return self.meta["reference_xor"]


def _evict(cache_root: str, name: str, keep: str) -> None:
    dirs = sorted(glob.glob(os.path.join(cache_root, f"{name}-n*-seed*")),
                  key=os.path.getmtime, reverse=True)
    for d in [d for d in dirs if d != keep][CACHE_KEEP - 1:]:
        shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------------------
# operations and checks
# ---------------------------------------------------------------------------

def run_flagship_op(inp: FlagshipInputs, out_dir: str) -> float:
    """One pipeline run into an empty ``out_dir``; returns its wall seconds."""
    from mpds_ray.pipelines.flagship import run_flagship_exchange

    shutil.rmtree(out_dir, ignore_errors=True)
    kw = _engine_kwargs(FLAGSHIP[inp.name])
    t0 = time.perf_counter()
    run_flagship_exchange(inp.tokens_dir, inp.scores_path, out_dir=out_dir, **kw)
    return time.perf_counter() - t0


def manifest_xor(out_dir: str) -> tuple[int, int]:
    """(rows, XOR of checksums) over the manifest's partition records."""
    from mpds_ray.state.manifest import Manifest

    rows, xor = 0, 0
    for rec in Manifest(os.path.join(out_dir, "manifest.jsonl")).records():
        rows += rec["row_count"]
        xor ^= rec["checksum"]
    return rows, xor


def read_back(out_dir: str) -> dict:
    """Read every written partition: row count, rows whose matched score is
    from their future, the exact order-insensitive XOR of row checksums (the
    manifest's own checksum), and the same over the canonical form, float
    columns rounded to float32. The canonical form is what is compared
    across engines: the batched DFA and Lomb-Scargle kernels round the last
    bit differently when the two engines batch rows differently."""
    import pyarrow.parquet as pq

    from mpds_ray.state.manifest import frame_checksum

    rows, xor, canonical, leaks = 0, 0, 0, 0
    for path in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))):
        df = pq.read_table(path).to_pandas()
        rows += len(df)
        xor ^= frame_checksum(df)
        leaks += int((df["score_asof_ts"] > df["ts"]).sum())
        floats = df.select_dtypes("float64").columns
        canonical ^= frame_checksum(df.astype(dict.fromkeys(floats, np.float32)))
    return {"rows": rows, "xor": xor, "canonical_xor": canonical, "leaks": leaks}


def check_flagship(out_dir: str, rows_in: int, reference_xor: int) -> list[str]:
    """Problems with a flagship output directory (empty list: correct):
    rows written equal rows read, no row matched a score from its future,
    the partitions hold what the manifest recorded, and the content equals
    the reference engine's."""
    problems = []
    m_rows, m_xor = manifest_xor(out_dir)
    got = read_back(out_dir)
    if got["rows"] != rows_in or m_rows != rows_in:
        problems.append(f"rows written {got['rows']} (manifest {m_rows}) != rows read {rows_in}")
    if got["leaks"]:
        problems.append(f"{got['leaks']} rows matched a score after their ts")
    if got["xor"] != m_xor:
        problems.append("partition contents differ from their manifest checksums")
    if got["canonical_xor"] != reference_xor:
        problems.append("output differs from the reference engine's")
    return problems


class QueryMix:
    """The fixed query mix over the benchmark's copy of the sf0.01 tables,
    in a seed-permuted order, with DuckDB oracle results for every query."""

    def __init__(self, seed: int):
        import __ray_entry__ as entry

        import pyarrow.parquet as pq

        fns, sql = entry.queries(), entry.oracle_sql()
        self.order = [QUERY_MIX[i] for i in np.random.default_rng(seed).permutation(len(QUERY_MIX))]
        self.fns = {q: fns[q] for q in QUERY_MIX}
        self.oracle_sql = {q: sql[q] for q in QUERY_MIX}
        self.expected: dict = {}
        self.rows = sum(pq.read_metadata(os.path.join(QUERY_DATA, f"{t}.parquet")).num_rows
                        for t in QUERY_TABLES)

    def load_oracles(self, cache_root: str) -> float:
        """Run every oracle through DuckDB, or load the results cached under
        ``cache_root`` for the same oracle texts; returns the seconds taken."""
        import hashlib
        import pickle

        t0 = time.perf_counter()
        key = hashlib.sha256(json.dumps(self.oracle_sql, sort_keys=True).encode()).hexdigest()[:16]
        path = os.path.join(cache_root, f"query-oracles-{key}.pkl")
        if os.path.exists(path):
            with open(path, "rb") as f:  # written by this class, below
                self.expected = pickle.load(f)
            return time.perf_counter() - t0
        import duckdb

        con = duckdb.connect()
        try:
            for t in QUERY_TABLES:
                data = os.path.join(QUERY_DATA, f"{t}.parquet")
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{data}')")
            self.expected = {q: con.sql(sql).df() for q, sql in self.oracle_sql.items()}
        finally:
            con.close()
        os.makedirs(cache_root, exist_ok=True)
        with open(path + ".tmp", "wb") as f:
            pickle.dump(self.expected, f)
        os.replace(path + ".tmp", path)
        return time.perf_counter() - t0

    def run_query(self, name: str):
        """(wall seconds, result as pandas)."""
        from tools.check_correctness import to_pandas

        t0 = time.perf_counter()
        got = to_pandas(self.fns[name](QUERY_DATA))
        return time.perf_counter() - t0, got

    def check(self, name: str, got) -> list[str]:
        from tools.check_correctness import compare

        return compare(name, got, self.expected[name])
