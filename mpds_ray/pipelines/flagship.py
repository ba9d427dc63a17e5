"""Flagship pipeline (BASELINE.md workload):

    read tokens parquet shards
      -> TokenWindowStats (pyarrow, zero-copy)             [map side]
      -> narrow projection (doc_id, ts, source, stats)     [tokens stay Arrow]
      -> ONE hash exchange by stable_bucket(entity) % B    [stages/exchange.py]
      -> one reduce task per bucket: the bucket's rows as a chunk stream,
         each chunk run through ``process_bucket``:
            (entity, ts) sort                              [establish invariant]
            sessionize (gap threshold, per-entity ordinals)
            per-entity lag/lead + prefix features
            galloping as-of merge of scores (backward, tolerance)
            LOCF-with-expiration backfill of the joined score
         with the boundary entity's scan state carried from chunk to chunk
      -> resumable partitioned sink + lineage manifest     [ChunkPartitionSink]

``run_flagship_exchange`` is the engine, with one reduce protocol
(``scan_chunks_with_carry`` into ``ChunkPartitionSink``):

- a bucket is one chunk (its concatenated map slices) by default;
- with ``chunk_rows`` it is a k-way merge of sorted sub-chunk runs
  (stages/chunked.py), so reduce memory is bounded by chunks, not buckets;
- a hot entity is range-salted into extra partitions: phase-1 tasks scan
  its ts ranges in parallel, the driver folds their carries, and fix tasks
  apply them and commit through the same sink.

Output is byte-identical across bucket counts, chunking and salting.

``flagship_features`` / ``run_flagship`` are the Dataset-native reference
(a tagged union and Ray's sort-based ``groupby``) that perfbench checks the
engine against; they share ``process_bucket`` and the sink.

Design notes for 10^12-row scale:
- The wide ``tokens`` column never enters the shuffle: stats are computed
  map-side over zero-copy Arrow and only the narrow feature row moves
  (SURVEY §7.5.7). The enriched wide table is written map-side, partitioned
  by input fragment, preserving the token arrays byte-identical.
- Exactly ONE all-to-all exchange: hash-bucketed by entity; B =
  ``num_buckets`` and ``chunk_rows`` bound per-task memory.
- Every partition is a pure function of its bucket, so a retry re-executes
  it; the manifest record is the commit point of a resumable rerun.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.asof import asof_join_arrays
from ..stages.chunked import ray_run_iter, sorted_run_merge
from ..stages.partition import stable_bucket
from ..stages.salted import chunk_carry_info, flagship_apply_carry, fold_carry
from ..stages.scans import locf_with_expiration, prefix_features, time_since_to_event
from ..stages.sessionize import sessionize_gap
from ..stages.window_stats import TokenWindowStats
from ..state.manifest import Manifest, frame_checksum

_BUCKET = "_bucket"
_SIDE = "_side"

NARROW_STATS = ("mean", "std", "En", "zcr", "ar1", "meanTKEO", "n")


def _fused_bucket_fn(
    entity: str,
    ts: str,
    session_gap: float,
    tolerance: float | None,
    stat_cols: list[str],
    sink=None,
):
    """Per-bucket: sort -> sessionize -> lag/prefix -> as-of merge -> backfill."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g[_SIDE] == 0]
        right = g[g[_SIDE] == 1]
        return process_bucket(
            left, right, entity, ts, session_gap, tolerance, stat_cols,
            bucket_id=int(g[_BUCKET].iloc[0]), sink=sink,
        )

    return fn


def process_bucket(
    left: pd.DataFrame,
    right: pd.DataFrame,
    entity: str,
    ts: str,
    session_gap: float,
    tolerance: float | None,
    stat_cols: list[str],
    bucket_id: int,
    sink=None,
) -> pd.DataFrame:
    """The per-bucket scan core, shared by the Dataset groupby path and the
    explicit hash-exchange path: establish (entity, ts) sort, sessionize,
    lag/lead, prefix features, as-of merge, LOCF backfill, optional sink."""
    left = left.sort_values([entity, ts], kind="mergesort")
    right = right.sort_values([entity, ts], kind="mergesort")
    out = left.drop(columns=[_SIDE, _BUCKET, "score"], errors="ignore").reset_index(
        drop=True
    )
    if "n_tok" in out.columns and out["n_tok"].dtype != np.int32:
        # the tagged-union path upcasts n_tok via the null score rows
        out["n_tok"] = out["n_tok"].astype(np.int32)
    ids = out[entity].to_numpy()
    t = out[ts].to_numpy().astype(np.float64)

    # sessionize: per-entity session ordinal (batch-size invariant)
    sid = sessionize_gap(ids, t, gap=session_gap)
    ent_first_sid = pd.Series(sid).groupby(pd.Series(ids), sort=False).transform("min")
    out["session_seq"] = sid - ent_first_sid.to_numpy()

    # lag/lead over rows (every row is an "event" -> inter-arrival features)
    lags = time_since_to_event(ids, t, np.ones(len(out), dtype=np.int64))
    out["secs_since_prev"] = lags["time_since_last_event"]
    out["secs_to_next"] = lags["time_to_next_event"]

    # per-entity prefix features over the first stat column
    if stat_cols:
        pf = prefix_features(ids, t, out[stat_cols[0]].to_numpy())
        out["run_cummax"] = pf["cummax"]
        out["run_twmean"] = pf["twmean"]

    # as-of merge of scores (backward + tolerance) — zero temporal leakage
    if len(right):
        joined = asof_join_arrays(
            ids,
            t,
            right[entity].to_numpy(),
            right[ts].to_numpy().astype(np.float64),
            {"score": right["score"].to_numpy()},
            tolerance=tolerance,
            direction="backward",
        )
        out["score_asof"] = joined["score"]
        out["score_asof_ts"] = joined["_matched_ts"]
    else:
        out["score_asof"] = np.nan
        out["score_asof_ts"] = np.nan

    # backfill: LOCF-with-expiration of the aligned score along the row grid
    lf = locf_with_expiration(
        ids, t, out["score_asof"].to_numpy(), valid_time=np.inf if tolerance is None else tolerance
    )
    out["score_locf"] = lf["locf"]
    out["secs_since_score"] = lf["time_since_last_sample"]
    out[_BUCKET] = np.int32(bucket_id)
    if sink is not None:
        return sink(out, bucket_id)
    return out


def flagship_features(
    tokens_ds,
    scores_ds,
    entity: str = "doc_id",
    ts: str = "ts",
    session_gap: float = 300.0,
    tolerance: float | None = 86_400.0,
    num_buckets: int = 64,
    stats: tuple[str, ...] = NARROW_STATS,
    heavy: bool = False,
    sink=None,
):
    """The aligned-features Dataset (narrow). See module docstring.

    ``sink(df, partition_id) -> df`` (optional) runs INSIDE the per-bucket
    task — the resumable writer uses this so the sink adds no extra shuffle.
    """
    enriched = tokens_ds.map_batches(
        TokenWindowStats(stats=tuple(s for s in stats if s not in ("dfa", "dfc", "dfc_amp")),
                         heavy=heavy),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4_096,  # cache-sized batches: the segmented kernels are
        # memory-bandwidth-bound; ~2MB working sets more than double aggregate
        # throughput at full concurrency vs 16k-row batches (measured)
    )
    stat_cols = [f"tok_{s}" for s in stats] + (["tok_dfa", "tok_dfc", "tok_dfc_amp"] if heavy else [])
    narrow_cols = list(dict.fromkeys([entity, ts, "source", "n_tok"])) + stat_cols
    narrow = enriched.select_columns(narrow_cols)

    def _tag(side: int, cols: list[str]):
        def tag_fn(t: pa.Table) -> pa.Table:
            b = stable_bucket(t[entity].to_numpy(zero_copy_only=False), num_buckets)
            out = {}
            for c in cols:
                if c in t.column_names:
                    out[c] = t[c]
                elif c == "score":
                    out[c] = pa.nulls(t.num_rows, type=pa.float64())
                elif c == "source":
                    out[c] = pa.nulls(t.num_rows, type=pa.string())
                elif c == "n_tok":
                    out[c] = pa.nulls(t.num_rows, type=pa.int32())
                else:
                    out[c] = pa.nulls(t.num_rows, type=pa.float64())
            out[_BUCKET] = pa.array(b, type=pa.int32())
            out[_SIDE] = pa.array(np.full(t.num_rows, side, dtype=np.int8))
            return pa.table(out)

        return tag_fn

    union_cols = narrow_cols + ["score"]
    tagged = narrow.map_batches(_tag(0, union_cols), batch_format="pyarrow").union(
        scores_ds.map_batches(_tag(1, union_cols), batch_format="pyarrow")
    )
    return tagged.groupby(_BUCKET).map_groups(
        _fused_bucket_fn(entity, ts, session_gap, tolerance, stat_cols, sink=sink),
        batch_format="pandas",
    )


def run_flagship(
    tokens_path: str,
    scores_path: str,
    out_dir: str | None = None,
    manifest_path: str | None = None,
    num_buckets: int = 64,
    heavy: bool = False,
    **kw,
):
    """End-to-end flagship incl. resumable sink. Returns the features Dataset
    (consumed if out_dir given)."""
    import ray.data as rd

    # input layout rule: tokens_path should be a DIRECTORY of parquet shards —
    # ray.data schedules one read task per file, so a single giant file would
    # serialize the parquet decode and cap the whole pipeline. Pin one block
    # per shard: letting Ray sub-split files multiplies the block count and
    # the driver's per-block scheduling overhead becomes the bottleneck.
    import glob

    if os.path.isdir(tokens_path):
        n_files = len(glob.glob(f"{tokens_path}/*.parquet"))
        tokens = rd.read_parquet(tokens_path, override_num_blocks=max(n_files, 1))
    else:
        tokens = rd.read_parquet(tokens_path)
    scores = rd.read_parquet(scores_path, override_num_blocks=1)
    if out_dir is None:
        return flagship_features(tokens, scores, num_buckets=num_buckets, heavy=heavy, **kw)

    manifest_path = manifest_path or f"{out_dir}/manifest.jsonl"
    done = ChunkPartitionSink.committed(out_dir, manifest_path)

    def _sink(body: pd.DataFrame, pid: int) -> pd.DataFrame:
        if pid in done:
            return _summary(pid, 0, skipped=True)
        return commit_partition(
            ChunkPartitionSink(out_dir, pid), manifest_path, lambda emit: emit(body)
        )

    return flagship_features(
        tokens, scores, num_buckets=num_buckets, heavy=heavy, sink=_sink, **kw
    )


def scan_chunks_with_carry(
    chunks,
    right: pd.DataFrame,
    entity: str,
    ts: str,
    session_gap: float,
    tolerance: float | None,
    stat_cols: list[str],
    bucket_id: int,
    emit,
) -> None:
    """The per-bucket scan of the flagship's one reduce protocol: consume
    (entity, ts)-ordered chunks (the whole bucket as one chunk, or
    stages/chunked.sorted_run_merge) SEQUENTIALLY, running ``process_bucket``
    per chunk and threading the O(1) boundary state with the carry kernels
    of stages/salted.py: only the entity straddling a boundary needs fixing,
    and it is by construction the chunk's first (prefix) / last (suffix)
    entity.
    Peak memory is TWO chunks (current + the pending one held back so its
    last row's ``secs_to_next`` can see the next chunk), never the bucket.
    Output is byte-identical to one ``process_bucket`` over the whole bucket
    (tests/test_chunked.py). ``emit(df)`` receives finished frames in order.
    """
    carry_e, carry = None, None  # boundary entity + its folded scan state
    pending: pd.DataFrame | None = None
    pending_last_e = None
    for chunk in chunks:
        if not len(chunk):
            continue
        feats = process_bucket(
            chunk, right, entity, ts, session_gap, tolerance, stat_cols,
            bucket_id=bucket_id,
        )
        ids = feats[entity].to_numpy()
        first_e, last_e = ids[0], ids[-1]
        # carry-OUT summary must reflect LOCAL (pre-fix) scan state — session
        # ids are local ordinals until the carry offset is applied (the salted
        # phase-1 computes its info pre-fix for the same reason)
        n_suf = int((ids == last_e).sum())
        info = chunk_carry_info(feats.iloc[len(feats) - n_suf :], ts, stat_cols[0])
        # patch the held-back frame's tail lag and release it
        if pending is not None:
            if pending_last_e == first_e:
                stn = pending["secs_to_next"].to_numpy().astype(np.float64)
                stn[-1] = float(feats[ts].iloc[0]) - float(pending[ts].iloc[-1])
                pending["secs_to_next"] = stn
            emit(pending)
        # apply carry-in to the prefix belonging to the boundary entity
        if carry is not None and first_e == carry_e:
            n_pre = int((ids == first_e).sum())
            fixed = flagship_apply_carry(
                feats.iloc[:n_pre], carry, None, ts, stat_cols[0], session_gap
            )
            feats = (
                pd.concat([fixed, feats.iloc[n_pre:]], ignore_index=True)
                if n_pre < len(feats)
                else fixed.reset_index(drop=True)
            )
        # fold carry-out: chain only when the WHOLE chunk continues carry_e
        if carry is not None and first_e == last_e and first_e == carry_e:
            carry = fold_carry(carry, info, session_gap)
        else:
            carry = fold_carry(None, info, session_gap)
        carry_e = last_e
        pending, pending_last_e = feats, last_e
    if pending is not None:
        emit(pending)


class ChunkPartitionSink:
    """The flagship's one partition sink: streams frames into ONE parquet
    partition via ParquetWriter (tmp + atomic rename at close), folding the
    manifest checksum frame by frame (the XOR row-hash checksum is
    order/merge-insensitive, so the folded value equals the checksum of the
    whole partition)."""

    def __init__(self, out_dir: str, bucket_id: int):
        os.makedirs(out_dir, exist_ok=True)
        self.bucket_id = bucket_id
        self.final = self.path(out_dir, bucket_id)
        self.tmp = self.final + f".tmp.{os.getpid()}"
        self.writer = None
        self.rows = 0
        self.checksum = 0

    @staticmethod
    def path(out_dir: str, bucket_id: int) -> str:
        return os.path.join(out_dir, f"part-{bucket_id}.parquet")

    @classmethod
    def committed(cls, out_dir: str, manifest_file: str) -> set:
        """The skip check of a rerun: the partitions whose last manifest
        record names a file holding the recorded rows. Every other record
        (its file missing or truncated, or superseded by a later record of
        the same partition) is dropped from the manifest, so a recomputed
        partition ends with one record and the XOR of the manifest's
        checksums still equals the XOR of what is on disk."""
        manifest = Manifest(manifest_file)
        recs = manifest.records()
        last = {r["partition_id"]: i for i, r in enumerate(recs) if r["stage"] == "flagship"}

        def intact(rec: dict) -> bool:
            try:
                meta = pq.read_metadata(cls.path(out_dir, rec["partition_id"]))
            except (OSError, ValueError):  # missing, or not a whole parquet file
                return False
            return meta.num_rows == rec["row_count"]

        keep = [
            r for i, r in enumerate(recs)
            if r["stage"] != "flagship" or (last[r["partition_id"]] == i and intact(r))
        ]
        if len(keep) < len(recs):
            manifest.rewrite(keep)
        return {r["partition_id"] for r in keep if r["stage"] == "flagship"}

    def emit(self, df: pd.DataFrame) -> None:
        body = df.drop(columns=[_BUCKET], errors="ignore")
        tbl = pa.Table.from_pandas(body, preserve_index=False)
        if self.writer is None:
            self.writer = pq.ParquetWriter(self.tmp, tbl.schema)
        self.writer.write_table(tbl)
        self.rows += len(body)
        self.checksum ^= frame_checksum(body)

    def close(self) -> bool:
        if self.writer is None:
            return False
        self.writer.close()
        os.replace(self.tmp, self.final)
        return True


def _summary(pid: int, rows: int, skipped: bool) -> pd.DataFrame:
    return pd.DataFrame({"partition_id": [pid], "rows": [rows], "skipped": [skipped]})


def commit_partition(sink: ChunkPartitionSink, manifest_file: str, scan,
                     input_fragments=None) -> pd.DataFrame:
    """Stream ``scan(emit)``'s frames into ``sink``, then commit the
    partition: the atomic rename, then its manifest record (the commit point
    a rerun checks). Returns the partition's summary row."""
    t0 = time.perf_counter()
    scan(sink.emit)
    if not sink.close():
        return pd.DataFrame()
    Manifest(manifest_file).append(
        "flagship", sink.bucket_id, sink.rows, sink.checksum, time.perf_counter() - t0,
        input_fragments=input_fragments,
    )
    return _summary(sink.bucket_id, sink.rows, skipped=False)


def detect_salt_spec(
    shards: list[str],
    entity: str,
    ts: str,
    num_buckets: int,
    threshold: float = 0.2,
    max_salts: int = 32,
    min_rows: int = 1_000_000,
) -> tuple[dict, int]:
    """Heavy-hitter pre-pass (SURVEY §4.2): distributed per-shard entity
    counts (entity column only leaves storage) find keys holding more than
    ``threshold`` of all rows; a second pruned pass collects a strided ts
    sample per hot key to place S-1 range boundaries at ts quantiles.
    Returns ({entity_value: (offset, boundaries)}, total_extra_buckets).
    Deterministic: counts and strided samples depend only on the data."""
    import ray

    @ray.remote
    def shard_stats(path: str):
        """ONE pruned pass per shard: entity counts + strided ts samples for
        the shard's top-8 entities. Any globally-heavy key (> threshold of
        ALL rows) is in virtually every shard's local top-8, so no second
        pass is needed (a per-key fallback below covers the pathological
        miss)."""
        t = pq.read_table(path, columns=[entity, ts])
        ent = t[entity].to_numpy(zero_copy_only=False)
        tsv = t[ts].to_numpy(zero_copy_only=False).astype(np.float64)
        vc = pd.Series(ent).value_counts()
        samples = {}
        for k in vc.index[:8]:
            v = tsv[ent == k]
            samples[k] = v[:: max(1, v.size // 4096)]
        return vc, samples

    stats = ray.get([shard_stats.remote(p) for p in shards])
    tot = pd.concat([s[0] for s in stats]).groupby(level=0).sum()
    total = int(tot.sum())
    # gate on SHARE (straggler ratio) and ABSOLUTE size: under ~1M rows the
    # hot entity's whole-scan straggler costs < ~0.5 s (1-3M rows/s scan
    # throughput, measured: 1.2M-row chunk suite = 3.6 s incl. sort/asof)
    # — below the salting machinery's ~1 s fixed cost (pre-pass + extra
    # phase hop). At cluster scale any over-threshold key clears min_rows.
    heavy = tot[(tot / max(total, 1) > threshold) & (tot > min_rows)]
    if heavy.empty:
        return {}, 0

    spec: dict = {}
    off = 0
    for k in heavy.index:
        share = float(tot[k]) / max(total, 1)
        n_salts = int(max(2, min(max_salts, np.ceil(share * num_buckets))))
        parts = [s[1][k] for s in stats if k in s[1]]
        if not parts:  # pathological: heavy key outside every shard top-8

            @ray.remote
            def key_ts(path: str, key=k):
                t = pq.read_table(path, columns=[entity, ts])
                v = t[ts].to_numpy(zero_copy_only=False).astype(np.float64)[
                    t[entity].to_numpy(zero_copy_only=False) == key
                ]
                return v[:: max(1, v.size // 4096)]

            parts = ray.get([key_ts.remote(p) for p in shards])
        sample = np.sort(np.concatenate(parts))
        bounds = np.unique(np.quantile(sample, np.linspace(0, 1, n_salts + 1)[1:-1]))
        spec[k] = (off, bounds)
        off += bounds.size + 1
    return spec, off


def run_flagship_exchange(
    tokens_dir: str,
    scores_path: str,
    out_dir: str | None = None,
    manifest_path: str | None = None,
    entity: str = "doc_id",
    ts: str = "ts",
    session_gap: float = 300.0,
    tolerance: float | None = 86_400.0,
    num_buckets: int | None = None,
    stats: tuple[str, ...] = NARROW_STATS,
    heavy: bool = False,
    wide_out_dir: str | None = None,
    salt: bool = True,
    salt_threshold: float = 0.2,
    salt_min_rows: int = 1_000_000,
    chunk_rows: int | None = None,
) -> pd.DataFrame:
    """Flagship on the explicit two-stage hash exchange (stages.exchange):
    map tasks fuse read + windowed stats + bucket split; one reduce task per
    hash bucket streams the bucket's chunks through ``scan_chunks_with_carry``
    into ``ChunkPartitionSink`` and commits the partition. The scores table
    is split by bucket (and by hot entity) once on the driver; each task
    receives only its slice.

    ``chunk_rows`` bounds reduce memory: map slices arrive as sorted
    sub-chunk objects and each reduce streams a k-way merge of ~chunk_rows
    chunks, so the reduce heap holds two chunks, not the bucket. Without it
    a bucket is one chunk.

    ``salt`` range-salts every entity holding more than ``salt_threshold``
    of all rows (and more than ``salt_min_rows``) into extra partitions
    ``num_buckets + k`` (``detect_salt_spec``): phase-1 tasks scan its ts
    ranges in parallel, the driver folds their O(1) carries in order, and
    fix tasks apply them and commit through the same sink.

    A rerun into the same ``out_dir`` skips the partitions whose manifest
    record names a file holding the recorded rows
    (``ChunkPartitionSink.committed``) and recomputes the others.

    Returns per-partition summary rows (or the features when out_dir=None).
    Output is byte-identical across bucket counts, chunking and salting, and
    equals ``run_flagship``'s (tested).
    """
    import glob

    import ray

    from ..stages.exchange import auto_num_buckets, exchange_map

    shards = sorted(glob.glob(f"{tokens_dir}/*.parquet")) or [tokens_dir]
    if num_buckets is None:
        num_buckets = auto_num_buckets(shards)
    frag_names = [os.path.basename(p) for p in shards]

    if heavy:
        stats = tuple(stats) + ("dfa", "dfc", "dfc_amp")
    stat_cols = [f"tok_{s}" for s in stats]
    narrow_cols = list(dict.fromkeys([entity, ts, "source", "n_tok"])) + stat_cols
    tw = TokenWindowStats(stats=stats)
    if wide_out_dir is not None:
        os.makedirs(wide_out_dir, exist_ok=True)

    def map_fn(t: pa.Table, shard_path: str) -> pa.Table:
        enriched = tw(t)
        if wide_out_dir is not None:
            # the enriched WIDE table (token arrays byte-identical + stat
            # columns) is persisted MAP-SIDE, partitioned by input fragment —
            # it never enters the exchange (SURVEY §7.5.7); atomic + named by
            # the input fragment so reruns overwrite identically
            frag = os.path.splitext(os.path.basename(shard_path))[0]
            tmp = f"{wide_out_dir}/wide-{frag}.parquet.tmp.{os.getpid()}"
            pq.write_table(enriched, tmp)
            os.replace(tmp, f"{wide_out_dir}/wide-{frag}.parquet")
        return enriched.select(narrow_cols)

    done: set = set()
    manifest_file = None
    if out_dir is not None:
        manifest_file = manifest_path or f"{out_dir}/manifest.jsonl"
        done = ChunkPartitionSink.committed(out_dir, manifest_file)

    spec: dict = {}
    n_extra = 0
    if salt:
        spec, n_extra = detect_salt_spec(
            shards, entity, ts, num_buckets, threshold=salt_threshold,
            min_rows=salt_min_rows,
        )

    def bucket_fn(t: pa.Table) -> np.ndarray:
        """Hash bucket per row; a hot entity's rows go to its ts ranges
        ``num_buckets + offset + k`` instead. Ties in ts cannot straddle
        ranges (value-based searchsorted), so per-range stable sorts
        reproduce the unsalted order."""
        vals = t[entity].to_numpy(zero_copy_only=False)
        bucket = stable_bucket(vals, num_buckets)
        if spec:
            tsv = t[ts].to_numpy(zero_copy_only=False).astype(np.float64)
            for e, (off, bounds) in spec.items():
                m = vals == e
                if m.any():
                    bucket[m] = (
                        num_buckets + off + np.searchsorted(bounds, tsv[m], side="right")
                    ).astype(bucket.dtype)
        return bucket

    refs = exchange_map(
        shards, map_fn, bucket_fn, num_buckets + n_extra,
        sort_keys=[entity, ts] if chunk_rows is not None else None,
        chunk_rows=chunk_rows,
    )

    scores = pq.read_table(scores_path).to_pandas()
    score_ids = scores[entity].to_numpy()
    by_bucket = dict(tuple(scores.groupby(stable_bucket(score_ids, num_buckets), sort=False)))
    bucket_scores = [by_bucket.get(b, scores.iloc[:0]) for b in range(num_buckets)]

    def contributors(parts) -> list[str]:
        """Lineage: the input fragments whose map slices hold rows of a
        bucket (a slice is a table, or a list of sub-chunk refs)."""
        return [frag_names[s] for s, p in enumerate(parts) if len(p)]

    def one_chunk(parts) -> pd.DataFrame:
        return pa.concat_tables([t for p in parts for t in ray_run_iter(p)]).to_pandas()

    def commit(b: int, frags: list[str], scan) -> pd.DataFrame:
        if not frags:
            return pd.DataFrame()  # empty bucket: no partition
        if out_dir is None:
            frames: list = []
            scan(frames.append)
            return pd.concat(frames, ignore_index=True)
        if b in done:
            return _summary(b, 0, skipped=True)
        return commit_partition(ChunkPartitionSink(out_dir, b), manifest_file, scan, frags)

    @ray.remote
    def reduce_bucket(b: int, right: pd.DataFrame, *parts) -> pd.DataFrame:
        def scan(emit) -> None:
            if chunk_rows is None:
                chunks = [one_chunk(parts)]
            else:
                chunks = sorted_run_merge([ray_run_iter(p) for p in parts], entity, ts, chunk_rows)
            scan_chunks_with_carry(
                chunks, right, entity, ts, session_gap, tolerance, stat_cols, b, emit
            )

        return commit(b, contributors(parts), scan)

    @ray.remote(num_returns=3)
    def scan_range(b: int, right: pd.DataFrame, *parts):
        """Phase 1 of a salted range: scan it alone. Its compact carry
        summary rides back separately, so the driver's fold never fetches
        the features frame."""
        frags = contributors(parts)
        if not frags:
            return pd.DataFrame(), None, []
        feats = process_bucket(
            one_chunk(parts), right, entity, ts, session_gap, tolerance, stat_cols,
            bucket_id=b,
        )
        return feats, chunk_carry_info(feats, ts, stat_cols[0]), frags

    @ray.remote
    def fix_range(feats: pd.DataFrame, carry, next_first_ts, b: int, frags) -> pd.DataFrame:
        return commit(b, frags, lambda emit: emit(flagship_apply_carry(
            feats, carry, next_first_ts, ts, stat_cols[0], session_gap
        )))

    def slices(b: int) -> list:
        return [refs[s][b] for s in range(len(shards))]

    out = [reduce_bucket.remote(b, bucket_scores[b], *slices(b)) for b in range(num_buckets)]
    for e, (off, bounds) in spec.items():
        ranges = range(num_buckets + off, num_buckets + off + bounds.size + 1)
        right = ray.put(scores[score_ids == e])
        phase1 = [scan_range.remote(b, right, *slices(b)) for b in ranges]
        infos = ray.get([p[1] for p in phase1])
        # driver-side sequential fold (microseconds per range) -> carry-ins;
        # all fix tasks then launch in parallel
        carry, carries = None, []
        for info in infos:
            carries.append(carry)
            carry = fold_carry(carry, info, session_gap)
        for k, (b, (feats, _, frags)) in enumerate(zip(ranges, phase1)):
            next_first = next((i["first_ts"] for i in infos[k + 1:] if i), None)
            out.append(fix_range.remote(feats, carries[k], next_first, b, frags))
    frames = [f for f in ray.get(out) if len(f)]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


# ---------------------------------------------------------------------------
# Driver-gated end-to-end flagship query (VERDICT r3 "Next round" #7)
# ---------------------------------------------------------------------------

def flagship_session_summary(sf_dir: str) -> pd.DataFrame:
    """Run the REAL flagship pipeline (tokenize -> TokenWindowStats ->
    entity-bucket shuffle -> sort/sessionize/lag -> backward as-of join ->
    LOCF) end-to-end over the documents table, then reduce to a per-source
    summary whose every field is ANSI-SQL-expressible — so the driver's
    DuckDB hash gate covers the flagship itself, not just its pieces.

    Deterministic synthetic time axis (SQL-replicable):
      token row:  ts = (doc_id * 9973) % 1_000_000        (injective: 9973
                  is prime and coprime to 1e6, doc_id < 1e6 at test SFs)
      score row:  every doc with doc_id % 97 == 0 emits one score at
                  ts = (doc_id * 9973 + 500_000) % 1_000_000 with
                  score = (doc_id % 1000) * 0.5  (exact halves -> fp-exact
                  sums, no rounding ambiguity).

    Summary per source: n_rows, n_sessions (gap > 50_000 on the sorted ts
    grid — checks the sessionizer), n_asof (rows with a backward match —
    checks zero-leakage as-of), sum_score_asof (checks WHICH score each row
    matched, not just that one matched).
    """
    from ..tokenize import tokenize_batch
    from .common import bounded_to_pandas, read

    def to_tokens(batch: pa.Table) -> pa.Table:
        t = tokenize_batch(batch)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # the synthetic axis is injective ONLY for doc_id < 1e6; beyond
        # that, ts collisions make as-of / session tie order ambiguous and
        # the DuckDB gate could diverge nondeterministically — fail loudly
        # instead of flaking (ADVICE r4 #3)
        if ids.size and ids.max() >= 1_000_000:
            raise ValueError(
                "flagship_session_summary's ts = (doc_id*9973) % 1e6 axis "
                f"requires doc_id < 1_000_000; got max {ids.max()}"
            )
        ts = (ids * 9973) % 1_000_000
        return t.append_column("ts", pa.array(ts, type=pa.int64()))

    tokens = read(sf_dir, "documents", columns=["doc_id", "text", "source"]).map_batches(
        to_tokens, batch_format="pyarrow"
    )

    def to_scores(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % 97 == 0
        ids = ids[keep]
        src = batch["source"].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "source": pa.array(src, type=pa.string()),
            "ts": pa.array((ids * 9973 + 500_000) % 1_000_000, type=pa.int64()),
            "score": pa.array((ids % 1000) * 0.5, type=pa.float64()),
        })

    scores = read(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        to_scores, batch_format="pyarrow"
    )

    feats = flagship_features(
        tokens, scores, entity="source", ts="ts",
        session_gap=50_000.0, tolerance=None, num_buckets=8,
    )

    # map-side partial per batch (bounded: one row per source per batch);
    # max(session_seq) folds with max, counts/sums with sum
    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("source", as_index=False).agg(
            n_rows=("ts", "size"),
            max_seq=("session_seq", "max"),
            n_asof=("score_asof", "count"),
            sum_score_asof=("score_asof", "sum"),
        )

    parts = bounded_to_pandas(
        feats.map_batches(summarize, batch_format="pandas"),
        "flagship_session_summary",
    )
    out = parts.groupby("source", as_index=False).agg(
        n_rows=("n_rows", "sum"), max_seq=("max_seq", "max"),
        n_asof=("n_asof", "sum"), sum_score_asof=("sum_score_asof", "sum"),
    )
    out["n_sessions"] = (out.pop("max_seq") + 1).astype(np.int64)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_asof"] = out["n_asof"].astype(np.int64)
    out["sum_score_asof"] = out["sum_score_asof"].astype(np.float64).round(2)
    return (
        out[["source", "n_rows", "n_sessions", "n_asof", "sum_score_asof"]]
        .sort_values("source")
        .reset_index(drop=True)
    )


FLAGSHIP_SUMMARY_SQL = """
WITH tok AS (
  SELECT doc_id, source, CAST((doc_id * 9973) % 1000000 AS DOUBLE) AS ts
  FROM documents
), sc AS (
  SELECT source, CAST((doc_id * 9973 + 500000) % 1000000 AS DOUBLE) AS ts,
         (doc_id % 1000) * 0.5 AS score
  FROM documents WHERE doc_id % 97 = 0
), lagged AS (
  SELECT source,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY source ORDER BY ts) > 50000
              THEN 1 ELSE 0 END AS brk
  FROM tok
), sess AS (
  SELECT source, count(*) AS n_rows, 1 + sum(brk) AS n_sessions
  FROM lagged GROUP BY source
), aj AS (
  SELECT t.source,
         (SELECT s.score FROM sc s
          WHERE s.source = t.source AND s.ts <= t.ts
          ORDER BY s.ts DESC LIMIT 1) AS sa
  FROM tok t
), am AS (
  SELECT source, count(sa) AS n_asof,
         round(coalesce(sum(sa), 0), 2) AS sum_score_asof
  FROM aj GROUP BY source
)
SELECT sess.source, n_rows, CAST(n_sessions AS BIGINT) AS n_sessions,
       n_asof, sum_score_asof
FROM sess JOIN am ON sess.source = am.source
ORDER BY sess.source
"""

QUERIES = {"flagship_session_summary": flagship_session_summary}
ORACLE = {"flagship_session_summary": FLAGSHIP_SUMMARY_SQL}
