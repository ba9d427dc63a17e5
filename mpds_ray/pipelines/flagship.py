"""Flagship pipeline (BASELINE.md workload):

    read tokens parquet shards
      -> TokenWindowStats (pyarrow, zero-copy)             [map side]
      -> narrow projection (doc_id, ts, source, stats)     [tokens stay Arrow]
      -> ONE hash exchange by stable_bucket(entity) % B    [stages/exchange.py]
      -> reduce tasks over contiguous groups of buckets; each bucket's
         rows as a chunk stream, each chunk run through ``process_bucket``:
            (entity, ts) order, integer entity codes       [establish invariant]
            sessionize (gap threshold, per-entity ordinals)
            per-entity lag/lead + prefix features
            as-of search of scores (backward, tolerance)
            LOCF-with-expiration backfill of the joined score
         with the boundary entity's scan state carried from chunk to chunk
      -> resumable partitioned sink + lineage manifest     [ChunkPartitionSink]

``run_flagship_exchange`` is the engine, with one reduce protocol
(``scan_chunks_with_carry`` into ``ChunkPartitionSink``):

- a bucket is one chunk (its concatenated map runs) by default;
- with ``chunk_rows`` its sorted runs (in the map object's table up to
  ``chunk_rows`` rows, else sub-chunk objects) merge into chunks of ~that
  many rows
  (stages/chunked.py), so reduce memory is bounded by chunks;
- a hot entity is range-salted into extra partitions: phase-1 tasks scan
  its ts ranges in parallel, each as a bucket is scanned, the driver folds
  their carries with the same kernels, and fix tasks rescan each range's
  state-dependent features from its carry and commit through the same sink.

Buckets and salted ranges are partitions; tasks are groups of them
(``exchange.task_groups``), each run one partition after the other. Map
tasks are groups of shards by the same rule, and each returns one Arrow
table per reduce group (``exchange.GroupSlices``), from which the reduce
carves its per-shard runs zero-copy (``exchange.group_runs``).

The bucket stays Arrow from the exchange to the sink: map runs arrive as
``pa.Table`` slices, ``process_bucket`` sorts only a side out of (entity, ts)
order (not a merged chunk, nor the scores, sorted once on the driver), scans
them as Arrow columns and NumPy entity runs (``partition.run_bounds`` over
integer entity codes) and returns a ``pa.Table``, and the sink writes and
checksums that table. No bucket is converted to pandas on the way.

Output is byte-identical across bucket counts, chunking and salting.

Every caller runs this engine: ``__ray_entry__.entry()``, the gated query
``flagship_session_summary`` (documents -> tokens shards via
``write_doc_tokens``, then the engine into a temporary sink) and perfbench's
measured operation. ``flagship_features`` / ``run_flagship`` are the
Dataset-native reference (a tagged union and Ray's sort-based ``groupby``)
that only perfbench's reference check still runs; they share
``process_bucket`` and the sink.

Design notes for 10^12-row scale:
- The wide ``tokens`` column never enters the shuffle: stats are computed
  map-side over zero-copy Arrow and only the narrow feature row moves
  (SURVEY §7.5.7). The enriched wide table is written map-side, partitioned
  by input fragment, preserving the token arrays byte-identical.
- Every partition is a pure function of its bucket, so a retry re-executes
  it; the manifest record is the commit point of a resumable rerun.
"""

from __future__ import annotations

import glob
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..stages.asof import asof_join_arrays
from ..stages.chunked import sorted_run_merge
from ..stages.exchange import (
    GroupSlices,
    _split_by_bucket,
    auto_num_buckets,
    collect_frames,
    exchange_map,
    group_runs,
    key_bucket,
    shard_map,
    task_groups,
)
from ..stages.salted import (
    at_cut,
    chunk_carry_info,
    flagship_apply_carry,
    fold_carry,
    nan_to_null,
    piece_head,
    range_carries,
    state_scans,
    with_columns,
)
from ..stages.window_stats import TokenWindowStats
from ..state.manifest import Manifest, frame_checksum, partition_path
from ..tokenize import tokenize_batch
from .common import shard_list

_BUCKET = "_bucket"
_SIDE = "_side"

NARROW_STATS = ("mean", "std", "En", "zcr", "ar1", "meanTKEO", "n")
# the feature columns process_bucket appends, in order
FEATURES = ("session_seq", "secs_since_prev", "secs_to_next", "run_cummax", "run_twmean",
            "score_asof", "score_asof_ts", "score_locf", "secs_since_score")
# detect_salt_spec salts a key above this share of all rows into <= SALT_MAX ranges
SALT_SHARE = 0.2
SALT_MAX = 32


def _fused_bucket_fn(
    entity: str,
    ts: str,
    session_gap: float,
    tolerance: float | None,
    stat_cols: list[str],
    sink=None,
):
    """Per-bucket: split the tagged union into its two sides, then
    ``process_bucket``."""

    def fn(g: pa.Table):
        left = g.filter(pc.equal(g[_SIDE], 0))
        right = g.filter(pc.equal(g[_SIDE], 1))
        out = process_bucket(left, right, entity, ts, session_gap, tolerance, stat_cols)
        return out if sink is None else sink(out, g[_BUCKET][0].as_py())

    return fn


def process_bucket(left: pa.Table, right: pa.Table, entity: str, ts: str, session_gap: float,
                   tolerance: float | None, stat_cols: list[str], carry: dict | None = None,
                   head: dict | None = None) -> pa.Table:
    """The per-bucket scan core, shared by the Dataset groupby path and the
    explicit hash-exchange path: establish the (entity, ts) order, as-of
    search, then sessionize, lag/lead, prefix features and LOCF backfill
    (``stages.salted.state_scans``), from ``carry`` and with ``head`` where
    the piece continues a cut (``fold_carry``, ``piece_head``).

    One ``dictionary_encode`` over both sides' entity columns, its
    dictionary ranked, gives the integer entity codes every scan runs on.
    The codes follow the entity values' order, so ``_in_order`` sorts only
    a side out of (entity, ts) order, once and stably: a chunk of
    ``sorted_run_merge`` and the driver's score slices are taken as they
    are. Returns the left rows in that order (without the union's tag and
    score columns) with the feature columns appended, every float NaN as a
    null."""
    enc = pa.chunked_array(left[entity].chunks + right[entity].chunks,
                           type=left[entity].type).combine_chunks().dictionary_encode()
    rank = pc.rank(enc.dictionary, sort_keys="ascending").to_numpy().astype(np.int64)
    codes = rank[enc.indices.to_numpy()]
    left, ids = _in_order(left, codes[: left.num_rows], entity, ts)
    right, r_ids = _in_order(right, codes[left.num_rows :], entity, ts)
    out = left.drop_columns([c for c in (_SIDE, _BUCKET, "score") if c in left.column_names])
    # a float NaN is written as a null, the stat columns' NaNs included
    out = with_columns(out, {
        f.name: out[f.name].to_numpy() for f in out.schema
        if pa.types.is_floating(f.type) and pc.any(pc.is_nan(out[f.name])).as_py()
    })
    t = out[ts].to_numpy().astype(np.float64)

    # as-of merge of scores (backward + tolerance) — zero temporal leakage
    joined = asof_join_arrays(ids, t, r_ids, right[ts].to_numpy().astype(np.float64),
                              {"score": right["score"].to_numpy()}, tolerance=tolerance,
                              direction="backward")
    feats = state_scans(
        ids, t, out[stat_cols[0]].to_numpy() if stat_cols else None, joined["score"],
        session_gap, *at_cut(out[entity], carry, head),
    )
    feats.update(score_asof=joined["score"], score_asof_ts=joined["_matched_ts"])
    names = [k for k in FEATURES if k in feats]
    return pa.Table.from_arrays(out.columns + [nan_to_null(feats[k]) for k in names],
                                names=out.column_names + names)


def _in_order(side: pa.Table, codes: np.ndarray, entity: str, ts: str) -> tuple:
    """``side`` and its entity ``codes`` in (entity, ts) order: as given
    when the codes and ts are nondecreasing, else after one stable sort (a
    NaN or null ts compares out of order)."""
    t, dc = side[ts].to_numpy(), np.diff(codes)
    if np.all((dc > 0) | ((dc == 0) & (t[1:] >= t[:-1]))):
        return side, codes
    idx = pc.sort_indices(side, sort_keys=[(entity, "ascending"), (ts, "ascending")])
    return side.take(idx), codes[idx.to_numpy()]


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

    ``sink(table, partition_id) -> df`` (optional) runs INSIDE the per-bucket
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
            b = key_bucket(t, entity, num_buckets)
            out = {}
            for c in cols:  # a column the side lacks is nulls; score and stats are float64
                typ = {"source": pa.string(), "n_tok": pa.int32()}.get(c, pa.float64())
                out[c] = t[c] if c in t.column_names else pa.nulls(t.num_rows, type=typ)
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
        batch_format="pyarrow",
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
    if os.path.isdir(tokens_path):
        n_files = len(glob.glob(f"{tokens_path}/*.parquet"))
        tokens = rd.read_parquet(tokens_path, override_num_blocks=max(n_files, 1))
    else:
        tokens = rd.read_parquet(tokens_path)
    scores = rd.read_parquet(scores_path, override_num_blocks=1)
    if out_dir is None:
        return flagship_features(tokens, scores, num_buckets=num_buckets, heavy=heavy, **kw)

    manifest_path = manifest_path or f"{out_dir}/manifest.jsonl"
    done = Manifest(manifest_path).committed("flagship", out_dir)

    def _sink(body: pa.Table, pid: int) -> pd.DataFrame:
        if pid in done:
            return _summary(pid, 0, skipped=True)
        return commit_partition(
            ChunkPartitionSink(out_dir, pid), manifest_path, lambda emit: emit(body)
        )

    return flagship_features(
        tokens, scores, num_buckets=num_buckets, heavy=heavy, sink=_sink, **kw
    )


def scan_chunks_with_carry(chunks, right: pa.Table, entity: str, ts: str, session_gap: float,
                           tolerance: float | None, stat_cols: list[str], emit) -> None:
    """The flagship's one stitch: consume (entity, ts)-ordered Arrow chunks
    (a bucket or salted range as one chunk, or stages/chunked.sorted_run_merge)
    in order and scan each with ``process_bucket`` from the carry of the
    chunks before it (stages/salted.py). Each chunk is held back until the
    next one arrives (peak memory is two chunks, never the bucket); it is
    then scanned with the next chunk's head (``piece_head``), emitted as it
    is and summarized into the next chunk's carry, so a one-chunk partition
    takes no summary. Output is byte-identical to one ``process_bucket``
    over all the chunks (tests/test_chunked.py). ``emit(table)`` receives
    the finished tables in order."""
    stat = stat_cols[0]
    carry = held = None
    for chunk in chunks:
        if not chunk.num_rows:
            continue
        if held is not None:
            feats = process_bucket(held, right, entity, ts, session_gap, tolerance, stat_cols,
                                   carry, piece_head(chunk, entity, ts, stat))
            emit(feats)
            carry = fold_carry(carry, chunk_carry_info(feats, entity, ts, stat), session_gap)
        held = chunk
    if held is not None:
        emit(process_bucket(held, right, entity, ts, session_gap, tolerance, stat_cols, carry))


class ChunkPartitionSink:
    """The flagship's one partition sink: streams Arrow tables into ONE
    parquet partition via ParquetWriter (tmp + atomic rename at close),
    folding the manifest checksum table by table (the XOR row-hash checksum
    is order/merge-insensitive, so the folded value equals the checksum of
    the whole partition)."""

    def __init__(self, out_dir: str, bucket_id: int):
        os.makedirs(out_dir, exist_ok=True)
        self.bucket_id = bucket_id
        self.final = partition_path(out_dir, bucket_id)
        self.tmp = self.final + f".tmp.{os.getpid()}"
        self.writer = None
        self.rows = 0
        self.checksum = 0

    def emit(self, tbl: pa.Table) -> None:
        if self.writer is None:
            self.writer = pq.ParquetWriter(self.tmp, tbl.schema)
        self.writer.write_table(tbl)
        self.rows += tbl.num_rows
        self.checksum ^= frame_checksum(tbl)

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
    """Stream ``scan(emit)``'s tables into ``sink``, then commit the
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


def _strided(v: np.ndarray) -> np.ndarray:
    """The salt pre-pass's ts sample of one key in one shard: every
    ``v.size // 4096``-th value, so at most ~4096 per shard."""
    return v[:: max(1, v.size // 4096)]


def detect_salt_spec(
    shards: list[str],
    entity: str,
    ts: str,
    num_buckets: int,
    min_rows: int = 1_000_000,
) -> tuple[dict, int]:
    """Heavy-hitter pre-pass (SURVEY §4.2): one pruned ``shard_map`` pass
    (entity and ts columns only leave storage) counts each shard's entities
    and keeps a strided ts sample of its local top-8. Keys holding more
    than ``SALT_SHARE`` of all rows are hot; each gets S-1 range boundaries
    at its sample's ts quantiles, S = ceil(share * num_buckets) clipped to
    [2, ``SALT_MAX``]. A globally-heavy key is in virtually
    every shard's local top-8; when it is in none, a second pass reads its
    rows alone (``entity == key`` pushed into the scan) for the sample.
    Returns ({entity_value: (offset, boundaries)}, total_extra_buckets).
    Deterministic: counts and strided samples depend only on the data.

    Only a key with more than ``min_rows`` rows is salted, so when the
    shards' Parquet footers hold ``min_rows`` rows or fewer in all, no key
    can qualify: the pass then reads no shard and starts no task."""
    if sum(pq.read_metadata(p).num_rows for p in shards) <= min_rows:
        return {}, 0

    def top_keys(t: pa.Table):
        ent = t[entity].to_numpy(zero_copy_only=False)
        tsv = t[ts].to_numpy(zero_copy_only=False).astype(np.float64)
        vc = pd.Series(ent).value_counts()
        return vc, {k: _strided(tsv[ent == k]) for k in vc.index[:8]}

    stats = shard_map(shards, top_keys, columns=[entity, ts])
    tot = pd.concat([s[0] for s in stats]).groupby(level=0).sum()
    total = int(tot.sum())
    # gate on SHARE (straggler ratio) and ABSOLUTE size: under ~1M rows the
    # hot entity's whole-scan straggler costs < ~0.5 s (1-3M rows/s scan
    # throughput, measured: 1.2M-row chunk suite = 3.6 s incl. sort/asof)
    # — below the salting machinery's ~1 s fixed cost (pre-pass + extra
    # phase hop). At cluster scale any over-threshold key clears min_rows.
    heavy = tot[(tot / max(total, 1) > SALT_SHARE) & (tot > min_rows)]
    if heavy.empty:
        return {}, 0

    spec: dict = {}
    off = 0
    for k in heavy.index:
        share = float(tot[k]) / max(total, 1)
        n_salts = int(max(2, min(SALT_MAX, np.ceil(share * num_buckets))))
        parts = [s[1][k] for s in stats if k in s[1]]
        if not parts:  # pathological: heavy key outside every shard top-8
            parts = shard_map(
                shards,
                lambda t: _strided(t[ts].to_numpy(zero_copy_only=False).astype(np.float64)),
                columns=[ts], filters=pc.field(entity) == k,
            )
        sample = np.sort(np.concatenate(parts))
        bounds = np.unique(np.quantile(sample, np.linspace(0, 1, n_salts + 1)[1:-1]))
        spec[k] = (off, bounds)
        off += bounds.size + 1
    return spec, off


@dataclass(frozen=True)
class ScanPlan:
    """The per-run values every reduce task of one ``run_flagship_exchange``
    call shares: the scan parameters, the input fragment names (lineage),
    where partitions are committed (``out_dir`` None: returned as tables)
    and the partitions an earlier run already committed (``done``)."""

    entity: str
    ts: str
    session_gap: float
    tolerance: float | None
    stat_cols: list[str]
    chunk_rows: int | None
    frag_names: list[str]
    out_dir: str | None
    manifest_file: str | None
    done: frozenset

    def contributors(self, parts) -> list[str]:
        """Lineage: the input fragments whose runs hold rows of a partition
        (``parts[s]`` is the list of shard s's chunks, from ``group_runs``)."""
        return [self.frag_names[s] for s, p in enumerate(parts) if p]

    def commit(self, b: int, frags: list[str], scan):
        """Run ``scan(emit)`` for partition ``b`` into its file, or into one
        table when there is no ``out_dir``. No contributing fragment: no
        partition (None); in ``done``: already committed by an earlier run."""
        if not frags:
            return None
        if self.out_dir is None:
            return _collect(scan)
        if b in self.done:
            return _summary(b, 0, skipped=True)
        return commit_partition(
            ChunkPartitionSink(self.out_dir, b), self.manifest_file, scan, frags
        )


def _collect(scan) -> pa.Table:
    """The tables ``scan(emit)`` emits, as one table."""
    tables: list = []
    scan(tables.append)
    return pa.concat_tables(tables)


def _scan_bucket(plan: ScanPlan, right: pa.Table, parts, emit) -> None:
    """One partition's (a hash bucket's or a salted range's) chunk stream
    through ``scan_chunks_with_carry``."""
    if plan.chunk_rows is None:
        chunks = [pa.concat_tables([t for p in parts for t in p])]
    else:
        chunks = sorted_run_merge([iter(p) for p in parts], plan.entity, plan.ts, plan.chunk_rows)
    scan_chunks_with_carry(chunks, right, plan.entity, plan.ts, plan.session_gap, plan.tolerance,
                           plan.stat_cols, emit)


@ray.remote
def reduce_bucket(plan: ScanPlan, buckets: range, scores: GroupSlices, *objs):
    """One group of hash buckets (``objs`` are every map task's
    ``GroupSlices`` of the group, ``scores`` the group's score rows), each
    scanned into its own partition and committed before the next starts."""
    rights = [r for (r,) in scores.slices()]
    return [
        plan.commit(b, plan.contributors(parts), partial(_scan_bucket, plan, right, parts))
        for b, right, parts in zip(buckets, rights, group_runs(objs))
    ]


@ray.remote(num_returns=3)
def scan_range(plan: ScanPlan, right: pa.Table, *objs):
    """Phase 1 of a group of one hot entity's salted ranges: scan each
    range alone, as a bucket is scanned (``_scan_bucket``, so ``chunk_rows``
    bounds its scan too), then summarize it once. The summaries ride back
    separately, so the driver's fold never fetches the features tables."""
    feats, frags = [], []
    for parts in group_runs(objs):
        frags.append(plan.contributors(parts))
        feats.append(_collect(partial(_scan_bucket, plan, right, parts)) if frags[-1] else None)
    infos = [chunk_carry_info(f, plan.entity, plan.ts, plan.stat_cols[0]) for f in feats]
    return feats, infos, frags


@ray.remote
def fix_range(plan: ScanPlan, ranges: range, feats: list, carries: list, heads: list,
              frags: list):
    """Phase 2 of a group of salted ranges: rescan each range's phase-1
    output from its folded carry-in and with its head, and commit it."""
    return [
        plan.commit(b, fr, lambda emit, f=f, c=c, h=h: emit(flagship_apply_carry(
            f, c, h, plan.entity, plan.ts, plan.stat_cols[0], plan.session_gap
        )))
        for b, f, c, h, fr in zip(ranges, feats, carries, heads, frags)
    ]


def run_flagship_exchange(
    tokens_dir: str,
    scores_path: str,
    out_dir: str | None = None,
    entity: str = "doc_id",
    ts: str = "ts",
    session_gap: float = 300.0,
    tolerance: float | None = 86_400.0,
    num_buckets: int | None = None,
    stats: tuple[str, ...] = NARROW_STATS,
    heavy: bool = False,
    wide_out_dir: str | None = None,
    salt_min_rows: int = 1_000_000,
    chunk_rows: int | None = None,
) -> pd.DataFrame:
    """Flagship on the explicit two-stage hash exchange (stages.exchange):
    map tasks (groups of shards) fuse read + windowed stats + bucket split
    and return one table per reduce group. Buckets are partitions, tasks
    are groups (``task_groups``): one reduce task per group streams each
    bucket's chunks through ``scan_chunks_with_carry`` into its
    ``ChunkPartitionSink`` and commits it. The scores table is sorted by
    (bucket, entity, ts) once on the driver, in Arrow, and filtered by hot
    entity; each reduce task receives its group's contiguous range of it as
    one table with per-bucket counts, whose slices ``process_bucket`` takes
    without a sort.

    ``chunk_rows`` bounds the scan's memory to two chunks of ~that many
    rows, merged from sorted map runs (stages/chunked.py). Without it a
    partition is one chunk.

    Every entity holding more than ``SALT_SHARE`` of all rows (and more than
    ``salt_min_rows``) is range-salted into extra partitions
    ``num_buckets + k`` (``detect_salt_spec``), scanned and stitched as the
    module docstring says. Each hot entity's ranges are grouped into tasks
    as the buckets are; no grouping moves a row between partitions
    (tests/test_task_groups.py).

    A rerun into the same ``out_dir`` skips the partitions whose manifest
    record names a file holding the recorded rows
    (``Manifest.committed``) and recomputes the others.

    Returns per-partition summary rows, or with out_dir=None the features
    as a DataFrame, collected under ``DRIVER_ROOT_ROW_CAP``. Output is
    byte-identical across bucket counts, chunking and salting, and equals
    ``run_flagship``'s (tested). A null entity, or a null or NaN ts, raises
    ``ValueError`` naming the shard, the column and the row.
    """
    shards = sorted(glob.glob(f"{tokens_dir}/*.parquet")) or [tokens_dir]
    if num_buckets is None:
        num_buckets = auto_num_buckets(shards)

    if heavy:
        stats = tuple(stats) + ("dfa", "dfc", "dfc_amp")
    stat_cols = [f"tok_{s}" for s in stats]
    narrow_cols = list(dict.fromkeys([entity, ts, "source", "n_tok"])) + stat_cols
    tw = TokenWindowStats(stats=stats)
    if wide_out_dir is not None:
        os.makedirs(wide_out_dir, exist_ok=True)

    def map_fn(t: pa.Table, shard_path: str) -> pa.Table:
        for col in (entity, ts):  # the input domain: no null or NaN key
            if (row := pc.index(pc.is_null(t[col], nan_is_null=True), True).as_py()) >= 0:
                raise ValueError(f"{shard_path}: column {col!r} is {t[col][row]} at row {row}")
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
        manifest_file = f"{out_dir}/manifest.jsonl"
        done = Manifest(manifest_file).committed("flagship", out_dir)
    plan = ScanPlan(entity, ts, session_gap, tolerance, stat_cols, chunk_rows,
                    [os.path.basename(p) for p in shards], out_dir, manifest_file, frozenset(done))

    spec, n_extra = detect_salt_spec(shards, entity, ts, num_buckets, min_rows=salt_min_rows)

    def bucket_fn(t: pa.Table) -> np.ndarray:
        """Hash bucket per row; a hot entity's rows go to its ts ranges
        ``num_buckets + offset + k`` instead. Ties in ts cannot straddle
        ranges (value-based searchsorted), so per-range stable sorts
        reproduce the unsalted order."""
        bucket = key_bucket(t, entity, num_buckets)
        if spec:
            vals = t[entity].to_numpy(zero_copy_only=False)
            tsv = t[ts].to_numpy(zero_copy_only=False).astype(np.float64)
            for e, (off, bounds) in spec.items():
                m = vals == e
                if m.any():
                    bucket[m] = (
                        num_buckets + off + np.searchsorted(bounds, tsv[m], side="right")
                    ).astype(bucket.dtype)
        return bucket

    bucket_groups = task_groups(range(num_buckets), shards)
    range_groups = {
        e: task_groups(range(num_buckets + off, num_buckets + off + bounds.size + 1), shards)
        for e, (off, bounds) in spec.items()
    }
    groups = bucket_groups + [g for gs in range_groups.values() for g in gs]
    refs = exchange_map(shards, map_fn, bucket_fn, num_buckets + n_extra,
                        sort_keys=[entity, ts] if chunk_rows is not None else None,
                        chunk_rows=chunk_rows, groups=groups)
    by_group = dict(zip(groups, zip(*refs)))  # group -> every map task's object

    scores = pq.read_table(scores_path)
    bucket_scores = _split_by_bucket(scores, key_bucket(scores, entity, num_buckets), num_buckets,
                                     sort_keys=[entity, ts])
    scores = pa.concat_tables(bucket_scores)  # the same slices: (bucket, entity, ts) order
    out = [
        reduce_bucket.remote(plan, g, GroupSlices.build([bucket_scores], g), *by_group[g])
        for g in bucket_groups
    ]
    for e, gs in range_groups.items():
        right = ray.put(scores.filter(pc.equal(scores[entity], e)))
        phase1 = [scan_range.remote(plan, right, *by_group[g]) for g in gs]
        infos = [i for p in ray.get([p[1] for p in phase1]) for i in p]
        # the stitch across the ranges: a sequential fold on the driver
        # (microseconds per range), then every fix task in parallel
        carries, heads = range_carries(infos, session_gap)
        for g, (feats, _, frags) in zip(gs, phase1):
            k = slice(g.start - gs[0].start, g.stop - gs[0].start)
            out.append(fix_range.remote(plan, g, feats, carries[k], heads[k], frags))
    results = collect_frames([r for rs in ray.get(out) for r in rs], "run_flagship_exchange")
    return results.to_pandas() if isinstance(results, pa.Table) else results


# ---------------------------------------------------------------------------
# Driver-gated end-to-end flagship query (VERDICT r3 "Next round" #7)
# ---------------------------------------------------------------------------

def _doc_tokens(docs: pa.Table, tokens_dir: str) -> None:
    """``write_doc_tokens``' task body: one documents shard or row group ->
    one tokens shard."""
    t = tokenize_batch(docs)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if not ids.size:
        return
    # the synthetic axis is injective ONLY for doc_id < 1e6; beyond that, ts
    # collisions make as-of / session tie order ambiguous and the DuckDB gate
    # could diverge nondeterministically — fail loudly instead of flaking
    if ids.max() >= 1_000_000:
        raise ValueError(
            "the flagship's ts = (doc_id*9973) % 1e6 axis requires "
            f"doc_id < 1_000_000; got max {ids.max()}"
        )
    t = t.append_column("ts", pa.array((ids * 9973) % 1_000_000, type=pa.int64()))
    # named by its smallest doc_id (a key), so the shard names are deterministic
    pq.write_table(t, os.path.join(tokens_dir, f"tokens-{ids.min():06d}.parquet"))


def write_doc_tokens(docs: list[str], tokens_dir: str) -> None:
    """documents shards (doc_id, text, source) -> the flagship's tokens
    shards (doc_id, tokens, n_tok, source, ts) in ``tokens_dir``, one
    ``shard_map`` task per documents shard or row group: ``tokenize_batch``
    plus the deterministic synthetic time axis ts = (doc_id * 9973) %
    1_000_000 (injective: 9973 is prime and coprime to 1e6, for doc_id <
    1e6 — a larger doc_id raises ``ValueError``)."""
    os.makedirs(tokens_dir, exist_ok=True)
    shard_map(docs, partial(_doc_tokens, tokens_dir=tokens_dir),
              columns=["doc_id", "text", "source"])


def _doc_scores(docs: pa.Table) -> pa.Table:
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = ids % 97 == 0
    ids = ids[keep]
    return pa.table({
        "source": docs["source"].filter(pa.array(keep)),
        "ts": pa.array((ids * 9973 + 500_000) % 1_000_000, type=pa.int64()),
        "score": pa.array((ids % 1000) * 0.5, type=pa.float64()),
    })


def _source_partials(feats: pa.Table) -> pd.DataFrame:
    """One row per source of one written partition; max(session_seq) folds
    with max, counts/sums with sum."""
    return feats.to_pandas().groupby("source", as_index=False).agg(
        n_rows=("ts", "size"),
        max_seq=("session_seq", "max"),
        n_asof=("score_asof", "count"),
        sum_score_asof=("score_asof", "sum"),
    )


def flagship_session_summary(sf_dir: str) -> pd.DataFrame:
    """Run the REAL flagship engine (``write_doc_tokens`` ->
    ``run_flagship_exchange``: TokenWindowStats -> entity-bucket exchange ->
    sort/sessionize/lag -> backward as-of join -> LOCF -> partition sink and
    manifest) end-to-end over the documents table, then reduce the written
    partitions to a per-source summary whose every field is
    ANSI-SQL-expressible — so the driver's DuckDB hash gate covers the
    flagship itself, not just its pieces.

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
    docs = shard_list(sf_dir, "documents")
    with tempfile.TemporaryDirectory(prefix="flagship-summary-") as tmp:
        write_doc_tokens(docs, f"{tmp}/tokens")
        scores = shard_map(docs, _doc_scores, columns=["doc_id", "source"],
                           collect="flagship_session_summary scores")
        pq.write_table(scores, f"{tmp}/scores.parquet")
        out_dir = f"{tmp}/features"
        written = run_flagship_exchange(
            f"{tmp}/tokens", f"{tmp}/scores.parquet", out_dir=out_dir,
            entity="source", ts="ts", session_gap=50_000.0, tolerance=None,
        )
        parts = shard_map(
            [partition_path(out_dir, b) for b in written["partition_id"]],
            _source_partials, columns=["source", "ts", "session_seq", "score_asof"],
            collect="flagship_session_summary",
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
