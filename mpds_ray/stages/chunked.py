"""Chunk streams for the flagship exchange's one reduce protocol.

Every flagship task scans each of its partitions (a bucket, or a hot
entity's salted range) as a stream of (entity, ts) chunks, carrying
boundary state from chunk to chunk
(``pipelines.flagship.scan_chunks_with_carry``). Without ``chunk_rows`` the
stream is the concatenated partition as one chunk. With it, the stream is
bounded, for partitions far beyond one task's RAM:

- map side (stages/exchange.py ``sort_keys``/``chunk_rows``): each
  (shard, bucket) run is SORTED by the scan key. A run of at most
  ``chunk_rows`` rows rides in its map object's one table
  (``exchange.GroupSlices``); a longer one is left out of the table and cut
  into chunk-sized ``ray.put`` sub-objects that a reduce task fetches one
  at a time. Keeping short runs in the table adds no rows to a one-bucket
  task's peak (the merge holds each run's first sub-chunk from its start
  anyway); an object holds several buckets' runs only when
  ``task_groups``' byte rule groups them;
- reduce side (``sorted_run_merge``): the runs of a partition that fits in
  ``target_rows`` rows (each run one sub-chunk, told by its length hint)
  are one chunk, concatenated and sorted once. A larger partition is a
  k-way merge cut by row counts: each round takes every run's rows up to a
  cut key ~``budget / runs`` rows ahead, and rounds add up until a chunk
  holds about ``target_rows`` rows, so runs near their end yield no
  slivers. Runs are fetched one sub-chunk at a time as the merge advances.

Merge guarantee (byte-identity with the one-chunk stream): that stream
concats parts in SHARD order and ``process_bucket`` runs ONE stable
(entity, ts) sort, so ties keep (shard, within-shard) order. Here each
run is pre-sorted stably per shard, a round takes its slices in shard
order, every tie group <= the cut key is taken in full (across a run's own
chunk boundary if needed), rounds take disjoint key ranges, and each chunk
gets one stable sort — the exact one-chunk row order, chunk by chunk
(property-tested in tests/test_chunked.py).

Scale note: this bounds reduce-task HEAP and object-store pinning by chunk
size. In-flight sub-chunk objects number bucket_bytes/chunk_bytes; at
extreme run counts a merge level (R runs in groups) composes with it.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import length_hint

import pyarrow as pa
import pyarrow.compute as pc


def _next_chunk(run: Iterator) -> pa.Table | None:
    """A run's next non-empty chunk, ``ray.get`` first if it is an ObjectRef
    (so a run of refs is fetched one sub-chunk at a time), or None."""
    import ray

    tables = (t if isinstance(t, pa.Table) else ray.get(t) for t in run)
    return next((t for t in tables if t.num_rows), None)


class _Run:
    """Cursor over one sorted run: its current chunk, then the rest of
    ``it``. Cut keys are compared in Arrow, never as object arrays."""

    def __init__(self, first: pa.Table, it: Iterator, entity: str, ts: str):
        self.it, self.entity, self.ts = it, entity, ts
        self.cur, self.pos = first, 0

    def _advance(self) -> None:
        self.cur, self.pos = _next_chunk(self.it), 0

    def cap_key(self, lookahead: int):
        """Key ``lookahead`` rows ahead of the cursor (clamped to chunk end)."""
        j = min(self.pos + lookahead, self.cur.num_rows) - 1
        return self.cur[self.entity][j].as_py(), self.cur[self.ts][j].as_py()

    def take_upto(self, key) -> list[pa.Table]:
        """Zero-copy slices of ALL remaining rows with sort key <= ``key``,
        crossing this run's own chunk boundaries so a tie group at ``key`` is
        never split (required for byte-identity with the flat sort)."""
        out = []
        while self.cur is not None:
            rest = self.cur.slice(self.pos)
            (e, t), (ke, kt) = (rest[self.entity], rest[self.ts]), key
            le = pc.or_(pc.less(e, ke), pc.and_(pc.equal(e, ke), pc.less_equal(t, kt)))
            k = pc.sum(le).as_py()  # the rows <= key: a prefix of rest, which is sorted
            if k:
                out.append(rest.slice(0, k))
                self.pos += k
            if self.pos < self.cur.num_rows:
                break  # next row exceeds key — tie group fully consumed
            self._advance()  # chunk exhausted: peek into the next chunk
        return out


def sorted_run_merge(
    runs: list[Iterator],
    entity: str,
    ts: str,
    target_rows: int,
    stats: dict | None = None,
) -> Iterator[pa.Table]:
    """Merge sorted runs into a stream of bounded, (entity, ts)-sorted Arrow
    chunks. ``runs`` must be in SHARD order (tie order contract above); each
    iterates tables or their ObjectRefs. When every run's length hint says
    its first chunk is its last and those hold at most ``target_rows`` rows
    in all, they are one chunk, with no cursor and no cut. Otherwise each
    chunk but the last holds from 3/4 of ``target_rows`` to about
    ``target_rows`` rows (+ per-run tie spill). Pass a ``stats`` dict to
    record ``max_chunk_rows`` and ``n_chunks`` (test instrumentation)."""
    its = [iter(r) for r in runs]
    firsts = [_next_chunk(it) for it in its]
    held = [t for t in firsts if t is not None]
    rows, cursors = sum(t.num_rows for t in held), []
    if rows > target_rows or any(length_hint(it, 1) for it in its):  # not one chunk
        cursors = [_Run(t, it, entity, ts) for t, it in zip(firsts, its) if t is not None]
        held, rows = [], 0
    while cursors := [c for c in cursors if c.cur is not None]:
        lookahead = max(1, (target_rows - rows) // len(cursors))
        cut = min(c.cap_key(lookahead) for c in cursors)
        for c in cursors:  # shard order — tie contract
            held += c.take_upto(cut)
        rows = sum(t.num_rows for t in held)
        if 4 * rows >= 3 * target_rows:
            yield _sorted(held, entity, ts, stats)
            held, rows = [], 0
    if held:
        yield _sorted(held, entity, ts, stats)


def _sorted(slices: list[pa.Table], entity: str, ts: str, stats: dict | None) -> pa.Table:
    """One chunk: ``slices`` concatenated in order and given one stable
    (entity, ts) sort, so ties keep concat (= shard, within-shard) order."""
    merged = pa.concat_tables(slices) if len(slices) != 1 else slices[0]
    merged = merged.take(
        pc.sort_indices(merged, sort_keys=[(entity, "ascending"), (ts, "ascending")])
    )
    if stats is not None:
        stats["max_chunk_rows"] = max(stats.get("max_chunk_rows", 0), merged.num_rows)
        stats["n_chunks"] = stats.get("n_chunks", 0) + 1
    return merged


def split_chunks(table: pa.Table, chunk_rows: int) -> list[pa.Table]:
    """Cut a sorted slice into contiguous chunks of <= chunk_rows (none for
    an empty slice, so a run's chunk count says whether it has rows)."""
    return [table.slice(i, chunk_rows) for i in range(0, table.num_rows, chunk_rows)]
