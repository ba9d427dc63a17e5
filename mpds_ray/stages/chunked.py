"""Chunk streams for the flagship exchange's one reduce protocol.

Every flagship task scans each of its partitions (a bucket, or a hot
entity's salted range) as a stream of (entity, ts) chunks, carrying
boundary state from chunk to chunk
(``pipelines.flagship.scan_chunks_with_carry``). Without ``chunk_rows`` the
stream is the concatenated partition as one chunk. With it, the stream is
bounded, for partitions far beyond one task's RAM:

- map side (stages/exchange.py ``sort_keys``/``chunk_rows``): each per-bucket
  slice is SORTED by the scan key and cut into chunk-sized sub-objects
  (``ray.put`` per sub-chunk), so a reduce task can fetch runs incrementally
  instead of pinning the whole bucket;
- reduce side (``sorted_run_merge``): a k-way merge of the sorted runs that
  yields bounded, fully-sorted Arrow chunks. Only ~``target_rows`` rows (plus
  the per-run lookahead) are ever materialized on the task heap; consumed
  chunk objects are released as the iterators advance.

Merge guarantee (byte-identity with the one-chunk stream): that stream
concats parts in SHARD order and ``process_bucket`` runs ONE stable
(entity, ts) sort, so ties keep (shard, within-shard) order. Here each
run is pre-sorted stably per shard, slices are taken in shard order, every
tie group <= the cut key K is consumed in full (across a run's own chunk
boundary if needed), and each merged chunk gets one stable sort —
reproducing the exact one-chunk row order, chunk by chunk (property-tested
in tests/test_chunked.py).

Scale note: this bounds reduce-task HEAP and object-store pinning by chunk
size. The number of in-flight sub-chunk objects is bucket_bytes/chunk_bytes;
at extreme run counts a real deployment adds a merge level (merge R runs in
groups), which composes with this same primitive.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class _Run:
    """Cursor over one sorted run: a sequence of contiguous pa.Table chunks."""

    def __init__(self, chunk_iter: Iterator[pa.Table], entity: str, ts: str):
        self.it = iter(chunk_iter)
        self.entity = entity
        self.ts = ts
        self.cur: pa.Table | None = None
        self.ent: np.ndarray | None = None
        self.tsv: np.ndarray | None = None
        self.pos = 0
        self.n = 0
        self._advance()

    def _advance(self) -> None:
        self.cur, self.pos, self.n = None, 0, 0
        for t in self.it:
            if t.num_rows:
                self.cur = t
                self.ent = t[self.entity].to_numpy(zero_copy_only=False)
                self.tsv = t[self.ts].to_numpy(zero_copy_only=False).astype(np.float64)
                self.n = t.num_rows
                return

    @property
    def active(self) -> bool:
        return self.cur is not None

    def cap_key(self, lookahead: int):
        """Key ``lookahead`` rows ahead of the cursor (clamped to chunk end)."""
        j = min(self.pos + lookahead, self.n) - 1
        return (self.ent[j], self.tsv[j])

    def take_upto(self, key) -> list[pa.Table]:
        """Zero-copy slices of ALL remaining rows with sort key <= ``key``,
        crossing this run's own chunk boundaries so a tie group at ``key`` is
        never split (required for byte-identity with the flat sort)."""
        out = []
        while self.active:
            ke, kt = key
            lo = np.searchsorted(self.ent, ke, side="left")
            hi = np.searchsorted(self.ent, ke, side="right")
            upper = lo + int(np.searchsorted(self.tsv[lo:hi], kt, side="right"))
            upper = max(upper, self.pos)
            if upper > self.pos:
                out.append(self.cur.slice(self.pos, upper - self.pos))
                self.pos = upper
            if self.pos < self.n:
                break  # next row exceeds key — tie group fully consumed
            self._advance()  # chunk exhausted: peek into the next chunk
        return out


def sorted_run_merge(
    runs: list[Iterator[pa.Table]],
    entity: str,
    ts: str,
    target_rows: int,
    stats: dict | None = None,
) -> Iterator[pa.Table]:
    """Merge sorted runs into a stream of bounded, (entity, ts)-sorted Arrow
    chunks. ``runs`` must be in SHARD order (tie order contract above). Each
    yielded chunk holds ~``target_rows`` rows (+ per-run tie spill). Pass a
    ``stats`` dict to record ``max_chunk_rows`` (test instrumentation)."""
    cursors = [_Run(r, entity, ts) for r in runs]
    while True:
        active = [c for c in cursors if c.active]
        if not active:
            return
        lookahead = max(1, target_rows // len(active))
        cut = min(c.cap_key(lookahead) for c in active)
        slices = []
        for c in cursors:  # shard order, not `active` order — tie contract
            if c.active:
                slices.extend(c.take_upto(cut))
        merged = pa.concat_tables(slices) if len(slices) != 1 else slices[0]
        # stable: ties keep concat (= shard, within-shard) order
        merged = merged.take(
            pc.sort_indices(merged, sort_keys=[(entity, "ascending"), (ts, "ascending")])
        )
        if stats is not None:
            stats["max_chunk_rows"] = max(stats.get("max_chunk_rows", 0), merged.num_rows)
            stats["n_chunks"] = stats.get("n_chunks", 0) + 1
        yield merged


def ray_run_iter(part) -> Iterator[pa.Table]:
    """Adapt one map task's per-bucket output to a chunk iterator: a list of
    sub-chunk ObjectRefs is fetched LAZILY (one ``ray.get`` per chunk as the
    merge advances — never the whole run at once); a plain table yields
    itself."""
    import ray

    if isinstance(part, list):
        for r in part:
            yield ray.get(r)
    elif part.num_rows:
        yield part


def split_chunks(table: pa.Table, chunk_rows: int) -> list[pa.Table]:
    """Cut a sorted slice into contiguous chunks of <= chunk_rows (none for
    an empty slice, so a run's chunk count says whether it has rows)."""
    return [table.slice(i, chunk_rows) for i in range(0, table.num_rows, chunk_rows)]
