"""The flagship's carried scan state (SURVEY §2.4, §4.2). The flagship
exchange (pipelines/flagship.py) cuts an entity's sorted rows into pieces:
a bounded-memory reduce streams a bucket (or a salted range) as chunks
through one task, and a hot entity's rows are range-salted into S
contiguous ts ranges scanned in parallel. The scans whose state crosses a
cut (session ordinal, lag/lead, cummax and twmean, LOCF) compose through
their O(1)-wide state as prefix scans do (Blelloch, *Prefix Sums and Their
Applications*, 1990):

- up-sweep: ``chunk_carry_info`` summarizes a piece: its head
  (``piece_head``), its last entity and that entity's scan state;
- exclusive scan: ``fold_carry`` threads the summaries into each piece's
  carry-in (``range_carries`` on the salted driver);
- down-sweep: ``state_scans`` runs those scans over a piece from its
  carry-in and with the next piece's head. ``process_bucket`` runs it for
  every piece, so a chunk is scanned from its carry; ``flagship_apply_carry``
  reruns it over a salted range's phase-1 output, with no sort and no as-of
  search.

Each feature's arithmetic lives in its scan (stages/scans.py,
stages/sessionize.py), so chunked and salted output is byte-identical to
one scan, float bits included (tests/test_chunked.py, tests/test_salted.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import run_bounds
from .scans import locf_with_expiration, run_cummax, run_twmean, time_since_to_event, trapezoid_area
from .sessionize import sessionize_gap


def nan_to_null(values: np.ndarray) -> pa.Array:
    """An Arrow column of ``values`` with every float NaN as a null."""
    return pa.array(values, from_pandas=True)


def with_columns(tbl: pa.Table, cols: dict[str, np.ndarray]) -> pa.Table:
    """``tbl`` with the named columns replaced at their positions, each
    through ``nan_to_null``."""
    for name, values in cols.items():
        tbl = tbl.set_column(tbl.schema.get_field_index(name), name, nan_to_null(values))
    return tbl


def _f64(col) -> np.ndarray:
    """A writable float64 copy of one column (a null reads as NaN)."""
    return col.to_numpy().astype(np.float64)


def _run_len(ids, value) -> int:
    """Rows of ``value`` in the entity-sorted column ``ids``: the length of
    its one run."""
    return pc.sum(pc.equal(ids, value)).as_py()


def _first_valid(x: np.ndarray) -> float:
    nn = np.flatnonzero(~np.isnan(x))
    return float(x[nn[0]]) if nn.size else np.nan


def piece_head(tbl: pa.Table, entity: str, ts: str, stat: str) -> dict:
    """The head of an (entity, ts)-sorted piece, for the scan of the piece
    before it: its first entity and ts, and that entity's first non-NaN
    stat in the piece (NaN if none)."""
    ids = tbl[entity]
    e = ids[0].as_py()
    return {"e": e, "ts": float(tbl[ts][0].as_py()),
            "s0": _first_valid(_f64(tbl[stat].slice(0, _run_len(ids, e))))}


def at_cut(ent, carry: dict | None, head: dict | None) -> tuple:
    """``carry`` and ``head``, each kept only when it continues the piece's
    first or last entity (``ent`` is its sorted entity column)."""
    return (carry if carry is not None and ent[0].as_py() == carry["e"] else None,
            head if head is not None and ent[-1].as_py() == head["e"] else None)


def state_scans(ids, t, stat, score, gap: float, carry: dict | None = None,
                head: dict | None = None) -> dict[str, np.ndarray]:
    """The flagship features whose scan state crosses a cut, over one
    piece's (entity, ts)-sorted rows (integer entity codes ``ids``, ``t``,
    the first stat or None, the as-of ``score``). ``carry`` (``fold_carry``)
    is the state of the first entity before the piece and ``head``
    (``piece_head``) the next piece's first row, each given only when it
    continues the piece's first or last entity (``at_cut``). Every scan sees
    the carried last row in front of the piece and the head behind it, so
    it runs on as one scan over both pieces does; with neither it is the
    piece's own scan."""
    pre = [] if carry is None else [carry]
    post = [] if head is None else [head]

    def framed(x, front, back="ts"):  # the carry's value, x, the head's (None: NaN)
        return np.concatenate([[c[front] for c in pre], x,
                               [np.nan if back is None else h[back] for h in post]])

    fid = np.concatenate([ids[:len(pre)], ids, ids[len(ids) - len(post):]])
    ft = framed(t, "last_ts")
    own = slice(len(pre), len(pre) + len(t))
    sid = sessionize_gap(fid, ft, gap)
    starts, lens = run_bounds(fid)
    first = sid[starts]
    for c in pre:  # the carried row holds its entity's last session ordinal
        first[0] -= c["sess_end"]
    # lag/lead over rows (every row is an "event" -> inter-arrival features)
    lags = time_since_to_event(fid, ft, np.ones(ft.size, dtype=np.int64))
    lf = locf_with_expiration(fid, framed(t, "locf_ts"), framed(score, "locf_val", None), np.inf)
    feats = {
        "session_seq": (sid - np.repeat(first, lens))[own],
        "secs_since_prev": lags["time_since_last_event"][own],
        "secs_to_next": lags["time_to_next_event"][own],
        "score_locf": lf["locf"][own],
        "secs_since_score": lf["time_since_last_sample"][own],
    }
    if stat is not None:
        feats.update(run_cummax=run_cummax(fid, framed(stat, "cummax", "s0"))[own],
                     run_twmean=run_twmean(fid, ft, framed(stat, "last_s", "s0"), carry)[own])
    return feats


def chunk_carry_info(feats: pa.Table | None, entity: str, ts: str, stat: str) -> dict | None:
    """A piece's boundary summary for ``fold_carry``: its head, its last
    entity, and the state of that entity's run in the piece's own rows —
    session count, cummax (the run's last non-NaN one; a carried one is
    already folded), first non-NaN ts and stat, LOCF — plus that run's
    trapezoid areas, since the exact sequential cum-area chain cannot be
    summed ahead (float addition is not associative)."""
    if feats is None or not feats.num_rows:
        return None
    ids = feats[entity]
    last_e = ids[-1].as_py()
    run = feats.slice(feats.num_rows - _run_len(ids, last_e))
    t, s = _f64(run[ts]), _f64(run[stat])
    cummax, sa = _f64(run["run_cummax"]), _f64(run["score_asof"])
    seq = run["session_seq"]
    nn = np.flatnonzero(~np.isnan(sa))
    return {
        "head": piece_head(feats, entity, ts, stat),
        "last_e": last_e,
        "first_s": float(s[0]),
        "last_ts": float(t[-1]),
        "last_s": float(s[-1]),
        "sess_end": seq[-1].as_py() - seq[0].as_py(),
        "cummax": _first_valid(cummax[::-1]),
        "t0": _first_valid(t),
        "s0": _first_valid(s),
        "areas": trapezoid_area(s[1:], s[:-1], t[1:], t[:-1]),
        "locf_val": float(sa[nn[-1]]) if nn.size else np.nan,
        "locf_ts": float(t[nn[-1]]) if nn.size else np.nan,
    }


def fold_carry(carry: dict | None, info: dict | None, gap: float) -> dict | None:
    """The carry out of a piece, given the carry into it and its summary. It
    chains only when the piece is one entity and that entity is the carried
    one; otherwise it starts from the piece's last run. The cum-area end
    replays the scan's sequential chain, so the twmean it feeds is
    bit-identical. An empty piece (no summary) passes the carry through."""
    if info is None:
        return carry
    out = {k: info[k] for k in ("last_ts", "last_s", "sess_end", "cummax", "t0", "s0",
                                "locf_val", "locf_ts")}
    out["e"] = info["last_e"]
    first_e, first_ts = info["head"]["e"], info["head"]["ts"]
    start = bridge = 0.0
    if carry is not None and carry["e"] == first_e == info["last_e"]:
        merge = (first_ts - carry["last_ts"]) <= gap
        out["sess_end"] += carry["sess_end"] + (0 if merge else 1)
        # a later max wins only when greater (of -0.0 and 0.0 the earlier stays)
        c, m = carry["cummax"], info["cummax"]
        out["cummax"] = m if m > c or np.isnan(c) else c
        for k in ("t0", "s0"):  # the entity's first non-NaN ts and stat
            if not np.isnan(carry[k]):
                out[k] = carry[k]
        if np.isnan(info["locf_val"]):
            out["locf_val"], out["locf_ts"] = carry["locf_val"], carry["locf_ts"]
        start = carry["cum_area_end"]
        bridge = trapezoid_area(info["first_s"], carry["last_s"], first_ts, carry["last_ts"])
    out["cum_area_end"] = float(np.cumsum(np.r_[start, bridge, info["areas"]])[-1])
    return out


def range_carries(infos: list, gap: float) -> tuple[list, list]:
    """The salted driver's stitch of consecutive pieces from their
    summaries (None for an empty piece): each piece's carry-in, folded over
    the pieces before it, and its head, the next non-empty piece's, whose
    first stat reaches on past one-entity pieces of that entity without one."""
    carries = [None]
    for info in infos[:-1]:
        carries.append(fold_carry(carries[-1], info, gap))
    heads, nxt = [], None
    for info in reversed(infos):
        heads.append(nxt)
        if info is not None:
            h = info["head"]
            if nxt is not None and np.isnan(h["s0"]) and info["last_e"] == h["e"] == nxt["e"]:
                h = {**h, "s0": nxt["s0"]}
            nxt = h
    return carries, heads[::-1]


def flagship_apply_carry(tbl: pa.Table | None, carry: dict | None, head: dict | None,
                         entity: str, ts: str, stat: str, gap: float) -> pa.Table | None:
    """A piece's scan output (``pipelines.flagship.process_bucket``, scanned
    alone) rescanned from its carry-in and with the next piece's head:
    ``state_scans`` reruns over its ts, first stat and ``score_asof``
    columns, and its columns replace the piece's own. No sort and no as-of
    search run again."""
    if tbl is None or not tbl.num_rows:
        return tbl
    ids = tbl[entity].combine_chunks().dictionary_encode().indices.to_numpy()
    return with_columns(tbl, state_scans(
        ids, _f64(tbl[ts]), _f64(tbl[stat]), _f64(tbl["score_asof"]), gap,
        *at_cut(tbl[entity], carry, head),
    ))
