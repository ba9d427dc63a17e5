"""Carry kernels of the flagship's one stitch (SURVEY §4.2, north-star skew
handling).

The reference's scans assume one (id, ht)-sorted frame per process
(mimicUsefulFunction.R:293), so its worst entity is its wall clock. The
flagship exchange (pipelines/flagship.py) cuts the sorted rows into pieces:
a bounded-memory reduce streams a bucket (or a salted range) as chunks
through one task, and a hot entity's rows are range-salted into S
contiguous ts ranges scanned in parallel. Each piece runs
``process_bucket`` on its own, and only the O(1)-wide scan state of the
entity straddling a cut needs fixing. Both cuts are stitched by the same
loop over three kernels (``pipelines.flagship.scan_chunks_with_carry``
within a task, the salted driver across ranges):

- ``chunk_carry_info`` summarizes a piece: its first and last entity, and
  the scan state its own scan left for its last entity;
- ``fold_carry`` threads the summaries across consecutive pieces (session
  offsets, lag, cummax, LOCF and the exact sequential cum-area of
  ``twmean``);
- ``flagship_apply_carry`` applies a carry-in to the rows of a piece's
  first entity, and the next piece's first ts to its last row.

They read the Arrow feature tables ``process_bucket`` returns as NumPy
columns and replace the rows they fix, writing a float NaN as a null as
``process_bucket`` does.

Every fix replicates the one-chunk scan's floating-point expression order
and tie rules, so chunked and salted output is byte-identical to it, float
bits included (tests/test_chunked.py, tests/test_salted.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .scans import trapezoid_area


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


def chunk_carry_info(feats: pa.Table | None, entity: str, ts: str, stat: str) -> dict | None:
    """A piece's boundary summary for ``fold_carry``: its first and last
    entity, its first row's ts, and the scan state of its last entity's run
    as the piece's own (pre-fix) scan left it — session ordinal, cummax (the
    run's last non-NaN one), first non-NaN ts and stat, LOCF — plus that
    run's trapezoid areas, since the exact sequential cum-area chain cannot
    be summed ahead (float addition is not associative)."""
    if feats is None or not feats.num_rows:
        return None
    ids = feats[entity]
    last_e = ids[-1].as_py()
    run = feats.slice(feats.num_rows - _run_len(ids, last_e))
    t, s = _f64(run[ts]), _f64(run[stat])
    cummax, sa = _f64(run["run_cummax"]), _f64(run["score_asof"])
    nn = np.flatnonzero(~np.isnan(sa))
    return {
        "first_e": ids[0].as_py(),
        "last_e": last_e,
        "first_ts": float(feats[ts][0].as_py()),
        "first_s": float(s[0]),
        "last_ts": float(t[-1]),
        "last_s": float(s[-1]),
        "sess_end": int(run["session_seq"][-1].as_py()),
        "cummax": _first_valid(cummax[::-1]),
        "t0": _first_valid(t),
        "s0": _first_valid(s),
        "areas": trapezoid_area(s[1:], s[:-1], t[1:], t[:-1]),
        "locf_val": float(sa[nn[-1]]) if nn.size else np.nan,
        "locf_ts": float(t[nn[-1]]) if nn.size else np.nan,
    }


def _cummax_after(carried, later):
    """The scan's running max past ``carried``: ``later`` wins only when
    greater, so of equal maxima (-0.0 and 0.0) the earlier stays; a NaN
    ``carried`` (no stat yet) yields ``later``."""
    return np.where((later > carried) | np.isnan(carried), later, carried)


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
    start = bridge = 0.0
    if carry is not None and carry["e"] == info["first_e"] == info["last_e"]:
        merge = (info["first_ts"] - carry["last_ts"]) <= gap
        out["sess_end"] += carry["sess_end"] + (0 if merge else 1)
        out["cummax"] = float(_cummax_after(carry["cummax"], info["cummax"]))
        out["t0"], out["s0"] = carry["t0"], carry["s0"]
        if np.isnan(info["locf_val"]):
            out["locf_val"], out["locf_ts"] = carry["locf_val"], carry["locf_ts"]
        start = carry["cum_area_end"]
        bridge = trapezoid_area(info["first_s"], carry["last_s"], info["first_ts"],
                                carry["last_ts"])
    out["cum_area_end"] = float(np.cumsum(np.r_[start, bridge, info["areas"]])[-1])
    return out


def _patched(col, lo: int, values: np.ndarray) -> pa.ChunkedArray:
    """``col`` with its rows from ``lo`` on replaced by ``values``, a float
    NaN written as a null; the other rows stay zero-copy."""
    return pa.chunked_array(
        col.slice(0, lo).chunks + [nan_to_null(values)] + col.slice(lo + len(values)).chunks,
        type=col.type,
    )


def flagship_apply_carry(
    tbl: pa.Table | None,
    carry: dict | None,
    next_info: dict | None,
    entity: str,
    ts: str,
    stat: str,
    gap: float,
) -> pa.Table | None:
    """A piece's scan output (``pipelines.flagship.process_bucket``) with the
    carry in applied to the rows of its first entity, when that is the
    carried one, and its last row's ``secs_to_next`` pointed at the next
    piece, when ``next_info`` continues its last entity. Only those rows of
    the columns whose scan state crosses the cut are rewritten; with neither
    it returns ``tbl`` itself."""
    if tbl is None or not tbl.num_rows:
        return tbl
    ids = tbl[entity]
    cols: dict[str, pa.ChunkedArray] = {}
    if carry is not None and ids[0].as_py() == carry["e"]:
        n = _run_len(ids, carry["e"])

        def head(name: str) -> np.ndarray:
            return _f64(tbl[name].slice(0, n))

        t, s = head(ts), head(stat)
        merge = (t[0] - carry["last_ts"]) <= gap
        sess = tbl["session_seq"].slice(0, n).to_numpy() + carry["sess_end"] + (0 if merge else 1)
        ssp = head("secs_since_prev")
        ssp[0] = t[0] - carry["last_ts"]
        # cummax: NaN rows stay NaN (pandas cummax semantics)
        loc = head("run_cummax")
        cummax = np.where(np.isnan(loc), loc, _cummax_after(carry["cummax"], loc))
        # twmean: replay the exact sequential cum-area chain from the carry
        bridge = trapezoid_area(s[0], carry["last_s"], t[0], carry["last_ts"])
        a = trapezoid_area(s[1:], s[:-1], t[1:], t[:-1])
        cum = np.cumsum(np.r_[carry["cum_area_end"], bridge, a])[1:]
        span = t - carry["t0"]
        twmean = np.where(span > 0, cum / np.where(span > 0, span, 1.0), carry["s0"])
        fixed = {"session_seq": sess, "secs_since_prev": ssp, "run_cummax": cummax,
                 "run_twmean": twmean}
        # LOCF of the as-of score: fill the leading no-sample rows
        nn = np.flatnonzero(~np.isnan(head("score_asof")))
        upto = int(nn[0]) if nn.size else n
        if upto and not np.isnan(carry["locf_val"]):
            locf, tsl = head("score_locf"), head("secs_since_score")
            locf[:upto] = carry["locf_val"]
            tsl[:upto] = t[:upto] - carry["locf_ts"]
            fixed.update(score_locf=locf, secs_since_score=tsl)
        cols = {name: _patched(tbl[name], 0, v) for name, v in fixed.items()}
    if next_info is not None and next_info["first_e"] == ids[-1].as_py():
        gap_to_next = next_info["first_ts"] - float(tbl[ts][-1].as_py())
        cols["secs_to_next"] = _patched(tbl["secs_to_next"], tbl.num_rows - 1,
                                        np.array([gap_to_next], dtype=np.float64))
    for name, col in cols.items():
        tbl = tbl.set_column(tbl.schema.get_field_index(name), name, col)
    return tbl
