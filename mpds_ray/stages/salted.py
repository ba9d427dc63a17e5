"""Carry kernels of the flagship's chunk scan (SURVEY §4.2, north-star skew
handling).

The reference's scans assume one (id, ht)-sorted frame per process
(mimicUsefulFunction.R:293), so its worst entity is its wall clock. The
flagship exchange (pipelines/flagship.py) cuts a bucket's sorted rows into
chunks: a bounded-memory reduce streams them through one task, and a hot
entity's rows are range-salted into S contiguous ts ranges scanned in
parallel. Either way each chunk runs ``process_bucket`` on its own, and only
the O(1)-wide scan state of the entity straddling a chunk boundary needs
fixing:

- ``chunk_carry_info`` summarizes a chunk's boundary state;
- ``fold_carry`` threads it across consecutive chunks (session offsets,
  lag, cummax, LOCF and the exact sequential cum-area of ``twmean``);
- ``flagship_apply_carry`` applies a carry-in to the next chunk's prefix.

They read the Arrow feature tables ``process_bucket`` returns as NumPy
columns and replace the columns they fix, writing a float NaN as a null as
``process_bucket`` does.

Every fix replicates the unsalted kernel's floating-point expression ORDER,
so chunked and salted output is byte-identical to the one-chunk scan
(tests/test_chunked.py, tests/test_salted.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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


def _f64(tbl: pa.Table, name: str) -> np.ndarray:
    """A writable float64 copy of one column (a null reads as NaN)."""
    return tbl[name].to_numpy().astype(np.float64)


def chunk_carry_info(
    tbl: pa.Table | None,
    ts_col: str,
    stat_col: str,
    score_col: str = "score_asof",
    session_col: str = "session_seq",
) -> dict | None:
    """Compact per-chunk summary the driver-side carry fold consumes: a few
    scalars plus the chunk's trapezoid-area array (needed because the exact
    sequential cum-area chain is not expressible from a per-chunk scalar —
    floating addition is non-associative). O(chunk) once, computed inside the
    phase-1 task so no task ever refetches the features table."""
    if tbl is None or not tbl.num_rows:
        return None
    t = _f64(tbl, ts_col)
    s = _f64(tbl, stat_col)
    sa = _f64(tbl, score_col)
    nn = np.flatnonzero(~np.isnan(sa))
    return {
        "first_ts": float(t[0]),
        "last_ts": float(t[-1]),
        "first_s": float(s[0]),
        "last_s": float(s[-1]),
        "sess_local_end": int(tbl[session_col][-1].as_py()),
        "local_max": float(np.fmax.reduce(s)),
        "areas": trapezoid_area(s[1:], s[:-1], t[1:], t[:-1]),
        "locf_val": float(sa[nn[-1]]) if nn.size else np.nan,
        "locf_ts": float(t[nn[-1]]) if nn.size else np.nan,
        "n": int(tbl.num_rows),
    }


def fold_carry(carry: dict | None, info: dict | None, gap: float) -> dict | None:
    """Driver-side sequential fold: carry-out after a chunk given carry-in
    and the chunk's summary. The cum-area replay uses the exact sequential
    np.cumsum chain the per-entity scan performs, so downstream twmean fixes
    are bit-identical. O(chunk) on the areas array, microseconds per chunk."""
    if info is None:
        return carry
    if carry is None:
        start_area, bridge, offset = 0.0, 0.0, 0
        t0, s0 = info["first_ts"], info["first_s"]
        prev_cummax = np.nan
        locf_val, locf_ts = np.nan, np.nan
    else:
        merge = (info["first_ts"] - carry["last_ts"]) <= gap
        offset = carry["sess_end"] + (0 if merge else 1)
        start_area = carry["cum_area_end"]
        bridge = float(
            trapezoid_area(info["first_s"], carry["last_s"], info["first_ts"], carry["last_ts"])
        )
        t0, s0 = carry["t0"], carry["s0"]
        prev_cummax = carry["cummax"]
        locf_val, locf_ts = carry["locf_val"], carry["locf_ts"]
    cum_end = float(np.cumsum(np.r_[start_area, bridge, info["areas"]])[-1])
    if not np.isnan(info["locf_val"]):
        locf_val, locf_ts = info["locf_val"], info["locf_ts"]
    return {
        "last_ts": info["last_ts"],
        "last_s": info["last_s"],
        "sess_end": offset + info["sess_local_end"],
        "cummax": float(np.fmax(prev_cummax, info["local_max"])),
        "cum_area_end": cum_end,
        "t0": t0,
        "s0": s0,
        "locf_val": locf_val,
        "locf_ts": locf_ts,
    }


def flagship_apply_carry(
    tbl: pa.Table | None,
    carry: dict | None,
    next_first_ts: float | None,
    ts_col: str,
    stat_col: str,
    gap: float,
    score_col: str = "score_asof",
) -> pa.Table | None:
    """Apply the carry-in to one chunk's locally-computed flagship features
    (columns produced by ``pipelines.flagship.process_bucket``). Vectorized,
    O(chunk); replaces only the columns whose scan state crosses the chunk
    boundary."""
    if tbl is None or not tbl.num_rows:
        return tbl
    t = _f64(tbl, ts_col)
    s = _f64(tbl, stat_col)
    cols: dict[str, np.ndarray] = {}
    if carry is not None:
        merge = (t[0] - carry["last_ts"]) <= gap
        offset = carry["sess_end"] + (0 if merge else 1)
        cols["session_seq"] = tbl["session_seq"].to_numpy() + offset
        ssp = _f64(tbl, "secs_since_prev")
        ssp[0] = t[0] - carry["last_ts"]
        cols["secs_since_prev"] = ssp
        # cummax: NaN rows stay NaN (pandas cummax semantics); fmax ignores a
        # NaN carry (all-NaN history)
        loc = _f64(tbl, "run_cummax")
        cols["run_cummax"] = np.where(np.isnan(loc), loc, np.fmax(loc, carry["cummax"]))
        # twmean: replay the exact sequential cum-area chain from the carry
        bridge = trapezoid_area(s[0], carry["last_s"], t[0], carry["last_ts"])
        a = trapezoid_area(s[1:], s[:-1], t[1:], t[:-1])
        cum = np.cumsum(np.r_[carry["cum_area_end"], bridge, a])[1:]
        span = t - carry["t0"]
        cols["run_twmean"] = np.where(span > 0, cum / np.where(span > 0, span, 1.0), carry["s0"])
        # LOCF of the as-of score: fill the leading no-sample prefix
        sa = _f64(tbl, score_col)
        nn = np.flatnonzero(~np.isnan(sa))
        upto = int(nn[0]) if nn.size else tbl.num_rows
        if upto and not np.isnan(carry["locf_val"]):
            locf = _f64(tbl, "score_locf")
            tsl = _f64(tbl, "secs_since_score")
            locf[:upto] = carry["locf_val"]
            tsl[:upto] = t[:upto] - carry["locf_ts"]
            cols["score_locf"] = locf
            cols["secs_since_score"] = tsl
    if next_first_ts is not None:
        stn = _f64(tbl, "secs_to_next")
        stn[-1] = next_first_ts - t[-1]
        cols["secs_to_next"] = stn
    return with_columns(tbl, cols)
