"""Per-row windowed statistics over a ``tokens: list<int32>`` column.

The engine treats each row's token array as one window (SURVEY §7.0: tokens
play the role of sensor samples) and evaluates the reference stat block over
it. Unlike the per-session extractors (which loop windows), this stage is
**segment-vectorized**: one ``map_batches`` call computes every stat for every
row of an Arrow batch with NumPy ``reduceat``/``bincount``/``lexsort`` over
the flattened list column — no Python loop over rows in the hot path.

Conformance: ``tests/test_window_stats.py`` checks every column against the
per-row kernel library (mpds_ray.kernels), which is an independent
implementation of the same pinned semantics.

Heavy spectral/fractal stats (DFA, Lomb–Scargle dfc) are per-row O(n log n)+
kernels with no closed segmented form; they are opt-in (``heavy=True``) and
run batched over the rows of equal window length (kernels/batched.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import EPS
from ..kernels.batched import dfa_batch, lomb_batch
from .partition import run_bounds

CHEAP_STATS = (
    "mean", "std", "q1", "q3", "iqr", "median", "mode", "range",
    "s", "k", "mse", "En", "zcr", "meanTKEO", "ar1", "n",
)
HEAVY_STATS = ("dfa", "dfc", "dfc_amp")


def _segment_quantile(vs: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, p: float):
    """MATLAB prctile at probability p over each sorted segment of ``vs``."""
    pos = p / 100.0 * lengths - 0.5  # fractional rank in [ -0.5, L-0.5 ]
    pos = np.clip(pos, 0.0, np.maximum(lengths - 1, 0))
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, np.maximum(lengths - 1, 0))
    frac = pos - lo
    vlo = vs[offsets + lo]
    vhi = vs[offsets + hi]
    return vlo + frac * (vhi - vlo)


def token_stats_arrays(
    values: np.ndarray,
    offsets: np.ndarray,
    stats: tuple[str, ...] = CHEAP_STATS,
    sample_rate: float = 50.0,
) -> dict[str, np.ndarray]:
    """Compute the stat block for every segment of a flattened list column.

    ``values``: flat float64 array; ``offsets``: int64 array of n+1 segment
    boundaries. Returns {stat -> float64[n]}. Segments of insufficient length
    yield the kernels' pinned degenerate values (0/NaN), not errors.
    """
    v = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.size - 1
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    empty = lengths == 0
    if empty.any():
        # rare path: evaluate on the non-empty subset, scatter back NaN-padded
        keep = ~empty
        sub_offsets = np.r_[0, np.cumsum(lengths[keep])]
        sub = token_stats_arrays(v, sub_offsets, stats, sample_rate)
        out_full: dict[str, np.ndarray] = {}
        for k, col in sub.items():
            full = np.full(n, np.nan)
            full[keep] = col
            out_full[k] = full
        return out_full
    # every segment has >= 1 element from here on
    safe_len = lengths.astype(np.float64)
    seg_of = np.repeat(np.arange(n), lengths)  # segment id per flat element

    out: dict[str, np.ndarray] = {}

    def segsum(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, starts)

    total = segsum(v)
    mean = total / safe_len
    mu_flat = np.repeat(np.where(np.isnan(mean), 0.0, mean), lengths)
    d = v - mu_flat
    m2s = segsum(d * d)
    m2 = m2s / safe_len  # population second central moment

    if "mean" in stats:
        out["mean"] = mean
    if "n" in stats:
        out["n"] = lengths.astype(np.float64)
    if "std" in stats:
        # sample std (ddof=1); single-element window -> 0.0 (kernel pin)
        with np.errstate(invalid="ignore", divide="ignore"):
            std = np.sqrt(m2s / np.maximum(lengths - 1, 1))
        out["std"] = np.where(lengths == 1, 0.0, std)
    if "mse" in stats:
        out["mse"] = segsum(v * v) / safe_len
    if "s" in stats or "k" in stats:
        with np.errstate(invalid="ignore", divide="ignore"):
            if "s" in stats:
                m3 = segsum(d**3) / safe_len
                out["s"] = np.where(m2 > 0, m3 / np.where(m2 > 0, m2, 1) ** 1.5, np.nan)
            if "k" in stats:
                m4 = segsum(d**4) / safe_len
                out["k"] = np.where(m2 > 0, m4 / np.where(m2 > 0, m2, 1) ** 2, np.nan)

    if "range" in stats:
        out["range"] = np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)

    need_sorted = {"q1", "q3", "iqr", "median", "mode", "En"} & set(stats)
    if need_sorted and v.size:
        # fast path for token-like values: one flat int64 sort of
        # (segment * V + value) replaces the 2-key lexsort + gather
        vmax_all = v.max()
        vmin_all = v.min()
        is_small_int = (
            vmin_all >= 0
            and vmax_all < (1 << 21)
            and np.all(v == np.floor(v))
        )
        if is_small_int:
            V = np.int64(vmax_all) + 1
            comp = np.sort(seg_of.astype(np.int64) * V + v.astype(np.int64))
            vs = (comp % V).astype(np.float64)
            seg_sorted = comp // V
        else:
            order = np.lexsort((v, seg_of))
            vs = v[order]
            seg_sorted = seg_of[order]
        if "q1" in stats or "iqr" in stats:
            q1 = _segment_quantile(vs, starts, lengths, 25.0)
        if "q3" in stats or "iqr" in stats:
            q3 = _segment_quantile(vs, starts, lengths, 75.0)
        if "q1" in stats:
            out["q1"] = q1
        if "q3" in stats:
            out["q3"] = q3
        if "iqr" in stats:
            out["iqr"] = q3 - q1
        if "median" in stats:
            out["median"] = _segment_quantile(vs, starts, lengths, 50.0)
        if "mode" in stats or "En" in stats:
            # value runs within sorted segments
            run_starts, run_counts = run_bounds(vs, seg_sorted)
            run_counts = run_counts.astype(np.float64)
            run_seg = seg_sorted[run_starts]
            run_val = vs[run_starts]
            # first run index and run count per segment (runs are
            # segment-sorted)
            first_idx, seg_runs = run_bounds(run_seg)
            if "mode" in stats:
                # per segment: FIRST (= smallest value) run with the max count,
                # fully vectorized: max count per segment via reduceat, then the
                # min run index among count==max runs via a masked reduceat
                maxc = np.maximum.reduceat(run_counts, first_idx)
                maxc_per_run = np.repeat(maxc, seg_runs)
                ridx = np.arange(run_seg.size, dtype=np.int64)
                masked = np.where(run_counts == maxc_per_run, ridx, np.iinfo(np.int64).max)
                winner = np.minimum.reduceat(masked, first_idx)
                mode = np.full(n, np.nan)
                mode[run_seg[first_idx]] = run_val[winner]
                out["mode"] = mode
            if "En" in stats:
                p = run_counts / safe_len[run_seg]
                contrib = -p * np.log2(p + EPS)
                en = np.full(n, np.nan)
                sums = np.add.reduceat(contrib, first_idx)
                en[run_seg[first_idx]] = sums
                out["En"] = en
    elif need_sorted:
        for s_ in need_sorted:
            out[s_] = np.full(n, np.nan)
        if "iqr" in need_sorted:
            out["iqr"] = np.full(n, np.nan)

    if "zcr" in stats:
        # ZCR(normalize(x)): sign of (x - mean) flips; zero std -> all False -> 0
        pos = d > 0
        same_seg = seg_of[1:] == seg_of[:-1]
        flips = ((pos[1:] != pos[:-1]) & same_seg).astype(np.float64)
        z = np.bincount(seg_of[:-1], weights=flips, minlength=n) if flips.size else np.zeros(n)
        out["zcr"] = z / safe_len
    if "meanTKEO" in stats:
        tk = np.full(n, np.nan)
        if v.size >= 3:
            interior = (seg_of[1:-1] == seg_of[:-2]) & (seg_of[1:-1] == seg_of[2:])
            term = (v[1:-1] ** 2 - v[2:] * v[:-2]) * interior
            sums = np.bincount(seg_of[1:-1], weights=term, minlength=n)
            cnt = np.maximum(lengths - 2, 0)
            with np.errstate(invalid="ignore", divide="ignore"):
                tk = np.where(cnt > 0, sums / cnt, np.nan)
        out["meanTKEO"] = tk
    if "ar1" in stats:
        res = np.full(n, np.nan)
        if v.size >= 2:
            same = (seg_of[1:] == seg_of[:-1]).astype(np.float64)
            num = np.bincount(seg_of[:-1], weights=v[1:] * v[:-1] * same, minlength=n)
            den = np.bincount(seg_of[:-1], weights=v[:-1] * v[:-1] * same, minlength=n)
            with np.errstate(invalid="ignore", divide="ignore"):
                res = np.where(den > 0, num / den, np.nan)
        out["ar1"] = res

    heavy_req = [s for s in stats if s in HEAVY_STATS]
    if heavy_req:
        want_dfa = "dfa" in heavy_req
        want_dfc = "dfc" in heavy_req or "dfc_amp" in heavy_req
        dfa_out = np.full(n, np.nan)
        dfc_out = np.full(n, np.nan)
        amp_out = np.full(n, np.nan)
        # regular grid t = arange(L)/rate -> batch rows by window length
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            gather = starts[rows][:, None] + np.arange(length)[None, :]
            mat = v[gather]
            if want_dfa:
                dfa_out[rows] = dfa_batch(mat)
            if want_dfc:
                dfc_out[rows], amp_out[rows] = lomb_batch(mat, sample_rate)
        if want_dfa:
            out["dfa"] = dfa_out
        if "dfc" in heavy_req:
            out["dfc"] = dfc_out
        if "dfc_amp" in heavy_req:
            out["dfc_amp"] = amp_out
    return out


class TokenWindowStats:
    """Callable-class stage for ``map_batches(..., batch_format="pyarrow")``.

    Stateless per batch, but declared as a class so pipelines can run it in an
    actor pool and amortize nothing-heavier-than-import setup; the payoff is
    with ``heavy=True`` where per-actor warm NumPy buffers matter.

    Appends ``{prefix}{stat}`` float64 columns; the ``tokens`` column passes
    through untouched (zero-copy — per-row token-array equality invariant).
    """

    def __init__(
        self,
        column: str = "tokens",
        stats: tuple[str, ...] = CHEAP_STATS,
        heavy: bool = False,
        prefix: str = "tok_",
        sample_rate: float = 50.0,
    ):
        self.column = column
        self.stats = tuple(stats) + (HEAVY_STATS if heavy else ())
        self.prefix = prefix
        self.sample_rate = sample_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column)
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if isinstance(arr, pa.ListArray) or isinstance(arr, pa.LargeListArray):
            flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
            offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            offsets = offsets - offsets[0]
        else:
            raise TypeError(f"column {self.column!r} is not a list type: {arr.type}")
        res = token_stats_arrays(flat, offsets, self.stats, sample_rate=self.sample_rate)
        for name in self.stats:
            batch = batch.append_column(
                f"{self.prefix}{name}", pa.array(res[name], type=pa.float64())
            )
        return batch
