"""Per-row windowed statistics over a ``tokens: list<int32>`` column.

The engine treats each row's token array as one window (SURVEY §7.0: tokens
play the role of sensor samples) and evaluates the reference stat block over
it. Unlike the per-session extractors (which loop windows), this stage is
**segment-vectorized**: one call computes every requested stat for every row
of an Arrow batch with NumPy ``reduceat``/``bincount``/sorts over the
flattened list column — no Python loop over rows. Each intermediate (segment
ids, the deviations from the mean, the flat sort) is built only when a
requested stat reads it.

Stats that need each row as a whole window — the entropy ``En`` and the
heavy spectral/fractal stats (DFA, Lomb–Scargle dfc, opt-in with
``heavy=True``, no closed segmented form) — run on one ``(rows, L)`` block
per distinct row length L: ``En`` on the row-sorted block, DFA and
Lomb–Scargle batched on the regular grid (kernels/batched.py).

Conformance: ``tests/test_window_stats.py`` checks every column against the
per-row kernel library (mpds_ray.kernels), which is an independent
implementation of the same pinned semantics (the heavy stats at
``rtol=1e-10``), and pins the outputs bit for bit: the cheap stats on any
machine, the heavy stats, which go through BLAS matmuls, under the OpenBLAS
kernel their pins were recorded with.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import EPS
from ..kernels.batched import dfa_batch, lomb_batch
from .partition import length_groups, run_bounds

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
    want = set(stats)
    out: dict[str, np.ndarray] = {}

    def segsum(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, starts)

    # each intermediate is built only when a requested stat reads it
    if want & {"mean", "std", "s", "k", "zcr"}:
        mean = segsum(v) / safe_len
    if want & {"std", "s", "k", "zcr"}:
        d = v - np.repeat(np.where(np.isnan(mean), 0.0, mean), lengths)
    if want & {"std", "s", "k"}:
        m2s = segsum(d * d)
        m2 = m2s / safe_len  # population second central moment
    if want & {"q1", "q3", "iqr", "median", "mode", "meanTKEO", "ar1"}:
        seg_of = np.repeat(np.arange(n), lengths)  # segment id per flat element
    if want & {"meanTKEO", "ar1"}:
        # cross[i]: elements i and i + 1 lie in different segments. Products
        # across segments are zeroed by assignment: a NaN or inf product
        # times 0 is NaN and would reach the earlier segment's sum
        cross = np.zeros(max(v.size - 1, 0), dtype=bool)
        cross[starts[1:] - 1] = True

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

    need_sorted = {"q1", "q3", "iqr", "median", "mode"} & want
    if need_sorted:
        # one flat sort of every segment: by (segment, value)
        if v.size and v.min() >= 0 and v.max() < (1 << 21) and np.all(v == np.floor(v)):
            # token-like values: one int64 sort of (segment * V + value)
            # replaces the 2-key lexsort + gather (writes +0.0 for -0.0)
            V = np.int64(v.max()) + 1
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
        if "mode" in stats:
            # value runs within sorted segments; per segment the FIRST
            # (= smallest value) run with the max count, fully vectorized:
            # max count per segment via reduceat, then the min run index
            # among count==max runs via a masked reduceat
            run_starts, run_counts = run_bounds(vs, seg_sorted)
            run_seg = seg_sorted[run_starts]
            first_idx, seg_runs = run_bounds(run_seg)
            maxc = np.maximum.reduceat(run_counts, first_idx)
            ridx = np.arange(run_seg.size, dtype=np.int64)
            masked = np.where(run_counts == np.repeat(maxc, seg_runs), ridx, np.iinfo(np.int64).max)
            winner = np.minimum.reduceat(masked, first_idx)
            mode = np.full(n, np.nan)
            mode[run_seg[first_idx]] = vs[run_starts][winner]
            out["mode"] = mode

    if "zcr" in stats:
        # ZCR(normalize(x)): sign of (x - mean) flips; zero std -> all False
        # -> 0. flip[i]: the sign changes from i to i + 1; a segment's exact
        # count takes back the flip across its end
        pos = d > 0
        flip = np.zeros(v.size, dtype=bool)
        np.not_equal(pos[1:], pos[:-1], out=flip[:-1])
        z = np.add.reduceat(flip, starts, dtype=np.int64) - flip[offsets[1:] - 1]
        out["zcr"] = z / safe_len
    if "meanTKEO" in stats:
        tk = np.full(n, np.nan)
        if v.size >= 3:
            term = v[1:-1] ** 2 - v[2:] * v[:-2]
            term[cross[:-1] | cross[1:]] = 0.0
            sums = np.bincount(seg_of[1:-1], weights=term, minlength=n)
            cnt = np.maximum(lengths - 2, 0)
            with np.errstate(invalid="ignore", divide="ignore"):
                tk = np.where(cnt > 0, sums / cnt, np.nan)
        out["meanTKEO"] = tk
    if "ar1" in stats:
        res = np.full(n, np.nan)
        if v.size >= 2:
            w = v[1:] * v[:-1]
            w[cross] = 0.0
            num = np.bincount(seg_of[:-1], weights=w, minlength=n)
            np.multiply(v[:-1], v[:-1], out=w)
            w[cross] = 0.0
            den = np.bincount(seg_of[:-1], weights=w, minlength=n)
            with np.errstate(invalid="ignore", divide="ignore"):
                res = np.where(den > 0, num / den, np.nan)
        out["ar1"] = res

    if want & {"En", *HEAVY_STATS}:
        out.update(_length_group_stats(v, starts, lengths, stats, sample_rate))
    return out


def _row_entropy(block: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of an (m, L) block sorted along its
    rows: ``-p*log2(p+EPS)`` per run of equal values, in value order (a NaN
    is a run of one), summed by one reduceat over each row's runs."""
    m, L = block.shape
    new = np.ones((m, L), dtype=bool)
    np.not_equal(block[:, 1:], block[:, :-1], out=new[:, 1:])
    p = np.diff(np.flatnonzero(new), append=m * L) / float(L)
    contrib = -p * np.log2(p + EPS)
    row_runs = new.sum(axis=1)
    return np.add.reduceat(contrib, np.cumsum(row_runs) - row_runs)


def _length_group_stats(v, starts, lengths, stats, sample_rate) -> dict[str, np.ndarray]:
    """En and the heavy stats, on one (m, L) block per distinct row length.

    ``partition.length_groups`` gives the groups; each group gathers its
    rows into a matrix (rows in ascending order), so DFA and Lomb–Scargle
    run batched on the regular grid t = arange(L)/rate, and En on the block
    sorted along its rows. The loop is over distinct lengths, ~30 µs each
    before the kernels: a batch of many lengths and few rows per length,
    such as ``doc_token_stats``, pays that per length (a block per length
    keeps each group's temporaries small and cache-resident on the large
    batches)."""
    n = lengths.size
    want_en = "En" in stats
    want_dfa = "dfa" in stats
    want_dfc = "dfc" in stats or "dfc_amp" in stats
    en = np.full(n, np.nan)
    dfa_out = np.full(n, np.nan)
    dfc_out = np.full(n, np.nan)
    amp_out = np.full(n, np.nan)
    for rows, idx in length_groups(starts, lengths):
        mat = v[idx]
        if want_dfa:
            dfa_out[rows] = dfa_batch(mat)
        if want_dfc:
            dfc_out[rows], amp_out[rows] = lomb_batch(mat, sample_rate)
        if want_en:
            mat.sort(axis=1)  # after the kernels, which read the rows in order
            en[rows] = _row_entropy(mat)
    cols = {"En": en, "dfa": dfa_out, "dfc": dfc_out, "dfc_amp": amp_out}
    return {k: col for k, col in cols.items() if k in stats}


class TokenWindowStats:
    """Arrow-batch stage: ``stage(table) -> table``, called on each shard in
    the flagship's ``exchange_map`` tasks (and by ``map_batches`` in the
    Dataset-native reference flagship). Stateless: the heavy kernels'
    length-only state is cached per process in kernels/batched.py.

    Appends ``{prefix}{stat}`` float64 columns; the ``tokens`` column passes
    through untouched (zero-copy — per-row token-array equality invariant).
    A null row reads NaN in every stat, as an empty row does.
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
            # values by offsets: a null slot may span values, which
            # ``flatten`` would drop while the offsets still count them
            offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            flat = arr.values.slice(offsets[0], offsets[-1] - offsets[0])
            flat = flat.to_numpy(zero_copy_only=False).astype(np.float64)
            offsets = offsets - offsets[0]
        else:
            raise TypeError(f"column {self.column!r} is not a list type: {arr.type}")
        res = token_stats_arrays(flat, offsets, self.stats, sample_rate=self.sample_rate)
        if arr.null_count:
            # a null row reads NaN in every stat, as an empty row does
            null = ~arr.is_valid().to_numpy(zero_copy_only=False)
            for stat_col in res.values():
                stat_col[null] = np.nan
        for name in self.stats:
            batch = batch.append_column(
                f"{self.prefix}{name}", pa.array(res[name], type=pa.float64())
            )
        return batch
