"""Mergeable quantile / moment summaries (VERDICT 'What's missing' #3).

Every global-statistic fit in the engine routes through here instead of
collecting the raw column on the driver. Reference semantics being served:
the RobustScaler(15,85) + clamp(50z+50) mPDS rescale of
DSSL_Training_and_Evaluation.ipynb cell 28, the center/rescale of
mimicUsefulFunction.R:122-149, the median-impute defaults of
mimicUsefulFunction.R:583-628, and the global-quantile scaler state of
dssFunctionLibrary.R:1581 — all of which quantile a full column in one
process in the reference:

    map    -> per-batch summary rows (col, value, weight); a batch is a
              shard_map task's shard or row group, or a Dataset batch
              * small batches pass raw values through (weight 1)
              * batches above RAW_LIMIT compress to K weighted order
                statistics (rank error <= n_batch / (2K) per batch,
                <= N/(2K) after merge => quantile error <= 1/(2K))
    driver -> concat (bounded by K x n_batches), weighted interpolation

The EXACT path is preserved by construction: when every batch stays under
RAW_LIMIT the merged summary is the full multiset with unit weights, and the
weighted interpolation below reduces bit-for-bit to NumPy's linear-interp
``np.percentile`` (= DuckDB ``quantile_cont``), which the sf0.01 oracle gate
requires. The sketch path's error bound is pytest-checked on a 4M-row column.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

RAW_LIMIT = 1 << 18  # per-batch raw passthrough threshold (rows)
K = 4096  # compressed points per over-limit batch


def batch_quantile_summary(v: np.ndarray, raw_limit: int = RAW_LIMIT, k: int = K):
    """One batch's (values, weights) summary for a numeric column."""
    v = np.asarray(v, dtype=np.float64)
    v = v[~np.isnan(v)]
    if v.size <= raw_limit:
        return v, np.ones(v.size)
    s = np.sort(v)
    pos = ((np.arange(k) + 0.5) * v.size / k).astype(np.int64)
    return s[pos], np.full(k, v.size / k)


def weighted_quantiles(values: np.ndarray, weights: np.ndarray, qs) -> np.ndarray:
    """Linear-interpolated quantiles of a weighted multiset. With unit
    weights this is exactly ``np.percentile(values, 100*q)`` (type-7)."""
    qs = np.asarray(list(qs), dtype=np.float64)
    if weights.size and np.all(weights == 1.0):
        # exact path: defer to np.percentile itself so the result is
        # bit-identical to the single-machine fit (lerp rounding included)
        return np.percentile(values, qs * 100.0)
    order = np.argsort(values, kind="mergesort")
    v, w = values[order], weights[order]
    cw = np.cumsum(w)
    total = cw[-1] if cw.size else 0.0
    if not cw.size:
        return np.full(len(list(qs)), np.nan)
    pos = cw - 1.0  # unit weights -> 0..n-1, matching np.percentile's grid
    targets = qs * (total - 1.0)
    return np.interp(targets, pos, v)


def quantile_summary(b: pd.DataFrame, cols: list[str], raw_limit: int, k: int) -> pd.DataFrame:
    """One batch's summary rows ``(col, value, weight)`` for ``cols``. Its
    caller reads ``raw_limit`` and ``k`` (``RAW_LIMIT``, ``K``) on the
    driver and passes them to the tasks."""
    frames = []
    for c in cols:
        val, wt = batch_quantile_summary(
            b[c].to_numpy(dtype=np.float64, na_value=np.nan), raw_limit, k
        )
        frames.append(pd.DataFrame({"col": c, "value": val, "weight": wt}))
    return pd.concat(frames, ignore_index=True)


def fold_quantiles(parts: pd.DataFrame, cols: list[str], qs) -> dict[str, np.ndarray]:
    """Global per-column quantiles from the concatenated summary rows."""
    if "col" not in parts.columns:  # every batch empty after NaN drop
        parts = pd.DataFrame({"col": [], "value": [], "weight": []})
    out = {}
    for c in cols:
        sub = parts[parts["col"] == c]
        out[c] = weighted_quantiles(
            sub["value"].to_numpy(), sub["weight"].to_numpy(), qs
        )
    return out


def quantile_summary_stage(ds, cols: list[str], raw_limit: int, k: int):
    """Dataset -> per-batch summary rows ``(col, value, weight)``."""
    # batch_size must EXCEED raw_limit or the compression branch is dead code
    # and the driver silently collects the whole column as unit-weight rows
    # (ADVICE r2). 4x: batches above raw_limit compress 256:1 to K points;
    # inputs small enough to fit one sub-raw_limit batch stay on the exact
    # path the sf0.01 oracle gate requires.
    return ds.map_batches(
        partial(quantile_summary, cols=cols, raw_limit=raw_limit, k=k),
        batch_format="pandas", batch_size=4 * max(raw_limit, 1024),
    )


def column_quantiles(ds, cols: list[str], qs) -> dict[str, np.ndarray]:
    """Global per-column quantiles of a Dataset via the mergeable summary
    (exact under RAW_LIMIT-sized inputs, sketch with 1/(2K) rank error
    beyond). ``RAW_LIMIT`` and ``K`` are read when it is called."""
    return fold_quantiles(quantile_summary_stage(ds, cols, RAW_LIMIT, K).to_pandas(), cols, qs)


def shard_quantiles(shard_paths: list[str], cols: list[str], qs) -> dict[str, np.ndarray]:
    """``column_quantiles`` over parquet shards: one summary per
    ``shard_map`` task (a shard or a row group), folded on the driver.
    ``RAW_LIMIT`` and ``K`` are read when it is called."""
    from .exchange import shard_map

    summary = partial(quantile_summary, cols=cols, raw_limit=RAW_LIMIT, k=K)
    parts = shard_map(
        shard_paths,
        lambda t: summary(t.to_pandas()),
        columns=cols,
        collect="shard_quantiles",
    )
    return fold_quantiles(parts, cols, qs)


def grouped_quantile_summary(
    b: pd.DataFrame, key: str, col: str, raw_limit: int, k: int
) -> pd.DataFrame:
    """One batch's per-GROUP summary rows ``(key, value, weight)``.

    The keyed variant of ``quantile_summary`` (same exact-under-limit /
    compressed-beyond contract, applied per group within each batch): the
    driver fold is bounded by ``distinct keys x batches x K`` — valid for
    bounded key domains (categorical group-bys), never by input rows."""
    frames = []
    for kv, sub in b.groupby(key, sort=False):
        val, wt = batch_quantile_summary(
            sub[col].to_numpy(dtype=np.float64, na_value=np.nan), raw_limit, k
        )
        frames.append(pd.DataFrame({key: kv, "value": val, "weight": wt}))
    if not frames:
        return pd.DataFrame({key: pd.Series([], dtype=object),
                             "value": pd.Series([], dtype=np.float64),
                             "weight": pd.Series([], dtype=np.float64)})
    return pd.concat(frames, ignore_index=True)


def column_moments(ds, cols: list[str]) -> dict[str, dict]:
    """Exact mergeable (mean, min, max, count) per column — one map pass of
    4-scalar partials, folded on the driver."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            x = b[c].to_numpy(dtype=np.float64, na_value=np.nan)
            x = x[~np.isnan(x)]
            rows.append(
                {
                    "col": c,
                    "sum": x.sum() if x.size else 0.0,
                    "n": x.size,
                    "min": x.min() if x.size else np.inf,
                    "max": x.max() if x.size else -np.inf,
                }
            )
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = {}
    for c in cols:
        sub = parts[parts["col"] == c]
        n = int(sub["n"].sum())
        out[c] = {
            "mean": float(sub["sum"].sum() / n) if n else 0.0,
            "min": float(sub["min"].min()) if n else np.nan,
            "max": float(sub["max"].max()) if n else np.nan,
            "n": n,
        }
    return out


# --- KMV (k-minimum-values) distinct-count sketch ---
#
# Same exact-below-budget contract as the quantile summary: each map batch
# emits its k smallest DISTINCT 64-bit key hashes; the driver folds the
# partials (bounded by k x batches) into the global k smallest. When the true
# distinct count is < k the merged set IS the distinct hash set — the hash
# (splitmix64) is a BIJECTION on uint64, so |hashes| == |keys| exactly and
# the sf0.01/sf0.1 oracle gate compares against COUNT(DISTINCT) bit-for-bit.
# Beyond k the estimator (k-1) / max_of_k_min (hashes scaled to (0,1)) has
# relative stderr ~ 1/sqrt(k-2) (Bar-Yossef et al. 2002, Beyer et al. 2007);
# the bound is pytest-checked on a >>k planted domain.

KMV_K = 8192


def _splitmix64_u64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a bijective uint64 mixer (public constant set)."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def kmv_partial(keys: np.ndarray, k: int) -> np.ndarray:
    """One batch's KMV summary: the k smallest distinct hashes of ``keys``
    (``k`` is ``KMV_K``, read on the driver and passed to the tasks)."""
    h = np.unique(_splitmix64_u64(np.asarray(keys)))
    if h.size > k:
        h = h[np.argpartition(h, k)[:k]]
    return h


def kmv_merge_count(partials: list[np.ndarray], k: int) -> int:
    """Fold per-batch KMV summaries into a distinct-count estimate (EXACT
    when the global distinct count is <= k)."""
    if not partials:
        return 0
    h = np.unique(np.concatenate(partials))
    if h.size < k:
        # exact: no partial can have truncated (truncation means it held k
        # entries, which alone would make the union >= k) — every distinct
        # hash survived the fold. STRICT <: at exactly k a partial may have
        # dropped hashes.
        return int(h.size)
    kth = np.max(np.partition(h, k - 1)[:k])
    return int(round((k - 1) / (float(kth) / 2.0**64)))
