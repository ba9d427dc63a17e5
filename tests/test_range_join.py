"""range_join_sorted (stages/asof.py): the trailing-window non-equi join.

Oracle: a quadratic per-pair loop. Covers the composite-key search, a huge
sparse entity-code domain (same outputs), exact window edges, and the
grouped quantile-summary merge math (stages/sketch.py keyed variant).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from mpds_ray.stages.asof import range_join_sorted


def naive_range_join(le, lt, re_, rt, rv, w):
    n = len(lt)
    cnt = np.zeros(n, dtype=np.int64)
    sm = np.zeros(n, dtype=np.float64)
    for i in range(n):
        m = (re_ == le[i]) & (rt >= lt[i] - w) & (rt < lt[i])
        cnt[i] = int(m.sum())
        sm[i] = float(rv[m].sum())
    return cnt, sm


def make_case(rng, n_ent=7, n_left=200, n_right=300, span=10_000):
    le = np.sort(rng.integers(0, n_ent, n_left))
    re_ = np.sort(rng.integers(0, n_ent, n_right))
    lt = rng.integers(0, span, n_left)
    rt = rng.integers(0, span, n_right)
    # sort each side by (ent, ts) — the kernel's contract
    lo = np.lexsort((lt, le))
    ro = np.lexsort((rt, re_))
    rv = rng.normal(0, 10, n_right)
    return le[lo], lt[lo], re_[ro], rt[ro], rv[ro]


def test_fast_path_matches_naive():
    rng = np.random.default_rng(0)
    for trial in range(5):
        le, lt, re_, rt, rv = make_case(rng)
        w = int(rng.integers(1, 5000))
        cnt, sm = range_join_sorted(le, lt, re_, rt, rv, w)
        ncnt, nsm = naive_range_join(le, lt, re_, rt, rv, w)
        np.testing.assert_array_equal(cnt, ncnt)
        np.testing.assert_allclose(sm, nsm, atol=1e-9)


def test_segment_fallback_matches_fast_path():
    """Entity codes in a huge sparse domain (up to 2**44, far past float64's
    exact integers once combined with the ts span); outputs must be
    identical to the naive oracle."""
    rng = np.random.default_rng(1)
    le, lt, re_, rt, rv = make_case(rng, n_ent=5)
    # remap codes to a huge sparse domain (sortedness is preserved)
    big = np.array([0, 2**41, 2**42, 2**43, 2**44], dtype=np.int64)
    le_b, re_b = big[le], big[re_]
    w = 3000
    cnt, sm = range_join_sorted(le_b, lt, re_b, rt, rv, w)
    ncnt, nsm = naive_range_join(le_b, lt, re_b, rt, rv, w)
    np.testing.assert_array_equal(cnt, ncnt)
    np.testing.assert_allclose(sm, nsm, atol=1e-9)


def test_window_edges_exact():
    """right_ts == left_ts - w is IN; right_ts == left_ts is OUT."""
    le = np.zeros(1, dtype=np.int64)
    lt = np.array([1_000_000], dtype=np.int64)
    re_ = np.zeros(3, dtype=np.int64)
    rt = np.array([999_000, 999_999, 1_000_000], dtype=np.int64)
    rv = np.array([1.0, 2.0, 4.0])
    cnt, sm = range_join_sorted(le, lt, re_, rt, rv, 1000)
    assert cnt[0] == 2  # 999_000 (== lt-w) and 999_999; 1_000_000 excluded
    assert sm[0] == 3.0


def test_empty_sides():
    z = np.zeros(0, dtype=np.int64)
    zf = np.zeros(0, dtype=np.float64)
    cnt, sm = range_join_sorted(z, z, z, z, zf, 10)
    assert cnt.size == 0 and sm.size == 0
    le = np.array([0], dtype=np.int64)
    lt = np.array([5], dtype=np.int64)
    cnt, sm = range_join_sorted(le, lt, z, z, zf, 10)
    assert cnt[0] == 0 and sm[0] == 0.0


def test_no_cross_entity_bleed():
    """A right row 1us before a left row of ANOTHER entity must not count."""
    le = np.array([1], dtype=np.int64)
    lt = np.array([100], dtype=np.int64)
    re_ = np.array([0, 1], dtype=np.int64)
    rt = np.array([99, 50], dtype=np.int64)
    rv = np.array([100.0, 7.0])
    cnt, sm = range_join_sorted(le, lt, re_, rt, rv, 1000)
    assert cnt[0] == 1 and sm[0] == 7.0


def test_grouped_quantile_merge_matches_percentile():
    """Keyed summary rows merged per group == np.percentile per group (exact
    unit-weight path), and the compressed path stays within the 1/(2K) rank
    bound."""
    from mpds_ray.stages.sketch import batch_quantile_summary, weighted_quantiles

    rng = np.random.default_rng(2)
    df = pd.DataFrame(
        {"k": rng.choice(list("abc"), 5000), "v": rng.normal(0, 1, 5000)}
    )
    # simulate 4 map batches emitting per-group summaries (exact path)
    parts = []
    for chunk in np.array_split(np.arange(len(df)), 4):
        b = df.iloc[chunk]
        for kv, sub in b.groupby("k"):
            val, wt = batch_quantile_summary(sub["v"].to_numpy())
            parts.append(pd.DataFrame({"k": kv, "value": val, "weight": wt}))
    merged = pd.concat(parts, ignore_index=True)
    for kv, sub in merged.groupby("k"):
        got = weighted_quantiles(
            sub["value"].to_numpy(), sub["weight"].to_numpy(), [0.5, 0.9]
        )
        want = np.percentile(df.loc[df["k"] == kv, "v"].to_numpy(), [50, 90])
        np.testing.assert_allclose(got, want, atol=0)  # bit-exact unit-weight path

    # compressed path: one over-limit group batch, check the rank-error bound
    x = rng.normal(0, 1, 200_000)
    val, wt = batch_quantile_summary(x, raw_limit=50_000, k=1024)
    got = weighted_quantiles(val, wt, [0.5])[0]
    srt = np.sort(x)
    rank = np.searchsorted(srt, got)
    assert abs(rank - 0.5 * x.size) <= x.size / (2 * 1024) + 2
