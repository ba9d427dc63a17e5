"""Relational operator surface over the TPC-H-ish testdata (SURVEY §2.5-2.8).

Each query runs on plain Ray tasks over the table shards (per-shard passes
on ``shard_map``, map-side partial aggregation before any exchange, hash
joins with bloom prefilters, tie-aware partial top-k) and has an ANSI-SQL
oracle in ``ORACLE`` executed by the driver via DuckDB. Column names and
float rounding match exactly on both sides.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import ray

from ..stages.exchange import hash_exchange, key_bucket, shard_map
from ..stages.sketch import grouped_quantile_summary, shard_quantiles, weighted_quantiles
from .common import (
    exchange_buckets,
    read_small,
    round_half_away,
    shard_groupby_sum,
    shard_list,
)


def net_rev_i(t) -> np.ndarray:
    """Net revenue of lineitem rows (``t`` a pyarrow table or a frame) as
    exact int64 ten-thousandths: price cents x (100 - discount hundredths).
    Integer partial sums are order-insensitive, and one final division
    gives the same double as the oracles' BIGINT formulation."""
    cents = np.rint(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    disc = np.rint(t["l_discount"].to_numpy() * 100).astype(np.int64)
    return cents * (100 - disc)


# --- Q1-style pricing summary (filter M10 + grouped agg A2, partial+final) ---


def q1_pricing_summary(sf_dir: str):
    """Pruned scan (M10 predicate pushed into the parquet read) -> per-shard
    combiner -> driver fold (shard_groupby_sum)."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        # exact integer units (the X88 lesson, found again here by the
        # round-6-canonical local gate at sf0.001: a float
        # sum(ext*(1-disc)) landed exactly on a .xx5 cent boundary where
        # np.round half-even gives .96 and DuckDB half-away gives .97).
        # cents x discount-hundredths keeps every partial sum an int64 —
        # order-insensitive, and one final division yields the identical
        # double the oracle's BIGINT formulation produces.
        e_c = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        d_h = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        return b.assign(cents_base=e_c, disc_h=d_h, dp4=e_c * (100 - d_h))

    agg = shard_groupby_sum(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus"],
        {"l_quantity": "sum_qty", "cents_base": "cents_base",
         "dp4": "dp4", "disc_h": "disc_h"},
        count_as="count_order",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
        filters=(pads.field("l_shipdate") <= pd.Timestamp("1998-09-02")),
        prep=prep,
    )
    n = agg["count_order"].to_numpy()
    cents = agg.pop("cents_base").to_numpy()
    dp4 = agg.pop("dp4").to_numpy()
    disc_h = agg.pop("disc_h").to_numpy()
    agg["sum_qty"] = np.round(agg["sum_qty"], 2)  # integer-valued, exact
    agg["sum_base_price"] = round_half_away(cents / 100.0, 2)
    agg["sum_disc_price"] = round_half_away(dp4 / 10_000.0, 2)
    agg["avg_qty"] = round_half_away(agg["sum_qty"].to_numpy() / n)
    agg["avg_price"] = round_half_away(cents / (100.0 * n))
    agg["avg_disc"] = round_half_away(disc_h / (100.0 * n))
    return agg


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                          AS sum_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 2)
                                                          AS sum_base_price,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT)))
             / 10000.0, 2)                                AS sum_disc_price,
       count(*)                                           AS count_order,
       round(avg(l_quantity), 6)                          AS avg_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
             / (100.0 * count(*)), 6)                     AS avg_price,
       round(sum(CAST(round(l_discount * 100) AS BIGINT))
             / (100.0 * count(*)), 6)                     AS avg_disc
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""

# --- Q3-style: broadcast semi-join + hash join + top-k (J2 + O3) ---


def q3_top_orders(sf_dir: str, num_buckets: int | None = None):
    """Distributed hash-partition join (J2 + O3), no fact-scale broadcast:
    the only broadcast side is the BUILDING customer key set (a DIMENSION,
    bounded by segment selectivity). Both fact sides are hash-exchanged on
    ``o_orderkey`` — orders map tasks emit the qualifying (o_orderkey, date)
    rows, lineitem map tasks emit per-shard PARTIAL revenue sums (combiner:
    rows bounded by distinct keys per shard, not lineitem rows) — and each
    reduce bucket joins, finishes the sum, and emits a tie-aware partial
    top-10; the driver root folds B x 10 rows. The r2 version collected the
    qualifying (o_orderkey -> date) dict on the driver and re-broadcast it to
    every lineitem task — ~30M resident entries per worker at 100x SF
    (VERDICT 'What's wrong' #2)."""
    from ..stages.hashjoin import exchange_join

    num_buckets = exchange_buckets(sf_dir, ("orders", "lineitem"), num_buckets)

    # bound: customer DIMENSION x segment selectivity (broadcast side)
    building = set(
        shard_map(
            shard_list(sf_dir, "customer"), lambda t: t, columns=["c_custkey"],
            filters=pads.field("c_mktsegment") == "BUILDING", collect="building_custkeys",
        )["c_custkey"].to_numpy()
    )
    building_ref = ray.put(building)

    def orders_map(t: pa.Table) -> pa.Table:
        keys = ray.get(building_ref)  # one object-store fetch per worker
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        days = t["o_orderdate"].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        ) // 86_400_000_000
        keep = pd.Series(ck).isin(keys).to_numpy()
        return pa.table(
            {"o_orderkey": ok[keep], "o_orderdate_days": days[keep].astype(np.int64)}
        )

    def li_map(t: pa.Table) -> pa.Table:
        rev = t["l_extendedprice"].to_numpy(zero_copy_only=False) * (
            1 - t["l_discount"].to_numpy(zero_copy_only=False)
        )
        g = (
            pd.DataFrame({"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                          "revenue": rev})
            .groupby("o_orderkey", as_index=False, sort=False)["revenue"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_bucket(b: int, o: pa.Table, li: pa.Table) -> pd.DataFrame:
        orders = o.to_pandas()
        rev = (
            li.to_pandas()
            .groupby("o_orderkey", as_index=False, sort=False)["revenue"]
            .sum()
        )
        j = rev.merge(orders, on="o_orderkey")  # inner join = semi-join filter
        j["revenue"] = j["revenue"].round(2)
        # tie-AWARE partial top-k: sort by the FULL final key so a rank-10
        # revenue tie cannot drop the row the final sort would keep (ADVICE r2)
        return j.sort_values(
            ["revenue", "o_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(10)

    parts = exchange_join(
        shard_list(sf_dir, "orders"), shard_list(sf_dir, "lineitem"), "o_orderkey",
        join_bucket, num_buckets, left_map=orders_map, right_map=li_map,
        columns_left=["o_orderkey", "o_custkey", "o_orderdate"],
        columns_right=["l_orderkey", "l_extendedprice", "l_discount"],
        filters_left=(pads.field("o_orderdate") < pd.Timestamp("1998-03-15")),
        filters_right=(pads.field("l_shipdate") > pd.Timestamp("1996-03-15")),
    )
    if not len(parts):
        parts = pd.DataFrame(
            {"o_orderkey": pd.Series([], dtype="int64"),
             "revenue": pd.Series([], dtype="float64"),
             "o_orderdate_days": pd.Series([], dtype="int64")}
        )
    return (
        parts.sort_values(["revenue", "o_orderkey"], ascending=[False, True], kind="mergesort")
        .head(10)
        .reset_index(drop=True)
    )


Q3_SQL = """
SELECT l_orderkey AS o_orderkey,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       CAST(epoch(o_orderdate) / 86400 AS BIGINT)        AS o_orderdate_days
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < DATE '1998-03-15'
  AND l_shipdate  > DATE '1996-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderkey
LIMIT 10
"""

# --- multi-way broadcast join: customers per region (J3) ---


def customers_per_region(sf_dir: str):
    nation = read_small(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = read_small(sf_dir, "region", ["r_regionkey", "r_name"])
    nation = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    nk_to_region = dict(zip(nation["n_nationkey"], nation["r_name"]))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"r_name": b["c_nationkey"].map(nk_to_region), "c_acctbal": b["c_acctbal"]}
        )

    agg = shard_groupby_sum(
        sf_dir, "customer", ["r_name"], {"c_acctbal": "sum_acctbal"},
        count_as="n_customers", columns=["c_nationkey", "c_acctbal"], prep=attach,
    )
    agg["sum_acctbal"] = agg["sum_acctbal"].round(2)
    return agg


REGION_SQL = """
SELECT r_name,
       round(sum(c_acctbal), 2) AS sum_acctbal,
       count(*)                 AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""

# --- per-user max + top-k (A1 + O3) ---


def top_customers_by_max_order(sf_dir: str):
    """Per-customer max order price, top 10: a hash exchange on o_custkey
    (map tasks pre-reduce to one max per customer and shard) whose buckets
    each emit a tie-aware partial top-10; the driver folds B x 10 rows and
    attaches names to the final 10."""
    by = ["max_order_price", "o_custkey"]

    def map_fn(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby("o_custkey", as_index=False, sort=False).max()
        return pa.Table.from_pandas(g, preserve_index=False)

    def top_bucket(b: int, t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().groupby("o_custkey", as_index=False, sort=False).max()
        g = g.rename(columns={"o_totalprice": "max_order_price"})
        g["max_order_price"] = g["max_order_price"].round(2)
        # tie-aware partial top-k (full final key, see q3 — ADVICE r2)
        return g.sort_values(by, ascending=[False, True], kind="mergesort").head(10)

    parts = hash_exchange(
        shard_list(sf_dir, "orders"), map_fn, "o_custkey", None, top_bucket,
        columns=["o_custkey", "o_totalprice"],
    )
    top = parts.sort_values(by, ascending=[False, True], kind="mergesort").head(10)
    names = read_small(sf_dir, "customer", ["c_custkey", "c_name"])
    top["c_name"] = top["o_custkey"].map(dict(zip(names["c_custkey"], names["c_name"])))
    return top.reset_index(drop=True)


TOP_CUST_SQL = """
SELECT o_custkey, round(max(o_totalprice), 2) AS max_order_price, any_value(c_name) AS c_name
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY o_custkey
ORDER BY max_order_price DESC, o_custkey
LIMIT 10
"""

# --- distinct (D2) ---


def distinct_segments(sf_dir: str):
    # map-side distinct (bounded by domain x tasks), driver union — the
    # combiner-root shape
    parts = shard_map(
        shard_list(sf_dir, "customer"), lambda t: t.to_pandas().drop_duplicates(),
        columns=["c_mktsegment"], collect="distinct_segments",
    )
    return parts.drop_duplicates().sort_values("c_mktsegment").reset_index(drop=True)


DISTINCT_SQL = "SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment"

# --- value counts (A11) ---


def event_type_counts(sf_dir: str):
    b = shard_groupby_sum(
        sf_dir, "events", ["event_type"], {"value": "sum_value"}, count_as="n",
        columns=["event_type", "value"],
    )
    b["avg_value"] = (b["sum_value"] / b["n"]).round(6)
    b["sum_value"] = b["sum_value"].round(2)
    return b


EVENT_COUNTS_SQL = """
SELECT event_type, round(sum(value), 2) AS sum_value, count(*) AS n,
       round(avg(value), 6) AS avg_value
FROM events GROUP BY event_type
"""

# --- global quantiles (A5): exact at test scale, two-pass at cluster scale ---


def value_quantiles(sf_dir: str):
    # mergeable quantile summary (stages/sketch.py): exact linear-interp
    # quantiles (== DuckDB quantile_cont) while shards fit RAW_LIMIT,
    # bounded-error weighted sketch beyond — never a driver column collect.
    q = shard_quantiles(shard_list(sf_dir, "events"), ["value"], [0.5, 0.9])["value"]
    return pd.DataFrame({"median_value": [round(q[0], 6)], "p90_value": [round(q[1], 6)]})


QUANTILES_SQL = """
SELECT round(quantile_cont(value, 0.5), 6) AS median_value,
       round(quantile_cont(value, 0.9), 6) AS p90_value
FROM events
"""

# --- grouped quantiles (A5 keyed): per-group mergeable summary ---


def value_median_exact(sf_dir: str, driver_cap: int = 1_000_000):
    """EXACT global median by distributed selection — the alternative to the
    mergeable sketch when the answer must be exact at ANY scale: iterate
    [pass: per-shard 65536-bin histogram over the current range → locate the
    bin(s) holding the two middle ranks] until the candidate range holds
    <= driver_cap rows, then ONE bounded collect of that range finishes the
    selection exactly. Each round narrows the range ~65536x, so 10^12 rows
    need two histogram passes; every exchange is a (65537,) int64 vector per
    shard. Median for even n is (a+b)/2 — the same arithmetic DuckDB's
    median() runs, so the result is bit-identical with NO rounding."""
    shards = shard_list(sf_dir, "events")
    nbins = 65536
    parts = shard_map(shards, _median_stats, columns=["value"])
    lo = min(p[0] for p in parts)
    hi = max(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    if n == 0:
        return pd.DataFrame({"median_value": [np.nan]})
    # ranks of the two middle order statistics (1-based)
    k1, k2 = (n + 1) // 2, (n + 2) // 2

    # Narrow [lo, hi] until the median's candidate window is collect-sized.
    # Bin edges are EXPANDED one bin each way so float edge-rounding in the
    # histogram's bin assignment can never push the true k-rank values
    # outside the window — exact rank accounting happens in the FINAL pass
    # via predicate partitioning (v < lo counted, [lo, hi] collected), so
    # the loop only needs containment, not exact offsets.
    in_range = n
    for _ in range(8):  # 65536x narrowing per round; 8 is unreachable depth
        if in_range <= driver_cap or hi <= lo:
            break
        total = shard_map(
            shards, partial(_median_hist, lo=lo, hi=hi, nbins=nbins), columns=["value"],
            fold=np.add,
        )
        below, h = int(total[0]), total[1:]
        cum = np.cumsum(h)
        b1 = int(np.searchsorted(cum, k1 - below, side="left"))
        b2 = int(np.searchsorted(cum, k2 - below, side="left"))
        width = (hi - lo) / nbins
        if width == 0:
            break
        lo_b, hi_b = max(b1 - 1, 0), min(b2 + 1, nbins - 1)
        in_range = int(cum[hi_b] - (cum[lo_b - 1] if lo_b > 0 else 0))
        lo, hi = lo + lo_b * width, min(lo + (hi_b + 1) * width, hi)

    if lo == hi:
        # point-mass window: both middle ranks are contained in [lo, hi], a
        # single value — the median IS that value; collecting the (possibly
        # unbounded) duplicate run would be pointless
        return pd.DataFrame({"median_value": [lo]})

    # bounded final collect with exact predicate partitioning: every value
    # is counted below lo, weighted-collected in [lo, hi], or above hi.
    # Shards return (unique value, count) pairs, NOT raw rows — a huge
    # duplicate mass straddling a multi-ulp window (ADVICE r3: the raw
    # collect was unbounded exactly then) collapses to a handful of floats;
    # selection over the merged weighted values is identical arithmetic.
    parts = shard_map(shards, partial(_median_collect, lo=lo, hi=hi), columns=["value"])
    rank_below = sum(p[0] for p in parts)
    allu = np.concatenate([p[1] for p in parts])
    if allu.size > driver_cap:
        raise RuntimeError(
            f"value_median_exact: {allu.size:,} distinct in-window values exceed "
            f"driver_cap {driver_cap:,} after range narrowing — raise the cap or "
            "add narrowing rounds; refusing an unbounded driver collect"
        )
    allc = np.concatenate([p[2] for p in parts])
    uu, inv = np.unique(allu, return_inverse=True)
    cc = np.bincount(inv, weights=allc).astype(np.int64)
    cum = rank_below + np.cumsum(cc)
    a = uu[np.searchsorted(cum, k1, side="left")]
    b = uu[np.searchsorted(cum, k2, side="left")]
    return pd.DataFrame({"median_value": [(a + b) / 2.0]})


def _values(t: pa.Table) -> np.ndarray:
    v = t["value"].to_numpy(zero_copy_only=False)
    return v[~np.isnan(v)]


def _median_stats(t: pa.Table) -> tuple[float, float, int]:
    """``value_median_exact``'s first pass: one shard's (min, max, count)."""
    v = _values(t)
    if v.size == 0:
        return np.inf, -np.inf, 0
    return float(v.min()), float(v.max()), int(v.size)


def _median_hist(t: pa.Table, lo: float, hi: float, nbins: int) -> np.ndarray:
    """``value_median_exact``'s narrowing pass: one shard's count below
    ``lo`` followed by its ``nbins``-bin histogram over [lo, hi]."""
    v = _values(t)
    below = int((v < lo).sum())
    inside = v[(v >= lo) & (v <= hi)]
    if hi > lo:
        idx = np.minimum(((inside - lo) / (hi - lo) * nbins).astype(np.int64), nbins - 1)
        h = np.bincount(idx, minlength=nbins)
    else:
        h = np.zeros(nbins, dtype=np.int64)
        h[0] = inside.size
    return np.r_[below, h]


def _median_collect(t: pa.Table, lo: float, hi: float):
    """``value_median_exact``'s final collect: one shard's count below
    ``lo`` and its (unique value, count) pairs inside [lo, hi]."""
    v = _values(t)
    inside = v[(v >= lo) & (v <= hi)]
    u, c = np.unique(inside, return_counts=True)
    return int((v < lo).sum()), u, c.astype(np.int64)


MEDIAN_EXACT_SQL = "SELECT median(value) AS median_value FROM events"


def grouped_value_quantiles(sf_dir: str):
    """Per-event-type median/p90 of value via the KEYED mergeable quantile
    summary (stages/sketch.py): shard tasks emit per-(type) weighted order
    statistics, the driver folds summaries bounded by types x tasks x K —
    the column itself never rides to the driver. Exact (== DuckDB
    quantile_cont) while per-shard group slices fit RAW_LIMIT."""
    # bound: event_type domain x tasks x K summary points
    parts = shard_map(
        shard_list(sf_dir, "events"),
        lambda t: grouped_quantile_summary(t.to_pandas(), "event_type", "value"),
        columns=["event_type", "value"], collect="grouped_value_quantiles",
    )
    rows = []
    for kv, sub in parts.groupby("event_type", sort=True):
        q = weighted_quantiles(
            sub["value"].to_numpy(), sub["weight"].to_numpy(), [0.5, 0.9]
        )
        rows.append({"event_type": kv,
                     "median_value": round(float(q[0]), 6),
                     "p90_value": round(float(q[1]), 6)})
    return pd.DataFrame(rows)


GROUPED_QUANTILES_SQL = """
SELECT event_type,
       round(quantile_cont(value, 0.5), 6) AS median_value,
       round(quantile_cont(value, 0.9), 6) AS p90_value
FROM events GROUP BY event_type ORDER BY event_type
"""

# --- distributed anti-join (J2 complement) ---


ANTI_JOIN_CUTOFF = "2000-01-01"


def customers_without_orders(sf_dir: str, num_buckets: int | None = None):
    """Anti-join at fact scale: customers with NO order since a cutoff date,
    counted per nation. Both sides are hash-exchanged on custkey (no
    broadcast of either key set): customer map tasks emit
    (c_custkey, c_nationkey); orders map tasks scan with the date predicate
    PUSHED INTO the parquet read and emit per-shard DISTINCT o_custkey as
    ``c_custkey`` (combiner — bounded by distinct keys per shard, not order
    rows); each reduce bucket holds every occurrence of its custkeys on both
    sides, so the anti membership test is local (a LEFT join: a bucket with
    no orders keeps all its customers), and emits nation-partial counts. The
    driver folds nations x buckets rows."""
    import pyarrow.dataset as pads

    from ..stages.hashjoin import exchange_join

    num_buckets = exchange_buckets(sf_dir, ("customer", "orders"), num_buckets)

    def orders_map(t: pa.Table) -> pa.Table:
        keys = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({"c_custkey": keys})

    def anti_bucket(b: int, cust: pa.Table, orders) -> pd.DataFrame:
        ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
        if orders is not None:
            okeys = np.unique(orders["c_custkey"].to_numpy(zero_copy_only=False))
            keep = ~np.isin(ck, okeys)
        else:
            keep = np.ones(ck.size, dtype=bool)
        nat = cust["c_nationkey"].to_numpy(zero_copy_only=False)[keep]
        if not nat.size:
            return pd.DataFrame()
        nk, cnt = np.unique(nat, return_counts=True)
        return pd.DataFrame({"c_nationkey": nk.astype(np.int64),
                             "n_customers": cnt.astype(np.int64)})

    out = exchange_join(
        shard_list(sf_dir, "customer"), shard_list(sf_dir, "orders"), "c_custkey",
        anti_bucket, num_buckets, right_map=orders_map,
        columns_left=["c_custkey", "c_nationkey"], columns_right=["o_custkey"],
        filters_right=(pads.field("o_orderdate") >= pd.Timestamp(ANTI_JOIN_CUTOFF)),
        how="left",
    )
    if not len(out):
        return pd.DataFrame({"c_nationkey": pd.Series([], dtype="int64"),
                             "n_customers": pd.Series([], dtype="int64")})
    return out.groupby("c_nationkey", as_index=False, sort=True)["n_customers"].sum()


ANTI_JOIN_SQL = f"""
SELECT c_nationkey, count(*) AS n_customers
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderdate >= DATE '{ANTI_JOIN_CUTOFF}')
GROUP BY c_nationkey ORDER BY c_nationkey
"""

# --- broadcast semi-join (J2) ---


def building_order_stats(sf_dir: str):
    cust = read_small(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    keys = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_custkey"].isin(keys)]
        return pd.DataFrame({"one": np.ones(len(b)), "o_totalprice": b["o_totalprice"]})

    agg = shard_groupby_sum(
        sf_dir, "orders", ["one"], {"o_totalprice": "sum_totalprice"},
        count_as="n_orders", columns=["o_custkey", "o_totalprice"], prep=prep,
    )
    agg["sum_totalprice"] = agg["sum_totalprice"].round(2)
    return agg.drop(columns=["one"])


BUILDING_SQL = """
SELECT round(sum(o_totalprice), 2) AS sum_totalprice, count(*) AS n_orders
FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
"""

# --- robust scaling two-pass (M5/M6) + linear scoring (M11) + mPDS rescale ---


def mpds_scaled_orders(sf_dir: str):
    """RobustScaler(15,85) -> mPDS = clamp(50*z + 50, 0, 100) on o_totalprice
    (notebook cell 28 semantics; sklearn/np linear-interp quantiles)."""
    shards = shard_list(sf_dir, "orders")
    med, q15, q85 = shard_quantiles(shards, ["o_totalprice"], [0.5, 0.15, 0.85])[
        "o_totalprice"
    ]
    med = float(med)
    scale = float(q85 - q15)

    def score(t: pa.Table) -> pd.DataFrame:
        b = t.to_pandas()
        z = (b["o_totalprice"] - med) / scale
        b["mpds"] = np.clip(50.0 * z + 50.0, 0.0, 100.0).round(6)
        return b[["o_orderkey", "mpds"]]

    return shard_map(
        shards, score, columns=["o_orderkey", "o_totalprice"], collect="mpds_scaled_orders"
    )


MPDS_SQL = """
WITH s AS (
  SELECT quantile_cont(o_totalprice, 0.5)  AS med,
         quantile_cont(o_totalprice, 0.85) - quantile_cont(o_totalprice, 0.15) AS scale
  FROM orders
)
SELECT o_orderkey,
       round(least(greatest(50 * (o_totalprice - med) / scale + 50, 0), 100), 6) AS mpds
FROM orders, s
"""

# --- deterministic entity K-fold (O7) ---


def kfold_counts(sf_dir: str, k: int = 10):
    def fold(b: pd.DataFrame) -> pd.DataFrame:
        h = (b["c_custkey"].to_numpy().astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
            1 << 32
        )
        return pd.DataFrame({"fold": (h % np.uint64(k)).astype(np.int64)})

    out = shard_groupby_sum(
        sf_dir, "customer", ["fold"], {}, count_as="n", columns=["c_custkey"], prep=fold
    )
    return out.sort_values("fold").reset_index(drop=True)


KFOLD_SQL = """
SELECT CAST((c_custkey * 2654435761) % 4294967296 % 10 AS BIGINT) AS fold, count(*) AS n
FROM customer GROUP BY 1 ORDER BY fold
"""


# --- general two-sided exchange join (stages/hashjoin.py) as a query ---


def monthly_order_revenue(sf_dir: str, num_buckets: int | None = None):
    """lineitem JOIN orders on orderkey -> revenue per order month. Both
    sides pre-aggregate map-side (lineitem to per-orderkey revenue partials,
    orders to (orderkey, yyyymm)), exchange on the SAME key buckets, and each
    reduce joins its co-partitioned pair and emits per-month partials — the
    reusable fact-to-fact equi-join shape (stages/hashjoin.py:exchange_join)
    with combiner pushdown on both inputs."""
    from ..stages.hashjoin import exchange_join

    def li_map(t: pa.Table) -> pa.Table:
        # EXACT integer ten-thousandths (see urgent_order_month_revenue):
        # the original float partials landed a half-cent on the wrong side
        # of round(2) vs the oracle's single-pass sum once at sf0.001
        # (month 199502) — order-independent int64 partials can't
        g = (
            pd.DataFrame(
                {"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                 "rev_i": net_rev_i(t)}
            )
            .groupby("o_orderkey", as_index=False, sort=False)["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].combine_chunks()
        dt = pd.DatetimeIndex(d.to_pandas())
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "month": pa.array((dt.year * 100 + dt.month).astype(np.int64)),
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        j = li.to_pandas().merge(orders.to_pandas(), on="o_orderkey")
        return j.groupby("month", as_index=False)["rev_i"].sum()

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_extendedprice", "l_discount"],
        columns_right=["o_orderkey", "o_orderdate"],
    )
    # driver fold bounded by distinct months x buckets; exact int64 / 10000.0
    # on both sides -> bit-identical doubles, no rounding step needed
    out = out.groupby("month", as_index=False)["rev_i"].sum()
    out["revenue"] = out.pop("rev_i") / 10000.0
    return out.sort_values("month").reset_index(drop=True)


MONTHLY_REVENUE_SQL = """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS month,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""


def monthly_revenue_cumshare(sf_dir: str, num_buckets: int | None = None):
    """Window-over-aggregate shape: monthly revenue plus each month's
    CUMULATIVE share of total revenue (the running-mix report). The join +
    per-month fold is the monthly_order_revenue exchange with exact integer
    ten-thousandths; the window itself is a months-bounded driver cumsum
    over exact int64, so the share is the same int/int double division in
    Ray and SQL (rounded 6 dp only to pin the final display value)."""
    from ..stages.hashjoin import exchange_join

    def li_map(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                 "rev_i": net_rev_i(t)}
            )
            .groupby("o_orderkey", as_index=False, sort=False)["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].combine_chunks()
        dt = pd.DatetimeIndex(d.to_pandas())
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "month": pa.array((dt.year * 100 + dt.month).astype(np.int64)),
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        j = li.to_pandas().merge(orders.to_pandas(), on="o_orderkey")
        return j.groupby("month", as_index=False)["rev_i"].sum()

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_extendedprice", "l_discount"],
        columns_right=["o_orderkey", "o_orderdate"],
    )
    # driver fold + window bounded by distinct months
    out = out.groupby("month", as_index=False)["rev_i"].sum()
    out = out.sort_values("month").reset_index(drop=True)
    # Python-int accumulate, NOT int64 cumsum: per-month rev_i is ~2.2e15
    # per TPC-H SF unit, so an int64 running total wraps silently around
    # SF ~4,000 while the oracle's sum(BIGINT) promotes to HUGEINT —
    # arbitrary-precision ints keep the share exact at any scale (the
    # fold is months-bounded, so the driver cost is nil)
    import itertools

    cum = np.fromiter(
        itertools.accumulate(int(x) for x in out["rev_i"]), dtype=np.float64
    )
    total = float(sum(int(x) for x in out["rev_i"]))
    out["cum_share"] = np.round(cum / total, 6)
    out["revenue"] = out.pop("rev_i") / 10000.0
    return out[["month", "revenue", "cum_share"]]


CUMSHARE_SQL = """
WITH m AS (
  SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS month,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_i
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  GROUP BY 1
)
SELECT month, rev_i / 10000.0 AS revenue,
       round(sum(rev_i) OVER (ORDER BY month) * 1.0
             / (SELECT sum(rev_i) FROM m), 6) AS cum_share
FROM m ORDER BY month
"""


def urgent_order_month_revenue(sf_dir: str, num_buckets: int | None = None):
    """monthly_order_revenue restricted to 1-URGENT orders (~20% of the
    dimension side) — the selective-join shape where the bloom prefilter
    pays: the priority predicate pushes into the orders scan, a bloom over
    the qualifying orderkeys (built by one extra pruned scan of the SMALL
    side, 1 MiB packed bits broadcast once) prefilters lineitem's per-key
    revenue partials map-side, so ~80% of the fact side's partials never
    enter the exchange. Exact per-bucket join unchanged -> byte-identical
    to bloom-off (tests/test_bloom_join.py).

    Revenue rides EXACT integer ten-thousandths (price and discount are
    2-decimal, so cents x (100 - disc_pct) is an int64): partial sums are
    order-independent, so the distributed fold can never land on the other
    side of a half-cent rounding boundary from the oracle's single-pass
    sum (observed once at sf0.01 with float partials). int64 holds to
    ~9e18 tenth-mills ~ $9e14 per (month, bucket) partial."""
    import pyarrow.dataset as pds

    from ..stages.hashjoin import exchange_join

    def li_map(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                 "rev_i": net_rev_i(t)}
            )
            .groupby("o_orderkey", as_index=False, sort=False)["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].combine_chunks()
        dt = pd.DatetimeIndex(d.to_pandas())
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "month": pa.array((dt.year * 100 + dt.month).astype(np.int64)),
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        j = li.to_pandas().merge(orders.to_pandas(), on="o_orderkey")
        return j.groupby("month", as_index=False)["rev_i"].sum()

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_extendedprice", "l_discount"],
        columns_right=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filters_right=pds.field("o_orderpriority") == "1-URGENT",
        bloom_from="right",
    )
    out = out.groupby("month", as_index=False)["rev_i"].sum()
    # no final round: both sides divide the same exact int64 by 10000.0 ->
    # bit-identical doubles (a 2-dp round would re-introduce the half-even
    # vs half-away divergence exactly on the now-exact .xx5 ties)
    out["revenue"] = out.pop("rev_i") / 10000.0
    return out.sort_values("month").reset_index(drop=True)


URGENT_REVENUE_SQL = """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS month,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT'
GROUP BY 1 ORDER BY 1
"""


def q5_region_nation_revenue(
    sf_dir: str,
    region: str = "ASIA",
    num_buckets: int | None = None,
):
    """TPC-H Q5-shaped multi-way CHAIN join — the join key changes at every
    hop, so each hop's output is re-exchanged on the next key while staying
    in the object store as per-bucket Arrow tables (``exchange_map`` over
    the hop's output refs, then ``reduce_grid``); the driver holds only
    ObjectRefs until the final nation-level partials.

        hop 1 (key=custkey):  orders(1996)      ⨝ customer(region nations)
                              -> (o_orderkey, c_nationkey)
        hop 2 (key=orderkey): hop1 (rebucketed)  ⨝ lineitem
                              -> partial (l_suppkey, c_nationkey, rev_i)
        hop 3 (key=suppkey):  hop2 (rebucketed)  ⨝ supplier(region nations)
                              -> filter c_nationkey == s_nationkey,
                                 partial sum by nationkey  (tiny root)

    lineitem (the 10^12-row side) is bloom-prefiltered by the orderkeys that
    actually survived hop 1 (~qualifying-year × region fraction), so ~95%+
    of fact rows never enter the exchange; the per-bucket join stays exact,
    so results are identical with the filter on or off. Revenue rides exact
    integer ten-thousandths end-to-end (see urgent_order_month_revenue).
    region/nation are spec-bounded tiny (25 rows) driver lookups."""
    import pyarrow.dataset as pds

    from ..stages.exchange import exchange_map, reduce_grid
    from ..stages.hashjoin import BLOOM_BITS, BLOOM_HASHES, bloom_probe, build_key_bloom

    num_buckets = exchange_buckets(
        sf_dir, ("orders", "customer", "lineitem", "supplier"), num_buckets
    )

    nat = read_small(sf_dir, "nation")
    reg = read_small(sf_dir, "region")
    rkey = reg.loc[reg.r_name == region, "r_regionkey"].iloc[0]
    nsel = nat[nat.n_regionkey == rkey]
    nation_keys = nsel.n_nationkey.to_numpy()
    name_of = dict(zip(nsel.n_nationkey, nsel.n_name))

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    # --- hop 1: orders x customer on custkey -------------------------------
    def o_map(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_custkey"], "o_orderkey": t["o_orderkey"]})

    def c_map(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["c_custkey"], "c_nationkey": t["c_nationkey"]})

    bucket_key = partial(key_bucket, key="key", num_buckets=num_buckets)

    o_grid = exchange_map(
        shard_list(sf_dir, "orders"), o_map, bucket_key, num_buckets,
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filters=(pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi),
    )
    c_grid = exchange_map(
        shard_list(sf_dir, "customer"), c_map, bucket_key, num_buckets,
        columns=["c_custkey", "c_nationkey"],
        filters=pds.field("c_nationkey").isin(nation_keys),
    )

    def join1(b: int, o: pa.Table, c: pa.Table) -> pa.Table:
        j = o.to_pandas().merge(c.to_pandas(), on="key")
        return pa.Table.from_pandas(
            j[["o_orderkey", "c_nationkey"]], preserve_index=False
        )

    hop1 = reduce_grid(join1, num_buckets, o_grid, c_grid, emit="refs")

    # --- hop 2: hop1 x lineitem on orderkey ---------------------------------
    bits = ray.put(build_key_bloom(hop1, "o_orderkey"))

    def li_map(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        keep = bloom_probe(okey, ray.get(bits), BLOOM_BITS, BLOOM_HASHES)
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "l_suppkey": t["l_suppkey"],
                "rev_i": pa.array(net_rev_i(t)),
            }
        )

    bucket_okey = partial(key_bucket, key="o_orderkey", num_buckets=num_buckets)

    li_grid = exchange_map(
        shard_list(sf_dir, "lineitem"), li_map, bucket_okey, num_buckets,
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    hop1_grid = exchange_map(hop1, None, bucket_okey, num_buckets)

    def join2(b: int, h1: pa.Table, li: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(h1.to_pandas(), on="o_orderkey")
        g = j.groupby(["l_suppkey", "c_nationkey"], as_index=False, sort=False)[
            "rev_i"
        ].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    hop2 = reduce_grid(join2, num_buckets, hop1_grid, li_grid, emit="refs")

    # --- hop 3: hop2 x supplier on suppkey, same-nation filter --------------
    def s_map(t: pa.Table) -> pa.Table:
        return pa.table({"l_suppkey": t["s_suppkey"], "s_nationkey": t["s_nationkey"]})

    bucket_skey = partial(key_bucket, key="l_suppkey", num_buckets=num_buckets)

    s_grid = exchange_map(
        shard_list(sf_dir, "supplier"), s_map, bucket_skey, num_buckets,
        columns=["s_suppkey", "s_nationkey"],
        filters=pds.field("s_nationkey").isin(nation_keys),
    )
    hop2_grid = exchange_map(hop2, None, bucket_skey, num_buckets)

    def join3(b: int, h2: pa.Table, s: pa.Table) -> pd.DataFrame:
        j = h2.to_pandas().merge(s.to_pandas(), on="l_suppkey")
        j = j[j.c_nationkey == j.s_nationkey]
        return j.groupby("s_nationkey", as_index=False)["rev_i"].sum()

    parts = reduce_grid(join3, num_buckets, hop2_grid, s_grid)
    if not len(parts):
        return pd.DataFrame({"n_name": pd.Series(dtype=object),
                             "revenue": pd.Series(dtype=float)})
    out = parts.groupby("s_nationkey", as_index=False)["rev_i"].sum()
    out["n_name"] = out.s_nationkey.map(name_of)
    # exact int64 / 10000.0 on both sides -> bit-identical doubles
    out["revenue"] = out.pop("rev_i") / 10000.0
    return (
        out[["n_name", "revenue"]]
        .sort_values(["revenue", "n_name"], ascending=[False, True])
        .reset_index(drop=True)
    )


def nation_pair_trade(sf_dir: str, max_nationkey: int = 4, num_buckets: int | None = None):
    """TPC-H Q7-shaped nation-pair trade flow: revenue shipped 1996-1997
    between DISTINCT nations drawn from a small nation set, grouped by
    (supplier nation, customer nation, ship year). Same three-hop chain as
    q5 (custkey -> orderkey -> suppkey; the key changes every hop so each
    hop's output re-exchanges while staying in plasma as per-bucket Arrow),
    but the same-nation equality filter becomes an INEQUALITY at hop 3 and
    the grouping keeps both nationkeys + year. lineitem is bloom-prefiltered
    by hop-1's surviving orderkeys AND the ship-date window pushes into its
    scan, so the 10^12-row side ships only qualifying partials. Revenue
    rides exact integer ten-thousandths (see urgent_order_month_revenue);
    nation names are a spec-bounded (25-row) driver lookup."""
    import pyarrow.dataset as pds

    from ..stages.exchange import exchange_map, reduce_grid
    from ..stages.hashjoin import BLOOM_BITS, BLOOM_HASHES, bloom_probe, build_key_bloom

    num_buckets = exchange_buckets(
        sf_dir, ("orders", "customer", "lineitem", "supplier"), num_buckets
    )

    nat = read_small(sf_dir, "nation")
    nsel = nat[nat.n_nationkey < max_nationkey]
    nation_keys = nsel.n_nationkey.to_numpy()
    name_of = dict(zip(nsel.n_nationkey, nsel.n_name))

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")

    # --- hop 1: orders x customer(nation set) on custkey --------------------
    def o_map(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["o_custkey"], "o_orderkey": t["o_orderkey"]})

    def c_map(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["c_custkey"], "c_nationkey": t["c_nationkey"]})

    bucket_key = partial(key_bucket, key="key", num_buckets=num_buckets)

    o_grid = exchange_map(
        shard_list(sf_dir, "orders"), o_map, bucket_key, num_buckets,
        columns=["o_orderkey", "o_custkey"],
    )
    c_grid = exchange_map(
        shard_list(sf_dir, "customer"), c_map, bucket_key, num_buckets,
        columns=["c_custkey", "c_nationkey"],
        filters=pds.field("c_nationkey").isin(nation_keys),
    )

    def join1(b: int, o: pa.Table, c: pa.Table) -> pa.Table:
        j = o.to_pandas().merge(c.to_pandas(), on="key")
        return pa.Table.from_pandas(
            j[["o_orderkey", "c_nationkey"]], preserve_index=False
        )

    hop1 = reduce_grid(join1, num_buckets, o_grid, c_grid, emit="refs")

    # --- hop 2: hop1 x lineitem(ship window) on orderkey ---------------------
    bits = ray.put(build_key_bloom(hop1, "o_orderkey"))

    def li_map(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(bloom_probe(okey, ray.get(bits), BLOOM_BITS, BLOOM_HASHES)))
        yr = pd.DatetimeIndex(
            t["l_shipdate"].combine_chunks().to_pandas()
        ).year.to_numpy().astype(np.int64)
        g = (
            pd.DataFrame(
                {
                    "o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                    "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
                    "l_year": yr,
                    "rev_i": net_rev_i(t),
                }
            )
            .groupby(
                ["o_orderkey", "l_suppkey", "l_year"], as_index=False, sort=False
            )["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    bucket_okey = partial(key_bucket, key="o_orderkey", num_buckets=num_buckets)

    li_grid = exchange_map(
        shard_list(sf_dir, "lineitem"), li_map, bucket_okey, num_buckets,
        columns=[
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate",
        ],
        filters=(pds.field("l_shipdate") >= lo) & (pds.field("l_shipdate") < hi),
    )
    hop1_grid = exchange_map(hop1, None, bucket_okey, num_buckets)

    def join2(b: int, h1: pa.Table, li: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(h1.to_pandas(), on="o_orderkey")
        g = j.groupby(
            ["l_suppkey", "c_nationkey", "l_year"], as_index=False, sort=False
        )["rev_i"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    hop2 = reduce_grid(join2, num_buckets, hop1_grid, li_grid, emit="refs")

    # --- hop 3: hop2 x supplier(nation set) on suppkey, nation INEQUALITY ---
    def s_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {"l_suppkey": t["s_suppkey"], "s_nationkey": t["s_nationkey"]}
        )

    bucket_skey = partial(key_bucket, key="l_suppkey", num_buckets=num_buckets)

    s_grid = exchange_map(
        shard_list(sf_dir, "supplier"), s_map, bucket_skey, num_buckets,
        columns=["s_suppkey", "s_nationkey"],
        filters=pds.field("s_nationkey").isin(nation_keys),
    )
    hop2_grid = exchange_map(hop2, None, bucket_skey, num_buckets)

    def join3(b: int, h2: pa.Table, s: pa.Table) -> pd.DataFrame:
        j = h2.to_pandas().merge(s.to_pandas(), on="l_suppkey")
        j = j[j.c_nationkey != j.s_nationkey]
        return j.groupby(
            ["s_nationkey", "c_nationkey", "l_year"], as_index=False
        )["rev_i"].sum()

    parts = reduce_grid(join3, num_buckets, hop2_grid, s_grid)
    empty = pd.DataFrame(
        {
            "supp_nation": pd.Series(dtype=object),
            "cust_nation": pd.Series(dtype=object),
            "l_year": pd.Series(dtype=np.int64),
            "revenue": pd.Series(dtype=float),
        }
    )
    if not len(parts):
        return empty
    # driver fold bounded by |nation set|^2 x years x buckets
    out = parts.groupby(
        ["s_nationkey", "c_nationkey", "l_year"], as_index=False
    )["rev_i"].sum()
    out["supp_nation"] = out.s_nationkey.map(name_of)
    out["cust_nation"] = out.c_nationkey.map(name_of)
    # exact int64 / 10000.0 on both sides -> bit-identical doubles
    out["revenue"] = out.pop("rev_i") / 10000.0
    return (
        out[["supp_nation", "cust_nation", "l_year", "revenue"]]
        .sort_values(["supp_nation", "cust_nation", "l_year"])
        .reset_index(drop=True)
    )


Q7_SQL = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation n1 ON s_nationkey = n1.n_nationkey
JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE n1.n_nationkey < 4 AND n2.n_nationkey < 4
  AND n1.n_nationkey <> n2.n_nationkey
  AND l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1998-01-01'
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def part_type_revenue_share(sf_dir: str, num_buckets: int | None = None):
    """TPC-H Q14-shaped big×big join: one ship-month of lineitem ⨝ part on
    partkey, revenue share per p_type. The month filter pushes into the
    lineitem scan AND seeds a bloom over the qualifying partkeys, so part
    rows (the other 10^9-row side at scale) that match no shipped item are
    dropped map-side before the exchange; lineitem pre-aggregates one rev_i
    partial per partkey per shard (combiner). The share is a division of
    two exact int64 sums → bit-identical to the SQL oracle."""
    import pyarrow.dataset as pds

    from ..stages.hashjoin import exchange_join

    lo = pd.Timestamp("1997-03-01")
    hi = pd.Timestamp("1997-04-01")

    def li_map(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"p_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
                 "rev_i": net_rev_i(t)}
            )
            .groupby("p_partkey", as_index=False, sort=False)["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def p_map(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["p_partkey"], "p_type": t["p_type"]})

    def reduce_fn(b: int, li: pa.Table, part: pa.Table) -> pd.DataFrame:
        j = li.to_pandas().merge(part.to_pandas(), on="p_partkey")
        return j.groupby("p_type", as_index=False)["rev_i"].sum()

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "part"),
        "p_partkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=p_map,
        columns_left=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        columns_right=["p_partkey", "p_type"],
        filters_left=(pds.field("l_shipdate") >= lo) & (pds.field("l_shipdate") < hi),
        bloom_from="left",
    )
    out = out.groupby("p_type", as_index=False)["rev_i"].sum()
    total = out["rev_i"].sum()
    out["revenue"] = out["rev_i"] / 10000.0
    out["share"] = out.pop("rev_i") / float(total)
    return (
        out[["p_type", "revenue", "share"]]
        .sort_values("p_type")
        .reset_index(drop=True)
    )


Q14_SHARE_SQL = """
WITH m AS (
  SELECT p_type,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_i
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= DATE '1997-03-01' AND l_shipdate < DATE '1997-04-01'
  GROUP BY p_type
)
SELECT p_type,
       rev_i / 10000.0 AS revenue,
       CAST(rev_i AS DOUBLE) / CAST((SELECT sum(rev_i) FROM m) AS DOUBLE) AS share
FROM m ORDER BY p_type
"""


def small_quantity_revenue(sf_dir: str, num_buckets: int | None = None,
                           brand: str = "Brand#4"):
    """TPC-H Q17 shape: revenue of below-avg-quantity lineitems for one
    brand's parts — an aggregate-self-join. The brand predicate pushes into
    the part scan and seeds a bloom over its partkeys, so fact rows for
    other brands never enter the exchange; each reduce bucket holds EVERY
    surviving lineitem row of its partkeys (entity-complete by the join
    exchange), so the per-part avg-quantity threshold and the below-avg
    filter are one vectorized transform — no second pass over the fact
    table. Quantities are integer-valued, so the avg is a division of exact
    sums and the threshold compare is bit-identical to SQL; revenue rides
    exact int cents divided once at the root."""
    import pyarrow.dataset as pds

    from ..stages.hashjoin import exchange_join

    def li_map(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {"p_partkey": t["l_partkey"], "qty": t["l_quantity"],
             "price_i": pa.array(cents)}
        )

    def p_map(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["p_partkey"]})

    def reduce_fn(b: int, li: pa.Table, part: pa.Table) -> pd.DataFrame:
        df = li.to_pandas()
        # drop bloom false positives with the exact key set for this bucket
        df = df[df["p_partkey"].isin(part["p_partkey"].to_numpy(zero_copy_only=False))]
        if len(df):
            avg = df.groupby("p_partkey")["qty"].transform("mean")
            rev = int(df.loc[df["qty"].to_numpy() < 0.2 * avg.to_numpy(),
                             "price_i"].sum())
        else:
            rev = 0
        return pd.DataFrame({"rev_i": [rev]})

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "part"),
        "p_partkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=p_map,
        columns_left=["l_partkey", "l_quantity", "l_extendedprice"],
        columns_right=["p_partkey"],
        filters_right=pds.field("p_brand") == brand,
        bloom_from="right",
    )
    return pd.DataFrame({"avg_yearly": [out["rev_i"].sum() / 700.0]})


Q17_SQL = """
SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 700.0 AS avg_yearly
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand = 'Brand#4'
  AND l_quantity < 0.2 * (
        SELECT avg(l2.l_quantity) FROM lineitem l2
        WHERE l2.l_partkey = p_partkey
      )
"""


def priority_ship_lag_counts(sf_dir: str, late_days: int = 60, num_buckets: int | None = None):
    """TPC-H Q12-shaped conditional aggregation over a join: per order
    priority, how many lineitems shipped more than ``late_days`` after the
    order date, the total, and the late share. The lateness predicate needs
    BOTH sides' dates per line, so this is the join shape where line grain
    legitimately crosses the exchange — but only two int64 columns of it
    (key + epoch-µs shipdate), pruned at the scan; the CASE aggregation
    collapses each bucket to |priority| rows, so the driver fold is
    |priority| × num_buckets. The day comparison is exact integer epoch-µs
    arithmetic on both sides (no calendar semantics to diverge on), and the
    share is the same int/int double division in Ray and SQL."""
    from ..stages.hashjoin import exchange_join

    late_us = late_days * 86_400 * 1_000_000

    def li_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "ship_us": t["l_shipdate"].cast(pa.int64()),
            }
        )

    def o_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderpriority": t["o_orderpriority"],
                "order_us": t["o_orderdate"].cast(pa.int64()),
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        j = li.to_pandas().merge(orders.to_pandas(), on="o_orderkey")
        j["late"] = (j.ship_us - j.order_us > late_us).astype(np.int64)
        g = j.groupby("o_orderpriority", as_index=False).agg(
            n_late=("late", "sum"), n_total=("late", "size")
        )
        return g

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_shipdate"],
        columns_right=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    # driver fold bounded by |priority| x buckets
    out = out.groupby("o_orderpriority", as_index=False)[["n_late", "n_total"]].sum()
    out["late_share"] = np.round(out.n_late / out.n_total, 6)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


Q12_SQL = """
SELECT o_orderpriority,
       CAST(sum(CASE WHEN epoch(l_shipdate) - epoch(o_orderdate) > 5184000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       count(*) AS n_total,
       round(sum(CASE WHEN epoch(l_shipdate) - epoch(o_orderdate) > 5184000
                      THEN 1 ELSE 0 END) * 1.0 / count(*), 6) AS late_share
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""


def late_order_priority_counts(sf_dir: str, late_days: int = 60, num_buckets: int | None = None):
    """TPC-H Q4-shaped EXISTS semi-join aggregate: per order priority, how
    many ORDERS have at least one lineitem shipped more than ``late_days``
    after the order date (vs Q12, which counts LINES). The existence test
    collapses map-side: lineitem pre-reduces to one (orderkey, max ship_us)
    row per key — EXISTS(any late line) ≡ max(shipdate) late — so the
    exchange moves one row per orderkey, the per-bucket reduce is a merge +
    one comparison, and each bucket emits |priority| counts. Exact integer
    epoch-µs arithmetic on both sides."""
    from ..stages.hashjoin import exchange_join

    late_us = late_days * 86_400 * 1_000_000

    def li_map(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {
                    "o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                    "max_ship_us": t["l_shipdate"]
                    .cast(pa.int64())
                    .to_numpy(zero_copy_only=False),
                }
            )
            .groupby("o_orderkey", as_index=False, sort=False)["max_ship_us"]
            .max()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderpriority": t["o_orderpriority"],
                "order_us": t["o_orderdate"].cast(pa.int64()),
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        g = li.to_pandas().groupby("o_orderkey", as_index=False)["max_ship_us"].max()
        j = g.merge(orders.to_pandas(), on="o_orderkey")
        j = j[j.max_ship_us - j.order_us > late_us]
        return j.groupby("o_orderpriority", as_index=False).size().rename(
            columns={"size": "n_orders"}
        )

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_shipdate"],
        columns_right=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    # driver fold bounded by |priority| x buckets
    out = out.groupby("o_orderpriority", as_index=False)["n_orders"].sum()
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


Q4_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders
WHERE EXISTS (
  SELECT 1 FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND epoch(l_shipdate) - epoch(o_orderdate) > 5184000
)
GROUP BY 1 ORDER BY 1
"""


def segment_urgent_coverage(sf_dir: str, num_buckets: int | None = None):
    """Distributed LEFT OUTER join over the co-partitioned exchange
    (``exchange_join(how='left')``): customers joined to their URGENT-order
    spend, per market segment — customers with NO urgent orders survive the
    join as NULL matches and are counted, the semantics an inner exchange
    (which skips one-sided buckets) silently drops. The priority predicate
    pushes into the orders parquet scan; orders pre-reduce to per-custkey
    (count, cents) partials map-side so only partials shuffle; money rides
    exact int64 cents. Driver fold is |segments| x num_buckets tiny rows."""
    from ..stages.hashjoin import exchange_join

    def c_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {"c_custkey": t["c_custkey"], "c_mktsegment": t["c_mktsegment"]}
        )

    def o_map(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        g = (
            pd.DataFrame(
                {
                    "c_custkey": t["o_custkey"].to_numpy(zero_copy_only=False),
                    "cents": cents,
                }
            )
            .groupby("c_custkey", as_index=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def reduce_fn(b: int, left: pa.Table, right) -> pd.DataFrame:
        lf = left.to_pandas()
        if right is None:
            m = lf.assign(n=np.nan, cents=0)
        else:
            # shard partials: re-aggregate per key before the left merge
            rf = (
                right.to_pandas()
                .groupby("c_custkey", as_index=False)
                .agg(n=("n", "sum"), cents=("cents", "sum"))
            )
            m = lf.merge(rf, on="c_custkey", how="left")
            m["cents"] = m["cents"].fillna(0)
        return (
            m.groupby("c_mktsegment", as_index=False)
            .agg(
                n_customers=("c_custkey", "size"),
                n_without_urgent=("n", lambda s: int(s.isna().sum())),
                cents=("cents", "sum"),
            )
        )

    out = exchange_join(
        shard_list(sf_dir, "customer"),
        shard_list(sf_dir, "orders"),
        "c_custkey",
        reduce_fn,
        num_buckets,
        left_map=c_map,
        right_map=o_map,
        columns_left=["c_custkey", "c_mktsegment"],
        columns_right=["o_custkey", "o_totalprice", "o_orderpriority"],
        filters_right=[("o_orderpriority", "==", "1-URGENT")],
        how="left",
    )
    g = (
        out.groupby("c_mktsegment", sort=True)
        .agg(
            n_customers=("n_customers", "sum"),
            n_without_urgent=("n_without_urgent", "sum"),
            cents=("cents", "sum"),
        )
        .reset_index()
    )
    g["n_customers"] = g["n_customers"].astype(np.int64)
    g["n_without_urgent"] = g["n_without_urgent"].astype(np.int64)
    g["urgent_spend"] = g.pop("cents").astype(np.int64) / 100.0
    return g


SEGMENT_URGENT_SQL = """
SELECT c_mktsegment,
       count(*) AS n_customers,
       count(*) FILTER (WHERE t.n IS NULL) AS n_without_urgent,
       coalesce(sum(t.cents), 0) / 100.0 AS urgent_spend
FROM customer c LEFT JOIN (
  SELECT o_custkey, count(*) AS n,
         sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY 1
) t ON c.c_custkey = t.o_custkey
GROUP BY 1 ORDER BY 1
"""


def rich_customers_without_orders(sf_dir: str, num_buckets: int | None = None):
    """TPC-H Q22-shaped composite: LAPSED rich customers — balance above the
    GLOBAL average positive balance and no orders since 1999 — counted per
    market segment with their average balance. Three reusable pieces
    chained: a scalar-subquery pass (distributed (sum, count) fold), the
    hash anti-join (per-bucket key difference over the exchange, with the
    date predicate pushed into the orders scan so the NOT-EXISTS side ships
    only recent orderkeys), and a grouped aggregate. Balance rides exact
    integer cents so the Ray/SQL sums agree bit-for-bit."""
    import pyarrow.dataset as pds

    from ..stages.hashjoin import exchange_join

    num_buckets = exchange_buckets(sf_dir, ("customer", "orders"), num_buckets)

    # pass 1: global mean positive balance — distributed (sum, count) fold
    parts = shard_map(shard_list(sf_dir, "customer"), _bal_partial, columns=["c_acctbal"])
    tot = sum(p[0] for p in parts)
    cnt = max(sum(p[1] for p in parts), 1)
    avg_cents = tot / cnt  # double; both sides compare cents > this

    def c_map(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        keep = cents > avg_cents
        return pa.table(
            {
                "c_custkey": t["c_custkey"].filter(pa.array(keep)),
                "c_mktsegment": t["c_mktsegment"].filter(pa.array(keep)),
                "bal_cents": pa.array(cents[keep]),
            }
        )

    def o_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {"c_custkey": pa.array(np.unique(
                t["o_custkey"].to_numpy(zero_copy_only=False)
            ))}
        )

    def anti_agg(b: int, c: pa.Table, o) -> pd.DataFrame:
        cdf = c.to_pandas()
        if o is not None:
            have = np.unique(o["c_custkey"].to_numpy(zero_copy_only=False))
            cdf = cdf[~np.isin(cdf["c_custkey"].to_numpy(), have)]
        return cdf.groupby("c_mktsegment", as_index=False).agg(
            n_custs=("c_custkey", "size"), bal_cents=("bal_cents", "sum")
        )

    out = exchange_join(
        shard_list(sf_dir, "customer"), shard_list(sf_dir, "orders"), "c_custkey",
        anti_agg, num_buckets, left_map=c_map, right_map=o_map,
        columns_left=["c_custkey", "c_mktsegment", "c_acctbal"],
        columns_right=["o_custkey"],
        filters_left=pds.field("c_acctbal") > 0,
        filters_right=pds.field("o_orderdate") >= pd.Timestamp("1999-01-01"),
        how="left",
    )
    empty = pd.DataFrame(
        {
            "c_mktsegment": pd.Series(dtype=object),
            "n_custs": pd.Series(dtype=np.int64),
            "avg_bal": pd.Series(dtype=float),
        }
    )
    if not len(out):
        return empty
    g = out.groupby("c_mktsegment", as_index=False)[["n_custs", "bal_cents"]].sum()
    g["n_custs"] = g["n_custs"].astype(np.int64)
    # exact int cents / count -> double, identical division both sides
    g["avg_bal"] = np.round(g["bal_cents"] / g["n_custs"] / 100.0, 6)
    return (
        g[["c_mktsegment", "n_custs", "avg_bal"]]
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )


def _bal_partial(t: pa.Table) -> tuple[int, int]:
    """``rich_customers_without_orders``' pass 1: one shard's (sum, count)
    of positive balances in integer cents."""
    cents = np.rint(t["c_acctbal"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
    pos = cents[cents > 0]
    return int(pos.sum()), int(pos.size)


Q22_SQL = """
WITH avg_pos AS (
  SELECT avg(CAST(round(c_acctbal * 100) AS BIGINT)) AS a
  FROM customer WHERE c_acctbal > 0
)
SELECT c_mktsegment, count(*) AS n_custs,
       round(sum(CAST(round(c_acctbal * 100) AS BIGINT)) * 1.0
             / count(*) / 100.0, 6) AS avg_bal
FROM customer, avg_pos
WHERE CAST(round(c_acctbal * 100) AS BIGINT) > a
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= DATE '1999-01-01')
GROUP BY 1 ORDER BY 1
"""


def customer_order_distribution(sf_dir: str, num_buckets: int | None = None):
    """TPC-H Q13-shaped LEFT-join count distribution: how many customers
    placed exactly k orders, INCLUDING k = 0 (the LEFT semantics that a
    plain orders-side groupby would silently drop). Orders pre-reduce to
    per-custkey count partials map-side; both sides exchange on c_custkey so
    each bucket holds every customer with ALL its order partials and can
    emit its own (k -> n_customers) histogram — the driver folds
    |distinct k| × num_buckets tiny rows."""
    from ..stages.hashjoin import exchange_join

    num_buckets = exchange_buckets(sf_dir, ("customer", "orders"), num_buckets)

    def c_map(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t["c_custkey"]})

    def o_map(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"c_custkey": t["o_custkey"].to_numpy(zero_copy_only=False)}
            )
            .groupby("c_custkey", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def hist_bucket(b: int, c: pa.Table, o) -> pd.DataFrame:
        cust = c.to_pandas()
        if o is not None:
            counts = o.to_pandas().groupby("c_custkey", as_index=False)["n"].sum()
            cust = cust.merge(counts, on="c_custkey", how="left")
            cust["n"] = cust["n"].fillna(0).astype(np.int64)
        else:
            cust["n"] = np.int64(0)  # LEFT semantics: zero-order customers
        g = cust.groupby("n", as_index=False).size()
        return g.rename(columns={"n": "c_count", "size": "n_custs"})

    out = exchange_join(
        shard_list(sf_dir, "customer"), shard_list(sf_dir, "orders"), "c_custkey",
        hist_bucket, num_buckets, left_map=c_map, right_map=o_map,
        columns_left=["c_custkey"], columns_right=["o_custkey"], how="left",
    )
    if not len(out):
        return pd.DataFrame(
            {
                "c_count": pd.Series(dtype=np.int64),
                "n_custs": pd.Series(dtype=np.int64),
            }
        )
    out = out.groupby("c_count", as_index=False)["n_custs"].sum()
    out["n_custs"] = out["n_custs"].astype(np.int64)
    return out.sort_values("c_count").reset_index(drop=True)


Q13_SQL = """
SELECT c_count, count(*) AS n_custs FROM (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY 1
) GROUP BY 1 ORDER BY 1
"""


def lineitem_corr_by_flag(sf_dir: str):
    """Distributed Pearson correlation from EXACT integer moment partials.

    corr(X, Y) needs only (n, Σx, Σy, Σx², Σy², Σxy) — all associative, so
    each shard task emits one 6-tuple per group and the driver folds a
    key-domain-bounded frame (A2 combiner shape; no shuffle). Quantities are
    integers ≤ 50 and discounts 2-decimal (pct ints ≤ 10), so every moment
    stays exact int64 at any SF (Σxy ≤ 500·n). The closed form then runs on
    doubles derived from identical integers with an identical expression
    tree in the SQL oracle → bit-identical floats, immune to the
    accumulation-order divergence a naive float corr would hit."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        d = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "sx": q, "sy": d, "sxx": q * q, "syy": d * d, "sxy": q * d,
            }
        )

    g = shard_groupby_sum(
        sf_dir, "lineitem", ["l_returnflag"],
        {c: c for c in ("sx", "sy", "sxx", "syy", "sxy")},
        count_as="n",
        columns=["l_returnflag", "l_quantity", "l_discount"],
        prep=prep,
    )
    n = g["n"].to_numpy(dtype=np.float64)
    sx = g["sx"].to_numpy(dtype=np.float64)
    sy = g["sy"].to_numpy(dtype=np.float64)
    sxx = g["sxx"].to_numpy(dtype=np.float64)
    syy = g["syy"].to_numpy(dtype=np.float64)
    sxy = g["sxy"].to_numpy(dtype=np.float64)
    corr = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    out = pd.DataFrame({"l_returnflag": g["l_returnflag"], "qty_disc_corr": corr})
    return out.sort_values("l_returnflag").reset_index(drop=True)


CORR_SQL = """
WITH m AS (
  SELECT l_returnflag,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sx,
         CAST(sum(CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE) AS sy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sxx,
         CAST(sum(CAST(round(l_discount * 100) AS BIGINT)
                  * CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE) AS syy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE) AS sxy
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag,
       (n * sxy - sx * sy) / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
         AS qty_disc_corr
FROM m ORDER BY l_returnflag
"""


def rollup_sales_by_flag_status(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) — multi-level subtotals
    from ONE pass of finest-level partials: shard tasks pre-reduce to one
    row per (flag, status) (≤ 6-key domain), the driver folds them and
    derives the coarser levels by re-aggregating the fold (exact int64
    revenue is order-free, so subtotals are bit-identical to a direct
    group). Rolled-up columns surface as 'ALL' on both sides to keep the
    column string-typed."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "rev_i": net_rev_i(b),
            }
        )

    g = shard_groupby_sum(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus"],
        {"rev_i": "rev_i"},
        count_as="n_rows",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
        prep=prep,
    )
    lvl1 = g.groupby("l_returnflag", as_index=False)[["rev_i", "n_rows"]].sum()
    lvl1["l_linestatus"] = "ALL"
    lvl0 = pd.DataFrame(
        {
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "rev_i": [g["rev_i"].sum()], "n_rows": [g["n_rows"].sum()],
        }
    )
    out = pd.concat([g, lvl1, lvl0], ignore_index=True)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["revenue"] = out.pop("rev_i") / 10000.0
    return (
        out[["l_returnflag", "l_linestatus", "n_rows", "revenue"]]
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


ROLLUP_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       count(*) AS n_rows,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
ORDER BY 1, 2
"""


def cube_sales_by_flag_status(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) — the full grouping-sets
    lattice from the SAME single pass of finest-level partials the ROLLUP
    query uses: the driver re-aggregates the ≤6-row fold along each axis
    (exact int64 revenue is order-free, so every subtotal is bit-identical
    to a direct group). Completes the grouping-sets family next to
    ``rollup_sales_by_flag_status``."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "rev_i": net_rev_i(b),
            }
        )

    g = shard_groupby_sum(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus"],
        {"rev_i": "rev_i"},
        count_as="n_rows",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
        prep=prep,
    )
    by_flag = g.groupby("l_returnflag", as_index=False)[["rev_i", "n_rows"]].sum()
    by_flag["l_linestatus"] = "ALL"
    by_status = g.groupby("l_linestatus", as_index=False)[["rev_i", "n_rows"]].sum()
    by_status["l_returnflag"] = "ALL"
    grand = pd.DataFrame(
        {
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "rev_i": [g["rev_i"].sum()], "n_rows": [g["n_rows"].sum()],
        }
    )
    out = pd.concat([g, by_flag, by_status, grand], ignore_index=True)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["revenue"] = out.pop("rev_i") / 10000.0
    return (
        out[["l_returnflag", "l_linestatus", "n_rows", "revenue"]]
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


CUBE_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       count(*) AS n_rows,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)
ORDER BY 1, 2
"""


Q5_SQL = """
SELECT n_name,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name ORDER BY revenue DESC, n_name
"""


def large_order_customers(sf_dir: str, min_qty: float = 250.0, num_buckets: int | None = None):
    """TPC-H Q18-shaped aggregate-HAVING-join: orders whose total lineitem
    quantity exceeds ``min_qty``, joined back to the order header and its
    customer, top-100 by (o_totalprice DESC, o_orderkey). ONE exchange on
    o_orderkey carries both the per-orderkey quantity partials (map-side
    combiner) and the order header, so the HAVING filter and the join run
    in the key-complete bucket; each bucket emits a TIE-AWARE partial
    top-100 (full sort key incl. the unique o_orderkey), so the driver root
    is <= 100 x num_buckets rows at any scale. Quantities ride exact
    integer hundredths (int64) so distributed partial sums are
    order-independent and the HAVING threshold can never flip on a float
    ulp; c_name attaches to the FINAL 100 rows only (dimension lookup)."""
    from ..stages.hashjoin import exchange_join

    qty_i_min = int(round(min_qty * 100))

    def li_map(t: pa.Table) -> pa.Table:
        qty_i = np.rint(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        g = (
            pd.DataFrame(
                {"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                 "qty_i": qty_i}
            )
            .groupby("o_orderkey", as_index=False, sort=False)["qty_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "o_totalprice": t["o_totalprice"],
            }
        )

    def reduce_fn(b: int, li: pa.Table, orders: pa.Table) -> pd.DataFrame:
        g = li.to_pandas().groupby("o_orderkey", as_index=False)["qty_i"].sum()
        g = g[g.qty_i > qty_i_min]
        if not len(g):
            return pd.DataFrame()
        j = g.merge(orders.to_pandas(), on="o_orderkey")
        return j.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(100)

    out = exchange_join(
        shard_list(sf_dir, "lineitem"),
        shard_list(sf_dir, "orders"),
        "o_orderkey",
        reduce_fn,
        num_buckets,
        left_map=li_map,
        right_map=o_map,
        columns_left=["l_orderkey", "l_quantity"],
        columns_right=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    if not len(out):
        return pd.DataFrame(
            {
                "c_name": pd.Series(dtype=object),
                "o_orderkey": pd.Series(dtype=np.int64),
                "o_totalprice": pd.Series(dtype=float),
                "sum_qty": pd.Series(dtype=float),
            }
        )
    out = out.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True]
    ).head(100)
    cust = read_small(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out = out.merge(cust, left_on="o_custkey", right_on="c_custkey")
    # exact int64 / 100.0 on both sides -> bit-identical doubles
    out["sum_qty"] = out.pop("qty_i") / 100.0
    return (
        out[["c_name", "o_orderkey", "o_totalprice", "sum_qty"]]
        .sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


Q18_SQL = """
WITH q AS (
  SELECT l_orderkey, sum(CAST(round(l_quantity * 100) AS BIGINT)) AS qty_i
  FROM lineitem GROUP BY 1
  HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 25000
)
SELECT c_name, o_orderkey, o_totalprice, qty_i / 100.0 AS sum_qty
FROM q JOIN orders ON l_orderkey = o_orderkey
       JOIN customer ON o_custkey = c_custkey
ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
"""


def returned_item_revenue(sf_dir: str, num_buckets: int | None = None):
    """TPC-H Q10-shaped: revenue from RETURNED (l_returnflag='R') items per
    customer inside a 6-month order window, top-20 customers. Hop 1
    exchanges on o_orderkey — the returnflag predicate pushes into the
    lineitem scan and rows pre-aggregate to per-orderkey revenue partials
    map-side, while a bloom over the date-window orderkeys (one extra
    pruned scan of orders) drops non-window fact partials BEFORE the
    shuffle; hop 2 rebuckets the per-(custkey) partials on o_custkey so
    every bucket holds each customer COMPLETELY and can emit a tie-aware
    partial top-20 — the driver root is <= 20 x num_buckets rows, never the
    customer domain. Names/nations attach to the final 20 rows only.
    Revenue rides exact integer ten-thousandths (int64, see
    urgent_order_month_revenue) so partial sums are order-independent."""
    import pyarrow.dataset as pds

    from ..stages.exchange import exchange_map, reduce_grid
    from ..stages.hashjoin import BLOOM_BITS, BLOOM_HASHES, bloom_probe, build_key_bloom

    num_buckets = exchange_buckets(sf_dir, ("lineitem", "orders"), num_buckets)

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-07-01")
    date_filter = (pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi)

    bits = ray.put(
        build_key_bloom(
            shard_list(sf_dir, "orders"), "o_orderkey",
            columns=["o_orderkey"], filters=date_filter,
        )
    )

    def li_map(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(bloom_probe(okey, ray.get(bits), BLOOM_BITS, BLOOM_HASHES)))
        g = (
            pd.DataFrame(
                {"o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                 "rev_i": net_rev_i(t)}
            )
            .groupby("o_orderkey", as_index=False, sort=False)["rev_i"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def o_map(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]}
        )

    bucket_okey = partial(key_bucket, key="o_orderkey", num_buckets=num_buckets)

    li_grid = exchange_map(
        shard_list(sf_dir, "lineitem"), li_map, bucket_okey, num_buckets,
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filters=pds.field("l_returnflag") == "R",
    )
    o_grid = exchange_map(
        shard_list(sf_dir, "orders"), o_map, bucket_okey, num_buckets,
        columns=["o_orderkey", "o_custkey"],
        filters=date_filter,
    )

    def join1(b: int, li: pa.Table, o: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(o.to_pandas(), on="o_orderkey")
        g = j.groupby("o_custkey", as_index=False, sort=False)["rev_i"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    hop1 = reduce_grid(join1, num_buckets, li_grid, o_grid, emit="refs")
    grid2 = exchange_map(
        hop1, None, partial(key_bucket, key="o_custkey", num_buckets=num_buckets), num_buckets
    )

    def topk_bucket(b: int, t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().groupby("o_custkey", as_index=False)["rev_i"].sum()
        # custkey-complete bucket -> tie-aware partial top-20 is exact
        return g.sort_values(
            ["rev_i", "o_custkey"], ascending=[False, True]
        ).head(20)

    out = reduce_grid(topk_bucket, num_buckets, grid2)
    if not len(out):
        return pd.DataFrame(
            {
                "c_name": pd.Series(dtype=object),
                "c_acctbal": pd.Series(dtype=float),
                "n_name": pd.Series(dtype=object),
                "revenue": pd.Series(dtype=float),
            }
        )
    out = out.sort_values(["rev_i", "o_custkey"], ascending=[False, True]).head(20)
    cust = read_small(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
    )
    nat = read_small(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    out = out.merge(cust, left_on="o_custkey", right_on="c_custkey").merge(
        nat, left_on="c_nationkey", right_on="n_nationkey"
    )
    out = out.sort_values(["rev_i", "o_custkey"], ascending=[False, True])
    # exact int64 / 10000.0 on both sides -> bit-identical doubles
    out["revenue"] = out.pop("rev_i") / 10000.0
    return out[["c_name", "c_acctbal", "n_name", "revenue"]].reset_index(drop=True)


Q10_SQL = """
WITH rev AS (
  SELECT o_custkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev_i
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE l_returnflag = 'R'
    AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1996-07-01'
  GROUP BY 1
)
SELECT c_name, c_acctbal, n_name, rev_i / 10000.0 AS revenue
FROM rev JOIN customer ON o_custkey = c_custkey
         JOIN nation ON c_nationkey = n_nationkey
ORDER BY rev_i DESC, o_custkey LIMIT 20
"""


QUERIES = {
    "monthly_order_revenue": monthly_order_revenue,
    "monthly_revenue_cumshare": monthly_revenue_cumshare,
    "urgent_order_month_revenue": urgent_order_month_revenue,
    "q1_pricing_summary": q1_pricing_summary,
    "q3_top_orders": q3_top_orders,
    "q5_region_nation_revenue": q5_region_nation_revenue,
    "large_order_customers": large_order_customers,
    "returned_item_revenue": returned_item_revenue,
    "nation_pair_trade": nation_pair_trade,
    "priority_ship_lag_counts": priority_ship_lag_counts,
    "late_order_priority_counts": late_order_priority_counts,
    "rich_customers_without_orders": rich_customers_without_orders,
    "customer_order_distribution": customer_order_distribution,
    "lineitem_corr_by_flag": lineitem_corr_by_flag,
    "rollup_sales_by_flag_status": rollup_sales_by_flag_status,
    "cube_sales_by_flag_status": cube_sales_by_flag_status,
    "part_type_revenue_share": part_type_revenue_share,
    "small_quantity_revenue": small_quantity_revenue,
    "customers_per_region": customers_per_region,
    "top_customers_by_max_order": top_customers_by_max_order,
    "distinct_segments": distinct_segments,
    "event_type_counts": event_type_counts,
    "value_quantiles": value_quantiles,
    "value_median_exact": value_median_exact,
    "grouped_value_quantiles": grouped_value_quantiles,
    "customers_without_orders": customers_without_orders,
    "segment_urgent_coverage": segment_urgent_coverage,
    "building_order_stats": building_order_stats,
    "mpds_scaled_orders": mpds_scaled_orders,
    "kfold_counts": kfold_counts,
}

ORACLE = {
    "monthly_order_revenue": MONTHLY_REVENUE_SQL,
    "monthly_revenue_cumshare": CUMSHARE_SQL,
    "urgent_order_month_revenue": URGENT_REVENUE_SQL,
    "q1_pricing_summary": Q1_SQL,
    "q3_top_orders": Q3_SQL,
    "q5_region_nation_revenue": Q5_SQL,
    "large_order_customers": Q18_SQL,
    "returned_item_revenue": Q10_SQL,
    "nation_pair_trade": Q7_SQL,
    "priority_ship_lag_counts": Q12_SQL,
    "late_order_priority_counts": Q4_SQL,
    "rich_customers_without_orders": Q22_SQL,
    "customer_order_distribution": Q13_SQL,
    "lineitem_corr_by_flag": CORR_SQL,
    "rollup_sales_by_flag_status": ROLLUP_SQL,
    "cube_sales_by_flag_status": CUBE_SQL,
    "part_type_revenue_share": Q14_SHARE_SQL,
    "small_quantity_revenue": Q17_SQL,
    "customers_per_region": REGION_SQL,
    "top_customers_by_max_order": TOP_CUST_SQL,
    "distinct_segments": DISTINCT_SQL,
    "event_type_counts": EVENT_COUNTS_SQL,
    "value_quantiles": QUANTILES_SQL,
    "value_median_exact": MEDIAN_EXACT_SQL,
    "grouped_value_quantiles": GROUPED_QUANTILES_SQL,
    "customers_without_orders": ANTI_JOIN_SQL,
    "segment_urgent_coverage": SEGMENT_URGENT_SQL,
    "building_order_stats": BUILDING_SQL,
    "mpds_scaled_orders": MPDS_SQL,
    "kfold_counts": KFOLD_SQL,
}
