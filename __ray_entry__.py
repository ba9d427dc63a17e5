"""Driver contract for the mpds_ray engine (plain Ray tasks).

``entry()`` runs the flagship pipeline (tokenize -> windowed token stats ->
entity-complete shuffle -> sessionize/lag/as-of/backfill) on sf0.001.
``queries()`` exposes the operator surface of SURVEY.md §2 (relational,
longitudinal/events, text/dedup, embedding ANN); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible entry (identical column
names and float rounding). Ray is initialised by the caller — nothing here
calls ``ray.init()``/``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship on sf0.001: documents -> tokens shards -> windowed stats ->
    entity hash exchange -> sessionize -> as-of join to synthetic score
    timestamps -> backfill. Returns the features as a DataFrame."""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mpds_ray.pipelines.flagship import run_flagship_exchange, write_doc_tokens

    sf_dir = "/root/testdata/sf0.001"
    # entity = source (few entities, many rows each -> exercises sessions);
    # synthesize deterministic score timestamps per source entity
    rng = np.random.default_rng(7)
    srcs = [f"src{i}" for i in range(20)]
    scores = pa.table(
        {
            "source": pa.array(np.repeat(srcs, 5)),
            "ts": pa.array(rng.integers(0, 1_000_000, 100, dtype=np.int64)),
            "score": pa.array(rng.normal(50, 15, 100)),
        }
    )
    with tempfile.TemporaryDirectory(prefix="flagship-entry-") as tmp:
        write_doc_tokens([f"{sf_dir}/documents.parquet"], f"{tmp}/tokens")
        pq.write_table(scores, f"{tmp}/scores.parquet")
        return run_flagship_exchange(
            f"{tmp}/tokens", f"{tmp}/scores.parquet", entity="source", ts="ts",
            session_gap=50_000.0, tolerance=None,
        )


# Round-5 gate head (the driver truncates its CORRECTNESS gate at the first
# 50 enumerated queries). Composition, in priority order (VERDICT r4 'Next
# round' #2 + ADVICE r4 #4):
#   1-7   the seven queries that never earned a driver-green row in r1-r4
#         (X21/X24/X25/X36/X37/X42 were never gated; X88 user_feature_matrix
#         was red in r4 and is re-gated after the int-cents fix);
#   8-12  NEW this round: session_spectral_features (drives the W9/W10/W11
#         DFA / Lomb-Scargle / Welch-pitch kernel block through a driver-
#         gated independent golden, VERDICT r4 'Next round' #7), plus the
#         X91-X94 operators (rolling median, PPS sampling, containment
#         join, rolling distinct count);
#   13-17 canaries: previously-green queries whose code or oracle this
#         round's diff touches (user_event_pivot oracle restated in
#         int-cents; similar_pairs_exact fan-out de-hardcoded and
#         minhash_dup_candidates shares its verify tail;
#         approx_distinct_users_by_type / flagship_session_summary got the
#         ADVICE r4 precondition asserts);
#   18-50 rounds-1-3 greens — the OLDEST gate evidence on record (every r4
#         green was just re-proven last round), refreshed here so a silent
#         regression in the mature surface stays driver-visible.
_R5_GATE_HEAD = (
    # --- never driver-green (r1-r4) ---
    "user_feature_matrix", "latest_event_per_user_type",
    "nearest_purchase_for_views", "user_value_trend",
    "views_before_purchase", "rolling_value_mean", "event_value_zscore",
    # --- new this round ---
    "session_spectral_features", "rolling_value_median",
    "group_weighted_sample", "contained_pairs_exact",
    "rolling_distinct_types",
    # --- canaries for this round's diff ---
    "user_event_pivot", "similar_pairs_exact", "minhash_dup_candidates",
    "approx_distinct_users_by_type", "flagship_session_summary",
    # --- rounds-1-3 greens, oldest evidence first ---
    "q1_pricing_summary", "q3_top_orders", "q5_region_nation_revenue",
    "monthly_order_revenue", "large_order_customers",
    "returned_item_revenue", "nation_pair_trade", "priority_ship_lag_counts",
    "rich_customers_without_orders", "customer_order_distribution",
    "lineitem_corr_by_flag", "rollup_sales_by_flag_status",
    "cube_sales_by_flag_status", "part_type_revenue_share",
    "top_customers_by_max_order", "event_type_counts", "value_quantiles",
    "value_median_exact", "grouped_value_quantiles",
    "customers_without_orders", "building_order_stats", "mpds_scaled_orders",
    "kfold_counts", "value_histogram", "approx_distinct_users",
    "top_users_per_event_type", "sessionize_user_events", "session_funnel",
    "user_value_lag_lead", "user_mode_event_type", "user_value_percent_rank",
    "user_time_weighted_value", "user_value_ewma",
)


def queries() -> dict[str, Callable[[str], Any]]:
    from mpds_ray.pipelines import (
        dssl_pipe, eventspipe, flagship, knn, media, relational, text,
        traindata,
    )

    merged: dict[str, Callable[[str], Any]] = {}
    merged.update(flagship.QUERIES)
    merged.update(text.QUERIES)
    merged.update(knn.QUERIES)
    merged.update(dssl_pipe.QUERIES)
    merged.update(media.QUERIES)
    merged.update(traindata.QUERIES)
    merged.update(eventspipe.QUERIES)
    merged.update(relational.QUERIES)

    # explicit round-5 head (see _R5_GATE_HEAD rationale above), then the
    # remaining surface in module order — every name past the driver's
    # 50-row truncation already carries a round-4 green row
    out: dict[str, Callable[[str], Any]] = {}
    for name in _R5_GATE_HEAD:
        if name in merged:
            out[name] = merged[name]
    for name, fn in merged.items():
        if name not in out:
            out[name] = fn
    return out


def oracle_sql() -> dict[str, str]:
    from mpds_ray.oracle.golden import golden_oracles
    from mpds_ray.pipelines import (
        eventspipe, flagship, knn, relational, text, traindata,
    )

    out: dict[str, str] = {}
    out.update(flagship.ORACLE)
    out.update(relational.ORACLE)
    out.update(eventspipe.ORACLE)
    out.update(text.ORACLE)
    out.update(knn.ORACLE)
    out.update(traindata.ORACLE)
    # non-SQL-expressible sketches/ML: committed golden-parquet regression
    # oracles (see mpds_ray/oracle/golden.py for what they do and don't prove)
    out.update(golden_oracles())
    return out
