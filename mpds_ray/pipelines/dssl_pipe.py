"""DSSL training pipeline over the events table (entry point B/C shapes,
SURVEY §3.2/3.3): build a design matrix with Ray, generate pair tables,
gather diff matrices, train the linear DSSL on the collected sample, score
the full dataset distributed (M11 broadcast mat-vec), evaluate per-user
(A1 + A6/A7).

Design matrix: one row per event, features = [value, secs_since_prev,
cum_value, hour_of_day], target proxy = purchase indicator. Order pairs:
(purchase row, view row) within a user (purchases rank higher); smoothness
pairs: consecutive same-user rows. Pair sampling is seeded (cap 10N).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.dssl import (
    calculate_diff_matrix,
    make_smoothness_pairs,
    subsample_pairs,
    train_dssl_linear,
)
from ..functions.metrics import auc, sign_agreement_accuracy
from ..stages.scans import prefix_features, time_since_to_event
from .eventspipe import _per_bucket_events

FEATURES = ["value", "secs_since_prev", "cum_value", "hour_of_day"]


TRAIN_ROW_CAP = 500_000


def build_design_matrix(sf_dir: str) -> pd.DataFrame:
    """Distributed feature build (the scans run per bucket), collected as the
    TRAINING design matrix — mirrors the notebook's dataset.csv load (cells
    2-16). SURVEY L1 licenses training on a collected SAMPLE: when the events
    table exceeds ``TRAIN_ROW_CAP`` rows (parquet metadata, no scan), a
    deterministic user-hash slice is taken so the collect stays bounded and
    seed-stable; scoring remains fully distributed (the tested Scorer actor).
    At driver/test scale every row survives, so outputs are reproducible."""
    from .common import table_num_rows

    n_rows = table_num_rows(sf_dir, "events")
    mod = max(1, int(np.ceil(n_rows / TRAIN_ROW_CAP)))

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if mod > 1:
            u = g["user_id"].to_numpy().astype(np.uint64)
            u = (u * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
            g = g[(u % np.uint64(mod)) == 0]
            if not len(g):
                return pd.DataFrame(
                    {
                        "user_id": pd.Series([], dtype="int64"),
                        "ts": pd.Series([], dtype="float64"),
                        "event_id": pd.Series([], dtype="int64"),
                        "is_purchase": pd.Series([], dtype="int64"),
                        "value": pd.Series([], dtype="float64"),
                        "secs_since_prev": pd.Series([], dtype="float64"),
                        "cum_value": pd.Series([], dtype="float64"),
                        "hour_of_day": pd.Series([], dtype="float64"),
                    }
                )
        ids = g["user_id"].to_numpy()
        t = g["ts"].to_numpy()
        lag = time_since_to_event(ids, t, np.ones(len(g), dtype=np.int64))
        pf = prefix_features(ids, t, g["value"].to_numpy())
        return pd.DataFrame(
            {
                "user_id": ids,
                "ts": t,
                "event_id": g["event_id"],
                "is_purchase": (g["event_type"] == "purchase").astype(np.int64),
                "value": g["value"],
                "secs_since_prev": np.nan_to_num(lag["time_since_last_event"], nan=0.0),
                "cum_value": pf["cumsum"],
                "hour_of_day": (t % 86_400.0) / 3_600.0,
            }
        )

    df = _per_bucket_events(sf_dir, ["event_type", "value"], fn)
    return df.sort_values(["user_id", "ts"]).reset_index(drop=True)


ORDER_PAIR_CAP = 5000
ORDER_PAIR_SEED = 42


def make_order_pairs_events(df: pd.DataFrame) -> np.ndarray:
    """(purchase, view) index pairs within each user — the 'higher stage'
    row first (dssGenerateClinicalComparisons shape, dssFunctionLibrary.R:119-171)."""
    pairs = []
    for _, g in df.groupby("user_id", sort=False):
        p_idx = g.index[g["is_purchase"] == 1].to_numpy()
        v_idx = g.index[g["is_purchase"] == 0].to_numpy()
        if p_idx.size and v_idx.size:
            # bounded cross product per user
            pp, vv = np.meshgrid(p_idx[:20], v_idx[:20], indexing="ij")
            pairs.append(np.column_stack([pp.ravel(), vv.ravel()]))
    allp = np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
    return subsample_pairs(allp, ORDER_PAIR_CAP, ORDER_PAIR_SEED)


def zscale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    sd = x.std(axis=0, ddof=0)
    sd[sd == 0] = 1.0
    return (x - mu) / sd, mu, sd


# DSSL regularization weights of the order and smoothness terms
CREG1 = 10.0
CREG2 = 1.0


def train_and_score(sf_dir: str) -> dict:
    df = build_design_matrix(sf_dir)
    x, mu, sd = zscale(df[FEATURES].to_numpy(dtype=np.float64))

    order_pairs = make_order_pairs_events(df)
    smooth_pairs = subsample_pairs(make_smoothness_pairs(df["user_id"].to_numpy()), 20_000)
    diff_o = calculate_diff_matrix(x, order_pairs)
    diff_s = calculate_diff_matrix(x, smooth_pairs)
    ts_arr = df["ts"].to_numpy()
    dt_s = np.maximum(np.abs(ts_arr[smooth_pairs[:, 0]] - ts_arr[smooth_pairs[:, 1]]), 1.0)

    w = train_dssl_linear(diff_o, diff_s, dt_s, mu_o=1.0, h=0.5, creg1=CREG1, creg2=CREG2)

    scores = x @ w  # M11 linear scoring (distributed form: broadcast w,
    # per-shard mat-vec — exercised in tests; collected here for eval)
    df["score"] = scores
    train_acc = sign_agreement_accuracy(diff_o @ w)
    per_user_max = df.groupby("user_id")["score"].max()  # A1
    user_has_purchase = df.groupby("user_id")["is_purchase"].max()
    try:
        user_auc = auc(user_has_purchase.to_numpy(), per_user_max.to_numpy())
    except ZeroDivisionError:
        user_auc = float("nan")
    return {
        "weights": w,
        "features": FEATURES,
        "train_pair_accuracy": train_acc,
        "per_user_auc": user_auc,
        "scores": df[["event_id", "score"]],
    }


def dssl_weights(sf_dir: str) -> pd.DataFrame:
    """queries() entry (rows-only): deterministic learned weights."""
    res = train_and_score(sf_dir)
    return pd.DataFrame(
        {
            "feature": res["features"],
            "weight": np.round(res["weights"], 6),
        }
    )


QUERIES = {"dssl_weights": dssl_weights}
ORACLE: dict[str, str] = {}
