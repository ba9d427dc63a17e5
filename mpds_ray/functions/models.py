"""Model-selection utilities (SURVEY L2/L5, O5).

- :func:`logistic_regression`: L2-regularized logistic fit by Newton-damped
  gradient descent (glmnet stand-in, dssFunctionLibrary.R:958-998) — the
  reference's alpha/lambda grid + validation-AUC argmax model select is
  :func:`select_by_validation_auc`.
- :func:`balanced_stage_pairs`: per-entity (higher-stage, lower-stage) pair
  generation with a minimum time gap (dssFunctionLibrary.R:57-104), seeded.
- :func:`grid_sweep_ray`: the L2 hyper-parameter sweep shape — one Ray task
  per (config) with checkpointed results, replacing foreach %dopar%
  (dssFunctionLibrary.R:416-435).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import ray

from .metrics import auc


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def logistic_regression(
    x: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-3,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> np.ndarray:
    """Deterministic L2 logistic regression (bias term appended last)."""
    x = np.column_stack([np.asarray(x, dtype=np.float64), np.ones(len(x))])
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(x.shape[1])
    step = 1.0
    n = len(y)
    reg = np.r_[np.full(x.shape[1] - 1, l2), 0.0]  # don't penalize bias

    def loss_grad(w):
        p = _sigmoid(x @ w)
        eps = 1e-12
        ll = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        g = x.T @ (p - y) / n + reg * w
        return ll + 0.5 * float(reg @ (w * w)), g

    val, g = loss_grad(w)
    for _ in range(max_iter):
        gn = float(g @ g)
        if gn < tol:
            break
        step = min(step * 2, 100.0)
        while step > 1e-12:
            w2 = w - step * g
            v2, g2 = loss_grad(w2)
            if v2 <= val - 1e-4 * step * gn:
                break
            step *= 0.5
        if abs(val - v2) < tol * max(1.0, abs(val)):
            w, val, g = w2, v2, g2
            break
        w, val, g = w2, v2, g2
    return w


def predict_proba(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.column_stack([np.asarray(x, dtype=np.float64), np.ones(len(x))])
    return _sigmoid(x @ w)


def select_by_validation_auc(
    x_tr, y_tr, x_va, y_va, l2_grid=(1e-4, 1e-3, 1e-2, 1e-1, 1.0)
) -> dict:
    """L5 model select: fit per lambda, keep the validation-AUC argmax
    (dssFunctionLibrary.R:1507-1603 shape)."""
    best = None
    for l2 in l2_grid:
        w = logistic_regression(x_tr, y_tr, l2=l2)
        a = auc(y_va, predict_proba(w, x_va))
        if best is None or a > best["auc"]:
            best = {"l2": l2, "auc": a, "weights": w}
    return best


def balanced_stage_pairs(
    ids: np.ndarray,
    ht: np.ndarray,
    stage: np.ndarray,
    min_ht_gap: float = 0.0,
    per_combo_cap: int = 50,
    seed: int = 42,
) -> np.ndarray:
    """O5 (dssFunctionLibrary.R:57-104): within each entity, for every
    (higher stage, lower stage) combination, emit (row_high, row_low) index
    pairs with |Δht| >= min_ht_gap, capped per combo with a seeded sample."""
    ids = np.asarray(ids)
    ht = np.asarray(ht, dtype=np.float64)
    stage = np.asarray(stage)
    rng = np.random.default_rng(seed)
    pairs: list[np.ndarray] = []
    uniq, starts = np.unique(ids, return_index=True)
    ends = np.r_[starts[1:], ids.size]
    for s, e in zip(starts, ends):
        seg_stage = stage[s:e]
        seg_ht = ht[s:e]
        levels = np.unique(seg_stage)
        for i_hi in levels:
            for i_lo in levels:
                if i_hi <= i_lo:
                    continue
                hi_idx = np.flatnonzero(seg_stage == i_hi)
                lo_idx = np.flatnonzero(seg_stage == i_lo)
                hh, ll = np.meshgrid(hi_idx, lo_idx, indexing="ij")
                cand = np.column_stack([hh.ravel(), ll.ravel()])
                ok = np.abs(seg_ht[cand[:, 0]] - seg_ht[cand[:, 1]]) >= min_ht_gap
                cand = cand[ok]
                if len(cand) > per_combo_cap:
                    cand = cand[rng.choice(len(cand), per_combo_cap, replace=False)]
                pairs.append(cand + s)
    return (
        np.unique(np.concatenate(pairs), axis=0)
        if pairs and any(len(p) for p in pairs)
        else np.empty((0, 2), dtype=np.int64)
    )


def grid_sweep_ray(
    configs: list[dict],
    train_fn: Callable[[dict], dict],
    checkpoint_path: str | None = None,
) -> list[dict]:
    """L2 distributed hyper-parameter sweep: one Ray task per config (the
    foreach %dopar% replacement), results checkpointed per combo so a rerun
    skips completed configs (the reference's save(model_obj) per lambda)."""
    import json
    import os

    done: dict[str, dict] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as f:
            for line in f:
                rec = json.loads(line)
                done[rec["config_key"]] = rec

    keys = [json.dumps(c, sort_keys=True) for c in configs]
    pending = {
        k: _run_config.remote(c, train_fn) for k, c in zip(keys, configs) if k not in done
    }
    results = []
    for k in keys:
        if k in done:
            results.append(done[k])
            continue
        res = ray.get(pending[k])
        rec = {"config_key": k, **{kk: vv for kk, vv in res.items() if _jsonable(vv)}}
        if checkpoint_path:
            with open(checkpoint_path, "a") as f:
                f.write(json.dumps(rec) + "\n")
        results.append(rec)
    return results


@ray.remote
def _run_config(cfg: dict, train_fn: Callable[[dict], dict]) -> dict:
    """``grid_sweep_ray``'s task: train one config."""
    out = train_fn(cfg)
    out["config"] = cfg
    return out


def _jsonable(v) -> bool:
    import json

    try:
        json.dumps(v)
        return True
    except (TypeError, ValueError):
        return False
