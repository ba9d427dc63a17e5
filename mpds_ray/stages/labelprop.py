"""Distributed connected components via iterative min-label propagation.

The scale path for near-dup clustering (pipelines/traindata.py:dup_clusters):
when the verified-pair set outgrows one node, a driver union-find is no
longer an option. Min-label propagation needs only bucketed exchanges:

    state   : labels (node -> current component label), hash-bucketed by node
    iterate : edges bucketed by SOURCE endpoint join their bucket's labels ->
              candidate label (u's label) for each neighbour v -> candidates
              re-bucket by v -> per-bucket min-fold against current labels
    stop    : no label changed anywhere (per-bucket changed flags OR-folded)

Every structure is bucketed by node hash; per-iteration traffic is one
(node, label) row per edge — never the node or edge set on one task. Each
iteration is one edge-propagation round PLUS one pointer-doubling round
(label(node) <- label(label(node)), itself two bucketed hops), so
convergence is O(log diameter) iterations, not O(diameter) — a 10^6-node
template chain converges in ~20 rounds instead of overflowing any fixed
iteration budget (ADVICE r3). If labels are still changing after
``MAX_ITERS`` iterations the function RAISES instead of silently returning a
partially-propagated clustering.

Node ids are int64; labels start as the node id, so the fixpoint label is
the component MINIMUM node id — identical to the union-find contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .exchange import auto_num_buckets
from .partition import stable_bucket

# each iteration halves the remaining label-tree depth, so 64 covers any
# real graph
MAX_ITERS = 64


@ray.remote
def _propose(edges: pd.DataFrame, labels: pd.DataFrame, num_buckets: int):
    """One edge bucket (bucketed by u) x its label bucket -> per-target-bucket
    candidate (node=v, label=lbl(u)) tables."""
    lbl = edges.merge(labels, left_on="u", right_on="node", how="left")
    cand = pd.DataFrame({"node": lbl["v"].to_numpy(), "label": lbl["label"].to_numpy()})
    cand = cand.groupby("node", as_index=False)["label"].min()
    b = stable_bucket(cand["node"].to_numpy(), num_buckets)
    return tuple(cand[b == i] for i in range(num_buckets)) if num_buckets > 1 else cand


@ray.remote
def _fold(labels: pd.DataFrame, *cands: pd.DataFrame):
    """Min-fold candidate labels into one label bucket; returns (new labels,
    changed?)."""
    nonempty = [c for c in cands if len(c)]
    if not nonempty:
        return labels, False
    allc = pd.concat([labels] + [c.rename(columns={"label": "label"}) for c in nonempty])
    new = allc.groupby("node", as_index=False)["label"].min()
    merged = labels.merge(new, on="node", suffixes=("_old", ""))
    changed = bool((merged["label"] < merged["label_old"]).any())
    return new, changed


@ray.remote
def _shortcut_request(labels: pd.DataFrame, num_buckets: int):
    """Pointer-doubling hop 1: each (node, label) row asks the bucket OWNING
    ``label`` (labels are node ids, so owner = hash(label)) for label(label)."""
    b = stable_bucket(labels["label"].to_numpy(), num_buckets)
    return tuple(labels[b == i] for i in range(num_buckets)) if num_buckets > 1 else labels


@ray.remote
def _shortcut_answer(labels: pd.DataFrame, num_buckets: int, *reqs: pd.DataFrame):
    """Pointer-doubling hop 2: answer label(label) lookups against THIS label
    bucket and route (node, label(label)) candidates back by hash(node)."""
    nonempty = [r for r in reqs if len(r)]
    empty = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                          "label": pd.Series([], dtype="int64")})
    if not nonempty:
        return tuple([empty] * num_buckets) if num_buckets > 1 else empty
    r = pd.concat(nonempty, ignore_index=True)
    m = r.merge(labels, left_on="label", right_on="node",
                how="inner", suffixes=("", "_owner"))
    cand = pd.DataFrame({"node": m["node"].to_numpy(),
                         "label": m["label_owner"].to_numpy()})
    cand = cand.groupby("node", as_index=False)["label"].min()
    b = stable_bucket(cand["node"].to_numpy(), num_buckets)
    return tuple(cand[b == i] for i in range(num_buckets)) if num_buckets > 1 else cand


def connected_components_labelprop(pairs: pd.DataFrame) -> pd.DataFrame:
    """(doc_a, doc_b) edge list -> (doc_id, cluster_id=min node id of its
    component), for nodes appearing in at least one edge. Semantics identical
    to the driver union-find; structure is bucketed exchanges only, sized
    from the pairs frame's bytes. Raises ``RuntimeError`` if not converged
    within ``MAX_ITERS`` iterations."""
    max_iters = MAX_ITERS
    num_buckets = auto_num_buckets(int(pairs.memory_usage(deep=True).sum()))
    a = pairs["doc_a"].to_numpy(dtype=np.int64)
    b = pairs["doc_b"].to_numpy(dtype=np.int64)
    # undirected: propagate both ways
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    eb = stable_bucket(u, num_buckets)
    edge_refs = [
        ray.put(pd.DataFrame({"u": u[eb == i], "v": v[eb == i]}))
        for i in range(num_buckets)
    ]
    nodes = np.unique(u)
    nb = stable_bucket(nodes, num_buckets)
    label_refs = [
        ray.put(pd.DataFrame({"node": nodes[nb == i], "label": nodes[nb == i]}))
        for i in range(num_buckets)
    ]

    converged = False
    for _ in range(max_iters):
        # propose: edge bucket i needs label bucket i (both bucketed by u)
        proposals = [
            _propose.options(num_returns=num_buckets).remote(
                edge_refs[i], label_refs[i], num_buckets
            )
            for i in range(num_buckets)
        ]
        if num_buckets == 1:
            proposals = [[p] for p in proposals]
        # fold: label bucket j consumes candidates[i][j] for all i
        folded = [
            _fold.options(num_returns=2).remote(
                label_refs[j], *[proposals[i][j] for i in range(num_buckets)]
            )
            for j in range(num_buckets)
        ]
        label_refs = [f[0] for f in folded]
        edge_changed = ray.get([f[1] for f in folded])

        # pointer doubling: label(node) <- label(label(node)) — two bucketed
        # hops; cuts remaining convergence from O(diameter) to O(log diameter)
        requests = [
            _shortcut_request.options(num_returns=num_buckets).remote(
                label_refs[i], num_buckets
            )
            for i in range(num_buckets)
        ]
        if num_buckets == 1:
            requests = [[r] for r in requests]
        answers = [
            _shortcut_answer.options(num_returns=num_buckets).remote(
                label_refs[j], num_buckets, *[requests[i][j] for i in range(num_buckets)]
            )
            for j in range(num_buckets)
        ]
        if num_buckets == 1:
            answers = [[a] for a in answers]
        folded2 = [
            _fold.options(num_returns=2).remote(
                label_refs[j], *[answers[i][j] for i in range(num_buckets)]
            )
            for j in range(num_buckets)
        ]
        label_refs = [f[0] for f in folded2]
        jump_changed = ray.get([f[1] for f in folded2])
        if not (any(edge_changed) or any(jump_changed)):
            converged = True
            break

    if not converged:
        raise RuntimeError(
            f"connected_components_labelprop did not converge in {max_iters} "
            "iterations — with pointer doubling this needs a label-tree deeper "
            f"than 2^{max_iters}; the edge list is likely growing under the fold "
            "or the input is being mutated concurrently"
        )

    out = pd.concat(ray.get(list(label_refs)), ignore_index=True)
    return (
        out.rename(columns={"node": "doc_id", "label": "cluster_id"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
