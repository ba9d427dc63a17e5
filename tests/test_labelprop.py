"""Distributed min-label-propagation CC vs an independent union-find —
identical labels on random graphs, chains (worst-case diameter), and the
dup_clusters pipeline's own pair output."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from conftest import force_buckets

from mpds_ray.pipelines import traindata
from mpds_ray.stages import labelprop
from mpds_ray.stages.labelprop import connected_components_labelprop

rng = np.random.default_rng(11)


def uf_components(pairs: pd.DataFrame) -> pd.DataFrame:
    """Independent plain-Python union-find oracle."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = [(n, find(n)) for n in parent]
    return (
        pd.DataFrame(rows, columns=["doc_id", "cluster_id"])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


@pytest.fixture
def derived(monkeypatch):
    """The bucket counts ``connected_components_labelprop`` derived."""
    seen = []
    rule = labelprop.auto_num_buckets
    monkeypatch.setattr(labelprop, "auto_num_buckets", lambda b: seen.append(rule(b)) or seen[-1])
    return seen


def labelprop_at(pairs: pd.DataFrame, num_buckets: int, monkeypatch, derived) -> pd.DataFrame:
    """``connected_components_labelprop`` with its bucket count forced."""
    force_buckets(monkeypatch, num_buckets)
    got = connected_components_labelprop(pairs)
    assert derived[-1] == num_buckets
    return got


class TestLabelProp:
    def test_random_graphs_match_union_find(self, ray_session, monkeypatch, derived):
        for trial in range(5):
            n_nodes = int(rng.integers(5, 60))
            n_edges = int(rng.integers(1, 80))
            a = rng.integers(0, n_nodes, n_edges)
            b = rng.integers(0, n_nodes, n_edges)
            pairs = pd.DataFrame({"doc_a": a, "doc_b": b})
            got = labelprop_at(pairs, int(rng.integers(1, 6)), monkeypatch, derived)
            pd.testing.assert_frame_equal(got, uf_components(pairs))

    def test_long_chain_worst_case_diameter(self, ray_session, monkeypatch, derived):
        """A 40-node path graph: the min label must walk the whole chain."""
        n = 40
        pairs = pd.DataFrame({"doc_a": np.arange(n - 1), "doc_b": np.arange(1, n)})
        got = labelprop_at(pairs, 3, monkeypatch, derived)
        assert (got["cluster_id"] == 0).all()
        assert len(got) == n

    def test_chain_deeper_than_iteration_budget(self, ray_session, monkeypatch, derived, tasks):
        """ADVICE r3: a chain LONGER than MAX_ITERS used to return a silently
        partial clustering (one-hop propagation). With pointer doubling a
        500-node path converges within ~log2(500)+2 iterations."""
        n = 500
        pairs = pd.DataFrame({"doc_a": np.arange(n - 1), "doc_b": np.arange(1, n)})
        monkeypatch.setattr(labelprop, "MAX_ITERS", 14)
        got = labelprop_at(pairs, 3, monkeypatch, derived)
        assert (got["cluster_id"] == 0).all()
        assert tasks["_propose"] <= 14 * 3  # one per bucket and iteration

    def test_nonconvergence_raises_not_silent(self, ray_session, monkeypatch, derived):
        """If the budget genuinely runs out, the contract is a loud error,
        never a partially-propagated result."""
        n = 64
        pairs = pd.DataFrame({"doc_a": np.arange(n - 1), "doc_b": np.arange(1, n)})
        monkeypatch.setattr(labelprop, "MAX_ITERS", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 "):
            labelprop_at(pairs, 2, monkeypatch, derived)

    def test_disjoint_components_stay_disjoint(self, ray_session, monkeypatch, derived):
        pairs = pd.DataFrame(
            {"doc_a": [10, 11, 50, 51], "doc_b": [11, 12, 51, 52]}
        )
        got = labelprop_at(pairs, 2, monkeypatch, derived).set_index("doc_id")
        assert set(got.loc[[10, 11, 12], "cluster_id"]) == {10}
        assert set(got.loc[[50, 51, 52], "cluster_id"]) == {50}

    def test_dup_clusters_labelprop_path_matches_driver(self, ray_session, tmp_path, monkeypatch,
                                                        tasks):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from mpds_ray.pipelines.traindata import dup_clusters

        words = np.array(["a", "b", "c", "d", "e", "f", "g", "h"])
        base = list(rng.choice(words, 50))
        near = list(base)
        near[:10] = rng.choice(words, 10)
        texts = [" ".join(base), " ".join(near)] + [
            " ".join(rng.choice(words, 50)) for _ in range(15)
        ]
        df = pd.DataFrame(
            {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts,
             "lang": "en", "source": "s",
             "n_chars": np.array([len(t) for t in texts], dtype=np.int64)}
        )
        pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
        monkeypatch.setattr(traindata, "DUP_CLUSTER_THRESHOLD", 0.3)
        d = dup_clusters(str(tmp_path))
        assert tasks["_propose"] == 0  # the driver union-find
        monkeypatch.setattr(traindata, "CC_DRIVER_PAIR_CAP", 0)
        l = dup_clusters(str(tmp_path))
        assert tasks["_propose"] > 0  # label propagation
        pd.testing.assert_frame_equal(d, l)
        assert len(d) >= 2  # the planted pair clustered


def test_block_matmul_matches_pair_kernel():
    """_block_jaccard_pairs (incidence matmul) must keep EXACTLY the pairs
    the per-pair kernel keeps, across thresholds, including identical and
    disjoint sets — and via the fallback path when the dense cap is tiny."""
    import numpy as np

    from mpds_ray.pipelines.text import _pairwise_jaccard
    from mpds_ray.pipelines.traindata import _block_jaccard_pairs

    rng = np.random.default_rng(3)
    sets = [np.unique(rng.integers(0, 120, rng.integers(1, 70)).astype(np.uint64))
            for _ in range(40)]
    sets.append(sets[0].copy())  # identical pair
    flat = np.concatenate(sets)
    offs = np.r_[0, np.cumsum([len(s) for s in sets])].astype(np.int64)
    idx = np.arange(len(sets), dtype=np.int64)
    ii, jj = np.triu_indices(idx.size, k=1)
    jac = _pairwise_jaccard(flat, offs, idx[ii], idx[jj])
    for t in (0.2, 0.5, 0.9, 1.0):
        exp = set(zip(ii[jac >= t], jj[jac >= t]))
        for cap in (50_000_000, 1):  # dense path and forced fallback
            gi, gj = _block_jaccard_pairs(flat, offs, idx, t, dense_cap=cap)
            assert set(zip(gi, gj)) == exp, (t, cap)
