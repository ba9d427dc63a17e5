"""Every program function perfbench's tracer patches still exists, and the
flagship's reduce still calls the ones it is meant to: a renamed, deleted or
bypassed function would make its layer metrics read 0 with no error
(perfbench/tracing.py skips a name it cannot resolve, and a function no call
reaches records no span)."""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pyarrow as pa
import pytest

from perfbench.tracing import LAYERS

NAMES = [(module, path) for module, path, *_ in LAYERS] + [
    ("mpds_ray.stages.chunked", "sorted_run_merge"),
]


@pytest.mark.parametrize("module, path", NAMES, ids=[f"{m}:{p}" for m, p in NAMES])
def test_traced_name_resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{module}.{path}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)


# the traced functions each entry point enters
SCANS = {"sessionize_gap", "time_since_to_event", "locf_with_expiration"}
FLAT = SCANS | {"process_bucket", "asof_join_arrays"}
CHUNKED = FLAT | {"sorted_run_merge", "chunk_carry_info", "fold_carry"}


def _spy(monkeypatch, names) -> set:
    """Wrap each traced function of ``names`` wherever the program binds
    it, as the tracer does; returns the set of names entered."""
    entered: set = set()
    module = {path: m for m, path in NAMES}
    for name in names:
        orig = getattr(importlib.import_module(module[name]), name)

        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            entered.add(_name)
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("mpds_ray"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, wrapper)
    return entered


def _bucket(n: int = 600):
    rng = np.random.default_rng(3)
    ent = np.sort(rng.integers(0, 6, n))
    left = pa.table({
        "doc_id": [f"e{v}" for v in ent],
        "ts": np.round(rng.uniform(0, 5_000, n)),
        "source": ["s"] * n,
        "n_tok": np.full(n, 8, dtype=np.int32),
        "tok_mean": rng.normal(size=n),
    })
    right = pa.table({"doc_id": [f"e{v}" for v in rng.integers(0, 6, 40)],
                      "ts": np.round(rng.uniform(0, 5_000, 40)), "score": rng.normal(size=40)})
    return left, right


@pytest.mark.parametrize("chunk_rows, expected", [(None, FLAT), (64, CHUNKED)],
                         ids=["flat", "chunked"])
def test_scan_bucket_enters_traced_functions(monkeypatch, chunk_rows, expected):
    from mpds_ray.pipelines.flagship import ScanPlan, _scan_bucket
    from mpds_ray.stages.chunked import split_chunks

    left, right = _bucket()
    shards = [left.slice(0, 300), left.slice(300)]
    if chunk_rows is None:  # a run is the list of its chunks, one here
        parts = [[sh] for sh in shards]
    else:  # the chunked map's runs: sorted, cut into sub-chunks
        keys = [("doc_id", "ascending"), ("ts", "ascending")]
        parts = [split_chunks(s.sort_by(keys), chunk_rows) for s in shards]
    plan = ScanPlan("doc_id", "ts", 300.0, 3_600.0, ["tok_mean"], chunk_rows,
                    ["s0", "s1"], None, None, frozenset())
    entered = _spy(monkeypatch, CHUNKED)
    _scan_bucket(plan, right, parts, lambda t: None)
    assert entered == expected


def test_apply_carry_enters_traced_scans(monkeypatch):
    from mpds_ray.pipelines.flagship import process_bucket
    from mpds_ray.stages.salted import flagship_apply_carry

    left, right = _bucket()
    feats = process_bucket(left, right, "doc_id", "ts", 300.0, 3_600.0, ["tok_mean"])
    entered = _spy(monkeypatch, CHUNKED)
    flagship_apply_carry(feats, None, None, "doc_id", "ts", "tok_mean", 300.0)
    assert entered == SCANS


@pytest.mark.parametrize("chunk_rows", [None, 64], ids=["flat", "chunked"])
def test_grouped_map_enters_split_and_bucket(ray_session, monkeypatch, chunk_rows):
    """The flagship's grouped map task still splits each source on its own:
    it enters ``stable_bucket`` and ``_split_by_bucket``, and each split is
    a list of per-bucket tables, which perfbench's ``exchange.split``
    attributes (``_split_slices``) read."""
    from functools import partial

    from mpds_ray.stages.exchange import _map_group, key_bucket
    from perfbench.tracing import _split_slices

    left, _ = _bucket()
    splits = []
    entered = _spy(monkeypatch, {"stable_bucket"})
    module = importlib.import_module("mpds_ray.stages.exchange")
    orig = module._split_by_bucket

    def split(*args, **kwargs):
        splits.append((args, orig(*args, **kwargs)))
        return splits[-1][1]

    monkeypatch.setattr(module, "_split_by_bucket", split)
    sources = [left.slice(0, 300), left.slice(300)]
    groups = [range(0, 2), range(2, 4)]
    objs = _map_group._function(
        sources, None, False, partial(key_bucket, key="doc_id", num_buckets=4), 4, None, None,
        ["doc_id", "ts"] if chunk_rows else None, chunk_rows, groups,
    )
    assert entered == {"stable_bucket"}
    assert len(splits) == len(sources)
    for args, result in splits:
        assert isinstance(result, list) and len(result) == 4
        assert all(isinstance(t, pa.Table) for t in result)
        assert sum(_split_slices(args, result)["rows"]) == args[0].num_rows
    assert len(objs) == len(groups)
