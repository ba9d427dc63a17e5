"""Every program function perfbench's tracer patches still exists: a
renamed or deleted one would make its layer metrics read 0 with no error
(perfbench/tracing.py skips a name it cannot resolve)."""

from __future__ import annotations

import importlib

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
