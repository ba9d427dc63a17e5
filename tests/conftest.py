"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session —
plus what the byte-identity tests share: the bit-level table comparison, the
carry edge-case fixtures, the task counter and the bucket-count override."""

from __future__ import annotations

import collections
import importlib.util
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

_spec = importlib.util.spec_from_file_location(
    "flagship_same",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "tools", "flagship_same.py"),
)
_flagship_same = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flagship_same)


def assert_bit_identical(got, want) -> None:
    """Byte identity of two Arrow tables or DataFrames by the rule of
    ``tools/flagship_same.table_problems``: schema, values and null masks,
    then every float column's bits, so -0.0 differs from 0.0 (which
    ``Table.equals`` and ``assert_frame_equal(check_exact=True)`` miss)."""
    got, want = (
        pa.Table.from_pandas(t, preserve_index=False) if isinstance(t, pd.DataFrame) else t
        for t in (got, want)
    )
    assert not (problems := _flagship_same.table_problems(got, want)), problems


def one_entity(stat, ts):
    """One entity's sorted flagship (left, right) tables with the given
    stat and ts, for the carry edge cases below."""
    n = len(stat)
    left = pa.table({
        "doc_id": ["e0"] * n,
        "ts": np.asarray(ts, dtype=np.float64),
        "source": ["s"] * n,
        "n_tok": np.full(n, 8, dtype=np.int32),
        "tok_mean": np.asarray(stat, dtype=np.float64),
    })
    return left, pa.table({"doc_id": ["e0"], "ts": [5.0], "score": [1.5]})


# a zero maximum keeps the sign of the run's first zero
SIGNED_ZERO = [-0.0, 0.0, -1.0, -2.0, 0.0, -3.0]
# the first stat is NaN: twmean at span 0 reads the first non-NaN stat
NAN_FIRST, NAN_FIRST_TS = [np.nan, 5.0, 7.0, 1.0], [0.0, 0.0, 0.0, 10.0]
# the same ts, no NaN: a cut inside the first-ts ties must carry the first
# stat (5), not the stat of the row before the cut
FIRST_TIES = [5.0, 6.0, 7.0, 1.0]


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture
def tasks(monkeypatch):
    """Counts the tasks submitted from the driver, by function name."""
    from ray.remote_function import RemoteFunction

    seen = collections.Counter()
    submit = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        seen[self._function_name.rsplit(".", 1)[1]] += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return seen


def force_buckets(monkeypatch, n: int) -> None:
    """Every bucket count derived from a parquet input becomes ``n``: the
    exchange constants ``TARGET_TASK_BYTES = 1`` and ``MAX_BUCKETS = n``."""
    from mpds_ray.stages import exchange

    monkeypatch.setattr(exchange, "TARGET_TASK_BYTES", 1)
    monkeypatch.setattr(exchange, "MAX_BUCKETS", n)
