"""A one-source, one-bucket grid is no task: ``exchange_map`` with one source
and one bucket (and no ``groups``, ``chunk_rows`` or ``sort_keys``) starts no
map task and calls no ``bucket_fn``; the grid's cell is an upstream ref or a
``DeferredMap`` that the consuming task runs once. Several sources keep their
map tasks. The outputs equal the same exchange at four buckets bit for bit."""

from __future__ import annotations

import collections
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest
import ray
from conftest import assert_bit_identical
from ray.remote_function import RemoteFunction

from mpds_ray.pipelines import knn, relational
from mpds_ray.stages import exchange, hashjoin
from mpds_ray.stages.exchange import exchange_map, hash_exchange, key_bucket, reduce_grid, shard_map


def lines(path) -> int:
    """The lines a ``logged`` callable wrote to ``path`` (a ``Path``)."""
    return len(path.read_text().splitlines()) if path.exists() else 0


# Everything a worker runs is built in a factory, so cloudpickle ships it
# by value (a test module is not importable in a worker).
def logged(fn, log, one_arg=True):
    """``fn`` that appends one line to ``log`` per call, in whichever worker
    runs it; ``one_arg`` keeps a ``map_fn`` a one-argument map."""

    def call(*args, **kwargs):
        with open(log, "a") as f:
            f.write("call\n")
        return fn(*args, **kwargs)

    return (lambda t: call(t)) if one_arg else call


def exchange_fns():
    """(``reduce_fn`` summing v by k, ``map_fn`` doubling v)."""

    def sum_by_k(b, t):
        return t.to_pandas().groupby("k", as_index=False)["v"].sum()

    def scale(t):
        return t.set_column(1, "v", pc.multiply(t["v"], 2.0))

    return sum_by_k, scale


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


@pytest.fixture
def tasks(monkeypatch):
    """Counts the tasks submitted from the driver, by function name."""
    seen = collections.Counter()
    submit = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        seen[self._function_name.rsplit(".", 1)[1]] += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return seen


@pytest.fixture
def bucket_log(tmp_path, monkeypatch):
    """Every keyed exchange's bucket rule, logged: the file counts the
    ``bucket_fn`` calls made in any worker."""
    log = tmp_path / "buckets.log"
    spy = logged(key_bucket, log, one_arg=False)
    for mod in (exchange, hashjoin, relational):
        monkeypatch.setattr(mod, "key_bucket", spy)
    return log


@pytest.fixture(scope="module")
def kv_shards(tmp_path_factory):
    """Two shards of (k, v) rows plus a dimension table of k."""
    d = tmp_path_factory.mktemp("kv")
    rng = np.random.default_rng(3)
    paths = []
    for i in range(2):
        k = rng.integers(0, 50, 400)
        t = pa.table({"k": k, "v": rng.normal(size=400), "shard": np.full(400, i)})
        paths.append(str(d / f"part-{i}.parquet"))
        pq.write_table(t, paths[-1])
    dim = str(d / "dim.parquet")
    pq.write_table(pa.table({"k": np.arange(0, 60, 2), "w": np.arange(30) * 0.5}), dim)
    return paths, [dim]


class TestOneTask:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_hash_exchange(self, ray_session, kv_shards, tasks, bucket_log, n_shards):
        """One shard is one task; two shards keep a map task each, so their
        reads and maps run in parallel."""
        paths = kv_shards[0][:n_shards]
        sum_by_k, scale = exchange_fns()
        one = hash_exchange(paths, scale, "k", 1, sum_by_k, columns=["k", "v"])
        maps = 0 if n_shards == 1 else n_shards
        assert (tasks["_map_shard"], tasks["_reduce_bucket"]) == (maps, 1)
        assert lines(bucket_log) == maps
        four = hash_exchange(paths, scale, "k", 4, sum_by_k, columns=["k", "v"])
        assert_bit_identical(canonical(one), canonical(four))

    def test_mapped_upstream_ref_keeps_its_map_task(self, ray_session, kv_shards, tasks):
        """A deferred cell never holds an ObjectRef: its consumer would block
        on it. A mapped upstream ref goes to a map task, which Ray hands the
        resolved table."""
        sum_by_k, scale = exchange_fns()
        ref = ray.put(pq.read_table(kv_shards[0][0], columns=["k", "v"]))
        grid = exchange_map([ref], scale, partial(key_bucket, key="k", num_buckets=1), 1)
        assert tasks["_map_shard"] == 1
        want = hash_exchange(kv_shards[0][:1], scale, "k", 1, sum_by_k, columns=["k", "v"])
        assert_bit_identical(canonical(reduce_grid(sum_by_k, 1, grid)), canonical(want))

    @pytest.mark.parametrize("how,filters_right", [
        ("inner", None),
        ("left", pds.field("k") < 0),  # the right side reads no rows
    ])
    def test_exchange_join(self, ray_session, kv_shards, tasks, bucket_log, how, filters_right):
        paths, dim = kv_shards

        def join(b, left, right):
            left = left.to_pandas()
            if right is None:
                return left.assign(w=np.nan)
            return left.merge(right.to_pandas(), on="k", how=how)

        def run(nb):
            return hashjoin.exchange_join(
                paths[:1], dim, "k", join, nb, columns_left=["k", "v"],
                filters_right=filters_right, how=how,
            )

        one = run(1)
        assert (tasks["_map_shard"], tasks["_reduce_bucket"]) == (0, 1)
        assert lines(bucket_log) == 0
        assert len(one) and (how == "inner" or one["w"].isna().all())
        assert_bit_identical(canonical(one), canonical(run(4)))

    def test_q5_chain(self, ray_session, sf_dir, tasks, bucket_log):
        one = relational.q5_region_nation_revenue(sf_dir, num_buckets=1)
        assert (tasks["_map_shard"], tasks["_reduce_bucket"]) == (0, 3)  # one per hop
        assert lines(bucket_log) == 0
        assert len(one)
        four = relational.q5_region_nation_revenue(sf_dir, num_buckets=4)
        assert_bit_identical(canonical(one), canonical(four))


class TestDeferredMapRunsOnce:
    def test_reduce_grid(self, ray_session, kv_shards, tmp_path, tasks):
        paths, _ = kv_shards
        sum_by_k, scale = exchange_fns()
        log = tmp_path / "map.log"
        grid = exchange_map(paths[:1], logged(scale, log), None, 1, columns=["k", "v"])
        out = reduce_grid(sum_by_k, 1, grid)
        assert lines(log) == 1  # in the one reduce task
        assert (tasks["_map_shard"], tasks["_reduce_bucket"]) == (0, 1)
        want = pq.read_table(paths[0]).to_pandas()
        assert np.isclose(out["v"].sum(), 2 * want["v"].sum())

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_embedding_near_dups(self, ray_session, tmp_path, monkeypatch, tasks, n_shards):
        """One shard is one block: its map runs in the one ``same`` pair
        task. Two shards keep a map task each, whose blocks feed three pair
        tasks."""
        rng = np.random.default_rng(5)
        m = rng.normal(size=(40, 16)).astype(np.float32)
        m[39] = m[2] + 0.001
        emb = tmp_path / "embeddings.parquet"  # a directory of shards
        emb.mkdir()
        for i, rows in enumerate(np.array_split(np.arange(40), n_shards)):
            pq.write_table(pa.table({
                "vec_id": pa.array(rows, pa.int64()),
                "embedding": pa.array([m[r].tolist() for r in rows], pa.list_(pa.float32())),
            }), emb / f"part-{i}.parquet")
        log = tmp_path / "map.log"
        orig = knn.exchange_map
        monkeypatch.setattr(
            knn, "exchange_map", lambda src, fn, *a, **kw: orig(src, logged(fn, log), *a, **kw)
        )
        out = knn.embedding_near_dups(str(tmp_path), threshold=0.99)
        assert list(zip(out["vec_a"], out["vec_b"])) == [(2, 39)]
        assert lines(log) == n_shards
        assert tasks["_map_shard"] == (0 if n_shards == 1 else n_shards)
        assert tasks["_pair_task"] == n_shards * (n_shards + 1) // 2


def test_two_positional_map_receives_shard_path(ray_session, kv_shards):
    paths, _ = kv_shards

    def tag(t, path):
        return pa.table({"path": pa.array([path] * t.num_rows)})

    grid = exchange_map(paths[:1], tag, None, 1, columns=["k"])
    out = reduce_grid(lambda b, t: t.to_pandas().groupby("path", as_index=False).size(), 1, grid)
    assert dict(zip(out["path"], out["size"])) == {paths[0]: 400}


def test_map_error_reaches_the_driver(ray_session, kv_shards):
    paths, _ = kv_shards

    def bad(t):
        raise ValueError("column 'k' is None at row 7")

    grid = exchange_map(paths[:1], bad, None, 1)
    with pytest.raises(ValueError, match="column 'k' is None at row 7"):
        reduce_grid(exchange_fns()[0], 1, grid)


def test_one_task_takes_its_callable_inline(ray_session, kv_shards, monkeypatch):
    """A call that starts one task passes its callable as a task argument;
    only a callable that several tasks share is ``ray.put`` once."""
    paths, _ = kv_shards
    puts = []
    put = ray.put
    monkeypatch.setattr(ray, "put", lambda v, **kw: puts.append(v) or put(v, **kw))
    sum_by_k, _ = exchange_fns()
    reduce_grid(sum_by_k, 1, exchange_map(paths[:1], None, None, 1, columns=["k", "v"]))
    assert shard_map(paths[:1], len) == [400]
    assert puts == []
    assert shard_map(paths, len) == [400, 400]
    assert puts == [len]
