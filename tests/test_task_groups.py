"""Buckets are partitions, tasks are groups: the flagship runs contiguous
groups of buckets (and of a hot entity's salted ranges) per reduce task,
and contiguous groups of shards per map task, both chosen by
``exchange.task_groups``. The grouping decides how many tasks run, never
which rows land in which partition, so the written output and its lineage
are byte-identical whatever the grouping; each map object is one Arrow
table; a group that fails half-way resumes like any other run; and the
flagship-skew shape submits a handful of tasks on a 1-CPU Ray."""

from __future__ import annotations

import collections
import glob
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import mpds_ray.pipelines.flagship as flagship
from conftest import assert_bit_identical
from mpds_ray.pipelines.flagship import run_flagship_exchange
from mpds_ray.synth import synth_scores_table, synth_tokens_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B = 6
CHEAP = ("mean", "std", "n")
# chunked reduce plus the salted ranges of a hot entity (60% of the rows)
SALTED = dict(num_buckets=B, stats=CHEAP, salt_min_rows=1_000, chunk_rows=500)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Three tokens shards with a hot entity, and a scores table."""
    root = tmp_path_factory.mktemp("groups")
    table = synth_tokens_table(120, 6_000, seed=3, max_tok=32, hot_share=0.6)
    os.makedirs(root / "tokens")
    per = -(-table.num_rows // 3)
    for i in range(3):
        pq.write_table(table.slice(i * per, per), root / "tokens" / f"part-{i}.parquet")
    pq.write_table(synth_scores_table(120, seed=4), root / "scores.parquet")
    return str(root / "tokens"), str(root / "scores.parquet")


def _files(out_dir: str) -> dict[str, bytes]:
    return {os.path.basename(p): Path(p).read_bytes()
            for p in sorted(glob.glob(f"{out_dir}/part-*.parquet"))}


def _records(out_dir: str) -> dict:
    from mpds_ray.state.manifest import Manifest

    recs = Manifest(f"{out_dir}/manifest.jsonl").records()
    return {r["partition_id"]: (r["row_count"], r["checksum"], r["input_fragments"])
            for r in recs}


def _submitted(monkeypatch) -> collections.Counter:
    """Counts the tasks submitted from the driver, by function name."""
    from ray.remote_function import RemoteFunction

    seen: collections.Counter = collections.Counter()
    submit = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        seen[self._function_name.rsplit(".", 1)[1]] += 1
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return seen


def _contents(obj, tables: list, refs: list) -> None:
    """The Arrow tables and ObjectRefs ``obj`` holds, not looking into refs."""
    import ray

    if isinstance(obj, pa.Table):
        tables.append(obj)
    elif isinstance(obj, ray.ObjectRef):
        refs.append(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            _contents(v, tables, refs)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _contents(v, tables, refs)


def _fixed_groups(count):
    """A ``task_groups`` stand-in: ``count(len(items))`` contiguous groups."""

    def groups(items, inputs):
        n = count(len(items))
        return [items[len(items) * g // n:len(items) * (g + 1) // n] for g in range(n)]

    return groups


GROUPINGS = {
    "one_task": lambda n: 1,
    "two_tasks": lambda n: min(n, 2),
    "task_per_item": lambda n: n,
}


class TestTaskGroups:
    def test_rule_covers_items_contiguously(self, ray_session):
        from mpds_ray.stages.exchange import task_groups

        # a small input: one group per CPU of the 4-CPU session, at most
        # one per item
        assert task_groups(range(10), 1_000) == [range(0, 2), range(2, 5), range(5, 7),
                                                 range(7, 10)]
        assert task_groups(range(3), 1_000) == [range(0, 1), range(1, 2), range(2, 3)]
        assert task_groups(range(16, 17), 1_000) == [range(16, 17)]
        # a large input: the byte rule's count wins over the CPU count
        big = task_groups(range(16, 32), 6 * (512 << 20) // 4)
        assert len(big) == 6 and [i for g in big for i in g] == list(range(16, 32))

    def test_map_task_per_shard_on_four_cpus(self, ray_session, inputs, monkeypatch):
        """The three shards on the 4-CPU session keep one map task each."""
        tasks = _submitted(monkeypatch)
        run_flagship_exchange(*inputs, num_buckets=B, stats=CHEAP)
        assert tasks["_map_group"] == 3

    def test_one_bucket_split_is_the_table_itself(self):
        import numpy as np
        import pyarrow as pa

        from mpds_ray.stages.exchange import _split_by_bucket

        t = pa.table({"k": [3, 1, 2]})
        assert _split_by_bucket(t, np.zeros(3, dtype=np.int64), 1)[0] is t


class TestGroupInvariance:
    @pytest.mark.parametrize("config", [dict(num_buckets=B, stats=CHEAP), SALTED],
                             ids=["flat", "salted_chunked"])
    def test_output_identical_for_every_grouping(self, ray_session, inputs, tmp_path,
                                                 monkeypatch, config):
        outs = {}
        for name, count in GROUPINGS.items():
            monkeypatch.setattr(flagship, "task_groups", _fixed_groups(count))
            out = str(tmp_path / name)
            res = run_flagship_exchange(*inputs, out_dir=out, **config)
            outs[name] = (list(res["partition_id"]), _files(out), _records(out))
        ids, files, records = outs["task_per_item"]
        if "salt_min_rows" in config:
            assert max(ids) >= B, "salting did not engage"
        assert len(files) == len(ids) >= B - 1
        for name in ("one_task", "two_tasks"):
            assert outs[name][0] == ids, name  # summary rows in partition order
            assert outs[name][1] == files, name  # every partition file, byte for byte
            assert outs[name][2] == records, name

    @pytest.mark.parametrize("config", [dict(num_buckets=B, stats=CHEAP), SALTED],
                             ids=["flat", "salted_chunked"])
    def test_output_identical_for_one_map_task_and_one_per_shard(
            self, ray_session, inputs, tmp_path, monkeypatch, config):
        from mpds_ray.stages import exchange

        outs = {}
        for name in ("one_task", "task_per_item"):
            monkeypatch.setattr(exchange, "task_groups", _fixed_groups(GROUPINGS[name]))
            tasks = _submitted(monkeypatch)
            out = str(tmp_path / name)
            res = run_flagship_exchange(*inputs, out_dir=out, **config)
            outs[name] = (list(res["partition_id"]), _files(out), _records(out))
            assert tasks["_map_group"] == (1 if name == "one_task" else 3)
        assert outs["one_task"][0] == outs["task_per_item"][0]
        assert outs["one_task"][1] == outs["task_per_item"][1]  # byte for byte
        assert outs["one_task"][2] == outs["task_per_item"][2]  # (rows, checksum, lineage)

    @pytest.mark.parametrize("config", [dict(num_buckets=B, stats=CHEAP),
                                        dict(SALTED, chunk_rows=100)],
                             ids=["flat", "salted_chunked"])
    def test_every_map_object_is_one_table(self, ray_session, inputs, monkeypatch, config):
        """Each map task returns, per group, ONE Arrow table (one chunk per
        column) plus ``ray.put`` sub-chunks only for the runs longer than
        ``chunk_rows``, which the table leaves out. The buckets run as one
        reduce group, so an object of per-bucket slices would hold several."""
        import ray

        monkeypatch.setattr(flagship, "task_groups", _fixed_groups(GROUPINGS["one_task"]))
        grids = []
        orig = flagship.exchange_map
        monkeypatch.setattr(flagship, "exchange_map",
                            lambda *a, **kw: grids.append(orig(*a, **kw)) or grids[-1])
        run_flagship_exchange(*inputs, **config)
        (grid,) = grids
        chunk_rows = config.get("chunk_rows")
        long_runs = 0
        for obj in ray.get([r for objs in grid for r in objs]):
            tables, refs = [], []
            _contents(obj, tables, refs)
            assert len(tables) == 1, f"{len(tables)} tables in one map object"
            assert all(c.num_chunks == 1 for c in tables[0].columns)
            assert len(refs) == sum(len(cs) for cs in obj.chunks.values())
            if chunk_rows is None:
                assert not refs
                continue
            assert obj.rows.max(initial=0) <= chunk_rows
            for cs in obj.chunks.values():
                sizes = [t.num_rows for t in ray.get(cs)]
                assert sum(sizes) > chunk_rows and max(sizes) <= chunk_rows
                long_runs += 1
        assert long_runs or chunk_rows is None, "no run longer than chunk_rows"

    def test_in_memory_result_identical_for_every_grouping(self, ray_session, inputs,
                                                           monkeypatch):
        outs = []
        for count in GROUPINGS.values():
            monkeypatch.setattr(flagship, "task_groups", _fixed_groups(count))
            outs.append(run_flagship_exchange(*inputs, **SALTED))
        for other in outs[1:]:
            assert_bit_identical(other, outs[0])


class TestFailureInsideAGroup:
    def test_resume_recomputes_only_the_missing_partitions(self, ray_session, inputs,
                                                          tmp_path, monkeypatch):
        """One task runs every bucket: bucket 0 commits, bucket 1's commit
        fails, so buckets 1.. never run. The rerun skips bucket 0 and
        recomputes the rest; the output equals an uninterrupted run."""
        monkeypatch.setattr(flagship, "task_groups", _fixed_groups(lambda n: 1))
        config = dict(num_buckets=B, stats=CHEAP)
        clean = str(tmp_path / "clean")
        run_flagship_exchange(*inputs, out_dir=clean, **config)

        out = str(tmp_path / "crash")
        blocker = os.path.join(out, "part-1.parquet")
        os.makedirs(blocker)
        with pytest.raises(Exception, match=f"Is a directory.*{re.escape(blocker)}"):
            run_flagship_exchange(*inputs, out_dir=out, **config)
        os.rmdir(blocker)
        assert list(_records(out)) == [0]

        res = run_flagship_exchange(*inputs, out_dir=out, **config)
        assert set(res.loc[res["skipped"], "partition_id"]) == {0}
        assert set(res.loc[~res["skipped"], "partition_id"]) == set(range(1, B))
        assert _files(out) == _files(clean)
        assert _records(out) == _records(clean)


SCRIPT = r"""
import glob, json, sys, tempfile

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False)
from ray.remote_function import RemoteFunction

from mpds_ray.pipelines.flagship import run_flagship_exchange
from mpds_ray.stages.exchange import task_groups
from perfbench.workloads import FLAGSHIP, _engine_kwargs, write_inputs

names = []
submit = RemoteFunction._remote


def counted(self, *args, **kwargs):
    names.append(self._function_name.rsplit(".", 1)[1])
    return submit(self, *args, **kwargs)


RemoteFunction._remote = counted
with tempfile.TemporaryDirectory() as tmp:
    meta = write_inputs("flagship-skew", 1, tmp)
    kw = _engine_kwargs(FLAGSHIP["flagship-skew"])
    res = run_flagship_exchange(f"{tmp}/tokens", f"{tmp}/scores.parquet",
                                out_dir=f"{tmp}/out", **kw)
    shards = sorted(glob.glob(f"{tmp}/tokens/*.parquet"))
    print(json.dumps({"tasks": names, "shards": len(shards),
                      "map_tasks": len(task_groups(range(len(shards)), shards)),
                      "num_buckets": kw["num_buckets"],
                      "partitions": [int(p) for p in res["partition_id"]]}), flush=True)
ray.shutdown()
"""


def test_flagship_skew_task_count_on_one_cpu(tmp_path):
    """On a 1-CPU Ray the flagship-skew shape runs as one map task for all
    its shards, one reduce task for the buckets, and one phase-1 plus one
    fix task for the salted ranges, after salt detection's per-shard tasks."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    got = json.loads([ln for ln in proc.stdout.splitlines() if ln.startswith("{")][-1])
    detect = [n for n in got["tasks"] if n == "_read_map"]
    after = [n for n in got["tasks"] if n != "_read_map"]
    assert max(got["partitions"]) >= got["num_buckets"], "salting did not engage"
    assert got["map_tasks"] == 1
    assert collections.Counter(after) == {"_map_group": got["map_tasks"], "reduce_bucket": 1,
                                          "scan_range": 1, "fix_range": 1}, after
    assert len(detect) == got["shards"] > 1
