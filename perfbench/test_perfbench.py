"""Self-tests of the benchmark: python3 -m pytest perfbench -q -p no:cacheprovider"""

from __future__ import annotations

import glob
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run, tracing, workloads  # noqa: E402

# The metrics the benchmark's definition names; failed_frac is reported as
# ok_frac = 1 - failed_frac because an end-to-end metric may not be 0.
E2E = ("seq_per_s", "run_s", "query_geomean_ms", "peak_mem_mb", "setup_s", "ok_frac")
PER_LAYER = (
    "read.busy_s", "read.bytes", "window_stats.busy_s", "window_stats.tokens_per_s",
    "kernels.dfa_s", "kernels.lomb_s", "partition.bucket_s", "exchange.split_s",
    "exchange.concat_s", "exchange.bytes", "exchange.slices", "exchange.empty_slice_frac",
    "exchange.bucket_skew", "process_bucket.self_s", "process_bucket.calls",
    "sessionize.busy_s", "scans.lag_s", "scans.prefix_s", "scans.locf_s", "asof.busy_s",
    "asof.entity_loops", "asof.match_frac", "sink.write_s", "sink.bytes",
    "sink.checksum_s", "manifest.append_s", "salted.detect_s", "salted.carry_s",
    "salted.extra_buckets", "chunked.merge_s", "chunked.chunks", "ray.tasks",
    "ray.overhead_s", "trace.overhead_s", "pipelines.eventspipe_s", "pipelines.text_s",
    "pipelines.relational_s", "pipelines.traindata_s", "pipelines.knn_s",
)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_lists_every_metric(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    assert set(E2E) <= e2e
    assert set(PER_LAYER) <= layers
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_metric_names_are_well_formed(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_traced_metrics_are_all_declared(spec):
    layers = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracing.op_layer_metrics([], 1.0, 1))
    emitted |= {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "host.calib_s"}
    emitted |= {n for n in layers if n.startswith("pipelines.")}
    assert emitted == layers


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for path in sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)):
        with open(path, "rb") as f:
            out[os.path.relpath(path, d)] = f.read()
    return out


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    meta = workloads.write_inputs("flagship-kernels", 5, a)
    assert workloads.write_inputs("flagship-kernels", 5, b) == meta
    workloads.write_inputs("flagship-kernels", 6, c)
    assert _files(a) == _files(b)
    files_c = _files(c)
    assert files_c.keys() == _files(a).keys()
    assert all(files_c[k] != v for k, v in _files(a).items())
    assert meta["rows"] == workloads.FLAGSHIP["flagship-kernels"]["rows"]


def test_self_times_subtract_children():
    spans = [
        {"name": "a", "pid": 1, "id": 1, "parent": None, "start": 0.0, "end": 1.0, "cpu": 1.0},
        {"name": "b", "pid": 1, "id": 2, "parent": 1, "start": 0.1, "end": 0.4, "cpu": 0.3},
        {"name": "b", "pid": 1, "id": 3, "parent": 1, "start": 0.5, "end": 0.7, "cpu": 0.2},
        {"name": "c", "pid": 2, "id": 1, "parent": None, "start": 0.2, "end": 0.3, "cpu": 0.1},
    ]
    assert tracing.self_times(spans) == pytest.approx([0.5, 0.3, 0.2, 0.1])


def test_spans_go_to_the_operation_that_holds_them():
    spans = [{"start": 1.0, "end": 2.0}, {"start": 3.5, "end": 3.6}, {"start": 9.0, "end": 9.5}]
    by_run = tracing.assign_runs(spans, [(0, 0.5, 2.5), (1, 3.0, 4.0)])
    assert by_run == {0: [spans[0]], 1: [spans[1]]}
    assert spans[1]["run"] == 1 and "run" not in spans[2]


@pytest.fixture(scope="module")
def ray_local(tmp_path_factory):
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    ray.init(address="local", num_cpus=1, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=256 << 20)
    yield
    ray.shutdown()


def test_corrupted_output_is_a_failed_operation(ray_local, tmp_path, monkeypatch):
    import pyarrow.parquet as pq

    monkeypatch.setattr(run, "STATE", str(tmp_path))
    monkeypatch.setitem(workloads.FLAGSHIP, "flagship-scan",
                        dict(workloads.FLAGSHIP["flagship-scan"], rows=3_000, shards=2))
    bench = run.Bench("flagship-scan", 3, seconds=1.0)
    assert bench.op()["ok"] and bench.failed == 0

    real_op = workloads.run_flagship_op

    def flip_one_score(inp, out_dir):
        wall = real_op(inp, out_dir)
        for path in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))):
            df = pq.read_table(path).to_pandas()
            matched = df["score_asof"].notna().to_numpy()
            if matched.any():
                df.loc[int(matched.argmax()), "score_asof"] += 1.0
                df.to_parquet(path, index=False)
                return wall
        raise AssertionError("no row matched a score")

    monkeypatch.setattr(workloads, "run_flagship_op", flip_one_score)
    bad = bench.op()
    assert not bad["ok"]
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "manifest" in json.dumps(bench.report["problems"])
    # with no operation passing, the metrics still come out, from the failed one
    metrics = bench.e2e({"wall": 1.0, "calib": 0.01, "calib_ref": 0.01}, run.reported([bad]))
    assert metrics["run_s"] == run.at_ref_speed(bad) and metrics["ok_frac"] == 0.5
    assert metrics["setup_s"] == 1.0
