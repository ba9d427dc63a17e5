"""Span tracing installed from outside the program, for the traced run.

No file of ``mpds_ray`` changes. ``install`` wraps the public functions of
each layer (the ``LAYERS`` table) in the process that calls it: the
benchmark process calls it directly, and every Ray worker calls it through
Ray's ``worker_process_setup_hook`` (``worker_setup``). Each wrapped call
records one span: name, start, end, its parent span in the same thread, the
process CPU time it took, and counts taken from the call's arguments or
result. Spans stay in memory. A worker writes its spans to
``$PERFBENCH_TRACE_DIR/<pid>.jsonl`` when it exits (the benchmark stops the
workers with SIGTERM at the end of the traced run); the benchmark process
then merges them with its own and gives each span the run id of the
operation whose wall interval contains it (operations run one at a time,
so the intervals do not overlap).

Clocks: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for
every process on the machine, so the spans of all processes are comparable.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """In-memory span buffer of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        cpu = time.process_time()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            cpu = time.process_time() - cpu
            stack.pop()
            rec = {"name": name, "pid": self.pid, "id": sid, "parent": parent,
                   "start": start, "end": end, "cpu": cpu}
            if attrs is not None and result is not None:
                rec["attrs"] = attrs(args, result)
            self.spans.append(rec)

    def count(self, name: str) -> None:
        """A zero-length event: counted, never part of self-time sums."""
        t = time.perf_counter()
        self.spans.append({"name": name, "pid": self.pid, "id": None,
                           "parent": None, "start": t, "end": t})

    def iterate(self, name: str, it):
        """Re-yield ``it``, one span per ``next`` (a lazy layer's work
        happens inside ``next``, not in the call that built the iterator)."""
        it = iter(it)
        while True:
            try:
                item = self.call(name, next, (it,), {}, _one_chunk)
            except StopIteration:
                return
            yield item

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _one_chunk(args, result) -> dict:
    return {"chunks": 1}


def _bytes_of_table(args, result) -> dict:
    return {"bytes": result.nbytes}


def _window_tokens(args, result) -> dict:
    stage, batch = args[0], args[1]
    col = batch.column(stage.column)
    return {"tokens": sum(len(c.flatten()) for c in col.chunks)}


def _split_slices(args, result) -> dict:
    return {"rows": [t.num_rows for t in result],
            "bytes": sum(t.nbytes for t in result)}


def _asof_matches(args, result) -> dict:
    import numpy as np

    matched = result["_matched_ts"]
    return {"left": int(matched.size), "matched": int(np.count_nonzero(~np.isnan(matched)))}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _sink_close_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0].final) if result else 0}


def _extra_buckets(args, result) -> dict:
    return {"extra_buckets": int(result[1])}


# (module, attribute path, span name, attrs function). An attribute path
# with a dot is a method of a class in that module.
LAYERS = (
    ("pyarrow.parquet", "read_table", "read", _bytes_of_table),
    ("mpds_ray.stages.window_stats", "TokenWindowStats.__call__", "window_stats", _window_tokens),
    ("mpds_ray.kernels.batched", "dfa_batch", "kernels.dfa", None),
    ("mpds_ray.kernels.dfa", "fastdfa", "kernels.dfa", None),
    ("mpds_ray.kernels.batched", "lomb_batch", "kernels.lomb", None),
    ("mpds_ray.kernels.lomb", "dominant_frequency", "kernels.lomb", None),
    ("mpds_ray.stages.partition", "stable_bucket", "partition.bucket", None),
    ("mpds_ray.stages.exchange", "_split_by_bucket", "exchange.split", _split_slices),
    ("mpds_ray.pipelines.flagship", "process_bucket", "process_bucket", None),
    ("mpds_ray.stages.sessionize", "sessionize_gap", "sessionize", None),
    ("mpds_ray.stages.scans", "time_since_to_event", "scans.lag", None),
    ("mpds_ray.stages.scans", "prefix_features", "scans.prefix", None),
    ("mpds_ray.stages.scans", "locf_with_expiration", "scans.locf", None),
    ("mpds_ray.stages.asof", "asof_join_arrays", "asof", _asof_matches),
    ("mpds_ray.state.manifest", "write_partition_atomic", "sink.write", _file_bytes),
    ("mpds_ray.pipelines.flagship", "ChunkPartitionSink.emit", "sink.write", None),
    ("mpds_ray.pipelines.flagship", "ChunkPartitionSink.close", "sink.write", _sink_close_bytes),
    ("mpds_ray.state.manifest", "frame_checksum", "sink.checksum", None),
    ("mpds_ray.state.manifest", "Manifest.append", "manifest.append", None),
    ("mpds_ray.pipelines.flagship", "detect_salt_spec", "salted.detect", _extra_buckets),
    ("mpds_ray.stages.salted", "chunk_carry_info", "salted.carry", None),
    ("mpds_ray.stages.salted", "fold_carry", "salted.carry", None),
    ("mpds_ray.stages.salted", "flagship_apply_carry", "salted.carry", None),
)

# Span names of the layers, in table order, each once.
LAYER_NAMES = tuple(dict.fromkeys([row[2] for row in LAYERS] + ["exchange.concat", "chunked.merge"]))

# pyarrow.concat_tables is shared by many callers; only the exchange's
# reduce-side concatenation of map slices is the exchange layer.
_CONCAT_CALLERS = (
    os.path.join("stages", "exchange.py"),
    os.path.join("pipelines", "flagship.py"),
)


def _rebind(orig, wrapper, *extra_modules) -> None:
    """Point every module-level binding of ``orig`` in the program (and in
    ``extra_modules``) at ``wrapper``: ``from x import f`` copies the
    function into the importing module's namespace."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name.startswith("mpds_ray") or name in extra_modules):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def _patch(module_name: str, path: str, make) -> None:
    """Replace ``module_name.path`` (a dotted path is a class attribute) by
    ``make(original)``. A function the program no longer has is skipped
    and its metrics read 0."""
    owner_name, _, attr = path.rpartition(".")
    try:
        mod = importlib.import_module(module_name)
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, attr)
    except (ImportError, AttributeError):
        print(f"[perfbench] cannot trace {module_name}.{path}", file=sys.stderr)
        return
    wrapper = make(orig)
    setattr(owner, attr, wrapper)
    if not owner_name:
        _rebind(orig, wrapper, module_name, getattr(orig, "__module__", ""))


def install(rec: Recorder) -> None:
    """Wrap every layer function in this process so calls record into ``rec``."""

    def span(name, attrs):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                return rec.call(name, orig, args, kwargs, attrs)

            return wrapper

        return make

    def counted(name):
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                rec.count(name)
                return orig(*args, **kwargs)

            return wrapper

        return make

    def exchange_concat(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename.endswith(_CONCAT_CALLERS):
                return rec.call("exchange.concat", orig, args, kwargs)
            return orig(*args, **kwargs)

        return wrapper

    def chunked_merge(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return rec.iterate("chunked.merge", orig(*args, **kwargs))

        return wrapper

    for module_name, path, name, attrs in LAYERS:
        _patch(module_name, path, span(name, attrs))
    _patch("pyarrow", "concat_tables", exchange_concat)
    _patch("mpds_ray.stages.asof", "asof_merge_sorted", counted("asof.entity_loops"))
    _patch("mpds_ray.stages.chunked", "sorted_run_merge", chunked_merge)
    _patch("ray.remote_function", "RemoteFunction._remote", counted("ray.tasks"))
    _patch("ray.actor", "ActorMethod._remote", counted("ray.tasks"))


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker, dump at exit."""
    trace_dir = os.environ[TRACE_DIR_ENV]
    rec = Recorder()
    install(rec)
    atexit.register(rec.dump, os.path.join(trace_dir, f"{rec.pid}.jsonl"))


def load_spans(trace_dir: str) -> list[dict]:
    spans: list[dict] = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def assign_runs(spans: list[dict], windows: list[tuple[int, float, float]]) -> dict[int, list[dict]]:
    """Give each span the run id of the operation window holding it; spans
    outside every window (warm-up, output checks) are dropped."""
    out: dict[int, list[dict]] = {run: [] for run, _, _ in windows}
    for s in spans:
        for run, start, end in windows:
            if start <= s["start"] and s["end"] <= end:
                s["run"] = run
                out[run].append(s)
                break
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Per span (same order as ``spans``): the CPU time of its process
    during the span minus that of its child spans. Wall time would not do:
    a task blocked in ``ray.get`` frees its CPU for another task, so spans
    of several workers (and of the waiting benchmark process) overlap on the
    one core; CPU
    time counts only the work, and the self times of all spans add up to
    the CPU time spent inside traced layers."""
    index = {(s["pid"], s["id"]): i for i, s in enumerate(spans)}
    out = [s["cpu"] for s in spans]
    for s in spans:
        p = index.get((s["pid"], s["parent"]))
        if p is not None:
            out[p] -= s["cpu"]
    return out


def op_layer_metrics(spans: list[dict], wall: float, cpus: int) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans (see README);
    ``cpus`` is the CPU count Ray was given."""
    timed = [s for s in spans if s["id"] is not None]
    selfs = self_times(timed)
    busy = dict.fromkeys(LAYER_NAMES, 0.0)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    attrs: dict[str, float] = {}
    slice_rows: dict[int, list[int]] = {}
    for s, own in zip(timed, selfs):
        name = s["name"]
        busy[name] += s["end"] - s["start"]
        self_s[name] += own
        calls[name] += 1
        for key, val in s.get("attrs", {}).items():
            if key == "rows":
                acc = slice_rows.setdefault(len(val), [0] * len(val))
                for b, n in enumerate(val):
                    acc[b] += n
                attrs[f"{name}.slices"] = attrs.get(f"{name}.slices", 0) + len(val)
                attrs[f"{name}.empty"] = attrs.get(f"{name}.empty", 0) + val.count(0)
            else:
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + val
    events = {}
    for s in spans:
        if s["id"] is None:
            events[s["name"]] = events.get(s["name"], 0) + 1

    skew = 0.0
    if slice_rows:
        rows = max(slice_rows.values(), key=sum)
        mean = sum(rows) / len(rows)
        skew = max(rows) / mean if mean else 0.0
    slices = attrs.get("exchange.split.slices", 0)
    left = attrs.get("asof.left", 0)
    m = {
        "read.busy_s": busy["read"],
        "read.bytes": attrs.get("read.bytes", 0),
        "window_stats.busy_s": busy["window_stats"],
        "window_stats.tokens_per_s": (
            attrs.get("window_stats.tokens", 0) / busy["window_stats"] if busy["window_stats"] else 0.0
        ),
        "kernels.dfa_s": busy["kernels.dfa"],
        "kernels.lomb_s": busy["kernels.lomb"],
        "partition.bucket_s": busy["partition.bucket"],
        "exchange.split_s": busy["exchange.split"],
        "exchange.concat_s": busy["exchange.concat"],
        "exchange.bytes": attrs.get("exchange.split.bytes", 0),
        "exchange.slices": slices,
        "exchange.empty_slice_frac": attrs.get("exchange.split.empty", 0) / slices if slices else 0.0,
        "exchange.bucket_skew": skew,
        "process_bucket.calls": calls["process_bucket"],
        "sessionize.busy_s": busy["sessionize"],
        "scans.lag_s": busy["scans.lag"],
        "scans.prefix_s": busy["scans.prefix"],
        "scans.locf_s": busy["scans.locf"],
        "asof.busy_s": busy["asof"],
        "asof.entity_loops": events.get("asof.entity_loops", 0),
        "asof.match_frac": attrs.get("asof.matched", 0) / left if left else 0.0,
        "sink.write_s": busy["sink.write"],
        "sink.bytes": attrs.get("sink.write.bytes", 0),
        "sink.checksum_s": busy["sink.checksum"],
        "manifest.append_s": busy["manifest.append"],
        "salted.detect_s": busy["salted.detect"],
        "salted.carry_s": busy["salted.carry"],
        "salted.extra_buckets": attrs.get("salted.detect.extra_buckets", 0),
        "chunked.merge_s": busy["chunked.merge"],
        "chunked.chunks": attrs.get("chunked.merge.chunks", 0),
        "ray.tasks": events.get("ray.tasks", 0),
        "ray.overhead_s": wall * cpus - sum(selfs),
        "trace.spans": len(timed),
    }
    for name in LAYER_NAMES:
        m[f"{name}.self_s"] = self_s[name]
    return m
