"""Repository benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload flagship-scan --seed 1 --seconds 10 --trace 0

Run from the repository root. Generates (or reuses) the workload's seeded
inputs, sets up (a local Ray sized to ``nproc`` + one warm-up operation,
together reported as ``setup_s``) and measures operations for ``--seconds``
seconds:

- ``--trace 0`` reports every end-to-end metric of BENCHMARK.json.
- ``--trace 1`` reports every per-layer metric: one untraced session, then
  one session with every layer wrapped in this process and in the Ray
  workers (tracing.py), each measuring for half of ``--seconds``;
  their difference is the tracing overhead.

Every operation's output is checked; an operation that raises or fails its
check counts in ``failed``. The last line of standard output is the result
object; progress and a metric table go to standard error, and the full
record of the run (every sample) to ``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
PROGRAM_FILES = ("mpds_ray/__init__.py", "__ray_entry__.py", "tools/check_correctness.py")

# Stop starting operations this long after launch, so a slow host still
# finishes within the 180 s a run may take.
DEADLINE_S = 140.0
# Ray binds unix sockets at <temp dir><this>, and such a path must fit in
# 107 bytes; the session name holds the date and the pid (at most 7 digits).
RAY_SOCKET_SUFFIX = "/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store"
MAX_SOCKET_PATH = 107
# Seconds the calibration loop takes at the reference host speed (about its
# median on a shared 4-vCPU VM), without and with its Ray round trips; see
# calibrate.
CALIB_REF_S = 0.02
TRIPS_REF_S = 0.03


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def metric_units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def nproc() -> int:
    """CPUs for Ray, as ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS when that is set."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def ray_temp_dir() -> str:
    """Ray's temp dir, ``.perfbench/ray`` in the checkout: by its absolute
    path when Ray's socket paths under it fit, else through
    ``/proc/self/cwd``, which every Ray process resolves to the checkout
    root, the working directory they all inherit from the benchmark."""
    temp = os.path.join(STATE, "ray")
    if len(temp) + len(RAY_SOCKET_SUFFIX) <= MAX_SOCKET_PATH:
        return temp
    return os.path.join("/proc/self/cwd", os.path.relpath(temp, ROOT))


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _echo(x):
    return x


def calibrate(samples: int = 5, echo=None) -> float:
    """Median seconds of a fixed loop (numpy array passes and interpreter
    work, no code of the program), with ten round trips of the no-op Ray
    task ``echo`` when given: the host's speed now.

    The benchmark's host is shared; its speed drifts by up to ~30% over
    minutes, and every wall time of a run moves with it. The loop is timed
    around each operation, and the time metrics are reported at the
    reference speed (``at_ref_speed``). The query mix, made of many small
    Ray Data jobs, slows down mostly in Ray's hand-offs between processes,
    so its loop includes the round trips. A flagship operation is part
    array work and part hand-offs: it is timed against both loops, and
    corrected by the geometric mean of the two speed ratios (either one
    alone left the spread of flagship-skew's ``run_s`` over eight seeds at
    0.15 and 0.21; both, at 0.06)."""
    import numpy as np

    data = np.arange(1 << 18, dtype=np.float64)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            acc += float((data * 1.0000001 + 0.5).sum())
        d = {"x": 0}
        for i in range(40_000):
            d["x"] += i
        if echo is not None:
            import ray

            for i in range(10):
                ray.get(echo.remote(i))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_ref_speed(rec: dict, seconds: float | None = None) -> float:
    """``seconds`` (default: the record's wall), measured while the
    calibration loop took ``rec["calib"]``, at the reference host speed, at
    which the loop takes ``rec["calib_ref"]``."""
    return (rec["wall"] if seconds is None else seconds) * rec["calib_ref"] / rec["calib"]


def reported(ops: list[dict]) -> list[dict]:
    """The operations whose figures are reported: those that passed their
    check, or every one when none did (the result then reads correct=false)."""
    return [o for o in ops if o["ok"]] or ops


class RaySession:
    """A local Ray for one setup; ``traced`` adds the tracing worker hook."""

    def __init__(self, traced: bool = False):
        self.traced = traced

    def __enter__(self):
        import ray
        from ray.data import DataContext

        runtime_env = {"worker_process_setup_hook": "perfbench.tracing.worker_setup"} if self.traced else None
        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=512 << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            runtime_env=runtime_env,
            _temp_dir=ray_temp_dir(),
            # Ray otherwise prestarts spare workers when tasks queue up, so
            # whether an operation's processes included them varied from
            # run to run, and its summed peak RSS with it (1 vs 3 workers,
            # ~320 MB).
            _system_config={"enable_worker_prestart": False},
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        return self

    def __exit__(self, *exc):
        import ray

        from perfbench import procs

        if self.traced:
            procs.stop_workers()
        ray.shutdown()
        procs.kill_leftovers()
        return False


class Bench:
    """One run of one workload: its inputs, operations and output checks,
    and the record of every sample (``report``)."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import ray

        from perfbench import workloads

        self.workload = workload
        self.seconds = seconds
        self.launched = time.perf_counter()
        # the no-op task of the calibration loop's round trips
        self.echo = ray.remote(_echo)
        self.attempted = 0
        self.failed = 0
        self.report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                             "problems": []}
        self.scratch = os.path.join(STATE, "out", f"{workload}-{os.getpid()}")
        if workload == "query-mix":
            self.mix = workloads.QueryMix(seed)
            self.n_input = self.mix.rows
            self.report["oracle_s"] = self.mix.load_oracles(os.path.join(STATE, "cache"))
        else:
            self.inputs = workloads.FlagshipInputs(workload, seed, os.path.join(STATE, "cache"))
            self.n_input = self.inputs.rows
            # the meta dict itself: the reference's checksum and time join it
            # when the first output check computes them
            self.report.update(inputs=self.inputs.meta, inputs_cached=self.inputs.cached)

    def prepare(self) -> None:
        """Compute a flagship workload's reference output, when it is not
        cached, in a Ray session of its own: the Dataset-native reference
        engine leaves Ray Data's actors running (~320 MB), and the measured
        sessions must not depend on whether this run computed it."""
        if self.workload != "query-mix" and "reference_xor" not in self.inputs.meta:
            with RaySession():
                self.inputs.reference_xor(self.scratch)

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.report["problems"].append({what: problems})
        log(f"FAILED {what}: {problems}")

    def op(self) -> dict:
        """One operation, then its output check. ``wall`` and ``mem_mb`` are
        the operation's alone, ``calib`` the calibration loop's time around
        it; ``ok`` is False when it raised or failed its check."""
        from perfbench import procs, workloads

        if self.workload == "query-mix":
            return self._mix_pass()
        self.attempted += 1
        out_dir = os.path.join(self.scratch, "op")
        shutil.rmtree(out_dir, ignore_errors=True)
        problems = []
        calib = calibrate()
        trips = calibrate(echo=self.echo)
        procs.reset_peak_rss([os.getpid()] + procs.ray_workers())
        start = time.perf_counter()
        try:
            workloads.run_flagship_op(self.inputs, out_dir)
        except Exception:
            problems = ["operation raised", traceback.format_exc()]
        end = time.perf_counter()
        mem = procs.peak_rss_mb([os.getpid()] + procs.ray_workers())
        calib = (calib + calibrate()) / 2
        trips = (trips + calibrate(echo=self.echo)) / 2
        if not problems:
            try:
                problems = workloads.check_flagship(out_dir, self.inputs.rows,
                                                    self.inputs.reference_xor(self.scratch))
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self._fail("operation", problems)
        return {"wall": end - start, "mem_mb": mem, "windows": [(start, end)],
                "calib": math.sqrt(calib * trips),
                "calib_ref": math.sqrt(CALIB_REF_S * (CALIB_REF_S + TRIPS_REF_S)),
                "ok": not problems}

    def _mix_pass(self) -> dict:
        """One pass of the mix, one client, queries back to back. Each query
        is one attempted operation; the pass is the unit of ``run_s``, and a
        failed query fails its pass. A pass lasts long enough for the host's
        speed to change within it, so the calibration loop runs between the
        queries, and the pass's wall is the sum of the query walls."""
        from perfbench import procs

        self.attempted += len(self.mix.order)
        results, walls, windows, calibs, ok = {}, {}, [], [], True
        procs.reset_peak_rss([os.getpid()] + procs.ray_workers())
        for q in self.mix.order:
            calibs.append(calibrate(1, self.echo))
            start = time.perf_counter()
            try:
                walls[q], results[q] = self.mix.run_query(q)
            except Exception:
                self._fail(f"query {q} raised", [traceback.format_exc()])
                ok = False
            windows.append((start, time.perf_counter()))
        calibs.append(calibrate(1, self.echo))
        mem = procs.peak_rss_mb([os.getpid()] + procs.ray_workers())
        for q, got in results.items():
            try:
                problems = self.mix.check(q, got)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                self._fail(f"query {q} check", problems)
                ok = False
        return {"wall": sum(walls.values()), "mem_mb": mem, "windows": windows,
                "calib": statistics.median(calibs), "calib_ref": CALIB_REF_S + TRIPS_REF_S,
                "queries": walls, "ok": ok}

    def measure(self, seconds: float) -> list[dict]:
        """Operations back to back for ``seconds``: at least one, and another
        while a typical operation (with its check) would end nearer to
        ``seconds`` than stopping now does."""
        ops: list[dict] = []
        walls: list[float] = []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 + statistics.median(walls) / 2 < seconds:
            if time.perf_counter() - self.launched > DEADLINE_S:
                log("deadline reached, measuring stops")
                break
            started = time.perf_counter()
            ops.append(self.op())
            walls.append(time.perf_counter() - started)
        return ops

    def session(self, seconds: float, traced: bool = False) -> tuple[dict, list[dict]]:
        """Set Ray up, then measure; returns (set-up, operations). Set-up is
        the Ray start plus the warm-up operation's wall, in the record form
        of an operation; the warm-up's output check is not part of it."""
        import ray

        t0 = time.perf_counter()
        with RaySession(traced):
            ray.get(self.echo.remote(0))  # the first worker starts
            ray_start_s = time.perf_counter() - t0
            warm = self.op()  # imports and first calls are paid
            setup = dict(warm, wall=ray_start_s + warm["wall"])
            return setup, self.measure(seconds)

    # --- results ----------------------------------------------------------

    def query_medians(self, ops: list[dict]) -> dict[str, float]:
        """Each query's median latency, at reference speed, over the passes
        in which it ran."""
        walls = {q: [at_ref_speed(o, o["queries"][q]) for o in ops if q in o["queries"]]
                 for q in self.mix.order}
        return {q: statistics.median(w) for q, w in walls.items() if w}

    def e2e(self, setup: dict, ops: list[dict]) -> dict[str, float]:
        walls = [at_ref_speed(o) for o in ops]
        run_s = statistics.median(walls)
        if self.workload == "query-mix":
            per_query = self.query_medians(ops)
            geo_ms = geomean(1000.0 * v for v in per_query.values()) if per_query else 1000.0 * run_s
            self.report["query_median_s"] = per_query
        else:
            geo_ms = geomean(1000.0 * w for w in walls)
        return {
            "seq_per_s": self.n_input / run_s,
            "run_s": run_s,
            "query_geomean_ms": geo_ms,
            "peak_mem_mb": statistics.median(o["mem_mb"] for o in ops),
            "setup_s": at_ref_speed(setup),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def run_untraced(self) -> dict[str, float]:
        setup, ops = self.session(self.seconds)
        self.report.update(setup_raw_s=setup["wall"], op_walls_s=[o["wall"] for o in ops],
                           op_calib_s=[o["calib"] for o in ops])
        return self.e2e(setup, reported(ops))

    def run_traced(self) -> dict[str, float]:
        from perfbench import tracing

        # the two sessions share the run's measuring time
        _, plain_ops = self.session(self.seconds / 2)
        trace_dir = os.path.join(STATE, "trace", f"{self.workload}-{os.getpid()}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        os.environ[tracing.TRACE_DIR_ENV] = trace_dir
        rec = tracing.Recorder()
        tracing.install(rec)
        _, traced_ops = self.session(self.seconds / 2, traced=True)
        plain_ops, traced_ops = reported(plain_ops), reported(traced_ops)
        spans = tracing.load_spans(trace_dir) + rec.spans
        windows = [(i, start, end) for i, o in enumerate(traced_ops) for start, end in o["windows"]]
        by_run = tracing.assign_runs(spans, windows)
        cpus = nproc()
        per_op = [tracing.op_layer_metrics(by_run[i], o["wall"], cpus)
                  for i, o in enumerate(traced_ops)]
        m = {k: statistics.median(p[k] for p in per_op) for k in per_op[0]}
        traced = statistics.median(o["wall"] for o in traced_ops)
        plain = statistics.median(o["wall"] for o in plain_ops)
        m.update({"trace.run_s": traced, "trace.untraced_run_s": plain,
                  "trace.overhead_s": traced - plain,
                  "host.calib_s": statistics.median(o["calib"] for o in traced_ops)})
        m.update((k, 0.0) for k in metric_units("per_layer") if k.startswith("pipelines."))
        if self.workload == "query-mix":
            for q, fn in self.mix.fns.items():
                walls = [o["queries"][q] for o in traced_ops if q in o["queries"]]
                key = f"pipelines.{fn.__module__.rsplit('.', 1)[-1]}_s"
                m[key] += statistics.median(walls) if walls else 0.0
        with open(os.path.join(trace_dir, "spans.jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        # Share of each operation's core time (wall x CPUs) per layer self
        # time and for ray.overhead_s; the shares of one operation add to 1.
        keys = [k for k in per_op[0] if k.endswith(".self_s")] + ["ray.overhead_s"]
        shares = {k: statistics.median(p[k] / (o["wall"] * cpus)
                                       for p, o in zip(per_op, traced_ops)) for k in keys}
        shares = dict(sorted(((k, round(v, 4)) for k, v in shares.items() if v), key=lambda kv: -kv[1]))
        log(f"median share of core time: {shares}")
        self.report.update(per_op_layers=per_op, core_time_share=shares,
                           trace_file=os.path.relpath(trace_dir, ROOT))
        return m


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in PROGRAM_FILES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"the program is not in {ROOT}: missing {', '.join(missing)}")
        return 2
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    # Every process of the run works in the checkout and keeps its
    # temporary files there (ray_temp_dir relies on the working directory).
    os.chdir(ROOT)
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = tmp

    # numpy seeds are non-negative; the map leaves seeds 0 .. 2**32-1 as given
    bench = Bench(args.workload, args.seed % 2**32, args.seconds)
    try:
        bench.prepare()
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
        shutil.rmtree(os.path.join(STATE, "ray"), ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    bench.report["result"] = result
    os.makedirs(os.path.join(STATE, "reports"), exist_ok=True)
    with open(os.path.join(STATE, "reports", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(bench.report, f, indent=1, default=str)
    for k, v in result["metrics"].items():
        log(f"{k:32s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
