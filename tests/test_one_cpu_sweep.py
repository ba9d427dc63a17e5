"""Every query finishes on a 1-CPU Ray, and none runs a Dataset.

A query whose operator holds the only CPU while an upstream stage waits
for it (an actor pool behind a backpressured read) hangs forever on a
small cluster, which a test session with several CPUs never sees. This
test runs every ``queries()`` entry at sf0.001 in a subprocess with
``ray.init(num_cpus=1)``, one query at a time, and fails naming the query
that does not finish within ``PER_QUERY_S``. The same run counts
``StreamingExecutor.execute`` calls per query: the query surface runs on
plain Ray tasks, so a query that starts a Dataset execution fails."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_QUERY_S = 60.0
STARTUP_S = 120.0
# queries allowed to start a Dataset execution: none
DATASET_QUERIES: set[str] = set()

SCRIPT = r"""
import json, sys, time, traceback

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         log_to_driver=False)
from ray.data import DataContext
from ray.data._internal.execution.streaming_executor import StreamingExecutor

DataContext.get_current().enable_progress_bars = False
executions = [0]
execute = StreamingExecutor.execute


def counted(self, *args, **kwargs):
    executions[0] += 1
    return execute(self, *args, **kwargs)


StreamingExecutor.execute = counted

import __ray_entry__ as entry

for name, fn in entry.queries().items():
    print(json.dumps({"start": name}), flush=True)
    before, t0, error = executions[0], time.perf_counter(), None
    try:
        res = fn(sys.argv[1])
        if hasattr(res, "to_pandas"):
            res.to_pandas()  # a returned Dataset executes here
    except Exception:
        error = traceback.format_exc()[-2000:]
    print(json.dumps({"done": name, "executions": executions[0] - before,
                      "s": round(time.perf_counter() - t0, 2), "error": error}), flush=True)
ray.shutdown()
"""


def _lines(stream, out: queue.Queue) -> None:
    for line in stream:
        out.put(line)
    out.put(None)


def test_every_query_finishes_on_one_cpu(sf_dir, tmp_path):
    import __ray_entry__ as entry

    log = tmp_path / "stderr.log"
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", SCRIPT, sf_dir], cwd=REPO, text=True,
            stdout=subprocess.PIPE, stderr=err, start_new_session=True,
        )
    lines: queue.Queue = queue.Queue()
    threading.Thread(target=_lines, args=(proc.stdout, lines), daemon=True).start()
    done, running, timeout = {}, "Ray start-up", STARTUP_S
    try:
        while (line := lines.get(timeout=timeout)) is not None:
            if not line.startswith("{"):  # not one of the script's reports
                continue
            msg = json.loads(line)
            if "start" in msg:
                running, timeout = msg["start"], PER_QUERY_S
            else:
                done[msg["done"]] = msg
                running = f"the step after {msg['done']}"
        proc.wait(timeout=STARTUP_S)  # its ray.shutdown()
    except queue.Empty:
        msg = f"{running} still running after {timeout:.0f} s on a 1-CPU Ray"
        raise AssertionError(msg) from None
    finally:
        if proc.poll() is None:  # a hung query: stop its Ray cluster too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    missing = set(entry.queries()) - set(done)
    assert not missing, f"not run: {sorted(missing)}; stderr tail: {log.read_text()[-2000:]}"
    errors = {q: m["error"] for q, m in done.items() if m["error"]}
    assert not errors, errors
    datasets = {q: m["executions"] for q, m in done.items()
                if m["executions"] and q not in DATASET_QUERIES}
    assert not datasets, f"Dataset executions outside {sorted(DATASET_QUERIES)}: {datasets}"
