"""The benchmark's view of the Ray processes it starts, read from /proc.

``ray.init(address="local")`` starts the raylet as a child of the calling
process and the workers as children of the raylet, so every process of the
session is a descendant of the benchmark process. Workers are the
descendants whose command line Ray has set to ``ray::<task>``
(``ray::IDLE`` between tasks).
"""

from __future__ import annotations

import os
import signal
import time


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name is parenthesised and may hold spaces
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    pid = os.getpid() if pid is None else pid
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return ""


def ray_workers() -> list[int]:
    return [p for p in descendants() if _cmdline(p).startswith("ray::")]


def reset_peak_rss(pids: list[int]) -> None:
    """Writing 5 to clear_refs resets VmHWM to the current RSS."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass  # the process ended


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until every pid has ended (or is a zombie); return those left."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left:
        left = [p for p in left if _alive(p)]
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return left


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_workers(timeout: float = 20.0) -> None:
    """SIGTERM every Ray worker so each runs its exit handlers (the traced
    workers dump their spans there), and wait until they have ended."""
    pids = ray_workers()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    wait_gone(pids, timeout)


def kill_leftovers(timeout: float = 20.0) -> None:
    """After ``ray.shutdown``: wait for every descendant to end, SIGKILL
    what is still running after ``timeout``, and reap our own children."""
    left = wait_gone(descendants(), timeout)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_gone(left, 5.0)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break
