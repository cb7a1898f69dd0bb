"""Plumbing shared by every workload: paths, memory sampling, set-up
probes and the result line."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch space for staged input, Spark checkpoints and traces; kept
#: inside the checkout and listed in .gitignore
WORK = os.path.join(ROOT, ".perfbench_work")

#: nominal seconds of one round of each workload on a 4-core x86 host (a
#: round is a set of run_stream calls, a micro-batch or a sweep job). The
#: number of rounds follows from ``--seconds`` alone, never from how fast
#: a run happens to go, so every run of one seed does the same work.
ROUND_S = {"ficsum-arabic": 20.0, "frameworks-rbf": 10.0,
           "spark-stream": 1.6, "spark-sweep": 6.0}


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def slots() -> int:
    """Spark task slots: half the cores this process may use, at least one.
    On a shared host a job that needs every core slows by whole multiples
    whenever a neighbour takes one; half leaves room for the JVM's own
    threads and for the neighbours."""
    return max(1, len(os.sched_getaffinity(0)) // 2)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _pss_bytes(pid: int) -> int:
    """Proportional set size: resident pages, each shared page split among
    the processes that map it (forked Python workers share most of theirs)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def tree_rss_bytes(root: int) -> int:
    """Resident memory of ``root`` and all its descendants, as summed PSS."""
    kids = _children_map()
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += _pss_bytes(pid)
        todo.extend(kids.get(pid, ()))
    return total


class PeakRss:
    """Samples the resident memory of this process tree every ``period``
    seconds on a daemon thread, from ``start`` until ``stop``: set-up and
    the timed phase, not the output checks that follow."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(pid))
            self._stop.wait(self.period)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Take a last sample and stop; later calls do nothing."""
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join()
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


@dataclass
class Run:
    """What a workload is asked to do, and the probes it reports through."""

    seed: int
    seconds: float
    smoke: bool
    tracer: object | None  # tracer.Tracer on traced runs
    t_start: float  # wall-clock time this process started
    rss: PeakRss


@dataclass
class Outcome:
    checks: "Checks"
    attempted: int
    failed: int
    e2e: dict  # end-to-end values by metric name
    layers: dict = field(default_factory=dict)  # per-layer values, traced runs only


def probe_setup(workload: str, repeats: int) -> list[float]:
    """Set-up time of ``repeats`` fresh interpreters that import what the
    workload imports before its first observation (``run.py --probe``).

    Each sample runs from just before the child is spawned to the moment
    the child reports it is ready, so interpreter start is included.
    """
    out = []
    for _ in range(repeats):
        t0 = time.time()
        res = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--probe"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(res.stdout.split()[-1]) - t0)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


class Checks:
    """Collects named output checks; a failing one is printed to stderr."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)

    @property
    def ok(self) -> bool:
        return not self.failures
