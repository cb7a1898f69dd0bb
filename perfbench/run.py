"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--smoke]

Run from the root of a source checkout: the program is imported from
``src/``. One workload runs per process. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds every end-to-end metric of BENCHMARK.json with ``--trace 0``
and every per-layer metric with ``--trace 1``. ``--workload all`` runs each
workload untraced and then traced, each in a fresh process, and prints a
table with the tracing overhead. See README.md for what each workload runs.
"""
from __future__ import annotations

import time

T_START = time.time()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from harness import (  # noqa: E402
    BENCH_DIR, ROOT, SRC, WORK, PeakRss, Run, emit, metric, probe_setup)

SETUP_PROBES = 5

#: workload name -> (module, function)
WORKLOADS = {
    "ficsum-arabic": ("sequential", "ficsum_arabic"),
    "frameworks-rbf": ("sequential", "frameworks_rbf"),
    "spark-stream": ("spark", "spark_stream"),
    "spark-sweep": ("spark", "spark_sweep"),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_metrics(spec: dict, trace: bool, e2e: dict, layers: dict, tracer) -> dict:
    """Map measured values onto the metric list of BENCHMARK.json.

    Untraced runs must measure every end-to-end metric. Traced runs report
    every per-layer metric; one the workload does not reach reads 0.
    """
    if not trace:
        return {m["name"]: metric(e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    from tracer import LAYER_NAMES

    values = dict(layers)
    totals = tracer.totals()
    for name in LAYER_NAMES:
        agg = totals.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_s"]
    values["trace.obs_per_s"] = e2e["obs_per_s"]
    values["trace.spans"] = len(tracer.spans)
    known = {m["name"] for m in spec["per_layer"]}
    unknown = set(values) - known
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: metric(values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def run_one(args) -> int:
    spec = load_spec()
    module, func = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), func)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        if tracer.absent:
            print(f"trace: absent {tracer.absent}", file=sys.stderr)
    os.makedirs(WORK, exist_ok=True)
    rss = PeakRss()
    rss.start()
    out = workload(Run(args.seed, args.seconds, args.smoke, tracer, T_START, rss))
    rss.stop()
    out.e2e["peak_rss_mb"] = rss.peak_mb
    if "setup_s" not in out.e2e:  # a set-up of imports only: probe it in fresh processes
        out.e2e["setup_s"] = statistics.median(probe_setup(args.workload, SETUP_PROBES))
    if tracer:
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
    emit(out.checks.ok, out.attempted, out.failed,
         build_metrics(spec, bool(args.trace), out.e2e, out.layers, tracer))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {}
    for name in WORKLOADS:
        plain, traced = results[(name, 0)], results[(name, 1)]
        print(f"== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
        rate, traced_rate = (plain["metrics"]["obs_per_s"]["value"],
                             traced["metrics"]["trace.obs_per_s"]["value"])
        overhead = 1 - traced_rate / rate
        print(f"  tracing overhead: {overhead:.1%} (traced {traced_rate:.4g} "
              f"against untraced {rate:.4g} obs/s)")
        summary[name] = {"untraced": plain, "traced": traced, "trace_overhead": overhead}
    print(json.dumps(summary))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main() -> int:
    # the stream run is single-threaded by design: keep BLAS/OpenMP pools
    # out, before anything imports numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--probe", action="store_true",
                    help="import the workload, print the time and exit (set-up probe)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"no program sources at {SRC}: run from the root of a source checkout")
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.probe:
        importlib.import_module(WORKLOADS[args.workload][0])
        print(time.time())
        return 0
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
