"""The Spark workloads: the stateful drift stream and the sweep fan-out.

Each run builds one local SparkSession with at most ``slots()`` task
slots. Everything Spark writes (staged input, checkpoints, shuffle and
temporary files) stays under the benchmark's work directory.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import statistics
import sys
import time
from datetime import datetime

import numpy as np
import pandas as pd

import repro.runner as runner
from harness import SRC, WORK, Checks, Outcome, Run, n_rounds, slots
from refs import flip_labels
from repro.core.monitor import DriftMonitor
from repro.streams.datasets import build_dataset

JVM_HEAP = "768m"
INPUT_SCHEMA = "stream_id string, seq long, features array<double>, y long, l long"
#: four d=10 streams with different drift types, one key each
STREAMS = ("Arabic", "HPLANE-U", "RTREE-U", "RBF")
N_FEATURES = 10
ROWS_PER_KEY = {False: 150, True: 60}
#: share of upstream labels ``l`` that disagree with ``y``
FLIP_SHARE = 0.15

#: Table VI-style grid: the six frameworks on two datasets
SWEEP_DATASETS = ("CMC", "UCI-Wine")
SWEEP_METHODS = ("HTCD", "RCD", "ER", "DWM", "ARF", "FiCSUM")
#: 62 and 75 obs per concept segment: at least one fingerprint window each
SWEEP_SCALE = {False: 0.25, True: 0.2}
#: rows whose sequential run is cheap enough to recompute as a check
CHEAP_METHODS = ("HTCD", "RCD", "ER")
COMPARED = ("kappa", "accuracy", "c_f1", "discrimination", "n_models", "n_drifts")


@contextlib.contextmanager
def _session(work: str):
    """One local session; JVM options must be set before it launches. On
    exit the session stops and the JVM it launched is waited for."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "local")
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # spark-submit first runs a small launcher JVM of its own
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    # a heap committed up front, with one GC thread, so the JVM's resident
    # memory does not depend on when collections happen to run
    jvm = (f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseSerialGC "
           f"-Xms{JVM_HEAP} -XX:+AlwaysPreTouch")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots()}] --driver-memory {JVM_HEAP} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.driver.extraJavaOptions='{jvm}' "
        f"--conf spark.sql.warehouse.dir={os.path.join(work, 'warehouse')} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(slots()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:
        yield spark
    finally:
        from pyspark import SparkContext

        spark.stop()
        gateway = SparkContext._gateway
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


def _fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------- spark-stream
def _stream_input(seed: int, n_per_key: int) -> pd.DataFrame:
    """``n_per_key`` observations of each stream, with ``l`` = ``y`` after
    a seeded share of labels is flipped."""
    frames = []
    for k, name in enumerate(STREAMS):
        ds = build_dataset(name, seed)
        reps = math.ceil(n_per_key / len(ds))
        X, y = np.tile(ds.X, (reps, 1))[:n_per_key], np.tile(ds.y, reps)[:n_per_key]
        l = flip_labels(y, ds.n_classes, FLIP_SHARE, np.random.default_rng([seed, k]))
        frames.append(pd.DataFrame({
            "stream_id": name, "seq": np.arange(n_per_key, dtype=np.int64),
            "features": list(X.tolist()), "y": y.astype(np.int64),
            "l": l.astype(np.int64),
        }))
    return pd.concat(frames, ignore_index=True)


def _stage(pdf: pd.DataFrame, src: str, n_batches: int, rows: int) -> None:
    """One parquet file per micro-batch, with modification times in batch
    order so the file source reads them in sequence."""
    base = time.time() - 3600
    for b in range(n_batches):
        part = pdf[(pdf.seq >= b * rows) & (pdf.seq < (b + 1) * rows)]
        path = os.path.join(src, f"batch-{b:05d}.parquet")
        part.to_parquet(path, index=False)
        os.utime(path, (base + b, base + b))


def _run_query(spark, src: str, ckpt: str):
    """Run the drift operator over every staged file, one file per
    micro-batch, until the input is drained."""
    from repro.sparkjobs.streaming import detect_drift_stream

    stream = (spark.readStream.schema(INPUT_SCHEMA)
              .option("maxFilesPerTrigger", "1").parquet(src))
    q = (detect_drift_stream(stream, N_FEATURES).writeStream.format("memory")
         .queryName("drift").option("checkpointLocation", ckpt)
         .trigger(availableNow=True).start())
    q.awaitTermination()
    if q.exception() is not None:
        raise RuntimeError(str(q.exception()))
    return q.recentProgress, spark.sql("select * from drift").toPandas()


def _batch_end(p) -> float:
    """Wall-clock time a micro-batch ended, from its progress report."""
    start = datetime.fromisoformat(p.timestamp).timestamp()
    return start + p.durationMs["triggerExecution"] / 1e3


def _replay_key(part: pd.DataFrame) -> tuple[dict, float, int]:
    """Replay one key's rows, in ``seq`` order, through a fresh monitor.

    Returns ({seq: (similarity, drift)}, seconds inside ``add``, size of
    the pickled monitor at the end).
    """
    mon = DriftMonitor(N_FEATURES)
    part = part.sort_values("seq")
    out = {}
    t = time.perf_counter()
    for f, y, l, seq in zip(part.features, part.y.to_numpy(), part.l.to_numpy(),
                            part.seq.to_numpy()):
        out[int(seq)] = mon.add(list(f), int(y), int(l))
    return out, time.perf_counter() - t, len(pickle.dumps(mon))


def _replay(pdf: pd.DataFrame, tracer) -> dict:
    """Single-threaded replay of the same rows through ``DriftMonitor``, in
    this process, one key after another; traced runs trace it.

    Returns {stream_id: _replay_key result}.
    """
    if tracer:
        tracer.enabled = True
    out = {sid: _replay_key(part) for sid, part in pdf.groupby("stream_id", sort=True)}
    if tracer:
        tracer.enabled = False
    return out


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-9


def spark_stream(run: Run) -> Outcome:
    rows, tracer = ROWS_PER_KEY[run.smoke], run.tracer
    n_timed = n_rounds("spark-stream", run.seconds)
    pdf = _stream_input(run.seed, rows * (1 + n_timed))
    with _session(_fresh_dir("spark")) as spark:
        src = _fresh_dir("stream-in")
        _stage(pdf, src, 1 + n_timed, rows)
        progress, out = _run_query(spark, src, _fresh_dir("stream-ckpt"))
        run.rss.stop()
    # batch 0 warms the Python workers and the state store: it is set-up
    progress = sorted((p for p in progress if p.numInputRows > 0), key=lambda p: p.batchId)
    warm_end = _batch_end(progress[0])
    setup_s = warm_end - run.t_start
    wall = _batch_end(progress[-1]) - warm_end
    progress = progress[1:]
    timed_rows = int((pdf.seq >= rows).sum())
    checks = Checks()
    keys = list(zip(out.stream_id, out.seq))
    checks.require(len(keys) == len(set(keys)), "duplicate (stream_id, seq) rows")
    checks.require(set(keys) == set(zip(pdf.stream_id, pdf.seq)),
                   f"{len(set(keys))} distinct output keys for {len(pdf)} input rows")
    sims = out.similarity.to_numpy(dtype=float)
    checks.require(bool(np.all(np.isnan(sims) | ((sims >= -1) & (sims <= 1)))),
                   "similarity outside [-1, 1]")
    replay = _replay(pdf, tracer)
    ref = {(sid, seq): v for sid, (by_seq, _, _) in replay.items()
           for seq, v in by_seq.items()}
    bad = [(sid, seq) for sid, seq, sim, drift in out.itertuples(index=False)
           if (sid, seq) not in ref or not _same(sim, ref[(sid, seq)][0])
           or bool(drift) != ref[(sid, seq)][1]]
    checks.require(not bad, f"{len(bad)} rows differ from the replay, first {bad[:3]}")

    e2e = {
        "setup_s": setup_s,
        "obs_per_s": timed_rows / wall,
        "batch_p50_ms": statistics.median(p.durationMs["triggerExecution"]
                                          for p in progress),
    }
    layers = {}
    if tracer:
        ops = [p.stateOperators[0] for p in progress if p.stateOperators]
        busy = sum(r[1] for r in replay.values())
        layers = {
            "monitor.add.calls": len(ref),
            "monitor.add.us_per_call": busy / len(ref) * 1e6,
            "monitor.replay_obs_per_s": len(ref) / busy,
            "monitor.state_pickle_bytes": statistics.mean(r[2] for r in replay.values()),
            "streaming.batches": len(progress),
            "streaming.rows_per_batch": statistics.median(p.numInputRows for p in progress),
            "streaming.add_batch_ms_p50":
                statistics.median(p.durationMs.get("addBatch", 0) for p in progress),
            "streaming.state_memory_bytes": max((o.memoryUsedBytes for o in ops), default=0),
            "streaming.state_commit_ms_p50":
                statistics.median(o.commitTimeMs for o in ops) if ops else 0,
        }
    return Outcome(checks, len(pdf), 0, e2e, layers)


# ---------------------------------------------------------------- spark-sweep
def spark_sweep(run: Run) -> Outcome:
    from repro.sparkjobs.sweep import run_sweep

    seed, scale = run.seed, SWEEP_SCALE[run.smoke]
    configs = [{"dataset": d, "method": m, "seed": seed}
               for d in SWEEP_DATASETS for m in SWEEP_METHODS]
    n_obs = sum(len(build_dataset(d, seed, length_scale=scale)) for d in SWEEP_DATASETS)
    n_obs *= len(SWEEP_METHODS)
    with _session(_fresh_dir("spark")) as spark:
        # start one Python worker per slot before timing
        warm = [{"dataset": "STAGGER", "method": "HTCD", "seed": i} for i in range(slots())]
        run_sweep(spark, warm, length_scale=0.02).collect()
        setup_s = time.time() - run.t_start
        rounds, walls = [], []
        for _ in range(n_rounds("spark-sweep", run.seconds)):
            t = time.perf_counter()
            rounds.append(run_sweep(spark, configs, length_scale=scale).collect())
            walls.append(time.perf_counter() - t)
        run.rss.stop()

    checks = Checks()
    failed = 0
    for res in rounds:
        checks.require(sorted(r.run_id for r in res) == list(range(len(configs))),
                       f"{len(res)} result rows for {len(configs)} configs")
        for r in res:
            if r.error is not None:
                failed += 1
                print(f"sweep row {r.dataset}/{r.method} failed: {r.error}", file=sys.stderr)
    for r in rounds[0]:
        if r.method in CHEAP_METHODS and r.error is None:
            local = runner.run_stream(r.dataset, r.method, seed, length_scale=scale)
            for k in COMPARED:
                checks.require(abs(getattr(r, k) - local[k]) <= 1e-9,
                               f"{r.dataset}/{r.method} {k}: sweep {getattr(r, k)!r}"
                               f" != sequential {local[k]!r}")

    tasks = [r.runtime_s for res in rounds for r in res if r.error is None]
    e2e = {
        "setup_s": setup_s,
        "obs_per_s": n_obs * len(rounds) / sum(walls),
        "batch_p50_ms": statistics.median(walls) * 1e3,
    }
    layers = {
        "sweep.tasks": len(tasks),
        "sweep.task_runtime_s_sum": sum(tasks),
        "sweep.task_runtime_s_max": max(tasks, default=0.0),
        "sweep.makespan_s": statistics.median(walls),
        "sweep.slots": slots(),
        "sweep.slot_utilization": sum(tasks) / (slots() * sum(walls)),
    } if run.tracer else {}
    return Outcome(checks, len(configs) * len(rounds), failed, e2e, layers)
