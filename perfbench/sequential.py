"""The sequential workloads: whole ``run_stream`` calls in this process.

``ficsum-arabic`` is the fingerprinting path (meta-information kernels,
tree reads, model selection); ``frameworks-rbf`` uses no fingerprints and
mostly writes trees, so it is the bypass case for fingerprint changes.
"""
from __future__ import annotations

import statistics
import time
import traceback

import numpy as np

import repro.runner as runner
from harness import Checks, Outcome, Run, n_rounds
from refs import SEQUENCE_REFS, flip_labels, single_model_c_f1
from repro.core.fingerprint import FingerprintSchema, compute_fingerprint
from repro.streams.datasets import build_dataset

#: half-length Arabic (2200 obs, 110 per segment) keeps one call near 20 s
FICSUM_SCALE = {False: 0.5, True: 0.3}
#: ARF streams about 70 obs/s, so its 675-obs RBF stream dominates a round
RBF_SCALE = {False: 0.15, True: 0.05}
FRAMEWORKS = ("HTCD", "RCD", "DWM", "ARF")
CHECK_WINDOWS = 6


def _rounds(calls, rounds: int, tracer):
    """Run ``rounds`` whole rounds of ``calls``.

    Returns (rows per call, wall seconds per round, failed calls, timed
    wall seconds). A call that raises counts as failed and yields no row.
    """
    rows, walls, failed = [], [], 0
    if tracer:
        tracer.enabled = True
    t0 = time.perf_counter()
    for _ in range(rounds):
        t = time.perf_counter()
        for dataset, method, seed, scale in calls:
            try:
                rows.append(runner.run_stream(dataset, method, seed, length_scale=scale))
            except Exception:  # a program fault: count it and go on
                traceback.print_exc()
                failed += 1
        walls.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.enabled = False
    return rows, walls, failed, wall


def _runner_layers(tracer, rows) -> dict:
    if tracer is None:
        return {}
    tot = tracer.totals()
    loop = sum(r["runtime_s"] for r in rows)
    disc = tot.get("discrimination.oracle_discrimination_ds", {})
    return {
        "runner.run_stream.loop_s": loop,
        "runner.run_stream.other_s":
            tot.get("runner.run_stream", {}).get("total_s", 0.0) - loop
            - disc.get("total_s", 0.0),
        "discrimination.oracle_discrimination_ds.self_s": disc.get("self_s", 0.0),
    }


def _ficsum_layers(tracer) -> dict:
    """Step classes from ``FiCSUM.process`` timings and public attributes:
    a tick computes fingerprints (every P_C obs once a window is full), an
    S-step captures F_SC for stored concepts (every P_S obs)."""
    if tracer is None:
        return {}
    plain, tick, drift_s, sc_s, drifts = [], [], 0.0, 0.0, 0
    for dt, i, period, w, repo_period, repo_len, drift in tracer.ficsum_steps:
        is_tick = i >= w and i % period == 0
        is_sc = i >= w and i % repo_period == 0 and repo_len > 1
        if drift:
            drifts += 1
            drift_s += dt
        if is_sc:
            sc_s += dt
        if not (drift or is_sc):
            (tick if is_tick else plain).append(dt)
    return {
        "ficsum.process.calls": len(tracer.ficsum_steps),
        "ficsum.plain_step_p50_us": statistics.median(plain) * 1e6 if plain else 0.0,
        "ficsum.tick_step_p50_ms": statistics.median(tick) * 1e3 if tick else 0.0,
        "ficsum.drift_steps": drifts,
        "ficsum.drift_steps.total_s": drift_s,
        "ficsum.sc_steps.total_s": sc_s,
        "repository.records": tracer.ficsum_steps[-1][5] if tracer.ficsum_steps else 0,
    }


def _check_fingerprints(checks: Checks, ds, seed: int) -> None:
    """Fingerprint dims against the reference formulas on a few windows."""
    w = 50
    schema = FingerprintSchema(n_features=ds.n_features)
    labels = schema.dim_labels()
    l_all = flip_labels(ds.y, ds.n_classes, 0.2, np.random.default_rng(seed))
    for a in np.linspace(0, len(ds) - w, CHECK_WINDOWS).astype(int):
        X, y, l = ds.X[a:a + w], ds.y[a:a + w], l_all[a:a + w]
        fp = compute_fingerprint(X, y, l, schema, None)
        cols = {f"x{j}": X[:, j] for j in range(ds.n_features)}
        cols.update(y=y.astype(float), l=l.astype(float), error=(y != l).astype(float))
        for k, (src, fn) in enumerate(labels):
            if fn in SEQUENCE_REFS and src in cols:
                ref = SEQUENCE_REFS[fn](cols[src])
                checks.require(abs(fp[k] - ref) <= 1e-9,
                               f"window@{a} {src}.{fn} = {fp[k]!r}, reference {ref!r}")
            elif fn == "mutual_info":
                checks.require(-1e-12 <= fp[k] <= np.log(6) + 1e-12,
                               f"window@{a} {src}.mutual_info = {fp[k]!r} outside [0, ln 6]")
            elif fn in ("imf1_entropy", "imf2_entropy"):
                checks.require(-1e-12 <= fp[k] <= np.log(10) + 1e-12,
                               f"window@{a} {src}.{fn} = {fp[k]!r} outside [0, ln 10]")


def _outcome(rows, walls, failed, wall, n_obs, checks, tracer, extra_layers) -> Outcome:
    """Set-up time is left to the caller, which probes it in fresh processes."""
    e2e = {
        "obs_per_s": n_obs / wall,
        "batch_p50_ms": statistics.median(walls) * 1e3,
    }
    layers = {**_runner_layers(tracer, rows), **extra_layers}
    return Outcome(checks, len(rows) + failed, failed, e2e, layers)


def ficsum_arabic(run: Run) -> Outcome:
    seed, scale = run.seed, FICSUM_SCALE[run.smoke]
    rows, walls, failed, wall = _rounds([("Arabic", "FiCSUM", seed, scale)],
                                        n_rounds("ficsum-arabic", run.seconds), run.tracer)
    run.rss.stop()
    ds = build_dataset("Arabic", seed, length_scale=scale)
    checks = Checks()
    floor = single_model_c_f1(ds.concept_ids)
    for r in rows:
        checks.require(r["kappa"] > 0, f"kappa {r['kappa']!r} <= 0")
        checks.require(r["c_f1"] > floor,
                       f"C-F1 {r['c_f1']!r} not above single-model {floor!r}")
        checks.require(r["n_models"] >= 2, f"{r['n_models']} models < 2")
        checks.require(r["n_drifts"] >= 1, "no drift detected")
    _check_fingerprints(checks, ds, seed)
    return _outcome(rows, walls, failed, wall, len(ds) * len(rows),
                    checks, run.tracer, _ficsum_layers(run.tracer))


def frameworks_rbf(run: Run) -> Outcome:
    seed, scale = run.seed, RBF_SCALE[run.smoke]
    calls = [("RBF", m, seed, scale) for m in FRAMEWORKS]
    rows, walls, failed, wall = _rounds(calls, n_rounds("frameworks-rbf", run.seconds),
                                        run.tracer)
    run.rss.stop()
    n = len(build_dataset("RBF", seed, length_scale=scale))
    checks = Checks()
    for r in rows:
        checks.require(r["kappa"] > 0, f"{r['method']} kappa {r['kappa']!r} <= 0")
    return _outcome(rows, walls, failed, wall, n * len(rows), checks, run.tracer, {})
