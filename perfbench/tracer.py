"""In-memory span tracer that wraps the program's public functions from
outside the program.

A function is wrapped at every place it can be reached: the attribute of
its defining module, every ``repro`` module that imported it by name,
and any module-level dict that holds it (such as a function registry).
Methods are wrapped on their class. Spans are (name, start, end, parent)
tuples kept in a list; self time is a span's duration minus that of its
direct children. A name that no longer exists is reported as absent.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: (metric prefix, module, attribute or Class.method) of every wrapped call
TARGETS = [
    ("emd.imf_entropies", "repro.core.emd", "imf_entropies"),
    ("meta_features.f_mutual_info", "repro.core.meta_features", "f_mutual_info"),
    ("meta_features.compute_feature_matrix", "repro.core.meta_features",
     "compute_feature_matrix"),
    ("meta_features.compute_sequence_features", "repro.core.meta_features",
     "compute_sequence_features"),
    ("fingerprint.compute_fingerprint", "repro.core.fingerprint", "compute_fingerprint"),
    ("hoeffding_tree.predict", "repro.classifiers.hoeffding_tree", "HoeffdingTree.predict"),
    ("hoeffding_tree.partial_fit", "repro.classifiers.hoeffding_tree",
     "HoeffdingTree.partial_fit"),
    ("hoeffding_tree.feature_contributions", "repro.classifiers.hoeffding_tree",
     "HoeffdingTree.feature_contributions"),
    ("adwin.add", "repro.detectors.adwin", "ADWIN.add"),
    ("eddm.add", "repro.detectors.eddm", "EDDM.add"),
    ("rcd.buffers_match", "repro.baselines.rcd", "buffers_match"),
    ("similarity.similarity", "repro.core.similarity", "similarity"),
    ("similarity.dynamic_weights", "repro.core.similarity", "dynamic_weights"),
    ("repository.stat_stacks", "repro.core.repository", "Repository.stat_stacks"),
    ("monitor.add", "repro.core.monitor", "DriftMonitor.add"),
    ("runner.run_stream", "repro.runner", "run_stream"),
    ("discrimination.oracle_discrimination_ds", "repro.core.discrimination",
     "oracle_discrimination_ds"),
]

#: names whose calls and self time are reported as per-layer metrics
LAYER_NAMES = [t[0] for t in TARGETS if t[0] not in (
    "monitor.add", "runner.run_stream", "discrimination.oracle_discrimination_ds")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.enabled = False
        #: (step seconds, i, fingerprint period, window, repo period, repo
        #: size, drift) per FiCSUM.process call, from public attributes only
        self.ficsum_steps: list[tuple] = []

    # ------------------------------------------------------------- wrapping
    def _wrapper(self, name: str, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, time.perf_counter(), parent)
                stack.pop()

        return wrapper

    def _ficsum_wrapper(self, fn):
        steps, tracer = self.ficsum_steps, self

        def process(model, x, y):
            t0 = time.perf_counter()
            res = fn(model, x, y)
            if tracer.enabled:
                cfg = model.cfg
                steps.append((time.perf_counter() - t0, model.i, cfg.fingerprint_period,
                              cfg.window_size, cfg.repo_period, len(model.repo),
                              bool(res.drift)))
            return res

        return process

    @staticmethod
    def _install(module: str, attr: str, make) -> bool:
        """Replace ``module.attr`` by ``make(original)`` wherever it is
        reachable; False when the name no longer exists."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                return False
            setattr(cls, meth, make(vars(cls)[meth]))
            return True
        orig = getattr(mod, attr, None)
        if orig is None:
            return False
        new = make(orig)
        for mname, m in list(sys.modules.items()):
            if not (mname == "repro" or mname.startswith("repro.")) or m is None:
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = new
        return True

    def install(self) -> "Tracer":
        """Wrap every target. Call after the program's modules are imported."""
        for name, module, attr in TARGETS:
            if not self._install(module, attr, lambda f, n=name: self._wrapper(n, f)):
                self.absent.append(name)
        if not self._install("repro.core.ficsum", "FiCSUM.process", self._ficsum_wrapper):
            self.absent.append("ficsum.process")
        return self

    # -------------------------------------------------------------- results
    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total (inclusive) seconds and self seconds."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as f:
            for name, t0, t1, parent in self.spans:
                f.write(json.dumps([name, t0, t1, parent]) + "\n")
