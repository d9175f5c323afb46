"""Layer spans recorded from outside the program.

`patched(tracer)` replaces each public roomsense function named in LAYERS
(and the tree and SVM `fit` methods) with a wrapper that records a span:
name, start, end, parent span and run id, plus a few counters read from the
call's arguments or result.  Every module attribute bound to the same
function object is swapped, so calls through re-exported names
(`cli.generate`, `features.dtw_distance`, ...) are traced too.  Spans stay
in memory; `write_jsonl` writes them out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  The program is single-threaded, so children never overlap and the
covered time is the sum of their durations.
"""

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from roomsense import ml
from roomsense.ml import ALGORITHMS

_MODEL_TAGS = {
    ml.LogisticRegression: "lr",
    ml.KNearestNeighbors: "knn",
    ml.RandomForest: "rf",
    ml.SupportVectorMachine: "svm",
    ml.DecisionTree: "dt",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _model_tag(model):
    return _MODEL_TAGS[type(model)]


def _readings(points):
    return sum(len(t.values) for p in points for t in p.traces.values())


def _tree_nodes(node):
    return 1 if node.is_leaf else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


# (module, function, span name, counters taken from (args, kwargs, result))
LAYERS = (
    ("simulator", "generate", "simulator.generate", lambda a, k, r: {"readings": _readings(r)}),
    ("dataset", "write_traces", "dataset.write_traces", None),
    ("dataset", "ingest_traces", "dataset.ingest_traces", lambda a, k, r: {"rows": _readings(r)}),
    ("dataset", "build_pairs", "dataset.build_pairs",
     lambda a, k, r: {"pairs": len(r.samples)}),
    ("features", "featurize_pair", "features.featurize_pair", None),
    ("dtw", "dtw_distance", "dtw.distance",
     lambda a, k, r: {"cells": len(_arg(a, k, 0, "x")) * len(_arg(a, k, 1, "y"))}),
    ("features", "write_feature_matrix", "features.write_matrix", None),
    ("features", "read_feature_matrix", "features.read_matrix", None),
    ("ml", "train", "ml.train", lambda a, k, r: {"alg": _arg(a, k, 2, "cfg").algorithm}),
    ("ml", "predict", "ml.predict", lambda a, k, r: {"alg": _model_tag(_arg(a, k, 0, "model"))}),
    ("ml", "save_model", "ml.save_model",
     lambda a, k, r: {"alg": _model_tag(_arg(a, k, 0, "model")),
                      "bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("ml", "load_model", "ml.load_model", lambda a, k, r: {"alg": _model_tag(r[0])}),
    ("ml", "mdi_importance", "ml.mdi_importance", None),
    ("evaluation", "cross_validate", "evaluation.cross_validate",
     lambda a, k, r: {"alg": _arg(a, k, 2, "cfg").algorithm}),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, counters); `fit` returns the model itself
METHODS = (
    ("ml.tree", "DecisionTree", "fit", "ml.tree.fit",
     lambda a, k, r: {"nodes": _tree_nodes(r.root_), "depth": r.depth()}),
    ("ml.svm", "SupportVectorMachine", "fit", "ml.svm.fit",
     lambda a, k, r: {"support_vectors": int(r.support_mask_.sum())}),
)

# span name -> (metric, how): "time" sums durations, "self" sums self times,
# "calls" counts spans, "cv_fit" counts spans whose parent is a CV span,
# "max:<key>" keeps the largest counter, any other key sums that counter.
# "{alg}" in a metric name is filled from the span's "alg" counter.
REDUCTIONS = {
    "simulator.generate": (("simulator.generate_s", "time"), ("simulator.readings", "readings")),
    "dataset.write_traces": (("dataset.write_traces_s", "time"),),
    "dataset.ingest_traces": (("dataset.ingest_traces_s", "time"), ("dataset.ingest_rows", "rows")),
    "dataset.build_pairs": (("dataset.build_pairs_self_s", "self"), ("dataset.pairs_drawn", "pairs")),
    "features.featurize_pair": (
        ("features.featurize_pair_self_s", "self"), ("features.featurize_pair_calls", "calls")),
    "dtw.distance": (("dtw.distance_s", "time"), ("dtw.calls", "calls"), ("dtw.cells", "cells")),
    "features.write_matrix": (("features.write_matrix_s", "time"),),
    "features.read_matrix": (("features.read_matrix_s", "time"),),
    "ml.train": (("ml.train_s.{alg}", "time"), ("evaluation.cv_fits", "cv_fit")),
    "evaluation.cross_validate": (
        ("evaluation.cross_validate_s.{alg}", "time"),
        ("evaluation.cross_validate_self_s.{alg}", "self")),
    "ml.tree.fit": (
        ("ml.tree.fit_calls", "calls"), ("ml.tree.nodes", "nodes"), ("ml.tree.max_depth", "max:depth")),
    "ml.svm.fit": (("ml.svm.support_vectors", "support_vectors"),),
    "ml.mdi_importance": (("ml.mdi_importance_s", "time"),),
    "ml.predict": (("ml.predict_s.{alg}", "time"),),
    "ml.load_model": (("ml.load_model_s.{alg}", "time"),),
    "ml.save_model": (("ml.save_model_s.{alg}", "time"), ("ml.model_bytes.{alg}", "max:bytes")),
    "cli.main": (("cli.self_s", "self"),),
}


def _metric_names(keep):
    return tuple(
        name.format(alg=alg)
        for reductions in REDUCTIONS.values()
        for name, how in reductions
        if keep(how)
        for alg in (ALGORITHMS if "{alg}" in name else (None,))
    )


LAYER_METRICS = _metric_names(lambda how: True)
# Counters, which must repeat exactly between bodies of one run.
COUNT_METRICS = _metric_names(lambda how: how not in ("time", "self"))

# The benchmark's own spans: a timed body or the workload's set-up.
ROOT_SPANS = ("body", "setup")


class Tracer:
    """In-memory span recorder for one process; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def _open(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record):
        record["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name, run):
        """Span around one timed body (or the set-up); `run` tags its spans."""
        self.run = run
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)  # a path-taking reader/writer calling itself on the file
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counters is not None:
                record.update(counters(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


@contextmanager
def patched(tracer):
    """Swap the traced roomsense functions for span-recording wrappers."""
    swaps = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "roomsense" or n.startswith("roomsense.")]
    for module_name, attr, name, counters in LAYERS:
        original = getattr(importlib.import_module(f"roomsense.{module_name}"), attr)
        wrapper = tracer.wrap(name, original, counters)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    swaps.append((module, key, original, wrapper))
    for module_name, cls_name, attr, name, counters in METHODS:
        cls = getattr(importlib.import_module(f"roomsense.{module_name}"), cls_name)
        original = cls.__dict__[attr]
        swaps.append((cls, attr, original, tracer.wrap(name, original, counters)))
    for owner, key, _, wrapper in swaps:
        setattr(owner, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, key, original, _ in swaps:
            setattr(owner, key, original)


def _duration(span):
    return span["end"] - span["start"]


def reduce_run(spans):
    """Per-layer metrics of one run's spans, its root span's wall time, and the
    part of that time inside layer spans.

    `cli.main` is not a layer span here: its self time is `cli.self_s`.
    """
    by_id = {s["id"]: s for s in spans}
    covered_by_children = defaultdict(float)
    for span in spans:
        if span["parent"] in by_id:
            covered_by_children[span["parent"]] += _duration(span)

    metrics = dict.fromkeys(LAYER_METRICS, 0)
    wall = covered = 0.0
    for span in spans:
        name = span["name"]
        duration = _duration(span)
        parent = by_id.get(span["parent"])
        if name in ROOT_SPANS:
            wall += duration
            continue
        if name != "cli.main" and parent is not None and parent["name"] in ("cli.main", *ROOT_SPANS):
            covered += duration
        for template, how in REDUCTIONS[name]:
            metric = template.format(alg=span.get("alg"))
            if how == "time":
                metrics[metric] += duration
            elif how == "self":
                metrics[metric] += duration - covered_by_children[span["id"]]
            elif how == "calls":
                metrics[metric] += 1
            elif how == "cv_fit":
                metrics[metric] += parent is not None and parent["name"] == "evaluation.cross_validate"
            elif how.startswith("max:"):
                metrics[metric] = max(metrics[metric], span[how[4:]])
            else:
                metrics[metric] += span[how]
    return metrics, wall, covered
