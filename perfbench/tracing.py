"""Outside-in span recording for the traced benchmark pass.

Each hbct layer is observed by wrapping its public functions under the module
attribute the *caller* looks up: the training loop calls
``hbct.encoder.embed_vars`` and ``hbct.autodiff.backward``, the scenario
runner calls ``hbct.scenarios.train_new``, and so on.  No program file is
changed.  Every wrapped call becomes one span (id, parent, name, layer,
start, end, plus a few counters); spans stay in memory and are written as
JSONL when the pass ends.  A target that no longer exists is listed as absent
instead of failing the run.

The untraced pass never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc

LAYERS = ("cli", "scenarios", "encoder", "losses", "autodiff", "evaluation",
          "manifold")


def _train_kind(a, call):
    align = a.get("align_cfg")
    aligned = align is not None and align.lambda_align > 0.0
    return call(), {"aligned": aligned}


def _tape_nodes(a, call):
    return call(), {"nodes": len(a["tape"])}


def _rows(a, call):
    return call(), {"rows": len(a["X"])}


def _queries(a, call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"queries": len(a["queries"]), "peak_bytes": peak}


def _bytes_written(a, call):
    result = call()
    return result, {"bytes": os.path.getsize(a["path"])}


def _bytes_read(a, call):
    size = os.path.getsize(a["path"])
    return call(), {"bytes": size}


# (attribute the caller looks up, layer, span name, counter recorder)
TARGETS = (
    ("hbct.cli.main", "cli", "cli.main", None),
    ("hbct.cli.generate_dataset", "scenarios", "scenarios.generate_dataset", None),
    ("hbct.cli.save_dataset", "scenarios", "scenarios.save_dataset", None),
    ("hbct.cli.run_scenario", "scenarios", "scenarios.run_scenario", None),
    ("hbct.cli.run_matrix", "scenarios", "scenarios.run_matrix", None),
    ("hbct.scenarios.run_scenario", "scenarios", "scenarios.run_scenario", None),
    ("hbct.scenarios.load_dataset", "scenarios", "scenarios.load_dataset", None),
    ("hbct.scenarios.generate_dataset", "scenarios", "scenarios.generate_dataset", None),
    ("hbct.scenarios.run_single", "scenarios", "scenarios.run_single", None),
    ("hbct.scenarios.sequential_matrix", "scenarios", "scenarios.sequential_matrix", None),
    ("hbct.scenarios.train_old", "encoder", "encoder.train", _train_kind),
    ("hbct.scenarios.train_new", "encoder", "encoder.train", _train_kind),
    ("hbct.scenarios.embed_batch", "encoder", "encoder.embed_batch", _rows),
    ("hbct.scenarios.save_checkpoint", "encoder", "encoder.checkpoint.write", None),
    ("hbct.scenarios.evaluate_metric", "evaluation", "evaluation.evaluate_metric", None),
    ("hbct.scenarios.compatibility_matrix", "evaluation",
     "evaluation.compatibility_matrix", None),
    ("hbct.scenarios.save_embedding_set", "evaluation", "evaluation.store.write",
     _bytes_written),
    ("hbct.encoder.embed_vars", "encoder", "encoder.embed_vars", None),
    ("hbct.encoder.embed_batch", "encoder", "encoder.embed_batch", _rows),
    ("hbct.encoder.save_checkpoint", "encoder", "encoder.checkpoint.write", None),
    ("hbct.encoder.load_checkpoint", "encoder", "encoder.checkpoint.read", None),
    ("hbct.encoder.total_loss", "losses", "losses.total_loss", None),
    ("hbct.losses.base_loss", "losses", "losses.base_loss", None),
    ("hbct.losses.entailment_loss", "losses", "losses.entailment_loss", None),
    ("hbct.losses.contrast_term", "losses", "losses.contrast_term", None),
    ("hbct.autodiff.backward", "autodiff", "autodiff.backward", _tape_nodes),
    ("hbct.evaluation.evaluate_metric", "evaluation", "evaluation.evaluate_metric", None),
    ("hbct.evaluation.cmc_at_k", "evaluation", "evaluation.cmc", _queries),
    ("hbct.evaluation.mean_average_precision", "evaluation", "evaluation.map", _queries),
    ("hbct.evaluation.save_embedding_set", "evaluation", "evaluation.store.write",
     _bytes_written),
    ("hbct.evaluation.load_embedding_set", "evaluation", "evaluation.store.read",
     _bytes_read),
)

# every name under which another hbct module can reach a manifold function
_MANIFOLD_USERS = ("hbct.manifold", "hbct.encoder", "hbct.losses", "hbct.evaluation",
                   "hbct.scenarios")


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self, run_id, role):
        self.run_id = run_id
        self.role = role
        self.spans = []
        self.absent = []
        self._stack = []

    def open(self, name, layer, start=None):
        span = {"id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "layer": layer,
                "start": time.perf_counter() if start is None else start,
                "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer, counters):
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                if counters is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs).arguments
                result, extra = counters(bound, lambda: fn(*args, **kwargs))
                span.update(extra)
                return result
            finally:
                self.close(span)

        return traced

    def install(self):
        """Patch every target that exists; remember the ones that do not."""
        for path, layer, name, counters in TARGETS:
            mod_name, attr = path.rsplit(".", 1)
            try:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(path)
                continue
            setattr(module, attr, self.wrap(fn, name, layer, counters))
        for mod_name in _MANIFOLD_USERS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == "hbct.manifold"
                        and not attr.startswith("_")):
                    setattr(module, attr,
                            self.wrap(fn, f"manifold.{attr}", "manifold", None))

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps({"run": self.run_id, "role": self.role, **span}) + "\n")


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


# ---------------------------------------------------------------------------
# Derived per-layer metrics

# name -> unit, better; the order is the order of the report
PER_LAYER = {
    "autodiff.backward.ms_per_step": ("ms", "lower"),
    "autodiff.tape_nodes_per_step.aligned": ("count", "lower"),
    "autodiff.tape_nodes_per_step.base": ("count", "lower"),
    "autodiff.self_s": ("s", "lower"),
    "losses.base_loss.ms_per_step": ("ms", "lower"),
    "losses.entailment_loss.ms_per_step": ("ms", "lower"),
    "losses.contrast_term.ms_per_step": ("ms", "lower"),
    "losses.self_s": ("s", "lower"),
    "encoder.embed_vars.ms_per_step": ("ms", "lower"),
    "encoder.train.ms_per_step.aligned": ("ms", "lower"),
    "encoder.train.ms_per_step.base": ("ms", "lower"),
    "encoder.train.self_ms_per_step": ("ms", "lower"),
    "encoder.embed_batch.rows_per_s": ("1/s", "higher"),
    "encoder.checkpoint.write_ms": ("ms", "lower"),
    "encoder.checkpoint.read_ms": ("ms", "lower"),
    "encoder.self_s": ("s", "lower"),
    "evaluation.cmc.queries_per_s": ("1/s", "higher"),
    "evaluation.map.queries_per_s": ("1/s", "higher"),
    "evaluation.evaluate_metric.calls": ("count", "lower"),
    "evaluation.compatibility_matrix.s": ("s", "lower"),
    "evaluation.store.write_MBps": ("MB/s", "higher"),
    "evaluation.store.read_MBps": ("MB/s", "higher"),
    "evaluation.rank.peak_traced_mb": ("MB", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "scenarios.trainings": ("count", "lower"),
    "scenarios.generate_dataset.s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "manifold.calls": ("count", "higher"),
    "manifold.self_s": ("s", "lower"),
    "startup.import_s": ("s", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

_MB = 1e6


def _dur(span):
    return span["end"] - span["start"]


def _ratio(num, den, scale=1.0):
    return num * scale / den if num is not None and den else None


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    out = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + _dur(s) - child.get(s["id"], 0.0)
    return out


def coverage(spans):
    """Share of the pass root that its child spans account for, in percent."""
    roots = [s for s in spans if s["parent"] is None and s["name"] == "pass"]
    if not roots:
        return None
    root = roots[0]
    covered = sum(_dur(s) for s in spans if s["parent"] == root["id"])
    return 100.0 * covered / _dur(root)


def layer_metrics(spans):
    """Per-layer metrics from one traced run (setup and pass spans merged).

    Returns {name: value or None}; None marks a metric whose layer did no
    work in this workload.
    """
    by_id = {s["id"]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        spans_of = by_name.get(name)
        return sum(_dur(s) for s in spans_of) if spans_of else None

    def train_of(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == "encoder.train":
                return span
        return None

    steps = {"aligned": 0, "base": 0}
    nodes = {"aligned": 0, "base": 0}
    for s in by_name.get("autodiff.backward", ()):
        train = train_of(s)
        kind = "aligned" if train is not None and train.get("aligned") else "base"
        steps[kind] += 1
        nodes[kind] += s["nodes"]
    n_steps = steps["aligned"] + steps["base"]
    trains = by_name.get("encoder.train", ())
    train_time = {k: sum(_dur(t) for t in trains if bool(t.get("aligned")) == (k == "aligned"))
                  for k in steps}
    train_ids = {t["id"] for t in trains}
    train_children = sum(_dur(s) for s in spans if s["parent"] in train_ids)
    embeds = by_name.get("encoder.embed_batch", ())
    writes = by_name.get("encoder.checkpoint.write", ())
    reads = by_name.get("encoder.checkpoint.read", ())
    store_w = by_name.get("evaluation.store.write", ())
    store_r = by_name.get("evaluation.store.read", ())
    ranks = by_name.get("evaluation.cmc", []) + by_name.get("evaluation.map", [])
    selfs = self_times(spans)

    def per_query(name):
        calls = by_name.get(name, ())
        return _ratio(sum(s["queries"] for s in calls), sum(_dur(s) for s in calls))

    def mean_ms(calls):
        return _ratio(sum(_dur(s) for s in calls), len(calls), 1e3)

    m = {
        "autodiff.backward.ms_per_step": _ratio(total("autodiff.backward"), n_steps, 1e3),
        "autodiff.tape_nodes_per_step.aligned": _ratio(nodes["aligned"], steps["aligned"]),
        "autodiff.tape_nodes_per_step.base": _ratio(nodes["base"], steps["base"]),
        "losses.base_loss.ms_per_step": _ratio(total("losses.base_loss"), n_steps, 1e3),
        "losses.entailment_loss.ms_per_step":
            _ratio(total("losses.entailment_loss"), steps["aligned"], 1e3),
        "losses.contrast_term.ms_per_step":
            _ratio(total("losses.contrast_term"), steps["aligned"], 1e3),
        "encoder.embed_vars.ms_per_step": _ratio(total("encoder.embed_vars"), n_steps, 1e3),
        "encoder.train.ms_per_step.aligned":
            _ratio(train_time["aligned"], steps["aligned"], 1e3),
        "encoder.train.ms_per_step.base": _ratio(train_time["base"], steps["base"], 1e3),
        "encoder.train.self_ms_per_step":
            _ratio(sum(train_time.values()) - train_children, n_steps, 1e3),
        "encoder.embed_batch.rows_per_s":
            _ratio(sum(s["rows"] for s in embeds), sum(_dur(s) for s in embeds)),
        "encoder.checkpoint.write_ms": mean_ms(writes),
        "encoder.checkpoint.read_ms": mean_ms(reads),
        "evaluation.cmc.queries_per_s": per_query("evaluation.cmc"),
        "evaluation.map.queries_per_s": per_query("evaluation.map"),
        "evaluation.evaluate_metric.calls":
            len(by_name.get("evaluation.evaluate_metric", ())) or None,
        "evaluation.compatibility_matrix.s":
            total("evaluation.compatibility_matrix"),
        "evaluation.store.write_MBps":
            _ratio(sum(s["bytes"] for s in store_w), sum(_dur(s) for s in store_w), 1 / _MB),
        "evaluation.store.read_MBps":
            _ratio(sum(s["bytes"] for s in store_r), sum(_dur(s) for s in store_r), 1 / _MB),
        "evaluation.rank.peak_traced_mb":
            max((s["peak_bytes"] for s in ranks), default=0) / _MB or None,
        "scenarios.trainings": len(trains) or None,
        "scenarios.generate_dataset.s": total("scenarios.generate_dataset"),
        "manifold.calls": sum(len(v) for k, v in by_name.items()
                              if k.startswith("manifold.")),
        "startup.import_s": total("startup.import"),
        "trace.coverage_pct": coverage(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer)
    return m
