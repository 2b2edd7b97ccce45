"""The four benchmark workloads: the config made from a seed, the body one
fresh process times, and the checks on what the body produced.

Bodies reach hbct only through module attributes (``hb.cli.main``,
``hb.evaluation.evaluate_metric``), so the traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

SIZES = {
    "full": {
        # README config, one epoch so many passes fit in one run
        "scenario": {"classes": 20, "per_class": 30, "epochs": 1},
        # criterion-08 shape, fewer epochs for the same reason
        "matrix": {"classes": 12, "per_class": 30, "epochs": 1},
        # 20 000-row gallery (per_class // 5 rows of each class)
        "search": {"classes": 20, "per_class": 5000, "queries_per_class": 5,
                   "oracle_queries": 10},
        # 100 000 rows: every split of the generated dataset
        "index": {"classes": 20, "per_class": 5000},
    },
    "smoke": {
        "scenario": {"classes": 6, "per_class": 15, "epochs": 1},
        "matrix": {"classes": 6, "per_class": 15, "epochs": 1},
        "search": {"classes": 4, "per_class": 50, "queries_per_class": 3,
                   "oracle_queries": 4},
        "index": {"classes": 4, "per_class": 50},
    },
}

DIM_D = 8
INPUT_DIM = 16
ARCH = (16,)
N_STEPS = 3
SEARCH_METRICS = ("cmc@1", "cmc@5", "map")
SCENARIO_METRICS = ("map",)
MATRIX_METRIC = "map"  # a cmc@1 matrix fails the same way as the scenario's anchors
ORACLE_TOL = 1e-12
STORE_HEADER = 32
CKPT_HEADER = 40


def config_text(workload, size, seed):
    """The experiment config the program receives, in the README format."""
    common = [
        "manifold.curvature_K = 1.0",
        f"manifold.dim_d = {DIM_D}",
        "train.batch_size = 16",
        "train.learning_rate = 0.05",
        f"dataset.num_classes = {size['classes']}",
        f"dataset.samples_per_class = {size['per_class']}",
        f"dataset.input_dim = {INPUT_DIM}",
        "output_dir = runs",
    ]
    if workload == "scenario":
        extra = ["alignment.lambda_align = 0.3", "alignment.tau = 0.5",
                 f"train.epochs = {size['epochs']}",
                 "scenario.kind = ext_class", "scenario.class_fraction = 0.5",
                 "scenario.old_arch = 16", "scenario.new_arch = 16", f"seeds = {seed}"]
    elif workload == "matrix":
        extra = ["alignment.lambda_align = 0.3", f"train.epochs = {size['epochs']}",
                 "dataset.cluster_spread = 0.7", "dataset.class_center_scale = 3.5",
                 "scenario.kind = sequential", f"scenario.n_steps = {N_STEPS}",
                 "scenario.old_arch = 16", "scenario.new_arch = 24", f"seeds = {seed}"]
    else:
        extra = [f"dataset.seed = {seed}"]
    return "\n".join(common + extra) + "\n"


def _digest(paths, extra=""):
    h = hashlib.sha256(extra.encode())
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _run_dir(job):
    return os.path.join(job["out_root"], "runs", f"seed_{job['seed']}")


# ---------------------------------------------------------------------------
# Set-up: generate the dataset through the CLI

def setup_body(job, hb):
    return {"rc": hb.cli.main(["generate", "--config", job["config"],
                               "--out", job["data"]])}


def setup_check(job, hb, state):
    size = job["size"]
    n_hold = size["per_class"] // 5
    err = None
    if state["rc"] != 0:
        err = f"generate exited {state['rc']}"
    else:
        with np.load(job["data"]) as z:
            if z["gallery_X"].shape != (size["classes"] * n_hold, INPUT_DIM):
                err = f"gallery shape {z['gallery_X'].shape}"
    return [("cli generate", err)], _digest([job["data"]])


# ---------------------------------------------------------------------------
# scenario: the `hbct scenario` pipeline on one seed

SCENARIO_ARTIFACTS = ("old.ckpt", "star.ckpt", "new.ckpt", "old_gallery.emb",
                      "new_gallery.emb", "report.txt", "report.kv",
                      "uncertainty_hist.txt", "uncertainty_hist.svg")


def scenario_body(job, hb):
    # `hbct scenario` always scores cmc@1 and cmc@5 as well; on short training
    # their old and star anchors coincide for about one seed in five and the
    # CLI exits 3, so the benchmark calls the library entry point with mAP.
    cfg = hb.config.load(job["config"])
    hb.scenarios.run_scenario(cfg, metrics=SCENARIO_METRICS)
    return {}


def scenario_check(job, hb, state):
    out = _run_dir(job)
    paths = [os.path.join(out, a) for a in SCENARIO_ARTIFACTS]
    err = None
    if not all(os.path.isfile(p) for p in paths):
        err = "missing artifacts: " + ", ".join(
            a for a, p in zip(SCENARIO_ARTIFACTS, paths) if not os.path.isfile(p))
    else:
        with open(os.path.join(out, "report.kv")) as f:
            items = [line.split(" = ") for line in f.read().splitlines()]
        values = [float(v) for _, v in items]
        if len(values) != 6 * len(SCENARIO_METRICS) or not all(map(math.isfinite, values)):
            err = f"report.kv values not all finite: {items}"
    digest = _digest([p for p in paths if os.path.isfile(p)])
    return [("run_scenario", err)], digest


# ---------------------------------------------------------------------------
# matrix: `hbct matrix` on one seed

MATRIX_ARTIFACTS = ("matrix_hbct.txt", "matrix_baseline.txt")


def matrix_body(job, hb):
    return {"rc": hb.cli.main(["matrix", "--config", job["config"],
                               "--metric", MATRIX_METRIC])}


def _read_matrix(path):
    with open(path) as f:
        rows = f.read().splitlines()[1:]
    return [[float(v) for v in row.split()[1:]] for row in rows]


def matrix_check(job, hb, state):
    out = _run_dir(job)
    paths = [os.path.join(out, a) for a in MATRIX_ARTIFACTS]
    err = None
    if state["rc"] != 0:
        err = f"hbct matrix exited {state['rc']}"
    elif not all(os.path.isfile(p) for p in paths):
        err = "missing matrix tables"
    else:
        for p in paths:
            m = _read_matrix(p)
            if len(m) != N_STEPS or any(len(r) != N_STEPS for r in m):
                err = f"{os.path.basename(p)}: not {N_STEPS}x{N_STEPS}"
            elif not all(math.isfinite(v) for r in m for v in r):
                err = f"{os.path.basename(p)}: non-finite entry"
            elif any(m[i][i] != 0.0 for i in range(N_STEPS)):
                err = f"{os.path.basename(p)}: non-zero diagonal"
    digest = _digest([p for p in paths if os.path.isfile(p)])
    return [("cli matrix", err)], digest


# ---------------------------------------------------------------------------
# search: rank queries of two generations against a stored gallery

def _embed(hb, model, X, y):
    mcfg = hb.manifold.ManifoldConfig(1.0, DIM_D)
    _, times, spaces, _ = hb.encoder.embed_batch(model, X, hb.encoder.ClipPolicy(), mcfg)
    return hb.evaluation.EmbeddingSet.from_lorentz(times, spaces, y, mcfg.curvature_K,
                                                   model.generation_tag)


def _encoders(hb, seed, count):
    rng = np.random.default_rng(seed + 1)
    return [hb.encoder.EncoderModel.init(INPUT_DIM, ARCH, DIM_D, rng, generation_tag=g)
            for g in range(count)], rng


def search_body(job, hb):
    ds = hb.scenarios.load_dataset(job["data"])
    (gen0, gen1), _ = _encoders(hb, job["seed"], 2)
    per = job["size"]["queries_per_class"]
    pick = np.concatenate([np.flatnonzero(ds.query_y == c)[:per]
                           for c in range(job["size"]["classes"])])
    qX, qy = ds.query_X[pick], ds.query_y[pick]
    gallery = _embed(hb, gen0, ds.gallery_X, ds.gallery_y)
    store = os.path.join(job["out_root"], "gallery.emb")
    hb.evaluation.save_embedding_set(store, gallery)
    stored = hb.evaluation.load_embedding_set(store)
    queries = {"cross": _embed(hb, gen1, qX, qy), "self": _embed(hb, gen0, qX, qy)}
    values = {}
    for pairing, q in queries.items():
        for metric in SEARCH_METRICS:
            key = f"{pairing}.{metric}"
            try:
                values[key] = hb.evaluation.evaluate_metric(q, stored, metric)
            except Exception as e:  # counted as a failed metric call
                values[key] = repr(e)
    return {"gallery": gallery, "stored": stored, "store": store,
            "queries": queries, "values": values}


def oracle_metrics(queries, gallery):
    """Brute-force cmc@1, cmc@5 and mAP, ranking by (distance, index)."""
    K = gallery.curvature_K
    gp, gl = gallery.points, gallery.labels
    idx = np.arange(len(gp))
    first, aps = [], []
    for q, label in zip(queries.points, queries.labels):
        inner = gp[:, 1:] @ q[1:] - gp[:, 0] * q[0]
        d = np.arccosh(np.maximum(-K * inner, 1.0)) / math.sqrt(K)
        ranks = np.flatnonzero(gl[np.lexsort((idx, d))] == label)
        first.append(ranks[0] if len(ranks) else len(gp))
        if len(ranks):
            aps.append(np.mean(np.arange(1, len(ranks) + 1) / (ranks + 1)))
    first = np.array(first)
    return {"cmc@1": np.mean(first < 1), "cmc@5": np.mean(first < 5), "map": np.mean(aps)}


def _same_store(a, b):
    return (a.points.tobytes() == b.points.tobytes()
            and np.array_equal(a.labels, b.labels) and a.geometry == b.geometry
            and a.curvature_K == b.curvature_K and a.generation_tag == b.generation_tag)


def _store_roundtrip_error(path, original, loaded):
    n, w = original.points.shape
    size = os.path.getsize(path)
    if size != STORE_HEADER + n * (8 * w + 4):
        return f"store is {size} bytes, layout says {STORE_HEADER + n * (8 * w + 4)}"
    if not _same_store(original, loaded):
        return "store round trip changed the embeddings"
    return None


def search_check(job, hb, state):
    ops = [("store round trip", _store_roundtrip_error(state["store"], state["gallery"],
                                                       state["stored"]))]
    stored = state["stored"]
    n_oracle = job["size"]["oracle_queries"]
    for pairing, q in state["queries"].items():
        sample = np.linspace(0, len(q) - 1, n_oracle).round().astype(int)
        sub = hb.evaluation.EmbeddingSet(q.points[sample], q.labels[sample],
                                         q.geometry, q.curvature_K, q.generation_tag)
        expected = oracle_metrics(sub, stored)
        for metric in SEARCH_METRICS:
            value = state["values"][f"{pairing}.{metric}"]
            err = None
            if isinstance(value, str):
                err = value
            elif not 0.0 <= value <= 1.0:
                err = f"{metric} = {value} outside [0, 1]"
            else:
                got = hb.evaluation.evaluate_metric(sub, stored, metric)
                if abs(got - expected[metric]) > ORACLE_TOL:
                    err = f"{pairing} {metric}: {got!r} vs oracle {expected[metric]!r}"
            ops.append((f"{pairing} {metric}", err))
    values = ",".join(f"{k}={v!r}" for k, v in sorted(state["values"].items()))
    return ops, _digest([state["store"]], values)


# ---------------------------------------------------------------------------
# index: embed a corpus, write and read it back, save and load a checkpoint

def index_body(job, hb):
    ds = hb.scenarios.load_dataset(job["data"])
    X = np.concatenate([ds.train_X, ds.query_X, ds.gallery_X])
    y = np.concatenate([ds.train_y, ds.query_y, ds.gallery_y])
    (model,), rng = _encoders(hb, job["seed"], 1)
    head = rng.normal(0.0, 0.1, size=(job["size"]["classes"], DIM_D))
    es = _embed(hb, model, X, y)
    store = os.path.join(job["out_root"], "index.emb")
    hb.evaluation.save_embedding_set(store, es)
    stored = hb.evaluation.load_embedding_set(store)
    ckpt = os.path.join(job["out_root"], "model.ckpt")
    mcfg = hb.manifold.ManifoldConfig(1.0, DIM_D)
    policy = hb.encoder.ClipPolicy()
    hb.encoder.save_checkpoint(ckpt, model, head, mcfg, policy)
    loaded = hb.encoder.load_checkpoint(ckpt)
    return {"es": es, "stored": stored, "store": store, "model": model, "head": head,
            "ckpt": ckpt, "loaded": loaded}


def _rewrite_equal(path, save):
    again = path + ".again"
    save(again)
    with open(path, "rb") as a, open(again, "rb") as b:
        return a.read() == b.read()


def _ckpt_error(state, hb):
    model, head = state["model"], state["head"]
    m2, h2, K2, zeta2 = state["loaded"]
    expect = (CKPT_HEADER + 8 * len(model.layers)
              + sum(8 * (W.size + b.size) for W, b in model.layers) + 8 * head.size)
    size = os.path.getsize(state["ckpt"])
    if size != expect:
        return f"checkpoint is {size} bytes, layout says {expect}"
    same = (len(m2.layers) == len(model.layers)
            and all(W.tobytes() == W2.tobytes() and b.tobytes() == b2.tobytes()
                    for (W, b), (W2, b2) in zip(model.layers, m2.layers))
            and head.tobytes() == h2.tobytes() and K2 == 1.0
            and zeta2 == hb.encoder.ClipPolicy().zeta(model.generation_tag)
            and m2.generation_tag == model.generation_tag)
    if not same:
        return "checkpoint round trip changed the model"
    mcfg = hb.manifold.ManifoldConfig(K2, DIM_D)
    if not _rewrite_equal(state["ckpt"], lambda p: hb.encoder.save_checkpoint(
            p, m2, h2, mcfg, hb.encoder.ClipPolicy())):
        return "re-saved checkpoint differs"
    return None


def index_check(job, hb, state):
    err = _store_roundtrip_error(state["store"], state["es"], state["stored"])
    if err is None and not _rewrite_equal(
            state["store"], lambda p: hb.evaluation.save_embedding_set(p, state["stored"])):
        err = "re-saved store differs"
    ops = [("store round trip", err), ("checkpoint round trip", _ckpt_error(state, hb))]
    return ops, _digest([state["store"], state["ckpt"]])


BODIES = {
    "setup": (setup_body, setup_check),
    "scenario": (scenario_body, scenario_check),
    "matrix": (matrix_body, matrix_check),
    "search": (search_body, search_check),
    "index": (index_body, index_check),
}

