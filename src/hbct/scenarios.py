"""Synthetic datasets, update-scenario orchestration, and report emission.

The four scenarios mirror realistic model-update situations at desk scale:
``ext_data`` (old model saw a random fraction of the training data),
``ext_class`` (old model saw only the first fraction of classes),
``new_arch`` (same data, different encoder architecture), ``both``
(new classes and a new architecture), plus ``sequential`` chains of updates.
Each run trains the old model, an unaligned new baseline (the star anchor)
and the aligned HBCT model, then evaluates all retrieval pairings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .encoder import (ClipPolicy, EncoderModel, TrainConfig, embed_batch,
                      save_checkpoint, train_new, train_old)
from .errors import InvalidArgumentError
from .evaluation import (CompatReport, EmbeddingSet, compatibility_matrix,
                         evaluate_metric, parse_metric, save_embedding_set)
from .losses import AlignmentConfig
from .manifold import ManifoldConfig

SCENARIO_KINDS = ("ext_data", "ext_class", "new_arch", "both", "sequential")
DEFAULT_METRICS = ("cmc@1", "cmc@5", "map")


@dataclass
class SyntheticDatasetSpec:
    """Gaussian class clusters standing in for the image datasets."""

    num_classes: int = 20
    samples_per_class: int = 60
    input_dim: int = 16
    cluster_spread: float = 1.0
    class_center_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.samples_per_class < 1 or self.input_dim < 1:
            raise InvalidArgumentError("counts must be positive")
        if not 0.0 < self.cluster_spread < math.inf:
            raise InvalidArgumentError("cluster_spread must be finite and > 0")
        if not math.isfinite(self.class_center_scale):
            raise InvalidArgumentError("class_center_scale must be finite")
        if self.seed < 0:
            raise InvalidArgumentError(f"dataset seed must be >= 0, got {self.seed}")


@dataclass
class ScenarioSpec:
    kind: str = "ext_class"
    old_fraction: float = 0.3
    class_fraction: float = 0.5
    old_arch: tuple = ()
    new_arch: tuple = ()
    n_steps: int = 3

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InvalidArgumentError(f"unknown scenario kind {self.kind!r}")
        if not (0 < self.old_fraction <= 1) or not (0 < self.class_fraction <= 1):
            raise InvalidArgumentError("fractions must be in (0, 1]")
        if self.kind == "sequential" and self.n_steps < 2:
            raise InvalidArgumentError("sequential scenarios need n_steps >= 2")
        if any(w < 1 for w in (*self.old_arch, *self.new_arch)):
            raise InvalidArgumentError("hidden layer widths must be >= 1")


@dataclass
class ExperimentConfig:
    manifold: ManifoldConfig = field(default_factory=lambda: ManifoldConfig(1.0, 8))
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    clip: ClipPolicy = field(default_factory=ClipPolicy)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: SyntheticDatasetSpec = field(default_factory=SyntheticDatasetSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    output_dir: str = "runs"
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise InvalidArgumentError(f"seeds must be one or more integers >= 0, "
                                       f"got {self.seeds!r}")


@dataclass
class Dataset:
    """Disjoint train / query / gallery splits with contiguous labels."""

    train_X: np.ndarray
    train_y: np.ndarray
    query_X: np.ndarray
    query_y: np.ndarray
    gallery_X: np.ndarray
    gallery_y: np.ndarray

    @property
    def num_classes(self):
        return int(self.train_y.max()) + 1

    def restrict_classes(self, classes):
        classes = np.asarray(sorted(classes))

        def pick(X, y):
            m = np.isin(y, classes)
            return X[m], y[m]

        return Dataset(*pick(self.train_X, self.train_y),
                       *pick(self.query_X, self.query_y),
                       *pick(self.gallery_X, self.gallery_y))

    def subsample_train(self, fraction, rng):
        n = len(self.train_X)
        keep = rng.choice(n, size=max(1, int(round(fraction * n))), replace=False)
        keep.sort()
        return replace(self, train_X=self.train_X[keep], train_y=self.train_y[keep])


def generate_dataset(spec: SyntheticDatasetSpec) -> Dataset:
    """Gaussian clusters with random class centers; deterministic under seed."""
    if spec.samples_per_class < 3:
        raise InvalidArgumentError("samples_per_class must be >= 3 to split three ways")
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(size=(spec.num_classes, spec.input_dim))
    centers *= spec.class_center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    n_hold = max(1, spec.samples_per_class // 5)
    tX, tY, qX, qY, gX, gY = [], [], [], [], [], []
    for c in range(spec.num_classes):
        samples = centers[c] + spec.cluster_spread * rng.normal(
            size=(spec.samples_per_class, spec.input_dim))
        qX.append(samples[:n_hold])
        gX.append(samples[n_hold:2 * n_hold])
        tX.append(samples[2 * n_hold:])
        qY.append(np.full(n_hold, c))
        gY.append(np.full(n_hold, c))
        tY.append(np.full(spec.samples_per_class - 2 * n_hold, c))
    return Dataset(np.concatenate(tX), np.concatenate(tY),
                   np.concatenate(qX), np.concatenate(qY),
                   np.concatenate(gX), np.concatenate(gY))


def save_dataset(path, ds: Dataset):
    np.savez(path, train_X=ds.train_X, train_y=ds.train_y,
             query_X=ds.query_X, query_y=ds.query_y,
             gallery_X=ds.gallery_X, gallery_y=ds.gallery_y)


def load_dataset(path) -> Dataset:
    with np.load(path) as z:
        return Dataset(z["train_X"], z["train_y"], z["query_X"], z["query_y"],
                       z["gallery_X"], z["gallery_y"])


# ---------------------------------------------------------------------------
# Single-seed scenario runs

def _embedding_set(model, head, X, y, policy, mcfg):
    _, times, spaces, unc = embed_batch(model, X, policy, mcfg)
    es = EmbeddingSet.from_lorentz(times, spaces, y, mcfg.curvature_K,
                                   model.generation_tag)
    return es, unc


class _Generation(NamedTuple):
    """One trained model with its query and gallery embeddings."""

    model: EncoderModel
    head: np.ndarray
    queries: EmbeddingSet
    gallery: EmbeddingSet
    gallery_unc: np.ndarray


def _seeded(cfg: ExperimentConfig, seed: int):
    """The dataset and the training config of one seed."""
    return (generate_dataset(replace(cfg.dataset, seed=cfg.dataset.seed + seed)),
            replace(cfg.train, seed=cfg.train.seed + seed))


def _fit(cfg, ds, train_ds, arch, tcfg, prev=None, align=None) -> _Generation:
    """Train one generation on ``train_ds`` and embed ``ds``'s query and
    gallery splits: an old model when ``prev`` is None, otherwise a new model
    aligned to ``prev.model`` under ``align``."""
    mcfg, policy = cfg.manifold, cfg.clip
    data = (train_ds.train_X, train_ds.train_y, ds.num_classes)
    if prev is None:
        model, head, _ = train_old(*data, mcfg, policy, tcfg, arch=arch)
    else:
        model, head, _ = train_new(*data, prev.model, align, mcfg, policy, tcfg,
                                   arch=arch)
    queries, _ = _embedding_set(model, head, ds.query_X, ds.query_y, policy, mcfg)
    gallery, unc = _embedding_set(model, head, ds.gallery_X, ds.gallery_y, policy, mcfg)
    return _Generation(model, head, queries, gallery, unc)


@dataclass
class ScenarioResult:
    """Trained generations and their retrieval pairings for one seed."""

    old_model: EncoderModel
    old_head: np.ndarray
    star_model: EncoderModel
    star_head: np.ndarray
    new_model: EncoderModel
    new_head: np.ndarray
    reports: dict
    uncertainties: dict
    galleries: dict  # "old" / "new" -> the gallery EmbeddingSet the reports used


def scenario_slices(ds: Dataset, spec: ScenarioSpec, seed: int):
    """(old dataset slice, new dataset, old arch, new arch) for one run."""
    full = ds
    if spec.kind == "ext_data":
        rng = np.random.default_rng(10_000 + seed)
        old_ds = full.subsample_train(spec.old_fraction, rng)
        return old_ds, full, spec.old_arch, spec.old_arch
    if spec.kind == "ext_class":
        n_old = max(1, int(round(spec.class_fraction * full.num_classes)))
        return full.restrict_classes(range(n_old)), full, spec.old_arch, spec.old_arch
    if spec.kind == "new_arch":
        return full, full, spec.old_arch, spec.new_arch
    if spec.kind == "both":
        n_old = max(1, int(round(spec.class_fraction * full.num_classes)))
        return (full.restrict_classes(range(n_old)), full,
                spec.old_arch, spec.new_arch)
    raise InvalidArgumentError(f"scenario kind {spec.kind!r} has no single-run slices")


def run_variants(cfg: ExperimentConfig, seed: int, variants,
                 metrics=DEFAULT_METRICS) -> dict:
    """Train old and star models once, then one aligned model per variant.

    ``variants`` maps a name to an AlignmentConfig; the returned dict maps each
    name to a ScenarioResult sharing the same old model and star anchor.
    """
    if not metrics:
        raise InvalidArgumentError("no metrics to evaluate")
    for metric in metrics:
        parse_metric(metric)  # a bad name fails before any training
    ds, tcfg = _seeded(cfg, seed)
    old_ds, new_ds, old_arch, new_arch = scenario_slices(ds, cfg.scenario, seed)
    old = _fit(cfg, ds, old_ds, old_arch, tcfg)
    # the new generation gets its own initialization stream: without this the
    # unaligned baseline would inherit the old model's init and look spuriously
    # compatible on toy data
    new_tcfg = replace(tcfg, seed=tcfg.seed + 101)
    star = _fit(cfg, ds, new_ds, new_arch, new_tcfg, old,
                replace(cfg.alignment, lambda_align=0.0))
    old_self = {m: evaluate_metric(old.queries, old.gallery, m) for m in metrics}
    star_self = {m: evaluate_metric(star.queries, star.gallery, m) for m in metrics}

    results = {}
    for name, align_cfg in variants.items():
        new = _fit(cfg, ds, new_ds, new_arch, new_tcfg, old, align_cfg)
        reports = {m: CompatReport.compute(
            m,
            self_value=evaluate_metric(new.queries, new.gallery, m),
            cross_value=evaluate_metric(new.queries, old.gallery, m),
            old_self_value=old_self[m],
            star_self_value=star_self[m],
        ) for m in metrics}
        unc = {"old_gallery": old.gallery_unc, "new_gallery": new.gallery_unc,
               "gallery_labels": ds.gallery_y}
        results[name] = ScenarioResult(old.model, old.head, star.model, star.head,
                                       new.model, new.head, reports, unc,
                                       {"old": old.gallery, "new": new.gallery})
    return results


def run_single(cfg: ExperimentConfig, seed: int,
               metrics=DEFAULT_METRICS) -> ScenarioResult:
    """Train old / star / new models for one seed and evaluate all pairings."""
    return run_variants(cfg, seed, {"hbct": cfg.alignment}, metrics=metrics)["hbct"]


def _chain(cfg: ExperimentConfig, seed: int, aligned: bool):
    """A chain of generations and their star anchors, as two lists of records.

    Classes are split into n_steps cumulative groups.  When the scenario
    declares a new architecture it takes over from the midpoint of the chain.
    Every step trains a lambda = 0 star against the previous generation; the
    aligned chain also trains the HBCT model from the second step on, and
    otherwise the star is the generation itself.
    """
    spec = cfg.scenario
    ds, tcfg = _seeded(cfg, seed)
    group = int(math.ceil(ds.num_classes / spec.n_steps))
    star_cfg = replace(cfg.alignment, lambda_align=0.0)
    gens, stars = [], []
    for step in range(spec.n_steps):
        step_ds = ds.restrict_classes(range(min(ds.num_classes, group * (step + 1))))
        arch = spec.old_arch if step < (spec.n_steps + 1) // 2 else spec.new_arch
        step_tcfg = replace(tcfg, seed=tcfg.seed + 101 * step)
        prev = gens[-1] if gens else None
        stars.append(_fit(cfg, ds, step_ds, arch, step_tcfg, prev, star_cfg))
        gens.append(_fit(cfg, ds, step_ds, arch, step_tcfg, prev, cfg.alignment)
                    if aligned and prev is not None else stars[-1])
    return gens, stars


def _pairs(chain):
    return [(g.queries, g.gallery) for g in chain]


def sequential_matrix(cfg: ExperimentConfig, seed: int, aligned: bool = True,
                      metric: str = "cmc@1") -> np.ndarray:
    parse_metric(metric)
    gens, stars = _chain(cfg, seed, aligned)
    return compatibility_matrix(_pairs(gens), _pairs(stars), metric)


# ---------------------------------------------------------------------------
# Multi-seed orchestration and artifacts

def _run_dir(cfg, seed):
    root = os.environ.get("HBCT_OUTPUT_ROOT", ".")
    return os.path.join(root, cfg.output_dir, f"seed_{seed}")


def write_report(path_prefix, reports):
    """Text table plus machine-readable key = value file."""
    lines = [f"{'metric':<8} {'self':>8} {'cross':>8} {'old_self':>9} "
             f"{'star_self':>9} {'p_com':>8} {'p_up':>8}"]
    for rep in reports.values():
        lines.append(f"{rep.metric:<8} {rep.self_value:8.4f} {rep.cross_value:8.4f} "
                     f"{rep.old_self_value:9.4f} {rep.star_self_value:9.4f} "
                     f"{rep.p_com:8.4f} {rep.p_up:8.4f}")
    with open(path_prefix + ".txt", "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(path_prefix + ".kv", "w") as f:
        for rep in reports.values():
            for key, val in rep.as_items():
                f.write(f"{key} = {val!r}\n")


def run_scenario(cfg: ExperimentConfig, metrics=DEFAULT_METRICS):
    """Run every seed, write artifacts, and return the per-seed results."""
    if cfg.scenario.kind == "sequential":
        raise InvalidArgumentError("use run_matrix for sequential scenarios")
    results = {}
    for seed in cfg.seeds:
        res = run_single(cfg, seed, metrics=metrics)
        out = _run_dir(cfg, seed)
        os.makedirs(out, exist_ok=True)
        mcfg, policy = cfg.manifold, cfg.clip
        for name, model, head in (("old", res.old_model, res.old_head),
                                  ("star", res.star_model, res.star_head),
                                  ("new", res.new_model, res.new_head)):
            save_checkpoint(os.path.join(out, f"{name}.ckpt"), model, head, mcfg, policy)
        for name, es in res.galleries.items():
            save_embedding_set(os.path.join(out, f"{name}_gallery.emb"), es)
        write_report(os.path.join(out, "report"), res.reports)
        emit_plots(res, out)
        results[seed] = res
    return results


def run_matrix(cfg: ExperimentConfig, metric="cmc@1"):
    """Sequential-update matrices per seed, for HBCT and the unaligned chain.

    One aligned chain serves both: a lambda = 0 update reads the previous model
    only for its generation tag, so the unaligned chain is exactly the aligned
    chain's star models.
    """
    parse_metric(metric)
    out_all = {}
    for seed in cfg.seeds:
        gens, stars = _chain(cfg, seed, aligned=True)
        star_pairs = _pairs(stars)
        m_hbct = compatibility_matrix(_pairs(gens), star_pairs, metric)
        m_base = compatibility_matrix(star_pairs, star_pairs, metric)
        out = _run_dir(cfg, seed)
        os.makedirs(out, exist_ok=True)
        write_matrix_table(os.path.join(out, "matrix_hbct.txt"), m_hbct)
        write_matrix_table(os.path.join(out, "matrix_baseline.txt"), m_base)
        out_all[seed] = (m_hbct, m_base)
    return out_all


def run_sweep(cfg: ExperimentConfig, lambdas, metric="cmc@1"):
    """Trade-off table over alignment weights (self vs cross retrieval).

    Each seed trains its old and star models once, shared by every weight.
    """
    variants = {lam: replace(cfg.alignment, lambda_align=lam) for lam in lambdas}
    per_seed = [run_variants(cfg, seed, variants, metrics=(metric,))
                for seed in cfg.seeds]
    rows = []
    for lam in lambdas:
        reps = [res[lam].reports[metric] for res in per_seed]
        rows.append((lam, float(np.median([r.self_value for r in reps])),
                     float(np.median([r.cross_value for r in reps])),
                     float(np.median([r.p_com for r in reps]))))
    return rows


# ---------------------------------------------------------------------------
# Plot / table emission (plain text and SVG)

def write_matrix_table(path, matrix):
    tags = [f"g{i}" for i in range(len(matrix))]
    lines = ["query\\gallery " + " ".join(f"{t:>8}" for t in tags)]
    for tag, row in zip(tags, np.asarray(matrix)):
        lines.append(f"{tag:<13} " + " ".join(f"{v:8.4f}" for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_histogram_text(path, named_series, bins=20):
    lines = []
    for name, values in named_series:
        counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
        lines.append(f"# {name} (n={len(values)})")
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            bar = "#" * c
            lines.append(f"[{lo:5.3f},{hi:5.3f}) {c:4d} {bar}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_histogram_svg(path, named_series):
    bins, width, height = 20, 480, 240
    colors = ("#4477aa", "#ee6677", "#228833", "#ccbb44")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    series = [(name, *np.histogram(v, bins=bins, range=(0.0, 1.0)))
              for name, v in named_series]
    peak = max((c.max() for _, c, _ in series if len(c)), default=1) or 1
    bw = width / bins
    for si, (name, counts, _) in enumerate(series):
        color = colors[si % len(colors)]
        for bi, c in enumerate(counts):
            h = (height - 20) * c / peak
            parts.append(
                f'<rect x="{bi * bw + si * bw / len(series):.1f}" '
                f'y="{height - h:.1f}" width="{bw / len(series):.1f}" '
                f'height="{h:.1f}" fill="{color}" fill-opacity="0.7"/>')
        parts.append(f'<text x="4" y="{12 + 14 * si}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def emit_plots(result, out_dir):
    """Uncertainty histograms (text + SVG) for one scenario result."""
    series = [("old_gallery", result.uncertainties["old_gallery"]),
              ("new_gallery", result.uncertainties["new_gallery"])]
    write_histogram_text(os.path.join(out_dir, "uncertainty_hist.txt"), series)
    write_histogram_svg(os.path.join(out_dir, "uncertainty_hist.svg"), series)
