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
import warnings
from dataclasses import dataclass, field, replace

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
        if not (self.cluster_spread > 0):
            raise InvalidArgumentError("cluster_spread must be > 0")


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
    for metric in metrics:
        parse_metric(metric)  # a bad name fails before any training
    mcfg, policy = cfg.manifold, cfg.clip
    ds = generate_dataset(replace(cfg.dataset, seed=cfg.dataset.seed + seed))
    old_ds, new_ds, old_arch, new_arch = scenario_slices(ds, cfg.scenario, seed)
    tcfg = replace(cfg.train, seed=cfg.train.seed + seed)
    n_classes = ds.num_classes

    old_model, old_head, _ = train_old(old_ds.train_X, old_ds.train_y, n_classes,
                                       mcfg, policy, tcfg, arch=old_arch)
    # the new generation gets its own initialization stream: without this the
    # unaligned baseline would inherit the old model's init and look spuriously
    # compatible on toy data
    new_tcfg = replace(tcfg, seed=tcfg.seed + 101)
    star_cfg = replace(cfg.alignment, lambda_align=0.0)
    star_model, star_head, _ = train_new(new_ds.train_X, new_ds.train_y, n_classes,
                                         old_model, star_cfg, mcfg, policy, new_tcfg,
                                         arch=new_arch)

    old_q, _ = _embedding_set(old_model, old_head, ds.query_X, ds.query_y, policy, mcfg)
    old_g, old_g_unc = _embedding_set(old_model, old_head, ds.gallery_X, ds.gallery_y,
                                      policy, mcfg)
    star_q, _ = _embedding_set(star_model, star_head, ds.query_X, ds.query_y,
                               policy, mcfg)
    star_g, _ = _embedding_set(star_model, star_head, ds.gallery_X, ds.gallery_y,
                               policy, mcfg)
    old_self = {m: evaluate_metric(old_q, old_g, m) for m in metrics}
    star_self = {m: evaluate_metric(star_q, star_g, m) for m in metrics}

    results = {}
    for name, align_cfg in variants.items():
        new_model, new_head, _ = train_new(new_ds.train_X, new_ds.train_y, n_classes,
                                           old_model, align_cfg, mcfg, policy,
                                           new_tcfg, arch=new_arch)
        new_q, _ = _embedding_set(new_model, new_head, ds.query_X, ds.query_y,
                                  policy, mcfg)
        new_g, new_g_unc = _embedding_set(new_model, new_head, ds.gallery_X,
                                          ds.gallery_y, policy, mcfg)
        reports = {}
        for metric in metrics:
            reports[metric] = CompatReport.compute(
                metric,
                self_value=evaluate_metric(new_q, new_g, metric),
                cross_value=evaluate_metric(new_q, old_g, metric),
                old_self_value=old_self[metric],
                star_self_value=star_self[metric],
            )
        unc = {"old_gallery": old_g_unc, "new_gallery": new_g_unc,
               "gallery_labels": ds.gallery_y}
        results[name] = ScenarioResult(old_model, old_head, star_model, star_head,
                                       new_model, new_head, reports, unc,
                                       {"old": old_g, "new": new_g})
    return results


def run_single(cfg: ExperimentConfig, seed: int,
               metrics=DEFAULT_METRICS) -> ScenarioResult:
    """Train old / star / new models for one seed and evaluate all pairings."""
    return run_variants(cfg, seed, {"hbct": cfg.alignment}, metrics=metrics)["hbct"]


def run_sequential_single(cfg: ExperimentConfig, seed: int, aligned: bool = True):
    """Train a chain of generations; returns (models, star_models, dataset).

    Classes are split into n_steps cumulative groups.  When the scenario
    declares a new architecture it takes over from the midpoint of the chain.
    The unaligned variant (aligned=False) chains lambda = 0 updates and serves
    as the baseline for the compatibility matrix.
    """
    spec = cfg.scenario
    mcfg, policy = cfg.manifold, cfg.clip
    ds = generate_dataset(replace(cfg.dataset, seed=cfg.dataset.seed + seed))
    tcfg = replace(cfg.train, seed=cfg.train.seed + seed)
    n_classes = ds.num_classes
    steps = spec.n_steps
    group = int(math.ceil(n_classes / steps))
    star_cfg = replace(cfg.alignment, lambda_align=0.0)

    models, stars = [], []
    prev = None
    for step in range(steps):
        step_ds = ds.restrict_classes(range(min(n_classes, group * (step + 1))))
        arch = spec.old_arch if step < (steps + 1) // 2 else spec.new_arch
        step_tcfg = replace(tcfg, seed=tcfg.seed + 101 * step)
        if step == 0:
            model, head, _ = train_old(step_ds.train_X, step_ds.train_y, n_classes,
                                       mcfg, policy, step_tcfg, arch=arch)
            star_model, star_head = model, head
        else:
            align = cfg.alignment if aligned else star_cfg
            model, head, _ = train_new(step_ds.train_X, step_ds.train_y, n_classes,
                                       prev, align, mcfg, policy, step_tcfg, arch=arch)
            if aligned:
                star_model, star_head, _ = train_new(step_ds.train_X, step_ds.train_y,
                                                     n_classes, prev, star_cfg, mcfg,
                                                     policy, step_tcfg, arch=arch)
            else:
                # the unaligned chain is its own star anchor
                star_model, star_head = model, head
        models.append((model, head))
        stars.append((star_model, star_head))
        prev = model
    return models, stars, ds


def _chain_pairs(chain, ds: Dataset, cfg: ExperimentConfig):
    """(query, gallery) embedding sets for each (model, head) of a chain."""
    pairs = []
    for m, h in chain:
        q, _ = _embedding_set(m, h, ds.query_X, ds.query_y, cfg.clip, cfg.manifold)
        g, _ = _embedding_set(m, h, ds.gallery_X, ds.gallery_y, cfg.clip, cfg.manifold)
        pairs.append((q, g))
    return pairs


def sequential_matrix(cfg: ExperimentConfig, seed: int, aligned: bool = True,
                      metric: str = "cmc@1") -> np.ndarray:
    parse_metric(metric)
    models, stars, ds = run_sequential_single(cfg, seed, aligned=aligned)
    star_pairs = _chain_pairs(stars, ds, cfg)
    pairs = _chain_pairs(models, ds, cfg) if aligned else star_pairs
    return compatibility_matrix(pairs, star_pairs, metric)


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
        models, stars, ds = run_sequential_single(cfg, seed, aligned=True)
        star_pairs = _chain_pairs(stars, ds, cfg)
        m_hbct = compatibility_matrix(_chain_pairs(models, ds, cfg), star_pairs, metric)
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

def write_matrix_table(path, matrix, tags=None):
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    tags = tags or [f"g{i}" for i in range(n)]
    lines = ["query\\gallery " + " ".join(f"{t:>8}" for t in tags)]
    for i in range(n):
        lines.append(f"{tags[i]:<13} " + " ".join(f"{matrix[i, j]:8.4f}"
                                                  for j in range(n)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _histogram(values, bins=20, lo=0.0, hi=1.0):
    counts, edges = np.histogram(np.asarray(values), bins=bins, range=(lo, hi))
    return counts, edges


def write_histogram_text(path, named_series, bins=20):
    lines = []
    for name, values in named_series:
        counts, edges = _histogram(values, bins=bins)
        lines.append(f"# {name} (n={len(values)})")
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            bar = "#" * c
            lines.append(f"[{lo:5.3f},{hi:5.3f}) {c:4d} {bar}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_histogram_svg(path, named_series, bins=20, width=480, height=240):
    colors = ("#4477aa", "#ee6677", "#228833", "#ccbb44")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    series = [(name, *_histogram(v, bins=bins)) for name, v in named_series]
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
    if result is None or not result.reports:
        warnings.warn("no reports to plot; nothing written")
        return
    os.makedirs(out_dir, exist_ok=True)
    series = [("old_gallery", result.uncertainties["old_gallery"]),
              ("new_gallery", result.uncertainties["new_gallery"])]
    write_histogram_text(os.path.join(out_dir, "uncertainty_hist.txt"), series)
    write_histogram_svg(os.path.join(out_dir, "uncertainty_hist.svg"), series)
