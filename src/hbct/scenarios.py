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

import lzma
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .encoder import (ClipPolicy, EncoderModel, TrainConfig, embed_batch,
                      save_checkpoint, train_new, train_old)
from .errors import (DegenerateBaselineError, InvalidArgumentError, NumericalDomainError,
                     TrainingFailureError)
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
        if self.n_steps < 2:  # hbct matrix runs a chain of n_steps for every kind
            raise InvalidArgumentError(f"n_steps must be >= 2, got {self.n_steps}")
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
        if len(set(self.seeds)) < len(self.seeds):
            raise InvalidArgumentError(f"seeds must not repeat, got {self.seeds!r}")


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


def generate_dataset(spec: SyntheticDatasetSpec) -> Dataset:
    """Gaussian clusters with random class centers; deterministic under seed."""
    if spec.samples_per_class < 3:
        raise InvalidArgumentError("samples_per_class must be >= 3 to split three ways")
    C, n, D = spec.num_classes, spec.samples_per_class, spec.input_dim
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(size=(C, D))
    centers *= spec.class_center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    n_hold = max(1, n // 5)
    # one draw fills the same stream, class by class, as one draw per class
    samples = centers[:, None] + spec.cluster_spread * rng.normal(size=(C, n, D))

    def split(lo, hi):
        return samples[:, lo:hi].reshape(-1, D), np.repeat(np.arange(C), hi - lo)

    return Dataset(*split(2 * n_hold, n), *split(0, n_hold), *split(n_hold, 2 * n_hold))


def save_dataset(path, ds: Dataset):
    # given a file object, np.savez writes exactly there rather than at path + ".npz"
    with open(path, "wb") as out:
        np.savez(out, **{f.name: getattr(ds, f.name) for f in fields(Dataset)})


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset.

    A file that is not an npz of the six split arrays, or whose arrays are not
    finite numeric 2-d features with one non-negative integer label per row
    (with an equal feature width in every split and a non-empty train split),
    raises InvalidArgumentError.  So does a label beyond int32, or a train
    label not below the number of train rows.
    """
    with open(path, "rb") as f:
        try:
            z = np.load(f, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("it holds a single array, not an npz archive")
            arrays = {f.name: z[f.name] for f in fields(Dataset)}
        # what zipfile, its decompressors and the .npy parser raise on corrupt bytes
        except (KeyError, ValueError, EOFError, OSError, RuntimeError,
                zipfile.BadZipFile, zlib.error, lzma.LZMAError) as e:
            raise InvalidArgumentError(f"{path} is not a dataset archive: {e}") from None
    for split in ("train", "query", "gallery"):
        X, y = arrays[f"{split}_X"], arrays[f"{split}_y"]
        if X.dtype.kind not in "iuf" or X.ndim != 2 or not np.isfinite(X).all():
            raise InvalidArgumentError(f"{split}_X must be a finite numeric 2-d array")
        if X.shape[1] == 0 or X.shape[1] != arrays["train_X"].shape[1]:
            raise InvalidArgumentError(f"{split}_X has {X.shape[1]} columns; every split "
                                       f"needs the train width, at least 1")
        # labels fit the int32 label field of an embedding store
        if (y.dtype.kind not in "iu" or y.shape != X.shape[:1] or np.any(y < 0)
                or np.any(y > np.iinfo(np.int32).max)):
            raise InvalidArgumentError(
                f"{split}_y must hold one integer label in [0, 2**31) per row of {split}_X")
    train_y = arrays["train_y"]
    if len(train_y) == 0:
        raise InvalidArgumentError("the train split is empty")
    # the classifier head gets a row for every class up to the largest label
    if train_y.max() >= len(train_y):
        raise InvalidArgumentError(f"the largest train label, {train_y.max()}, must be "
                                   f"below the number of train rows, {len(train_y)}")
    return Dataset(**arrays)


# ---------------------------------------------------------------------------
# Single-seed scenario runs

def _embedding_set(model, X, y, policy, mcfg):
    _, times, spaces, unc = embed_batch(model, X, policy, mcfg)
    es = EmbeddingSet.from_lorentz(times, spaces, y, mcfg.curvature_K,
                                   model.generation_tag)
    return es, unc


class Generation(NamedTuple):
    """A trained model and head, its query and gallery embeddings, gallery uncertainties."""

    model: EncoderModel
    head: np.ndarray
    queries: EmbeddingSet
    gallery: EmbeddingSet
    gallery_unc: np.ndarray


def _seeded(cfg: ExperimentConfig, seed: int) -> Dataset:
    """The dataset of one seed."""
    return generate_dataset(replace(cfg.dataset, seed=cfg.dataset.seed + seed))


def generation_slice(ds: Dataset, spec: ScenarioSpec, seed: int, generation: int):
    """((train X, train y), hidden widths) that ``generation`` trains on in one seed's run.

    A sequential chain splits the classes into n_steps cumulative groups, and
    new_arch takes over at the chain's midpoint.  Otherwise generation 0 sees
    the old data (an old_fraction row draw for ext_data, the first
    class_fraction of the classes for ext_class and both) under old_arch, and
    every later generation sees all of ``ds``, under new_arch for new_arch and both.
    A class rule that selects no train row of ``ds`` raises InvalidArgumentError.
    """
    y, keep, late, below = ds.train_y, slice(None), False, None
    if spec.kind == "sequential":
        below = math.ceil(ds.num_classes / spec.n_steps) * (generation + 1)
        late = generation >= (spec.n_steps + 1) // 2
    elif generation > 0:
        late = spec.kind in ("new_arch", "both")
    elif spec.kind == "ext_data":
        keep = np.sort(np.random.default_rng(10_000 + seed).choice(
            len(y), size=max(1, int(round(spec.old_fraction * len(y)))), replace=False))
    elif spec.kind in ("ext_class", "both"):
        below = max(1, int(round(spec.class_fraction * ds.num_classes)))
    if below is not None:
        keep = y < below
        if not keep.any():
            raise InvalidArgumentError(f"generation {generation} of {spec.kind} trains on "
                                       f"classes below {below}; the dataset has no such "
                                       f"train rows")
    return (ds.train_X[keep], y[keep]), spec.new_arch if late else spec.old_arch


def train_generation(cfg: ExperimentConfig, ds: Dataset, seed, old_model=None, align=None):
    """(model, head, epoch losses) of the generation after ``old_model``, trained on its
    generation_slice of ``ds``: generation 0 when ``old_model`` is None, otherwise aligned
    to it under ``align``.  Generation g trains from ``train.seed + seed + 101 * g``: with
    its predecessor's init and batch order an unaligned model would look spuriously
    compatible on toy data."""
    g = 0 if old_model is None else old_model.generation_tag + 1
    (X, y), arch = generation_slice(ds, cfg.scenario, seed, g)
    tcfg = replace(cfg.train, seed=cfg.train.seed + seed + 101 * g)
    if old_model is None:
        return train_old(X, y, ds.num_classes, cfg.manifold, cfg.clip, tcfg, arch=arch)
    return train_new(X, y, ds.num_classes, old_model, align, cfg.manifold, cfg.clip,
                     tcfg, arch=arch)


def _fit(cfg, ds, seed, prev=None, align=None) -> Generation:
    """Train the generation after model ``prev``; embed ``ds``'s query and gallery."""
    mcfg, policy = cfg.manifold, cfg.clip
    model, head, _ = train_generation(cfg, ds, seed, prev, align)
    queries, _ = _embedding_set(model, ds.query_X, ds.query_y, policy, mcfg)
    gallery, unc = _embedding_set(model, ds.gallery_X, ds.gallery_y, policy, mcfg)
    return Generation(model, head, queries, gallery, unc)


def _update(cfg, ds, seed, prev: Generation, variants):
    """(star, {name: generation}) of one update after record ``prev``: the lambda = 0
    star, then one generation per AlignmentConfig in ``variants`` (at lambda = 0, the star)."""
    star = _fit(cfg, ds, seed, prev.model, replace(cfg.alignment, lambda_align=0.0))
    return star, {name: _fit(cfg, ds, seed, prev.model, align)
                  if align.lambda_align > 0 else star for name, align in variants.items()}


class ScenarioResult(NamedTuple):
    """One seed's old, star and aligned new generations, and their CompatReport per metric."""

    old: Generation
    star: Generation
    new: Generation
    reports: dict


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
    if cfg.scenario.kind == "sequential":
        raise InvalidArgumentError("a sequential chain has no single update; use run_matrix")
    ds = _seeded(cfg, seed)
    old = _fit(cfg, ds, seed)
    star, news = _update(cfg, ds, seed, old, variants)
    old_self = {m: evaluate_metric(old.queries, old.gallery, m) for m in metrics}
    star_self = {m: evaluate_metric(star.queries, star.gallery, m) for m in metrics}

    results = {}
    for name, new in news.items():
        reports = {m: CompatReport.compute(
            m,
            self_value=evaluate_metric(new.queries, new.gallery, m),
            cross_value=evaluate_metric(new.queries, old.gallery, m),
            old_self_value=old_self[m],
            star_self_value=star_self[m],
        ) for m in metrics}
        results[name] = ScenarioResult(old, star, new, reports)
    return results


def run_single(cfg: ExperimentConfig, seed: int,
               metrics=DEFAULT_METRICS) -> ScenarioResult:
    """Train old / star / new models for one seed and evaluate all pairings."""
    return run_variants(cfg, seed, {"hbct": cfg.alignment}, metrics=metrics)["hbct"]


def _chain(cfg: ExperimentConfig, seed: int):
    """A chain of generations and their star anchors, as two lists of records.

    Whatever the config's kind, the chain takes the sequential kind's
    generation_slice: n_steps cumulative class groups, with new_arch from the
    midpoint on.  Generation 0 is its own star; every later step is one
    _update under ``cfg.alignment`` after the previous generation.
    """
    cfg = replace(cfg, scenario=replace(cfg.scenario, kind="sequential"))
    ds = _seeded(cfg, seed)
    gens = [_fit(cfg, ds, seed)]
    stars = gens[:]
    for _ in range(1, cfg.scenario.n_steps):
        star, new = _update(cfg, ds, seed, gens[-1], {"hbct": cfg.alignment})
        stars.append(star)
        gens.append(new["hbct"])
    return gens, stars


def _pairs(chain):
    return [(g.queries, g.gallery) for g in chain]


def sequential_matrix(cfg: ExperimentConfig, seed: int, metric: str = "cmc@1"):
    """One seed's (HBCT, unaligned baseline) P_com matrices from one chain: a lambda = 0
    update reads its predecessor only for the generation tag, so the baseline chain is
    the chain's stars.  At lambda_align = 0 the two matrices are equal."""
    parse_metric(metric)
    gens, stars = _chain(cfg, seed)
    star_pairs = _pairs(stars)
    return (compatibility_matrix(_pairs(gens), star_pairs, metric),
            compatibility_matrix(star_pairs, star_pairs, metric))


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


def _per_seed(cfg: ExperimentConfig, run) -> list:
    """run(seed) for every seed, in order; a numerical failure's message names its seed."""
    out = []
    for seed in cfg.seeds:
        try:
            out.append(run(seed))
        except (TrainingFailureError, NumericalDomainError, DegenerateBaselineError) as e:
            e.args = (f"seed {seed}, {e}",)
            raise
    return out


def run_scenario(cfg: ExperimentConfig, metrics=DEFAULT_METRICS):
    """Run every seed, then write artifacts (none unless every seed completes)."""
    results = dict(zip(cfg.seeds, _per_seed(
        cfg, lambda seed: run_single(cfg, seed, metrics=metrics))))
    mcfg, policy = cfg.manifold, cfg.clip
    for seed, res in results.items():
        out = _run_dir(cfg, seed)
        os.makedirs(out, exist_ok=True)
        for name, g in zip(("old", "star", "new"), res):
            save_checkpoint(os.path.join(out, f"{name}.ckpt"), g.model, g.head, mcfg, policy)
        save_embedding_set(os.path.join(out, "old_gallery.emb"), res.old.gallery)
        save_embedding_set(os.path.join(out, "new_gallery.emb"), res.new.gallery)
        write_report(os.path.join(out, "report"), res.reports)
        emit_plots(res, out)
    return results


def run_matrix(cfg: ExperimentConfig, metric="cmc@1"):
    """sequential_matrix's (HBCT, baseline) pair per seed, written as two tables
    (none unless every seed completes)."""
    out_all = dict(zip(cfg.seeds, _per_seed(
        cfg, lambda seed: sequential_matrix(cfg, seed, metric))))
    for seed, (m_hbct, m_base) in out_all.items():
        out = _run_dir(cfg, seed)
        os.makedirs(out, exist_ok=True)
        write_matrix_table(os.path.join(out, "matrix_hbct.txt"), m_hbct)
        write_matrix_table(os.path.join(out, "matrix_baseline.txt"), m_base)
    return out_all


def run_sweep(cfg: ExperimentConfig, lambdas, metric="cmc@1"):
    """Trade-off table over alignment weights (self vs cross retrieval).

    Each seed trains its old and star models once, shared by every weight.
    """
    variants = {lam: replace(cfg.alignment, lambda_align=lam) for lam in lambdas}
    per_seed = _per_seed(cfg, lambda seed: run_variants(cfg, seed, variants,
                                                        metrics=(metric,)))
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


def _histograms(named_series, bins):
    """(name, n, counts, edges) per series, all binned over [min(0, lo), max(1, hi)]
    for the values' extremes lo and hi: uncertainties lie in [0, 1] only at K = 1."""
    values = [np.asarray(v, dtype=np.float64) for _, v in named_series]
    lo = min([0.0] + [v.min() for v in values if len(v)])
    hi = max([1.0] + [v.max() for v in values if len(v)])
    return [(name, len(v), *np.histogram(v, bins=bins, range=(lo, hi)))
            for (name, _), v in zip(named_series, values)]


def write_histogram_text(path, named_series, bins=20):
    lines = []
    for name, n, counts, edges in _histograms(named_series, bins):
        lines.append(f"# {name} (n={n})")
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
    series = _histograms(named_series, bins)
    peak = max((c.max() for _, _, c, _ in series), default=1) or 1
    bw = width / bins
    for si, (name, _, counts, _) in enumerate(series):
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
    series = [("old_gallery", result.old.gallery_unc),
              ("new_gallery", result.new.gallery_unc)]
    write_histogram_text(os.path.join(out_dir, "uncertainty_hist.txt"), series)
    write_histogram_svg(os.path.join(out_dir, "uncertainty_hist.svg"), series)
