"""Command-line surface: dataset generation, training, evaluation, and the
end-to-end scenario / sequential-matrix / sweep experiments.

Exit codes: 0 success, 2 bad configuration or input (including a missing or
unreadable input file and an unwritable output path), 3 numerical or training
failure.
The output root is the current directory unless HBCT_OUTPUT_ROOT is set.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .encoder import load_checkpoint, save_checkpoint, train_new, train_old
from .errors import (DegenerateBaselineError, InvalidArgumentError,
                     NumericalDomainError, TrainingFailureError)
from .evaluation import evaluate_metric, load_embedding_set
from .scenarios import (DEFAULT_METRICS, generate_dataset, load_dataset, run_matrix,
                        run_scenario, run_sweep, save_dataset)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_config_arg(p):
    p.add_argument("--config", required=True, help="experiment config file")


def build_parser():
    p = argparse.ArgumentParser(prog="hbct",
                                description="Hyperbolic backward-compatible training")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    _add_config_arg(g)
    g.add_argument("--out", required=True, help="output .npz path")

    to = sub.add_parser("train-old", help="train the base (old) model")
    _add_config_arg(to)
    to.add_argument("--data", required=True)
    to.add_argument("--out", required=True, help="checkpoint path")

    tn = sub.add_parser("train-new", help="train an aligned new model")
    _add_config_arg(tn)
    tn.add_argument("--data", required=True)
    tn.add_argument("--old", required=True, help="old model checkpoint")
    tn.add_argument("--out", required=True)
    tn.add_argument("--init-from-old", action="store_true",
                    help="start from the old model's weights instead of fresh")

    ev = sub.add_parser("evaluate", help="retrieval metric between two stores")
    ev.add_argument("--queries", required=True, help="query embedding store")
    ev.add_argument("--gallery", required=True, help="gallery embedding store")
    ev.add_argument("--metric", default="cmc@1", help="cmc@<k> or map")

    sc = sub.add_parser("scenario", help="end-to-end scenario over all seeds")
    _add_config_arg(sc)
    sc.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                    help="comma-separated cmc@<k> or map; the first is printed")

    mx = sub.add_parser("matrix", help="sequential-update compatibility matrix")
    _add_config_arg(mx)
    mx.add_argument("--metric", default="cmc@1")

    sw = sub.add_parser("sweep", help="alignment-weight sweep")
    _add_config_arg(sw)
    sw.add_argument("--lambdas", default="0,0.1,0.3,1.0")
    sw.add_argument("--metric", default="cmc@1")
    sw.add_argument("--out", default=None, help="optional table output path")
    return p


def _cmd_generate(args):
    cfg = cfgmod.load(args.config)
    save_dataset(args.out, generate_dataset(cfg.dataset))
    print(f"wrote dataset to {args.out}")


def _cmd_train_old(args):
    cfg = cfgmod.load(args.config)
    ds = load_dataset(args.data)
    model, head, losses = train_old(ds.train_X, ds.train_y, ds.num_classes,
                                    cfg.manifold, cfg.clip, cfg.train,
                                    arch=cfg.scenario.old_arch)
    save_checkpoint(args.out, model, head, cfg.manifold, cfg.clip)
    print(f"trained old model (final epoch loss {losses[-1]:.4f}); wrote {args.out}")


def _cmd_train_new(args):
    cfg = cfgmod.load(args.config)
    ds = load_dataset(args.data)
    old_model, _, K, zeta = load_checkpoint(args.old)
    want = (cfg.manifold.curvature_K, cfg.clip.zeta(old_model.generation_tag))
    if (K, zeta) != want:
        raise InvalidArgumentError(f"old checkpoint has curvature_K = {K}, zeta = {zeta}; "
                                   f"the config gives {want[0]}, {want[1]}")
    model, head, losses = train_new(ds.train_X, ds.train_y, ds.num_classes,
                                    old_model, cfg.alignment, cfg.manifold,
                                    cfg.clip, cfg.train, arch=cfg.scenario.new_arch,
                                    init_from_old=args.init_from_old)
    save_checkpoint(args.out, model, head, cfg.manifold, cfg.clip)
    print(f"trained new model (final epoch loss {losses[-1]:.4f}); wrote {args.out}")


def _cmd_evaluate(args):
    q = load_embedding_set(args.queries)
    # one file named twice is one set, so that self mode drops each query's own row
    same = os.path.samefile(args.queries, args.gallery)
    g = q if same else load_embedding_set(args.gallery)
    print(f"{args.metric} = {evaluate_metric(q, g, args.metric):.6f}")


def _cmd_scenario(args):
    cfg = cfgmod.load(args.config)
    metrics = args.metrics.split(",")
    results = run_scenario(cfg, metrics=metrics)
    for seed, res in results.items():
        rep = res.reports[metrics[0]]
        print(f"seed {seed}: p_com={rep.p_com:.4f} p_up={rep.p_up:.4f} "
              f"cross={rep.cross_value:.4f} self={rep.self_value:.4f}")


def _cmd_matrix(args):
    cfg = cfgmod.load(args.config)
    results = run_matrix(cfg, metric=args.metric)
    for seed, (m_hbct, m_base) in results.items():
        print(f"seed {seed}: HBCT matrix")
        print(np.array2string(m_hbct, precision=4))


def _cmd_sweep(args):
    cfg = cfgmod.load(args.config)
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"--lambdas must be comma-separated numbers, "
                                   f"got {args.lambdas!r}") from None
    rows = run_sweep(cfg, lambdas, metric=args.metric)
    header = f"{'lambda':>8} {'self':>8} {'cross':>8} {'p_com':>8}"
    lines = [header] + [f"{lam:8.3f} {s:8.4f} {c:8.4f} {pc:8.4f}"
                        for lam, s, c, pc in rows]
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")


_COMMANDS = {
    "generate": _cmd_generate,
    "train-old": _cmd_train_old,
    "train-new": _cmd_train_new,
    "evaluate": _cmd_evaluate,
    "scenario": _cmd_scenario,
    "matrix": _cmd_matrix,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (InvalidArgumentError, OSError) as e:
        print(f"bad config or input: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingFailureError, NumericalDomainError, DegenerateBaselineError) as e:
        print(f"numerical/training failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
