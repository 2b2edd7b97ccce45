"""Command-line surface: dataset generation, training, evaluation, and the
end-to-end scenario / sequential-matrix / sweep experiments.

Exit codes: 0 success, 2 bad configuration or input (including a missing or
unreadable input file, an unwritable output path and a size that does not fit
in memory), 3 numerical or training failure.
The output root is the current directory unless HBCT_OUTPUT_ROOT is set.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .encoder import load_checkpoint, save_checkpoint
from .errors import (DegenerateBaselineError, InvalidArgumentError,
                     NumericalDomainError, TrainingFailureError)
from .evaluation import evaluate_metric, load_embedding_set
from .scenarios import (DEFAULT_METRICS, generate_dataset, load_dataset, run_matrix,
                        run_scenario, run_sweep, save_dataset, train_generation)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _command(sub, name, run, help):
    """A subcommand that reads an experiment config; its parsed arguments
    carry its handler as ``run``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    p.add_argument("--config", required=True, help="experiment config file")
    return p


def build_parser():
    p = argparse.ArgumentParser(prog="hbct",
                                description="Hyperbolic backward-compatible training")
    sub = p.add_subparsers(dest="command", required=True)

    g = _command(sub, "generate", _cmd_generate, "generate a synthetic dataset")
    g.add_argument("--out", required=True, help="output .npz path")

    to = _command(sub, "train-old", _cmd_train, "train the base (old) model")
    to.add_argument("--data", required=True)
    to.add_argument("--out", required=True, help="checkpoint path")

    tn = _command(sub, "train-new", _cmd_train, "train an aligned new model")
    tn.add_argument("--data", required=True)
    tn.add_argument("--old", required=True, help="old model checkpoint")
    tn.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="retrieval metric between two stores")
    ev.set_defaults(run=_cmd_evaluate)
    ev.add_argument("--queries", required=True, help="query embedding store")
    ev.add_argument("--gallery", required=True, help="gallery embedding store")
    ev.add_argument("--metric", default="cmc@1", help="cmc@<k> or map")

    sc = _command(sub, "scenario", _cmd_scenario, "end-to-end scenario over all seeds")
    sc.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                    help="comma-separated cmc@<k> or map; the first is printed")

    mx = _command(sub, "matrix", _cmd_matrix, "sequential-update compatibility matrix")
    mx.add_argument("--metric", default="cmc@1")

    sw = _command(sub, "sweep", _cmd_sweep, "alignment-weight sweep")
    sw.add_argument("--lambdas", default="0,0.1,0.3,1.0")
    sw.add_argument("--metric", default="cmc@1")
    sw.add_argument("--out", default=None, help="optional table output path")
    return p


def _cmd_generate(args):
    cfg = cfgmod.load(args.config)
    save_dataset(args.out, generate_dataset(cfg.dataset))
    print(f"wrote dataset to {args.out}")


def _cmd_train(args):
    """Train seed 0's next generation, on its slice of ``--data``, as the library does."""
    cfg = cfgmod.load(args.config)
    ds = load_dataset(args.data)
    old_model = None
    if args.command == "train-new":
        old_model, _, K, zeta = load_checkpoint(args.old)
        want = (cfg.manifold.curvature_K, cfg.clip.zeta(old_model.generation_tag))
        if (K, zeta) != want:
            raise InvalidArgumentError(f"old checkpoint has curvature_K = {K}, "
                                       f"zeta = {zeta}; the config gives {want[0]}, {want[1]}")
    model, head, losses = train_generation(cfg, ds, 0, old_model, cfg.alignment)
    save_checkpoint(args.out, model, head, cfg.manifold, cfg.clip)
    print(f"trained {args.command.removeprefix('train-')} model "
          f"(final epoch loss {losses[-1]:.4f}); wrote {args.out}")


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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (InvalidArgumentError, OSError, MemoryError) as e:
        print(f"bad config or input: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingFailureError, NumericalDomainError, DegenerateBaselineError) as e:
        print(f"numerical/training failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
