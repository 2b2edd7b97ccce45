"""Toy dense encoders, the Euclidean-to-hyperbolic embedding pipeline, and the
SGD training loops for old (base-loss-only) and new (HBCT-aligned) generations.

Encoders are tanh MLPs; a linear encoder is a single layer with no activation.
One pipeline, :func:`embed_vars`, maps inputs to hyperboloid points: on plain
arrays for embedding and evaluation, on array tape Vars (one leaf per
parameter array) for training.  Training is bit-reproducible for a fixed
seed.  Old-model embeddings are computed once up front (the old model is
frozen) and enter the new model's loss as constants.

Models that share a generation's data, init and batch order (an update's
star and its aligned variants) train as one stack: every parameter gains a
leading model axis, numpy runs one call per layer for the whole stack, and
one flat buffer holds every model's parameters for the SGD update.  A batched
matmul runs one BLAS call per model, the call a single model makes, so each
model keeps its bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import HbctError, InvalidArgumentError, NumericalDomainError, TrainingFailureError
from .evaluation import _row_blocks, check_generation_tag
from .losses import AlignmentConfig, OldBatch, stack_loss, total_loss
from .manifold import ManifoldConfig, hexpm_origin, rescale_clip, uncertainty

_add_reduce = np.add.reduce

CHECKPOINT_MAGIC = b"HBCT"
CHECKPOINT_VERSION = 1
KIND_MODEL = 1


@dataclass
class ClipPolicy:
    """Generation-dependent clipping threshold: zeta(g) = zeta_old + g * step."""

    zeta_old: float = 1.0
    zeta_step: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.zeta_old < math.inf:
            raise InvalidArgumentError(f"zeta_old must be finite and > 0, got {self.zeta_old}")
        if not math.isfinite(self.zeta_step):
            raise InvalidArgumentError(f"zeta_step must be finite, got {self.zeta_step}")

    def zeta(self, generation: int) -> float:
        z = self.zeta_old + generation * self.zeta_step
        if z <= 0:
            raise InvalidArgumentError(f"clip threshold {z} for generation {generation}")
        return z


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise InvalidArgumentError("epochs and batch_size must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidArgumentError("learning_rate must be finite and positive")
        if not all(0.0 <= v < math.inf for v in (self.momentum, self.weight_decay)):
            raise InvalidArgumentError("momentum/weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise InvalidArgumentError(f"train seed must be >= 0, got {self.seed}")


class EncoderModel:
    """Dense tanh MLP: layers of (weight, bias), tanh between layers only."""

    def __init__(self, layers, generation_tag=0):
        self.layers = [(np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for W, b in layers]
        self.generation_tag = check_generation_tag(generation_tag)

    @classmethod
    def init(cls, input_dim, hidden_dims, output_dim, rng, generation_tag=0):
        dims = [input_dim, *hidden_dims, output_dim]
        return cls([(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in)),
                     np.zeros(fan_out)) for fan_in, fan_out in zip(dims[:-1], dims[1:])],
                   generation_tag)

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self):
        return self.layers[-1][0].shape[0]

    def params(self):
        return [a for layer in self.layers for a in layer]


def _layer(rec, h, W, b):
    WT = np.swapaxes(W, -1, -2)  # a selection of a checked value
    hw = ad.checked(h @ WT, rec)
    # b[..., None, :] is a selection of a checked value: each model's bias over its rows
    return ad.checked(hw + b[..., None, :], rec), (h, WT)


def _layer_vjp(g, out, saved, parents):
    h, WT = saved
    pairs = []
    if parents[2] is not None:                            # h @ W.T + b -> b
        pairs.append((parents[2], _add_reduce(g, axis=-2)))
    if parents[0] is not None:                            # h @ W.T -> h
        pairs.append((parents[0], ad.matmul_vjp_a(g, None, h, WT)))
    if parents[1] is not None:                            # -> W.T, transpose -> W
        pairs.append((parents[1], np.swapaxes(ad.fit(ad.matmul_vjp_b(g, None, h, WT),
                                                     WT.shape), -1, -2)))
    return pairs


def embed_vars(params, X, zeta, mcfg: ManifoldConfig):
    """Encoder forward pass, rescale-clip and origin expmap over the rows of X.

    ``params`` alternates layer weights and biases in EncoderModel.params()
    order, as plain arrays or as tape Vars; tanh sits between layers only.
    Each layer, h @ W.T + b, is one tape node.  A stack of models gives every
    parameter a leading model axis; the rows of X are shared by the stack, and
    each output gains the same leading axis.  Returns (Z, (times, spaces)).
    """
    h = X
    for i in range(0, len(params), 2):
        if i:
            h = ad.tanh(h)
        h = ad.formula(_layer, _layer_vjp, (h, params[i], params[i + 1]))
    Z = rescale_clip(h, zeta, mcfg)
    return Z, hexpm_origin(Z, mcfg)


def embed_batch(model: EncoderModel, X, policy: ClipPolicy, mcfg: ManifoldConfig):
    """Embed the rows of X on the hyperboloid, with each point's uncertainty.

    Returns (Z, times, spaces, uncertainties); spaces has shape (N, d).  Rows
    run through the pipeline in blocks of at least 2048 (evaluation._row_blocks),
    each written into the outputs, so the intermediates stay block-sized; up to
    4096 rows are one call.  A block of that size matmuls with the bits of one
    call over all rows, where a few dozen rows or one (a gemv) could round
    otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    params, zeta = model.params(), policy.zeta(model.generation_tag)

    def embed(rows):
        Z, (times, spaces) = embed_vars(params, rows, zeta, mcfg)
        return Z, times, spaces, uncertainty((times, spaces), mcfg)

    if X.ndim != 2 or len(blocks := _row_blocks(len(X))) == 1:
        return embed(X)
    out = None
    for lo, hi in blocks:
        parts = embed(X[lo:hi])
        if out is None:
            out = tuple(np.empty((len(X), *p.shape[1:]), p.dtype) for p in parts)
        for o, p in zip(out, parts):
            o[lo:hi] = p
    return out


# ---------------------------------------------------------------------------
# Training

def _views(buf, shapes):
    """One view per shape into the last axis of buf, in order, each with buf's
    leading axes in front."""
    lead, views, off = buf.shape[:-1], [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[..., off:off + n].reshape(*lead, *shape))
        off += n
    return views


_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


def _backprop(params, grads, shapes, X, y, old, cfgs, zeta, mcfg, step):
    """The losses of one step of the models whose parameter rows are ``params``,
    under ``cfgs``; their gradients go to the rows of ``grads``.  A stack of one
    model trains on its plain parameter arrays."""
    models = slice(None) if len(cfgs) > 1 else 0
    tape = Tape()
    leaves = [tape.var(p) for p in _views(params[models], shapes)]
    try:
        _, batch_new = embed_vars(leaves[:-1], X, zeta, mcfg)
        loss = (stack_loss(batch_new, y, *old, leaves[-1], cfgs, mcfg) if len(cfgs) > 1
                else total_loss(batch_new, y, *old, leaves[-1], cfgs[0], mcfg))
    except NumericalDomainError as e:
        raise TrainingFailureError(f"loss diverged at step {step}: {e}", step=step) from e
    adjoints = ad.backward(tape, loss)
    for view, leaf in zip(_views(grads[models], shapes), leaves):
        view[...] = 0.0 if adjoints[leaf.idx] is None else adjoints[leaf.idx]
    return np.atleast_1d(loss.val)


def _train_stack(X, y, num_classes, arch, mcfg, policy, tcfg, aligns, old_model):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise InvalidArgumentError("dataset must be a non-empty 2-d array")
    if len(X) != len(y):
        raise InvalidArgumentError("inputs and labels must align")
    if old_model is not None and \
            (old_model.input_dim, old_model.output_dim) != (X.shape[1], mcfg.dim_d):
        raise InvalidArgumentError(
            f"old model maps {old_model.input_dim} -> {old_model.output_dim} dims; the "
            f"dataset and manifold.dim_d give {X.shape[1]} -> {mcfg.dim_d}")
    generation = 0 if old_model is None else old_model.generation_tag + 1
    rng = np.random.default_rng(tcfg.seed)
    model = EncoderModel.init(X.shape[1], arch, mcfg.dim_d, rng, generation)
    head = rng.normal(0.0, 0.1, size=(num_classes, mcfg.dim_d))

    unaligned = np.array([align.lambda_align == 0.0 for align in aligns])
    if not unaligned.all():
        if min(tcfg.batch_size, len(X)) < 2:
            raise InvalidArgumentError("aligned training needs batches of at least 2 "
                                       "rows; the contrastive loss pairs rows")
        # old model is frozen: embed the whole training set once, as constants.  A
        # stack of several models does so before its first model steps, so what numpy
        # would warn of raises, and the models train one at a time instead
        with np.errstate(**({} if len(aligns) == 1 else _RAISE)):
            _, old_times, old_spaces, old_unc = embed_batch(old_model, X, policy, mcfg)
        # the cone constants of every train row, as a step would compute them
        with np.errstate(all="ignore"):
            old_batch = OldBatch.of((old_times, old_spaces),
                                    [a for a in aligns if a.lambda_align > 0.0], mcfg)
    zeta = policy.zeta(generation)

    # one row per model of every parameter array and the head, flattened in order;
    # an SGD step updates and checks the whole buffer at once
    init = model.params() + [head]
    shapes = [a.shape for a in init]
    params = np.tile(np.concatenate([a.ravel() for a in init]), (len(aligns), 1))
    vel = np.zeros_like(params)
    grads = np.empty_like(params)
    everyone = np.arange(len(aligns))
    epoch_losses = [[] for _ in aligns]
    step = 0
    for epoch in range(tcfg.epochs):
        # cosine annealing from the full rate at epoch 0
        lr = tcfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / tcfg.epochs))
        perm = rng.permutation(len(X))
        losses = [[] for _ in aligns]
        for start in range(0, len(X), tcfg.batch_size):
            idx = perm[start:start + tcfg.batch_size]
            # a 1-row tail batch steps only the unaligned models: the contrastive
            # loss needs >= 2 pairs
            rows = everyone if len(idx) > 1 else np.flatnonzero(unaligned)
            if len(rows) == 0:
                continue
            partial = len(rows) < len(aligns)
            a, v, g = ((params[rows], vel[rows], grads[rows]) if partial
                       else (params, vel, grads))
            old = (old_batch.take(idx), old_unc[idx]) \
                if not unaligned[rows].all() else (None, None)
            # a non-finite value raises on the tape or in the parameter check below;
            # numpy need not warn first
            with np.errstate(all="ignore"):
                values = _backprop(a, g, shapes, X[idx], y[idx], old,
                                   [aligns[m] for m in rows], zeta, mcfg, step)
                g += tcfg.weight_decay * a
                v *= tcfg.momentum
                v -= lr * g
                a += v
            if not np.isfinite(a).all():
                raise TrainingFailureError(f"non-finite parameters at step {step}",
                                           step=step)
            if partial:
                params[rows], vel[rows] = a, v
            for m, value in zip(rows, values):
                losses[m].append(float(value))
            step += 1
        for m, per_step in enumerate(losses):
            epoch_losses[m].append(float(np.mean(per_step)))
    trained = []
    for row, per_epoch in zip(params, epoch_losses):
        *arrays, head = _views(row.copy(), shapes)
        trained.append((EncoderModel(zip(arrays[::2], arrays[1::2]), generation), head,
                        per_epoch))
    return trained


def train_old(X, y, num_classes, mcfg: ManifoldConfig, policy: ClipPolicy,
              tcfg: TrainConfig, arch=()):
    """Train generation 0 with the base classification loss only."""
    return train_stack(X, y, num_classes, None, [None], mcfg, policy, tcfg, arch)[0]


def train_new(X, y, num_classes, old_model: EncoderModel, align_cfg: AlignmentConfig,
              mcfg: ManifoldConfig, policy: ClipPolicy, tcfg: TrainConfig,
              arch=()):
    """Train the next generation against a frozen old model."""
    return train_stack(X, y, num_classes, old_model, [align_cfg], mcfg, policy, tcfg,
                       arch)[0]


def train_stack(X, y, num_classes, old_model, align_cfgs, mcfg: ManifoldConfig,
                policy: ClipPolicy, tcfg: TrainConfig, arch=()):
    """Train, as one stack of models, the generation after ``old_model`` (generation
    0 when None) under each AlignmentConfig of ``align_cfgs``: a list of (model,
    head, epoch losses) in that order, each with the bits of training that model
    alone.  The models share the init, the batch order and the numpy calls of the
    encoder and the base loss.

    A failure in a stack of several models trains them again one at a time, in
    order, so the first model to fail raises exactly what it raises alone.  A
    config of None trains at lambda = 0.
    """
    align_cfgs = [AlignmentConfig(lambda_align=0.0) if align is None else align
                  for align in align_cfgs]
    run = (X, y, num_classes, arch, mcfg, policy, tcfg)
    try:
        return _train_stack(*run, align_cfgs, old_model)
    except (HbctError, FloatingPointError):
        if len(align_cfgs) == 1:
            raise
    return [_train_stack(*run, [align], old_model)[0] for align in align_cfgs]


# ---------------------------------------------------------------------------
# Checkpoint container (exact byte layout documented in the README)

# magic, version, kind, generation, K, zeta, layer count, class count
_CKPT_HEADER = struct.Struct("<4sIIiddII")


def save_checkpoint(path, model: EncoderModel, head, mcfg: ManifoldConfig,
                    policy: ClipPolicy):
    arrays = model.params() + [np.asarray(head, dtype=np.float64)]
    zeta = policy.zeta(model.generation_tag)
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, KIND_MODEL,
                                  model.generation_tag, mcfg.curvature_K, zeta,
                                  len(model.layers), arrays[-1].shape[0]))
        for W, _ in model.layers:
            f.write(struct.pack("<II", W.shape[1], W.shape[0]))
        for a in arrays:
            f.write(a.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, head, curvature_K, zeta)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _CKPT_HEADER.size or data[:4] != CHECKPOINT_MAGIC:
        raise InvalidArgumentError("not an HBCT checkpoint (bad magic or short header)")
    _, version, kind, generation, K, zeta, n_layers, n_classes = \
        _CKPT_HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION or kind != KIND_MODEL:
        raise InvalidArgumentError(f"unsupported checkpoint version/kind {version}/{kind}")
    if generation < 0:
        raise InvalidArgumentError(f"checkpoint generation tag {generation} is negative")
    off = _CKPT_HEADER.size + 8 * n_layers
    if n_layers == 0 or len(data) < off:
        raise InvalidArgumentError(f"checkpoint layer table of {n_layers} layers is "
                                   f"empty or truncated")
    dims = list(struct.iter_unpack("<II", data[_CKPT_HEADER.size:off]))
    if any(out_d != in_d for (_, out_d), (in_d, _) in zip(dims, dims[1:])):
        raise InvalidArgumentError(f"checkpoint layer shapes {dims} do not chain")
    # the body is params() order, W0, b0, ..., W_L, b_L, then the head
    shapes = [s for i, o in dims for s in ((o, i), (o,))] + [(n_classes, dims[-1][1])]
    sizes = [math.prod(s) for s in shapes]
    expected = off + 8 * sum(sizes)
    if len(data) != expected:
        raise InvalidArgumentError(f"checkpoint is {len(data)} bytes, its header "
                                   f"implies {expected}")
    body = np.frombuffer(data, "<f8", offset=off).astype(np.float64)
    if not (np.isfinite(body).all() and 0.0 < K < math.inf and 0.0 < zeta < math.inf):
        raise InvalidArgumentError(f"checkpoint values must be finite, and curvature_K "
                                   f"= {K} and zeta = {zeta} > 0")
    *params, head = [a.reshape(s) for a, s in zip(np.split(body, np.cumsum(sizes)[:-1]),
                                                  shapes)]
    model = EncoderModel(zip(params[::2], params[1::2]), generation_tag=generation)
    return model, head, K, zeta
