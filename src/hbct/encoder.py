"""Toy dense encoders, the Euclidean-to-hyperbolic embedding pipeline, and the
SGD training loops for old (base-loss-only) and new (HBCT-aligned) generations.

Encoders are tanh MLPs; a linear encoder is a single layer with no activation.
One pipeline, :func:`embed_vars`, maps inputs to hyperboloid points: on plain
arrays for embedding and evaluation, on array tape Vars (one leaf per
parameter array) for training.  Training is bit-reproducible for a fixed
seed.  Old-model embeddings are computed once up front (the old model is
frozen) and enter the new model's loss as constants.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import InvalidArgumentError, TrainingFailureError, NumericalDomainError
from .losses import AlignmentConfig, total_loss
from .manifold import ManifoldConfig, hexpm_origin, rescale_clip, uncertainty

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
        self.generation_tag = int(generation_tag)

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


def embed_vars(params, X, zeta, mcfg: ManifoldConfig):
    """Encoder forward pass, rescale-clip and origin expmap over the rows of X.

    ``params`` alternates layer weights and biases in EncoderModel.params()
    order, as plain arrays or as tape Vars; tanh sits between layers only.
    Returns (Z, (times, spaces)).
    """
    h = X
    for i in range(0, len(params), 2):
        if i:
            h = ad.tanh(h)
        h = h @ params[i].T + params[i + 1]
    Z = rescale_clip(h, zeta, mcfg)
    return Z, hexpm_origin(Z, mcfg)


def embed_batch(model: EncoderModel, X, policy: ClipPolicy, mcfg: ManifoldConfig):
    """Embed the rows of X on the hyperboloid, with each point's uncertainty.

    Returns (Z, times, spaces, uncertainties); spaces has shape (N, d).
    """
    Z, (times, spaces) = embed_vars(model.params(), np.asarray(X, dtype=np.float64),
                                    policy.zeta(model.generation_tag), mcfg)
    return Z, times, spaces, uncertainty((times, spaces), mcfg)


# ---------------------------------------------------------------------------
# Training

def _train(X, y, num_classes, arch, mcfg, policy, tcfg, align_cfg=None, old_model=None):
    """Train generation 0 when ``old_model`` is None, else the generation after it."""
    if align_cfg is None:
        align_cfg = AlignmentConfig(lambda_align=0.0)
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

    aligned = align_cfg.lambda_align > 0.0
    if aligned:
        if min(tcfg.batch_size, len(X)) < 2:
            raise InvalidArgumentError("aligned training needs batches of at least 2 "
                                       "rows; the contrastive loss pairs rows")
        # old model is frozen: embed the whole training set once, as constants
        _, old_times, old_spaces, old_unc = embed_batch(old_model, X, policy, mcfg)
    zeta = policy.zeta(generation)

    arrays = model.params() + [head]
    vel = [np.zeros_like(a) for a in arrays]
    epoch_losses = []
    step = 0
    for epoch in range(tcfg.epochs):
        # cosine annealing from the full rate at epoch 0
        lr = tcfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / tcfg.epochs))
        perm = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), tcfg.batch_size):
            idx = perm[start:start + tcfg.batch_size]
            if aligned and len(idx) < 2:
                continue  # a 1-row tail batch: contrastive loss needs >= 2 pairs
            tape = Tape()
            leaves = [tape.var(a) for a in arrays]
            # a non-finite value raises on the tape or in the parameter check below;
            # numpy need not warn first
            with np.errstate(all="ignore"):
                try:
                    _, batch_new = embed_vars(leaves[:-1], X[idx], zeta, mcfg)
                    loss = total_loss(batch_new, y[idx],
                                      (old_times[idx], old_spaces[idx]) if aligned else None,
                                      old_unc[idx] if aligned else None,
                                      leaves[-1], align_cfg, mcfg)
                except NumericalDomainError as e:
                    raise TrainingFailureError(f"loss diverged at step {step}: {e}",
                                               step=step) from e
                for a, g, v in zip(arrays, ad.grad(loss, leaves), vel):
                    g = g + tcfg.weight_decay * a
                    v *= tcfg.momentum
                    v -= lr * g
                    a += v
            if not all(np.all(np.isfinite(a)) for a in arrays):
                raise TrainingFailureError(f"non-finite parameters at step {step}",
                                           step=step)
            losses.append(float(loss.val))
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    return model, head, epoch_losses


def train_old(X, y, num_classes, mcfg: ManifoldConfig, policy: ClipPolicy,
              tcfg: TrainConfig, arch=()):
    """Train generation 0 with the base classification loss only."""
    return _train(X, y, num_classes, arch, mcfg, policy, tcfg)


def train_new(X, y, num_classes, old_model: EncoderModel, align_cfg: AlignmentConfig,
              mcfg: ManifoldConfig, policy: ClipPolicy, tcfg: TrainConfig,
              arch=()):
    """Train the next generation against a frozen old model."""
    return _train(X, y, num_classes, arch, mcfg, policy, tcfg, align_cfg, old_model)


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
