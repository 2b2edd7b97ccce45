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
    cosine_annealing: bool = True

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
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            W = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in))
            b = np.zeros(fan_out)
            layers.append((W, b))
        return cls(layers, generation_tag)

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self):
        return self.layers[-1][0].shape[0]

    def copy(self, generation_tag=None):
        tag = self.generation_tag if generation_tag is None else generation_tag
        return EncoderModel([(W.copy(), b.copy()) for W, b in self.layers], tag)

    def params(self):
        out = []
        for W, b in self.layers:
            out.append(W)
            out.append(b)
        return out


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

def _lr_at(tcfg: TrainConfig, epoch: int) -> float:
    if not tcfg.cosine_annealing:
        return tcfg.learning_rate
    return tcfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / tcfg.epochs))


def _train(X, y, num_classes, arch, mcfg, policy, tcfg, generation,
           align_cfg=None, old_model=None, init_from_old=False):
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
    rng = np.random.default_rng(tcfg.seed)

    if init_from_old:
        if old_model is None:
            raise InvalidArgumentError("init_from_old requires an old model")
        model = old_model.copy(generation_tag=generation)
    else:
        model = EncoderModel.init(X.shape[1], arch, mcfg.dim_d, rng, generation)
    head = rng.normal(0.0, 0.1, size=(num_classes, mcfg.dim_d))

    aligned = align_cfg is not None and align_cfg.lambda_align > 0.0
    if aligned:
        # old model is frozen: embed the whole training set once, as constants
        _, old_times, old_spaces, old_unc = embed_batch(old_model, X, policy, mcfg)
    zeta = policy.zeta(generation)
    eff_align = align_cfg if aligned else AlignmentConfig(lambda_align=0.0)

    arrays = model.params() + [head]
    vel = [np.zeros_like(a) for a in arrays]
    epoch_losses = []
    step = 0
    for epoch in range(tcfg.epochs):
        lr = _lr_at(tcfg, epoch)
        perm = rng.permutation(len(X))
        losses = []
        for start in range(0, len(X), tcfg.batch_size):
            idx = perm[start:start + tcfg.batch_size]
            if aligned and len(idx) < 2:
                continue  # contrastive loss needs >= 2 pairs
            tape = Tape()
            leaves = [tape.var(a) for a in arrays]
            try:
                # a non-finite value raises on the tape; numpy need not warn first
                with np.errstate(all="ignore"):
                    _, batch_new = embed_vars(leaves[:-1], X[idx], zeta, mcfg)
                    loss = total_loss(batch_new, y[idx],
                                      (old_times[idx], old_spaces[idx]) if aligned else None,
                                      old_unc[idx] if aligned else None,
                                      leaves[-1], eff_align, mcfg)
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
        epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
    return model, head, epoch_losses


def train_old(X, y, num_classes, mcfg: ManifoldConfig, policy: ClipPolicy,
              tcfg: TrainConfig, arch=()):
    """Train generation 0 with the base classification loss only."""
    return _train(X, y, num_classes, arch, mcfg, policy, tcfg, generation=0)


def train_new(X, y, num_classes, old_model: EncoderModel, align_cfg: AlignmentConfig,
              mcfg: ManifoldConfig, policy: ClipPolicy, tcfg: TrainConfig,
              arch=(), init_from_old=False):
    """Train the next generation against a frozen old model."""
    return _train(X, y, num_classes, arch, mcfg, policy, tcfg,
                  generation=old_model.generation_tag + 1,
                  align_cfg=align_cfg, old_model=old_model,
                  init_from_old=init_from_old)


# ---------------------------------------------------------------------------
# Checkpoint container (exact byte layout documented in the README)

# magic, version, kind, generation, K, zeta, layer count, class count
_CKPT_HEADER = struct.Struct("<4sIIiddII")


def save_checkpoint(path, model: EncoderModel, head, mcfg: ManifoldConfig,
                    policy: ClipPolicy):
    head = np.asarray(head, dtype=np.float64)
    zeta = policy.zeta(model.generation_tag)
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, KIND_MODEL,
                                  model.generation_tag, mcfg.curvature_K, zeta,
                                  len(model.layers), head.shape[0]))
        for W, _ in model.layers:
            f.write(struct.pack("<II", W.shape[1], W.shape[0]))
        for W, b in model.layers:
            f.write(W.astype("<f8").tobytes(order="C"))
            f.write(b.astype("<f8").tobytes())
        f.write(head.astype("<f8").tobytes(order="C"))


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
    off = _CKPT_HEADER.size
    if n_layers == 0 or len(data) < off + 8 * n_layers:
        raise InvalidArgumentError(f"checkpoint layer table of {n_layers} layers is "
                                   f"empty or truncated")
    dims = [struct.unpack_from("<II", data, off + 8 * i) for i in range(n_layers)]
    off += 8 * n_layers
    if any(out_d != in_d for (_, out_d), (in_d, _) in zip(dims, dims[1:])):
        raise InvalidArgumentError(f"checkpoint layer shapes {dims} do not chain")
    d = dims[-1][1]
    expected = off + 8 * sum(out_d * (in_d + 1) for in_d, out_d in dims) + 8 * n_classes * d
    if len(data) != expected:
        raise InvalidArgumentError(f"checkpoint is {len(data)} bytes, its header "
                                   f"implies {expected}")
    layers = []
    for in_d, out_d in dims:
        W = np.frombuffer(data, "<f8", in_d * out_d, off).reshape(out_d, in_d).copy()
        off += 8 * in_d * out_d
        b = np.frombuffer(data, "<f8", out_d, off).copy()
        off += 8 * out_d
        layers.append((W, b))
    head = np.frombuffer(data, "<f8", n_classes * d, off).reshape(n_classes, d).copy()
    model = EncoderModel(layers, generation_tag=generation)
    return model, head, K, zeta
