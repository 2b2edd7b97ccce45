"""HBCT objectives: hyperbolic MLR classification, entailment-cone loss,
uncertainty-adaptive RINCE, InfoNCE / mean-distortion ablation variants, and
the combined training loss.

Each objective is written once over a batch of points ``(times (B,),
spaces (B, d))`` with MLR head rows ``(C, d)``, using :mod:`hbct.autodiff`
operations: the same code evaluates on plain arrays (tests, oracles) and on
tape Vars (training).  Per-sample terms come back with the batch shape, so a
single point gives a scalar.  Points may also be given as LorentzPoints or
lists of points (see :func:`hbct.manifold.points`).
Per-lane branches (aperture saturation, exterior-angle clamps, degenerate head
rows) select with ``where`` on sanitised arguments, so a masked lane neither
raises nor leaks a non-finite value into the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError, NumericalDomainError
from .manifold import DEGENERATE_NORM, ManifoldConfig, hdist, hinner, points
# re-exported: callers build batches with it
from .manifold import hexpm_origin  # noqa: F401

Q_CLAMP_LO = 1e-3  # adaptive q is bounded away from 0 (RINCE divides by q)


@dataclass
class AlignmentConfig:
    """Hyperparameters of the alignment losses.

    ``lambda_align`` is the overall alignment weight; ``lambda_entail`` scales
    the entailment term inside the alignment bracket.  ``q_mode`` is either
    "adaptive" (q taken from the old embedding's uncertainty) or "fixed"
    (``q_fixed`` used for every pair).
    """

    lambda_align: float = 0.3
    lambda_entail: float = 1.0
    tau: float = 0.5
    beta: float = 0.01
    epsilon_aperture: float = 0.1
    q_mode: str = "adaptive"
    q_fixed: float = 0.5
    distance_kind: str = "geodesic"
    contrast_kind: str = "rince"

    def __post_init__(self):
        if not all(0.0 <= w < math.inf for w in (self.lambda_align, self.lambda_entail)):
            raise InvalidArgumentError("alignment weights must be finite and >= 0")
        if not 0.0 < self.tau < math.inf:
            raise InvalidArgumentError(f"tau must be finite and > 0, got {self.tau}")
        if not (0 < self.beta <= 1):
            raise InvalidArgumentError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 < self.epsilon_aperture < math.inf:
            raise InvalidArgumentError(f"epsilon_aperture must be finite and > 0, "
                                       f"got {self.epsilon_aperture}")
        if self.q_mode not in ("adaptive", "fixed"):
            raise InvalidArgumentError(f"unknown q_mode {self.q_mode!r}")
        if self.q_mode == "fixed" and not (0 < self.q_fixed <= 1):
            raise InvalidArgumentError(f"fixed q must be in (0, 1], got {self.q_fixed}")
        if self.distance_kind not in ("geodesic", "lorentz_inner", "squared_lorentz"):
            raise InvalidArgumentError(f"unknown distance_kind {self.distance_kind!r}")
        if self.contrast_kind not in ("rince", "infonce", "mean_distortion"):
            raise InvalidArgumentError(f"unknown contrast_kind {self.contrast_kind!r}")


def pair_distance(x, y, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """The alignment distance D per cfg.distance_kind, broadcast over the batch."""
    if cfg.distance_kind == "geodesic":
        return hdist(x, y, mcfg)
    if cfg.distance_kind == "lorentz_inner":
        return -hinner(x, y)
    # squared Lorentz distance ||x - y||_L^2 = -2/K - 2<x, y>_L
    return -2.0 / mcfg.curvature_K - 2.0 * hinner(x, y)


# ---------------------------------------------------------------------------
# Base classification loss

def mlr_logits(h, head, mcfg: ManifoldConfig):
    """Hyperbolic MLR scores: sign(<w,h>_L) ||w||_L d(h, hyperplane_w).

    Head rows hold the space part of each class's w_y in the tangent space at
    the origin (the time component is 0), so the signed form collapses to the
    odd function ||w|| / sqrt(K) * asinh(sqrt(K) <w_space, h_space> / ||w||).
    Degenerate rows (||w|| < DEGENERATE_NORM) score 0.  Returns (..., C).
    """
    sqrt_K = math.sqrt(mcfg.curvature_K)
    _, spaces = points(h)
    head = ad.array(head)
    if head.ndim != 2 or len(head) == 0:
        raise InvalidArgumentError("head must be a non-empty (classes, d) matrix")
    wn = ad.norm(head)
    degenerate = ad.value(wn) < DEGENERATE_NORM
    wn = ad.where(degenerate, 1.0, wn)
    s = spaces @ head.T
    return ad.where(degenerate, 0.0, (wn / sqrt_K) * ad.asinh(s * sqrt_K / wn))


def base_loss(h, labels, head, mcfg: ManifoldConfig):
    """Cross-entropy of the softmax over MLR logits at each true label."""
    logits = mlr_logits(h, head, mcfg)
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise InvalidArgumentError("labels must align with the batch")
    if np.any((labels < 0) | (labels >= n_classes)):
        raise InvalidArgumentError(f"label out of range for {n_classes} classes")
    shifted = logits - ad.value(logits).max(axis=-1, keepdims=True)
    log_probs = shifted - ad.log(ad.sum(ad.exp(shifted), -1, keepdims=True))
    return -log_probs[(*np.indices(labels.shape, sparse=True), labels)]


# ---------------------------------------------------------------------------
# Entailment cone

def aperture(h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Half-aperture of the entailment cone at h_o.

    asin(2*eps / (sqrt(K) ||h_o_space||)), saturating at pi/2 once the point
    is close enough to the origin (including exactly at it).
    """
    _, spaces = points(h_o)
    n = ad.norm(spaces)
    at_origin = ad.value(n) == 0.0
    c = 2.0 * cfg.epsilon_aperture / math.sqrt(mcfg.curvature_K)
    arg = c / ad.where(at_origin, 1.0, n)
    saturated = at_origin | (ad.value(arg) >= 1.0)
    return ad.where(saturated, math.pi / 2.0, ad.asin(ad.where(saturated, 0.0, arg)))


def exterior_angle(h_o, h_n, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Exterior angle at h_o of the geodesic triangle (origin, h_o, h_n)."""
    K = mcfg.curvature_K
    o_times, o_spaces = points(h_o)
    n_times, _ = points(h_n)
    o_norm = ad.norm(o_spaces)
    if np.any(ad.value(o_norm) == 0.0):
        raise NumericalDomainError("exterior angle undefined at the origin")
    c = hinner(h_o, h_n) * K
    num = n_times + o_times * c
    sq = c * c - 1.0
    # clamp; the gradient through clamped lanes is dropped
    sq = ad.where(ad.value(sq) < 1e-12, 1e-12, sq)
    arg = num / (o_norm * ad.sqrt(sq))
    v = ad.value(arg)
    inside = np.abs(v) < 1.0
    return ad.where(inside, ad.acos(ad.where(inside, arg, 0.0)),
                    np.where(v >= 1.0, 0.0, math.pi))


def entailment_loss(h_n, h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Hinge on how far h_n pokes outside h_o's entailment cone."""
    return ad.max0(exterior_angle(h_o, h_n, cfg, mcfg) - aperture(h_o, cfg, mcfg))


# ---------------------------------------------------------------------------
# Contrastive alignment

def _aligned(batch_new, batch_old, min_size):
    new, old = points(batch_new), points(batch_old)
    if new[0].ndim != 1 or new[0].shape != old[0].shape:
        raise InvalidArgumentError("old/new batches must be aligned by sample")
    if len(new[0]) < min_size:
        raise InvalidArgumentError(f"this loss needs batch size >= {min_size}")
    return new, old


def _distance_matrix(new, old, cfg, mcfg):
    """D[i, j] = D(new_i, old_j) over the whole batch."""
    (n_times, n_spaces), (o_times, o_spaces) = new, old
    return pair_distance((n_times[:, None], n_spaces[:, None, :]), (o_times, o_spaces),
                         cfg, mcfg)


def _diagonal(D):
    idx = np.arange(D.shape[0])
    return D[idx, idx]


def contrastive_loss(batch_new, batch_old, uncertainties_old, cfg: AlignmentConfig,
                     mcfg: ManifoldConfig):
    """RINCE alignment loss, averaged over pairs.

    Per pair i:  -(1/q_i) exp(-q_i D_ii / tau)
                 + (1/q_i) (beta * sum_j exp(-D_ij / tau))^{q_i},
    where the negative sum runs over the whole batch including j == i.
    In adaptive mode q_i is the old embedding's uncertainty clamped to
    [Q_CLAMP_LO, 1]; in fixed mode it is cfg.q_fixed.
    """
    new, old = _aligned(batch_new, batch_old, 2)
    n = len(new[0])
    if cfg.q_mode == "adaptive":
        if uncertainties_old is None or len(uncertainties_old) != n:
            raise InvalidArgumentError("adaptive q needs one old uncertainty per pair")
        q = np.clip(np.asarray(uncertainties_old, dtype=np.float64), Q_CLAMP_LO, 1.0)
    else:
        q = np.full(n, cfg.q_fixed)
    D = _distance_matrix(new, old, cfg, mcfg)
    pos = ad.exp(_diagonal(D) * (-q / cfg.tau))
    neg = ad.sum(ad.exp(D * (-1.0 / cfg.tau)), -1)
    return ad.mean(-pos / q + ad.powr(neg * cfg.beta, q) / q)


def infonce_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Standard softmax contrastive loss over the alignment distance."""
    new, old = _aligned(batch_new, batch_old, 2)
    D = _distance_matrix(new, old, cfg, mcfg)
    return ad.mean(_diagonal(D) / cfg.tau
                   + ad.log(ad.sum(ad.exp(D * (-1.0 / cfg.tau)), -1)))


def mean_distortion_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Mean alignment distance over aligned pairs."""
    new, old = _aligned(batch_new, batch_old, 1)
    return ad.mean(pair_distance(new, old, cfg, mcfg))


def contrast_term(batch_new, batch_old, uncertainties_old, cfg: AlignmentConfig,
                  mcfg: ManifoldConfig):
    """The contrastive part of the objective, per cfg.contrast_kind."""
    if cfg.contrast_kind == "rince":
        return contrastive_loss(batch_new, batch_old, uncertainties_old, cfg, mcfg)
    if cfg.contrast_kind == "infonce":
        return infonce_loss(batch_new, batch_old, cfg, mcfg)
    return mean_distortion_loss(batch_new, batch_old, cfg, mcfg)


# ---------------------------------------------------------------------------
# Combined objective

def total_loss(batch_new, labels, batch_old, uncertainties_old, head,
               cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """L = mean L_base + lambda * (lambda_entail * mean L_entail + L_contrast).

    With lambda_align == 0 this returns the mean base loss bit-for-bit (no
    alignment terms are evaluated at all).
    """
    base = ad.mean(base_loss(batch_new, labels, head, mcfg))
    if cfg.lambda_align == 0.0:
        return base
    entail = ad.mean(entailment_loss(batch_new, batch_old, cfg, mcfg))
    contrast = contrast_term(batch_new, batch_old, uncertainties_old, cfg, mcfg)
    return base + (entail * cfg.lambda_entail + contrast) * cfg.lambda_align
