"""HBCT objectives: hyperbolic MLR classification, entailment-cone loss,
uncertainty-adaptive RINCE, InfoNCE / mean-distortion ablation variants, and
the combined training loss.

Every function here is written against the scalar interface of
:mod:`hbct.autodiff`, so the same code evaluates on plain floats (for tests
and oracles) and on tape Vars (for training).  Hyperbolic points are passed as
:class:`hbct.manifold.LorentzPoint` or as ``(time, space_sequence)`` pairs
whose entries may be Vars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .errors import InvalidArgumentError, NumericalDomainError
from .manifold import DEGENERATE_NORM, SERIES_EPS, LorentzPoint, ManifoldConfig

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
        if self.lambda_align < 0 or self.lambda_entail < 0:
            raise InvalidArgumentError("alignment weights must be >= 0")
        if not (self.tau > 0):
            raise InvalidArgumentError(f"tau must be > 0, got {self.tau}")
        if not (0 < self.beta <= 1):
            raise InvalidArgumentError(f"beta must be in (0, 1], got {self.beta}")
        if not (self.epsilon_aperture > 0):
            raise InvalidArgumentError("epsilon_aperture must be > 0")
        if self.q_mode not in ("adaptive", "fixed"):
            raise InvalidArgumentError(f"unknown q_mode {self.q_mode!r}")
        if self.q_mode == "fixed" and not (0 < self.q_fixed <= 1):
            raise InvalidArgumentError(f"fixed q must be in (0, 1], got {self.q_fixed}")
        if self.distance_kind not in ("geodesic", "lorentz_inner", "squared_lorentz"):
            raise InvalidArgumentError(f"unknown distance_kind {self.distance_kind!r}")
        if self.contrast_kind not in ("rince", "infonce", "mean_distortion"):
            raise InvalidArgumentError(f"unknown contrast_kind {self.contrast_kind!r}")


class MlrHead:
    """Per-class decision hyperplanes, one origin-tangent vector per class.

    Rows hold the space part of w_y in the tangent space at the origin
    (the time component of every w_y is 0).
    """

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        if not self.rows:
            raise InvalidArgumentError("head needs at least one class")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise InvalidArgumentError("head rows have inconsistent widths")

    @property
    def num_classes(self):
        return len(self.rows)


def _hp(h):
    """Normalize a point argument to (time, space_list)."""
    if isinstance(h, LorentzPoint):
        return h.time, list(h.space)
    time, space = h
    return time, list(space)


# ---------------------------------------------------------------------------
# Differentiable hyperbolic primitives (scalar interface mirrors manifold.py)

def hexpm_origin(z, mcfg: ManifoldConfig):
    """Exponential map at the origin over scalars; returns (time, space)."""
    sqrt_K = math.sqrt(mcfg.curvature_K)
    a = ad.mul(ad.norm(z), sqrt_K)
    time = ad.div(ad.cosh(a), sqrt_K)
    if ad.value(a) < SERIES_EPS:
        # series limit of sinh(a)/a; constant coefficient keeps the tape finite
        coeff = 1.0
    else:
        coeff = ad.div(ad.sinh(a), a)
    return time, [ad.mul(coeff, zi) for zi in z]


def hinner(x, y):
    """Lorentzian inner product over scalars."""
    xt, xs = _hp(x)
    yt, ys = _hp(y)
    return ad.sub(ad.dot(xs, ys), ad.mul(xt, yt))


def hdist(x, y, mcfg: ManifoldConfig):
    """Geodesic distance over scalars."""
    K = mcfg.curvature_K
    arg = ad.mul(hinner(x, y), -K)
    return ad.div(ad.acosh(arg), math.sqrt(K))


def pair_distance(x, y, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """The alignment distance D per cfg.distance_kind."""
    if cfg.distance_kind == "geodesic":
        return hdist(x, y, mcfg)
    if cfg.distance_kind == "lorentz_inner":
        return ad.neg(hinner(x, y))
    # squared Lorentz distance ||x - y||_L^2 = -2/K - 2<x, y>_L
    return ad.sub(-2.0 / mcfg.curvature_K, ad.mul(2.0, hinner(x, y)))


# ---------------------------------------------------------------------------
# Base classification loss

def _row_norms(head: MlrHead):
    """Row norms of the head, shared across samples recorded on one tape."""
    tape = None
    for w in head.rows:
        for x in w:
            if isinstance(x, ad.Var):
                tape = x.tape
                break
        if tape is not None:
            break
    cache = getattr(head, "_norm_cache", None)
    if tape is not None and cache is not None and cache[0] is tape:
        return cache[1]
    norms = [ad.norm(w) for w in head.rows]
    if tape is not None:
        head._norm_cache = (tape, norms)
    return norms


def mlr_logits(h, head: MlrHead, mcfg: ManifoldConfig):
    """Hyperbolic MLR scores: sign(<w,h>_L) ||w||_L d(h, hyperplane_w).

    With w = [0, w_space] the signed form collapses to the odd function
    ||w|| / sqrt(K) * asinh(sqrt(K) <w_space, h_space> / ||w||).
    Degenerate rows (||w|| < DEGENERATE_NORM) score 0.
    """
    sqrt_K = math.sqrt(mcfg.curvature_K)
    _, hs = _hp(h)
    logits = []
    for w, wn in zip(head.rows, _row_norms(head)):
        if ad.value(wn) < DEGENERATE_NORM:
            logits.append(0.0)
            continue
        s = ad.dot(w, hs)
        logits.append(ad.mul(ad.div(wn, sqrt_K), ad.asinh(ad.div(ad.mul(s, sqrt_K), wn))))
    return logits


def _log_softmax_at(logits, label):
    shift = max(ad.value(x) for x in logits)
    total = 0.0
    for x in logits:
        total = ad.add(total, ad.exp(ad.sub(x, shift)))
    return ad.sub(ad.sub(logits[label], shift), ad.log(total))


def base_loss(h, label, head: MlrHead, mcfg: ManifoldConfig):
    """Cross-entropy of the softmax over MLR logits at the true label."""
    logits = mlr_logits(h, head, mcfg)
    if not 0 <= label < len(logits):
        raise InvalidArgumentError(f"label {label} out of range")
    return ad.neg(_log_softmax_at(logits, label))


# ---------------------------------------------------------------------------
# Entailment cone

def aperture(h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Half-aperture of the entailment cone at h_o.

    asin(2*eps / (sqrt(K) ||h_o_space||)), saturating at pi/2 once the point
    is close enough to the origin (including exactly at it).
    """
    _, hs = _hp(h_o)
    n = ad.norm(hs)
    if ad.value(n) == 0.0:
        return math.pi / 2.0
    arg = ad.div(2.0 * cfg.epsilon_aperture / math.sqrt(mcfg.curvature_K), n)
    if ad.value(arg) >= 1.0:
        return math.pi / 2.0
    return ad.asin(arg)


def exterior_angle(h_o, h_n, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Exterior angle at h_o of the geodesic triangle (origin, h_o, h_n)."""
    K = mcfg.curvature_K
    ot, os_ = _hp(h_o)
    nt, _ = _hp(h_n)
    o_norm = ad.norm(os_)
    if ad.value(o_norm) == 0.0:
        raise NumericalDomainError("exterior angle undefined at the origin")
    c = ad.mul(hinner(h_o, h_n), K)
    num = ad.add(nt, ad.mul(ot, c))
    sq = ad.sub(ad.mul(c, c), 1.0)
    if ad.value(sq) < 1e-12:
        sq = 1e-12  # clamp; gradient through the clamped branch is dropped
    den = ad.mul(o_norm, ad.sqrt(sq))
    arg = ad.div(num, den)
    v = ad.value(arg)
    if v >= 1.0:
        return 0.0
    if v <= -1.0:
        return math.pi
    return ad.acos(arg)


def entailment_loss(h_n, h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Hinge on how far h_n pokes outside h_o's entailment cone."""
    return ad.max0(ad.sub(exterior_angle(h_o, h_n, cfg, mcfg), aperture(h_o, cfg, mcfg)))


# ---------------------------------------------------------------------------
# Contrastive alignment

def _check_batches(batch_new, batch_old):
    if len(batch_new) != len(batch_old):
        raise InvalidArgumentError("old/new batches must be aligned by sample")
    if len(batch_new) < 2:
        raise InvalidArgumentError("contrastive losses need batch size >= 2")


def _distance_matrix(batch_new, batch_old, cfg, mcfg):
    return [
        [pair_distance(hn, ho, cfg, mcfg) for ho in batch_old]
        for hn in batch_new
    ]


def contrastive_loss(batch_new, batch_old, uncertainties_old, cfg: AlignmentConfig,
                     mcfg: ManifoldConfig):
    """RINCE alignment loss, averaged over pairs.

    Per pair i:  -(1/q_i) exp(-q_i D_ii / tau)
                 + (1/q_i) (beta * sum_j exp(-D_ij / tau))^{q_i},
    where the negative sum runs over the whole batch including j == i.
    In adaptive mode q_i is the old embedding's uncertainty clamped to
    [1e-3, 1]; in fixed mode it is cfg.q_fixed.
    """
    _check_batches(batch_new, batch_old)
    n = len(batch_new)
    if cfg.q_mode == "adaptive":
        if uncertainties_old is None or len(uncertainties_old) != n:
            raise InvalidArgumentError("adaptive q needs one old uncertainty per pair")
        qs = [min(max(float(u), Q_CLAMP_LO), 1.0) for u in uncertainties_old]
    else:
        qs = [cfg.q_fixed] * n
    D = _distance_matrix(batch_new, batch_old, cfg, mcfg)
    total = 0.0
    for i in range(n):
        q = qs[i]
        pos = ad.exp(ad.mul(D[i][i], -q / cfg.tau))
        neg = 0.0
        for j in range(n):
            neg = ad.add(neg, ad.exp(ad.mul(D[i][j], -1.0 / cfg.tau)))
        term = ad.add(ad.div(ad.neg(pos), q), ad.div(ad.powr(ad.mul(neg, cfg.beta), q), q))
        total = ad.add(total, term)
    return ad.div(total, n)


def infonce_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Standard softmax contrastive loss over the alignment distance."""
    _check_batches(batch_new, batch_old)
    n = len(batch_new)
    D = _distance_matrix(batch_new, batch_old, cfg, mcfg)
    total = 0.0
    for i in range(n):
        neg = 0.0
        for j in range(n):
            neg = ad.add(neg, ad.exp(ad.mul(D[i][j], -1.0 / cfg.tau)))
        total = ad.add(total, ad.add(ad.div(D[i][i], cfg.tau), ad.log(neg)))
    return ad.div(total, n)


def mean_distortion_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Mean alignment distance over aligned pairs."""
    if len(batch_new) != len(batch_old):
        raise InvalidArgumentError("old/new batches must be aligned by sample")
    total = 0.0
    for hn, ho in zip(batch_new, batch_old):
        total = ad.add(total, pair_distance(hn, ho, cfg, mcfg))
    return ad.div(total, len(batch_new))


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

def total_loss(batch_new, labels, batch_old, uncertainties_old, head: MlrHead,
               cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """L = mean L_base + lambda * (lambda_entail * mean L_entail + L_contrast).

    With lambda_align == 0 this returns the mean base loss bit-for-bit (no
    alignment terms are evaluated at all).
    """
    if len(batch_new) != len(labels):
        raise InvalidArgumentError("labels must align with the batch")
    base = 0.0
    for h, y in zip(batch_new, labels):
        base = ad.add(base, base_loss(h, y, head, mcfg))
    base = ad.div(base, len(batch_new))
    if cfg.lambda_align == 0.0:
        return base
    entail = 0.0
    for hn, ho in zip(batch_new, batch_old):
        entail = ad.add(entail, entailment_loss(hn, ho, cfg, mcfg))
    entail = ad.div(entail, len(batch_new))
    contrast = contrast_term(batch_new, batch_old, uncertainties_old, cfg, mcfg)
    align = ad.add(ad.mul(entail, cfg.lambda_entail), contrast)
    return ad.add(base, ad.mul(align, cfg.lambda_align))
