"""HBCT objectives: hyperbolic MLR classification, entailment-cone loss,
uncertainty-adaptive RINCE, InfoNCE / mean-distortion ablation variants, and
the combined training loss.

Each objective is written once over a batch of points ``(times (B,),
spaces (B, d))`` with MLR head rows ``(C, d)``: the MLR logits and base loss,
the exterior angle and entailment hinge, RINCE, InfoNCE and the combined
objective are fused :func:`hbct.autodiff.formula` nodes, whose one forward
evaluates on plain arrays (tests, oracles) and records one node on a tape
(training); mean distortion is the fused mean of the fused distance.  The old
generation is frozen, so the cone's apex, its norm and its aperture are
constants: the cone formulas differentiate the new point only, the aperture
is a plain-array function, and an old batch given as a Var is refused.  A
training run works the old norms and apertures out once, as an
:class:`OldBatch`, and gathers them per step.
Per-sample terms come back with the batch shape, so a single point gives a
scalar.  Points may also be given as LorentzPoints or lists of points (see
:func:`hbct.manifold.points`).  The MLR logits and base loss also take a
stack of models, heads ``(M, C, d)`` with points ``(M, B, d)``, and
:func:`stack_loss` gives each model of a stack its own combined objective.
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
from .manifold import (DEGENERATE_NORM, ManifoldConfig, hdist, inner_backward, inner_forward,
                       points)
# re-exported: callers build batches and test points with them
from .manifold import hexpm_origin, hinner  # noqa: F401

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
        if self.contrast_kind not in ("rince", "infonce", "mean_distortion"):
            raise InvalidArgumentError(f"unknown contrast_kind {self.contrast_kind!r}")


# ---------------------------------------------------------------------------
# Base classification loss

def _logits(rec, spaces, head, sqrt_K):
    wn0 = ad.checked(np.linalg.norm(head, axis=-1), rec)
    degenerate = wn0 < DEGENERATE_NORM
    wn = ad.checked(np.where(degenerate, 1.0, wn0), rec)
    hT = np.swapaxes(head, -1, -2)  # a selection of a checked value
    s = ad.checked(spaces @ hT, rec)
    wk = ad.checked(wn / sqrt_K, rec)
    if head.ndim > 2:  # a stack of heads: each model's row norms over its batch rows
        degenerate, wn, wk = degenerate[..., None, :], wn[..., None, :], wk[..., None, :]
    sk = ad.checked(s * sqrt_K, rec)
    sw = ad.checked(sk / wn, rec)
    ash = ad.checked(np.arcsinh(sw), rec)
    lg = ad.checked(wk * ash, rec)
    return (ad.checked(np.where(degenerate, 0.0, lg), rec),
            (spaces, head, sqrt_K, wn0, degenerate, wn, hT, wk, sk, sw, ash))


def _logits_vjp(g, out, saved, parents):
    """Pairs in the chain's order: spaces, then head through the transpose,
    then head through the row norms."""
    spaces, head, sqrt_K, wn0, degenerate, wn, hT, wk, sk, sw, ash = saved
    g_lg = np.where(degenerate, 0.0, g)                  # where(degenerate, 0, lg) -> lg
    g_sw = ad.asinh_vjp(g_lg * wk, None, sw)             # wk * ash -> ash, asinh -> sw
    g_s = (g_sw / wn) * sqrt_K                           # sk / wn -> sk, s * sqrt_K -> s
    pairs = []
    if parents[0] is not None:
        pairs.append((parents[0], ad.fit(ad.matmul_vjp_a(g_s, None, spaces, hT),
                                         spaces.shape)))
    if parents[1] is not None:
        g_wn = ad.fit(ad.div_partial_b(g_sw, sk, wn), wn.shape)   # sk / wn -> wn
        g_wn = g_wn + ad.fit(g_lg * ash, wk.shape) / sqrt_K       # wk * ash -> wk, / sqrt_K
        g_hT = ad.fit(ad.matmul_vjp_b(g_s, None, spaces, hT), hT.shape)
        pairs.append((parents[1], np.swapaxes(g_hT, -1, -2)))     # transpose -> head
        g_wn0 = np.where(degenerate, 0.0, g_wn).reshape(wn0.shape)  # where(degenerate, 1, wn0)
        pairs.append((parents[1], ad.norm_vjp(g_wn0, wn0, head)))  # norm -> head
    return pairs


def _mlr_operands(h, head):
    _, spaces = points(h)
    head = ad.array(head)
    if head.ndim not in (2, 3) or head.shape[-2] == 0:
        raise InvalidArgumentError("head must be a non-empty (classes, d) matrix, or a "
                                   "stack of them")
    return spaces, head


def mlr_logits(h, head, mcfg: ManifoldConfig):
    """Hyperbolic MLR scores: sign(<w,h>_L) ||w||_L d(h, hyperplane_w).

    Head rows hold the space part of each class's w_y in the tangent space at
    the origin (the time component is 0), so the signed form collapses to the
    odd function ||w|| / sqrt(K) * asinh(sqrt(K) <w_space, h_space> / ||w||).
    Degenerate rows (||w|| < DEGENERATE_NORM) score 0.  Returns (..., C).
    """
    return ad.formula(_logits, _logits_vjp, _mlr_operands(h, head),
                      math.sqrt(mcfg.curvature_K))


def _base(rec, spaces, head, labels, sqrt_K):
    logits, lsaved = _logits(rec, spaces, head, sqrt_K)
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.shape != logits.shape[head.ndim - 2:-1]:  # a stack of models shares them
        raise InvalidArgumentError("labels must align with the batch")
    if np.any((labels < 0) | (labels >= n_classes)):
        raise InvalidArgumentError(f"label out of range for {n_classes} classes")
    shifted = ad.checked(logits - np.maximum.reduce(logits, axis=-1, keepdims=True), rec)
    ex = ad.checked(np.exp(shifted), rec)
    se = ad.checked(np.add.reduce(ex, axis=-1, keepdims=True), rec)
    log_probs = ad.checked(shifted - ad.checked(np.log(se), rec), rec)
    key = (*np.indices(labels.shape, sparse=True), labels)
    if head.ndim > 2:  # the same labels for every model of the stack, gathered in C order
        key = (np.arange(len(head)).reshape(-1, *(1,) * labels.ndim), *key)
    # the gather is a selection of a checked value
    return ad.checked(-log_probs[key], rec), (lsaved, ex, se, log_probs, key)


def _base_vjp(g, out, saved, parents):
    lsaved, ex, se, log_probs, key = saved
    g_lp = ad.getitem_vjp(-g, None, log_probs, key)       # negation, gather
    g_se = ad.fit(-g_lp, se.shape) / se                   # shifted - log -> log, log -> se
    g_ex = ad.sum_vjp(g_se, None, ex, -1, True)           # sum -> ex
    g_shifted = g_lp + g_ex * ex                          # exp -> shifted, after the direct path
    return _logits_vjp(g_shifted, None, lsaved, parents)


def base_loss(h, labels, head, mcfg: ManifoldConfig):
    """Cross-entropy of the softmax over MLR logits at each true label."""
    return ad.formula(_base, _base_vjp, _mlr_operands(h, head), labels,
                      math.sqrt(mcfg.curvature_K))


# ---------------------------------------------------------------------------
# Entailment cone: the old batch is frozen, so its cone is constants

class OldBatch(tuple):
    """A frozen old batch: the (times, spaces) pair of its points, carrying the
    constants of its entailment cones, worked out once for a training run and
    gathered per step.  ``norms`` holds the space norms and ``apertures`` the
    aperture at each (epsilon_aperture, curvature_K) it was made for; each value
    has the bits of computing it on the gathered rows alone."""

    def __new__(cls, times, spaces, norms, apertures):
        batch = super().__new__(cls, (times, spaces))
        batch.norms, batch.apertures = norms, apertures
        return batch

    @classmethod
    def of(cls, h_o, cfgs, mcfg: ManifoldConfig):
        """The old batch h_o with its norms, and its aperture under each of ``cfgs``."""
        times, spaces, norms = _frozen(h_o)
        return cls(times, spaces, norms, {_cone_key(cfg, mcfg): _aperture(norms, cfg, mcfg)
                                          for cfg in cfgs})

    def take(self, idx):
        """The rows ``idx`` of the batch and of its constants."""
        return OldBatch(self[0][idx], self[1][idx], self.norms[idx],
                        {key: a[idx] for key, a in self.apertures.items()})


def _cone_key(cfg, mcfg):
    return cfg.epsilon_aperture, mcfg.curvature_K


def _frozen(h_o):
    """(times, spaces, space norms) of an old batch, which may not be a Var."""
    times, spaces = points(h_o)
    if type(times) is ad.Var or type(spaces) is ad.Var:
        raise InvalidArgumentError("the old batch is frozen: pass it as plain arrays, "
                                   "not Vars")
    if isinstance(h_o, OldBatch):
        return times, spaces, h_o.norms
    return times, spaces, np.linalg.norm(spaces, axis=-1)


def _aperture(norms, cfg, mcfg):
    at_origin = norms == 0.0
    arg = (2.0 * cfg.epsilon_aperture / math.sqrt(mcfg.curvature_K)) \
        / np.where(at_origin, 1.0, norms)
    saturated = at_origin | (arg >= 1.0)
    return np.where(saturated, math.pi / 2.0, ad.arcsin(np.where(saturated, 0.0, arg)))


def aperture(h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Half-aperture of the entailment cone at h_o, as a plain array.

    asin(2*eps / (sqrt(K) ||h_o_space||)), saturating at pi/2 once the point
    is close enough to the origin (including exactly at it).
    """
    return _cone_aperture(h_o, _frozen(h_o)[2], cfg, mcfg)


def _cone_aperture(h_o, norms, cfg, mcfg):
    """The aperture at h_o: an OldBatch's own, where it was made for cfg and mcfg."""
    ap = h_o.apertures.get(_cone_key(cfg, mcfg)) if isinstance(h_o, OldBatch) else None
    return _aperture(norms, cfg, mcfg) if ap is None else ap


def _exterior(rec, n_times, n_spaces, o_times, o_spaces, o_norm, K):
    if np.any(o_norm == 0.0):
        raise NumericalDomainError("exterior angle undefined at the origin")
    inner, isaved = inner_forward(rec, o_times, o_spaces, n_times, n_spaces)
    c = ad.checked(inner * K, rec)
    num = ad.checked(n_times + ad.checked(o_times * c, rec), rec)
    sq = ad.checked(ad.checked(c * c, rec) - 1.0, rec)
    # clamp; the gradient through clamped lanes is dropped
    clamped = sq < 1e-12
    root = ad.checked(np.sqrt(ad.checked(np.where(clamped, 1e-12, sq), rec)), rec)
    den = ad.checked(o_norm * root, rec)
    arg = ad.checked(num / den, rec)
    inside = np.abs(arg) < 1.0
    safe = ad.checked(np.where(inside, arg, 0.0), rec)
    angle = ad.checked(ad.arccos(safe), rec)
    ext = ad.checked(np.where(inside, angle, np.where(arg >= 1.0, 0.0, math.pi)), rec)
    return ext, (o_times, n_times, o_norm, isaved, K, c, num, clamped, root, den, inside,
                 safe)


def _exterior_vjp(g, out, saved, parents):
    """The new point's (parent, contribution) pairs, in the chain's order."""
    o_times, n_times, o_norm, isaved, K, c, num, clamped, root, den, inside, safe = saved
    g_safe = ad.acos_vjp(np.where(inside, g, 0.0), None, safe)  # where, acos
    g_arg = np.where(inside, g_safe, 0.0)                  # where(inside, arg, 0) -> arg
    g_num = g_arg / den                                    # num / den -> num
    g_den = ad.div_partial_b(g_arg, num, den)              # -> den
    g_sq = np.where(clamped, 0.0, (g_den * o_norm) * (0.5 / root))  # o_norm * root, sqrt, where
    g_c = g_sq * c                                         # c * c - 1 -> c, twice
    g_c = g_c + g_sq * c
    pairs = []
    if parents[0] is not None:
        pairs.append((parents[0], ad.fit(g_num, n_times.shape)))  # n_t + o_t * c -> n_t
    g_c = g_c + g_num * o_times                            # -> c
    _, _, c_nt, c_ns = inner_backward(g_c * K, isaved, (None, None, *parents))  # * K, inner
    ad.emit(pairs, parents, (c_nt, c_ns))
    return pairs


def exterior_angle(h_o, h_n, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Exterior angle at h_o of the geodesic triangle (origin, h_o, h_n); a
    formula over the new point h_n."""
    old = _frozen(h_o)
    return ad.formula(_exterior, _exterior_vjp, points(h_n), *old, mcfg.curvature_K)


def _entail(rec, n_times, n_spaces, o_times, o_spaces, o_norm, K, ap):
    ext, esaved = _exterior(rec, n_times, n_spaces, o_times, o_spaces, o_norm, K)
    v = ad.checked(ext - ap, rec)
    outside = v > 0.0
    return ad.checked(np.where(outside, v, 0.0), rec), (esaved, outside)


def _entail_vjp(g, out, saved, parents):
    esaved, outside = saved
    return _exterior_vjp(np.where(outside, g, 0.0), None, esaved, parents)  # the hinge


def entailment_loss(h_n, h_o, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Hinge on how far h_n pokes outside h_o's entailment cone; a formula over
    the new point h_n."""
    old = _frozen(h_o)
    return ad.formula(_entail, _entail_vjp, points(h_n), *old, mcfg.curvature_K,
                      _cone_aperture(h_o, old[2], cfg, mcfg))


# ---------------------------------------------------------------------------
# Contrastive alignment

def _aligned(batch_new, batch_old, min_size):
    new, old = points(batch_new), points(batch_old)
    if new[0].ndim != 1 or new[0].shape != old[0].shape:
        raise InvalidArgumentError("old/new batches must be aligned by sample")
    if len(new[0]) < min_size:
        raise InvalidArgumentError(f"this loss needs batch size >= {min_size}")
    return new, old


def _rince(rec, D, q, tau, beta):
    idx = np.arange(D.shape[0])
    c_pos, c_neg = -q / tau, -1.0 / tau
    # the diagonal is a selection of a checked value
    pos = ad.checked(np.exp(ad.checked(D[idx, idx] * c_pos, rec)), rec)
    e = ad.checked(np.exp(ad.checked(D * c_neg, rec)), rec)
    neg = ad.checked(np.add.reduce(e, axis=-1), rec)
    t_pos = ad.checked(ad.checked(-pos, rec) / q, rec)
    scaled = ad.checked(neg * beta, rec)
    t_neg = ad.checked(ad.checked(np.power(scaled, q), rec) / q, rec)
    terms = ad.checked(t_pos + t_neg, rec)
    m, msaved = ad.mean_forward(rec, terms)
    return m, (D, idx, q, c_pos, c_neg, pos, e, beta, scaled, msaved)


def _rince_vjp(g, out, saved, parents):
    D, idx, q, c_pos, c_neg, pos, e, beta, scaled, msaved = saved
    g_terms = ad.mean_backward(g, msaved)
    g_scaled = (g_terms / q) * (q * scaled ** (q - 1.0))  # / q, powr
    g_e = ad.sum_vjp(g_scaled * beta, None, e, -1)         # * beta, sum over j
    g_pos = -(g_terms / q)                                 # / q, negation
    return [(parents[0], ((g_e * e) * c_neg)),             # exp, D * c_neg -> D
            (parents[0], ad.getitem_vjp((g_pos * pos) * c_pos, None, D, (idx, idx)))]


def contrastive_loss(batch_new, batch_old, uncertainties_old, cfg: AlignmentConfig,
                     mcfg: ManifoldConfig):
    """RINCE alignment loss, averaged over pairs.

    Per pair i:  -(1/q_i) exp(-q_i D_ii / tau)
                 + (1/q_i) (beta * sum_j exp(-D_ij / tau))^{q_i},
    where D_ij is the geodesic distance d(new_i, old_j) and the negative sum
    runs over the whole batch including j == i.
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
    D = hdist(new, old, mcfg, outer=True)
    return ad.formula(_rince, _rince_vjp, (D,), q, cfg.tau, cfg.beta)


def _infonce(rec, D, tau):
    idx = np.arange(D.shape[0])
    c_neg = -1.0 / tau
    # the diagonal is a selection of a checked value
    pos = ad.checked(D[idx, idx] / tau, rec)
    e = ad.checked(np.exp(ad.checked(D * c_neg, rec)), rec)
    s = ad.checked(np.add.reduce(e, axis=-1), rec)
    terms = ad.checked(pos + ad.checked(np.log(s), rec), rec)
    m, msaved = ad.mean_forward(rec, terms)
    return m, (D, idx, tau, c_neg, e, s, msaved)


def _infonce_vjp(g, out, saved, parents):
    D, idx, tau, c_neg, e, s, msaved = saved
    g_terms = ad.mean_backward(g, msaved)
    g_e = ad.sum_vjp(g_terms / s, None, e, -1)              # log, sum over j
    return [(parents[0], ((g_e * e) * c_neg)),              # exp, D * c_neg -> D
            (parents[0], ad.getitem_vjp(g_terms / tau, None, D, (idx, idx)))]  # / tau


def infonce_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Standard softmax contrastive loss over the geodesic distance D_ij."""
    new, old = _aligned(batch_new, batch_old, 2)
    D = hdist(new, old, mcfg, outer=True)
    return ad.formula(_infonce, _infonce_vjp, (D,), cfg.tau)


def mean_distortion_loss(batch_new, batch_old, cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """Mean geodesic distance d(new_i, old_i) over aligned pairs."""
    new, old = _aligned(batch_new, batch_old, 1)
    return ad.mean(hdist(new, old, mcfg))


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

def _combined(rec, base, entail, contrast, lambda_entail, lambda_align):
    t = ad.checked(ad.checked(entail * lambda_entail, rec) + contrast, rec)
    t = ad.checked(t * lambda_align, rec)
    return ad.checked(base + t, rec), (lambda_entail, lambda_align)


def _combined_vjp(g, out, saved, parents):
    lambda_entail, lambda_align = saved
    g_t = g * lambda_align
    pairs = []
    ad.emit(pairs, (parents[0], parents[2], parents[1]), (g, g_t, g_t * lambda_entail))
    return pairs


def _alignment(batch_new, batch_old, uncertainties_old, cfg, mcfg):
    """(mean L_entail, L_contrast) of one model's batch."""
    entail = ad.mean(entailment_loss(batch_new, batch_old, cfg, mcfg))
    return entail, contrast_term(batch_new, batch_old, uncertainties_old, cfg, mcfg)


def total_loss(batch_new, labels, batch_old, uncertainties_old, head,
               cfg: AlignmentConfig, mcfg: ManifoldConfig):
    """L = mean L_base + lambda * (lambda_entail * mean L_entail + L_contrast).

    With lambda_align == 0 this returns the mean base loss bit-for-bit (no
    alignment terms are evaluated at all).
    """
    base = ad.mean(base_loss(batch_new, labels, head, mcfg))
    if cfg.lambda_align == 0.0:
        return base
    return ad.formula(_combined, _combined_vjp,
                      (base, *_alignment(batch_new, batch_old, uncertainties_old, cfg, mcfg)),
                      cfg.lambda_entail, cfg.lambda_align)


def _stacked(rec, base, *terms_and_weights):
    *terms, weights = terms_and_weights
    out = base.copy()
    for k, (m, *lambdas) in enumerate(weights):
        out[m] = _combined(rec, base[m], *terms[2 * k:2 * k + 2], *lambdas)[0]
    return out, weights


def _stacked_vjp(g, out, weights, parents):
    pairs = [(parents[0], g)]
    for k, (m, *lambdas) in enumerate(weights):
        pairs += _combined_vjp(g[m], None, lambdas, (None, *parents[2 * k + 1:2 * k + 3]))
    return pairs


def stack_loss(batch_new, labels, batch_old, uncertainties_old, head, cfgs, mcfg):
    """total_loss of every model of a stack that trains on one batch, as one (M,) Var.

    ``batch_new`` and ``head`` carry a leading model axis, and model m trains
    under ``cfgs[m]``.  The base loss runs over the whole stack; each aligned
    model's alignment terms run on its own slice.  Entry m, and every gradient
    backpropagated from the vector (an adjoint of 1 per model), has the bits of
    total_loss on model m alone.
    """
    base = ad.mean(base_loss(batch_new, labels, head, mcfg), -1)
    times, spaces = batch_new
    terms, weights = [], []
    for m, cfg in enumerate(cfgs):
        if cfg.lambda_align > 0.0:
            terms += _alignment((ad.pick(times, m), ad.pick(spaces, m)), batch_old,
                                uncertainties_old, cfg, mcfg)
            weights.append((m, cfg.lambda_entail, cfg.lambda_align))
    return ad.formula(_stacked, _stacked_vjp, (base, *terms), weights) if terms else base
