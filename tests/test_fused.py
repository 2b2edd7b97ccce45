"""Fused formulas against the elementary-op chains they replace.

Each fused formula records one tape node, and its VJP replays the adjoint
operations of a chain of elementary nodes.  The oracle is that chain, written
below with the elementary ops of ``tests/elementary.py`` exactly as the
formulas read before they were fused.  The fused path must give the same
bits: every primal, every leaf gradient (``tobytes() ==``, so the sign of zero
counts too) and every failure, with the same exception type and message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elementary as el
from hbct import autodiff as ad
from hbct import config as cfgmod
from hbct import encoder, losses
from hbct.autodiff import Tape
from hbct.errors import NumericalDomainError, TrainingFailureError
from hbct.losses import (Q_CLAMP_LO, AlignmentConfig, aperture, base_loss, contrastive_loss,
                         entailment_loss, exterior_angle, infonce_loss, mean_distortion_loss,
                         mlr_logits, total_loss)
from hbct.manifold import (DEGENERATE_NORM, SERIES_EPS, ManifoldConfig, hdist, hexpm_origin,
                           hinner, points, rescale_clip)
from hbct.scenarios import generate_dataset, train_generation

D_IN, D, HIDDEN, C = 6, 4, 5, 5


# --------------------------------------------------------------------------
# The oracle: the chains of elementary ops that the fused formulas replace

def chain_mean(x):
    return el.div(el.sum(x), np.size(ad.value(x)))


def chain_embed(params, X, zeta, mcfg):
    h = X
    for i in range(0, len(params), 2):
        if i:
            h = el.tanh(h)
        h = el.add(el.matmul(h, el.transpose(params[i])), params[i + 1])
    z = chain_rescale_clip(h, zeta, mcfg)
    return z, chain_hexpm(z, mcfg)


def chain_rescale_clip(z, zeta, mcfg):
    z = el.div(ad.array(z), math.sqrt(mcfg.dim_d))
    n = el.norm(z, keepdims=True)
    over = ad.value(n) > zeta
    return el.mul(z, el.where(over, el.div(zeta, el.where(over, n, 1.0)), 1.0))


def chain_hexpm(z, mcfg):
    sqrt_K = math.sqrt(mcfg.curvature_K)
    z = ad.array(z)
    a = el.mul(sqrt_K, el.norm(z))
    series = ad.value(a) < SERIES_EPS
    safe = el.where(series, 1.0, a)
    coeff = el.where(series, 1.0, el.div(el.sinh(safe), safe))
    return el.div(el.cosh(a), sqrt_K), el.mul(el.getitem(coeff, (Ellipsis, None)), z)


def chain_hinner(x, y):
    xt, xs = points(x)
    yt, ys = points(y)
    return el.sub(el.sum(el.mul(xs, ys), -1), el.mul(xt, yt))


def chain_hdist(x, y, mcfg):
    K = mcfg.curvature_K
    return el.div(el.acosh(el.mul(chain_hinner(x, y), -K)), math.sqrt(K))


def chain_distance_matrix(new, old, mcfg):
    (n_times, n_spaces), (o_times, o_spaces) = points(new), points(old)
    return chain_hdist((el.getitem(n_times, (slice(None), None)),
                        el.getitem(n_spaces, (slice(None), None, slice(None)))),
                       (o_times, o_spaces), mcfg)


def chain_mlr_logits(h, head, mcfg):
    sqrt_K = math.sqrt(mcfg.curvature_K)
    _, spaces = points(h)
    head = ad.array(head)
    wn = el.norm(head)
    degenerate = ad.value(wn) < DEGENERATE_NORM
    wn = el.where(degenerate, 1.0, wn)
    s = el.matmul(spaces, el.transpose(head))
    return el.where(degenerate, 0.0, el.mul(el.div(wn, sqrt_K),
                                            el.asinh(el.div(el.mul(s, sqrt_K), wn))))


def chain_base_loss(h, labels, head, mcfg):
    logits = chain_mlr_logits(h, head, mcfg)
    labels = np.asarray(labels)
    shifted = el.sub(logits, ad.value(logits).max(axis=-1, keepdims=True))
    log_probs = el.sub(shifted, el.log(el.sum(el.exp(shifted), -1, keepdims=True)))
    return el.neg(el.getitem(log_probs, (*np.indices(labels.shape, sparse=True), labels)))


def chain_aperture(h_o, cfg, mcfg):
    _, spaces = points(h_o)
    n = el.norm(spaces)
    at_origin = ad.value(n) == 0.0
    c = 2.0 * cfg.epsilon_aperture / math.sqrt(mcfg.curvature_K)
    arg = el.div(c, el.where(at_origin, 1.0, n))
    saturated = at_origin | (ad.value(arg) >= 1.0)
    return el.where(saturated, math.pi / 2.0, el.asin(el.where(saturated, 0.0, arg)))


def chain_exterior(h_o, h_n, cfg, mcfg):
    K = mcfg.curvature_K
    o_times, o_spaces = points(h_o)
    n_times, _ = points(h_n)
    o_norm = el.norm(o_spaces)
    if np.any(ad.value(o_norm) == 0.0):
        raise NumericalDomainError("exterior angle undefined at the origin")
    c = el.mul(chain_hinner(h_o, h_n), K)
    num = el.add(n_times, el.mul(o_times, c))
    sq = el.sub(el.mul(c, c), 1.0)
    sq = el.where(ad.value(sq) < 1e-12, 1e-12, sq)
    arg = el.div(num, el.mul(o_norm, el.sqrt(sq)))
    v = ad.value(arg)
    inside = np.abs(v) < 1.0
    return el.where(inside, el.acos(el.where(inside, arg, 0.0)),
                    np.where(v >= 1.0, 0.0, math.pi))


def chain_entailment(h_n, h_o, cfg, mcfg):
    v = el.sub(chain_exterior(h_o, h_n, cfg, mcfg), chain_aperture(h_o, cfg, mcfg))
    return el.where(ad.value(v) > 0.0, v, 0.0)


def _q(uncertainties_old, cfg, n):
    if cfg.q_mode == "adaptive":
        return np.clip(np.asarray(uncertainties_old, dtype=np.float64), Q_CLAMP_LO, 1.0)
    return np.full(n, cfg.q_fixed)


def _diagonal(D):
    idx = np.arange(D.shape[0])
    return el.getitem(D, (idx, idx))


def chain_contrast(new, old, unc, cfg, mcfg):
    if cfg.contrast_kind == "mean_distortion":
        return chain_mean(chain_hdist(new, old, mcfg))
    D = chain_distance_matrix(new, old, mcfg)
    if cfg.contrast_kind == "infonce":
        return chain_infonce_terms(D, cfg.tau)
    return chain_rince_terms(D, _q(unc, cfg, len(ad.value(D))), cfg.tau, cfg.beta)


def chain_infonce_terms(D, tau):
    return chain_mean(el.add(el.div(_diagonal(D), tau),
                             el.log(el.sum(el.exp(el.mul(D, -1.0 / tau)), -1))))


def chain_rince_terms(D, q, tau, beta):
    pos = el.exp(el.mul(_diagonal(D), -q / tau))
    neg = el.sum(el.exp(el.mul(D, -1.0 / tau)), -1)
    return chain_mean(el.add(el.div(el.neg(pos), q), el.div(el.powr(el.mul(neg, beta), q), q)))


def chain_total(new, labels, old, unc, head, cfg, mcfg):
    base = chain_mean(chain_base_loss(new, labels, head, mcfg))
    if cfg.lambda_align == 0.0:
        return base
    entail = chain_mean(chain_entailment(new, old, cfg, mcfg))
    contrast = chain_contrast(new, old, unc, cfg, mcfg)
    return el.add(base, el.mul(el.add(el.mul(entail, cfg.lambda_entail), contrast),
                               cfg.lambda_align))


FUSED = (encoder.embed_vars, total_loss)
CHAIN = (chain_embed, chain_total)


# --------------------------------------------------------------------------
# Inputs that reach every per-lane branch

def _plain_point(z, mcfg):
    t, s = hexpm_origin(np.asarray(z, dtype=np.float64)[None], mcfg)
    return t[0], s[0]


def _exterior_args(old, new, mcfg):
    """(c^2 - 1, the acos argument) of the exterior angle per row, from the
    chain's plain values.  Row-wise calls throughout: a scalar form of the
    same expression can round one step apart."""
    c = chain_hinner(old, new) * mcfg.curvature_K
    sq = c * c - 1.0
    return sq, (new[0] + old[0] * c) / (np.linalg.norm(old[1], axis=-1)
                                        * np.sqrt(np.where(sq < 1e-12, 1e-12, sq)))


def _off_branch(z_new, sign, mcfg):
    """An old point on the geodesic ray through the new one (sign +1) or on the
    opposite ray (sign -1) whose exterior-angle argument lands at or beyond
    sign * 1, so the angle takes the constant 0 or pi."""
    n = _plain_point(z_new, mcfg)
    for t in np.linspace(0.2, 0.9, 400):
        o = _plain_point(sign * t * z_new, mcfg)
        _, arg = _exterior_args((o[0][None], o[1][None]), (n[0][None], n[1][None]), mcfg)
        if sign * arg[0] >= 1.0:
            return o
    raise AssertionError("no point on the ray reaches the constant branch")


def step_inputs(seed, batch, K, arch, clip_q):
    """Parameters, one batch and its old points.  zeta sits between the rows'
    norms, so some rows clip and others do not; head row 1 is degenerate.
    From 2 rows on, row 0 embeds at the origin (series branch of the expmap)
    and old row 1 is near the origin (saturated aperture).  From 5 rows on,
    old row 2 equals the new point, which sits near the origin (the c^2 - 1
    clamp: far out, c^2 - 1 of a point with itself rounds above the clamp), and
    old rows 3 and 4 sit on the rays through the new point (acos argument at or
    beyond +1 and -1)."""
    rng = np.random.default_rng(seed)
    mcfg = ManifoldConfig(K, D)
    dims = [D_IN, *arch, D]
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        params += [rng.normal(0.0, 1.5 / math.sqrt(fan_in), size=(fan_out, fan_in)),
                   np.zeros(fan_out) if batch > 1 else rng.normal(0.0, 0.1, size=fan_out)]
    X = rng.normal(size=(batch, D_IN)) * rng.uniform(0.1, 3.0, size=(batch, 1))
    if batch > 1:
        X[0] = 0.0  # zero biases: the row embeds exactly at the origin
    if batch > 4:
        X[2] *= 0.1 / np.linalg.norm(X[2])
    h = X
    for i in range(0, len(params), 2):
        h = (np.tanh(h) if i else h) @ params[i].T + params[i + 1]
    norms = np.linalg.norm(h / math.sqrt(D), axis=1)
    zeta = float(np.quantile(norms[norms > 0], clip_q)) if np.any(norms > 0) else 1.0
    if batch == 1:
        zeta = float(norms[0]) * (0.5 if clip_q > 0.5 else 2.0) or 1.0
    head = rng.normal(0.0, 0.5, size=(C, D))
    head[1] = 0.0
    labels = rng.integers(0, C, size=batch)
    z, (times, spaces) = encoder.embed_vars(params, X, zeta, mcfg)
    old_z = rng.normal(size=(batch, D)) * rng.uniform(0.3, 1.5, size=(batch, 1))
    if batch > 1:
        old_z[1] = 0.01 * old_z[1] / np.linalg.norm(old_z[1])
    old_t, old_s = hexpm_origin(old_z, mcfg)
    if batch > 4:
        old_t[2], old_s[2] = times[2], spaces[2]
        old_t[3], old_s[3] = _off_branch(z[3], 1.0, mcfg)
        old_t[4], old_s[4] = _off_branch(z[4], -1.0, mcfg)
    unc = rng.uniform(0.0, 1.2, size=batch)
    return mcfg, params, head, X, labels, zeta, (old_t, old_s), unc


def run_step(impl, mcfg, params, head, X, labels, zeta, old, unc, cfg):
    """(loss bytes, leaf gradient bytes) of one training step through impl."""
    embed, total = impl
    tape = Tape()
    leaves = [tape.var(a) for a in params + [head]]
    with np.errstate(all="ignore"):
        _, new = embed(leaves[:-1], X, zeta, mcfg)
        loss = total(new, labels, old, unc, leaves[-1], cfg, mcfg)
        grads = ad.grad(loss, leaves)
    return np.asarray(loss.val).tobytes(), [g.tobytes() for g in grads], len(tape)


def branches_hit(mcfg, params, head, X, zeta, old, cfg):
    """Which per-lane branches the plain chain takes on this batch."""
    h = X
    for i in range(0, len(params), 2):
        h = (np.tanh(h) if i else h) @ params[i].T + params[i + 1]
    norms = np.linalg.norm(h / math.sqrt(D), axis=1)
    z, new = chain_embed(params, X, zeta, mcfg)
    sqrt_K = math.sqrt(mcfg.curvature_K)
    sq, arg = _exterior_args(old, new, mcfg)
    hinge = chain_exterior(old, new, cfg, mcfg) - chain_aperture(old, cfg, mcfg)
    return {
        "series": np.any(np.linalg.norm(z, axis=1) * sqrt_K < SERIES_EPS),
        "clipped": np.any(norms > zeta), "unclipped": np.any(norms <= zeta),
        "degenerate head row": np.any(np.linalg.norm(head, axis=1) < DEGENERATE_NORM),
        "saturated aperture": np.any(2.0 * cfg.epsilon_aperture
                                     / (sqrt_K * np.linalg.norm(old[1], axis=1)) >= 1.0),
        "sq clamp": np.any(sq < 1e-12),
        "acos arg >= 1": np.any(arg >= 1.0), "acos arg <= -1": np.any(arg <= -1.0),
        "negative hinge": np.any(hinge < 0.0), "positive hinge": np.any(hinge > 0.0),
    }


# tau = 0.4: unlike the default 0.5, dividing by it and multiplying by its
# reciprocal round apart, so a formula must divide exactly where its chain does
KINDS = [dict(contrast_kind="rince"), dict(contrast_kind="rince", q_mode="fixed", tau=0.4),
         dict(contrast_kind="infonce", tau=0.4), dict(contrast_kind="mean_distortion")]


@settings(max_examples=40, deadline=None)
# step_inputs placed old row 4 and branches_hit checked it with acos arguments
# that once rounded apart (-1.0 against -0.9999999999999998)
@example(seed=1793179633, batch=16, K=0.5, arch=(), clip_q=0.593847149027859,
         kind=dict(contrast_kind="rince"))
# old row 2 once equalled a new point at time 127, where c^2 - 1 read 1.5e-11
@example(seed=10340, batch=16, K=2.0, arch=(), clip_q=0.75, kind=dict(contrast_kind="rince"))
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 2, 16]),
       K=st.sampled_from([0.5, 1.0, 2.0]), arch=st.sampled_from([(), (HIDDEN,)]),
       clip_q=st.floats(0.2, 0.8), kind=st.sampled_from(KINDS))
def test_step_matches_chain(seed, batch, K, arch, clip_q, kind):
    # a 1-row batch is a base-loss tail; aligned batches hold 2 and 16 rows
    mcfg, params, head, X, labels, zeta, old, unc = step_inputs(seed, batch, K, arch, clip_q)
    cfg = AlignmentConfig(lambda_align=0.0 if batch == 1 else 0.3, **kind)
    fused = run_step(FUSED, mcfg, params, head, X, labels, zeta, old, unc, cfg)
    chain = run_step(CHAIN, mcfg, params, head, X, labels, zeta, old, unc, cfg)
    assert fused[:2] == chain[:2]
    assert fused[2] < chain[2]
    if batch == 16:
        missed = [k for k, v in branches_hit(mcfg, params, head, X, zeta, old, cfg).items()
                  if not v]
        assert not missed


def test_step_node_counts(monkeypatch):
    # nodes of a step, fused and as a chain, and the fused step's finiteness checks,
    # its leaves' included: the base loss, then the aligned loss under each contrast kind
    mcfg, params, head, X, labels, zeta, old, unc = step_inputs(0, 16, 1.0, (HIDDEN,), 0.5)
    checks, check = [], ad.check_finite
    monkeypatch.setattr(ad, "check_finite", lambda val: checks.append(1) or check(val))
    for lam, kind, n_fused, n_chain, n_checks in (
            (0.0, "rince", 15, 47, 42), (0.3, "rince", 20, 94, 86),
            (0.3, "infonce", 20, 89, 81), (0.3, "mean_distortion", 20, 80, 75)):
        cfg = AlignmentConfig(lambda_align=lam, contrast_kind=kind)
        checks.clear()
        assert run_step(FUSED, mcfg, params, head, X, labels, zeta, old, unc, cfg)[2] == n_fused
        assert len(checks) == n_checks
        assert run_step(CHAIN, mcfg, params, head, X, labels, zeta, old, unc, cfg)[2] == n_chain


# --------------------------------------------------------------------------
# Each formula alone, with constants and Vars mixed among its operands

def _compare(fused_fn, chain_fn, values, var_mask, weights_seed=0):
    """Primal and gradient bytes of sum(w * f(operands)), Vars where var_mask."""
    out = []
    for fn in (fused_fn, chain_fn):
        tape = Tape()
        ops = [tape.var(v) if m else v for v, m in zip(values, var_mask)]
        leaves = [o for o in ops if isinstance(o, ad.Var)]
        with np.errstate(all="ignore"):
            y = fn(*ops)
            w = np.random.default_rng(weights_seed).uniform(-1.0, 1.0, size=np.shape(ad.value(y)))
            grads = ad.grad(el.sum(el.mul(y, w)), leaves)
        out.append((np.asarray(ad.value(y)).tobytes(), [g.tobytes() for g in grads]))
    assert out[0] == out[1]


def _batch(rng, n, mcfg, scale=1.0):
    z = rng.normal(size=(n, mcfg.dim_d)) * scale
    return hexpm_origin(z, mcfg)


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("mask", [(True, False, False, False), (False, True, False, False),
                                  (True, True, False, False), (False, False, True, True),
                                  (True, True, True, True), (False, True, True, False)])
def test_distances_match_chain(K, mask):
    mcfg = ManifoldConfig(K, D)
    rng = np.random.default_rng(int(K * 10) + sum(mask))
    (xt, xs), (yt, ys) = _batch(rng, 6, mcfg), _batch(rng, 6, mcfg)
    vals = [xt, xs, yt, ys]
    _compare(lambda a, b, c, d: hinner((a, b), (c, d)),
             lambda a, b, c, d: chain_hinner((a, b), (c, d)), vals, mask)
    _compare(lambda a, b, c, d: hdist((a, b), (c, d), mcfg),
             lambda a, b, c, d: chain_hdist((a, b), (c, d), mcfg), vals, mask)
    _compare(lambda a, b, c, d: hdist((a, b), (c, d), mcfg, outer=True),
             lambda a, b, c, d: chain_distance_matrix((a, b), (c, d), mcfg), vals, mask)


def test_self_distance_matrix_matches_chain():
    # one Var batch on both sides: each operand gets two sets of contributions
    mcfg = ManifoldConfig(1.0, D)
    t, s = _batch(np.random.default_rng(7), 5, mcfg)
    _compare(lambda a, b: hdist((a, b), (a, b), mcfg, outer=True),
             lambda a, b: chain_distance_matrix((a, b), (a, b), mcfg), [t, s], (True, True))
    # the cone's old side is frozen: the batch against its own reversal, as constants
    old = (t[::-1].copy(), s[::-1].copy())
    _compare(lambda a, b: exterior_angle(old, (a, b), AlignmentConfig(), mcfg),
             lambda a, b: chain_exterior(old, (a, b), AlignmentConfig(), mcfg),
             [t, s], (True, True))


@pytest.mark.parametrize("mask", [(True, False), (False, True), (True, True)])
def test_mlr_matches_chain(mask):
    mcfg = ManifoldConfig(2.0, D)
    rng = np.random.default_rng(3)
    _, spaces = _batch(rng, 7, mcfg)
    head = rng.normal(size=(C, D))
    head[2] = 0.0
    labels = rng.integers(0, C, size=7)
    _compare(lambda s, h: mlr_logits((1.0, s), h, mcfg),
             lambda s, h: chain_mlr_logits((1.0, s), h, mcfg), [spaces, head], mask)
    _compare(lambda s, h: base_loss((1.0, s), labels, h, mcfg),
             lambda s, h: chain_base_loss((1.0, s), labels, h, mcfg), [spaces, head], mask)
    # one point alone: 1-d spaces, scalar loss
    _compare(lambda s, h: base_loss((1.0, s), labels[0], h, mcfg),
             lambda s, h: chain_base_loss((1.0, s), labels[0], h, mcfg),
             [spaces[0], head], mask)


# the old side (the first two operands) is frozen, so only the new side is a Var
@pytest.mark.parametrize("mask", [(False, False, False, True), (False, False, True, True)])
def test_cone_matches_chain(mask):
    mcfg, cfg = ManifoldConfig(0.5, D), AlignmentConfig()
    rng = np.random.default_rng(11)
    o_t, o_s = _batch(rng, 8, mcfg, 0.8)
    n_t, n_s = _batch(rng, 8, mcfg, 1.2)
    o_s[0] *= 1e-3           # saturated aperture
    n_t[1] *= 0.3            # inside the light cone: the clamp and |arg| >= 1
    n_t[2], n_s[2] = o_t[2], o_s[2]
    vals = [o_t, o_s, n_t, n_s]
    _compare(lambda a, b, c, d: exterior_angle((a, b), (c, d), cfg, mcfg),
             lambda a, b, c, d: chain_exterior((a, b), (c, d), cfg, mcfg), vals, mask)
    _compare(lambda a, b, c, d: entailment_loss((c, d), (a, b), cfg, mcfg),
             lambda a, b, c, d: chain_entailment((c, d), (a, b), cfg, mcfg), vals, mask)
    # the aperture is plain: its values only
    assert aperture((1.0, o_s), cfg, mcfg).tobytes() == \
        chain_aperture((1.0, o_s), cfg, mcfg).tobytes()


@pytest.mark.parametrize("kind", ["rince", "infonce", "mean_distortion"])
def test_contrast_and_tail_match_chain(kind):
    mcfg = ManifoldConfig(1.0, D)
    rng = np.random.default_rng(5)
    old = _batch(rng, 6, mcfg)
    unc = rng.uniform(0.0, 1.2, size=6)
    z = rng.normal(size=(6, D)) * 2.0
    z[0] = 0.0
    losses = {"rince": contrastive_loss, "infonce": lambda n, o, u, c, m: infonce_loss(n, o, c, m),
              "mean_distortion": lambda n, o, u, c, m: mean_distortion_loss(n, o, c, m)}
    for cfg in (AlignmentConfig(contrast_kind=kind), AlignmentConfig(contrast_kind=kind, tau=0.4)):
        def fused(z):
            return losses[kind](hexpm_origin(rescale_clip(z, 1.0, mcfg), mcfg), old, unc, cfg,
                                mcfg)

        def chain(z):
            return chain_contrast(chain_hexpm(chain_rescale_clip(z, 1.0, mcfg), mcfg), old, unc,
                                  cfg, mcfg)
        _compare(fused, chain, [z], (True,))
    _compare(lambda v: ad.mean(v), chain_mean, [z], (True,))


# --------------------------------------------------------------------------
# Failure parity: the same exception, message and count on both paths

def _failure(fn):
    with np.errstate(all="ignore"):
        try:
            fn()
        except Exception as e:  # the type and message are compared
            return type(e), str(e)
    return None


def _both_fail_alike(fused_fn, chain_fn):
    fused, chain = _failure(fused_fn), _failure(chain_fn)
    assert fused is not None and fused == chain
    return fused[1]


def test_class_center_scale_overflow_fails_alike(monkeypatch):
    # dataset.class_center_scale = 1e308 puts an infinite coordinate in the
    # encoder output; training stops at step 0 with the same message
    cfg = cfgmod.parse("dataset.class_center_scale = 1e308\ndataset.num_classes = 4\n"
                       "dataset.samples_per_class = 10\ntrain.epochs = 1\n")
    ds = generate_dataset(cfg.dataset)

    def train():
        return train_generation(cfg, ds, 0, None, cfg.alignment)

    def chain_train():
        with monkeypatch.context() as m:
            m.setattr(encoder, "embed_vars", chain_embed)
            m.setattr(encoder, "total_loss", chain_total)
            return train()
    msg = _both_fail_alike(train, chain_train)
    assert _failure(train)[0] is TrainingFailureError
    assert msg.startswith("loss diverged at step 0: non-finite primal recorded on tape (")


def _overflow_cases():
    """(name, fused, chain): each overflows inside one fused formula."""
    mcfg, cfg = ManifoldConfig(1.0, D), AlignmentConfig()
    rng = np.random.default_rng(2)
    t, s = _batch(rng, 4, mcfg)
    big = np.full((4, D), 1e200)
    def on_tape(fn, *vals):
        def run():
            tape = Tape()
            return fn(*[tape.var(v) for v in vals])
        return run
    params = [np.full((3, D_IN), 1e200), np.zeros(3)]
    X = np.ones((4, D_IN))
    head = 1.0 + np.abs(rng.normal(size=(C, D)))  # every score overflows
    q = rng.uniform(0.1, 1.0, size=4)
    return [
        ("layer", on_tape(lambda W, b: encoder.embed_vars([W, b], X, 1.0, mcfg), *params),
         on_tape(lambda W, b: chain_embed([W, b], X, 1.0, mcfg), *params)),
        ("rescale_clip", on_tape(lambda z: rescale_clip(z, 1.0, mcfg), big),
         on_tape(lambda z: chain_rescale_clip(z, 1.0, mcfg), big)),
        ("expmap", on_tape(lambda z: hexpm_origin(z, mcfg), big * 1e-197),
         on_tape(lambda z: chain_hexpm(z, mcfg), big * 1e-197)),
        ("mlr", on_tape(lambda sp, h: base_loss((1.0, sp), [0, 1, 2, 3], h, mcfg),
                        big * 1e108, head),
         on_tape(lambda sp, h: chain_base_loss((1.0, sp), [0, 1, 2, 3], h, mcfg),
                 big * 1e108, head)),
        ("hdist", on_tape(lambda a, b: hdist((a, b), (t, s), mcfg, outer=True), t * 1e307, s),
         on_tape(lambda a, b: chain_distance_matrix((a, b), (t, s), mcfg), t * 1e307, s)),
        ("cone", on_tape(lambda a, b: entailment_loss((a, b), (t, s), cfg, mcfg), t * 1e200, s),
         on_tape(lambda a, b: chain_entailment((a, b), (t, s), cfg, mcfg), t * 1e200, s)),
        # distances are >= 0, so only a crafted negative D makes exp(-D / tau) overflow
        ("rince", on_tape(lambda d: ad.formula(losses._rince, losses._rince_vjp, (d,), q,
                                               0.5, 0.01), -800.0 * np.eye(4) - 1.0),
         on_tape(lambda d: chain_rince_terms(d, q, 0.5, 0.01), -800.0 * np.eye(4) - 1.0)),
        ("infonce", on_tape(lambda d: ad.formula(losses._infonce, losses._infonce_vjp, (d,),
                                                 0.5), -800.0 * np.eye(4) - 1.0),
         on_tape(lambda d: chain_infonce_terms(d, 0.5), -800.0 * np.eye(4) - 1.0)),
        ("mean", on_tape(ad.mean, big * 1e108), on_tape(chain_mean, big * 1e108)),
    ]


@pytest.mark.parametrize("case", _overflow_cases(), ids=lambda c: c[0])
def test_overflow_fails_alike(case):
    _, fused, chain = case
    msg = _both_fail_alike(fused, chain)
    assert msg.startswith("non-finite primal recorded on tape (")


def test_domain_errors_fail_alike():
    mcfg = ManifoldConfig(1.0, D)
    rng = np.random.default_rng(4)
    t, s = _batch(rng, 3, mcfg)

    def dist(fn):
        def run():
            tape = Tape()
            # times pulled towards 0: -K <x, y>_L drops below 1 - DOMAIN_TOL
            return fn((tape.var(t * 0.1), tape.var(s)), (t, s), mcfg)
        return run
    msg = _both_fail_alike(dist(hdist), dist(chain_hdist))
    assert msg.startswith("acosh argument ") and "below 1 by more than" in msg
    origin = (np.ones(2), np.zeros((2, D)))
    _both_fail_alike(lambda: exterior_angle(origin, (t[:2], Tape().var(s[:2])),
                                            AlignmentConfig(), mcfg),
                     lambda: chain_exterior(origin, (t[:2], Tape().var(s[:2])),
                                            AlignmentConfig(), mcfg))
    # asin and acos arguments are masked into [-1, 1] inside the fused cone
    # formulas; their plain forms raise exactly as the elementary ops do
    for plain, op in ((ad.arcsin, el.asin), (ad.arccos, el.acos)):
        _both_fail_alike(lambda: plain(np.array([0.5, 1.1])),
                         lambda: op(Tape().var([0.5, 1.1])))
