"""Objective functions checked against closed forms and independent numpy
re-implementations (the oracles share no code with the package), plus lane
isolation of the batched forms."""

import math

import numpy as np
import pytest

import elementary as el
from hbct import autodiff as ad
from hbct.autodiff import Tape
from hbct.errors import InvalidArgumentError, NumericalDomainError
from hbct.losses import (AlignmentConfig, aperture, base_loss,
                         contrastive_loss, entailment_loss, exterior_angle,
                         hexpm_origin, infonce_loss, mean_distortion_loss,
                         mlr_logits, total_loss)
from hbct.manifold import ManifoldConfig, expm_origin, rescale_clip

MCFG = ManifoldConfig(1.0, 3)


def rand_points(rng, n, lo=0.3, hi=2.0, cfg=MCFG):
    pts = []
    for _ in range(n):
        z = rng.normal(size=cfg.dim_d)
        z *= rng.uniform(lo, hi) / np.linalg.norm(z)
        pts.append(expm_origin(z, cfg))
    return pts


# --------------------------------------------------------------------------
# Independent oracles (pure numpy, written directly from the formulas)

def oracle_geodesic(p, q, K=1.0):
    inner = float(p.space @ q.space) - p.time * q.time
    return math.acosh(max(-K * inner, 1.0)) / math.sqrt(K)


def oracle_logits(head_rows, h, K=1.0):
    out = []
    for w in head_rows:
        wn = np.linalg.norm(w)
        if wn < 1e-12:
            out.append(0.0)
            continue
        s = float(np.dot(w, h.space))
        out.append(wn / math.sqrt(K) * math.asinh(math.sqrt(K) * s / wn))
    return np.array(out)


def oracle_base(head_rows, h, label, K=1.0):
    logits = oracle_logits(head_rows, h, K)
    m = logits.max()
    return -(logits[label] - m - math.log(np.exp(logits - m).sum()))


def oracle_rince(new_pts, old_pts, qs, tau, beta, K=1.0):
    n = len(new_pts)
    D = np.array([[oracle_geodesic(a, b, K) for b in old_pts] for a in new_pts])
    total = 0.0
    for i in range(n):
        q = qs[i]
        neg = np.exp(-D[i] / tau).sum()
        total += -math.exp(-q * D[i, i] / tau) / q + (beta * neg) ** q / q
    return total / n


def oracle_infonce(new_pts, old_pts, tau, K=1.0):
    n = len(new_pts)
    D = np.array([[oracle_geodesic(a, b, K) for b in old_pts] for a in new_pts])
    total = 0.0
    for i in range(n):
        total += D[i, i] / tau + math.log(np.exp(-D[i] / tau).sum())
    return total / n


# --------------------------------------------------------------------------

class TestMlrLogits:
    def test_orthogonal_hyperplane(self):
        h = expm_origin(np.array([0.7, 0.0, 0.0]), MCFG)
        head = [[0.0, 1.3, -0.2]]
        assert ad.value(mlr_logits(h, head, MCFG)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip(self):
        rng = np.random.default_rng(0)
        h = rand_points(rng, 1)[0]
        w = rng.normal(size=3)
        a = ad.value(mlr_logits(h, [w], MCFG)[0])
        b = ad.value(mlr_logits(h, [-w], MCFG)[0])
        assert a == pytest.approx(-b, abs=1e-12)

    def test_softmax_normalization(self):
        rng = np.random.default_rng(1)
        h = rand_points(rng, 1)[0]
        head = rng.normal(size=(5, 3))
        logits = mlr_logits(h, head, MCFG)
        p = np.exp(logits - logits.max())
        assert p.sum() / p.sum() == 1.0
        assert (np.exp(logits) / np.exp(logits).sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_row(self):
        h = rand_points(np.random.default_rng(2), 1)[0]
        head = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert ad.value(mlr_logits(h, head, MCFG)[0]) == 0.0

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = rand_points(rng, 5)
            rows = rng.normal(size=(4, 3))
            got = mlr_logits(batch, rows, MCFG)
            assert got.shape == (5, 4)
            for h, row in zip(batch, got):
                assert np.max(np.abs(row - oracle_logits(rows, h))) <= 1e-10


class TestBaseLoss:
    def test_identical_rows_uniform(self):
        h = rand_points(np.random.default_rng(4), 1)[0]
        head = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]
        assert ad.value(base_loss(h, 0, head, MCFG)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_limit(self):
        h = expm_origin(np.array([2.0, 0.0, 0.0]), MCFG)
        head = [[50.0, 0.0, 0.0], [-50.0, 0.0, 0.0]]
        assert ad.value(base_loss(h, 0, head, MCFG)) <= 1e-6

    def test_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = rand_points(rng, 1)[0]
            rows = rng.normal(size=(4, 3))
            label = int(rng.integers(4))
            got = ad.value(base_loss(h, label, rows, MCFG))
            assert got == pytest.approx(oracle_base(rows, h, label), abs=1e-10)
            assert got >= 0.0

    def test_bad_label(self):
        h = rand_points(np.random.default_rng(6), 1)[0]
        with pytest.raises(InvalidArgumentError):
            base_loss(h, 7, [[1.0, 0.0, 0.0]], MCFG)


class TestAperture:
    def test_saturation_boundary(self):
        cfg = AlignmentConfig(epsilon_aperture=0.1)
        h = (1.0, [0.2, 0.0, 0.0])
        assert ad.value(aperture(h, cfg, MCFG)) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_pi_over_six(self):
        cfg = AlignmentConfig(epsilon_aperture=0.1)
        h = (1.0, [0.4, 0.0, 0.0])
        assert ad.value(aperture(h, cfg, MCFG)) == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_origin_degenerate(self):
        cfg = AlignmentConfig()
        assert aperture((1.0, [0.0, 0.0, 0.0]), cfg, MCFG) == math.pi / 2.0

    def test_monotone_non_increasing(self):
        cfg = AlignmentConfig(epsilon_aperture=0.1)
        vals = [ad.value(aperture((1.0, [r, 0.0, 0.0]), cfg, MCFG))
                for r in np.linspace(0.05, 3.0, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestExteriorAngle:
    def test_radial_descendant(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.normal(size=3)
            z *= rng.uniform(0.5, 1.5) / np.linalg.norm(z)
            h_o = expm_origin(z, MCFG)
            h_n = expm_origin(2.0 * z, MCFG)
            assert ad.value(exterior_angle(h_o, h_n, cfg, MCFG)) <= 1e-6

    def test_antipodal(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = rng.normal(size=3)
            z *= rng.uniform(0.5, 1.5) / np.linalg.norm(z)
            h_o = expm_origin(z, MCFG)
            h_n = expm_origin(-z, MCFG)
            assert ad.value(exterior_angle(h_o, h_n, cfg, MCFG)) == pytest.approx(
                math.pi, abs=1e-6)

    def test_asymmetric(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(10):
            a, b = rand_points(rng, 2)
            va = ad.value(exterior_angle(a, b, cfg, MCFG))
            vb = ad.value(exterior_angle(b, a, cfg, MCFG))
            hits += abs(va - vb) > 1e-9
        assert hits == 10

    def test_constant_branches_never_reach_acos(self):
        # points inside the light cone hit the c^2 - 1 clamp and push the acos
        # argument far outside [-1, 1]; those lanes take the 0 / pi constants
        cfg = AlignmentConfig()
        h_o = expm_origin(np.array([0.3, 0.0, 0.0]), MCFG)
        tape = Tape()
        spaces = tape.var([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.5, 0.9, 0.2]])
        h_n = (np.array([0.5, 0.5, 2.0]), spaces)
        ext = exterior_angle(h_o, h_n, cfg, MCFG)
        assert ext.val[0] == 0.0 and ext.val[1] == math.pi
        g = ad.grad(el.sum(ext), [spaces])[0]
        assert np.all(np.isfinite(g))
        assert np.all(g[:2] == 0.0) and np.any(g[2] != 0.0)

    def test_origin_raises(self):
        cfg = AlignmentConfig()
        h_n = rand_points(np.random.default_rng(10), 1)[0]
        with pytest.raises(NumericalDomainError):
            exterior_angle((1.0, [0.0, 0.0, 0.0]), h_n, cfg, MCFG)


class TestEntailmentLoss:
    def test_radial_descendant_inside_cone(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = rng.normal(size=3)
            z *= rng.uniform(0.5, 1.5) / np.linalg.norm(z)
            h_o = expm_origin(z, MCFG)
            h_n = expm_origin(2.0 * z, MCFG)
            assert ad.value(entailment_loss(h_n, h_o, cfg, MCFG)) == 0.0

    def test_antipodal_penalty(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(12)
        for _ in range(10):
            z = rng.normal(size=3)
            z *= rng.uniform(0.5, 1.5) / np.linalg.norm(z)
            h_o = expm_origin(z, MCFG)
            h_n = expm_origin(-z, MCFG)
            expected = math.pi - ad.value(aperture(h_o, cfg, MCFG))
            assert ad.value(entailment_loss(h_n, h_o, cfg, MCFG)) == pytest.approx(
                expected, abs=1e-6)

    def test_hinge_zero_inside(self):
        cfg = AlignmentConfig()
        rng = np.random.default_rng(13)
        for _ in range(30):
            h_o, h_n = rand_points(rng, 2)
            ext = ad.value(exterior_angle(h_o, h_n, cfg, MCFG))
            aper = ad.value(aperture(h_o, cfg, MCFG))
            loss = ad.value(entailment_loss(h_n, h_o, cfg, MCFG))
            if ext <= aper:
                assert loss == 0.0
            else:
                assert loss == pytest.approx(ext - aper, abs=1e-12)


def test_old_batch_is_frozen():
    # the old generation is a constant of the cone: a Var old batch is refused
    cfg, (old_t, old_s) = AlignmentConfig(), hexpm_origin(np.array([[0.3, 0.2, -0.1]]), MCFG)
    new = hexpm_origin(np.array([[0.6, 0.1, 0.0]]), MCFG)
    for old in ((Tape().var(old_t), old_s), (old_t, Tape().var(old_s))):
        for fn in (lambda: aperture(old, cfg, MCFG), lambda: exterior_angle(old, new, cfg, MCFG),
                   lambda: entailment_loss(new, old, cfg, MCFG)):
            with pytest.raises(InvalidArgumentError, match="old batch is frozen"):
                fn()


class TestContrastiveLoss:
    def test_against_oracle_fixed_q(self):
        rng = np.random.default_rng(14)
        cfg = AlignmentConfig(q_mode="fixed", q_fixed=0.4, tau=0.5, beta=0.01)
        for _ in range(20):
            new = rand_points(rng, 4)
            old = rand_points(rng, 4)
            got = ad.value(contrastive_loss(new, old, None, cfg, MCFG))
            want = oracle_rince(new, old, [0.4] * 4, 0.5, 0.01)
            assert got == pytest.approx(want, abs=1e-10)

    def test_against_oracle_adaptive_q(self):
        rng = np.random.default_rng(15)
        cfg = AlignmentConfig(q_mode="adaptive", tau=0.5, beta=0.01)
        for _ in range(20):
            new = rand_points(rng, 4)
            old = rand_points(rng, 4)
            unc = rng.uniform(0.0, 1.0, size=4)
            got = ad.value(contrastive_loss(new, old, list(unc), cfg, MCFG))
            qs = np.clip(unc, 1e-3, 1.0)
            assert got == pytest.approx(oracle_rince(new, old, qs, 0.5, 0.01), abs=1e-10)

    def test_batch_too_small(self):
        cfg = AlignmentConfig(q_mode="fixed")
        pts = rand_points(np.random.default_rng(16), 1)
        with pytest.raises(InvalidArgumentError):
            contrastive_loss(pts, pts, None, cfg, MCFG)

    def test_adaptive_needs_uncertainties(self):
        cfg = AlignmentConfig(q_mode="adaptive")
        pts = rand_points(np.random.default_rng(17), 2)
        with pytest.raises(InvalidArgumentError):
            contrastive_loss(pts, pts, None, cfg, MCFG)

    def test_infonce_limit_monotone(self):
        rng = np.random.default_rng(18)
        new = rand_points(rng, 6)
        old = rand_points(rng, 6)
        base_cfg = AlignmentConfig(tau=0.5, beta=1.0)
        nce = ad.value(infonce_loss(new, old, base_cfg, MCFG))
        gaps = []
        for q in (0.5, 0.1, 0.01, 0.001):
            cfg = AlignmentConfig(q_mode="fixed", q_fixed=q, tau=0.5, beta=1.0)
            gaps.append(abs(ad.value(contrastive_loss(new, old, None, cfg, MCFG)) - nce))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2

    def test_far_positive_gradient_shrinks_with_q(self):
        # a far positive pair should contribute less gradient at larger q
        z_new = np.array([1.5, 0.0, 0.0])
        z_far = np.array([-1.5, 0.5, 0.0])
        z_other = np.array([0.3, -0.8, 0.4])
        old = [expm_origin(z_far, MCFG), expm_origin(z_other, MCFG)]
        norms = []
        for q in (0.01, 0.1, 0.5, 1.0):
            cfg = AlignmentConfig(q_mode="fixed", q_fixed=q, tau=0.5, beta=0.01)
            tape = Tape()
            # the second new point sits on its old partner; only the first
            # point's gradient is measured
            leaf = tape.var([z_new, z_other])
            loss = contrastive_loss(hexpm_origin(leaf, MCFG), old, None, cfg, MCFG)
            norms.append(float(np.linalg.norm(ad.grad(loss, [leaf])[0][0])))
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestInfoNce:
    def test_uniform_distances(self):
        p = expm_origin(np.array([1.0, 0.0, 0.0]), MCFG)
        q = expm_origin(np.array([0.0, 1.0, 0.0]), MCFG)
        cfg = AlignmentConfig(tau=0.5)
        # every new point sees the same distance to every old point
        got = ad.value(infonce_loss([p, p, p], [q, q, q], cfg, MCFG))
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_against_oracle(self):
        rng = np.random.default_rng(19)
        cfg = AlignmentConfig(tau=0.7)
        for _ in range(50):
            new = rand_points(rng, 5)
            old = rand_points(rng, 5)
            got = ad.value(infonce_loss(new, old, cfg, MCFG))
            assert got == pytest.approx(oracle_infonce(new, old, 0.7), abs=1e-10)


class TestMeanDistortion:
    def test_identical_batches(self):
        pts = rand_points(np.random.default_rng(20), 3)
        cfg = AlignmentConfig()
        assert ad.value(mean_distortion_loss(pts, pts, cfg, MCFG)) == 0.0

    def test_single_pair(self):
        rng = np.random.default_rng(21)
        a, b = rand_points(rng, 2)
        cfg = AlignmentConfig()
        got = ad.value(mean_distortion_loss([a], [b], cfg, MCFG))
        assert got == pytest.approx(oracle_geodesic(a, b), abs=1e-12)

    def test_against_hand_sum(self):
        rng = np.random.default_rng(22)
        cfg = AlignmentConfig()
        for _ in range(10):
            new = rand_points(rng, 4)
            old = rand_points(rng, 4)
            want = np.mean([oracle_geodesic(a, b) for a, b in zip(new, old)])
            got = ad.value(mean_distortion_loss(new, old, cfg, MCFG))
            assert got == pytest.approx(want, abs=1e-12)


class TestTotalLoss:
    def _setup(self, seed=24, n=4):
        rng = np.random.default_rng(seed)
        new = rand_points(rng, n)
        old = rand_points(rng, n)
        unc = list(rng.uniform(0.1, 0.9, size=n))
        labels = [int(v) for v in rng.integers(0, 3, size=n)]
        head = rng.normal(size=(3, 3))
        return new, old, unc, labels, head

    def test_lambda_zero_bit_equals_base(self):
        new, old, unc, labels, head = self._setup()
        cfg = AlignmentConfig(lambda_align=0.0)
        got = ad.value(total_loss(new, labels, old, unc, head, cfg, MCFG))
        want = np.mean([ad.value(base_loss(h, y, head, MCFG))
                        for h, y in zip(new, labels)])
        # means are accumulated in the same index order, so bit equality holds
        assert got == want

    def test_linearity(self):
        new, old, unc, labels, head = self._setup(25)
        cfg = AlignmentConfig(lambda_align=0.3, lambda_entail=1.0)
        combined = ad.value(total_loss(new, labels, old, unc, head, cfg, MCFG))
        base = np.sum([ad.value(base_loss(h, y, head, MCFG))
                       for h, y in zip(new, labels)]) / len(new)
        entail = np.sum([ad.value(entailment_loss(hn, ho, cfg, MCFG))
                         for hn, ho in zip(new, old)]) / len(new)
        contrast = ad.value(contrastive_loss(new, old, unc, cfg, MCFG))
        assert combined == pytest.approx(base + 0.3 * (1.0 * entail + contrast), abs=1e-12)

    def test_default_hyperparameters(self):
        cfg = AlignmentConfig()
        assert cfg.lambda_align == 0.3
        assert cfg.tau == 0.5
        assert cfg.beta == 0.01
        assert MCFG.curvature_K == 1.0

    def test_label_mismatch(self):
        new, old, unc, labels, head = self._setup(26)
        with pytest.raises(InvalidArgumentError):
            total_loss(new, labels[:-1], old, unc, head, AlignmentConfig(), MCFG)


class TestConfigValidation:
    def test_bad_values(self):
        for kwargs in (dict(lambda_align=-0.1), dict(tau=0.0), dict(beta=0.0),
                       dict(beta=1.5), dict(epsilon_aperture=0.0),
                       dict(q_mode="nope"), dict(q_mode="fixed", q_fixed=0.0),
                       dict(contrast_kind="nope")):
            with pytest.raises(InvalidArgumentError):
                AlignmentConfig(**kwargs)


class TestLaneIsolation:
    """One batch whose rows take different branches: each row's loss terms and
    gradient equal that row computed alone, and every gradient is finite."""

    ZETA = 1.0
    EPS = AlignmentConfig(lambda_align=0.3).epsilon_aperture

    def _pipeline(self, z):
        return hexpm_origin(rescale_clip(z, self.ZETA, MCFG), MCFG)

    def _find_scale(self, w, sign, want):
        # a radial (sign +1) or antipodal (sign -1) new point whose exterior
        # angle lands exactly on the constant branch `want`
        for s in np.linspace(1.5, 3.0, 301):
            z = sign * s * math.sqrt(MCFG.dim_d) * w
            if exterior_angle(hexpm_origin(w, MCFG), self._pipeline(z),
                              AlignmentConfig(), MCFG) == want:
                return z
        raise AssertionError(f"no scale hits the constant branch {want}")

    def _batch(self):
        rng = np.random.default_rng(30)
        sqrt_d = math.sqrt(MCFG.dim_d)
        u = np.array([0.6, 0.0, 0.8])
        w = 0.3 * u
        z_same = np.array([0.4, -0.3, 0.5])
        old_z = np.array([
            [0.9, 0.5, -0.2],       # 0: aperture open
            [0.05, -0.06, 0.02],    # 1: aperture saturated
            w,                      # 2: exterior angle on the +1 branch
            w,                      # 3: exterior angle on the -1 branch
            [-0.7, 0.2, 0.6],       # 4: new point at the origin
            z_same / sqrt_d,        # 5: new point equals the old point
        ])
        new_z = np.array([
            5.0 * sqrt_d * np.array([0.3, 0.9, -0.3]),   # clip active
            [0.2, 0.4, -0.1],                            # clip inactive
            self._find_scale(w, 1.0, 0.0),
            self._find_scale(w, -1.0, math.pi),
            np.zeros(3),                                 # series branch
            z_same,
        ])
        old_t, old_s = hexpm_origin(old_z, MCFG)
        unc = rng.uniform(0.1, 0.9, size=len(old_z))
        labels = np.array([0, 1, 2, 1, 0, 2])
        head = rng.normal(size=(3, 3))
        head[1] = 0.0                                    # degenerate class row
        return new_z, (old_t, old_s), unc, labels, head

    def _terms(self, z_leaf, head_leaf, old, labels, cfg):
        new = self._pipeline(z_leaf)
        return (base_loss(new, labels, head_leaf, MCFG),
                entailment_loss(new, old, cfg, MCFG))

    def test_branches_hit(self):
        new_z, old, _, _, head = self._batch()
        cfg = AlignmentConfig()
        new = self._pipeline(new_z)
        norms = np.linalg.norm(new_z / math.sqrt(MCFG.dim_d), axis=1)
        assert norms[0] > self.ZETA and norms[1] < self.ZETA
        assert np.array_equal(ad.value(aperture(old, cfg, MCFG))[:2] == math.pi / 2.0,
                              [False, True])
        ext = exterior_angle(old, new, cfg, MCFG)
        assert ext[2] == 0.0 and ext[3] == math.pi
        assert np.all(new[1][4] == 0.0)
        assert mean_distortion_loss(((new[0][5:], new[1][5:])),
                                    (old[0][5:], old[1][5:]), cfg, MCFG) == 0.0
        assert mlr_logits(new, head, MCFG)[:, 1].tolist() == [0.0] * 6

    def test_rows_equal_rows_alone(self):
        new_z, old, unc, labels, head = self._batch()
        cfg = AlignmentConfig()
        tape = Tape()
        z_leaf, h_leaf = tape.var(new_z), tape.var(head)
        base, entail = self._terms(z_leaf, h_leaf, old, labels, cfg)
        for term in (base, entail):
            g_z, g_h = ad.grad(el.sum(term), [z_leaf, h_leaf])
            assert np.all(np.isfinite(g_z)) and np.all(np.isfinite(g_h))
            alone_h = np.zeros_like(head)
            for i in range(len(new_z)):
                t = Tape()
                zi, hi = t.var(new_z[i:i + 1]), t.var(head)
                row = self._terms(zi, hi, (old[0][i:i + 1], old[1][i:i + 1]),
                                  labels[i:i + 1], cfg)[0 if term is base else 1]
                gi_z, gi_h = ad.grad(el.sum(row), [zi, hi])
                assert row.val[0] == pytest.approx(term.val[i], rel=1e-12, abs=1e-15)
                assert np.allclose(gi_z[0], g_z[i], rtol=1e-12, atol=1e-15)
                alone_h += gi_h
            assert np.allclose(alone_h, g_h, rtol=1e-12, atol=1e-15)

    def test_total_loss_gradient_finite(self):
        new_z, old, unc, labels, head = self._batch()
        for kind in ("rince", "infonce", "mean_distortion"):
            cfg = AlignmentConfig(contrast_kind=kind)
            tape = Tape()
            z_leaf, h_leaf = tape.var(new_z), tape.var(head)
            loss = total_loss(self._pipeline(z_leaf), labels, old, unc, h_leaf, cfg, MCFG)
            for g in ad.grad(loss, [z_leaf, h_leaf]):
                assert np.all(np.isfinite(g))
