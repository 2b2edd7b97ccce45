"""Tape engine: primitive values, reverse-mode gradients vs finite differences,
linearity, determinism, and domain handling."""

import math

import numpy as np
import pytest

from hbct import autodiff as ad
from hbct.autodiff import Tape, Var
from hbct.errors import InvalidArgumentError, NumericalDomainError


def fd_grad(f, vals, h=1e-6):
    vals = np.asarray(vals, dtype=np.float64)
    g = np.zeros_like(vals)
    for i in range(len(vals)):
        up = vals.copy()
        dn = vals.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(list(up)) - f(list(dn))) / (2.0 * h)
    return g


def ad_grad(f, vals):
    tape = Tape()
    leaves = [tape.var(v) for v in vals]
    out = f(leaves)
    return np.array(ad.grad(out, leaves))


class TestPrimitives:
    def test_record_mul(self):
        tape = Tape()
        out = ad.mul(tape.var(3.0), tape.var(4.0))
        assert out.val == 12.0

    def test_record_acosh_boundary(self):
        tape = Tape()
        x = tape.var(1.0)
        out = ad.acosh(x)
        assert out.val == 0.0
        # partial taken at the clamped argument 1 + 1e-12
        g = ad.grad(out, [x])[0]
        assert g == pytest.approx(1.0 / math.sqrt((1.0 + 1e-12) ** 2 - 1.0))

    def test_record_tanh(self):
        tape = Tape()
        out = ad.tanh(tape.var(1.0))
        assert out.val == pytest.approx(0.7615941559557649, abs=1e-15)

    def test_float_fallback(self):
        # without a Var operand every op returns a plain float
        assert ad.add(2.0, 3.0) == 5.0
        assert ad.mul(2.0, 3.0) == 6.0
        assert ad.dot([1.0, 2.0], [3.0, 4.0]) == 11.0
        assert ad.norm([3.0, 4.0]) == 5.0
        assert isinstance(ad.exp(0.0), float)

    def test_operator_overloads(self):
        tape = Tape()
        x = tape.var(2.0)
        y = (x * 3.0 + 1.0 - x) / x - (-x)
        assert y.val == pytest.approx((2.0 * 3.0 + 1.0 - 2.0) / 2.0 + 2.0)

    def test_non_finite_primal_raises(self):
        tape = Tape()
        with pytest.raises(NumericalDomainError):
            ad.exp(tape.var(1000.0))


class TestGradients:
    def test_square(self):
        tape = Tape()
        x = tape.var(3.0)
        out = ad.mul(x, x)
        assert ad.grad(out, [x])[0] == 6.0

    @pytest.mark.parametrize("op,val", [
        ("exp", 0.3), ("log", 1.7), ("sqrt", 2.1), ("tanh", 0.4),
        ("cosh", 0.9), ("sinh", 0.9), ("acosh", 1.5), ("asin", 0.4),
        ("acos", 0.4), ("neg", 1.2), ("max0", 0.7),
    ])
    def test_unary_vs_fd(self, op, val):
        f = lambda v: getattr(ad, op)(v[0])
        assert ad_grad(f, [val])[0] == pytest.approx(fd_grad(f, [val])[0], rel=1e-6)

    def test_binary_vs_fd(self):
        def f(v):
            return ad.div(ad.add(ad.mul(v[0], v[1]), ad.sub(v[0], 2.0)), v[1])
        vals = [1.3, 0.8]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_powr_vs_fd(self):
        def f(v):
            return ad.powr(v[0], v[1])
        vals = [1.7, 0.35]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_asinh_vs_fd(self):
        f = lambda v: ad.asinh(v[0])
        for val in (-2.0, 0.3, 4.0):
            assert ad_grad(f, [val])[0] == pytest.approx(fd_grad(f, [val])[0], rel=1e-6)
        assert ad.asinh(0.5) == pytest.approx(math.asinh(0.5), abs=1e-15)

    def test_dot_fused_vs_fd(self):
        def f(v):
            return ad.dot(v[:3], v[3:])
        vals = [0.2, -1.1, 0.7, 1.5, 0.4, -0.3]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_dot_mixed_constant_side(self):
        consts = [2.0, -1.0, 0.5]

        def f(v):
            return ad.dot(v, consts)
        vals = [0.3, 0.9, -0.4]
        assert np.allclose(ad_grad(f, vals), consts)

    def test_dot_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            ad.dot([1.0], [1.0, 2.0])

    def test_norm_fused_vs_fd(self):
        f = lambda v: ad.norm(v)
        vals = [0.6, -0.8, 1.1]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_norm_subgradient_at_origin(self):
        tape = Tape()
        xs = [tape.var(0.0), tape.var(0.0)]
        out = ad.norm(xs)
        assert out.val == 0.0
        assert ad.grad(out, xs) == [0.0, 0.0]

    def test_max0_subgradient_at_zero(self):
        tape = Tape()
        x = tape.var(0.0)
        assert ad.grad(ad.max0(x), [x])[0] == 0.0

    def test_radial_distance_gradient(self):
        # d(origin, expm(z)) = ||z|| for K = 1, so grad is z / ||z||
        from hbct.losses import hdist, hexpm_origin
        from hbct.manifold import ManifoldConfig
        mcfg = ManifoldConfig(1.0, 3)
        origin = (1.0, [0.0, 0.0, 0.0])

        def f(v):
            return hdist(hexpm_origin(v, mcfg), origin, mcfg)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=3)
            z *= rng.uniform(0.3, 3.0) / np.linalg.norm(z)
            g = ad_grad(f, list(z))
            assert np.allclose(g, z / np.linalg.norm(z), atol=1e-8)
            assert np.allclose(g, fd_grad(f, list(z)), rtol=1e-5)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        vals = list(rng.normal(size=4))
        a, b = 2.5, -0.7

        def l1(v):
            return ad.dot(v[:2], v[2:])

        def l2(v):
            return ad.norm(v)

        def combo(v):
            return ad.add(ad.mul(l1(v), a), ad.mul(l2(v), b))
        g = ad_grad(combo, vals)
        expected = a * ad_grad(l1, vals) + b * ad_grad(l2, vals)
        assert np.max(np.abs(g - expected)) <= 1e-10

    def test_determinism(self):
        rng = np.random.default_rng(2)
        vals = list(rng.normal(size=5))

        def f(v):
            return ad.exp(ad.mul(ad.norm(v[:3]), ad.dot(v[2:], v[:3])))
        g1 = ad_grad(f, vals)
        g2 = ad_grad(f, vals)
        assert np.array_equal(g1, g2)

    def test_backward_rejects_foreign_var(self):
        t1, t2 = Tape(), Tape()
        x = t1.var(1.0)
        with pytest.raises(InvalidArgumentError):
            ad.backward(t2, x)


class TestDomainPolicy:
    def test_acosh_below_domain(self):
        tape = Tape()
        with pytest.raises(NumericalDomainError):
            ad.acosh(tape.var(0.9))

    def test_acosh_round_off_clamped(self):
        tape = Tape()
        out = ad.acosh(tape.var(1.0 - 1e-9))
        assert out.val == 0.0

    def test_asin_acos_outside_domain(self):
        tape = Tape()
        with pytest.raises(NumericalDomainError):
            ad.asin(tape.var(1.1))
        with pytest.raises(NumericalDomainError):
            ad.acos(tape.var(-1.1))

    def test_asin_round_off_clamped(self):
        tape = Tape()
        assert ad.asin(tape.var(1.0 + 1e-9)).val == pytest.approx(math.pi / 2.0)
