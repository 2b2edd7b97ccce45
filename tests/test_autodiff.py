"""Array tape engine: primitive values, reverse-mode gradients vs finite
differences elementwise, broadcasting and indexing adjoints, linearity,
determinism, and domain handling."""

import math

import numpy as np
import pytest

from hbct import autodiff as ad
from hbct.autodiff import Tape, Var
from hbct.errors import InvalidArgumentError, NumericalDomainError


def fd_grad(f, vals, h=1e-6):
    """Central differences of the scalar f at every entry of vals."""
    vals = np.asarray(vals, dtype=np.float64)
    g = np.zeros_like(vals)
    for i in np.ndindex(vals.shape):
        up = vals.copy()
        dn = vals.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def ad_grad(f, vals):
    tape = Tape()
    leaf = tape.var(vals)
    return ad.grad(f(leaf), [leaf])[0]


class TestPrimitives:
    def test_record_mul(self):
        tape = Tape()
        out = ad.mul(tape.var([3.0, 2.0]), tape.var(4.0))
        assert isinstance(out, Var)
        assert np.array_equal(out.val, [12.0, 8.0])

    def test_record_acosh_boundary(self):
        tape = Tape()
        x = tape.var([1.0, 1.0 + 5e-10, 2.0])
        out = ad.acosh(x)
        assert np.array_equal(out.val[:2], [0.0, 0.0])
        assert out.val[2] == pytest.approx(math.acosh(2.0), abs=1e-15)
        # partials taken at the argument clamped to >= 1 + 1e-12, per lane
        g = ad.grad(ad.sum(out), [x])[0]
        assert g[0] == pytest.approx(1.0 / math.sqrt((1.0 + 1e-12) ** 2 - 1.0))
        assert g[1] == pytest.approx(1.0 / math.sqrt((1.0 + 5e-10) ** 2 - 1.0))
        assert g[2] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_record_tanh(self):
        tape = Tape()
        out = ad.tanh(tape.var([1.0, -1.0]))
        assert np.allclose(out.val, [0.7615941559557649, -0.7615941559557649],
                           rtol=0, atol=1e-15)

    def test_float_fallback(self):
        # without a Var operand every op returns a plain numpy value
        assert ad.add(2.0, 3.0) == 5.0
        assert ad.mul(2.0, 3.0) == 6.0
        assert ad.matmul([1.0, 2.0], [3.0, 4.0]) == 11.0
        assert ad.norm([3.0, 4.0]) == 5.0
        out = ad.exp(np.zeros((2, 3)))
        assert not isinstance(out, Var)
        assert np.array_equal(out, np.ones((2, 3)))

    def test_operator_overloads(self):
        tape = Tape()
        x = tape.var([2.0, 4.0])
        y = (x * 3.0 + 1.0 - x) / x - (-x)
        assert np.allclose(y.val, (np.array([2.0, 4.0]) * 2.0 + 1.0) / [2.0, 4.0]
                           + [2.0, 4.0])
        # a numpy left operand defers to the Var instead of broadcasting over it
        z = np.array([1.0, 2.0]) * x + np.ones(2) @ x.reshape(2, 1)
        assert isinstance(z, Var)
        assert np.array_equal(z.val, [8.0, 14.0])
        assert np.array_equal(ad.powr(x, 2.0).val, [4.0, 16.0])

    def test_non_finite_primal_raises(self):
        tape = Tape()
        with pytest.raises(NumericalDomainError), \
                pytest.warns(RuntimeWarning, match="overflow"):
            ad.exp(tape.var([0.0, 1000.0]))


class TestGradients:
    def test_square(self):
        tape = Tape()
        x = tape.var([3.0, -1.5])
        out = ad.sum(ad.mul(x, x))
        assert np.array_equal(ad.grad(out, [x])[0], [6.0, -3.0])
        # leaves that share one adjoint still get separate gradient arrays
        y = tape.var([1.0, 2.0])
        gx, gy = ad.grad(ad.sum(x + y), [x, y])
        gx *= 2.0
        assert np.array_equal(gy, [1.0, 1.0])

    @pytest.mark.parametrize("op,val", [
        ("exp", 0.3), ("log", 1.7), ("sqrt", 2.1), ("tanh", 0.4),
        ("cosh", 0.9), ("sinh", 0.9), ("acosh", 1.5), ("asin", 0.4),
        ("acos", 0.4), ("neg", 1.2), ("max0", 0.7),
    ])
    def test_unary_vs_fd(self, op, val):
        vals = val * np.array([[1.0, 0.9], [1.1, 0.95]])
        f = lambda v: ad.sum(getattr(ad, op)(v))
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6, atol=0)

    def test_binary_vs_fd(self):
        def f(v):
            return ad.sum(ad.div(ad.add(ad.mul(v[0], v[1]), ad.sub(v[0], 2.0)), v[1]))
        vals = [[1.3, -0.4, 2.0], [0.8, 1.7, -0.6]]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_powr_vs_fd(self):
        exponent = np.array([0.35, 1.0, 2.5])
        f = lambda v: ad.sum(ad.powr(v, exponent))
        vals = [1.7, 0.6, 1.2]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)
        tape = Tape()
        with pytest.raises(InvalidArgumentError):
            ad.powr(tape.var(2.0), tape.var(0.5))

    def test_asinh_vs_fd(self):
        f = lambda v: ad.sum(ad.asinh(v))
        vals = [-2.0, 0.3, 4.0]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)
        assert ad.asinh(0.5) == pytest.approx(math.asinh(0.5), abs=1e-15)

    def test_dot_fused_vs_fd(self):
        def f(v):
            return ad.matmul(v[:3], v[3:])
        vals = [0.2, -1.1, 0.7, 1.5, 0.4, -0.3]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_dot_mixed_constant_side(self):
        consts = np.array([2.0, -1.0, 0.5])
        g = ad_grad(lambda v: ad.matmul(v, consts), [0.3, 0.9, -0.4])
        assert np.array_equal(g, consts)
        g = ad_grad(lambda v: consts @ v, [0.3, 0.9, -0.4])
        assert np.array_equal(g, consts)

    def test_norm_fused_vs_fd(self):
        f = lambda v: ad.sum(ad.norm(v) * np.array([1.0, -2.0]))
        vals = [[0.6, -0.8, 1.1], [0.2, 0.3, -0.5]]
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)
        f = lambda v: ad.sum(ad.norm(v, keepdims=True) * v)
        assert np.allclose(ad_grad(f, vals), fd_grad(f, vals), rtol=1e-6)

    def test_norm_subgradient_at_origin(self):
        tape = Tape()
        xs = tape.var([[0.0, 0.0], [3.0, 4.0]])
        out = ad.norm(xs)
        assert np.array_equal(out.val, [0.0, 5.0])
        assert np.array_equal(ad.grad(ad.sum(out), [xs])[0], [[0.0, 0.0], [0.6, 0.8]])

    def test_max0_subgradient_at_zero(self):
        tape = Tape()
        x = tape.var([0.0, -1.0, 2.0])
        assert np.array_equal(ad.grad(ad.sum(ad.max0(x)), [x])[0], [0.0, 0.0, 1.0])

    def test_radial_distance_gradient(self):
        # d(origin, expm(z)) = ||z|| for K = 1, so each row's gradient is z / ||z||
        from hbct.losses import hdist, hexpm_origin
        from hbct.manifold import ManifoldConfig
        mcfg = ManifoldConfig(1.0, 3)
        origin = (1.0, np.zeros(3))
        rng = np.random.default_rng(0)
        z = rng.normal(size=(10, 3))
        z *= rng.uniform(0.3, 3.0, size=(10, 1)) / np.linalg.norm(z, axis=1, keepdims=True)

        def f(v):
            return ad.sum(hdist(hexpm_origin(v, mcfg), origin, mcfg))
        g = ad_grad(f, z)
        assert np.allclose(g, z / np.linalg.norm(z, axis=1, keepdims=True), atol=1e-8)
        assert np.allclose(g, fd_grad(f, z), rtol=1e-5)

    def test_broadcast_gradients_in_leaf_shape(self):
        rng = np.random.default_rng(3)
        shapes = [(), (3,), (2, 1), (2, 3)]
        vals = [rng.normal(size=s) for s in shapes]

        def f(a, b, c, d):
            return ad.sum(ad.exp(a * b + c) * d - b / (c * c + 1.0))
        tape = Tape()
        leaves = [tape.var(v) for v in vals]
        grads = ad.grad(f(*leaves), leaves)
        for k, (v, g) in enumerate(zip(vals, grads)):
            assert np.shape(g) == np.shape(v) and g.flags.writeable
            fd = fd_grad(lambda x: f(*vals[:k], x, *vals[k + 1:]), v)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_matmul_vjp(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 3))
        W = rng.normal(size=(2, 3))
        w = rng.normal(size=3)
        weights = rng.normal(size=(4, 2))
        cases = [
            (A, lambda v: ad.sum((v @ W.T) * weights)),        # 2-D x 2-D
            (W, lambda v: ad.sum((A @ v.T) * weights)),        # through a transpose
            (w, lambda v: ad.sum((v @ W.T) * weights[0])),     # 1-D x 2-D
            (A, lambda v: ad.sum((v @ w) * weights[:, 0])),    # 2-D x 1-D
            (w, lambda v: ad.sum((A @ v) * weights[:, 0])),    # constant left side
        ]
        for x, f in cases:
            g = ad_grad(f, x)
            assert np.shape(g) == np.shape(x)
            assert np.allclose(g, fd_grad(f, x), rtol=1e-6, atol=1e-9)

    def test_slicing_and_indexing_vjp(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 3))
        cases = [
            lambda v: ad.sum(v[1:, ::2] * 2.0),
            lambda v: ad.sum(ad.exp(v[:, None, :] - v[None, :, :])),
            lambda v: ad.sum(v[np.arange(3), np.array([0, 2, 2])] * weights[0]),
            # a repeated index accumulates
            lambda v: ad.sum(ad.powr(v[np.array([0, 0, 2])], 2.0)),
            lambda v: ad.sum(v.reshape(4, 3) @ weights),
        ]
        for f in cases:
            g = ad_grad(f, x)
            assert np.allclose(g, fd_grad(f, x), rtol=1e-6, atol=1e-9)

    def test_double_where_masks_lane(self):
        # the masked lane would raise in asin and leak an infinite partial
        # if it reached the primitive unsanitised
        tape = Tape()
        x = tape.var([0.3, 5.0])
        inside = np.abs(x.val) < 1.0
        out = ad.where(inside, ad.asin(ad.where(inside, x, 0.0)), math.pi / 2.0)
        assert out.val[1] == math.pi / 2.0
        g = ad.grad(ad.sum(out), [x])[0]
        assert np.all(np.isfinite(g))
        assert g[1] == 0.0
        assert g[0] == pytest.approx(1.0 / math.sqrt(1.0 - 0.09))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=4)
        a, b = 2.5, -0.7

        def l1(v):
            return ad.matmul(v[:2], v[2:])

        def l2(v):
            return ad.norm(v)

        def combo(v):
            return ad.add(ad.mul(l1(v), a), ad.mul(l2(v), b))
        g = ad_grad(combo, vals)
        expected = a * ad_grad(l1, vals) + b * ad_grad(l2, vals)
        assert np.max(np.abs(g - expected)) <= 1e-10

    def test_determinism(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=5)

        def f(v):
            return ad.exp(ad.mul(ad.norm(v[:3]), ad.matmul(v[2:], v[:3])))
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
            ad.acosh(tape.var([1.5, 0.9]))

    def test_acosh_round_off_clamped(self):
        tape = Tape()
        out = ad.acosh(tape.var([1.0 - 1e-9, 1.0 + 1e-10]))
        assert np.array_equal(out.val, [0.0, 0.0])

    def test_asin_acos_outside_domain(self):
        tape = Tape()
        with pytest.raises(NumericalDomainError):
            ad.asin(tape.var([0.2, 1.1]))
        with pytest.raises(NumericalDomainError):
            ad.acos(tape.var([-1.1, 0.0]))

    def test_asin_round_off_clamped(self):
        tape = Tape()
        x = tape.var([1.0 + 1e-9, -1.0 - 1e-9])
        out = ad.asin(x)
        assert np.allclose(out.val, [math.pi / 2.0, -math.pi / 2.0])
        assert np.allclose(ad.acos(x).val, [0.0, math.pi])
        # partials are taken 1e-12 inside the domain, so they stay finite
        g = ad.grad(ad.sum(out), [x])[0]
        assert np.all(np.isfinite(g))
        assert g[0] == pytest.approx(1.0 / math.sqrt(1.0 - (1.0 - 1e-12) ** 2))
