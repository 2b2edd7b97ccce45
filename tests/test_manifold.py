"""Lorentz-model geometry: arithmetic oracles, inverse maps, metric axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbct.errors import InvalidArgumentError, NumericalDomainError
from hbct.manifold import (LorentzPoint, ManifoldConfig, expm_origin,
                           geodesic_distance, hinner, logm_origin,
                           on_manifold_defect, rescale_clip, uncertainty)

K_GRID = (0.1, 0.5, 1.0, 1.5)


def random_point(rng, cfg, max_norm=5.0):
    z = rng.normal(size=cfg.dim_d)
    n = np.linalg.norm(z)
    if n > 0:
        z = z * (rng.uniform(0.05, max_norm) / n)
    return expm_origin(z, cfg)


class TestLorentzInner:
    def test_origin_self_inner(self):
        cfg = ManifoldConfig(1.0, 3)
        o = cfg.origin
        assert hinner(o, o) == pytest.approx(-1.0, abs=1e-15)

    def test_direct_arithmetic(self):
        # [1, 0] . [sqrt(2), 1] = 0*1 - 1*sqrt(2)
        x = LorentzPoint(1.0, [0.0])
        y = LorentzPoint(math.sqrt(2.0), [1.0])
        assert hinner(x, y) == pytest.approx(-math.sqrt(2.0), abs=1e-15)

    def test_space_dot_minus_time_product(self):
        # <a, b> = 5, times 2 and 3 -> 5 - 6 = -1
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0])
        assert float(a @ b) == 5.0
        x = LorentzPoint(2.0, a)
        y = LorentzPoint(3.0, b)
        assert hinner(x, y) == pytest.approx(-1.0, abs=1e-15)


class TestGeodesicDistance:
    def test_identity(self):
        rng = np.random.default_rng(1)
        cfg = ManifoldConfig(1.0, 3)
        for _ in range(20):
            p = random_point(rng, cfg)
            assert geodesic_distance(p, p, cfg) == 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_radial_arclength(self, t):
        cfg = ManifoldConfig(1.0, 2)
        y = LorentzPoint(math.cosh(t), [math.sinh(t), 0.0])
        assert geodesic_distance(cfg.origin, y, cfg) == pytest.approx(t, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for K in K_GRID:
            cfg = ManifoldConfig(K, 4)
            for _ in range(50):
                x, y, z = (random_point(rng, cfg) for _ in range(3))
                assert abs(geodesic_distance(x, y, cfg)
                           - geodesic_distance(y, x, cfg)) <= 1e-12
                assert (geodesic_distance(x, z, cfg)
                        <= geodesic_distance(x, y, cfg)
                        + geodesic_distance(y, z, cfg) + 1e-9)

    def test_off_manifold_raises(self):
        cfg = ManifoldConfig(1.0, 2)
        bad = LorentzPoint(0.5, np.zeros(2))  # not on the hyperboloid
        with pytest.raises(NumericalDomainError):
            geodesic_distance(cfg.origin, bad, cfg)


class TestExpmLogm:
    def test_zero_tangent(self):
        cfg = ManifoldConfig(1.0, 3)
        p = expm_origin(np.zeros(3), cfg)
        assert p == cfg.origin

    def test_unit_norm_values(self):
        cfg = ManifoldConfig(1.0, 2)
        z = np.array([1.0, 0.0])
        p = expm_origin(z, cfg)
        assert p.time == pytest.approx(math.cosh(1.0), abs=1e-12)
        assert p.space[0] == pytest.approx(math.sinh(1.0), abs=1e-12)
        assert on_manifold_defect(p, cfg) <= 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for K in K_GRID:
            cfg = ManifoldConfig(K, 6)
            for _ in range(100):
                z = rng.normal(size=6)
                n = np.linalg.norm(z)
                if n > 0:
                    z *= rng.uniform(0.0, 5.0) / n
                back = logm_origin(expm_origin(z, cfg), cfg)
                assert back.time == 0.0
                assert np.max(np.abs(back.space - z)) <= 1e-9

    def test_logm_norm_equals_distance(self):
        rng = np.random.default_rng(4)
        cfg = ManifoldConfig(0.5, 3)
        for _ in range(50):
            p = random_point(rng, cfg)
            v = logm_origin(p, cfg)
            # tangent vectors at the origin have Lorentz norm = Euclidean norm
            assert (np.linalg.norm(v.space)
                    == pytest.approx(geodesic_distance(cfg.origin, p, cfg), abs=1e-9))

    def test_logm_domain_error(self):
        cfg = ManifoldConfig(1.0, 2)
        with pytest.raises(NumericalDomainError):
            logm_origin(LorentzPoint(0.5, np.zeros(2)), cfg)

    def test_expm_on_manifold(self):
        rng = np.random.default_rng(5)
        for K in K_GRID:
            cfg = ManifoldConfig(K, 4)
            for _ in range(50):
                p = expm_origin(rng.normal(size=4), cfg)
                assert on_manifold_defect(p, cfg) <= 1e-9


class TestRescaleClip:
    def test_zero(self):
        cfg = ManifoldConfig(1.0, 3)
        assert np.all(rescale_clip(np.zeros(3), 1.0, cfg) == 0.0)

    def test_rescale_only(self):
        cfg = ManifoldConfig(1.0, 4)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        out = rescale_clip(z, 1.0, cfg)
        assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-15)

    def test_clip_active(self):
        cfg = ManifoldConfig(1.0, 1)
        out = rescale_clip(np.array([10.0]), 1.0, cfg)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_bad_zeta(self):
        cfg = ManifoldConfig(1.0, 1)
        with pytest.raises(InvalidArgumentError):
            rescale_clip(np.array([1.0]), 0.0, cfg)


class TestUncertainty:
    def test_origin(self):
        cfg = ManifoldConfig(1.0, 3)
        assert uncertainty(cfg.origin, cfg) == 1.0

    def test_unit_norm(self):
        cfg = ManifoldConfig(1.0, 2)
        p = expm_origin(np.array([1.0, 0.0]), cfg)
        assert uncertainty(p, cfg) == pytest.approx(1.0 - math.tanh(1.0), abs=1e-12)

    def test_saturation(self):
        cfg = ManifoldConfig(1.0, 2)
        p = expm_origin(np.array([30.0, 0.0]), cfg)
        assert uncertainty(p, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_tanh_form_other_curvature(self):
        cfg = ManifoldConfig(0.5, 2)
        for r in (0.3, 1.0, 2.5):
            p = expm_origin(np.array([r, 0.0]), cfg)
            expected = 1.0 - math.tanh(math.sqrt(0.5) * r) / math.sqrt(0.5)
            assert uncertainty(p, cfg) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing(self):
        cfg = ManifoldConfig(1.0, 2)
        values = [uncertainty(expm_origin(np.array([r, 0.0]), cfg), cfg)
                  for r in np.linspace(0.0, 4.0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.sampled_from(K_GRID))
def test_property_round_trip_and_closure(zs, K):
    cfg = ManifoldConfig(K, 3)
    z = np.array(zs)
    p = expm_origin(z, cfg)
    assert on_manifold_defect(p, cfg) <= 1e-9
    back = logm_origin(p, cfg)
    assert np.max(np.abs(back.space - z)) <= 1e-9
