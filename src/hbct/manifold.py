"""Lorentz-model primitives for hyperbolic space of curvature -K.

Points live on the upper sheet of the hyperboloid
    {x in R^(d+1) : <x, x>_L = -1/K, x_time > 0},
where the Lorentzian inner product is <x, y>_L = <x_space, y_space> - x_time * y_time.
All operations work in float64 and keep results on-manifold to ~1e-9.

Exponential/logarithmic maps are provided only at the hyperbolic origin
[sqrt(1/K), 0, ..., 0]; that is the only base point the rest of the package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError

# Domain policy for acosh/asin/acos: arguments are clamped into the closed
# valid domain with CLAMP_SLACK; violations beyond DOMAIN_TOL raise.
CLAMP_SLACK = 1e-12
DOMAIN_TOL = 1e-6
# acosh arguments this close above 1 are treated as exactly 1: the Lorentz
# inner product of a point with itself lands at -1/K only up to round-off, and
# acosh amplifies that noise to sqrt(2 * eps), so d(x, x) would not vanish.
ACOSH_SNAP = 1e-9
# sinh(a)/a and a/sinh(a) switch to their series limit 1 below this argument.
SERIES_EPS = 1e-8
# vectors shorter than this count as zero (degenerate MLR hyperplanes).
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class ManifoldConfig:
    """Curvature magnitude K (> 0) and spatial dimension d (>= 1)."""

    curvature_K: float = 1.0
    dim_d: int = 2

    def __post_init__(self):
        if not (self.curvature_K > 0):
            raise InvalidArgumentError(f"curvature_K must be > 0, got {self.curvature_K}")
        if self.dim_d < 1:
            raise InvalidArgumentError(f"dim_d must be >= 1, got {self.dim_d}")

    @property
    def origin(self) -> "LorentzPoint":
        return LorentzPoint(math.sqrt(1.0 / self.curvature_K), np.zeros(self.dim_d))


@dataclass(frozen=True)
class LorentzPoint:
    """A point [time, space] on the hyperboloid."""

    time: float
    space: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "space", np.asarray(self.space, dtype=np.float64))

    @property
    def ambient(self) -> np.ndarray:
        return np.concatenate(([self.time], self.space))

    def __eq__(self, other):
        if not isinstance(other, LorentzPoint):
            return NotImplemented
        return self.time == other.time and np.array_equal(self.space, other.space)


@dataclass(frozen=True)
class TangentVector:
    """A vector orthogonal (in the Lorentzian sense) to its base point."""

    time: float
    space: np.ndarray
    base: LorentzPoint

    def __post_init__(self):
        object.__setattr__(self, "space", np.asarray(self.space, dtype=np.float64))

    @property
    def ambient(self) -> np.ndarray:
        return np.concatenate(([self.time], self.space))


def _as_ambient(x) -> np.ndarray:
    if isinstance(x, LorentzPoint):
        return x.ambient
    if isinstance(x, TangentVector):
        return x.ambient
    return np.asarray(x, dtype=np.float64)


def lorentz_inner(x, y) -> float:
    """<x, y>_L = <x_space, y_space> - x_time * y_time."""
    xa, ya = _as_ambient(x), _as_ambient(y)
    if xa.shape != ya.shape:
        raise InvalidArgumentError(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    return float(np.dot(xa[1:], ya[1:]) - xa[0] * ya[0])


def lift(space, cfg: ManifoldConfig) -> LorentzPoint:
    """Complete spatial coordinates to a hyperboloid point.

    time = sqrt(1/K + ||space||^2), the closed form every on-manifold point obeys.
    """
    space = np.asarray(space, dtype=np.float64)
    if space.shape != (cfg.dim_d,):
        raise InvalidArgumentError(f"space must have shape ({cfg.dim_d},), got {space.shape}")
    if not np.all(np.isfinite(space)):
        raise InvalidArgumentError("space has non-finite entries")
    time = math.sqrt(1.0 / cfg.curvature_K + float(np.dot(space, space)))
    return LorentzPoint(time, space)


def _acosh_clamped(arg: float) -> float:
    if arg < 1.0 - DOMAIN_TOL:
        raise NumericalDomainError(f"acosh argument {arg} below 1 by more than {DOMAIN_TOL}")
    if arg < 1.0 + ACOSH_SNAP:
        return 0.0
    return math.acosh(arg)


def geodesic_distance(x: LorentzPoint, y: LorentzPoint, cfg: ManifoldConfig) -> float:
    """d(x, y) = (1/sqrt(K)) * acosh(-K * <x, y>_L)."""
    K = cfg.curvature_K
    arg = -K * lorentz_inner(x, y)
    return _acosh_clamped(arg) / math.sqrt(K)


def expm_origin(z, cfg: ManifoldConfig) -> LorentzPoint:
    """Exponential map at the origin of the tangent vector [0, z].

    expm_0(v) = cosh(sqrt(K)||z||) * 0bar + sinh(sqrt(K)||z||)/(sqrt(K)||z||) * [0, z].
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cfg.dim_d,):
        raise InvalidArgumentError(f"z must have shape ({cfg.dim_d},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("z has non-finite entries")
    times, spaces = expm_origin_rows(z[None], cfg)
    return LorentzPoint(float(times[0]), spaces[0])


def expm_origin_rows(Z: np.ndarray, cfg: ManifoldConfig):
    """expm_origin over the rows of an (N, d) array; returns (times, spaces).

    The sinh(a)/a coefficient switches to its series limit 1 for a < SERIES_EPS.
    """
    sqrt_K = math.sqrt(cfg.curvature_K)
    a = sqrt_K * np.linalg.norm(Z, axis=1)
    times = np.cosh(a) / sqrt_K
    coeff = np.where(a < SERIES_EPS, 1.0, np.sinh(a) / np.where(a == 0, 1.0, a))
    return times, coeff[:, None] * Z


def logm_origin(x: LorentzPoint, cfg: ManifoldConfig) -> TangentVector:
    """Logarithmic map at the origin; inverse of expm_origin.

    Returns the tangent vector [0, z] with expm_origin(z) == x.
    """
    K = cfg.curvature_K
    sqrt_K = math.sqrt(K)
    arg = sqrt_K * x.time  # equals -K * <0bar, x>_L
    a = _acosh_clamped(arg)
    # proj_0bar(x) = [0, x_space]; coefficient a / sinh(a) with series limit 1.
    coeff = 1.0 if a < SERIES_EPS else a / math.sinh(a)
    return TangentVector(0.0, coeff * x.space, cfg.origin)


def project_tangent(p: LorentzPoint, u, cfg: ManifoldConfig) -> TangentVector:
    """Project an ambient vector onto the tangent space at p.

    proj_p(u) = u + K * p * <p, u>_L, which satisfies <p, proj_p(u)>_L = 0.
    """
    ua = _as_ambient(u)
    if ua.shape != (cfg.dim_d + 1,):
        raise InvalidArgumentError(f"u must have shape ({cfg.dim_d + 1},), got {ua.shape}")
    out = ua + cfg.curvature_K * p.ambient * lorentz_inner(p, ua)
    return TangentVector(float(out[0]), out[1:], p)


def rescale_clip(z, zeta: float, cfg: ManifoldConfig) -> np.ndarray:
    """Rescale an embedding by 1/sqrt(d), then clip its norm at zeta."""
    return rescale_clip_rows(np.asarray(z, dtype=np.float64)[None], zeta, cfg)[0]


def rescale_clip_rows(Z: np.ndarray, zeta: float, cfg: ManifoldConfig) -> np.ndarray:
    """rescale_clip over the rows of an (N, d) array; returns a new array."""
    if not (zeta > 0):
        raise InvalidArgumentError(f"zeta must be > 0, got {zeta}")
    Z = np.asarray(Z, dtype=np.float64) / math.sqrt(cfg.dim_d)
    norms = np.linalg.norm(Z, axis=1)
    over = norms > zeta
    Z[over] *= (zeta / norms[over])[:, None]
    return Z


def uncertainty(x: LorentzPoint, cfg: ManifoldConfig) -> float:
    """Hyperbolic uncertainty 1 - (1/sqrt(K)) * ||x_space|| / x_time.

    For a point lifted from z this equals 1 - (1/sqrt(K)) * tanh(sqrt(K)||z||),
    strictly decreasing in ||z||.  Bounded in [0, 1] only for K = 1; for other
    curvatures large-norm embeddings can push the value negative.
    """
    return float(uncertainty_rows(np.array([x.time]), x.space[None], cfg)[0])


def uncertainty_rows(times: np.ndarray, spaces: np.ndarray, cfg: ManifoldConfig):
    """uncertainty for each row of (times (N,), spaces (N, d))."""
    return 1.0 - np.linalg.norm(spaces, axis=1) / (math.sqrt(cfg.curvature_K) * times)


def on_manifold_defect(x: LorentzPoint, cfg: ManifoldConfig) -> float:
    """|<x, x>_L + 1/K|, zero for points exactly on the hyperboloid."""
    return abs(lorentz_inner(x, x) + 1.0 / cfg.curvature_K)
