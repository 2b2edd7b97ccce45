"""Lorentz-model geometry for hyperbolic space of curvature -K.

Points live on the upper sheet of the hyperboloid
    {x in R^(d+1) : <x, x>_L = -1/K, x_time > 0},
where the Lorentzian inner product is <x, y>_L = <x_space, y_space> - x_time * y_time.
All operations work in float64 and keep results on-manifold to ~1e-9.

The formulas are written once over batches of points held as a pair
``(times, spaces)``: ``times`` has the batch shape and ``spaces`` one more
trailing axis of length d, so a single point is the empty batch shape.  They
are built from :mod:`hbct.autodiff` operations, so training differentiates
the same code that embedding and evaluation run on plain arrays.  The
per-point API (``expm_origin``, ``geodesic_distance``, ``uncertainty``, ...)
validates its inputs and calls the batched forms.

Exponential/logarithmic maps are provided only at the hyperbolic origin
[sqrt(1/K), 0, ..., 0]; that is the only base point the rest of the package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError

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
        if not 0.0 < self.curvature_K < math.inf:
            raise InvalidArgumentError(
                f"curvature_K must be finite and > 0, got {self.curvature_K}")
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
    """A tangent vector [time, space] at the origin, as logm_origin returns it."""

    time: float
    space: np.ndarray


def points(x):
    """(times, spaces) of a batch: a LorentzPoint, a (time, space) pair whose
    entries may be Vars, or a sequence of plain points (stacked)."""
    if isinstance(x, LorentzPoint):
        return np.float64(x.time), x.space
    if isinstance(x, tuple):
        time, space = x
        return ad.array(time), ad.array(space)
    pairs = [points(p) for p in x]
    return (np.array([t for t, _ in pairs], dtype=np.float64),
            np.array([s for _, s in pairs], dtype=np.float64))


def hinner(x, y):
    """Lorentzian inner product <x, y>_L, broadcast over the batch."""
    xt, xs = points(x)
    yt, ys = points(y)
    return ad.sum(xs * ys, -1) - xt * yt


def hdist(x, y, mcfg: ManifoldConfig):
    """Geodesic distance d(x, y) = (1/sqrt(K)) * acosh(-K * <x, y>_L)."""
    K = mcfg.curvature_K
    return ad.acosh(hinner(x, y) * -K) / math.sqrt(K)


def hexpm_origin(z, mcfg: ManifoldConfig):
    """Exponential map at the origin of tangent vectors [0, z] (rows of z).

    expm_0(v) = cosh(sqrt(K)||z||) * 0bar + sinh(sqrt(K)||z||)/(sqrt(K)||z||) * [0, z];
    the sinh(a)/a coefficient is the constant 1 for a < SERIES_EPS.
    Returns (times, spaces).
    """
    sqrt_K = math.sqrt(mcfg.curvature_K)
    z = ad.array(z)
    a = sqrt_K * ad.norm(z)
    series = ad.value(a) < SERIES_EPS
    safe = ad.where(series, 1.0, a)
    coeff = ad.where(series, 1.0, ad.sinh(safe) / safe)
    return ad.cosh(a) / sqrt_K, coeff[..., None] * z


def rescale_clip(z, zeta: float, cfg: ManifoldConfig):
    """Rescale embeddings (rows of z) by 1/sqrt(d), then clip each norm at zeta."""
    if not (zeta > 0):
        raise InvalidArgumentError(f"zeta must be > 0, got {zeta}")
    z = ad.array(z) / math.sqrt(cfg.dim_d)
    n = ad.norm(z, keepdims=True)
    over = ad.value(n) > zeta
    return z * ad.where(over, zeta / ad.where(over, n, 1.0), 1.0)


def uncertainty(x, cfg: ManifoldConfig):
    """Hyperbolic uncertainty 1 - (1/sqrt(K)) * ||x_space|| / x_time.

    For a point lifted from z this equals 1 - (1/sqrt(K)) * tanh(sqrt(K)||z||),
    strictly decreasing in ||z||.  Bounded in [0, 1] only for K = 1; for other
    curvatures large-norm embeddings can push the value negative.
    """
    times, spaces = points(x)
    return 1.0 - ad.norm(spaces) / (math.sqrt(cfg.curvature_K) * times)


def geodesic_distance(x: LorentzPoint, y: LorentzPoint, cfg: ManifoldConfig) -> float:
    """d(x, y) between two points; raises NumericalDomainError off the manifold."""
    return float(hdist(x, y, cfg))


def expm_origin(z, cfg: ManifoldConfig) -> LorentzPoint:
    """Exponential map at the origin of one tangent vector [0, z]."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cfg.dim_d,):
        raise InvalidArgumentError(f"z must have shape ({cfg.dim_d},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("z has non-finite entries")
    time, space = hexpm_origin(z, cfg)
    return LorentzPoint(float(time), space)


def logm_origin(x: LorentzPoint, cfg: ManifoldConfig) -> TangentVector:
    """Logarithmic map at the origin; inverse of expm_origin.

    Returns the tangent vector [0, z] with expm_origin(z) == x.
    """
    sqrt_K = math.sqrt(cfg.curvature_K)
    a = float(ad.acosh(sqrt_K * x.time))  # sqrt(K) * x_time equals -K * <0bar, x>_L
    # proj_0bar(x) = [0, x_space]; coefficient a / sinh(a) with series limit 1.
    coeff = 1.0 if a < SERIES_EPS else a / math.sinh(a)
    return TangentVector(0.0, coeff * x.space)


def on_manifold_defect(x: LorentzPoint, cfg: ManifoldConfig) -> float:
    """|<x, x>_L + 1/K|, zero for points exactly on the hyperboloid."""
    return abs(float(hinner(x, x)) + 1.0 / cfg.curvature_K)
