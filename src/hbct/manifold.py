"""Lorentz-model geometry for hyperbolic space of curvature -K.

Points live on the upper sheet of the hyperboloid
    {x in R^(d+1) : <x, x>_L = -1/K, x_time > 0},
where the Lorentzian inner product is <x, y>_L = <x_space, y_space> - x_time * y_time.
All operations work in float64 and keep results on-manifold to ~1e-9.

The formulas are written once over batches of points held as a pair
``(times, spaces)``: ``times`` has the batch shape and ``spaces`` one more
trailing axis of length d, so a single point is the empty batch shape.  The
inner product, the distance, the origin expmap and the norm clip are fused
:func:`hbct.autodiff.formula` nodes: one forward, run on plain arrays by
embedding and evaluation and recorded as one tape node by training, and a
VJP that mirrors the chain of elementary operations it replaces.  The
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
        if not 1 <= self.dim_d < 2**32 - 1:  # a store holds the row width d + 1 as uint32
            raise InvalidArgumentError(f"manifold.dim_d must be in [1, 2**32 - 1), "
                                       f"got {self.dim_d}")

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


def inner_forward(rec, xt, xs, yt, ys):
    """<x, y>_L = sum(xs * ys, -1) - xt * yt as its four elementary steps, each
    checked when ``rec``.  Returns (inner, saved)."""
    p = ad.checked(xs * ys, rec)
    s = ad.checked(np.add.reduce(p, axis=-1), rec)
    tt = ad.checked(xt * yt, rec)
    return ad.checked(s - tt, rec), (xt, xs, yt, ys, p, s, tt)


def inner_backward(g, saved, parents):
    """Adjoints of inner_forward's steps: contributions to (xt, xs, yt, ys),
    None where ``parents`` holds None (a constant).  The chain emits them in
    the order xt, yt, xs, ys."""
    xt, xs, yt, ys, p, s, tt = saved
    p_xt, p_xs, p_yt, p_ys = parents
    c_xt = c_xs = c_yt = c_ys = None
    if p_xt is not None or p_yt is not None:
        g_tt = ad.fit(-g, tt.shape)                      # s - tt -> tt
        if p_xt is not None:
            c_xt = ad.fit(g_tt * yt, xt.shape)           # xt * yt -> xt
        if p_yt is not None:
            c_yt = ad.fit(g_tt * xt, yt.shape)           # -> yt
    if p_xs is not None or p_ys is not None:
        g_p = ad.sum_vjp(ad.fit(g, s.shape), None, p, -1)  # s - tt -> s, sum -> p
        if p_xs is not None:
            c_xs = ad.fit(g_p * ys, xs.shape)            # xs * ys -> xs
        if p_ys is not None:
            c_ys = ad.fit(g_p * xs, ys.shape)            # -> ys
    return c_xt, c_xs, c_yt, c_ys


def _inner_vjp(g, out, saved, parents):
    c_xt, c_xs, c_yt, c_ys = inner_backward(g, saved, parents)
    pairs = []
    ad.emit(pairs, (parents[0], parents[2], parents[1], parents[3]), (c_xt, c_yt, c_xs, c_ys))
    return pairs


def hinner(x, y):
    """Lorentzian inner product <x, y>_L, broadcast over the batch."""
    xt, xs = points(x)
    yt, ys = points(y)
    return ad.formula(inner_forward, _inner_vjp, (xt, xs, yt, ys))


# x[i] against every y[j]: the selections x_t[:, None] and x_s[:, None, :]
_OUTER_T = (slice(None), None)
_OUTER_S = (slice(None), None, slice(None))


def _dist(rec, xt, xs, yt, ys, K, outer):
    x = xt, xs
    if outer:  # selections of checked values, so always finite
        xt, xs = xt[_OUTER_T], xs[_OUTER_S]
    inner, saved = inner_forward(rec, xt, xs, yt, ys)
    arg = ad.checked(inner * -K, rec)
    ac = ad.checked(ad.arccosh(arg), rec)
    return ad.checked(ac / math.sqrt(K), rec), (x, saved, arg, K, outer)


def _dist_vjp(g, out, saved, parents):
    (xt, xs), isaved, arg, K, outer = saved
    g_arg = ad.acosh_vjp(g / math.sqrt(K), None, arg)       # / sqrt(K), acosh
    c_xt, c_xs, c_yt, c_ys = inner_backward(g_arg * -K, isaved, parents)  # * -K, inner
    pairs = []
    if not outer:
        ad.emit(pairs, (parents[0], parents[2], parents[1], parents[3]),
                (c_xt, c_yt, c_xs, c_ys))
        return pairs
    # the selections of x precede the inner product on the chain, so come last
    ad.emit(pairs, (parents[2], parents[3]), (c_yt, c_ys))
    if parents[1] is not None:
        pairs.append((parents[1], ad.getitem_vjp(c_xs, None, xs, _OUTER_S)))
    if parents[0] is not None:
        pairs.append((parents[0], ad.getitem_vjp(c_xt, None, xt, _OUTER_T)))
    return pairs


def hdist(x, y, mcfg: ManifoldConfig, outer=False):
    """Geodesic distance d(x, y) = (1/sqrt(K)) * acosh(-K * <x, y>_L).

    With ``outer``, x and y are batches with one leading axis and the result
    is the matrix D[i, j] = d(x_i, y_j).
    """
    xt, xs = points(x)
    yt, ys = points(y)
    return ad.formula(_dist, _dist_vjp, (xt, xs, yt, ys), mcfg.curvature_K, outer)


# The origin expmap records five nodes, one per run of the chain whose
# intermediates no other run reads: a = sqrt(K)||z||, the sinh(a)/a
# coefficient, the time cosh(a)/sqrt(K), and the scaled rows.

def _expm_arg(rec, z, sqrt_K):
    n = ad.checked(np.linalg.norm(z, axis=-1), rec)
    return ad.checked(n * sqrt_K, rec), (z, n, sqrt_K)


def _expm_arg_vjp(g, out, saved, parents):
    z, n, sqrt_K = saved
    return [(parents[0], ad.norm_vjp(g * sqrt_K, n, z))]


# The forwards below free each temporary where the chain did, before the next
# allocation: on 100 000 plain rows a longer-lived temporary moves the heap
# layout that later allocations land in.  A VJP recomputes such a temporary.

def _sinhc(rec, a, series):
    safe = ad.checked(np.where(series, 1.0, a), rec)
    q = ad.checked(ad.checked(np.sinh(safe), rec) / safe, rec)
    return ad.checked(np.where(series, 1.0, q), rec), (series, safe)


def _sinhc_vjp(g, out, saved, parents):
    series, safe = saved
    g_q = np.where(series, 0.0, g)                        # where(series, 1, q) -> q
    g_safe = ad.div_partial_b(g_q, np.sinh(safe), safe)   # sinh(safe) / safe -> safe
    g_safe = g_safe + (g_q / safe) * np.cosh(safe)        # -> sinh(safe), sinh -> safe
    return [(parents[0], np.where(series, 0.0, g_safe))]  # where(series, 1, a) -> a


def _cosh_scaled(rec, a, sqrt_K):
    ch = ad.checked(np.cosh(a), rec)
    return ad.checked(ch / sqrt_K, rec), (a, sqrt_K)


def _cosh_scaled_vjp(g, out, saved, parents):
    a, sqrt_K = saved
    return [(parents[0], (g / sqrt_K) * np.sinh(a))]


def _scale_rows(rec, coeff, z):
    ce = coeff[..., None]  # a selection of a checked value
    return ad.checked(ce * z, rec), (coeff, ce, z)


def _scale_rows_vjp(g, out, saved, parents):
    coeff, ce, z = saved
    pairs = []
    if parents[1] is not None:
        pairs.append((parents[1], ad.fit(g * ce, z.shape)))
    if parents[0] is not None:
        g_ce = ad.fit(g * z, ce.shape)
        pairs.append((parents[0], ad.getitem_vjp(g_ce, None, coeff, (Ellipsis, None))))
    return pairs


def hexpm_origin(z, mcfg: ManifoldConfig):
    """Exponential map at the origin of tangent vectors [0, z] (rows of z).

    expm_0(v) = cosh(sqrt(K)||z||) * 0bar + sinh(sqrt(K)||z||)/(sqrt(K)||z||) * [0, z];
    the sinh(a)/a coefficient is the constant 1 for a < SERIES_EPS.
    Returns (times, spaces).
    """
    sqrt_K = math.sqrt(mcfg.curvature_K)
    z = ad.array(z)
    a = ad.formula(_expm_arg, _expm_arg_vjp, (z,), sqrt_K)
    coeff = ad.formula(_sinhc, _sinhc_vjp, (a,), ad.value(a) < SERIES_EPS)
    times = ad.formula(_cosh_scaled, _cosh_scaled_vjp, (a,), sqrt_K)
    return times, ad.formula(_scale_rows, _scale_rows_vjp, (coeff, z))


def _rescale_clip(rec, z, zeta, sqrt_d):
    z = ad.checked(z / sqrt_d, rec)
    n = ad.checked(np.linalg.norm(z, axis=-1, keepdims=True), rec)
    over = n > zeta
    r = ad.checked(zeta / ad.checked(np.where(over, n, 1.0), rec), rec)
    w2 = ad.checked(np.where(over, r, 1.0), rec)
    del r
    return ad.checked(z * w2, rec), (z, n, over, w2, zeta, sqrt_d)


def _rescale_clip_vjp(g, out, saved, parents):
    z, n, over, w2, zeta, sqrt_d = saved
    g_z = g * w2                                          # z * w2 -> z
    g_w2 = ad.fit(g * z, w2.shape)                        # -> w2
    g_w1 = ad.div_partial_b(np.where(over, g_w2, 0.0), zeta,
                            np.where(over, n, 1.0))       # where, zeta / where(over, n, 1)
    g_z = g_z + ad.norm_vjp(np.where(over, g_w1, 0.0), n, z, True)  # where, norm -> z
    return [(parents[0], g_z / sqrt_d)]                   # h / sqrt(d) -> h


def rescale_clip(z, zeta: float, cfg: ManifoldConfig):
    """Rescale embeddings (rows of z) by 1/sqrt(d), then clip each norm at zeta."""
    if not (zeta > 0):
        raise InvalidArgumentError(f"zeta must be > 0, got {zeta}")
    return ad.formula(_rescale_clip, _rescale_clip_vjp, (ad.array(z),), zeta,
                      math.sqrt(cfg.dim_d))


def uncertainty(x, cfg: ManifoldConfig):
    """Hyperbolic uncertainty 1 - (1/sqrt(K)) * ||x_space|| / x_time.

    For a point lifted from z this equals 1 - (1/sqrt(K)) * tanh(sqrt(K)||z||),
    strictly decreasing in ||z||.  Bounded in [0, 1] only for K = 1; for other
    curvatures large-norm embeddings can push the value negative.
    """
    times, spaces = points(x)
    return 1.0 - np.linalg.norm(spaces, axis=-1) / (math.sqrt(cfg.curvature_K) * times)


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
    a = float(ad.arccosh(sqrt_K * x.time))  # sqrt(K) * x_time equals -K * <0bar, x>_L
    # proj_0bar(x) = [0, x_space]; coefficient a / sinh(a) with series limit 1.
    coeff = 1.0 if a < SERIES_EPS else a / math.sinh(a)
    return TangentVector(0.0, coeff * x.space)


def on_manifold_defect(x: LorentzPoint, cfg: ManifoldConfig) -> float:
    """|<x, x>_L + 1/K|, zero for points exactly on the hyperboloid."""
    return abs(float(hinner(x, x)) + 1.0 / cfg.curvature_K)
