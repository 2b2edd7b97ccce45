"""Exact retrieval evaluation: CMC@k, mAP, compatibility metrics P_com / P_up,
and sequential-update compatibility matrices.

Lorentz embedding sets are ranked by geodesic distance, Euclidean sets by
cosine distance; mixing geometries, Lorentz curvatures or row widths between
query and gallery is an error, and so is a non-finite embedding, an empty set
or an inner product that overflows float64.  Galleries are scanned exactly (no
ANN index), a block of queries at a time; ties break toward the lower gallery
index so rankings are deterministic.  CMC@k and mAP are read off each query's
ranks of its same-label gallery items, found without sorting gallery indices.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateBaselineError, InvalidArgumentError

STORE_MAGIC = b"HBCT"
STORE_VERSION = 1
_GEOMETRIES = ("euclidean", "lorentz")
# magic, version, geometry index, row count N, row width W, curvature K, generation
_STORE_HEADER = struct.Struct("<4sIIIIdi")
_INT32 = np.iinfo(np.int32)


@dataclass
class EmbeddingSet:
    """Immutable gallery/query embeddings with labels and geometry metadata.

    For lorentz geometry, ``points`` rows are ambient coordinates
    [time, space...]; for euclidean they are plain d-vectors.
    """

    points: np.ndarray
    labels: np.ndarray
    geometry: str = "lorentz"
    curvature_K: float = 1.0
    generation_tag: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.geometry not in _GEOMETRIES:
            raise InvalidArgumentError(f"unknown geometry {self.geometry!r}")
        if self.points.ndim != 2 or len(self.points) != len(self.labels):
            raise InvalidArgumentError("points must be a 2-d array, one row per label")
        if self.geometry == "lorentz":
            if not 0.0 < self.curvature_K < math.inf:
                raise InvalidArgumentError(f"Lorentz curvature_K must be finite and "
                                           f"> 0, got {self.curvature_K}")
            if self.points.shape[1] < 2:
                raise InvalidArgumentError("Lorentz rows need a time and a space "
                                           "coordinate")
        if not np.isfinite(self.points).all():
            raise InvalidArgumentError("embedding points must be finite")

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_lorentz(cls, times, spaces, labels, curvature_K=1.0, generation_tag=0):
        pts = np.column_stack([np.asarray(times, dtype=np.float64),
                               np.asarray(spaces, dtype=np.float64)])
        return cls(pts, labels, "lorentz", curvature_K, generation_tag)


# distance entries per query block: a block of max(1, _BLOCK // len(gallery))
# queries is ranked at once, which bounds the working memory
_BLOCK = 1 << 14


def _gallery_norms(gallery: EmbeddingSet):
    """A Euclidean gallery's row norms, taken once per ranking call; None for Lorentz."""
    with np.errstate(over="ignore"):
        return (None if gallery.geometry == "lorentz"
                else np.linalg.norm(gallery.points, axis=1))


def _distances(Q: np.ndarray, gallery: EmbeddingSet, gallery_norms) -> np.ndarray:
    """(len(Q), len(gallery)) distances from each query row to each gallery row.

    The matmul over a trailing vector axis runs one gemv per query, so every
    row is bit-identical to ranking that query alone (a GEMM rounds differently
    and could flip near-ties).  A product that overflows float64 is refused:
    clamped, it would read as a distance of 0.
    """
    P = gallery.points
    with np.errstate(over="ignore", invalid="ignore"):
        if gallery.geometry == "lorentz":
            K = gallery.curvature_K
            arg = -K * (np.matmul(P[:, 1:], Q[:, 1:, None])[..., 0] - P[:, 0] * Q[:, :1])
            products = (arg,)
        else:
            qn = np.sqrt(np.matmul(Q[:, None, :], Q[:, :, None])[:, 0])
            dots = np.matmul(P, Q[:, :, None])[..., 0]
            products = (qn, gallery_norms, dots)
    if not all(np.isfinite(a).all() for a in products):
        raise InvalidArgumentError("an inner product or norm overflows float64; "
                                   "the embeddings are too large to rank")
    if gallery.geometry == "lorentz":
        return np.arccosh(np.maximum(arg, 1.0)) / math.sqrt(K)
    # cosine distance for Euclidean sets
    return 1.0 - dots / np.maximum(qn * gallery_norms, 1e-300)


def retrieve(query, gallery: EmbeddingSet) -> np.ndarray:
    """Gallery indices sorted by ascending distance, ties by ascending index.

    ``query`` is one row in the gallery's coordinates: ambient [time, space...]
    for a Lorentz gallery, a plain vector for a Euclidean one.
    """
    q = EmbeddingSet(np.asarray(query, dtype=np.float64)[None], [0], gallery.geometry,
                     gallery.curvature_K)
    _check_pairing(q, gallery)
    return np.argsort(_distances(q.points, gallery, _gallery_norms(gallery))[0],
                      kind="stable")


def _check_pairing(queries: EmbeddingSet, gallery: EmbeddingSet):
    if queries.geometry != gallery.geometry:
        raise InvalidArgumentError(
            f"geometry mismatch: queries {queries.geometry}, gallery {gallery.geometry}")
    if queries.geometry == "lorentz" and queries.curvature_K != gallery.curvature_K:
        raise InvalidArgumentError(
            f"curvature mismatch: queries K={queries.curvature_K}, "
            f"gallery K={gallery.curvature_K}")
    if queries.points.shape[1] != gallery.points.shape[1]:
        raise InvalidArgumentError(
            f"width mismatch: query rows have {queries.points.shape[1]} coordinates, "
            f"gallery rows {gallery.points.shape[1]}")
    if len(queries) == 0:
        raise InvalidArgumentError("empty query set")
    if len(gallery) == 0:
        raise InvalidArgumentError("empty gallery")


def _relevant_ranks(queries: EmbeddingSet, gallery: EmbeddingSet):
    """Yield each query's ascending 0-based ranks of its same-label gallery
    items; when ``queries is gallery`` the query's own row is dropped first.

    No gallery index is sorted.  Each block of queries gets one distance
    block; an item's rank is the count of smaller distances in its query's
    row, found by binary search in the value-sorted row, plus the count of
    equal distances at lower gallery indices.
    """
    _check_pairing(queries, gallery)
    self_mode = queries is gallery
    G, gn = len(gallery), _gallery_norms(gallery)
    step = max(1, _BLOCK // G)
    for start in range(0, len(queries), step):
        d = _distances(queries.points[start:start + step], gallery, gn)
        T = len(d)
        rows, cols = np.nonzero(queries.labels[start:start + T, None] == gallery.labels)
        if self_mode:
            # distances are finite, so +inf ranks the own row after every item
            own = np.arange(T)
            d[own, start + own] = np.inf
            keep = cols != rows + start
            rows, cols = rows[keep], cols[keep]
        dist = d[rows, cols]
        order = np.lexsort((cols, dist, rows))
        rows, cols, dist = rows[order], cols[order], dist[order]
        # rows laid end to end: real part the row, imaginary part the sorted distances
        table = np.empty((T, G), np.complex128)
        table.real = np.arange(T)[:, None]
        table.imag = np.sort(d, axis=1)
        keys = np.empty(len(rows), np.complex128)
        keys.real, keys.imag = rows, dist
        lo = np.searchsorted(table.ravel(), keys, "left")
        hi = np.searchsorted(table.ravel(), keys, "right")
        ranks = lo - rows * G
        # an exact tie: the equal distances at lower gallery indices rank first.
        # The pairs of one tie are adjacent and share lo, so they form one group.
        tied = np.flatnonzero(hi - lo > 1)
        for group in np.split(tied, np.flatnonzero(np.diff(lo[tied])) + 1):
            if len(group):
                i = group[0]
                equal = np.flatnonzero(d[rows[i]] == dist[i])
                ranks[group] += np.searchsorted(equal, cols[group])
        yield from np.split(ranks, np.cumsum(np.bincount(rows, minlength=T))[:-1])


def cmc_at_k(queries: EmbeddingSet, gallery: EmbeddingSet, k: int) -> float:
    """Fraction of queries with a same-label gallery item in the top k."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    hits = sum(1 for ranks in _relevant_ranks(queries, gallery)
               if len(ranks) and ranks[0] < k)
    return hits / len(queries)


def mean_average_precision(queries: EmbeddingSet, gallery: EmbeddingSet) -> float:
    """mAP over queries; AP per query averages precision at each relevant rank."""
    aps = [float(np.mean(np.arange(1, len(ranks) + 1) / (ranks + 1)))
           for ranks in _relevant_ranks(queries, gallery) if len(ranks)]
    if not aps:
        raise InvalidArgumentError("no query has a relevant gallery item")
    skipped = len(queries) - len(aps)
    if skipped:
        warnings.warn(f"{skipped} queries had no relevant gallery item and were skipped")
    return float(np.mean(aps))


def p_com(metric_new_cross: float, metric_old_self: float, metric_star_self: float) -> float:
    """(cross - old_self) / (star_self - old_self), the compatibility gain."""
    denom = metric_star_self - metric_old_self
    if abs(denom) <= 1e-12:
        raise DegenerateBaselineError(
            "star and old self-retrieval anchors coincide; P_com undefined")
    return (metric_new_cross - metric_old_self) / denom


def p_up(metric_new_self: float, metric_star_self: float) -> float:
    """(new_self - star_self) / star_self, relative self-performance change."""
    if metric_star_self <= 1e-12:
        raise DegenerateBaselineError("star self-retrieval anchor is zero; P_up undefined")
    return (metric_new_self - metric_star_self) / metric_star_self


@dataclass
class CompatReport:
    """Raw retrieval anchors for one metric, plus the derived P_com / P_up."""

    metric: str
    self_value: float
    cross_value: float
    old_self_value: float
    star_self_value: float
    p_com: float
    p_up: float

    @classmethod
    def compute(cls, metric, self_value, cross_value, old_self_value, star_self_value):
        try:
            return cls(metric, self_value, cross_value, old_self_value, star_self_value,
                       p_com(cross_value, old_self_value, star_self_value),
                       p_up(self_value, star_self_value))
        except DegenerateBaselineError as e:
            e.args = (f"{metric}: {e}",)
            raise

    def as_items(self):
        """(``<metric>.<field>``, value) per value field, ``_value`` dropped."""
        return [(f"{self.metric}.{f.name.removesuffix('_value')}", getattr(self, f.name))
                for f in fields(self)[1:]]


def parse_metric(metric: str):
    """k for 'cmc@<k>' (k >= 1), None for 'map'; any other name is an error."""
    if metric == "map":
        return None
    if metric.startswith("cmc@") and metric[4:].isdecimal() and int(metric[4:]) >= 1:
        return int(metric[4:])
    raise InvalidArgumentError(f"unknown metric {metric!r}")


def evaluate_metric(queries: EmbeddingSet, gallery: EmbeddingSet, metric: str) -> float:
    """metric is 'cmc@<k>' or 'map'."""
    k = parse_metric(metric)
    if k is None:
        return mean_average_precision(queries, gallery)
    return cmc_at_k(queries, gallery, k)


def compatibility_matrix(embeddings, star_embeddings, metric: str) -> np.ndarray:
    """N x N matrix of P_com across generations.

    ``embeddings`` holds one (query EmbeddingSet, gallery EmbeddingSet) pair
    per generation (same underlying items, embedded by that generation's
    model); ``star_embeddings`` the same for each generation's unaligned
    counterpart.  Entry (i, j) is P_com with queries embedded by generation i
    against the gallery of generation j: the old-self anchor is generation
    j's own retrieval, the star anchor is generation i's unaligned model.
    Diagonal entries are 0 by the self-anchor convention (the numerator
    vanishes identically), kept finite without dividing.
    """
    n = len(embeddings)
    if n < 2:
        raise InvalidArgumentError("need at least 2 generations")
    if len(star_embeddings) != n:
        raise InvalidArgumentError("need one star pairing per generation")
    self_vals = [evaluate_metric(q, g, metric) for q, g in embeddings]
    star_vals = [evaluate_metric(q, g, metric) for q, g in star_embeddings]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cross = evaluate_metric(embeddings[i][0], embeddings[j][1], metric)
            try:
                out[i, j] = p_com(cross, self_vals[j], star_vals[i])
            except DegenerateBaselineError as e:
                e.args = (f"{metric}: {e}",)
                raise
    return out


# ---------------------------------------------------------------------------
# Embedding store file (byte layout documented in the README)

def _record_dtype(width):
    """One store record: W float64 coordinates then an int32 label, packed."""
    return np.dtype([("x", "<f8", (width,)), ("y", "<i4")])


def save_embedding_set(path, es: EmbeddingSet):
    count, width = es.points.shape
    if count and (es.labels.min() < _INT32.min or es.labels.max() > _INT32.max):
        raise InvalidArgumentError("labels must fit in int32 to be stored")
    records = np.empty(count, _record_dtype(width))
    records["x"] = es.points
    records["y"] = es.labels
    with open(path, "wb") as f:
        f.write(_STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION,
                                   _GEOMETRIES.index(es.geometry), count, width,
                                   es.curvature_K, es.generation_tag))
        records.tofile(f)


def load_embedding_set(path) -> EmbeddingSet:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _STORE_HEADER.size or data[:4] != STORE_MAGIC:
        raise InvalidArgumentError("not an HBCT embedding store (bad magic or short header)")
    _, version, geom, count, width, K, generation = _STORE_HEADER.unpack_from(data)
    if version != STORE_VERSION:
        raise InvalidArgumentError(f"unsupported store version {version}")
    if geom >= len(_GEOMETRIES):
        raise InvalidArgumentError(f"unknown store geometry index {geom}")
    record_size = 8 * width + 4  # the packed record, in Python ints: no overflow
    expected = _STORE_HEADER.size + count * record_size
    if len(data) != expected:
        raise InvalidArgumentError(f"store is {len(data)} bytes, its header implies "
                                   f"{expected}")
    if record_size > _INT32.max:
        raise InvalidArgumentError(f"store row width {width} is too large")
    records = np.frombuffer(data, _record_dtype(width), count, _STORE_HEADER.size)
    return EmbeddingSet(np.ascontiguousarray(records["x"]), records["y"],
                        _GEOMETRIES[geom], K, generation)
