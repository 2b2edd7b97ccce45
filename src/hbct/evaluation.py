"""Exact retrieval evaluation: CMC@k, mAP, compatibility metrics P_com / P_up,
and sequential-update compatibility matrices.

Lorentz embedding sets are ranked by geodesic distance, Euclidean sets by
cosine distance; mixing geometries, Lorentz curvatures or row widths between
query and gallery is an error, and so is a non-finite embedding, a Lorentz row
off the upper sheet of its hyperboloid, an empty set or an inner product that
overflows float64.  Galleries are scanned exactly (no ANN index), a block of
queries at a time; ties break toward the lower gallery index so rankings are
deterministic.  CMC@k and mAP are read off each query's ranks of its
same-label gallery items, found without sorting gallery indices: a block of
many query rows with few relevant items each is ranked with whole-block array
calls (one sorted search per block), any other block, and any row whose
distances repeat, one row at a time, with the same bits.  Each query's first
relevant rank and AP are kept for the last (queries, gallery) pair, so several
metrics on one pair rank it once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
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
# relative hyperboloid defect a Lorentz row may carry; embed_batch and expm_origin
# stay below 1e-15, an off-sheet row is of order 1
_SHEET_TOL = 1e-9
# rows per block of the write path: embedding, the store reader and writer and the
# set checks walk their rows in blocks of at most this many, so their working memory
# does not grow with the corpus
_ROW_BLOCK = 4096


def _row_blocks(n):
    """(lo, hi) bounds that split n rows into ceil(n / _ROW_BLOCK) nearly equal
    blocks: none is smaller than _ROW_BLOCK // 2 rows unless the whole input is,
    and n <= _ROW_BLOCK (0 included) is one block."""
    k = max(1, -(-n // _ROW_BLOCK))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def check_generation_tag(tag) -> int:
    """``tag`` as an int; a store or checkpoint holds it as an int32 >= 0."""
    try:
        tag = operator.index(tag)
    except TypeError:
        raise InvalidArgumentError(f"generation tag must be an integer, "
                                   f"got {tag!r}") from None
    if not 0 <= tag <= _INT32.max:
        raise InvalidArgumentError(f"generation tag must be in [0, 2**31), got {tag}")
    return tag


@dataclass
class EmbeddingSet:
    """Immutable gallery/query embeddings with labels and geometry metadata.

    For lorentz geometry, ``points`` rows are ambient coordinates
    [time, space...] on the upper sheet; for euclidean they are plain d-vectors.
    """

    points: np.ndarray
    labels: np.ndarray
    geometry: str = "lorentz"
    curvature_K: float = 1.0
    generation_tag: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):
            self.labels = labels.astype(np.int64, copy=False)
        # a signed integer fits; anything else must survive the conversion unchanged
        if labels.dtype.kind != "i" and not np.array_equal(self.labels, labels):
            raise InvalidArgumentError("labels must be finite integers that fit int64")
        if self.geometry not in _GEOMETRIES:
            raise InvalidArgumentError(f"unknown geometry {self.geometry!r}")
        if self.points.ndim != 2 or len(self.points) != len(self.labels):
            raise InvalidArgumentError("points must be a 2-d array, one row per label")
        self.generation_tag = check_generation_tag(self.generation_tag)
        if self.geometry == "lorentz":
            if not 0.0 < self.curvature_K < math.inf:
                raise InvalidArgumentError(f"Lorentz curvature_K must be finite and "
                                           f"> 0, got {self.curvature_K}")
            if self.points.shape[1] < 2:
                raise InvalidArgumentError("Lorentz rows need a time and a space "
                                           "coordinate")
        # a block at a time: a non-finite row anywhere is refused first, then the
        # first row off the upper sheet, x_t > 0 with a relative defect
        # |<x, x>_L + 1/K| / x_t^2 within _SHEET_TOL; an overflowing square makes the
        # relative defect NaN, which fails too
        P, lorentz, off = self.points, self.geometry == "lorentz", None
        with np.errstate(all="ignore"):
            if lorentz:
                signature, inv_K = np.r_[-1.0, np.ones(P.shape[1] - 1)], 1.0 / self.curvature_K
            for lo, hi in _row_blocks(len(P)):
                block = P[lo:hi]
                if not np.isfinite(block).all():
                    raise InvalidArgumentError("embedding points must be finite")
                if not lorentz or off is not None:
                    continue
                t = block[:, 0]
                defect = np.einsum("ij,ij,j->i", block, block, signature) + inv_K
                ok = (t > 0) & (np.abs(defect) / (t * t) <= _SHEET_TOL)
                if not ok.all():
                    i = int(np.argmin(ok))
                    off = lo + i, t[i], defect[i]
        if off is not None:
            i, t, defect = off
            raise InvalidArgumentError(
                f"Lorentz row {i} is off the upper sheet of <x, x>_L = -1/K: "
                f"time {t:.6g}, defect {defect:.3g}")

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
# a block is ranked in whole-block calls when it has at least _WHOLE_ROWS rows and at
# most _WHOLE_ITEMS relevant items per row on average: those calls cost about 35 us
# a block plus 0.1 us per relevant item, the per-row rule about 5 us a row
_WHOLE_ROWS, _WHOLE_ITEMS = 8, 32


def _gallery_column(gallery: EmbeddingSet) -> np.ndarray:
    """The gallery column that each query row scales, taken once per ranking call:
    a Lorentz gallery's time coordinates, copied contiguous, or a Euclidean
    gallery's row norms."""
    if gallery.geometry == "lorentz":
        return np.ascontiguousarray(gallery.points[:, 0])
    with np.errstate(over="ignore"):
        return np.linalg.norm(gallery.points, axis=1)


def _distances(Q: np.ndarray, gallery: EmbeddingSet, column, out=None,
               scratch=None) -> np.ndarray:
    """(len(Q), len(gallery)) distances from each query row to each gallery row,
    written into ``out`` when given (every pass runs in place) and returned.
    ``scratch``, an array of out's shape, holds the Lorentz time products, which
    numpy would otherwise buffer in a temporary.

    The matmul over a trailing vector axis runs one gemv per query, so every
    row is bit-identical to ranking that query alone (a GEMM rounds differently
    and could flip near-ties).  A product that overflows float64 is refused:
    clamped, it would read as a distance of 0.
    """
    P = gallery.points
    if out is None:
        out = np.empty((len(Q), len(P)))
    with np.errstate(over="ignore", invalid="ignore"):
        if gallery.geometry == "lorentz":
            K = gallery.curvature_K
            np.matmul(P[:, 1:], Q[:, 1:, None], out=out[..., None])
            out -= np.multiply(column, Q[:, :1], out=scratch)
            out *= -K
            products = (out,)
        else:
            qn = np.sqrt(np.matmul(Q[:, None, :], Q[:, :, None])[:, 0])
            np.matmul(P, Q[:, :, None], out=out[..., None])
            products = (qn, column, out)
    if not all(np.isfinite(a).all() for a in products):
        raise InvalidArgumentError("an inner product or norm overflows float64; "
                                   "the embeddings are too large to rank")
    if gallery.geometry == "lorentz":
        np.maximum(out, 1.0, out=out)
        np.arccosh(out, out=out)
        out /= math.sqrt(K)
    else:  # cosine distance for Euclidean sets
        out /= np.maximum(qn * column, 1e-300)
        np.subtract(1.0, out, out=out)
    return out


def retrieve(query, gallery: EmbeddingSet) -> np.ndarray:
    """Gallery indices sorted by ascending distance, ties by ascending index.

    ``query`` is one row in the gallery's coordinates: ambient [time, space...]
    for a Lorentz gallery, a plain vector for a Euclidean one.
    """
    q = EmbeddingSet(np.asarray(query, dtype=np.float64)[None], [0], gallery.geometry,
                     gallery.curvature_K)
    _check_pairing(q, gallery)
    return np.argsort(_distances(q.points, gallery, _gallery_column(gallery))[0],
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


def _rank_row(row, srow, rel, tied):
    """(first, ap) of one query row from its distances ``row``, their value-sorted
    copy ``srow`` and its relevant gallery indices ``rel`` (at least one).  An
    item's rank is the count of smaller distances in ``srow``, by binary search,
    plus, on a ``tied`` row, the count of equal distances at lower gallery indices.
    The relevant distances are searched in sorted order, so the ranks come out
    ascending."""
    dist = np.sort(row[rel])
    ranks = srow.searchsorted(dist)
    if tied:  # equal distances at lower gallery indices rank first
        # each repeated value is handled on its own, so a set of them serves (np.unique
        # would import numpy.ma on its first call in a process)
        for v in set(dist[srow.searchsorted(dist, "right") - ranks > 1].tolist()):
            # below the next value's rank, so the ranks stay ascending
            ranks[dist == v] += (row == v).nonzero()[0].searchsorted(rel[row[rel] == v])
    # the pairwise sum and the one division of ndarray.mean, without its wrapper
    return ranks[0], np.add.reduce(np.arange(1, len(ranks) + 1) / (ranks + 1)) / len(ranks)


def _rank_block(d, s, same, table, first, ap):
    """_rank_row's (first, ap), written into ``first`` and ``ap``, for every row of a
    block of untied rows that has a relevant item, in whole-block calls.  Each
    relevant item is keyed by (row, distance) as a complex number, whose order is
    lexicographic; the keys are sorted and searched in ``table``, the block's
    value-sorted rows laid end to end as (row, distance), so a key's position less
    its row's offset counts the smaller distances in its row.  AP sums each row's
    precisions along a row of a (rows, R) gather, the pairwise sum of a 1-d reduce,
    once per relevant count R."""
    cols = d.shape[1]
    idx = np.flatnonzero(same)
    count = np.count_nonzero(same, axis=1)
    row = idx // cols
    keys = np.empty(len(idx), complex)
    keys.real, keys.imag = row, d.ravel()[idx]
    keys.sort()  # rows stay in place, each row's distances ascend
    table.imag = s
    ranks = table.ravel().searchsorted(keys) - row * cols
    lo = np.cumsum(count) - count
    prec = (np.arange(len(idx)) - lo[row] + 1) / (ranks + 1)
    for r in set(count.tolist()) - {0}:
        rows = np.flatnonzero(count == r)
        first[rows] = ranks[lo[rows]]
        ap[rows] = np.add.reduce(prec[lo[rows, None] + np.arange(r)], axis=1) / r


def _rank_pair(queries: EmbeddingSet, gallery: EmbeddingSet):
    """(first, ap) per query of a pair that _check_pairing accepted: its first
    relevant rank (inf when it has none) and AP (NaN when it has none), its own
    row dropped when ``queries is gallery``.  No gallery index is sorted: ranks
    are read off each block's value-sorted rows by binary search.  A block of at
    least _WHOLE_ROWS rows with at most _WHOLE_ITEMS relevant items per row is
    ranked in whole-block calls (_rank_block), but for its rows whose distances
    repeat; those rows, and every row of any other block, take the per-row rule
    (_rank_row).  The block arrays are allocated once per call and filled in
    place."""
    self_mode, column = queries is gallery, _gallery_column(gallery)
    first, ap = np.full(len(queries), np.inf), np.full(len(queries), np.nan)
    step = min(len(queries), max(1, _BLOCK // len(gallery)))
    # the block arrays: the distances, their sorted copy and the label mask
    blocks = [np.empty((step, len(gallery)), dtype) for dtype in (float, float, bool)]
    if step >= _WHOLE_ROWS:  # _rank_block's search table; its real part is the row index
        table = np.empty((step, len(gallery)), complex)
        table.real = np.arange(step)[:, None]
    for start in range(0, len(queries), step):
        n = min(step, len(queries) - start)
        d, s, same = (b[:n] for b in blocks)
        _distances(queries.points[start:start + n], gallery, column, out=d, scratch=s)
        np.equal(queries.labels[start:start + n, None], gallery.labels, out=same)
        if self_mode:
            # distances are finite, so +inf ranks the own row after every item
            own = np.arange(n)
            d[own, start + own], same[own, start + own] = np.inf, False
        s[:] = d
        s.sort(axis=1)
        tied = (s[:, 1:] == s[:, :-1]).any(axis=1)
        whole = n >= _WHOLE_ROWS and np.count_nonzero(same) <= _WHOLE_ITEMS * n
        rows = same.any(axis=1)
        if whole:
            rows &= tied
        for i in np.flatnonzero(rows):
            first[start + i], ap[start + i] = _rank_row(d[i], s[i], same[i].nonzero()[0],
                                                        tied[i])
        if whole:
            same[tied] = False  # ranked above
            _rank_block(d, s, same, table[:n], first[start:start + n], ap[start:start + n])
    return first, ap


# (key, first, ap) of the last pair _ranking reduced; read once per call, so a
# concurrent caller replacing it cannot hand this call another pair's values
_last_ranking = None


def _pair_key(queries: EmbeddingSet, gallery: EmbeddingSet):
    """Self mode, then each set's geometry, K, shape and a SHA-256 of its points and
    labels bytes.  A set keeps the caller's array, which may be written in place
    after the set is built, so the key reads the contents, not the identity."""
    def describe(s):
        h = hashlib.sha256(np.ascontiguousarray(s.points))
        h.update(np.ascontiguousarray(s.labels))
        return s.geometry, s.curvature_K, s.points.shape, h.digest()
    return queries is gallery, describe(queries), describe(gallery)


def _ranking(queries: EmbeddingSet, gallery: EmbeddingSet):
    """_rank_pair's (first, ap) for the pair.  The last pair's result is kept, so a
    second metric on it ranks nothing."""
    global _last_ranking
    _check_pairing(queries, gallery)
    key, last = _pair_key(queries, gallery), _last_ranking
    if last is None or last[0] != key:
        last = _last_ranking = (key, *_rank_pair(queries, gallery))
    return last[1:]


def cmc_at_k(queries: EmbeddingSet, gallery: EmbeddingSet, k: int) -> float:
    """Fraction of queries with a same-label gallery item in the top k."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    first, _ = _ranking(queries, gallery)
    return int(np.count_nonzero(first < k)) / len(queries)


def mean_average_precision(queries: EmbeddingSet, gallery: EmbeddingSet) -> float:
    """mAP over queries; AP per query averages precision at each relevant rank."""
    _, ap = _ranking(queries, gallery)
    aps = ap[~np.isnan(ap)]
    if not len(aps):
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


def compatibility_matrix(values, star_self, metric: str) -> np.ndarray:
    """N x N matrix of P_com across generations, from one metric's retrieval values.

    ``values[i][j]`` is the metric for generation i's queries against
    generation j's gallery (same items, embedded by each generation's model),
    so its diagonal holds each generation's self retrieval; ``star_self[i]``
    is the self retrieval of generation i's unaligned counterpart.  Entry
    (i, j) is p_com(values[i][j], values[j][j], star_self[i]): the old-self
    anchor is generation j's own retrieval, the star anchor generation i's
    unaligned model.  Diagonal entries are 0 by the self-anchor convention
    (the numerator vanishes identically), kept finite without dividing.
    """
    n = len(values)
    if n < 2 or any(len(row) != n for row in values):
        raise InvalidArgumentError("need an N x N table of values with N >= 2")
    if len(star_self) != n:
        raise InvalidArgumentError("need one star self value per generation")
    out = np.zeros((n, n))
    try:
        for i, j in itertools.permutations(range(n), 2):
            out[i, j] = p_com(values[i][j], values[j][j], star_self[i])
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
    """Write ``es`` as a store, packing one reusable block of records at a time."""
    count, width = es.points.shape
    if count and (es.labels.min() < _INT32.min or es.labels.max() > _INT32.max):
        raise InvalidArgumentError("labels must fit in int32 to be stored")
    blocks = _row_blocks(count)
    records = np.empty(max(hi - lo for lo, hi in blocks), _record_dtype(width))
    with open(path, "wb") as f:
        f.write(_STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION,
                                   _GEOMETRIES.index(es.geometry), count, width,
                                   es.curvature_K, es.generation_tag))
        for lo, hi in blocks:
            block = records[:hi - lo]
            block["x"] = es.points[lo:hi]
            block["y"] = es.labels[lo:hi]
            f.write(block)


def load_embedding_set(path) -> EmbeddingSet:
    """Read a store, checking its header and length before reading one reusable
    block of records at a time into the set's points and labels."""
    with open(path, "rb") as f:
        header = f.read(_STORE_HEADER.size)
        if len(header) < _STORE_HEADER.size or header[:4] != STORE_MAGIC:
            raise InvalidArgumentError("not an HBCT embedding store (bad magic or short "
                                       "header)")
        _, version, geom, count, width, K, generation = _STORE_HEADER.unpack(header)
        if version != STORE_VERSION:
            raise InvalidArgumentError(f"unsupported store version {version}")
        if geom >= len(_GEOMETRIES):
            raise InvalidArgumentError(f"unknown store geometry index {geom}")
        record_size = 8 * width + 4  # the packed record, in Python ints: no overflow
        expected = _STORE_HEADER.size + count * record_size
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise InvalidArgumentError(f"store is {size} bytes, its header implies "
                                       f"{expected}")
        if record_size > _INT32.max:
            raise InvalidArgumentError(f"store row width {width} is too large")
        points, labels = np.empty((count, width)), np.empty(count, np.int64)
        blocks, record = _row_blocks(count), _record_dtype(width)
        raw = np.empty(max(hi - lo for lo, hi in blocks) * record_size, np.uint8)
        for lo, hi in blocks:
            block = raw[:(hi - lo) * record_size]
            read = f.readinto(block)
            if read != len(block):  # the file shrank after its length was checked
                size = _STORE_HEADER.size + lo * record_size + read
                raise InvalidArgumentError(f"store is {size} bytes, its header implies "
                                           f"{expected}")
            records = block.view(record)
            points[lo:hi] = records["x"]
            labels[lo:hi] = records["y"]
    return EmbeddingSet(points, labels, _GEOMETRIES[geom], K, generation)
