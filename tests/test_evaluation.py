"""Retrieval metrics against brute-force dual implementations, the last-pair
ranking memo, compatibility metric arithmetic, inputs that evaluation must
refuse, and the embedding store format."""

import math
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbct import evaluation
from hbct.encoder import ClipPolicy, TrainConfig
from hbct.errors import DegenerateBaselineError, InvalidArgumentError
from hbct.evaluation import (CompatReport, EmbeddingSet, cmc_at_k,
                             compatibility_matrix, evaluate_metric,
                             load_embedding_set, mean_average_precision, p_com,
                             p_up, retrieve, save_embedding_set)
from hbct.losses import AlignmentConfig
from hbct.manifold import ManifoldConfig, expm_origin
from hbct.scenarios import (ExperimentConfig, ScenarioSpec, SyntheticDatasetSpec,
                            run_single)

MCFG = ManifoldConfig(1.0, 3)


def lorentz_set(rng, n, labels=None, tag=0):
    zs = rng.normal(size=(n, 3))
    pts = [expm_origin(z, MCFG) for z in zs]
    times = [p.time for p in pts]
    spaces = [p.space for p in pts]
    if labels is None:
        labels = rng.integers(0, 3, size=n)
    return EmbeddingSet.from_lorentz(times, spaces, labels, 1.0, tag)


def on_sheet(spaces, K=1.0):
    """Rows [sqrt(1/K + |s|^2), s] on the upper sheet of curvature K, one per space part s."""
    spaces = np.asarray(spaces, dtype=np.float64)
    return np.column_stack([np.sqrt(1.0 / K + (spaces ** 2).sum(axis=1)), spaces])


# --------------------------------------------------------------------------
# Brute-force dual implementations

def brute_rank(q, gallery):
    ds = []
    for i in range(len(gallery)):
        g = gallery.points[i]
        if gallery.geometry == "lorentz":
            inner = float(g[1:] @ q[1:]) - g[0] * q[0]
            d = math.acosh(max(-gallery.curvature_K * inner, 1.0))
            d /= math.sqrt(gallery.curvature_K)
        else:
            d = 1.0 - float(g @ q) / max(np.linalg.norm(g) * np.linalg.norm(q), 1e-300)
        ds.append((d, i))
    return [i for _, i in sorted(ds, key=lambda t: (t[0], t[1]))]


def brute_cmc(queries, gallery, k):
    hits = 0
    for qi in range(len(queries)):
        order = brute_rank(queries.points[qi], gallery)
        if queries is gallery:
            order = [i for i in order if i != qi]
        hits += any(gallery.labels[i] == queries.labels[qi] for i in order[:k])
    return hits / len(queries)


def brute_map(queries, gallery):
    aps = []
    for qi in range(len(queries)):
        order = brute_rank(queries.points[qi], gallery)
        if queries is gallery:
            order = [i for i in order if i != qi]
        rel = [gallery.labels[i] == queries.labels[qi] for i in order]
        n_rel = sum(rel)
        if n_rel == 0:
            continue
        hits = 0
        ap = 0.0
        for rank, r in enumerate(rel, start=1):
            if r:
                hits += 1
                ap += hits / rank
        aps.append(ap / n_rel)
    return float(np.mean(aps))


# --------------------------------------------------------------------------

class TestRetrieve:
    def test_self_is_rank_zero(self):
        rng = np.random.default_rng(0)
        g = lorentz_set(rng, 10)
        for i in range(10):
            assert retrieve(g.points[i], g)[0] == i

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [math.cosh(1.0), math.sinh(1.0), 0.0],
                        [math.cosh(1.0), -math.sinh(1.0), 0.0]])
        g = EmbeddingSet(pts, [0, 1, 1], "lorentz", 1.0)
        order = retrieve(np.array([1.0, 0.0, 0.0]), g)
        assert list(order) == [0, 1, 2]

    def test_empty_gallery(self):
        g = EmbeddingSet(np.empty((0, 3)), np.empty(0, dtype=int), "lorentz")
        with pytest.raises(InvalidArgumentError):
            retrieve(np.array([1.0, 0.0, 0.0]), g)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = lorentz_set(rng, int(rng.integers(3, 20)))
            q = expm_origin(rng.normal(size=3), MCFG)
            assert list(retrieve(q.ambient, g)) == brute_rank(q.ambient, g)

    def test_euclidean_cosine_path(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(8, 4))
        g = EmbeddingSet(pts, rng.integers(0, 2, size=8), "euclidean")
        q = rng.normal(size=4)
        assert list(retrieve(q, g)) == brute_rank(q, g)

    @pytest.mark.parametrize("query", [on_sheet(np.ones((1, 2)))[0],
                                       on_sheet(np.ones((1, 4)))[0], np.ones((1, 4)), 1.0])
    def test_query_shape_checked(self, query):
        # a query is one row of the gallery's width; the 1-d rows are on the sheet,
        # so that the width check is what refuses them
        g = lorentz_set(np.random.default_rng(4), 5)
        with pytest.raises(InvalidArgumentError, match="width|2-d"):
            retrieve(query, g)

    def test_geometry_mismatch(self):
        rng = np.random.default_rng(3)
        le = lorentz_set(rng, 4)
        eu = EmbeddingSet(rng.normal(size=(4, 4)), [0, 1, 0, 1], "euclidean")
        with pytest.raises(InvalidArgumentError):
            cmc_at_k(le, eu, 1)


class TestFailsClosed:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = lorentz_set(np.random.default_rng(40), 3).points
        pts[1, 2] = bad
        with pytest.raises(InvalidArgumentError):
            EmbeddingSet(pts, [0, 1, 0])

    def test_labels_int64_would_change_rejected(self):
        # stored as int64, these would put the metrics on the wrong labels
        pts = lorentz_set(np.random.default_rng(40), 3).points
        for labels in ([0.5, 1.7, 0.0], [0, np.nan, 1], [0, np.inf, 1], [1e30, 0, 1],
                       np.array([2**63, 0, 1], dtype=np.uint64)):
            with pytest.raises(InvalidArgumentError, match="labels"):
                EmbeddingSet(pts, labels)
        for labels in ([0, 1, 0], [0.0, 1.0, 2.0], np.array([0, 1, 2], np.int32)):
            assert EmbeddingSet(pts, labels).labels.tolist() == np.asarray(labels).tolist()
        assert EmbeddingSet(np.empty((0, 3)), []).labels.dtype == np.int64

    def test_nan_query_rejected(self):
        # every distance would be NaN and the stable sort would call index 0 a hit
        g = lorentz_set(np.random.default_rng(41), 6)
        with pytest.raises(InvalidArgumentError):
            retrieve(np.full(4, np.nan), g)

    def test_nan_store_rejected_on_load(self, tmp_path):
        path = tmp_path / "set.emb"
        save_embedding_set(path, lorentz_set(np.random.default_rng(42), 4))
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 32 + 8, math.nan)  # row 0, first space entry
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidArgumentError):
            load_embedding_set(path)

    def test_curvature_mismatch_rejected(self):
        rng = np.random.default_rng(43)
        g = lorentz_set(rng, 6)
        q1 = lorentz_set(rng, 4)
        # the same space parts on the K = 2 sheet
        q2 = EmbeddingSet(on_sheet(q1.points[:, 1:], K=2.0), q1.labels, "lorentz", 2.0)
        assert 0.0 <= cmc_at_k(q1, g, 1) <= 1.0
        for metric in ("cmc@1", "map"):
            with pytest.raises(InvalidArgumentError, match="curvature mismatch"):
                evaluate_metric(q2, g, metric)
        # Euclidean sets carry no curvature to compare
        e1 = EmbeddingSet(rng.normal(size=(4, 3)), [0, 1, 0, 1], "euclidean", 1.0)
        e2 = EmbeddingSet(rng.normal(size=(4, 3)), [0, 1, 0, 1], "euclidean", 2.0)
        assert 0.0 <= cmc_at_k(e1, e2, 1) <= 1.0

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(44)
        q = lorentz_set(rng, 4)  # 3-d: rows of width 4
        spaces = rng.normal(size=(5, 5))
        g = EmbeddingSet.from_lorentz(np.sqrt(1.0 + (spaces ** 2).sum(axis=1)), spaces,
                                      [0, 1, 2, 0, 1])
        for metric in ("cmc@1", "map"):
            with pytest.raises(InvalidArgumentError, match="width"):
                evaluate_metric(q, g, metric)

    def test_empty_query_set_rejected(self):
        g = lorentz_set(np.random.default_rng(45), 5)
        q = EmbeddingSet(np.empty((0, 4)), np.empty(0, dtype=int))
        for metric in ("cmc@1", "map"):
            with pytest.raises(InvalidArgumentError, match="empty query"):
                evaluate_metric(q, g, metric)

    @pytest.mark.parametrize("K", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_lorentz_curvature_rejected(self, K):
        pts = lorentz_set(np.random.default_rng(46), 3).points
        with pytest.raises(InvalidArgumentError, match="curvature"):
            EmbeddingSet(pts, [0, 1, 0], "lorentz", K)
        # a Euclidean set carries K but never ranks with it
        EmbeddingSet(pts, [0, 1, 0], "euclidean", K)

    @pytest.mark.parametrize("width", [0, 1])
    def test_narrow_lorentz_rows_rejected(self, width):
        with pytest.raises(InvalidArgumentError):
            EmbeddingSet(np.ones((3, width)), [0, 1, 0], "lorentz")

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EmbeddingSet(np.ones(3), [0, 1, 0], "euclidean")

    @pytest.mark.parametrize("geometry", ["lorentz", "euclidean"])
    def test_overflowing_products_rejected(self, geometry):
        # the Lorentz inner product of the first two rows (on the sheet) is -inf, so
        # -K<x, y>_L is +inf, which the arccosh clamp would turn into a distance of 0;
        # the Euclidean norm overflows
        pts = (on_sheet([[1e154, 0], [-1e154, 0], [0.1, 0], [-0.1, 0]])
               if geometry == "lorentz" else
               np.array([[1, 1e200, 0], [1, 1e200, 0], [1, 0.1, 0], [1, -0.1, 0]]))
        g = EmbeddingSet(pts, [0, 1, 0, 1], geometry)
        for metric in ("cmc@1", "map"):
            with pytest.raises(InvalidArgumentError, match="overflow"):
                evaluate_metric(g, g, metric)
        with pytest.raises(InvalidArgumentError, match="overflow"):
            retrieve(pts[0], g)

    @pytest.mark.parametrize("row", [[0.2, 0, 0.1], [-3, 2, 2]])
    def test_off_sheet_rows_rejected(self, row, tmp_path):
        # -K<x, q>_L clamped at 1 ranked either row at distance 0 from the query
        # [3, 2, 2], ahead of the query's exact copy
        gallery = EmbeddingSet([[1, 0, 0], [3, 2, 2]], [0, 1])
        assert list(retrieve([3, 2, 2], gallery)) == [1, 0]
        with pytest.raises(InvalidArgumentError, match="row 1 is off the upper sheet"):
            EmbeddingSet([[1, 0, 0], row, [3, 2, 2]], [0, 1, 2])
        with pytest.raises(InvalidArgumentError, match="upper sheet"):
            retrieve(row, gallery)
        # the same rows, read from a store
        path = tmp_path / "off.emb"
        path.write_bytes(struct.pack("<4sIIIIdi", b"HBCT", 1, 1, 2, 3, 1.0, 0)
                         + struct.pack("<3di3di", 3, 2, 2, 0, *row, 1))
        with pytest.raises(InvalidArgumentError, match="row 1 is off the upper sheet"):
            load_embedding_set(path)

    @pytest.mark.parametrize("K", [0.1, 1.0, 4.0])
    def test_embedded_rows_pass_the_sheet_check(self, K):
        # lifted embeddings stay within round-off of the sheet even at large norms
        z = np.random.default_rng(47).normal(size=(200, 3)) * np.geomspace(1e-8, 30, 200)[:, None]
        pts = [expm_origin(row, ManifoldConfig(K, 3)) for row in z]
        EmbeddingSet.from_lorentz([p.time for p in pts], [p.space for p in pts],
                                  np.zeros(200, int), K)

    @pytest.mark.parametrize("count,width", [(0, 2**28), (1, 2**28), (0, 2**32 - 1)])
    def test_huge_store_width_rejected(self, tmp_path, count, width):
        path = tmp_path / "wide.emb"
        path.write_bytes(struct.pack("<4sIIIIdi", b"HBCT", 1, 0, count, width, 1.0, 0))
        with pytest.raises(InvalidArgumentError):
            load_embedding_set(path)


class TestRankSemantics:
    """CMC@k and mAP read each query's relevant ranks off one stable ranking."""

    def test_ties_rank_lower_index_first(self):
        # two points repeated in shuffled order: within each group of equal
        # distances the lower gallery index ranks first (300 rows, so that an
        # unstable sort would reorder the groups)
        rng = np.random.default_rng(47)
        near, far = lorentz_set(rng, 2).points
        is_far = rng.random(300) < 0.5
        g = EmbeddingSet(np.where(is_far[:, None], far, near), rng.integers(0, 3, 300))
        q = EmbeddingSet(near[None], [0])
        order = np.concatenate([np.flatnonzero(~is_far), np.flatnonzero(is_far)])
        assert list(retrieve(near, g)) == list(order) == brute_rank(near, g)
        first = np.flatnonzero(g.labels[order] == 0)[0]
        assert cmc_at_k(q, g, first) == 0.0 and cmc_at_k(q, g, first + 1) == 1.0
        assert mean_average_precision(q, g) == pytest.approx(brute_map(q, g), abs=1e-12)

    def test_self_mode_drops_own_row_only(self):
        # a copy of the same set is cross mode: each query finds itself first
        g = lorentz_set(np.random.default_rng(48), 6, labels=[0, 1, 2, 3, 4, 5])
        twin = EmbeddingSet(g.points, g.labels)
        assert cmc_at_k(twin, g, 1) == 1.0
        with pytest.raises(InvalidArgumentError):
            mean_average_precision(g, g)


def row_distances(q, gallery):
    """One query's distances, computed alone: one gemv over the gallery."""
    P = gallery.points
    if gallery.geometry == "lorentz":
        K = gallery.curvature_K
        inner = P[:, 1:] @ q[1:] - P[:, 0] * q[0]
        return np.arccosh(np.maximum(-K * inner, 1.0)) / math.sqrt(K)
    norms = np.linalg.norm(q) * np.linalg.norm(P, axis=1)
    return 1.0 - (P @ q) / np.maximum(norms, 1e-300)


def lexsort_ranking(queries, gallery):
    """Each query's first relevant rank (inf when none) and AP (NaN when none),
    from a full (distance, index) sort of its row, computed alone."""
    index = np.arange(len(gallery))
    first, ap = np.full(len(queries), np.inf), np.full(len(queries), np.nan)
    for qi, (q, label) in enumerate(zip(queries.points, queries.labels)):
        order = np.lexsort((index, row_distances(q, gallery)))
        if queries is gallery:
            order = order[order != qi]
        ranks = np.flatnonzero(gallery.labels[order] == label)
        if len(ranks):
            first[qi] = ranks[0]
            ap[qi] = np.mean(np.arange(1, len(ranks) + 1) / (ranks + 1))
    return first, ap


def lexsort_metrics(queries, gallery, ks):
    """CMC@k for each k and mAP (None when no query has a relevant item), from
    lexsort_ranking."""
    first, ap = lexsort_ranking(queries, gallery)
    aps = ap[~np.isnan(ap)]
    return ({k: int(np.count_nonzero(first < k)) / len(queries) for k in ks},
            float(np.mean(aps)) if len(aps) else None)


def _rows(rng, n, dim, geometry, step):
    x = rng.normal(size=(n, dim))
    if step:  # coarse coordinates: many exactly equal distances
        x = np.round(x / step) * step
    if geometry == "lorentz":
        x = np.column_stack([np.sqrt(1.0 + (x ** 2).sum(axis=1)), x])
    return x


@st.composite
def ranking_cases(draw):
    """(queries, gallery, block): self or cross mode, both geometries, with
    quantised coordinates and duplicated rows for ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    geometry = draw(st.sampled_from(["lorentz", "euclidean"]))
    dim, step = draw(st.integers(1, 3)), draw(st.sampled_from([None, 0.5, 1.0]))
    n_classes = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    points = _rows(rng, n, dim, geometry, step)
    if draw(st.booleans()):
        points = points[rng.integers(0, n, n)]  # duplicated rows
    gallery = EmbeddingSet(points, rng.integers(0, n_classes, n), geometry)
    if draw(st.booleans()):
        queries = gallery
    else:
        m = draw(st.integers(1, 20))
        # some queries repeat gallery rows, so that their distances tie exactly
        points = np.where(rng.random((m, 1)) < 0.3, points[rng.integers(0, n, m)],
                          _rows(rng, m, dim, geometry, step))
        queries = EmbeddingSet(points, rng.integers(0, n_classes, m), geometry)
    # small blocks split the queries, and a block below len(gallery) holds one query
    return queries, gallery, draw(st.sampled_from([1, 7, 64, 1 << 14]))


def _line(xs, labels):
    """A Lorentz set of the points [sqrt(1 + x^2), x]: mirrored x tie exactly."""
    xs = np.asarray(xs, dtype=np.float64)
    return EmbeddingSet(np.column_stack([np.sqrt(1.0 + xs ** 2), xs]), labels)


_SELF_DUPLICATE = _line([0.0, 0.0, 1.0, -1.0], [0, 1, 0, 0])
# 21 mirrored points: the query at 0 ties on each mirrored pair, 0.3 and 0.7 do not
_MIRRORED = _line(np.r_[0.4 * np.arange(1, 11), -0.4 * np.arange(1, 11), 5.0],
                  np.arange(21) % 3)
_MIRRORED_ORIGIN = _line(np.r_[0.0, 0.4 * np.arange(1, 6), -0.4 * np.arange(1, 6), 0.3],
                         np.arange(12) % 3)


class TestBlockedRanking:
    """CMC@k and mAP equal a full lexsort oracle exactly, for every block size."""

    @settings(max_examples=300, deadline=None)
    @given(case=ranking_cases())
    # the only equal distances are between non-relevant items
    @example(case=(_line([0.0], [0]), _line([1.0, -1.0, 2.0, 0.5], [1, 1, 0, 0]), 1 << 14))
    # a relevant item ties with a non-relevant item at a lower index
    @example(case=(_line([0.0], [0]), _line([1.0, -1.0, 3.0], [1, 0, 0]), 1))
    # self mode: query 0's own row duplicates row 1, and queries 0 and 2 see ties
    @example(case=(_SELF_DUPLICATE, _SELF_DUPLICATE, 1))
    @example(case=(_SELF_DUPLICATE, _SELF_DUPLICATE, 1 << 14))
    # queries 0 and 3 tie, 1 and 2 do not: blocks of 3 queries (64 // 21), the last
    # one partial, so a tied and an untied row share the first block; then one
    # query row per block
    @example(case=(_line([0.0, 0.3, 0.7, 0.0], [0, 1, 2, 1]), _MIRRORED, 64))
    @example(case=(_line([0.0, 0.3, 0.7, 0.0], [0, 1, 2, 1]), _MIRRORED, 1))
    # self mode, one query row per block: only the row at 0 ties
    @example(case=(_MIRRORED_ORIGIN, _MIRRORED_ORIGIN, 1))
    def test_matches_lexsort_oracle(self, case):
        queries, gallery, block = case
        ks = sorted({1, 2, 5, len(gallery)})
        cmc, mean_ap = lexsort_metrics(queries, gallery, ks)
        with mock.patch.object(evaluation, "_BLOCK", block):
            first, ap = evaluation._rank_pair(queries, gallery)
        expect_first, expect_ap = lexsort_ranking(queries, gallery)
        assert first.tobytes() == expect_first.tobytes()
        assert ap.tobytes() == expect_ap.tobytes()
        with mock.patch.object(evaluation, "_BLOCK", block), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # queries with no relevant item
            for k in ks:
                got = cmc_at_k(queries, gallery, k)
                assert type(got) is float and got == cmc[k]
            if mean_ap is None:
                with pytest.raises(InvalidArgumentError):
                    mean_average_precision(queries, gallery)
            else:
                assert mean_average_precision(queries, gallery) == mean_ap

    @pytest.mark.parametrize("geometry,K", [("lorentz", 1.0), ("lorentz", 0.5),
                                            ("euclidean", 1.0)])
    def test_distance_rows_bit_identical_to_one_query(self, geometry, K):
        rng = np.random.default_rng(51)
        points = rng.normal(size=(20000, 8))
        queries = rng.normal(size=(16, 8))
        if geometry == "lorentz":
            points, queries = (np.column_stack([np.sqrt(1.0 / K + (x ** 2).sum(axis=1)), x])
                               for x in (points, queries))
        gallery = EmbeddingSet(points, np.zeros(20000, dtype=int), geometry, K)
        column = evaluation._gallery_column(gallery)
        block = evaluation._distances(queries, gallery, column)
        for row, q in zip(block, queries):
            assert row.tobytes() == row_distances(q, gallery).tobytes()
        # every pass in place, over whatever the buffer held
        buf = np.full((16, 20000), np.nan)
        assert evaluation._distances(queries, gallery, column, out=buf) is buf
        assert buf.tobytes() == block.tobytes()

    def test_gallery_norms_taken_once_per_call(self):
        # at 20000 gallery rows every block holds one query
        rng = np.random.default_rng(52)
        gallery = EmbeddingSet(rng.normal(size=(20000, 4)), rng.integers(0, 5, 20000),
                               "euclidean")
        queries = EmbeddingSet(rng.normal(size=(6, 4)), rng.integers(0, 5, 6), "euclidean")
        column, calls = evaluation._gallery_column, []
        with mock.patch.object(evaluation, "_gallery_column",
                               lambda g: calls.append(g) or column(g)):
            for metric in ("cmc@1", "map"):
                evaluate_metric(queries, gallery, metric)
            retrieve(queries.points[0], gallery)
        # one ranking pass serves cmc@1 and map; retrieve makes the other
        assert len(calls) == 2 and all(g is gallery for g in calls)


@pytest.fixture
def ranking_passes(monkeypatch):
    """The list of (queries, gallery) that _rank_pair ranks, from an empty memo."""
    monkeypatch.setattr(evaluation, "_last_ranking", None)
    passes, rank = [], evaluation._rank_pair

    def counted(queries, gallery):
        passes.append((queries, gallery))
        return rank(queries, gallery)
    monkeypatch.setattr(evaluation, "_rank_pair", counted)
    return passes


class TestRankingMemo:
    """The last pair's per-query ranks serve every metric on that pair, and only it."""

    METRICS = ("cmc@1", "cmc@5", "map")

    def _pair(self, seed, geometry="lorentz"):
        rng = np.random.default_rng(seed)
        gallery = EmbeddingSet(_rows(rng, 30, 3, geometry, None), rng.integers(0, 3, 30),
                               geometry)
        queries = EmbeddingSet(_rows(rng, 8, 3, geometry, None), rng.integers(0, 3, 8),
                               geometry)
        return queries, gallery

    def _oracle(self, queries, gallery):
        cmc, mean_ap = lexsort_metrics(queries, gallery, (1, 5))
        return {"cmc@1": cmc[1], "cmc@5": cmc[5], "map": mean_ap}

    def test_one_pass_per_pair(self, ranking_passes):
        a, b = self._pair(60), self._pair(61)
        expect_a, expect_b = self._oracle(*a), self._oracle(*b)
        assert [evaluate_metric(*a, m) for m in self.METRICS] == list(expect_a.values())
        assert len(ranking_passes) == 1
        # alternating pairs: each call is a new pair, and each gets its own value
        for m in self.METRICS:
            assert evaluate_metric(*b, m) == expect_b[m]
            assert evaluate_metric(*a, m) == expect_a[m]
        assert len(ranking_passes) == 1 + 2 * len(self.METRICS)

    def test_run_single_ranks_each_pair_once(self, ranking_passes):
        cfg = ExperimentConfig(
            manifold=ManifoldConfig(1.0, 4), alignment=AlignmentConfig(lambda_align=0.3),
            clip=ClipPolicy(), train=TrainConfig(epochs=3, batch_size=8),
            dataset=SyntheticDatasetSpec(num_classes=6, samples_per_class=15, input_dim=6,
                                         cluster_spread=2.0, class_center_scale=2.0),
            scenario=ScenarioSpec(kind="ext_class", class_fraction=0.5), seeds=(0,))
        res = run_single(cfg, 0, metrics=self.METRICS)
        # old/old, star/star, new/new and new/old
        expected = [(res.old, res.old), (res.star, res.star), (res.new, res.new),
                    (res.new, res.old)]
        assert len(ranking_passes) == len(expected)
        for (q, g), (q_gen, g_gen) in zip(ranking_passes, expected):
            assert q is q_gen.queries and g is g_gen.gallery
        assert set(res.reports) == set(self.METRICS)

    @pytest.mark.parametrize("geometry", ["lorentz", "euclidean"])
    def test_rows_written_in_place_are_ranked_anew(self, ranking_passes, geometry):
        rng = np.random.default_rng(62)
        points = _rows(rng, 30, 3, geometry, None)
        gallery = EmbeddingSet(points, rng.integers(0, 3, 30), geometry)
        queries = self._pair(63, geometry)[0]
        before = [evaluate_metric(queries, gallery, m) for m in self.METRICS]
        assert before == list(self._oracle(queries, gallery).values())
        # the set holds the caller's array: new rows written into it change the ranking
        points[:] = _rows(rng, 30, 3, geometry, None)
        assert gallery.points is points
        after = [evaluate_metric(queries, gallery, m) for m in self.METRICS]
        assert after == list(self._oracle(queries, gallery).values()) != before
        assert len(ranking_passes) == 2

    def test_self_mode_and_equal_copy_keep_their_own_values(self, ranking_passes):
        g = lorentz_set(np.random.default_rng(64), 12, labels=[0, 1, 2] * 4)
        twin = EmbeddingSet(g.points.copy(), g.labels.copy())
        self_map, twin_map = brute_map(g, g), brute_map(twin, g)
        assert self_map < twin_map
        # self mode drops each query's own row; the copy finds it first
        for _ in range(2):
            assert evaluate_metric(g, g, "cmc@1") == brute_cmc(g, g, 1) < 1.0
            assert evaluate_metric(twin, g, "cmc@1") == 1.0
            assert evaluate_metric(g, g, "map") == pytest.approx(self_map, abs=1e-12)
            assert evaluate_metric(twin, g, "map") == pytest.approx(twin_map, abs=1e-12)
        assert len(ranking_passes) == 8

    def test_skip_warning_and_no_relevant_error_on_a_memo_hit(self, ranking_passes):
        rng = np.random.default_rng(65)
        q = lorentz_set(rng, 3, labels=[0, 0, 9])
        g = lorentz_set(rng, 4, labels=[0, 0, 1, 1])
        cmc_at_k(q, g, 1)
        with pytest.warns(UserWarning, match="1 queries had no relevant gallery item"):
            mean_average_precision(q, g)
        none = lorentz_set(rng, 2, labels=[8, 9])
        assert cmc_at_k(none, g, 1) == 0.0
        with pytest.raises(InvalidArgumentError, match="no query has a relevant"):
            mean_average_precision(none, g)
        assert len(ranking_passes) == 2


class TestCmc:
    def test_two_per_class_fixture(self):
        # two tight clusters, two items each: the nearest other item shares
        # the label, so self-retrieval CMC@1 is 1
        zs = np.array([[1.0, 0.0, 0.0], [1.01, 0.0, 0.0],
                       [-1.0, 0.0, 0.0], [-1.01, 0.0, 0.0]])
        pts = [expm_origin(z, MCFG) for z in zs]
        g = EmbeddingSet.from_lorentz([p.time for p in pts],
                                      [p.space for p in pts], [0, 0, 1, 1])
        assert cmc_at_k(g, g, 1) == 1.0

    def test_saturation_at_large_k(self):
        rng = np.random.default_rng(4)
        q = lorentz_set(rng, 10, labels=rng.integers(0, 4, size=10))
        g = lorentz_set(rng, 12, labels=rng.integers(0, 2, size=12))
        present = np.isin(q.labels, np.unique(g.labels)).mean()
        assert cmc_at_k(q, g, len(g)) == pytest.approx(present)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        q = lorentz_set(rng, 15)
        g = lorentz_set(rng, 20)
        vals = [cmc_at_k(q, g, k) for k in (1, 3, 5, 10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = lorentz_set(rng, 8)
            g = lorentz_set(rng, 12)
            for k in (1, 3):
                assert cmc_at_k(q, g, k) == brute_cmc(q, g, k)

    def test_bad_k(self):
        rng = np.random.default_rng(7)
        g = lorentz_set(rng, 4)
        with pytest.raises(InvalidArgumentError):
            cmc_at_k(g, g, 0)


class TestMeanAveragePrecision:
    def test_all_relevant_first(self):
        zs = np.array([[0.1, 0.0, 0.0], [0.12, 0.0, 0.0], [3.0, 0.0, 0.0]])
        pts = [expm_origin(z, MCFG) for z in zs]
        g = EmbeddingSet.from_lorentz([p.time for p in pts],
                                      [p.space for p in pts], [0, 0, 1])
        q = EmbeddingSet.from_lorentz([pts[0].time], [pts[0].space], [0])
        assert mean_average_precision(q, g) == 1.0

    def test_single_relevant_rank_two(self):
        zs = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.5, 0.0, 0.0]])
        pts = [expm_origin(z, MCFG) for z in zs]
        g = EmbeddingSet.from_lorentz([p.time for p in pts[1:]],
                                      [p.space for p in pts[1:]], [1, 0])
        q = EmbeddingSet.from_lorentz([pts[0].time], [pts[0].space], [0])
        assert mean_average_precision(q, g) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = lorentz_set(rng, 8)
            g = lorentz_set(rng, 12)
            assert mean_average_precision(q, g) == pytest.approx(
                brute_map(q, g), abs=1e-12)

    def test_zero_relevant_warns(self):
        rng = np.random.default_rng(9)
        q = lorentz_set(rng, 3, labels=[0, 0, 9])
        g = lorentz_set(rng, 4, labels=[0, 0, 1, 1])
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            mean_average_precision(q, g)
        assert any("skipped" in str(x.message) for x in w)

    def test_no_relevant_raises(self):
        rng = np.random.default_rng(10)
        q = lorentz_set(rng, 2, labels=[8, 9])
        g = lorentz_set(rng, 3, labels=[0, 1, 2])
        with pytest.raises(InvalidArgumentError):
            mean_average_precision(q, g)


class TestCompatibilityMetrics:
    def test_p_com_anchors(self):
        assert p_com(0.4, 0.4, 0.9) == 0.0
        assert p_com(0.9, 0.4, 0.9) == 1.0

    def test_p_com_reference_row(self):
        # cross 0.572, old self 0.425, unaligned-new self 0.722
        assert p_com(0.572, 0.425, 0.722) == pytest.approx(0.495, abs=0.01)

    def test_p_com_degenerate(self):
        with pytest.raises(DegenerateBaselineError):
            p_com(0.5, 0.7, 0.7)

    def test_p_up_anchors(self):
        assert p_up(0.5, 0.5) == 0.0
        assert p_up(0.55, 0.5) == pytest.approx(0.1, abs=1e-12)

    def test_p_up_reference_row(self):
        assert p_up(0.722, 0.722) == pytest.approx(-0.001, abs=2e-3)

    def test_p_up_degenerate(self):
        with pytest.raises(DegenerateBaselineError):
            p_up(0.5, 0.0)

    def test_report_recomputable(self):
        rep = CompatReport.compute("cmc@1", self_value=0.9, cross_value=0.6,
                                   old_self_value=0.5, star_self_value=0.95)
        assert rep.p_com == pytest.approx(
            (rep.cross_value - rep.old_self_value)
            / (rep.star_self_value - rep.old_self_value), abs=1e-12)
        assert rep.p_up == pytest.approx(
            (rep.self_value - rep.star_self_value) / rep.star_self_value, abs=1e-12)


    def test_report_items(self):
        # the keys and their order in report.kv
        rep = CompatReport("map", 0.9, 0.6, 0.5, 0.95, 0.2, -0.05)
        assert rep.as_items() == [("map.self", 0.9), ("map.cross", 0.6),
                                  ("map.old_self", 0.5), ("map.star_self", 0.95),
                                  ("map.p_com", 0.2), ("map.p_up", -0.05)]


class TestCompatibilityMatrix:
    def _table(self, rng, n_gen):
        """metric values of n_gen random generations, queries (rows) against galleries."""
        gens = []
        for tag in range(n_gen):
            labels = rng.integers(0, 3, size=10)
            gens.append((lorentz_set(rng, 10, labels=labels, tag=tag),
                         lorentz_set(rng, 10, labels=labels, tag=tag)))
        return [[evaluate_metric(q, g, "map") for _, g in gens] for q, _ in gens]

    def test_two_generations_reduce_to_p_com(self):
        rng = np.random.default_rng(11)
        values = self._table(rng, 2)
        stars = self._table(rng, 2)
        m = compatibility_matrix(values, [stars[0][0], stars[1][1]], "map")
        assert m[1, 0] == pytest.approx(p_com(values[1][0], values[0][0], stars[1][1]),
                                        abs=1e-12)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_needs_two_generations(self):
        rng = np.random.default_rng(12)
        values = self._table(rng, 1)
        with pytest.raises(InvalidArgumentError):
            compatibility_matrix(values, [values[0][0]], "map")

    def test_entries_are_p_com(self):
        values = [[0.8, 0.3, 0.2], [0.5, 0.9, 0.4], [0.45, 0.6, 0.7]]
        star_self = [0.8, 0.95, 0.75]
        m = compatibility_matrix(values, star_self, "cmc@1")
        for i in range(3):
            for j in range(3):
                want = 0.0 if i == j else p_com(values[i][j], values[j][j], star_self[i])
                assert m[i, j] == want

    @pytest.mark.parametrize("values, star_self", [
        ([[0.5]], [0.6]),                                  # one generation
        ([[0.5, 0.4, 0.3], [0.2, 0.6, 0.1]], [0.7, 0.8]),  # 2 rows of 3
        ([[0.5, 0.4], [0.2]], [0.7, 0.8]),                 # ragged
        ([[0.5, 0.4], [0.2, 0.6]], [0.7]),                 # a star short
        ([[0.5, 0.4], [0.2, 0.6]], [0.7, 0.8, 0.9])])      # a star over
    def test_refuses_bad_shapes(self, values, star_self):
        with pytest.raises(InvalidArgumentError):
            compatibility_matrix(values, star_self, "map")

    def test_degenerate_anchor_names_metric(self):
        # generation 1's star scores what generation 0 scores on itself
        with pytest.raises(DegenerateBaselineError) as info:
            compatibility_matrix([[0.6, 0.3], [0.4, 0.7]], [0.9, 0.6], "cmc@5")
        assert str(info.value).startswith("cmc@5: ")


class TestEmbeddingStore:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        es = lorentz_set(rng, 9, tag=3)
        path = tmp_path / "set.emb"
        save_embedding_set(path, es)
        back = load_embedding_set(path)
        assert np.array_equal(back.points, es.points)
        assert np.array_equal(back.labels, es.labels)
        assert back.geometry == es.geometry
        assert back.curvature_K == es.curvature_K
        assert back.generation_tag == 3

    def test_euclidean_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        es = EmbeddingSet(rng.normal(size=(5, 4)), rng.integers(0, 2, size=5),
                          "euclidean", 1.0, 1)
        path = tmp_path / "set.emb"
        save_embedding_set(path, es)
        back = load_embedding_set(path)
        assert np.array_equal(back.points, es.points)
        assert back.geometry == "euclidean"

    @pytest.mark.parametrize("geometry,width", [("lorentz", 3), ("euclidean", 2)])
    def test_golden_bytes(self, tmp_path, geometry, width):
        points = np.arange(2 * width, dtype=np.float64).reshape(2, width) / 7.0 + 1.0
        if geometry == "lorentz":  # the same space parts on the K = 0.75 sheet
            points = on_sheet(points[:, 1:], K=0.75)
        labels = [5, -3]
        es = EmbeddingSet(points, labels, geometry, 0.75, 2)
        expected = b"HBCT" + struct.pack("<IIII", 1, ("euclidean", "lorentz").index(geometry),
                                         2, width) + struct.pack("<di", 0.75, 2)
        for row, label in zip(points, labels):
            expected += struct.pack(f"<{width}d", *row) + struct.pack("<i", label)
        path = tmp_path / "golden.emb"
        save_embedding_set(path, es)
        assert path.read_bytes() == expected
        back = load_embedding_set(path)
        assert back.points.dtype == np.float64 and back.points.flags.c_contiguous
        assert np.array_equal(back.points, points)
        assert back.labels.tolist() == labels and back.geometry == geometry

    @pytest.mark.parametrize("tag", [-1, 2**31, 1.5])
    def test_generation_tag_outside_int32_rejected(self, tag):
        # the header's int32 field holds tags 0 .. 2**31 - 1
        with pytest.raises(InvalidArgumentError, match="generation tag"):
            EmbeddingSet(np.eye(2), [0, 1], "euclidean", 1.0, tag)

    def _saved(self, tmp_path):
        path = tmp_path / "set.emb"
        save_embedding_set(path, lorentz_set(np.random.default_rng(15), 4))
        return path

    def test_truncated_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        for cut in (len(data) - 1, 20):
            path.write_bytes(data[:cut])
            with pytest.raises(InvalidArgumentError):
                load_embedding_set(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(InvalidArgumentError):
            load_embedding_set(path)

    def test_bad_geometry_index_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 7)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidArgumentError):
            load_embedding_set(path)

    def test_label_outside_int32_rejected(self, tmp_path):
        es = EmbeddingSet(np.zeros((2, 2)), [0, 2**31], "euclidean")
        with pytest.raises(InvalidArgumentError):
            save_embedding_set(tmp_path / "set.emb", es)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(InvalidArgumentError):
            load_embedding_set(path)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EmbeddingSet(np.zeros((3, 2)), [0, 1], "euclidean")

    def test_unknown_geometry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EmbeddingSet(np.zeros((1, 2)), [0], "spherical")


class TestRowBlocks:
    """The store and the set checks walk rows in blocks; with a block of 1, 3 or 7
    rows they behave as with one block."""

    @pytest.fixture(params=[1, 3, 7])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(evaluation, "_ROW_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("n", [0, 1, 2, 4095, 4096, 4097, 8193])
    def test_bounds(self, n):
        blocks = evaluation._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, math.ceil(n / 4096))
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1 and (min(sizes) >= 2048 or len(blocks) == 1)

    @pytest.mark.parametrize("geometry", ["lorentz", "euclidean"])
    def test_golden_bytes_and_round_trip(self, tmp_path, block, geometry):
        rng = np.random.default_rng(60)
        points = rng.normal(size=(10, 3))
        if geometry == "lorentz":
            points = on_sheet(points[:, 1:], K=0.75)
        labels = rng.integers(-5, 5, size=10)
        es = EmbeddingSet(points, labels, geometry, 0.75, 4)
        expected = struct.pack("<4sIIIIdi", b"HBCT", 1,
                               ("euclidean", "lorentz").index(geometry), 10, 3, 0.75, 4)
        for row, label in zip(points, labels):
            expected += struct.pack("<3di", *row, label)
        path = tmp_path / "set.emb"
        save_embedding_set(path, es)
        assert path.read_bytes() == expected
        back = load_embedding_set(path)
        assert back.points.tobytes() == points.tobytes() and back.points.flags.c_contiguous
        assert back.labels.dtype == np.int64 and back.labels.tolist() == labels.tolist()
        assert (back.geometry, back.curvature_K, back.generation_tag) == (geometry, 0.75, 4)

    def test_empty_store(self, tmp_path, block):
        path = tmp_path / "empty.emb"
        save_embedding_set(path, EmbeddingSet(np.empty((0, 5)), [], "euclidean"))
        assert path.stat().st_size == 32
        back = load_embedding_set(path)
        assert back.points.shape == (0, 5) and back.labels.shape == (0,)

    def test_length_off_by_one_at_a_block_edge(self, tmp_path, block):
        path = tmp_path / "set.emb"
        save_embedding_set(path, lorentz_set(np.random.default_rng(61), 10))
        data = path.read_bytes()
        edge = 32 + evaluation._row_blocks(10)[0][1] * (len(data) - 32) // 10
        for size in (edge - 1, edge + 1, len(data) - 1, len(data) + 1):
            path.write_bytes(data[:size] + b"\x00" * (size - len(data)))
            with pytest.raises(InvalidArgumentError, match=f"store is {size} bytes, its "
                                                           f"header implies {len(data)}"):
                load_embedding_set(path)

    @pytest.mark.parametrize("defect", ["nan", "off sheet", "both"])
    def test_bad_row_in_a_later_block(self, tmp_path, block, defect):
        # the message names the global row; a non-finite row anywhere is refused
        # first, as over one block
        points = lorentz_set(np.random.default_rng(62), 10).points
        second, last = evaluation._row_blocks(10)[1][0] + 1, 9
        if defect != "nan":
            points[second, 0] = -points[second, 0]
        if defect != "off sheet":
            points[last, 1] = math.nan
        message = ("must be finite" if defect != "off sheet"
                   else f"Lorentz row {second} is off the upper sheet of <x, x>_L = -1/K: "
                        f"time {points[second, 0]:.6g}, defect ")
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            EmbeddingSet(points, np.zeros(10, int))
        path = tmp_path / "bad.emb"
        path.write_bytes(struct.pack("<4sIIIIdi", b"HBCT", 1, 1, 10, 4, 1.0, 0) + b"".join(
            struct.pack("<4di", *row, 0) for row in points))
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            load_embedding_set(path)

    def test_load_memory_is_the_result(self, tmp_path):
        # the reader holds one block of records besides the set it returns
        rng, n = np.random.default_rng(63), 200_000
        es = EmbeddingSet(on_sheet(rng.normal(size=(n, 8))), rng.integers(0, 20, n))
        path = tmp_path / "big.emb"
        save_embedding_set(path, es)
        del es
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            back = load_embedding_set(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        result = back.points.nbytes + back.labels.nbytes
        assert peak <= result + 4 * 2**20, (peak, result)
