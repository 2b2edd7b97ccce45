"""Fuzzing the binary readers: any byte string either loads as a well-formed
embedding store / checkpoint / dataset or raises InvalidArgumentError, nothing
else.

Two input families per reader: arbitrary bytes, and well-formed headers whose
fields (counts, widths, layer shapes, floats) and body lengths are random; for
datasets, valid archives with altered arrays or bytes (labels out of range
among them).
"""

import io
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hbct.encoder import load_checkpoint
from hbct.errors import InvalidArgumentError
from hbct.evaluation import load_embedding_set
from hbct.scenarios import Dataset, load_dataset

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

UINT32 = st.integers(0, 2**32 - 1)
INT32 = st.integers(-2**31, 2**31 - 1)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
VERSION = st.sampled_from([1, 1, 1, 0])  # mostly the one the readers accept


def small_or_any(limit):
    return st.one_of(st.integers(0, limit), UINT32)


@st.composite
def body(draw, implied):
    """Bytes of the implied length, give or take a few, when that is small;
    otherwise a short arbitrary tail."""
    if implied <= 2048 and draw(st.booleans()):
        n = max(0, implied + draw(st.sampled_from([0, 0, 0, -1, 1, -8, 8])))
        return draw(st.binary(min_size=n, max_size=n))
    return draw(st.binary(max_size=64))


@st.composite
def store_files(draw):
    version, geometry = draw(VERSION), draw(st.integers(0, 2))
    count, width = draw(small_or_any(6)), draw(small_or_any(6))
    header = struct.pack("<4sIIIIdi", b"HBCT", version, geometry, count, width,
                         draw(ANY_FLOAT), draw(INT32))
    return header + draw(body(count * (8 * width + 4)))


@st.composite
def checkpoint_files(draw):
    version, kind = draw(VERSION), draw(VERSION)
    dims = draw(st.lists(small_or_any(5), min_size=1, max_size=4))
    if draw(st.booleans()):  # chained shapes, the only ones a writer produces
        table = list(zip(dims, dims[1:])) or [(dims[0], dims[0])]
    else:
        table = list(zip(dims, reversed(dims)))
    n_layers = draw(st.one_of(st.just(len(table)), small_or_any(5)))
    n_classes = draw(small_or_any(4))
    header = struct.pack("<4sIIiddII", b"HBCT", version, kind, draw(INT32),
                         draw(ANY_FLOAT), draw(ANY_FLOAT), n_layers, n_classes)
    header += b"".join(struct.pack("<II", i, o) for i, o in table)
    implied = (8 * sum(o * (i + 1) for i, o in table)
               + 8 * n_classes * table[-1][1])
    return header + draw(body(implied))


def _loads_or_refuses(load, tmp_path, data, name):
    path = tmp_path / name
    path.write_bytes(data)
    try:
        return load(path)
    except InvalidArgumentError:
        return None


@FUZZ
@given(data=st.one_of(st.binary(max_size=256), store_files()))
@example(data=struct.pack("<4sIIIIdi", b"HBCT", 1, 0, 0, 2**28, 1.0, 0))  # record > C int
@example(data=struct.pack("<4sIIIIdi", b"HBCT", 1, 1, 0, 2, 1.0, -1))  # negative tag
def test_store_reader(tmp_path, data):
    es = _loads_or_refuses(load_embedding_set, tmp_path, data, "fuzz.emb")
    if es is not None:
        count, width = struct.unpack_from("<II", data, 12)
        assert es.points.shape == (count, width) and len(es.labels) == count
        assert np.isfinite(es.points).all()
        assert es.generation_tag >= 0


def one_unit_checkpoint(K, zeta, *body, generation=0):
    """A 1 -> 1 layer and a one-class head: three floats of body."""
    return (struct.pack("<4sIIiddIIII", b"HBCT", 1, 1, generation, K, zeta, 1, 1, 1, 1)
            + struct.pack("<3d", *body))


@FUZZ
@given(data=st.one_of(st.binary(max_size=256), checkpoint_files()))
@example(data=one_unit_checkpoint(1.0, 1.0, float("nan"), 0.0, 0.0))
@example(data=one_unit_checkpoint(1.0, 1.0, 0.5, 0.0, float("-inf")))
@example(data=one_unit_checkpoint(float("nan"), 1.0, 0.5, 0.0, 0.0))
@example(data=one_unit_checkpoint(1.0, 0.0, 0.5, 0.0, 0.0))
@example(data=one_unit_checkpoint(1.0, 0.8, 0.5, 0.0, 0.0, generation=-1))
@example(data=struct.pack("<4sIIiddIIII", b"HBCT", 1, 1, 0, 1.0, 1.0, 1, 0, 0, 0))  # no body
def test_checkpoint_reader(tmp_path, data):
    loaded = _loads_or_refuses(load_checkpoint, tmp_path, data, "fuzz.ckpt")
    if loaded is not None:
        model, head, K, zeta = loaded
        n_layers, n_classes = struct.unpack_from("<II", data, 32)
        assert len(model.layers) == n_layers
        assert head.shape == (n_classes, model.output_dim)
        assert all(np.isfinite(a).all() for a in model.params() + [head])
        assert 0 < K < np.inf and 0 < zeta < np.inf
        assert model.generation_tag >= 0


BASE_X, BASE_Y = np.arange(12.0).reshape(4, 3), np.arange(4) % 3
# a valid dataset: 4 rows of width 3 in each split
VALID_ARRAYS = {f"{split}_{part}": value for split in ("train", "query", "gallery")
                for part, value in (("X", BASE_X), ("y", BASE_Y))}


def dataset_bytes(save=np.savez, **changes):
    """The valid dataset archive with the given arrays replaced, or dropped
    where the value is None."""
    arrays = {**VALID_ARRAYS, **changes}
    buf = io.BytesIO()
    save(buf, **{key: value for key, value in arrays.items() if value is not None})
    return buf.getvalue()


@st.composite
def dataset_files(draw):
    """A dataset archive, stored or compressed, with at most one array
    replaced by one of another dtype, shape or value, or dropped; then
    possibly some bytes overwritten or the file cut short."""
    changes = {}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(VALID_ARRAYS)))
        v = VALID_ARRAYS[key]
        changes[key] = draw(st.sampled_from([
            None, v[:0], v[:1], v[..., None], np.float64(1.0), v.astype(str),
            v.astype(bool), v + 0.5, v - 9, v * np.nan, v * 1j, v + 4, v + 2**31,
            v.astype(np.uint64) + 2**63]))
    data = bytearray(dataset_bytes(draw(st.sampled_from([np.savez, np.savez_compressed])),
                                   **changes))
    kind = draw(st.sampled_from(["none", "bytes", "cut"]))
    if kind == "bytes":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif kind == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    return bytes(data)


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, BASE_X)
    return buf.getvalue()


@FUZZ
@given(data=st.one_of(st.binary(max_size=256), dataset_files()))
@example(data=dataset_bytes()[:200])  # truncated
@example(data=dataset_bytes(train_y=None))
@example(data=_npy_bytes())
@example(data=b"hello world")
@example(data=dataset_bytes(train_X=BASE_X.astype(str)))
@example(data=dataset_bytes(train_X=BASE_X[:0], train_y=BASE_Y[:0]))
@example(data=dataset_bytes(train_X=np.where(BASE_X == 5.0, np.nan, BASE_X)))
@example(data=dataset_bytes(train_y=BASE_Y + 0.5))
@example(data=dataset_bytes(query_y=BASE_Y - 9))
@example(data=dataset_bytes(train_y=BASE_Y + 2))  # a label of 4 needs a 5th train row
@example(data=dataset_bytes(train_y=BASE_Y * 200000))
@example(data=dataset_bytes(gallery_y=BASE_Y + 2**31 - 2))  # 2**31 overflows int32
@example(data=dataset_bytes(query_y=BASE_Y.astype(np.uint64) + 2**63))
def test_dataset_reader(tmp_path, data):
    ds = _loads_or_refuses(load_dataset, tmp_path, data, "fuzz.npz")
    if ds is not None:
        assert isinstance(ds, Dataset) and len(ds.train_X) > 0
        for X, y in ((ds.train_X, ds.train_y), (ds.query_X, ds.query_y),
                     (ds.gallery_X, ds.gallery_y)):
            assert X.ndim == 2 and X.shape[1] == ds.train_X.shape[1] and len(y) == len(X)
            assert np.isfinite(X).all()
            assert y.dtype.kind in "iu" and np.all(y >= 0) and np.all(y < 2**31)
        assert ds.train_y.max() < len(ds.train_y)
