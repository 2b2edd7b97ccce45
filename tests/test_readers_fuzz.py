"""Fuzzing the binary readers: any byte string either loads as a well-formed
embedding store / checkpoint or raises InvalidArgumentError, nothing else.

Two input families per reader: arbitrary bytes, and well-formed headers whose
fields (counts, widths, layer shapes, floats) and body lengths are random.
"""

import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hbct.encoder import load_checkpoint
from hbct.errors import InvalidArgumentError
from hbct.evaluation import load_embedding_set

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
def test_store_reader(tmp_path, data):
    es = _loads_or_refuses(load_embedding_set, tmp_path, data, "fuzz.emb")
    if es is not None:
        count, width = struct.unpack_from("<II", data, 12)
        assert es.points.shape == (count, width) and len(es.labels) == count
        assert np.isfinite(es.points).all()


@FUZZ
@given(data=st.one_of(st.binary(max_size=256), checkpoint_files()))
def test_checkpoint_reader(tmp_path, data):
    loaded = _loads_or_refuses(load_checkpoint, tmp_path, data, "fuzz.ckpt")
    if loaded is not None:
        model, head, _, _ = loaded
        n_layers, n_classes = struct.unpack_from("<II", data, 32)
        assert len(model.layers) == n_layers
        assert head.shape == (n_classes, model.output_dim)
