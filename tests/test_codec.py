from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from web_based_search_engine_ray.stages import codec


def _encode(values) -> bytes:
    """One varbyte blob holding all of ``values``."""
    v = np.asarray(values, dtype=np.uint64)
    return codec.varbyte_encode_slices(v, [v.size])[0].tobytes()


def _encode_sorted(values) -> bytes:
    v = np.asarray(values, dtype=np.int64)
    return _encode(codec.delta_concat(v, [v.size]))


def _decode_add_at(blob: bytes) -> np.ndarray:
    """The scatter-add varbyte decoder the shift-or decoder replaced:
    kept as its reference."""
    b = np.frombuffer(blob, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    n = int(is_end.sum())
    group = np.zeros(b.size, dtype=np.int64)
    np.cumsum(is_end[:-1], out=group[1:])
    group_starts = np.zeros(n, dtype=np.int64)
    end_idx = np.flatnonzero(is_end)
    group_starts[1:] = end_idx[:-1] + 1
    pos_in_group = np.arange(b.size, dtype=np.int64) - group_starts[group]
    vals = np.zeros(n, dtype=np.uint64)
    np.add.at(
        vals,
        group,
        (b.astype(np.uint64) & np.uint64(0x7F))
        << (np.uint64(7) * pos_in_group.astype(np.uint64)),
    )
    return vals


def test_varbyte_roundtrip_simple():
    for vals in ([], [0], [1], [127], [128], [16383], [16384], [2**62],
                 [0, 1, 127, 128, 300, 2**40, 5]):
        out = codec.varbyte_decode(_encode(vals))
        assert out.tolist() == vals


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varbyte_roundtrip_property(vals):
    blob = _encode(vals)
    out = codec.varbyte_decode(blob)
    assert out.tolist() == vals
    np.testing.assert_array_equal(out, _decode_add_at(blob))
    # bytes and uint8 buffers decode alike
    np.testing.assert_array_equal(
        codec.varbyte_decode(np.frombuffer(blob, np.uint8)), out
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**40),
                         max_size=20), max_size=20))
def test_varbyte_encode_slices_offsets(slices):
    """The (blob, offsets) form cuts exactly the per-slice encodings."""
    lens = np.array([len(s) for s in slices], dtype=np.int64)
    flat = np.array([v for s in slices for v in s], dtype=np.uint64)
    blob, offs = codec.varbyte_encode_slices(flat, lens)
    assert blob.dtype == np.uint8 and len(offs) == len(slices) + 1
    for i, s in enumerate(slices):
        assert blob[offs[i]:offs[i + 1]].tobytes() == _encode(s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=100))
def test_sorted_roundtrip(vals):
    vals = sorted(vals)
    arr = np.array(vals, dtype=np.int64)
    out = codec.undelta_concat(codec.varbyte_decode(_encode_sorted(arr)),
                               [arr.size])
    assert out.tolist() == vals


def test_position_lists_roundtrip():
    lists = [np.array([0, 3, 7]), np.array([], dtype=np.int64),
             np.array([5]), np.array([2, 2000, 2001])]
    lens = np.array([len(x) for x in lists])
    blob = _encode(codec.delta_concat(np.concatenate(lists), lens))
    flat = codec.undelta_concat(codec.varbyte_decode(blob), lens)
    back = np.split(flat, np.cumsum(lens)[:-1])
    assert len(back) == len(lists)
    for a, b in zip(lists, back):
        assert a.tolist() == b.tolist()


def test_compression_is_compact():
    # 1000 doc ids with small gaps → ~1 byte per id
    ids = np.cumsum(np.random.default_rng(0).integers(1, 60, 1000))
    blob = _encode_sorted(ids)
    assert len(blob) < 1100
