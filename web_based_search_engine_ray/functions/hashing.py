"""Stable (process-independent) hashing utilities.

Python's builtin ``hash`` is salted per process; everything here must be
deterministic across workers and across runs, so all hashes derive from
md5 (or small closed-form mixers seeded by md5).
"""

from __future__ import annotations

import hashlib

import numpy as np


_MASK63_INT = 0x7FFF_FFFF_FFFF_FFFF
_MASK63 = np.uint64(_MASK63_INT)


def md5_u64(s: str | bytes) -> int:
    """First 8 bytes (big-endian) of md5 as an unsigned 64-bit int —
    SQL-expressible as ``CAST('0x' || substr(md5(s),1,16) AS UBIGINT)``.
    Its 63-bit forms: ``& mask`` (:func:`stable_hash63`: term buckets,
    derived doc ids) and ``>> 1`` (exact-duplicate text keys)."""
    b = s.encode("utf-8") if isinstance(s, str) else s
    return int.from_bytes(hashlib.md5(b).digest()[:8], "big")


#: per-worker string → md5_u64 memo of :func:`md5_u64_array` (tokens
#: and terms repeat heavily across batches; md5 runs once per unique
#: string)
_MD5_MEMO: dict[str, int] = {}
_MD5_MEMO_CAP = 1 << 20


def _md5_u64_memo(s: str) -> int:
    h = _MD5_MEMO.get(s)
    if h is None:
        h = md5_u64(s)
        if len(_MD5_MEMO) < _MD5_MEMO_CAP:
            _MD5_MEMO[s] = h
    return h


def md5_u64_array(strings) -> np.ndarray:
    """uint64 :func:`md5_u64` per string, through the per-worker memo."""
    return np.fromiter(map(_md5_u64_memo, strings), dtype=np.uint64,
                       count=len(strings))


def text_key63_array(texts) -> np.ndarray:
    """int64 exact-duplicate key per text: :func:`md5_u64` ``>> 1``.
    Whole texts rarely repeat, so they skip the memo."""
    return np.fromiter((md5_u64(t) >> 1 for t in texts), dtype=np.int64,
                       count=len(texts))


def stable_hash63(s: str | bytes) -> int:
    """:func:`md5_u64` masked to 63 bits (non-negative int64)."""
    return md5_u64(s) & _MASK63_INT


def stable_hash63_array(strings) -> np.ndarray:
    """:func:`stable_hash63` per string, as int64."""
    return (md5_u64_array(strings) & _MASK63).astype(np.int64)


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a63_array(col) -> np.ndarray:
    """Vectorized FNV-1a 64-bit (masked to 63 bits) over an Arrow string
    column, reading the UTF-8 data buffer zero-copy: one vectorized
    xor/multiply per byte POSITION (bounded by the longest string), not
    one hash call per row.  Used for transient partitioning keys (url
    buckets, edge buckets) — persisted formats (term buckets, derived
    doc ids) keep the md5-based ``stable_hash63`` for compatibility."""
    import pyarrow as pa

    if isinstance(col, (list, np.ndarray)):
        col = pa.array(col, type=pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    odt = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], dtype=odt)[
        col.offset:col.offset + n + 1
    ].astype(np.int64)
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, dtype=np.uint8)
    )
    starts = offsets[:-1]
    lens = offsets[1:] - starts
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(int(lens.max())):
            active = np.flatnonzero(lens > j)
            b = data[starts[active] + j].astype(np.uint64)
            h[active] = (h[active] ^ b) * _FNV_PRIME
    return (h & _MASK63).astype(np.int64)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — derives a second independent
    hash stream from a first one (edge-pair buckets, sketch hashes)."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x
