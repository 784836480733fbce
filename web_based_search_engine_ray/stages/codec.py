"""Delta-gap + varbyte codec for posting lists (numpy-vectorized).

Replaces the reference's Java-serialized ``List<Posting>`` values
(``PostingIndex.java:21``, jdbm HTree) with a compact binary segment
encoding: sorted doc-id lists are delta-gap encoded then varbyte
compressed; per-document position lists are concatenated with the same
treatment (first position absolute, then gaps), sliced back using the
per-document term frequencies.

Varbyte: little-endian 7-bit groups; high bit set = continuation.
Values must be unsigned and < 2**63.
"""

from __future__ import annotations

import numpy as np


def varbyte_encode_slices(values: np.ndarray,
                          lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``values`` in one vectorized pass and cut the blob into
    slices of ``lengths[i]`` values each → ``(blob, offsets)``: the
    ``uint8`` bytes and the ``len(lengths) + 1`` int64 byte offsets of
    the slices (zero lengths allowed).  The (blob, offsets) pair is an
    Arrow binary column's layout, so callers build columns from it
    without per-row ``bytes`` objects."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if v.size and int(v.max()) >= (1 << 63):
        raise ValueError("varbyte values must be < 2**63")
    nbytes = varbyte_nbytes(v)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]) if v.size else 0, dtype=np.uint8)
    for k in range(int(nbytes.max()) if v.size else 0):
        sel = np.flatnonzero(nbytes > k)
        chunk = (v[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[sel] - 1) > k  # continuation bit unless last byte
        out[starts[sel] + k] = chunk.astype(np.uint8) | (
            cont.astype(np.uint8) << 7
        )
    byte_ends = np.concatenate(([0], ends))
    return out, byte_ends[np.concatenate(([0], np.cumsum(lengths)))]


def varbyte_decode(blob) -> np.ndarray:
    """Decode varbyte bytes (``bytes`` or a ``uint8`` array holding any
    number of back-to-back encodings) to a uint64 array: one shift-or
    pass per byte position, bounded by the longest value."""
    b = np.frombuffer(blob, dtype=np.uint8)
    ends = np.flatnonzero(b < 0x80)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    nbytes = ends - starts + 1
    vals = (b[starts] & 0x7F).astype(np.uint64)
    for k in range(1, int(nbytes.max()) if ends.size else 0):
        sel = np.flatnonzero(nbytes > k)
        vals[sel] |= (b[starts[sel] + k] & 0x7F).astype(np.uint64) << (
            np.uint64(7 * k)
        )
    return vals


def varbyte_nbytes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value: ceil(bitlength/7), min 1 — exact
    via threshold comparisons (no float log)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.ones(v.shape, dtype=np.int64)
    for k in range(1, 9):
        nbytes += (v >= np.uint64(1 << (7 * k))).astype(np.int64)
    return nbytes


def delta_concat(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Delta-encode concatenated ascending sublists in place of value
    space: gap within each sublist, first element absolute."""
    flat = np.ascontiguousarray(flat, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if flat.size == 0:
        return flat.astype(np.uint64)
    gaps = np.empty_like(flat)
    gaps[0] = flat[0]
    np.subtract(flat[1:], flat[:-1], out=gaps[1:])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    starts = starts[lengths > 0]
    gaps[starts] = flat[starts]
    return gaps.astype(np.uint64)


def undelta_concat(gaps: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_concat`: a cumsum restarted at every
    sublist (int64 wrap-around cancels, so first elements may be any
    int64)."""
    gaps = np.asarray(gaps).astype(np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if gaps.size == 0:
        return gaps
    c = np.cumsum(gaps)
    excl = c - gaps  # exclusive cumsum
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    nz = lengths > 0
    return c - np.repeat(excl[starts[nz]], lengths[nz])
