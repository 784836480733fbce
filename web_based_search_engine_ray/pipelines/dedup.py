"""Deduplication operators over the ``documents`` table.

Five dedup families, each expressed Ray-Data-first (SURVEY.md addition
list; patterns follow the public MinHash/LSH and SimHash literature):

- exact:        content-hash → hash-bucket groupby → keep min doc_id
- n-gram Jaccard (exact): shingle inverted index → pair co-count →
                jaccard threshold (SQL-oracle-able)
- MinHash+LSH:  shingle → minhash signature → band buckets → candidate
                pairs → exact-Jaccard verification of candidates only
- SimHash:      64-bit weighted token hash; band-LSH candidates with
                Hamming verification
- embedding:    cosine ≥ τ near-dup pairs over the embeddings table

The three LSH families share one pair plan (``_bucket_pairs``): each
only emits its band-key rows and supplies a similarity measure
(agreeing-permutation fraction, 64-bit Hamming distance, unit-row
cosine).  The plan shuffles key rows by ``key % 64``, enumerates the
``i < j`` pairs of every key run (``_key_run_pairs``, which the
Jaccard shingle index uses too), keeps pairs passing the measure's
threshold and drops pairs found in several bands with one more
shuffle.

Scale notes: every shuffle is keyed by a hash (uniform); the shingle
inverted index caps shingle df (a shingle shared by >`max_shingle_df`
docs is dropped from pair generation — standard frequency capping,
logged via a per-task warning) so hot shingles cannot produce quadratic
pair blowup, and the LSH pair plan caps band-bucket group size
(``max_band_bucket``) the same way.  When any cap fires the emitted
pair set is a LOWER BOUND of the uncapped result.

Hashing is vectorized: each unique token is md5-hashed once per worker
(memoized), shingle hashes are a polynomial fold of the token hashes
mod 2^61-1 (windowed numpy, no per-shingle hashlib calls), and simhash
is a batched bit-matrix cumsum.  Both derivations are mirrored exactly
by the DuckDB oracles in ``registry.py`` (DuckDB ``md5`` + HUGEINT
modular arithmetic).
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from web_based_search_engine_ray.functions.hashing import (
    md5_u64_array,
    text_key63_array,
)
from web_based_search_engine_ray.functions.tokenize import TOKEN_RE
from web_based_search_engine_ray.util import (
    coalesce,
    embedding_matrix,
    unit_rows,
)

logger = logging.getLogger(__name__)

_MERSENNE = (1 << 61) - 1
#: polynomial base for shingle hashes (mirrored in the SQL oracles)
SHINGLE_BASE = 1_000_003


def _batch_token_hash_arrays(texts: list[str]):
    """Tokenize+lowercase every text and hash tokens in one batched
    pass: md5 runs once per unique token (worker-memoized), occurrences
    are mapped back via ``np.unique`` inverse indices.

    Returns ``(hv, offsets)`` — uint64 hash per token occurrence over
    the whole batch, and int64 doc-frame offsets of length
    ``len(texts)+1``."""
    toks_per_doc = [[x.lower() for x in TOKEN_RE.split(t) if x] for t in texts]
    lens = np.fromiter(
        (len(x) for x in toks_per_doc), dtype=np.int64, count=len(toks_per_doc)
    )
    offsets = np.concatenate(([0], np.cumsum(lens)))
    flat = [tok for doc in toks_per_doc for tok in doc]
    if not flat:
        return np.empty(0, dtype=np.uint64), offsets
    uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
    return md5_u64_array(uniq)[inv], offsets


def _pb_batch(t: pa.Table, val_col: str, val_type: pa.DataType,
              a_col: str = "doc_a", b_col: str = "doc_b") -> pa.Table:
    """Append the pair-dedup bucket column ``pb = (31*a + b) % 64`` over
    the pair columns ``a_col``/``b_col``.  Zero-row blocks out of a
    ``map_groups`` can arrive with NO schema at all (Ray Data
    represents an empty partition as an empty columnless table) —
    return a typed empty (a, b, val, pb) so the downstream groupby sees
    a stable schema instead of a KeyError."""
    if t.num_rows == 0:
        return pa.table(
            {
                a_col: pa.array([], pa.int64()),
                b_col: pa.array([], pa.int64()),
                val_col: pa.array([], val_type),
                "pb": pa.array([], pa.int64()),
            }
        )
    return t.append_column(
        "pb",
        pa.array(
            (t[a_col].to_numpy(zero_copy_only=False) * 31
             + t[b_col].to_numpy(zero_copy_only=False)) % 64,
            type=pa.int64(),
        ),
    )


def _unique_pairs(a: np.ndarray, b: np.ndarray):
    """(first_idx, counts) of unique (a,b) pairs — overflow-safe (no
    packed single-int key; doc ids may exceed 2^31)."""
    order = np.lexsort((b, a))
    sa, sb = a[order], b[order]
    new = np.ones(len(sa), dtype=bool)
    new[1:] = (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.concatenate((starts, [len(sa)])))
    return order[starts], counts


def _key_run_pairs(keys: np.ndarray, cap: int):
    """``(ii, jj, n_skipped)``: the ``i < j`` row pairs within each run
    of equal values in the SORTED ``keys``.  Runs longer than ``cap``
    are skipped and counted in ``n_skipped``; singletons give no pair.
    Runs of one length share one ``triu_indices`` pattern."""
    n = len(keys)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, n])
    live = (sizes >= 2) & (sizes <= cap)
    ii_parts, jj_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for size in np.unique(sizes[live]):
        ti, tj = np.triu_indices(size, 1)
        s = starts[live & (sizes == size)][:, None]
        ii_parts.append((s + ti).ravel())
        jj_parts.append((s + tj).ravel())
    return (np.concatenate(ii_parts), np.concatenate(jj_parts),
            int((sizes > cap).sum()))


def _bucket_pairs(rows, *, key: str, ident: str, cols: tuple[str, str, str],
                  val_type: pa.DataType, measure, max_bucket: int,
                  name: str):
    """The LSH pair plan shared by every band-bucket finder.

    ``rows`` holds one row per (item, band): the band key ``key``, the
    item id ``ident`` and whatever ``measure`` reads.  Rows are shuffled
    by ``key % 64``; within a bucket every pair of rows sharing a key
    (runs over ``max_bucket`` rows are skipped with one lower-bound
    warning) goes to ``measure(group, ii, jj) -> (values, keep)``.
    Kept pairs come out as ``cols = (a, b, value)`` with ``a < b`` and
    are deduplicated across bands by a second shuffle on ``pb``."""
    a_col, b_col, val_col = cols
    empty = pa.schema(
        [(a_col, pa.int64()), (b_col, pa.int64()), (val_col, val_type)]
    ).empty_table()

    def with_bucket(batch: pa.Table) -> pa.Table:
        # coarse bucket: one map_groups call per bucket, not per key
        # (key cardinality ~ items · bands)
        keys = batch[key].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(keys % 64, type=pa.int64())
        )

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows < 2:
            return empty
        group = group.sort_by([(key, "ascending"), (ident, "ascending")])
        ii, jj, n_skipped = _key_run_pairs(
            group[key].to_numpy(zero_copy_only=False), max_bucket
        )
        if n_skipped:
            logger.warning(
                "%s: skipped %d band buckets larger than %d; pair set "
                "is a lower bound", name, n_skipped, max_bucket,
            )
        if len(ii) == 0:
            return empty
        vals, keep = measure(group, ii, jj)
        ids = group[ident].to_numpy(zero_copy_only=False)
        a = np.minimum(ids[ii], ids[jj])
        b = np.maximum(ids[ii], ids[jj])
        keep &= a != b
        return pa.table(
            {
                a_col: pa.array(a[keep], type=pa.int64()),
                b_col: pa.array(b[keep], type=pa.int64()),
                val_col: pa.array(vals[keep], type=val_type),
            }
        )

    def first_of_pair(group: pa.Table) -> pa.Table:
        first, _counts = _unique_pairs(
            group[a_col].to_numpy(zero_copy_only=False),
            group[b_col].to_numpy(zero_copy_only=False),
        )
        return group.select(list(cols)).take(first)

    pairs = (
        coalesce(rows.map_batches(with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pyarrow")
        .map_batches(
            functools.partial(_pb_batch, val_col=val_col, val_type=val_type,
                              a_col=a_col, b_col=b_col),
            batch_format="pyarrow",
        )
    )
    return coalesce(pairs).groupby("pb").map_groups(
        first_of_pair, batch_format="pyarrow"
    )


def _fold_shingles(hv: np.ndarray, k: int) -> np.ndarray:
    """Unique shingle hashes of one doc's token-hash sequence: each
    k-window folds as ``s = (s * SHINGLE_BASE + h_i mod p) mod p``
    (p = 2^61-1).  Docs shorter than ``k`` fold their whole sequence as
    a single shingle (empty docs yield none) — exactly mirrored by the
    SQL oracles."""
    n = len(hv)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    m = hv % np.uint64(_MERSENNE)
    if n < k:
        w = m[None, :]
    else:
        w = np.lib.stride_tricks.sliding_window_view(m, k)
    s = w[:, 0].copy()
    base = np.uint64(SHINGLE_BASE)
    for j in range(1, w.shape[1]):
        s = (_mulmod_mersenne61(s, base) + w[:, j]) % np.uint64(_MERSENNE)
    return np.unique(s).astype(np.int64)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Per-doc shingle-hash set (batch path: ``_batch_token_hash_arrays``
    + ``_fold_shingles``)."""
    hv, _ = _batch_token_hash_arrays([text])
    return _fold_shingles(hv, k)


# --------------------------------------------------------------------- exact
def exact_dedup(ds, *, num_buckets: int = 64):
    """Keep the smallest doc_id per identical ``text``.  hash-partition
    + per-group first (vectorized per bucket)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = text_key63_array(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_hash": pa.array(hs, type=pa.int64()),
                "bucket": pa.array(hs % num_buckets, type=pa.int64()),
            }
        )

    def keep_first(group: pa.Table) -> pa.Table:
        group = group.sort_by([("text_hash", "ascending"), ("doc_id", "ascending")])
        hs = group["text_hash"].to_numpy(zero_copy_only=False)
        _, first = np.unique(hs, return_index=True)
        kept = group.take(pa.array(np.sort(first)))
        return kept.select(["doc_id", "text_hash"])

    return (
        coalesce(ds.map_batches(add_hash, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(keep_first, batch_format="pyarrow")
    )


# ----------------------------------------------------- n-gram Jaccard (exact)
def jaccard_dup_pairs(
    ds,
    *,
    k: int = 3,
    threshold: float = 0.5,
    max_shingle_df: int = 1000,
    num_buckets: int = 64,
):
    """Exact n-gram Jaccard ≥ threshold pairs via a shingle inverted
    index (co-count / (|A|+|B|-co-count)).  Returns
    (doc_a, doc_b, jaccard) with doc_a < doc_b.

    When ``max_shingle_df`` fires (a shingle shared by more docs is
    skipped, with a warning) the intersection is undercounted while set
    sizes still include the capped shingles, so emitted pairs/jaccards
    are a LOWER BOUND of the exact result."""

    def shingles(batch: pa.Table) -> pa.Table:
        hv, offsets = _batch_token_hash_arrays(batch["text"].to_pylist())
        doc_parts, sh_parts, size_parts = [], [], []
        for i, did in enumerate(batch["doc_id"].to_pylist()):
            sh = _fold_shingles(hv[offsets[i]:offsets[i + 1]], k)
            doc_parts.append(np.full(len(sh), did, dtype=np.int64))
            sh_parts.append(sh)
            size_parts.append(np.full(len(sh), len(sh), dtype=np.int64))
        if not doc_parts:
            return pa.table(
                {"shingle": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "set_size": pa.array([], pa.int64()),
                 "bucket": pa.array([], pa.int64())}
            )
        sh = np.concatenate(sh_parts)
        return pa.table(
            {
                "shingle": pa.array(sh, type=pa.int64()),
                "doc_id": pa.array(np.concatenate(doc_parts), type=pa.int64()),
                "set_size": pa.array(np.concatenate(size_parts), type=pa.int64()),
                "bucket": pa.array(sh % num_buckets, type=pa.int64()),
            }
        )

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        group = group.sort_by([("shingle", "ascending"), ("doc_id", "ascending")])
        docs = group["doc_id"].to_numpy(zero_copy_only=False)
        sizes = group["set_size"].to_numpy(zero_copy_only=False)
        ii, jj, n_capped = _key_run_pairs(
            group["shingle"].to_numpy(zero_copy_only=False), max_shingle_df
        )
        if n_capped:
            logger.warning(
                "jaccard_dup_pairs: skipped %d shingles with df > %d "
                "(pair set is a lower bound)", n_capped, max_shingle_df
            )
        a, b = docs[ii], docs[jj]
        return pa.table(
            {
                "doc_a": pa.array(a, type=pa.int64()),
                "doc_b": pa.array(b, type=pa.int64()),
                "size_a": pa.array(sizes[ii], type=pa.int64()),
                "size_b": pa.array(sizes[jj], type=pa.int64()),
                "pair_bucket": pa.array(
                    (a * 1_000_003 + b) % num_buckets, type=pa.int64()
                ),
            }
        )

    def jaccard_in_bucket(group: pa.Table) -> pa.Table:
        a = group["doc_a"].to_numpy(zero_copy_only=False)
        b = group["doc_b"].to_numpy(zero_copy_only=False)
        sa = group["size_a"].to_numpy(zero_copy_only=False)
        sb = group["size_b"].to_numpy(zero_copy_only=False)
        first, counts = _unique_pairs(a, b)
        inter = counts.astype(np.float64)
        union = sa[first] + sb[first] - inter
        jac = inter / union
        keep = jac >= threshold
        return pa.table(
            {
                "doc_a": pa.array(a[first][keep], type=pa.int64()),
                "doc_b": pa.array(b[first][keep], type=pa.int64()),
                "jaccard": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return (
        coalesce(
            coalesce(ds.map_batches(shingles, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(pairs_in_bucket, batch_format="pyarrow")
        )
        .groupby("pair_bucket")
        .map_groups(jaccard_in_bucket, batch_format="pyarrow")
    )


# ------------------------------------------------------------- MinHash + LSH
class MinHasher:
    """Actor-pool stage: shingle → 64-permutation MinHash signature.
    Permutations h_i(x) = (a_i·x + b_i) mod p (p = 2^61-1), seeded
    deterministically."""

    def __init__(self, k: int = 3, num_perm: int = 64, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
        self.k = k
        self.num_perm = num_perm

    def signature_from_shingles(self, sh: np.ndarray) -> np.ndarray:
        if sh.size == 0:
            return np.full(self.num_perm, _MERSENNE, dtype=np.int64)
        # (num_perm, n): p = 2^61-1 fits uint64; a*x can overflow int64
        # → modular mult with 32-bit splitting (hi*2^32 + lo).
        x = sh.astype(np.uint64)
        a = self.a.astype(np.uint64)[:, None]
        b = self.b.astype(np.uint64)[:, None]
        prod = _mulmod_mersenne61(a, x[None, :])
        hv = (prod + b) % np.uint64(_MERSENNE)
        return hv.min(axis=1).astype(np.int64)

    def signature(self, text: str) -> np.ndarray:
        return self.signature_from_shingles(_shingle_hashes(text, self.k))

    def __call__(self, batch: pa.Table) -> pa.Table:
        hv, offsets = _batch_token_hash_arrays(batch["text"].to_pylist())
        sigs = [
            self.signature_from_shingles(
                _fold_shingles(hv[offsets[i]:offsets[i + 1]], self.k)
            )
            for i in range(batch.num_rows)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "signature": pa.array(
                    [s.tolist() for s in sigs], type=pa.list_(pa.int64())
                ),
            }
        )


def _mulmod_mersenne61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact (a*x) mod (2^61-1) in uint64: 32-bit split of both
    operands, partial products reduced with 2^61 ≡ 1 (so 2^64 ≡ 8 and
    h·2^32 ≡ (h >> 29) + ((h mod 2^29) << 32)).  Every intermediate
    fits uint64 — mirrored exactly by HUGEINT arithmetic in the SQL
    oracles."""
    p = np.uint64(_MERSENNE)
    m32 = np.uint64(0xFFFFFFFF)
    m29 = np.uint64((1 << 29) - 1)
    a = np.asarray(a, dtype=np.uint64) % p
    x = np.asarray(x, dtype=np.uint64) % p
    a_hi = a >> np.uint64(32)  # < 2^29
    a_lo = a & m32
    x_hi = x >> np.uint64(32)  # < 2^29
    x_lo = x & m32
    t0 = a_lo * x_lo           # < 2^64, exact
    t1 = a_hi * x_lo + a_lo * x_hi  # < 2^62, exact
    t2 = a_hi * x_hi           # < 2^58
    # fold 2^61 out of each partial, then shift t1 by 2^32 and t2 by
    # 2^64 ≡ 8 without overflow
    t0 = (t0 >> np.uint64(61)) + (t0 & p)
    t1 = ((t1 >> np.uint64(61)) + (t1 & p)) % p
    t1 = (t1 >> np.uint64(29)) + ((t1 & m29) << np.uint64(32))
    r = t0 + t1 + t2 * np.uint64(8)
    r = (r >> np.uint64(61)) + (r & p)
    return r % p


def minhash_lsh_pairs(ds, *, threshold: float = 0.5,
                      max_band_bucket: int = 4096):
    """MinHash signatures (:class:`MinHasher`'s 3-shingles × 64
    permutations) → 16 band buckets → candidate pairs (doc_a < doc_b)
    with estimated Jaccard = fraction of agreeing permutations.
    Candidates are deduplicated across bands.

    A band group with more than ``max_band_bucket`` members (a
    degenerate hot bucket — e.g. a constant-signature corpus) is skipped
    with a warning instead of generating a quadratic candidate set;
    exact dedup catches the identical-doc case the cap drops."""
    bands = 16
    rows_per_band = 64 // bands

    def _minhash_task(batch: pa.Table) -> pa.Table:
        from web_based_search_engine_ray.util import worker_singleton

        return worker_singleton("minhash", MinHasher)(batch)

    def band_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sigs_np = embedding_matrix(batch["signature"], dtype=np.int64)
        key_parts = []
        fnv = np.uint64(1099511628211)
        for band in range(bands):
            seg = sigs_np[:, band * rows_per_band:(band + 1) * rows_per_band]
            key = np.full(n, np.uint64(band * 2 + 1), dtype=np.uint64)
            for c in range(seg.shape[1]):
                # FNV-style mixing — deterministic across processes,
                # wraparound multiply is fine for bucketing
                key = key * fnv + seg[:, c].astype(np.uint64)
            key_parts.append((key >> np.uint64(1)).astype(np.int64))
        idx = pa.array(np.tile(np.arange(n), bands))
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(key_parts),
                                     type=pa.int64()),
                "doc_id": batch["doc_id"].take(idx),
                "signature": batch["signature"].take(idx),
            }
        )

    def agreeing_fraction(group: pa.Table, ii, jj):
        sigs_np = embedding_matrix(group["signature"], dtype=np.int64)
        est = (sigs_np[ii] == sigs_np[jj]).mean(axis=1)
        return est, est >= threshold

    return _bucket_pairs(
        ds.map_batches(_minhash_task, batch_format="pyarrow")
        .map_batches(band_rows, batch_format="pyarrow"),
        key="band_key", ident="doc_id",
        cols=("doc_a", "doc_b", "est_jaccard"), val_type=pa.float64(),
        measure=agreeing_fraction, max_bucket=max_band_bucket,
        name="minhash_lsh_pairs",
    )


# ------------------------------------------------------------------- SimHash
class SimHasher:
    """Stage: 64-bit SimHash over tf-weighted token hashes, batched —
    one bit-matrix + framed cumsum per batch (no per-token Python
    loop).  Summing ±1 per token OCCURRENCE equals the classic
    tf-weighted formulation."""

    @staticmethod
    def simhash_batch(texts: list[str]) -> np.ndarray:
        hv, offsets = _batch_token_hash_arrays(texts)
        shifts = np.arange(64, dtype=np.uint64)
        if len(hv) == 0:
            return np.zeros(len(texts), dtype=np.uint64)
        contrib = (
            2 * ((hv[:, None] >> shifts) & np.uint64(1)).astype(np.int32) - 1
        )  # (n_occ, 64) of ±1
        cs = np.zeros((len(hv) + 1, 64), dtype=np.int64)
        np.cumsum(contrib, axis=0, out=cs[1:])
        acc = cs[offsets[1:]] - cs[offsets[:-1]]  # (n_docs, 64)
        return ((acc > 0).astype(np.uint64) << shifts).sum(axis=1)

    @staticmethod
    def simhash(text: str) -> int:
        return int(SimHasher.simhash_batch([text])[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = self.simhash_batch(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                # store as int64 via two's-complement view
                "simhash": pa.array(hs.view(np.int64), type=pa.int64()),
            }
        )


def simhash_pairs(ds, *, max_hamming: int = 3, max_band_bucket: int = 4096):
    """SimHash near-dup pairs: four 16-bit band LSH → verify Hamming ≤ t.
    Band groups larger than ``max_band_bucket`` are skipped with a
    warning (lower-bound semantics, same as minhash)."""
    bands = 4
    sigs = ds.map_batches(
        lambda b: SimHasher()(b), batch_format="pyarrow"
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        docs = batch["doc_id"].to_numpy(zero_copy_only=False)
        sh = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        keys = [
            ((sh >> np.uint64(16 * band)) & np.uint64(0xFFFF)).astype(np.int64)
            * bands + band
            for band in range(bands)
        ]
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), type=pa.int64()),
                "doc_id": pa.array(np.tile(docs, bands), type=pa.int64()),
                "simhash": pa.array(np.tile(sh.view(np.int64), bands),
                                    type=pa.int64()),
            }
        )

    def hamming(group: pa.Table, ii, jj):
        sh = group["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        x = (sh[ii] ^ sh[jj]).view(np.uint8).reshape(-1, 8)
        ham = np.unpackbits(x, axis=1).sum(axis=1, dtype=np.int64)
        return ham, ham <= max_hamming

    return _bucket_pairs(
        sigs.map_batches(band_rows, batch_format="pyarrow"),
        key="band_key", ident="doc_id", cols=("doc_a", "doc_b", "hamming"),
        val_type=pa.int64(), measure=hamming, max_bucket=max_band_bucket,
        name="simhash_pairs",
    )


# ------------------------------------------------------- embedding near-dup
def embedding_dup_pairs(ds, *, threshold: float = 0.95, dim: int = 64,
                        max_band_bucket: int = 4096):
    """Random-hyperplane LSH near-dup pairs (the scale path): vectors
    sharing an 8-plane sign-pattern bucket in ANY of 4 hash tables
    become candidates; candidates are verified with exact cosine.
    Recall is probabilistic (1-(1-s^p)^t for sign-agreement rate s) —
    for exact output use ``embedding_dup_pairs_exact``."""
    n_planes, n_tables = 8, 4
    rng = np.random.default_rng(7)
    planes = rng.standard_normal((n_tables, n_planes, dim))

    def add_buckets(batch: pa.Table) -> pa.Table:
        emb = embedding_matrix(batch["embedding"])
        n = len(emb)
        if n == 0:
            return pa.table(
                {"table_key": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "embedding": batch["embedding"]}
            )
        keys = []
        for t in range(n_tables):
            signs = (emb @ planes[t].T) > 0
            key = np.zeros(n, dtype=np.int64)
            for i in range(n_planes):
                key |= signs[:, i].astype(np.int64) << i
            keys.append(key * n_tables + t)
        idx = pa.array(np.tile(np.arange(n), n_tables))
        return pa.table(
            {
                "table_key": pa.array(np.concatenate(keys), type=pa.int64()),
                "vec_id": batch["vec_id"].take(idx),
                "embedding": batch["embedding"].take(idx),
            }
        )

    def cosine(group: pa.Table, ii, jj):
        emb = unit_rows(embedding_matrix(group["embedding"]))
        cos = np.einsum("ij,ij->i", emb[ii], emb[jj])
        return cos, cos >= threshold

    return _bucket_pairs(
        ds.map_batches(add_buckets, batch_format="pyarrow"),
        key="table_key", ident="vec_id", cols=("vec_a", "vec_b", "cosine"),
        val_type=pa.float64(), measure=cosine, max_bucket=max_band_bucket,
        name="embedding_dup_pairs",
    )


# ------------------------------------------------ components / keep-min
# Min-inert label placeholder on edge rows.  Must be STRICTLY greater
# than every real node id or distinct components whose members all
# exceed it would collapse onto the sentinel label (doc ids from
# 63-bit hashes reach 2^63-1, so (1<<62) was NOT safe); int64 max is,
# and ``make_edges`` rejects the one unusable id.
_CC_SENTINEL = np.iinfo(np.int64).max


def _cc_min_per_key(keys: np.ndarray, lbl: np.ndarray):
    """Vectorized per-key min over a SORTED-BY-KEY row block: returns
    (unique_keys, min_label_per_key, per-row broadcast of that min)."""
    n = len(keys)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    kmin = np.minimum.reduceat(lbl, starts)
    rep = np.repeat(kmin, np.diff(np.r_[starts, n]))
    return keys[starts], kmin, rep


#: label-propagation rounds before :func:`connected_components` raises
CC_MAX_ITERS = 50


def connected_components(pairs, *, num_buckets: int = 64,
                         max_group_rows: int | None = 16_000_000):
    """Connected components of an undirected ``(doc_a, doc_b)`` pair
    table via distributed hash-min label propagation: every node
    repeatedly adopts the minimum label among itself and its neighbors
    (converges in ≤ diameter rounds; labels are monotonically
    non-increasing, so a stable label sum certifies convergence — and
    a sum still moving after ``CC_MAX_ITERS`` rounds RAISES rather than
    silently returning wrong components).

    Each half-round is two shuffles keyed on ``hash(node) %
    num_buckets`` (not on the node id itself), and each group function
    is a numpy sort + ``minimum.reduceat`` over the whole bucket — no
    per-node Python calls, so the round cost is O(edges) vectorized
    work over ``num_buckets`` groups regardless of node count.  Plain
    hash-min needs O(diameter) rounds (a duplicate CHAIN of n docs
    would need n rounds), so every round also runs a POINTER-JUMPING
    half-step — ``lbl[v] ← min(lbl[v], lbl[lbl[v]])``, expressed as
    the same spread/combine pass over the label-pointer edges — which
    doubles label-hop distance per round and brings chains to
    O(log n) rounds.  No driver-side graph.  Returns a Dataset of
    ``(node, component)`` with ``component`` = the minimum node id in
    the component.

    Each hash bucket (edges + labels + pointer rows) must fit one
    reducer; ``max_group_rows`` guards the hot-bucket case loudly
    (raise ``num_buckets`` to thin buckets — the bucketing is on a
    hash so only a skewed hash, not a hot NODE, can concentrate rows).
    """
    from ray.data.aggregate import Sum

    from web_based_search_engine_ray.util import check_group_budget

    nb = np.int64(num_buckets)

    def _guard(group: pa.Table, stage: str) -> None:
        check_group_budget(
            len(group), max_group_rows, stage=stage,
            key=int(group["bucket"][0].as_py()) if len(group) else None,
            hint="raise num_buckets (thins hash buckets) or "
                 "max_group_rows",
        )

    def make_edges(b: pa.Table) -> pa.Table:
        # both directions; schema shared with the labels table so the
        # per-round union is schema-stable: is_edge marks edge rows,
        # lbl carries a min-inert sentinel on them
        if b.num_rows == 0:
            # a groupby over a pair table whose every row landed in one
            # partition emits the OTHER partitions as zero-row blocks
            # that can lose their schema entirely (Ray Data represents
            # them as empty columnless tables) — indexable by neither
            # doc_a nor doc_b.  Only the EMPTY case is tolerated: a
            # nonempty table missing the doc_a column still raises.
            return pa.table(
                {
                    "key": pa.array([], type=pa.int64()),
                    "other": pa.array([], type=pa.int64()),
                    "lbl": pa.array([], type=pa.int64()),
                    "is_edge": pa.array([], type=pa.bool_()),
                    "bucket": pa.array([], type=pa.int64()),
                }
            )
        key = np.concatenate(
            [
                b["doc_a"].to_numpy(zero_copy_only=False),
                b["doc_b"].to_numpy(zero_copy_only=False),
            ]
        ).astype(np.int64)
        other = np.concatenate(
            [
                b["doc_b"].to_numpy(zero_copy_only=False),
                b["doc_a"].to_numpy(zero_copy_only=False),
            ]
        ).astype(np.int64)
        if len(key) and int(key.max()) >= _CC_SENTINEL:
            raise ValueError(
                "connected_components: node id equals the int64-max "
                "sentinel; remap ids below 2^63-1"
            )
        n = len(key)
        return pa.table(
            {
                "key": pa.array(key, type=pa.int64()),
                "other": pa.array(other, type=pa.int64()),
                "lbl": pa.array(
                    np.full(n, _CC_SENTINEL, dtype=np.int64),
                    type=pa.int64(),
                ),
                "is_edge": pa.array(np.ones(n, dtype=bool)),
                "bucket": pa.array(key % nb, type=pa.int64()),
            }
        )

    def _label_table(keys: np.ndarray, lbl: np.ndarray) -> pa.Table:
        n = len(keys)
        return pa.table(
            {
                "key": pa.array(keys, type=pa.int64()),
                "other": pa.array(
                    np.full(n, -1, dtype=np.int64), type=pa.int64()
                ),
                "lbl": pa.array(lbl, type=pa.int64()),
                "is_edge": pa.array(np.zeros(n, dtype=bool)),
                "bucket": pa.array(keys % nb, type=pa.int64()),
            }
        )

    def init_labels(group: pa.Table) -> pa.Table:
        # per node: label = min(node, min neighbor) — whole bucket at once
        g = group.sort_by([("key", "ascending")])
        keys = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:
            return _label_table(keys, keys)
        other = g["other"].to_numpy(zero_copy_only=False).astype(np.int64)
        uk, kmin, _ = _cc_min_per_key(keys, other)
        return _label_table(uk, np.minimum(uk, kmin))

    def spread(group: pa.Table) -> pa.Table:
        # bucket-wide: per-key min label (label rows win; edge rows are
        # sentinel-inert), pushed to every neighbor and kept at the node
        _guard(group, "connected_components.spread")
        g = group.sort_by([("key", "ascending")])
        keys = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:
            return _label_table(keys, keys)
        lbl = g["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        other = g["other"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_edge = g["is_edge"].to_numpy(zero_copy_only=False)
        uk, kmin, rep = _cc_min_per_key(keys, lbl)
        out_key = np.concatenate([other[is_edge], uk])
        out_lbl = np.concatenate([rep[is_edge], kmin])
        return _label_table(out_key, out_lbl)

    def combine(group: pa.Table) -> pa.Table:
        # min over incoming messages per node, bucket-wide
        _guard(group, "connected_components.combine")
        g = group.sort_by([("key", "ascending")])
        keys = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:
            return _label_table(keys, keys)
        lbl = g["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        uk, kmin, _ = _cc_min_per_key(keys, lbl)
        return _label_table(uk, kmin)

    edges = pairs.map_batches(make_edges, batch_format="pyarrow").materialize()

    labels = (
        coalesce(edges)
        .groupby("bucket")
        .map_groups(init_labels, batch_format="pyarrow")
        .materialize()
    )

    def label_sum(lb):
        agg = lb.aggregate(Sum("lbl"))
        return agg.get("sum(lbl)") if agg else None

    def to_ptr_edges(b: pa.Table) -> pa.Table:
        # label row (v, lbl) as a one-way query edge lbl -> v: spread
        # then delivers lbl's OWN label to v, i.e. lbl[v] <- lbl[lbl[v]]
        lbl = b["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(key)
        return pa.table(
            {
                "key": pa.array(lbl, type=pa.int64()),
                "other": pa.array(key, type=pa.int64()),
                "lbl": pa.array(
                    np.full(n, _CC_SENTINEL, dtype=np.int64),
                    type=pa.int64(),
                ),
                "is_edge": pa.array(np.ones(n, dtype=bool)),
                "bucket": pa.array(lbl % nb, type=pa.int64()),
            }
        )

    prev_sum, converged = None, False
    for _ in range(CC_MAX_ITERS):
        cur = label_sum(labels)
        if cur is None or (prev_sum is not None and cur == prev_sum):
            converged = True
            break
        prev_sum = cur

        # fused round: hash-min over the real edges AND a pointer jump
        # over the label-pointer edges (lbl[v] <- lbl[lbl[v]], stale
        # labels — still monotone, still doubles hop distance) in ONE
        # spread+combine pass: one union, two bucket shuffles per round
        ptr = labels.map_batches(to_ptr_edges, batch_format="pyarrow")
        msgs = (
            coalesce(edges.union(ptr).union(labels))
            .groupby("bucket")
            .map_groups(spread, batch_format="pyarrow")
        )
        labels = (
            coalesce(msgs)
            .groupby("bucket")
            .map_groups(combine, batch_format="pyarrow")
            .materialize()
        )

    if not converged:
        # certificate: labels are monotonically non-increasing, so an
        # unchanged sum proves a fixed point; a moving sum means the
        # component labels are WRONG, not merely unrefined — fail loud
        final = label_sum(labels)
        if final != prev_sum:
            raise RuntimeError(
                f"connected_components did not converge in "
                f"{CC_MAX_ITERS} label-propagation rounds (label sum "
                f"still moving: {prev_sum} -> {final})"
            )

    return labels.map_batches(
        lambda b: pa.table({"node": b["key"], "component": b["lbl"]}),
        batch_format="pyarrow",
    )


def _keep_mask(ids: np.ndarray, gone: np.ndarray) -> np.ndarray:
    """Vectorized survivor mask: True where ``ids`` is NOT in the
    sorted ``gone`` array.  ``np.isin`` sorts/merges in C — no Python
    set, no per-row interpreter loop (the pattern used by
    ``decontaminate.py``)."""
    if len(gone) == 0:
        return np.ones(len(ids), dtype=bool)
    return ~np.isin(ids, gone)


def filter_by_ids(ds, ids, *, keep: bool, id_col: str = "doc_id",
                  broadcast_limit: int = 20_000_000, n_buckets: int = 64,
                  spill_dir: str | None = None,
                  max_group_rows: int | None = 32_000_000):
    """Rows of ``ds`` whose ``id_col`` is in (``keep=True``) or not in
    (``keep=False``) the ``id_col`` column of the Dataset ``ids``.

    ``ids`` is materialized once.  Two strategies:

    - ``|ids| <= broadcast_limit`` (default 2e7 ids ≈ 160 MB): the
      ids are collected as ONE sorted contiguous int64 numpy array,
      ``ray.put`` once, and every batch filters with ``np.isin`` —
      zero Python-object overhead (~8 B/id vs ~60 B/id for a set).
    - above the limit: a bucketed join — ids are hive-partitioned by
      ``id % n_buckets`` to ``spill_dir``, ``ds`` is shuffled once by
      the same bucket, and each group task reads ONLY its bucket's id
      file (task-side discovery; the full id set never centralizes)."""
    import ray

    # materialize ONCE: the count() guard and the collect/spill below
    # would otherwise each re-execute the pipeline behind ``ids``
    ids = ids.select_columns([id_col]).materialize()

    def select(batch: pa.Table, sel: np.ndarray) -> pa.Table:
        d = batch[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        mask = _keep_mask(d, sel)
        return batch.filter(pa.array(~mask if keep else mask))

    if ids.count() <= broadcast_limit:
        parts = [
            b[id_col].to_numpy(zero_copy_only=False)
            for b in ids.iter_batches(batch_format="pyarrow")
        ]
        sel = (
            np.unique(np.concatenate(parts))
            if parts else np.empty(0, dtype=np.int64)
        )
        ref = ray.put(np.ascontiguousarray(sel))
        return ds.map_batches(
            lambda b: select(b, ray.get(ref)), batch_format="pyarrow"
        )

    # ---- bucketed join (id set too big to broadcast) ----
    # spill_dir on a real cluster must be SHARED storage (an fsspec
    # URI works end to end); the tempfile default is single-node
    import os
    import tempfile

    import pyarrow.dataset as pads

    from web_based_search_engine_ray.state import fsio
    from web_based_search_engine_ray.util import check_group_budget

    spill = spill_dir or tempfile.mkdtemp(prefix="idfilter_", dir="/tmp")
    sentinel = os.path.join(spill, "_SPILL_OK")

    def with_bucket(b: pa.Table) -> pa.Table:
        d = b[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        return b.append_column(
            "__id_bucket", pa.array(d % n_buckets, type=pa.int64())
        )

    ids.map_batches(with_bucket, batch_format="pyarrow").write_parquet(
        spill, partition_cols=["__id_bucket"]
    )
    # sentinel: lets join tasks distinguish "this bucket has no ids"
    # (root visible, subdir absent) from "spill root not visible from
    # this worker" (driver-local /tmp on a multi-node cluster → MUST
    # fail loudly, or the filter is silently never applied)
    fsio.makedirs(spill)  # an empty id set writes no file
    with fsio.open_file(sentinel, "w") as f:
        f.write("ok")

    def join(group: pa.Table) -> pa.Table:
        bkt = int(group["__id_bucket"][0].as_py())
        check_group_budget(
            len(group), max_group_rows, stage="filter_by_ids.bucket_join",
            key=bkt,
            hint="raise n_buckets (each join group holds "
                 "corpus/n_buckets rows) or max_group_rows",
        )
        out = group.drop_columns(["__id_bucket"])
        if not fsio.isfile(sentinel):
            raise RuntimeError(
                f"filter_by_ids: spill root {spill!r} is not visible "
                "from this worker (sentinel missing). On a multi-node "
                "cluster pass spill_dir= on SHARED storage (an fsspec "
                "URI); the tempfile default is single-node."
            )
        part = os.path.join(spill, f"__id_bucket={bkt}")
        if not fsio.isdir(part):
            sel = np.empty(0, dtype=np.int64)  # root visible, bucket empty
        else:
            sel = np.unique(
                pads.dataset(part, format="parquet")
                .to_table(columns=[id_col])[id_col]
                .to_numpy(zero_copy_only=False)
            )
        return select(out, sel)

    return (
        ds.map_batches(with_bucket, batch_format="pyarrow")
        .groupby("__id_bucket")
        .map_groups(join, batch_format="pyarrow")
    )


def dedup_keep_min(ds, pairs, *, id_col: str = "doc_id",
                   broadcast_limit: int = 20_000_000,
                   n_buckets: int = 64,
                   spill_dir: str | None = None,
                   max_group_rows: int | None = 32_000_000,
                   cc_num_buckets: int = 64,
                   cc_max_group_rows: int | None = 16_000_000):
    """End-to-end fuzzy dedup: given near-dup ``pairs`` (from any of
    the pair generators), keep only the minimum-id member of every
    connected component.  Docs in no pair survive untouched.

    The drop set (component members above the root) is bounded by the
    duplicate count, not the corpus; :func:`filter_by_ids` removes it,
    broadcast up to ``broadcast_limit`` ids and as a bucketed join
    (``n_buckets``, ``spill_dir``, ``max_group_rows``) above."""
    # CC sizing is caller-controllable: at the billions-of-dups scale
    # that needs the bucketed finalize, the CC buckets need sizing too
    comp = connected_components(
        pairs, num_buckets=cc_num_buckets,
        max_group_rows=cc_max_group_rows,
    )

    def _drops(b: pa.Table) -> pa.Table:
        d = b.filter(pc.invert(pc.equal(b["node"], b["component"])))
        return pa.table({id_col: pc.cast(d["node"], pa.int64())})

    return filter_by_ids(
        ds, comp.map_batches(_drops, batch_format="pyarrow"), keep=False,
        id_col=id_col, broadcast_limit=broadcast_limit,
        n_buckets=n_buckets, spill_dir=spill_dir,
        max_group_rows=max_group_rows,
    )


def embedding_dup_pairs_exact(ds, *, threshold: float = 0.98,
                              max_vectors: int = 100_000):
    """Exact cosine ≥ τ pairs: normalized matrix broadcast via ray.put,
    per-batch matmul against the full matrix (upper triangle kept).
    O(n²) flops but vectorized; fine to ~10^5 vectors.  The bound is
    ENFORCED — above ``max_vectors`` this raises and points at the
    bucketed scale paths instead of silently attempting an n² matmul."""
    import ray

    n_vec = ds.count()
    if n_vec > max_vectors:
        raise ValueError(
            f"embedding_dup_pairs_exact is O(n^2) and capped at "
            f"max_vectors={max_vectors} (got {n_vec}); use "
            f"embedding_dup_pairs (LSH-bucketed) or IvfIndex "
            f"candidates for corpora this size, or raise max_vectors "
            f"explicitly if you accept the cost"
        )
    mat_tbl = ds.select_columns(["vec_id", "embedding"]).to_pandas()
    ids_all = mat_tbl["vec_id"].to_numpy()
    m = unit_rows(np.asarray(mat_tbl["embedding"].tolist(), dtype=np.float64))
    ref = ray.put((ids_all, m))

    def pairs(batch: pa.Table) -> pa.Table:
        ids_a, mat = ray.get(ref)
        ids_b = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = unit_rows(embedding_matrix(batch["embedding"]))
        sim = emb @ mat.T
        bi, ai = np.nonzero(sim >= threshold)
        a = ids_a[ai]
        b = ids_b[bi]
        keep = b < a
        return pa.table(
            {
                "vec_a": pa.array(b[keep], type=pa.int64()),
                "vec_b": pa.array(a[keep], type=pa.int64()),
                "cosine": pa.array(sim[bi, ai][keep], type=pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


def semantic_dup_pairs_grouped(ds, *, group_col: str = "label",
                               threshold: float = 0.9,
                               max_group_vecs: int = 100_000):
    """SemDeDup-shaped near-dup pairs of ``(vec_id, embedding)`` rows:
    exact cosine ≥ τ WITHIN each group (a k-means cluster id — e.g.
    ``IvfIndex``'s ``cluster`` column — or any partition label).  The
    O(g²) matmul is per GROUP, never corpus-wide: with balanced
    clusters of size g, total flops are n·g instead of n², which is the
    whole point of clustering before pairwise comparison.
    ``max_group_vecs`` fails loud on a mega-cluster (re-cluster with
    more centroids)."""
    from web_based_search_engine_ray.util import check_group_budget

    def pairs(group: pa.Table) -> pa.Table:
        check_group_budget(
            len(group), max_group_vecs,
            stage="semantic_dup_pairs_grouped",
            key=group[group_col][0].as_py() if len(group) else None,
            hint="re-cluster with more centroids (the per-group "
                 "matmul is O(g^2))",
        )
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        m = unit_rows(embedding_matrix(group["embedding"]))
        sim = m @ m.T
        ai, bi = np.nonzero(np.triu(sim >= threshold, k=1))
        a, b = ids[ai], ids[bi]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        g = group[group_col][0] if len(group) else None
        return pa.table(
            {
                "vec_a": pa.array(lo, type=pa.int64()),
                "vec_b": pa.array(hi, type=pa.int64()),
                "cosine": pa.array(sim[ai, bi], type=pa.float64()),
                group_col: pa.array(
                    [g.as_py()] * len(lo), type=group.schema.field(group_col).type
                ),
            }
        )

    return ds.groupby(group_col).map_groups(pairs, batch_format="pyarrow")


def semantic_dedup(ds, *, group_col: str = "label",
                   threshold: float = 0.9, max_group_vecs: int = 100_000):
    """End-to-end semantic dedup (SemDeDup) of ``(vec_id, embedding)``
    rows: within-group cosine pairs → connected components → keep the
    minimum-id member per component.
    Composition of :func:`semantic_dup_pairs_grouped` and
    :func:`dedup_keep_min`."""
    pairs = semantic_dup_pairs_grouped(
        ds, group_col=group_col, threshold=threshold,
        max_group_vecs=max_group_vecs,
    ).map_batches(
        lambda b: pa.table({"doc_a": b["vec_a"], "doc_b": b["vec_b"]}),
        batch_format="pyarrow",
    )
    return dedup_keep_min(ds, pairs, id_col="vec_id")
