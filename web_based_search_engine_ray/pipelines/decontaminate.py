"""Benchmark decontamination: flag/drop corpus docs sharing an n-gram
with an evaluation set (the GPT-3/PaLM-style 13-gram overlap check —
here parameterized, defaulting to 8 tokens).

Scale shape (100 TB corpus, ~10^6..10^8 benchmark n-grams):

- The benchmark side is SMALL relative to the corpus (eval suites are
  megabytes).  Its n-gram hashes are computed distributedly, unioned on
  the driver into ONE sorted uint64 array, and broadcast via
  ``ray.put`` — every corpus task reads it zero-copy from the object
  store; nothing is re-shipped per batch and the corpus never
  shuffles.
- Corpus pass: one streaming ``map_batches``; per batch the token
  hashes come from the dedup module's batched md5 memo
  (`dedup._batch_token_hash_arrays`), windows fold vectorized
  (`numpy` sliding window, Mersenne-61 polynomial — the same
  SQL-mirrorable fold the MinHash oracle pins), and membership is one
  ``np.isin`` against the broadcast sorted array.
- If the benchmark set ever outgrew worker memory, the drop-in
  replacement is a url-bucket-style shuffle semi-join (as in
  ``update_index.classify_snapshot``): both sides' n-gram hashes
  bucketed by hash and matched per bucket — documented here as the
  escalation path (not needed for any real eval suite).

The n-gram hash is a pure function mirrored in SQL (md5 token hash →
polynomial fold mod 2^61-1 with per-position constants
``SHINGLE_BASE^(n-1-j) mod p``), so the DuckDB oracle reproduces the
engine's hashes bit-for-bit and the comparison is exact even in the
(~2^-61) collision case.

Semantics: a doc with fewer than ``n`` tokens has no n-grams and is
never contaminated; tokens are the reference tokenizer's
(``[^a-zA-Z0-9_-]+`` split), lowercased.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.pipelines.dedup import (
    _MERSENNE,
    SHINGLE_BASE,
    _batch_token_hash_arrays,
    _mulmod_mersenne61,
)


def ngram_fold_constants(n: int) -> list[int]:
    """``SHINGLE_BASE^(n-1-j) mod p`` for j in 0..n-1 — the engine and
    the SQL oracle inline the same constants."""
    return [pow(SHINGLE_BASE, n - 1 - j, _MERSENNE) for j in range(n)]


def _fold_ngrams_batch(hv: np.ndarray, offsets: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """All full n-window polynomial folds over a batch's flat token-hash
    array, respecting doc frames.

    Returns ``(folds int64, doc_idx int64)`` — one row per window, with
    the batch-local doc index it came from.  Docs shorter than ``n``
    emit nothing (decontamination semantics; unlike the MinHash
    shingler there is no short-doc fallback)."""
    ntok = len(hv)
    if ntok < n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    m = hv % np.uint64(_MERSENNE)
    w = np.lib.stride_tricks.sliding_window_view(m, n)
    s = w[:, 0].copy()
    base = np.uint64(SHINGLE_BASE)
    for j in range(1, n):
        s = (_mulmod_mersenne61(s, base) + w[:, j]) % np.uint64(_MERSENNE)
    # window i is valid iff it lies entirely inside one doc frame:
    # start doc == doc of last element.  starts are 0..ntok-n.
    doc_of = np.searchsorted(offsets, np.arange(ntok), side="right") - 1
    starts = np.arange(ntok - n + 1)
    valid = doc_of[starts] == doc_of[starts + n - 1]
    return s[valid].astype(np.int64), doc_of[starts[valid]]


def benchmark_ngram_hashes(bench_ds, *, n: int = 8) -> np.ndarray:
    """Distinct n-gram hashes of the benchmark set's ``text`` as ONE
    sorted int64 array (driver-held; benchmark suites are small by
    construction — the array is what gets broadcast)."""

    def grams(batch: pa.Table) -> pa.Table:
        hv, offsets = _batch_token_hash_arrays(batch["text"].to_pylist())
        folds, _ = _fold_ngrams_batch(hv, offsets, n)
        return pa.table({"g": pa.array(np.unique(folds), type=pa.int64())})

    parts = bench_ds.map_batches(grams, batch_format="pyarrow")
    arrs = [
        b["g"].to_numpy(zero_copy_only=False)
        for b in parts.iter_batches(batch_format="pyarrow")
    ]
    if not arrs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(arrs))


def decontaminate(docs, bench_hashes: np.ndarray, *, n: int = 8,
                  action: str = "flag"):
    """Tag (``action="flag"`` → adds bool ``contaminated``) or drop
    (``action="drop"``) docs whose ``text`` shares any n-gram with the
    benchmark.

    ``bench_hashes`` is the sorted array from
    :func:`benchmark_ngram_hashes`; it is ``ray.put`` ONCE here and
    read zero-copy by every task."""
    if action not in ("flag", "drop"):
        raise ValueError(f"action must be flag|drop, got {action!r}")
    import ray

    bench_ref = ray.put(np.ascontiguousarray(bench_hashes))

    def tag(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        texts = batch["text"].to_pylist()
        hv, offsets = _batch_token_hash_arrays(texts)
        folds, doc_idx = _fold_ngrams_batch(hv, offsets, n)
        contaminated = np.zeros(len(texts), dtype=bool)
        if len(folds) and len(bench):
            hit = np.isin(folds, bench, assume_unique=False)
            contaminated[np.unique(doc_idx[hit])] = True
        if action == "drop":
            return batch.filter(pa.array(~contaminated))
        return batch.append_column(
            "contaminated", pa.array(contaminated)
        )

    return docs.map_batches(tag, batch_format="pyarrow")
