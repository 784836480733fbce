"""Unigram-LM quality scoring (the CCNet-style "perplexity filter",
with the KenLM stand-in being a corpus-fit unigram model — the public
container has no LM runtime, but the DISTRIBUTION pattern is the real
thing: fit small model on the corpus → broadcast → score every doc in
one streaming pass).

Two stages:

1. **Fit** — global token counts: per-block partial counts inside
   ``map_batches`` (combiner), then ``groupby(token).sum`` — the
   shuffle moves |vocab| rows, not |tokens|.  The model kept is the
   TOP-``max_vocab`` tokens by count (ties broken by token) plus an
   OOV bucket; at web scale the tail beyond a few million types
   contributes ~0 probability mass and capping bounds both the driver
   merge and the broadcast.  Probabilities are Laplace-smoothed over
   ``kept_vocab + 1`` outcomes (the +1 is the OOV bucket).
2. **Score** — the model ships as two numpy arrays (sorted md5 token
   hashes + log-probs) via ``ray.put`` once; scoring is a streaming
   ``map_batches`` using the dedup module's batched token-hash memo +
   ``np.searchsorted`` — no Python per token, no shuffle.

Score = mean token log-prob (natural log, rounded for hash-stable
comparison); higher = more "typical" text.  Docs with zero tokens get
score 0 and ``n_tokens`` 0.

The whole computation (uncapped-vocab case) is mirrored exactly in SQL
by the registry oracle; the cap is exercised by unit tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.pipelines.dedup import (
    _batch_token_hash_arrays,
)


def fit_unigram(docs, *, max_vocab: int = 1 << 22) -> dict:
    """Fit the model on the ``text`` column: returns ``{"hashes",
    "logp", "logp_oov", "total", "vocab"}`` with ``hashes`` sorted
    uint64 (md5 token hashes) and ``logp`` float64 aligned to it."""

    def partial(batch: pa.Table) -> pa.Table:
        hv, _ = _batch_token_hash_arrays(batch["text"].to_pylist())
        u, c = np.unique(hv, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.astype(np.int64), type=pa.int64()),
                "c": pa.array(c.astype(np.int64), type=pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    merged = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("c", alias_name="count"))
    )
    t = merged.to_pandas()  # |vocab| rows — capped below by contract
    h = t["h"].to_numpy().astype(np.uint64)
    c = t["count"].to_numpy().astype(np.int64)
    if len(h) > max_vocab:
        # keep the max_vocab most frequent (ties: smaller hash wins,
        # deterministic); the rest fold into the OOV bucket
        order = np.lexsort((h, -c))
        keep = np.sort(order[:max_vocab])
        h, c = h[keep], c[keep]
    total = int(c.sum())
    vocab = len(h)
    order = np.argsort(h)
    h, c = h[order], c[order]
    denom = total + vocab + 1  # Laplace over vocab + OOV outcomes
    logp = np.log((c + 1.0) / denom)
    return {
        "hashes": h,
        "logp": logp,
        "logp_oov": float(np.log(1.0 / denom)),
        "total": total,
        "vocab": vocab,
    }


def score_unigram(docs, model: dict):
    """Dataset of ``(doc_id, n_tokens, lm_score)`` — mean token
    log-prob of ``text`` under the broadcast model."""
    import ray

    hashes_ref = ray.put(np.ascontiguousarray(model["hashes"]))
    logp_ref = ray.put(np.ascontiguousarray(model["logp"]))
    logp_oov = model["logp_oov"]

    def score(batch: pa.Table) -> pa.Table:
        hs = ray.get(hashes_ref)
        lp = ray.get(logp_ref)
        hv, offsets = _batch_token_hash_arrays(batch["text"].to_pylist())
        pos = np.searchsorted(hs, hv)
        pos_c = np.minimum(pos, len(hs) - 1) if len(hs) else pos
        hit = (len(hs) > 0) & (hs[pos_c] == hv) if len(hs) else np.zeros(
            len(hv), dtype=bool
        )
        tok_lp = np.where(hit, lp[pos_c] if len(hs) else 0.0, logp_oov)
        sums = np.add.reduceat(
            np.concatenate((tok_lp, [0.0])), offsets[:-1]
        ) if len(offsets) > 1 else np.empty(0)
        lens = np.diff(offsets)
        # reduceat quirk: empty frames copy the element at the offset —
        # zero them explicitly
        sums = np.where(lens > 0, sums, 0.0)
        mean = np.where(lens > 0, sums / np.maximum(lens, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(lens.astype(np.int64)),
                "lm_score": pa.array(mean),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")
