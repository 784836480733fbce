"""Sequence packing: token-budgeted bin assignment for training export.

LLM pre-training consumes fixed-length sequences; exporting a corpus
means packing variable-length docs into token-budget bins.  The
operator assigns ``(shard, pack)`` per doc with GREEDY FIRST-FIT IN
DOC-ID ORDER within each hash shard:

- ``shard = doc_id % num_shards`` — the unit of parallelism.  Packing
  is inherently sequential (each decision depends on the running
  fill), so the sequential scan runs per shard and shards run in
  parallel; size ``num_shards`` to the cluster.  This partitioning
  assumption is the documented contract (task-brief custom-operator
  rule (b)).
- within a shard, docs are sorted by ``doc_id`` and appended to the
  current pack while ``fill + n_tok <= budget``, else a new pack
  starts.  A doc longer than the budget gets a pack of its own (docs
  are never split).

Deterministic (pure function of the doc-id set and token counts), so
the export is reproducible and resumable per shard.  Token counts come
from :func:`text_pipeline.token_count_batch` (the oracle-verified
engine tokenizer), keeping the packing oracle exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.pipelines.text_pipeline import (
    token_count_batch,
)
from web_based_search_engine_ray.util import coalesce


def _pack_greedy(n_tok: np.ndarray, budget: int) -> np.ndarray:
    """Greedy first-fit-in-order pack ids for one shard's sorted token
    counts.  O(n) integer scan — sequential by the problem's nature
    (each step depends on the running fill); runs per SHARD, which is
    the parallel axis."""
    pack = np.empty(len(n_tok), dtype=np.int64)
    p = 0
    fill = -1  # sentinel: first doc always opens pack 0
    for i, t in enumerate(n_tok.tolist()):
        if fill >= 0 and fill + t <= budget:
            fill += t
        elif fill < 0:
            fill = t
        else:
            p += 1
            fill = t
        pack[i] = p
    return pack


def pack_sequences(ds, budget: int, *, num_shards: int = 4):
    """``(doc_id, shard, pack, token_count)`` per doc.

    ``ds`` needs (doc_id, text); token counts are computed
    streaming, then ONE bounded shuffle groups by shard and each group
    packs sequentially.  Pack ids are shard-local (globally unique as
    ``(shard, pack)``)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    def counts(batch: pa.Table) -> pa.Table:
        t = token_count_batch(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "shard": pa.array(ids % num_shards, type=pa.int64()),
                "token_count": t["token_count"],
            }
        )

    def pack_group(g: pa.Table) -> pa.Table:
        g = g.sort_by([("doc_id", "ascending")])
        pack = _pack_greedy(
            g["token_count"].to_numpy(zero_copy_only=False), budget
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "shard": g["shard"],
                "pack": pa.array(pack, type=pa.int64()),
                "token_count": g["token_count"],
            }
        )

    skinny = ds.map_batches(counts, batch_format="pyarrow")
    return (
        coalesce(skinny)
        .groupby("shard")
        .map_groups(pack_group, batch_format="pyarrow")
    )


def verify_packing(df, budget: int) -> None:
    """In-process packing invariants (raises on violation): within
    every (shard, pack), token sums respect the budget unless the pack
    is a single over-budget doc; pack ids are contiguous from 0 per
    shard; greedy tightness — the first doc of pack p+1 did NOT fit in
    pack p."""
    for shard, g in df.groupby("shard"):
        g = g.sort_values("doc_id").reset_index(drop=True)
        sums = g.groupby("pack")["token_count"].sum()
        sizes = g.groupby("pack")["token_count"].count()
        over = sums[sums > budget]
        assert (sizes[over.index] == 1).all(), (
            f"shard {shard}: multi-doc pack exceeds budget"
        )
        packs = np.sort(g["pack"].unique())
        assert (packs == np.arange(len(packs))).all(), (
            f"shard {shard}: pack ids not contiguous"
        )
        # greedy tightness
        firsts = g.drop_duplicates("pack", keep="first")
        for _, row in firsts.iloc[1:].iterrows():
            prev_sum = sums[row["pack"] - 1]
            assert prev_sum + row["token_count"] > budget, (
                f"shard {shard}: doc {row['doc_id']} should have "
                f"joined pack {row['pack'] - 1}"
            )
