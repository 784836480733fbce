"""Corpus-profiling compositions: per-group term statistics, duplicate
rates, and embedding centroids — the dashboard queries a training-data
curation run reports next to the cleaning funnel.

All three follow the same 100-TB shape: a vectorized per-batch
COMBINER shrinks the exchange to (group, key) partials, the only
shuffle is a small ``groupby`` over the combined keys, and any
driver-side step is O(groups), never O(rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.functions.hashing import text_key63_array
from web_based_search_engine_ray.functions.tokenize import TOKEN_RE


def top_terms_per_group(ds, *, group_col: str = "lang", k: int = 5):
    """Top-``k`` tokens of ``text`` per group by occurrence count (ties:
    token asc).  Combiner: per-batch (group, term) counts (the exchange
    carries unique pairs per block, not occurrences); per-group top-k
    runs in one ``map_groups`` over the small combined table."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        groups = batch[group_col].to_pylist()
        texts = batch["text"].to_pylist()
        g_out, t_out = [], []
        for g, txt in zip(groups, texts):
            toks = [t.lower() for t in TOKEN_RE.split(txt) if t]
            g_out.extend([g] * len(toks))
            t_out.extend(toks)
        t = pa.table(
            {
                group_col: pa.array(g_out, type=pa.string()),
                "term": pa.array(t_out, type=pa.string()),
            }
        )
        agg = t.group_by([group_col, "term"]).aggregate([([], "count_all")])
        return pa.table(
            {
                group_col: agg[group_col],
                "term": agg["term"],
                "n_part": agg["count_all"],
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "term"])
        .aggregate(Sum("n_part", alias_name="n"))
    )

    def topk(group: pa.Table) -> pa.Table:
        n = group["n"].to_numpy(zero_copy_only=False)
        terms = np.asarray(group["term"].to_pylist(), dtype=object)
        order = np.lexsort((terms, -n))[:k]
        return pa.table(
            {
                group_col: group[group_col].take(pa.array(order)),
                "term": pa.array(terms[order], type=pa.string()),
                "n": pa.array(n[order], type=pa.int64()),
            }
        )

    return merged.groupby(group_col).map_groups(
        topk, batch_format="pyarrow"
    )


def dup_rate_by_group(ds):
    """Per-``source`` exact-duplicate profile: ``(source, n_docs,
    n_unique, dup_rate)``.  Distinctness is md5-of-text within group
    (the same collision contract as ``dedup.exact_dedup``): the
    combiner emits unique (group, hash) pairs per block plus block row
    counts, one ``groupby`` merges both — no full-text exchange."""
    from ray.data.aggregate import Count, Sum

    def partial(batch: pa.Table) -> pa.Table:
        groups = np.asarray(batch["source"].to_pylist(), dtype=object)
        hashes = text_key63_array(batch["text"].to_pylist())
        order = np.lexsort((hashes, groups))
        g, h = groups[order], hashes[order]
        new = np.ones(len(g), dtype=bool)
        new[1:] = (g[1:] != g[:-1]) | (h[1:] != h[:-1])
        counts = np.diff(
            np.append(np.flatnonzero(new), len(g))
        )
        return pa.table(
            {
                "source": pa.array(g[new], type=pa.string()),
                "h": pa.array(h[new], type=pa.int64()),
                "n_part": pa.array(counts, type=pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "h"])
        .aggregate(Sum("n_part", alias_name="n_occ"))
    )
    per_group = (
        pairs.groupby("source")
        .aggregate(
            Count(alias_name="n_unique"),
            Sum("n_occ", alias_name="n_docs"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        nu = batch["n_unique"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        return pa.table(
            {
                "source": batch["source"],
                "n_docs": batch["n_docs"],
                "n_unique": batch["n_unique"],
                "dup_rate": pa.array(
                    np.round(1.0 - nu / nd, 9), type=pa.float64()
                ),
            }
        )

    return per_group.map_batches(finish, batch_format="pyarrow")


def label_centroids(ds):
    """Per-label centroid of the ``embedding`` column as long-form
    ``(label, dim, centroid)`` rows, rounded to 6 decimals.  Combiner:
    per-batch per-label vector sums (one numpy ``add.reduceat`` per
    batch), so the shuffle carries |labels|×dim partials per block,
    never vectors."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch["label"].to_numpy(zero_copy_only=False)
        emb = batch["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        # flatten() honors array offsets (values would not on slices)
        mat = np.asarray(emb.flatten().to_numpy(zero_copy_only=False),
                         dtype=np.float64)
        dim = mat.size // max(1, len(labels))
        mat = mat.reshape(len(labels), dim)
        order = np.argsort(labels, kind="mergesort")
        sl, sm = labels[order], mat[order]
        new = np.ones(len(sl), dtype=bool)
        new[1:] = sl[1:] != sl[:-1]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(sm, starts, axis=0)
        counts = np.diff(np.append(starts, len(sl)))
        ul = sl[starts]
        return pa.table(
            {
                "label": pa.array(
                    np.repeat(ul.astype(np.int64), dim), type=pa.int64()
                ),
                "dim": pa.array(
                    np.tile(np.arange(dim, dtype=np.int64), len(ul)),
                    type=pa.int64(),
                ),
                "s_part": pa.array(sums.ravel(), type=pa.float64()),
                "n_part": pa.array(
                    np.repeat(counts, dim).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(
            Sum("s_part", alias_name="s"),
            Sum("n_part", alias_name="n"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "label": batch["label"],
                "dim": batch["dim"],
                "centroid": pa.array(
                    np.round(s / n, 6), type=pa.float64()
                ),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")
