"""End-to-end corpus-cleaning composition: the filter→dedup funnel a
training-data pipeline runs before export (CCNet / Gopher / FineWeb
shape, public recipes), built entirely from this repo's oracled
operators so the WHOLE chain has a value-exact SQL mirror:

    language-ID gate → quality gates (length, alpha ratio) →
    repetition gate (dup-bigram fraction) → exact dedup (keep min
    doc per identical text) → MinHash-LSH fuzzy dedup (keep min doc
    per near-dup component)

Physical shape: the three metric gates FUSE into one ``map_batches``
pass (one tokenize per doc serves langid + repetition; quality is a
byte-table pass), so a 100-TB corpus is read ONCE for all gates; the
only shuffles are the two dedup stages (hash-bucketed, same machinery
as ``pipelines/dedup.py``).  Each stage's survivor count is reported
in the funnel dict.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.functions.hashing import text_key63_array
from web_based_search_engine_ray.util import coalesce, worker_singleton


def clean_corpus(
    ds,
    *,
    allowed_langs: tuple[str, ...] = ("en",),
    min_chars: int = 100,
    min_alpha: float = 0.81,
    max_dup_bigram: float = 0.12,
    num_buckets: int = 64,
):
    """Run the cleaning funnel over a (doc_id, text) Dataset.

    Returns ``(kept, funnel)``: ``kept`` a Dataset of surviving
    ``doc_id`` rows, ``funnel`` a dict of per-stage survivor counts.
    All gate comparisons use the raw (unrounded) float64 metrics, which
    both the numpy and SQL sides compute as identical int/int
    divisions — so the SQL oracle reproduces the funnel exactly."""
    from web_based_search_engine_ray.pipelines.dedup import (
        dedup_keep_min,
        minhash_lsh_pairs,
    )
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        LangIdHeuristic,
        quality_batch,
        repetition_stats_batch,
    )

    langs = frozenset(allowed_langs)

    def gate(batch: pa.Table) -> pa.Table:
        lid = worker_singleton("clean_langid", LangIdHeuristic)
        lp = lid(batch)["lang_pred"].to_numpy(zero_copy_only=False)
        q = quality_batch(batch)
        rep = repetition_stats_batch(batch)
        mask = (
            np.fromiter((p in langs for p in lp), dtype=bool, count=len(lp))
            & (q["n_chars"].to_numpy() >= min_chars)
            & (q["alpha_ratio"].to_numpy() >= min_alpha)
            & (rep["dup_bigram_frac"].to_numpy() <= max_dup_bigram)
        )
        return batch.select(["doc_id", "text"]).filter(pa.array(mask))

    n_input = ds.count()
    survivors = ds.map_batches(gate, batch_format="pyarrow").materialize()
    n_gated = survivors.count()

    # exact dedup keeping the rows (text must survive into the fuzzy
    # stage): same md5-63-bit text key + bucket shuffle as
    # dedup.exact_dedup, but the group function returns the kept rows
    nb = np.int64(num_buckets)

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = text_key63_array(batch["text"].to_pylist())
        return batch.append_column(
            "bucket", pa.array(hs % nb, type=pa.int64())
        ).append_column("text_hash", pa.array(hs, type=pa.int64()))

    def keep_first(group: pa.Table) -> pa.Table:
        g = group.sort_by(
            [("text_hash", "ascending"), ("doc_id", "ascending")]
        )
        hs = g["text_hash"].to_numpy(zero_copy_only=False)
        _, first = np.unique(hs, return_index=True)
        return g.take(pa.array(np.sort(first))).select(["doc_id", "text"])

    exact_kept = (
        coalesce(survivors.map_batches(add_hash, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(keep_first, batch_format="pyarrow")
        .materialize()
    )
    n_exact = exact_kept.count()

    pairs = minhash_lsh_pairs(exact_kept, threshold=0.5)
    kept = (
        dedup_keep_min(exact_kept, pairs)
        .select_columns(["doc_id"])
        .materialize()
    )
    funnel = {
        "input": n_input,
        "after_gates": n_gated,
        "after_exact_dedup": n_exact,
        "after_fuzzy_dedup": kept.count(),
    }
    return kept, funnel
