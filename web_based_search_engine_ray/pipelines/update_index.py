"""Incremental index update (the batch form of the reference's upsert:
``removeDocument`` + re-add, ``PostingIndex.java:41-42,93-115``, driven
by the freshness check ``Indexer.java:77-85``).

Strategy — leveraging the doc-partitioned layout so unchanged documents
are never re-tokenized:

1. ``filter_fresh`` picks corpus rows that are new or strictly newer
   than the indexed version; they are extracted and written to
   ``_extracted_delta/`` by the build's own ``_write_extracted_lww``
   (``doc_shard``-partitioned, shard-local last-write-wins per url).
2. Only the ``extracted/doc_shard=S`` partitions holding touched
   documents are rewritten as (old rows minus updated/removed urls) ∪
   fresh rows (IO only, no parsing of unchanged docs); every other
   partition stays byte-identical on disk.
3. The ``extracted/`` manifest is re-stamped with the new input key and
   per-shard fingerprints: rewritten shards get the new key, the rest
   keep theirs.  ``build_index(resume=True)`` then regenerates
   everything downstream, and its shard runner rebuilds segments and
   forward only for shards whose fingerprint changed.  docmeta, edges,
   lexicon and docstats recompute corpus-wide, so df/idf and every
   doc's cosine norm are globally consistent after the update (the
   reference gets the same property by recomputing doc length per
   query).

``remove_missing=True`` adds full-sync deletion: indexed urls absent
from the snapshot are dropped (their shards rebuilt), keeping df / N /
norms globally consistent — completing the ``removeDocument`` surface
the reference defines but never drives.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.pipelines.build_index import (
    _add_doc_shard,
    _count_parquet,
    _extract_task,
    _fp,
    _shard_files,
    _write_extracted_lww,
    build_index,
    filter_fresh,
)
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.state import manifest as mf


def _removed_docs(corpus, index_dir: str, cfg: IndexConfig):
    """(doc_id, url) of indexed docs ABSENT from the snapshot — a
    url-hash-bucket shuffle anti-join over two skinny url columns
    (``pc.index_in`` per bucket), no driver-side url sets.  Physical
    plan shared with the freshness threshold probe
    (``build_index._bucketed_url_join``)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.build_index import (
        _bucketed_url_join,
    )

    snap = corpus.select_columns(["url"])
    stored_side = rd.read_parquet(
        os.path.join(index_dir, "docmeta"), columns=["doc_id", "url"]
    )

    def gone(group: pa.Table) -> pa.Table:
        is_stored = group["stored"].to_numpy(zero_copy_only=False)
        st = group.filter(pa.array(is_stored))
        snap_urls = group.filter(pa.array(~is_stored))["url"].combine_chunks()
        missing = pc.is_null(pc.index_in(st["url"], value_set=snap_urls))
        out = st.filter(missing)
        return pa.table({"doc_id": out["payload"], "url": out["url"]})

    df = _bucketed_url_join(
        [
            (snap, lambda b: np.full(b.num_rows, -1, dtype=np.int64), False),
            (
                stored_side,
                lambda b: b["doc_id"].to_numpy(zero_copy_only=False),
                True,
            ),
        ],
        gone,
        num_buckets=cfg.num_buckets,
        out_cols={"doc_id": np.int64, "url": object},
    )
    return df


def update_index(
    corpus_fn,
    index_dir: str,
    cfg: IndexConfig | None = None,
    *,
    input_key: str,
    remove_missing: bool = False,
) -> dict:
    """Apply a corpus snapshot to an existing index.  ``input_key`` must
    differ from the previous build's key (it fingerprints the new
    snapshot).  Returns the ``build_index`` report; ``report["update"]``
    carries the incremental stats.

    ``remove_missing=True`` treats the snapshot as AUTHORITATIVE: urls
    currently indexed but absent from the snapshot are deleted (their
    doc shards rebuilt) — the full-sync semantics the reference lacks
    (``PostingIndex.removeDocument`` exists but nothing ever calls it
    for disappeared urls).  The default keeps reference behavior:
    unseen urls stay indexed forever."""
    import ray
    import ray.data as rd

    cfg = cfg or IndexConfig()
    sem = cfg.semantic_key()
    # refuse to mix segment formats: untouched shard partitions are kept
    # byte-identical, so the stored index must have been built with the
    # same semantic config (incl. format_version) as this update
    stored_meta = mf.read_json(os.path.join(index_dir, "meta.json"))
    from web_based_search_engine_ray.pipelines.search import _load_cfg

    stored_sem = _load_cfg(stored_meta["config"]).semantic_key()
    if stored_sem != sem:
        raise ValueError(
            f"index at {index_dir} was built with semantic config "
            f"{stored_sem}; update requires {sem} — rebuild with "
            "build_index instead of updating across formats"
        )
    d_ext = os.path.join(index_dir, "extracted")
    fresh_ext = filter_fresh(corpus_fn(), index_dir).map_batches(
        functools.partial(_extract_task, verify=cfg.verify_extraction),
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )
    d_delta = os.path.join(index_dir, "_extracted_delta")
    fsio.rmtree(d_delta, ignore_errors=True)
    _write_extracted_lww(fresh_ext, d_delta, cfg)
    delta_files = _shard_files(d_delta, range(cfg.doc_shards))
    delta_meta = (
        fsio.parquet_read_table(delta_files, columns=["url", "doc_id"])
        if delta_files else pa.table({"url": pa.array([], pa.string()),
                                      "doc_id": pa.array([], pa.int64())})
    )
    n_fresh = delta_meta.num_rows

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    # ---- urls deleted from the snapshot (full-sync mode) -----------------
    removed_urls: set = set()
    removed_ids = np.empty(0, dtype=np.int64)
    if remove_missing:
        # distributed anti-join: skinny (url) sides only, shuffled by
        # url-hash bucket and matched vectorized per bucket — neither
        # the snapshot's nor the index's full url set ever reaches the
        # driver.  Only the RESULT (deleted urls + their doc_ids,
        # bounded by the deletion count) is collected.
        removed = _removed_docs(corpus_fn(), index_dir, cfg)
        removed_urls = set(removed["url"])
        removed_ids = removed["doc_id"].to_numpy()

    if n_fresh == 0 and not removed_urls:
        fsio.rmtree(d_delta, ignore_errors=True)
        report = mf.read_json(os.path.join(index_dir, "meta.json"))
        report["update"] = {"fresh_docs": 0, "affected_shards": [],
                           "removed_docs": 0}
        return report

    fresh_urls = set(delta_meta["url"].to_pylist())
    fresh_ids = delta_meta["doc_id"].to_numpy(zero_copy_only=False)

    # old doc ids of the updated urls (their postings live in shards
    # that must be rebuilt even if the new doc_id hashes elsewhere)
    if fresh_urls:
        old_meta = pads.dataset(
            os.path.join(index_dir, "docmeta"), format="parquet"
        ).to_table(
            columns=["doc_id", "url"],
            filter=pc.field("url").isin(list(fresh_urls)),
        )
        old_ids = old_meta["doc_id"].to_numpy(zero_copy_only=False)
    else:
        old_ids = np.empty(0, dtype=np.int64)

    n_shards = cfg.doc_shards
    affected = sorted(
        set((fresh_ids % n_shards).tolist())
        | set((old_ids % n_shards).tolist())
        | set((removed_ids % n_shards).tolist())
    )

    # ---- rewrite extracted/: old minus (updated ∪ removed), plus delta ---
    # touched urls are bounded by the update size (fresh + removed), so
    # the broadcast set is delta-sized, never index-sized
    urls_ref = ray.put(pa.array(sorted(fresh_urls | removed_urls)))

    def drop_updated(batch: pa.Table) -> pa.Table:
        known = ray.get(urls_ref)  # zero-copy Arrow array from plasma
        keep = pc.invert(pc.is_in(batch["url"], value_set=known))
        return batch.filter(keep)

    # partition-pruned rewrite: only the AFFECTED shards' extracted rows
    # are read and rewritten; untouched partition dirs are not opened,
    # so they stay byte-identical on disk.  Both sides are file lists
    # of doc_shard= dirs, so their schemas match for the union.
    d_ext_new = os.path.join(index_dir, "_extracted_new")
    fsio.rmtree(d_ext_new, ignore_errors=True)
    parts = []
    aff_files = _shard_files(d_ext, affected)
    if aff_files:
        parts.append(
            rd.read_parquet(**fsio.ray_file_list(aff_files)).map_batches(
                drop_updated, batch_format="pyarrow"
            )
        )
    if delta_files:
        parts.append(rd.read_parquet(**fsio.ray_file_list(delta_files)))
    if parts:
        merged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        merged.map_batches(
            functools.partial(_add_doc_shard, n_shards=n_shards),
            batch_format="pyarrow",
        ).write_parquet(
            d_ext_new,
            partition_cols=["doc_shard"],
            min_rows_per_file=cfg.min_rows_per_file,
        )
    for s in affected:
        part = f"doc_shard={s}"
        old_part = os.path.join(d_ext, part)
        new_part = os.path.join(d_ext_new, part)
        if fsio.isdir(old_part):
            fsio.rmtree(old_part)
        if fsio.isdir(new_part):
            fsio.replace(new_part, old_part)
    fsio.rmtree(d_ext_new, ignore_errors=True)
    n_ext = _count_parquet(d_ext)
    fsio.rmtree(d_delta, ignore_errors=True)

    # ---- per-shard fingerprints: the incremental contract ----------------
    # Untouched doc_shard partitions are byte-identical on disk, so they
    # keep the fingerprint of the last write that touched them; the
    # rewritten ones get the new key.  The sharded segments and forward
    # stages (build_index._run_sharded_stage) key their part manifests
    # on these, so the resumed build below re-tokenizes only the
    # affected shards.  The globally-derived stages (lexicon df,
    # docstats norms — both depend on corpus-wide df/N by SEMANTICS)
    # still recompute.
    fp_ext = _fp("extracted", sem, input_key)
    shard_fps = mf.load_manifest(d_ext)["shard_fps"]
    shard_fps.update({str(s): fp_ext for s in affected})
    mf.write_manifest(d_ext, fp_ext, n_ext,
                      extra={"updated": True, "shard_fps": shard_fps})

    # ---- everything downstream via the normal (resumable) build ----------
    def _no_corpus():
        raise RuntimeError(
            "corpus must not be re-read: extracted stage is primed"
        )

    report = build_index(
        _no_corpus, index_dir, cfg, input_key=input_key, resume=True
    )
    report["update"] = {
        "fresh_docs": int(n_fresh),
        "removed_docs": int(len(removed_ids)),
        "affected_shards": [int(s) for s in affected],
    }
    mf.write_json(os.path.join(index_dir, "meta.json"), report)
    return report
