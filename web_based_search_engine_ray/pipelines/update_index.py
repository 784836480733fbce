"""Incremental index update (the batch form of the reference's upsert:
``removeDocument`` + re-add, ``PostingIndex.java:41-42,93-115``, driven
by the freshness check ``Indexer.java:77-85``).

Strategy — leveraging the doc-partitioned layout so unchanged documents
are never re-tokenized:

1. ``filter_fresh`` picks corpus rows that are new or strictly newer
   than the indexed version.
2. Fresh rows are extracted; the ``extracted/`` checkpoint is rewritten
   as (old rows minus updated urls) ∪ fresh rows (IO only, no parsing
   of unchanged docs).
3. Only segment partitions (``doc_shard``) containing touched doc_ids
   are rebuilt (tokenize runs only over those shards' documents); all
   other shard partitions are left byte-identical on disk.
4. Manifests for the externally rebuilt stages are written with the
   fingerprints ``build_index`` would compute for the new input key,
   then ``build_index(resume=True)`` regenerates everything downstream
   (docmeta, edges, forward, lexicon, docstats) from the merged
   segments — these passes decode compressed segments and never
   re-tokenize.  df/idf and every doc's cosine norm are therefore
   globally consistent after the update (the reference gets the same
   property by recomputing doc length per query).

With ``doc_shards == 1`` the segment rebuild degenerates to a full
re-tokenize (still correct); partition-pruned updates need the sharded
layout.

``remove_missing=True`` adds full-sync deletion: indexed urls absent
from the snapshot are dropped (their shards rebuilt), keeping df / N /
norms globally consistent — completing the ``removeDocument`` surface
the reference defines but never drives.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.pipelines.build_index import (
    _add_url_bucket,
    _count_parquet,
    _extract_task,
    _fp,
    _load_shard_tokens,
    _lww_group,
    _shuffle_parts,
    _write_shard_tokens,
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
    if not fsio.isdir(d_ext) and fsio.isdir(
        os.path.join(index_dir, "extracted_parts")
    ):
        raise NotImplementedError(
            "update_index over a part-partitioned extracted layout: "
            "re-run build_index with corpus_parts_fn — only parts whose "
            "input changed are re-extracted (per-part manifests)"
        )

    fresh = filter_fresh(corpus_fn(), index_dir)
    if cfg.dedup_urls:
        fresh = fresh.map_batches(
            functools.partial(_add_url_bucket, num_buckets=cfg.num_buckets),
            batch_format="pyarrow",
        ).repartition(_shuffle_parts(cfg)).groupby("url_bucket").map_groups(
            _lww_group, batch_format="pyarrow"
        )
    fresh_ext = fresh.map_batches(
        functools.partial(_extract_task, verify=cfg.verify_extraction),
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
    )
    d_delta = os.path.join(index_dir, "_extracted_delta")
    fsio.rmtree(d_delta, ignore_errors=True)
    fresh_ext.write_parquet(d_delta)
    try:
        n_fresh = _count_parquet(d_delta)
    except Exception:
        n_fresh = 0

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

    if n_fresh:
        delta = rd.read_parquet(d_delta)
        delta_meta = delta.select_columns(["url", "doc_id"]).to_pandas()
        fresh_urls = set(delta_meta["url"])
        fresh_ids = delta_meta["doc_id"].to_numpy()
    else:
        fresh_urls = set()
        fresh_ids = np.empty(0, dtype=np.int64)

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

    n_shards = max(1, cfg.doc_shards)
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

    from web_based_search_engine_ray.pipelines.build_index import (
        _add_doc_shard,
    )

    ext_partitioned = any(
        d.startswith("doc_shard=") for d in fsio.listdir(d_ext)
    )
    d_ext_new = os.path.join(index_dir, "_extracted_new")
    fsio.rmtree(d_ext_new, ignore_errors=True)
    if ext_partitioned:
        # partition-pruned rewrite: only the AFFECTED shards' extracted
        # rows are read and rewritten; untouched partition dirs are not
        # opened, so they stay byte-identical on disk
        aff_dirs = [
            p
            for s in affected
            if fsio.isdir(p := os.path.join(d_ext, f"doc_shard={s}"))
        ]
        # expand to file paths: a LIST of directories is treated as
        # explicit file paths by the pyarrow dataset factory (opening a
        # directory as a file is an error); per-file paths also skip
        # partition inference, keeping the schema aligned with the
        # unpartitioned delta for the union below
        aff_files = [
            os.path.join(p, f)
            for p in aff_dirs
            for f in fsio.listdir(p)
            if f.endswith(".parquet")
        ]
        parts = []
        if aff_files:
            parts.append(
                rd.read_parquet(aff_files).map_batches(
                    drop_updated, batch_format="pyarrow"
                )
            )
        if n_fresh:
            parts.append(rd.read_parquet(d_delta))
        if parts:
            merged = parts[0]
            for p in parts[1:]:
                merged = merged.union(p)
            merged = merged.map_batches(
                functools.partial(_add_doc_shard, n_shards=n_shards),
                batch_format="pyarrow",
            )
            merged.write_parquet(
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
    else:
        # flat layout (doc_shards == 1 or a pre-partitioning index):
        # full read+rewrite, as before
        survivors = rd.read_parquet(d_ext).map_batches(
            drop_updated, batch_format="pyarrow"
        )
        merged = (
            survivors.union(rd.read_parquet(d_delta))
            if n_fresh
            else survivors
        )
        merged.write_parquet(
            d_ext_new, min_rows_per_file=cfg.min_rows_per_file
        )
        fsio.rmtree(d_ext)
        fsio.replace(d_ext_new, d_ext)
    n_ext = _count_parquet(d_ext)
    fsio.rmtree(d_delta, ignore_errors=True)

    # ---- per-shard content tokens: the incremental contract --------------
    # Untouched doc_shard partitions are byte-identical on disk.  Record
    # that fact for the resumed build: each shard keeps the fingerprint
    # of the last write that touched it, so the sharded segments AND
    # forward stages (keyed on these tokens, build_index.
    # _run_sharded_stage) re-tokenize only the affected shards.  The
    # globally-derived stages (lexicon df, docstats norms — both depend
    # on corpus-wide df/N by SEMANTICS) still recompute.
    old_man = mf.load_manifest(d_ext) or {}
    fp_ext_old = old_man.get("fingerprint", "")
    fp_ext = _fp("extracted", sem, input_key)
    full_rebuild = (
        cfg.doc_shards <= 1 or len(affected) >= n_shards or not ext_partitioned
    )
    if full_rebuild:
        try:
            fsio.remove(os.path.join(index_dir, "_shard_tokens.json"))
        except Exception:
            pass
    else:
        prev = _load_shard_tokens(index_dir, fp_ext_old)
        tokens = {
            str(s): (
                fp_ext
                if s in set(affected)
                else prev.get(str(s), fp_ext_old)
            )
            for s in range(n_shards)
        }
        _write_shard_tokens(index_dir, fp_ext, tokens)
    mf.write_manifest(d_ext, fp_ext, n_ext, extra={"updated": True})

    # ---- everything downstream via the normal (resumable) build ----------
    # segments/forward prune to the affected shards via the tokens above;
    # the sharded stage path must be on for the pruning to apply
    # (partitioned_build is physical layout only — not in semantic_key)
    if not full_rebuild and not cfg.partitioned_build:
        cfg = dataclasses.replace(cfg, partitioned_build=True)
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
        "full_segment_rebuild": bool(full_rebuild),
    }
    mf.write_json(os.path.join(index_dir, "meta.json"), report)
    return report
