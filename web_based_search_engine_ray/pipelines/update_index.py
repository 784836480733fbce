"""Incremental index update (the batch form of the reference's upsert:
``removeDocument`` + re-add, ``PostingIndex.java:41-42,93-115``, driven
by the freshness check ``Indexer.java:77-85``).

Strategy — leveraging the doc-partitioned layout so unchanged documents
are never re-tokenized:

1. ``classify_snapshot`` joins the snapshot's urls against the stored
   ``url, last_modified, doc_id`` columns of ``extracted/`` ONCE (a
   url-hash-bucket shuffle over two skinny sides) and returns only
   delta-sized results: the fresh urls with their thresholds, the
   old doc ids of those urls, and the removed docs.  ``fresh_rows``
   keeps the corpus rows newer than their url's threshold; they are
   extracted and written to ``_extracted_delta/`` by the build's own
   ``_write_extracted_lww`` (``doc_shard``-partitioned, shard-local
   last-write-wins per url).  An update with nothing fresh and nothing
   removed returns before the full corpus is read.
2. Only the ``extracted/doc_shard=S`` partitions holding touched
   documents are rewritten as (old rows minus updated/removed urls) ∪
   fresh rows (IO only, no parsing of unchanged docs); every other
   partition stays byte-identical on disk.
3. The ``extracted/`` manifest is re-stamped with the new input key and
   per-shard fingerprints: rewritten shards get the new key, the rest
   keep theirs.  ``build_index(resume=True)`` then regenerates
   everything downstream, and its shard runner rebuilds segments and
   forward only for shards whose fingerprint changed.  lexicon and
   docstats recompute corpus-wide, so df/idf and every doc's cosine
   norm are globally consistent after the update (the reference gets
   the same property by recomputing doc length per query).  Page
   columns and link edges need no recompute: readers take them from
   ``extracted/``, which step 2 already brought up to date.

``remove_missing=True`` adds full-sync deletion: indexed urls absent
from the snapshot are dropped (their shards rebuilt), keeping df / N /
norms globally consistent — completing the ``removeDocument`` surface
the reference defines but never drives.  The removed rows come out of
the same classify join as the fresh urls, so no second join runs.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

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
)
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.state import manifest as mf


#: threshold of a url with no stored row: every snapshot row beats it
_UNSEEN = np.iinfo(np.int64).min
#: row kinds of the classify join's delta-sized result
_FRESH, _OLD, _REMOVED = 0, 1, 2
#: the stored side's columns (a doc shard with no docs has no files)
_STORED_SCHEMA = pa.schema([("url", pa.string()),
                            ("last_modified", pa.timestamp("us")),
                            ("doc_id", pa.int64())])


class SnapshotClasses(NamedTuple):
    """Delta-sized result of :func:`classify_snapshot`."""

    fresh_urls: pa.Array  # urls with a row newer than every stored version
    thresholds: np.ndarray  # per fresh url: max stored last_modified
    # (us), or _UNSEEN for a url with no stored row
    old_ids: np.ndarray  # stored doc ids of the fresh urls
    removed_ids: np.ndarray  # stored doc ids of urls absent from the snapshot
    removed_urls: pa.Array


def _ts_us(col) -> np.ndarray:
    return (
        col.to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)
    )


def _tag(t: pa.Table, ts_col: str, stored: bool, num_buckets: int) -> pa.Table:
    from web_based_search_engine_ray.functions.hashing import fnv1a63_array

    n = t.num_rows
    return pa.table(
        {
            "url": t["url"],
            "ts": pa.array(_ts_us(t[ts_col]), type=pa.int64()),
            "doc_id": (
                t["doc_id"].cast(pa.int64()) if stored
                else pa.array(np.full(n, -1, dtype=np.int64))
            ),
            "stored": pa.array(np.full(n, stored)),
            "fbucket": pa.array(
                fnv1a63_array(t["url"]) % num_buckets, type=pa.int64()
            ),
        }
    )


def _read_stored(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    """One ``extracted/doc_shard=S`` partition per task, listed and read
    worker-side (``url, last_modified, doc_id`` only): the driver opens
    no stored file."""
    files = _shard_files(batch["ext"][0].as_py(), batch["shard"].to_pylist())
    t = (fsio.parquet_read_table(files, columns=_STORED_SCHEMA.names)
         if files else _STORED_SCHEMA.empty_table())
    return _tag(t, "last_modified", True, num_buckets)


def _classify_bucket(group: pa.Table, *, remove_missing: bool) -> pa.Table:
    """Classify every url of one hash bucket.  A url is fresh when it
    is unseen or its newest snapshot row is strictly newer than its
    newest stored row (``Indexer.isFreshDocument``)."""
    import pyarrow.compute as pc

    is_stored = group["stored"].to_numpy(zero_copy_only=False)
    st = group.filter(pa.array(is_stored))
    snap = group.filter(pa.array(~is_stored))
    # max on both sides: the threshold is the NEWEST stored version
    # (extracted keeps one row per url, but the join does not rely on it)
    thr = st.group_by("url").aggregate([("ts", "max")])
    new = snap.group_by("url").aggregate([("ts", "max")])
    pos = (
        pc.index_in(new["url"], value_set=thr["url"].combine_chunks())
        .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
    )
    threshold = np.full(len(pos), _UNSEEN, dtype=np.int64)
    seen = pos >= 0
    threshold[seen] = thr["ts_max"].to_numpy(zero_copy_only=False)[pos[seen]]
    fresh = new["ts_max"].to_numpy(zero_copy_only=False) > threshold
    fresh_urls = new["url"].filter(pa.array(fresh)).combine_chunks()

    def rows(kind: int, urls, vals) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.full(len(urls), kind, dtype=np.int8)),
            "url": urls,
            "val": pa.array(vals, type=pa.int64()),
        })

    out = [rows(_FRESH, fresh_urls, threshold[fresh])]
    old = st.filter(pc.is_in(st["url"], value_set=fresh_urls))
    out.append(rows(_OLD, old["url"], old["doc_id"].to_numpy()))
    if remove_missing:
        gone = st.filter(pc.invert(pc.is_in(
            st["url"], value_set=new["url"].combine_chunks()
        )))
        out.append(rows(_REMOVED, gone["url"], gone["doc_id"].to_numpy()))
    return pa.concat_tables(out)


def classify_snapshot(corpus, index_dir: str, cfg: IndexConfig, *,
                      remove_missing: bool = False) -> SnapshotClasses:
    """The update's one url join: a url-hash-bucket shuffle over two
    skinny sides, the snapshot's ``(url, warc_ts)`` and the stored
    ``(url, last_modified, doc_id)`` columns of ``extracted/`` (one read
    task per ``doc_shard`` partition), classified vectorized per bucket
    (:func:`_classify_bucket`).  Only the delta-sized result reaches
    the driver: the fresh urls with their thresholds, the stored doc
    ids of the fresh urls, and (with ``remove_missing``) the stored
    ``(doc_id, url)`` rows whose url the snapshot lacks.  Neither side's
    full url set is ever materialized on the driver."""
    import pandas as pd
    import ray.data as rd

    from web_based_search_engine_ray.util import coalesce

    nb = cfg.num_buckets
    d_ext = os.path.join(index_dir, "extracted")
    snap = corpus.select_columns(["url", "warc_ts"]).map_batches(
        functools.partial(_tag, ts_col="warc_ts", stored=False,
                          num_buckets=nb),
        batch_format="pyarrow",
    )
    stored = rd.from_items(
        [{"ext": d_ext, "shard": s} for s in range(cfg.doc_shards)]
    ).map_batches(
        functools.partial(_read_stored, num_buckets=nb),
        batch_size=1, batch_format="pyarrow",
    )
    df = (
        coalesce(snap.union(stored))
        .groupby("fbucket")
        .map_groups(
            functools.partial(_classify_bucket, remove_missing=remove_missing),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    # an empty map_groups output loses its schema
    if df.empty or "kind" not in df.columns:
        df = pd.DataFrame({"kind": np.empty(0, dtype=np.int8),
                           "url": np.empty(0, dtype=object),
                           "val": np.empty(0, dtype=np.int64)})
    kind = df["kind"].to_numpy()

    def part(k: int):
        sel = df[kind == k]
        return (pa.array(sel["url"], type=pa.string()),
                sel["val"].to_numpy(dtype=np.int64))

    fresh_urls, thresholds = part(_FRESH)
    removed_urls, removed_ids = part(_REMOVED)
    return SnapshotClasses(fresh_urls, thresholds, part(_OLD)[1],
                           removed_ids, removed_urls)


def fresh_rows(corpus, classes: SnapshotClasses):
    """Corpus rows newer than their url's threshold.  Stale duplicates
    of a fresh url are dropped here; ``_write_extracted_lww`` then keeps
    the newest of the rest.  The broadcast holds the fresh urls only."""
    import pyarrow.compute as pc
    import ray

    ref = ray.put((classes.fresh_urls, classes.thresholds))

    def keep_fresh(batch: pa.Table) -> pa.Table:
        urls, thr = ray.get(ref)  # zero-copy from plasma
        pos = (
            pc.index_in(batch["url"], value_set=urls)
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        keep = pos >= 0
        hit = np.flatnonzero(keep)
        keep[hit] = _ts_us(batch["warc_ts"])[hit] > thr[pos[hit]]
        return batch.filter(pa.array(keep))

    return corpus.map_batches(keep_fresh, batch_format="pyarrow")


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
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    cfg = cfg or IndexConfig()
    sem = cfg.semantic_key()
    # refuse to mix segment formats: untouched shard partitions are kept
    # byte-identical, so the stored index must have been built with the
    # same semantic config (incl. format_version) as this update; an
    # index older than format 7 records no key and is refused too
    stored_meta = mf.read_json(os.path.join(index_dir, "meta.json"))
    stored_sem = stored_meta.get("semantic_key")
    if stored_sem != sem:
        raise ValueError(
            f"index at {index_dir} was built with semantic config "
            f"{stored_sem}; update requires {sem} — rebuild with "
            "build_index instead of updating across formats"
        )
    d_ext = os.path.join(index_dir, "extracted")
    d_delta = os.path.join(index_dir, "_extracted_delta")
    fsio.rmtree(d_delta, ignore_errors=True)
    corpus = corpus_fn()
    classes = classify_snapshot(corpus, index_dir, cfg,
                                remove_missing=remove_missing)
    if not len(classes.fresh_urls) and not len(classes.removed_ids):
        stored_meta["update"] = {"fresh_docs": 0, "affected_shards": [],
                                 "removed_docs": 0}
        return stored_meta

    if len(classes.fresh_urls):
        _write_extracted_lww(
            fresh_rows(corpus, classes).map_batches(
                functools.partial(_extract_task, verify=cfg.verify_extraction),
                batch_format="pyarrow",
                batch_size=cfg.extract_batch_size,
            ),
            d_delta, cfg,
        )
    delta_files = _shard_files(d_delta, range(cfg.doc_shards))
    fresh_ids = (
        fsio.parquet_read_table(delta_files, columns=["doc_id"])["doc_id"]
        .to_numpy() if delta_files else np.empty(0, dtype=np.int64)
    )
    n_fresh = len(fresh_ids)

    # old doc ids of the updated urls count too: their postings live in
    # shards that must be rebuilt even if the new doc_id hashes elsewhere
    n_shards = cfg.doc_shards
    affected = np.unique(np.concatenate(
        [fresh_ids, classes.old_ids, classes.removed_ids]
    ) % n_shards).tolist()

    # ---- rewrite extracted/: old minus (updated ∪ removed), plus delta ---
    # touched urls are bounded by the update size (fresh + removed), so
    # the broadcast set is delta-sized, never index-sized
    urls_ref = ray.put(
        pa.concat_arrays([classes.fresh_urls, classes.removed_urls])
    )

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
        "fresh_docs": n_fresh,
        "removed_docs": len(classes.removed_ids),
        "affected_shards": affected,
    }
    mf.write_json(os.path.join(index_dir, "meta.json"), report)
    return report
