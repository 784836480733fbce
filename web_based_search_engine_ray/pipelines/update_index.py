"""Incremental index update (the batch form of the reference's upsert:
``removeDocument`` + re-add, ``PostingIndex.java:41-42,93-115``, driven
by the freshness check ``Indexer.java:77-85``).

Strategy — leveraging the doc-partitioned layout so unchanged documents
are never re-tokenized:

1. ``classify_snapshot`` joins the snapshot's urls against the stored
   ``url, last_modified, doc_id`` columns of ``extracted/`` ONCE (a
   url-hash-bucket shuffle over two skinny sides, no repartition) and
   returns only delta-sized results: the fresh urls with their
   thresholds and new doc ids, the old doc ids of those urls, and the
   removed docs; together they name the affected doc shards.  An
   update with nothing fresh and nothing removed returns before the
   full corpus is read.
2. Only the affected ``extracted/doc_shard=S`` partitions are
   rewritten, in ONE write (``_write_extracted``): (old rows minus
   updated/removed urls) ∪ the fresh rows (``fresh_rows``) extracted in
   the same plan.  Its LWW check (``_lww_dedup_shards``: plain Ray
   tasks, one per rewritten shard) runs only when some fresh url has
   several fresh rows.  Unchanged docs are never parsed or analyzed
   (stored rows keep their forward lists); every other partition stays
   byte-identical on disk.
3. The ``extracted/`` manifest is re-stamped with the new input key and
   per-shard fingerprints: rewritten shards get the new key, the rest
   keep theirs.  ``build_index(resume=True)`` then regenerates
   everything downstream, and its shard runner rebuilds segments only
   for shards whose fingerprint changed.  lexicon, N and docstats
   recompute corpus-wide, so df/idf and every doc's cosine norm are
   globally consistent after the update (the reference gets the same
   property by recomputing doc length per query).  Page columns, link
   edges and forward lists need no recompute: readers take them from
   ``extracted/``, which step 2 already brought up to date.  The
   manifest also records the input key, and it is stamped before the
   shards are swapped in as well as after, so a rerun of an update
   that died after its first stamp finds nothing fresh in the swapped
   shards and finishes the downstream stages under that key.

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
    CORPUS_SCHEMA,
    EXTRACTED_SCHEMA,
    _count_parquet,
    _extract_task,
    _fp,
    _shard_files,
    _lww_dedup_shards,
    _write_extracted,
    build_index,
)
from web_based_search_engine_ray.stages.extract import page_doc_ids
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.state import manifest as mf


#: threshold of a url with no stored row: every snapshot row beats it
_UNSEEN = np.iinfo(np.int64).min
#: row kinds of the classify join's delta-sized result
_FRESH, _OLD, _REMOVED, _NEW_ID = 0, 1, 2, 3
#: the stored side's columns (a doc shard with no docs has no files)
_STORED_SCHEMA = pa.schema([("url", pa.string()),
                            ("last_modified", pa.timestamp("us")),
                            ("doc_id", pa.int64())])
#: the classify join's rows and result: every UDF of the update's plans
#: maps a columnless zero-row block (Ray makes them) to a typed empty
_TAG_SCHEMA = pa.schema([("url", pa.string()), ("ts", pa.int64()),
                         ("doc_id", pa.int64()), ("stored", pa.bool_()),
                         ("fbucket", pa.int64())])
_CLASSES_SCHEMA = pa.schema([("kind", pa.int8()), ("url", pa.string()),
                             ("val", pa.int64())])


class SnapshotClasses(NamedTuple):
    """Delta-sized result of :func:`classify_snapshot`."""

    fresh_urls: pa.Array  # urls with a row newer than every stored version
    thresholds: np.ndarray  # per fresh url: max stored last_modified
    # (us), or _UNSEEN for a url with no stored row
    old_ids: np.ndarray  # stored doc ids of the fresh urls
    fresh_ids: np.ndarray  # doc ids the fresh snapshot rows will get
    n_fresh_rows: int  # snapshot rows that fresh_rows keeps
    removed_ids: np.ndarray  # stored doc ids of urls absent from the snapshot
    removed_urls: pa.Array


def _ts_us(col) -> np.ndarray:
    return (
        col.to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)
    )


def _positions(values, value_set) -> np.ndarray:
    """Index of each value in ``value_set``, -1 where absent."""
    import pyarrow.compute as pc

    return (pc.index_in(values, value_set=value_set)
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64))


def _fresh_row_mask(urls, ts: np.ndarray, fresh_urls, thresholds) -> np.ndarray:
    """Rows whose url is fresh and whose timestamp (us) beats that url's
    threshold: the rows an update indexes."""
    pos = _positions(urls, fresh_urls)
    keep = pos >= 0
    hit = np.flatnonzero(keep)
    keep[hit] = ts[hit] > thresholds[pos[hit]]
    return keep


def _tag(t: pa.Table, ts_col: str, stored: bool, num_buckets: int) -> pa.Table:
    """The join's rows; a snapshot batch without ``doc_id`` gets null ids
    (:func:`_classify_bucket` hashes the fresh rows' urls)."""
    from web_based_search_engine_ray.functions.hashing import fnv1a63_array

    if not t.num_columns:
        return _TAG_SCHEMA.empty_table()
    n = t.num_rows
    return pa.table(
        {
            "url": t["url"],
            "ts": pa.array(_ts_us(t[ts_col]), type=pa.int64()),
            "doc_id": (
                t["doc_id"].cast(pa.int64()) if "doc_id" in t.column_names
                else pa.nulls(n, pa.int64())
            ),
            "stored": pa.array(np.full(n, stored)),
            "fbucket": pa.array(
                fnv1a63_array(t["url"]) % num_buckets, type=pa.int64()
            ),
        },
        schema=_TAG_SCHEMA,
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

    if not group.num_columns:
        return _CLASSES_SCHEMA.empty_table()
    is_stored = group["stored"].to_numpy(zero_copy_only=False)
    st = group.filter(pa.array(is_stored))
    snap = group.filter(pa.array(~is_stored))
    # max on both sides: the threshold is the NEWEST stored version
    # (extracted keeps one row per url, but the join does not rely on it)
    thr = st.group_by("url").aggregate([("ts", "max")])
    new = snap.group_by("url").aggregate([("ts", "max")])
    pos = _positions(new["url"], thr["url"].combine_chunks())
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
        }, schema=_CLASSES_SCHEMA)

    out = [rows(_FRESH, fresh_urls, threshold[fresh])]
    # the doc ids of the rows fresh_rows keeps, by the Extractor's rule
    new_rows = snap.filter(pa.array(_fresh_row_mask(
        snap["url"], snap["ts"].to_numpy(zero_copy_only=False), fresh_urls,
        threshold[fresh],
    )))
    new_ids = new_rows["doc_id"]
    if new_ids.null_count:
        new_ids = pc.if_else(pc.is_null(new_ids),
                             page_doc_ids(new_rows.select(["url"])), new_ids)
    out.append(rows(_NEW_ID, new_rows["url"], new_ids.to_numpy()))
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
    skinny sides, the snapshot's ``(url, warc_ts[, doc_id])`` and the
    stored ``(url, last_modified, doc_id)`` columns of ``extracted/``
    (one read task per ``doc_shard`` partition), classified vectorized
    per bucket (:func:`_classify_bucket`).  Only the delta-sized result
    reaches the driver: the fresh urls with their thresholds, the doc
    ids their fresh rows will get (the Extractor's rule,
    :func:`page_doc_ids`), the stored doc ids of the fresh urls, and
    (with ``remove_missing``) the stored ``(doc_id, url)`` rows whose
    url the snapshot lacks.  Neither side's full url set is ever
    materialized on the driver."""
    import ray.data as rd

    nb = cfg.num_buckets
    d_ext = os.path.join(index_dir, "extracted")
    # a mapped corpus has no known schema and no read to push a
    # projection into: its batches are tagged as they come
    schema = corpus.schema(fetch_if_missing=False)
    if schema is not None:
        corpus = corpus.select_columns(
            ["url", "warc_ts"] + ["doc_id"] * ("doc_id" in schema.names)
        )
    snap = corpus.map_batches(
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
        snap.union(stored)
        .groupby("fbucket")
        .map_groups(
            functools.partial(_classify_bucket, remove_missing=remove_missing),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    # an empty map_groups output loses its schema
    if df.empty or "kind" not in df.columns:
        df = _CLASSES_SCHEMA.empty_table().to_pandas()
    kind = df["kind"].to_numpy()

    def part(k: int):
        sel = df[kind == k]
        return (pa.array(sel["url"], type=pa.string()),
                sel["val"].to_numpy(dtype=np.int64))

    fresh_urls, thresholds = part(_FRESH)
    removed_urls, removed_ids = part(_REMOVED)
    new_ids = part(_NEW_ID)[1]
    return SnapshotClasses(fresh_urls, thresholds, part(_OLD)[1],
                           np.unique(new_ids), len(new_ids), removed_ids,
                           removed_urls)


def keep_fresh(batch: pa.Table, *, fresh_ref) -> pa.Table:
    """The corpus rows of ``batch`` that beat their url's threshold;
    ``fresh_ref`` holds ``(fresh_urls, thresholds)``."""
    import ray

    if not batch.num_columns:
        return CORPUS_SCHEMA.empty_table()
    urls, thr = ray.get(fresh_ref)  # zero-copy from plasma
    return batch.filter(pa.array(_fresh_row_mask(
        batch["url"], _ts_us(batch["warc_ts"]), urls, thr
    )))


def fresh_rows(corpus, classes: SnapshotClasses):
    """Corpus rows newer than their url's threshold.  Stale duplicates
    of a fresh url are dropped here; ``_lww_dedup_shards`` then keeps
    the newest of the rest.  The broadcast holds the fresh urls only."""
    import ray

    ref = ray.put((classes.fresh_urls, classes.thresholds))
    return corpus.map_batches(functools.partial(keep_fresh, fresh_ref=ref),
                              batch_format="pyarrow")


def drop_updated(batch: pa.Table, *, urls_ref) -> pa.Table:
    """The stored extracted rows of ``batch`` whose url is not in
    ``urls_ref`` (the updated and removed urls)."""
    import pyarrow.compute as pc
    import ray

    if not batch.num_columns:
        return EXTRACTED_SCHEMA.empty_table()
    known = ray.get(urls_ref)  # zero-copy Arrow array from plasma
    return batch.filter(pc.invert(pc.is_in(batch["url"], value_set=known)))


def update_index(
    corpus_fn,
    index_dir: str,
    cfg: IndexConfig,
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

    sem = cfg.semantic_key()
    # refuse to mix segment formats: untouched shard partitions are kept
    # byte-identical, so the stored index must have been built with the
    # same semantic config (incl. format_version) as this update
    stored_meta = fsio.read_json(os.path.join(index_dir, "meta.json"))
    cfg.check_index(stored_meta, index_dir, "update")
    d_ext = os.path.join(index_dir, "extracted")
    corpus = corpus_fn()
    classes = classify_snapshot(corpus, index_dir, cfg,
                                remove_missing=remove_missing)
    if not len(classes.fresh_urls) and not len(classes.removed_ids):
        noop = {"fresh_docs": 0, "removed_docs": 0, "affected_shards": []}
        # an earlier update that died after stamping extracted/ left the
        # stages downstream of it behind: finish them under its key
        last = stored_meta.get("input_key")
        stamped = mf.load_manifest(d_ext).get("input_key", last)
        if stamped != last:
            _stamp_extracted(d_ext, _fp("extracted", sem, stamped), stamped)
            return _finish(index_dir, cfg, stamped, noop)
        stored_meta["update"] = noop
        return stored_meta

    # old doc ids of the updated urls count too: their postings live in
    # shards that must be rebuilt even if the new doc_id hashes elsewhere
    affected = np.unique(np.concatenate(
        [classes.fresh_ids, classes.old_ids, classes.removed_ids]
    ) % cfg.doc_shards).tolist()

    # ---- rewrite extracted/: old minus (updated ∪ removed), plus fresh ---
    # touched urls are bounded by the update size (fresh + removed), so
    # the broadcast set is delta-sized, never index-sized
    urls_ref = ray.put(
        pa.concat_arrays([classes.fresh_urls, classes.removed_urls])
    )

    # partition-pruned rewrite: only the AFFECTED shards' extracted rows
    # are read, and they are written once, together with the fresh rows
    # extracted in the same plan.  Untouched partition dirs are not
    # opened, so they stay byte-identical on disk.  The stored files are
    # read without hive partitioning, so both sides carry the
    # Extractor's columns.
    d_ext_new = os.path.join(index_dir, "_extracted_new")
    fsio.rmtree(d_ext_new, ignore_errors=True)
    parts = []
    aff_files = _shard_files(d_ext, affected)
    if aff_files:
        parts.append(
            rd.read_parquet(**fsio.ray_file_list(aff_files),
                            partitioning=None)
            .map_batches(functools.partial(drop_updated, urls_ref=urls_ref),
                         batch_format="pyarrow")
        )
    if len(classes.fresh_urls):
        parts.append(fresh_rows(corpus, classes).map_batches(
            functools.partial(_extract_task, cfg=cfg),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        ))
    # union needs at least one other dataset, and either side can be empty
    _write_extracted(parts[0].union(*parts[1:]) if parts[1:] else parts[0],
                     d_ext_new, cfg)
    # the kept stored rows are url-unique: only a fresh url can repeat
    if classes.n_fresh_rows > len(classes.fresh_urls):
        _lww_dedup_shards(d_ext_new, affected)

    # ---- per-shard fingerprints: the incremental contract ----------------
    # Untouched doc_shard partitions are byte-identical on disk, so they
    # keep the fingerprint of the last write that touched them; the
    # rewritten ones get the new key.  The sharded segments stage
    # (build_index._run_sharded_stage) keys its part manifests on
    # these, so the resumed build below re-tokenizes only the affected
    # shards.  The globally-derived stages (lexicon df, docstats norms —
    # both depend on corpus-wide df/N by SEMANTICS) still recompute.
    # Stamped before the swap as well: a rerun after a crash from here
    # on finds the swapped shards' rows stored, nothing fresh, and this
    # key to finish under.
    fp_ext = _fp("extracted", sem, input_key)
    _stamp_extracted(d_ext, fp_ext, input_key, affected)
    for s in affected:
        part = f"doc_shard={s}"
        old_part = os.path.join(d_ext, part)
        new_part = os.path.join(d_ext_new, part)
        if fsio.isdir(old_part):
            fsio.rmtree(old_part)
        if fsio.isdir(new_part):
            fsio.replace(new_part, old_part)
    fsio.rmtree(d_ext_new, ignore_errors=True)
    _stamp_extracted(d_ext, fp_ext, input_key)
    return _finish(index_dir, cfg, input_key, {
        "fresh_docs": len(classes.fresh_urls),
        "removed_docs": len(classes.removed_ids),
        "affected_shards": affected,
    })


def _stamp_extracted(d_ext: str, fp_ext: str, input_key: str,
                     affected=()) -> None:
    """Mark ``extracted/`` as written by the update ``input_key``: the
    stage and the ``affected`` shards get its fingerprint, and the
    manifest lists the rows and files on disk now."""
    shard_fps = mf.load_manifest(d_ext)["shard_fps"]
    shard_fps.update({str(s): fp_ext for s in affected})
    mf.write_manifest(d_ext, fp_ext, _count_parquet(d_ext),
                      extra={"updated": True, "shard_fps": shard_fps,
                             "input_key": input_key})


def _finish(index_dir: str, cfg: IndexConfig, input_key: str,
            update: dict) -> dict:
    """Everything downstream of an ``extracted/`` stamped with
    ``input_key``, via the normal (resumable) build, then ``meta.json``
    with the ``update`` stats."""
    def _no_corpus():
        raise RuntimeError(
            "corpus must not be re-read: extracted stage is primed"
        )

    report = build_index(
        _no_corpus, index_dir, cfg, input_key=input_key, resume=True
    )
    report["update"] = update
    fsio.write_json(os.path.join(index_dir, "meta.json"), report)
    return report
