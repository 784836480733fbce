"""Index-build pipeline (the rebuild of ``crawl``, ``App.java:28-30``).

Dataflow (SURVEY.md §3.1 rebuild shape) — every wide step is an explicit
Ray Data shuffle, every stage checkpoints to parquet with a lineage
manifest (resume skips complete stages):

::

    corpus (url, warc_ts, html[, text, lang[, doc_id]])
      │  last-write-wins per url by warc_ts          [shuffle: url bucket]
      ▼
    extracted/   html → doc_id,title,text,links,page_size,last_modified
      ├─ docmeta/   (projection)
      ├─ edges/     (links exploded)
      ▼
    segments/    tokenize+encode (task pool w/ per-worker state) → one
                 compressed posting run per (term, block) — local
                 index, NO shuffle of raw postings — then compaction
                 merges runs per (doc_shard, term-bucket); each run
                 carries block-max metadata (min/max doc, score bound)
                                     [shuffle: term bucket, compressed]
      ├─ lexicon/   per-bucket Σ df_run / max ub_run (runs of a term
                    all live in one bucket partition)     [no shuffle]
    forward/     second doc-local tokenize pass → per-doc term/tf lists
                 + tfMax                                  [no shuffle]
      ▼
    docstats/    forward × broadcast(lexicon df) → doc_len_norm,
                 partitioned by doc_shard                 [no shuffle]
      ▼
    meta.json    N, config, stage metrics

Skew (Zipf-head terms at web scale): compaction re-chunks a hot term's
merged list into runs of ≤ ``max_run_docs`` docs, so no task ever holds
a mega-term's full posting list; the query side unions runs and
df = Σ df_run.  Shuffle inputs are coalesced to
``cfg.shuffle_partitions`` blocks first (Ray sort-shuffle cost scales
with block count).
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import time

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.stages.extract import Extractor
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.stages.postings import (
    ForwardRows,
    TokenizeEncode,
    compact_bucket,
    doc_stats_batch,
)
from web_based_search_engine_ray.state import manifest as mf

logger = logging.getLogger(__name__)

STAGES = ("extracted", "docmeta", "edges", "segments", "lexicon", "forward",
          "docstats")


def _shard_tokens_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_shard_tokens.json")


def _load_shard_tokens(out_dir: str, fp_ext: str) -> dict[str, str]:
    """Per-doc-shard content tokens for the ``extracted/`` layout.

    ``update_index`` keeps untouched ``doc_shard=N`` partitions
    byte-identical but bumps the stage fingerprint (the input key
    changed), which would invalidate every per-shard manifest of the
    sharded segments/forward stages and force a full rebuild.  The
    token file records, per shard, the fingerprint of the last write
    that actually TOUCHED that shard; sharded stages key their
    per-part manifests on it, so a resumed build after an update
    re-tokenizes only the shards whose extracted rows changed —
    the O(delta) path the reference lacks entirely (it re-crawls).

    The file is only trusted when its ``fp_ext`` matches the current
    extracted fingerprint (a full re-extract under a new input key
    invalidates it wholesale)."""
    try:
        obj = mf.read_json(_shard_tokens_path(out_dir))
    except Exception:
        return {}
    if not isinstance(obj, dict) or obj.get("fp_ext") != fp_ext:
        return {}
    return {str(k): str(v) for k, v in obj.get("tokens", {}).items()}


def _write_shard_tokens(out_dir: str, fp_ext: str, tokens: dict) -> None:
    mf.write_json(
        _shard_tokens_path(out_dir),
        {"fp_ext": fp_ext, "tokens": {str(k): str(v) for k, v in tokens.items()}},
    )


def _fp(*parts: str) -> str:
    return hashlib.md5("|".join(parts).encode()).hexdigest()[:16]


def _add_url_bucket(batch: pa.Table, *, num_buckets: int) -> pa.Table:
    # vectorized FNV over the Arrow buffer — the bucket is a transient
    # shuffle key, so it does not need the persisted md5 hash family
    from web_based_search_engine_ray.functions.hashing import fnv1a63_array

    buckets = fnv1a63_array(batch["url"]) % num_buckets
    return batch.append_column("url_bucket", pa.array(buckets, type=pa.int64()))


def _add_doc_shard(batch: pa.Table, *, n_shards: int) -> pa.Table:
    """Hive partition column for the doc-sharded layouts (extracted /
    docstats): doc_shard = doc_id % n_shards, re-derivable anywhere."""
    if "doc_shard" in batch.column_names:
        batch = batch.drop_columns(["doc_shard"])
    return batch.append_column(
        "doc_shard",
        pa.array(
            batch["doc_id"].to_numpy(zero_copy_only=False) % n_shards,
            type=pa.int32(),
        ),
    )


def _lww_group(group: pa.Table) -> pa.Table:
    """Keep the newest row per url (last-write-wins by warc_ts) —
    batch-engine equivalent of the freshness upsert
    (``Indexer.java:77-85``, ``PostingIndex.java:41-42``).  Vectorized
    over a whole url-hash bucket.  (Pre-extract variant, used by the
    update path; the main build dedups POST-extract, see
    ``_lww_group_extracted``.)"""
    group = group.sort_by([("url", "ascending"), ("warc_ts", "descending")])
    urls = np.asarray(group["url"])
    _, first_idx = np.unique(urls, return_index=True)
    keep = group.take(pa.array(np.sort(first_idx)))
    return keep.drop_columns(["url_bucket"])


def _lww_shard_dedup_task(batch: pa.Table) -> pa.Table:
    """One task per extracted doc_shard dir: detect-then-compact LWW
    url-dedup WITHOUT any exchange.

    ``doc_id`` is a pure function of url, so every occurrence of a url
    lands in the same ``doc_shard=S`` partition dir no matter which
    map task wrote it.  The task reads ONLY the shard's ``url`` column
    (columnar projection — a few % of the payload); if the shard has
    no duplicate urls (the normal case inside one crawl dump — url
    re-crawls arrive via ``update_index``) the files already ARE the
    deduped output and nothing is rewritten.  Only shards containing
    duplicates pay a full read + LWW compaction + single-file rewrite.

    Scale contract: one shard slice must fit a task (same granularity
    every per-shard stage here assumes — size ``doc_shards`` to the
    corpus).  Returns one row of (shard, rows, dups_removed)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    shards, rows_out, dups_out = [], [], []
    for shard, d in zip(
        batch["shard"].to_pylist(), batch["dir"].to_pylist()
    ):
        comp = os.path.join(d, "lww-compacted.parquet")
        paths = fsio.glob(os.path.join(d, "*.parquet"))
        inputs = [p for p in paths if not p.endswith("lww-compacted.parquet")]
        if fsio.exists(comp):
            # A prior attempt of this task completed its compaction
            # (``fsio.replace`` is atomic locally; on URI backends it is
            # copy→verify→delete, but a crash MID-COPY can still leave a
            # torn ``comp`` with the ``.tmp`` source intact — so before
            # trusting it and DELETING the inputs, validate the parquet
            # footer).  Remaining input files are leftovers of a
            # completed attempt's interrupted remove loop.  Re-running
            # must converge on the same state, never delete the output
            # (Ray re-executes tasks on worker loss / lineage
            # reconstruction).  ``dups_removed`` for a resumed shard is
            # reported as 0 — the stats row is diagnostic only.
            try:
                n = fsio.parquet_num_rows(comp)  # reads+checks footer
            except Exception:
                if not fsio.exists(comp + ".tmp"):
                    # ``fsio.replace`` deletes the ``.tmp`` source only
                    # AFTER verifying the copy, so tmp-absent means the
                    # replace COMPLETED and this read failure is
                    # transient (object-store hiccup).  ``comp`` may by
                    # now be the only copy of rows whose inputs a prior
                    # attempt's remove loop already deleted — surface
                    # the error instead of deleting it.  (Remaining
                    # ``inputs`` do NOT prove comp is torn: the remove
                    # loop can be interrupted midway.)
                    raise
                # torn copy (crash mid-copy: .tmp source intact, and the
                # remove loop never started so ALL inputs are intact):
                # discard it and fall through to recompact
                fsio.remove(comp)
            else:
                for p in inputs:
                    fsio.remove(p)
                shards.append(shard); rows_out.append(n); dups_out.append(0)
                continue
        if not inputs:
            shards.append(shard); rows_out.append(0); dups_out.append(0)
            continue
        urls = fsio.parquet_read_table(inputs, columns=["url"])["url"]
        n = len(urls)
        n_uniq = len(pc.unique(urls.combine_chunks()))
        if n_uniq == n:
            shards.append(shard); rows_out.append(n); dups_out.append(0)
            continue
        t = fsio.parquet_read_table(inputs)
        keep = _lww_group_extracted(t)
        fsio.parquet_write_table(keep, comp + ".tmp")
        fsio.replace(comp + ".tmp", comp)
        for p in inputs:
            fsio.remove(p)
        shards.append(shard)
        rows_out.append(keep.num_rows)
        dups_out.append(n - keep.num_rows)
    return pa.table(
        {
            "shard": pa.array(shards, pa.int64()),
            "rows": pa.array(rows_out, pa.int64()),
            "dups_removed": pa.array(dups_out, pa.int64()),
        }
    )


def _lww_group_extracted(group: pa.Table) -> pa.Table:
    """LWW over EXTRACTED rows (newest per url by ``last_modified`` =
    ``warc_ts``): the dedup moves title/text/links instead of raw
    html — on real web pages an order of magnitude less data — and the
    occasional stale duplicate is extracted redundantly instead of
    shipping every page's html through the object store."""
    group = group.sort_by(
        [("url", "ascending"), ("last_modified", "descending")]
    )
    urls = np.asarray(group["url"])
    _, first_idx = np.unique(urls, return_index=True)
    keep = group.take(pa.array(np.sort(first_idx)))
    drop = [c for c in ("lww_key",) if c in keep.column_names]
    return keep.drop_columns(drop) if drop else keep


def _shuffle_parts(cfg: IndexConfig) -> int:
    """Shuffle parallelism (see IndexConfig.shuffle_partitions): Ray's
    sort shuffle costs scale with input block count, so tiny test-scale
    blocks are coalesced before every groupby."""
    if cfg.shuffle_partitions:
        return cfg.shuffle_partitions
    try:
        import ray

        if ray.is_initialized():
            return max(8, int(ray.cluster_resources().get("CPU", 4)) * 2)
    except Exception:
        pass
    return 16


def _extract_task(batch: pa.Table, *, verify: bool) -> pa.Table:
    from web_based_search_engine_ray.util import worker_singleton

    inst = worker_singleton(("extractor", verify), lambda: Extractor(verify=verify))
    return inst(batch)


def _tokenize_encode_task(batch: pa.Table, *, cfg: IndexConfig) -> pa.Table:
    from web_based_search_engine_ray.util import worker_singleton

    inst = worker_singleton(
        ("tokenize_encode", cfg.semantic_key()), lambda: TokenizeEncode(cfg)
    )
    return inst(batch)


def _forward_rows_task(batch: pa.Table, *, cfg: IndexConfig) -> pa.Table:
    from web_based_search_engine_ray.util import worker_singleton

    inst = worker_singleton(
        ("forward_rows", cfg.semantic_key()), lambda: ForwardRows(cfg)
    )
    return inst(batch)


_LEXICON_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("term_hash", pa.uint64()),
        ("df", pa.int64()),
        ("ub_adj", pa.float64()),
        ("bucket", pa.int64()),
    ]
)


def _lexicon_bucket_task(batch: pa.Table) -> pa.Table:
    """One task per term-hash bucket: DISCOVER the bucket's segment
    files inside the task (no driver-side filesystem assumption — the
    segment store only has to be reachable from workers, the normal
    shared-storage contract of ``write_parquet``), read them across
    every doc shard, and aggregate ``df = Σ df_run`` /
    ``ub_adj = max(ub_run)`` — both EXACT, since all runs of a term
    live in exactly one bucket and merged runs carry the max of their
    sources' bounds.  Reading inside the task guarantees the whole
    bucket aggregates at once (block splits can't duplicate terms)."""
    import pyarrow.parquet as pq

    out = [_LEXICON_SCHEMA.empty_table()]
    for bucket, seg_dir in zip(
        batch["bucket"].to_pylist(), batch["seg_dir"].to_pylist()
    ):
        paths = fsio.glob(
            os.path.join(seg_dir, "**", f"bucket={bucket}", "*.parquet"),
            recursive=True,
        )
        if not paths:
            continue
        t = fsio.parquet_read_table(
            paths, columns=["term", "df_run", "ub_run"]
        )
        g = t.group_by("term").aggregate(
            [("df_run", "sum"), ("ub_run", "max")]
        )
        # hash HERE (parallel across bucket tasks) so the docstats df
        # broadcast needs no driver-side string materialization/md5 pass
        from web_based_search_engine_ray.stages.postings import md5_hash64

        out.append(
            pa.table(
                {
                    "term": g["term"],
                    "term_hash": pa.array(
                        md5_hash64(g["term"].to_pylist()), type=pa.uint64()
                    ),
                    "df": g["df_run_sum"],
                    "ub_adj": pc_cast_f64(g["ub_run_max"]),
                    "bucket": pa.array(
                        np.full(g.num_rows, bucket, dtype=np.int64)
                    ),
                }
            )
        )
    return pa.concat_tables(out)


def pc_cast_f64(col):
    import pyarrow.compute as pc

    return pc.cast(col, pa.float64())


def _explode_links(batch: pa.Table) -> pa.Table:
    links = batch["links"].combine_chunks()
    if isinstance(links, pa.ChunkedArray):
        links = links.chunk(0) if links.num_chunks else pa.array([], pa.list_(pa.string()))
    offsets = links.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = links.values
    values = values.slice(offsets[0], offsets[-1] - offsets[0])
    lens = np.diff(offsets - offsets[0])
    idx = np.repeat(np.arange(batch.num_rows), lens)
    take = pa.array(idx)
    return pa.table(
        {
            "src_doc_id": batch["doc_id"].take(take),
            "src_url": batch["url"].take(take),
            "dst_url": values,
        }
    )


#: docmeta row count above which ``filter_fresh(mode="auto")`` switches
#: from the exact driver-dict semi-join to the Bloom anti-join path.
FRESH_EXACT_THRESHOLD = 200_000


def filter_fresh(corpus, index_dir: str, *, mode: str = "auto"):
    """Freshness anti-join (the batch form of ``Indexer.isFreshDocument``,
    ``Indexer.java:77-85``): keep only corpus rows whose url is unseen
    OR whose ``warc_ts`` is strictly newer than the indexed
    ``last_modified``.

    Two physical plans, same semantics:

    - ``exact`` — broadcast the whole (url → last_modified) dict
      (semi-join without a shuffle).  Right for small indexes; the
      driver materializes every indexed url.
    - ``bloom`` — web-scale path, no full-url set ever reaches the
      driver: (1) a Bloom filter over the stored urls is built
      distributedly and broadcast (``state.bloom``); (2) a SKINNY
      (url, warc_ts) pass probes it — definite negatives are fresh by
      construction; (3) probable hits go through a url-hash-bucket
      shuffle against the stored (url, last_modified) rows
      (vectorized ``pc.index_in`` per bucket) which emits the PROBED
      stored urls' (url, last_modified) threshold rows; (4) those
      thresholds — bounded by the probed-url count, not the index
      size — are broadcast and the full corpus filters PER ROW on
      ``bloom-negative OR no-threshold OR warc_ts > threshold`` —
      row-for-row identical to the exact path (a per-URL fresh set
      would also keep a fresh url's stale older duplicates).  The
      corpus plan executes twice ((2) and (4)); pass a column-pruned
      parquet read so the skinny pass never loads ``html``.

    ``mode="auto"`` picks by stored row count (``FRESH_EXACT_THRESHOLD``,
    from parquet metadata only).  ``pipelines.update_index.update_index``
    consumes this predicate to upsert incrementally, rebuilding only
    the doc shards that contain touched documents.
    """
    import pyarrow.dataset as pads

    d_meta = os.path.join(index_dir, "docmeta")
    if mode == "auto":
        n_stored = pads.dataset(
            d_meta, format="parquet", partitioning="hive"
        ).count_rows()
        mode = "exact" if n_stored <= FRESH_EXACT_THRESHOLD else "bloom"
    if mode == "exact":
        return _filter_fresh_exact(corpus, d_meta)
    if mode == "bloom":
        return _filter_fresh_bloom(corpus, d_meta)
    raise ValueError(f"unknown freshness mode {mode!r}")


def _filter_fresh_exact(corpus, d_meta: str):
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray

    meta = pads.dataset(d_meta, format="parquet").to_table(
        columns=["url", "last_modified"]
    )
    # docmeta may hold duplicate urls when ``dedup_urls=False``; the
    # freshness threshold is the NEWEST stored version (max), not
    # whichever row a file-order-dependent lookup happens to hit
    meta = meta.group_by("url").aggregate([("last_modified", "max")])
    # broadcast as (Arrow url array, int64 threshold array) — zero-copy
    # from plasma per task, vs a Python dict that every task unpickles
    known_urls = meta["url"].combine_chunks()
    known_ts = (
        meta["last_modified_max"].to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)
    )
    ref = ray.put((known_urls, known_ts))

    def fresh_only(batch: pa.Table) -> pa.Table:
        urls_k, ts_k = ray.get(ref)
        idx = pc.index_in(batch["url"], value_set=urls_k)
        pos = idx.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            batch["warc_ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        found = pos >= 0
        keep = ~found
        hit = np.flatnonzero(found)
        keep[hit] = ts[hit] > ts_k[pos[hit]]
        return batch.filter(pa.array(keep))

    return corpus.map_batches(fresh_only, batch_format="pyarrow")


def _ts_us(col) -> np.ndarray:
    return (
        col.to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)
    )


def _bucketed_url_join(sides, combine, *, num_buckets: int, out_cols: dict):
    """Shared scaffold for the skinny url-keyed bucket-shuffle joins
    (the freshness threshold probe here and ``update_index``'s
    full-sync anti-join): each side is ``(dataset, payload_fn,
    stored_flag)`` — rows are tagged ``(url, payload int64, stored,
    fbucket = fnv1a63(url) % num_buckets)``, unioned (schema-stable),
    bucket-grouped, and ``combine(group)`` runs vectorized per bucket.
    Returns a pandas DataFrame with exactly ``out_cols``
    ({name: numpy dtype}) even when the join result is empty (an empty
    ``map_groups`` output loses its schema)."""
    import functools

    import pandas as pd

    from web_based_search_engine_ray.functions.hashing import fnv1a63_array
    from web_based_search_engine_ray.util import coalesce

    def tag(batch: pa.Table, payload_fn, stored: bool) -> pa.Table:
        return pa.table(
            {
                "url": batch["url"],
                "payload": pa.array(
                    np.asarray(payload_fn(batch), dtype=np.int64),
                    type=pa.int64(),
                ),
                "stored": pa.array(np.full(batch.num_rows, stored)),
                "fbucket": pa.array(
                    fnv1a63_array(batch["url"]) % num_buckets,
                    type=pa.int64(),
                ),
            }
        )

    tagged = [
        ds.map_batches(
            functools.partial(tag, payload_fn=pf, stored=flag),
            batch_format="pyarrow",
        )
        for ds, pf, flag in sides
    ]
    u = tagged[0]
    for t in tagged[1:]:
        u = u.union(t)
    df = (
        coalesce(u)
        .groupby("fbucket")
        .map_groups(combine, batch_format="pyarrow")
        .to_pandas()
    )
    if df.empty or any(c not in df.columns for c in out_cols):
        df = pd.DataFrame(
            {c: np.empty(0, dtype=d) for c, d in out_cols.items()}
        )
    return df[list(out_cols)]


def _filter_fresh_bloom(corpus, d_meta: str, *, num_buckets: int = 64):
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from web_based_search_engine_ray.functions.hashing import fnv1a63_array
    from web_based_search_engine_ray.state.bloom import (
        BloomFilter,
        build_bloom_distributed,
    )

    n_stored = pads.dataset(
        d_meta, format="parquet", partitioning="hive"
    ).count_rows()
    meta_ds = rd.read_parquet(d_meta, columns=["url", "last_modified"])
    bloom = build_bloom_distributed(meta_ds, n_stored)
    bloom_ref = ray.put((bloom.m_bits, bloom.k, bloom.bits))

    def _bloom_hits(urls_col) -> np.ndarray:
        m, k, bits = ray.get(bloom_ref)
        return BloomFilter(m, k, bits).contains(fnv1a63_array(urls_col))

    # skinny pass: probable-known (url, warc_ts) rows only
    def probe(batch: pa.Table) -> pa.Table:
        hit = _bloom_hits(batch["url"])
        return batch.filter(pa.array(hit))

    probable = corpus.select_columns(["url", "warc_ts"]).map_batches(
        probe, batch_format="pyarrow"
    )

    def check(group: pa.Table) -> pa.Table:
        # Emit the stored (url, last_modified) THRESHOLD rows for every
        # stored url probed by >= 1 candidate.  The final pass then
        # applies the per-ROW predicate ``ts > threshold`` — identical
        # to the exact path — instead of a per-URL fresh set (which
        # would also keep a fresh url's STALE older duplicate rows).
        is_stored = group["stored"].to_numpy(zero_copy_only=False)
        stored_t = group.filter(pa.array(is_stored))
        cand = group.filter(pa.array(~is_stored))
        probed = pc.is_in(
            stored_t["url"], value_set=cand["url"].combine_chunks()
        )
        hit_stored = stored_t.filter(probed)
        # max per url: docmeta duplicates (``dedup_urls=False``) must
        # resolve to the NEWEST stored version, same as the exact path
        agg = (
            hit_stored.select(["url", "payload"])
            .group_by("url").aggregate([("payload", "max")])
        )
        return pa.table({"url": agg["url"], "payload": agg["payload_max"]})

    thresh_df = _bucketed_url_join(
        [
            (probable, lambda b: _ts_us(b["warc_ts"]), False),
            (meta_ds, lambda b: _ts_us(b["last_modified"]), True),
        ],
        check,
        num_buckets=num_buckets,
        out_cols={"url": object, "payload": np.int64},
    )
    # bounded by the PROBED stored-url count (worst case — the whole
    # index re-crawled in one batch — degenerates to the exact path's
    # broadcast size)
    thresh_ref = ray.put(
        (
            pa.array(thresh_df["url"], type=pa.string()),
            thresh_df["payload"].to_numpy(dtype=np.int64),
        )
    )

    def final(batch: pa.Table) -> pa.Table:
        hit = _bloom_hits(batch["url"])
        keep = ~hit  # definite-new
        if hit.any():
            t_urls, t_ts = ray.get(thresh_ref)
            pos = pc.index_in(batch["url"], value_set=t_urls)
            unseen = pc.is_null(pos).to_numpy(zero_copy_only=False)
            posn = pos.fill_null(-1).to_numpy(zero_copy_only=False)
            # bloom false positive (no stored row) -> fresh
            keep |= hit & unseen
            seen = hit & ~unseen
            if seen.any():
                ts = _ts_us(batch["warc_ts"])
                keep[seen] = ts[seen] > t_ts[posn[seen].astype(np.int64)]
        return batch.filter(pa.array(keep))

    return corpus.map_batches(final, batch_format="pyarrow")


def build_index(
    corpus_fn,
    out_dir: str,
    cfg: IndexConfig | None = None,
    *,
    input_key: str = "",
    resume: bool = True,
    corpus_parts_fn=None,
) -> dict:
    """Build all index artifacts under ``out_dir``.

    ``corpus_fn``: zero-arg callable returning the corpus ``Dataset``
    (callable so a resumed run whose extract stage is complete never
    constructs the input pipeline).  Returns the build report (also
    persisted as ``meta.json``).

    ``corpus_parts_fn``: optional zero-arg callable returning
    ``[(part_name, part_corpus_fn), ...]`` — e.g. one part per input
    file group of a Common-Crawl dump.  When given, the extract stage
    runs per part with its own lineage manifest, so a crashed run
    resumes by re-extracting only incomplete parts (partition-level
    checkpoints).  LWW url-dedup then assumes a url appears in only one
    part (true for file-partitioned crawl dumps); the in-part dedup
    still applies.
    """
    import ray.data as rd

    cfg = cfg or IndexConfig()
    fsio.makedirs(out_dir)
    sem = cfg.semantic_key()
    results: list[mf.StageResult] = []
    t_start = time.perf_counter()

    # ---- stage: extracted --------------------------------------------------
    fp_ext = _fp("extracted", sem, input_key)
    d_ext = os.path.join(out_dir, "extracted")

    def _extract_pipeline(ds):
        # extract FIRST (html never crosses any exchange; the LWW
        # dedup below moves only title/text/links)
        return ds.map_batches(
            functools.partial(_extract_task, verify=cfg.verify_extraction),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )

    def _write_extracted_lww(ds, stage_dir: str, *, partitioned: bool) -> None:
        """Write extracted/ DIRECTLY (partitioned by doc_shard when
        sharded), then run one detect-then-compact task per shard dir
        (:func:`_lww_shard_dedup_task`).  Because doc_id = f(url), a
        url's occurrences are confined to one shard dir, so url-dedup
        needs NO exchange at all: the previous design — Ray's
        ``groupby(lww_key)`` — cost an all-to-all SORT of the full
        extracted payload (measured 12 s of a 13 s extract wall at
        1.8M docs / 32 CPUs, flat across parallelism levels), where
        the shard-local check costs one url-column projection per
        shard and rewrites only shards that actually contain
        duplicates."""
        if partitioned:
            ds = ds.map_batches(
                functools.partial(_add_doc_shard, n_shards=cfg.doc_shards),
                batch_format="pyarrow",
            )
            ds.write_parquet(
                stage_dir,
                partition_cols=["doc_shard"],
                min_rows_per_file=cfg.min_rows_per_file,
            )
            dirs = [
                {"shard": s, "dir": os.path.join(stage_dir, f"doc_shard={s}")}
                for s in range(cfg.doc_shards)
            ]
        else:
            ds.write_parquet(
                stage_dir, min_rows_per_file=cfg.min_rows_per_file
            )
            dirs = [{"shard": 0, "dir": stage_dir}]
        res = rd.from_items(dirs).map_batches(
            _lww_shard_dedup_task, batch_size=1, batch_format="pyarrow"
        )
        dups = res.sum("dups_removed")
        if dups:
            logger.info("LWW url-dedup removed %d duplicate rows", dups)

    d_ext_parts = os.path.join(out_dir, "extracted_parts")
    if corpus_parts_fn is None:

        def _build_extracted(stage_dir: str) -> int:
            # full re-extract: every shard is rewritten, so any
            # per-shard tokens from a previous update cycle are stale
            try:
                fsio.remove(_shard_tokens_path(out_dir))
            except Exception:
                pass
            ds = _extract_pipeline(corpus_fn())
            if cfg.dedup_urls:
                # doc_shard-partitioned final layout (update_index
                # rewrites only touched shards; groups are
                # single-shard → ~one file per group)
                _write_extracted_lww(
                    ds, stage_dir, partitioned=cfg.doc_shards > 1
                )
            elif cfg.doc_shards > 1:
                ds = ds.map_batches(
                    functools.partial(
                        _add_doc_shard, n_shards=cfg.doc_shards
                    ),
                    batch_format="pyarrow",
                )
                ds.write_parquet(
                    stage_dir,
                    partition_cols=["doc_shard"],
                    min_rows_per_file=cfg.min_rows_per_file,
                )
            else:
                ds.write_parquet(
                    stage_dir, min_rows_per_file=cfg.min_rows_per_file
                )
            return _count_parquet(stage_dir)

        results.append(
            mf.run_stage(d_ext, fp_ext, _build_extracted, resume=resume)
        )
        ext_sources = d_ext
    else:
        # partition-level checkpoints: one sub-directory + manifest per
        # corpus part (under extracted_parts/, NEVER read as one parquet
        # dir — manifests live beside the part dirs); a resumed run
        # re-extracts only incomplete parts
        t0 = time.perf_counter()
        fsio.makedirs(d_ext_parts)
        parts = corpus_parts_fn()
        part_rows = 0
        parts_done = 0
        part_dirs = []
        for part_name, part_fn in parts:
            p_dir = os.path.join(d_ext_parts, f"part-{part_name}")
            p_fp = _fp("extracted-part", sem, input_key, str(part_name))

            def _build_part(stage_dir: str, _fn=part_fn) -> int:
                ds = _extract_pipeline(_fn())
                if cfg.dedup_urls:  # in-part LWW; flat file layout
                    _write_extracted_lww(ds, stage_dir, partitioned=False)
                else:
                    ds.write_parquet(
                        stage_dir, min_rows_per_file=cfg.min_rows_per_file
                    )
                return _count_parquet(stage_dir)

            r = mf.run_stage(p_dir, p_fp, _build_part, resume=resume)
            part_rows += r.rows
            parts_done += 0 if r.skipped else 1
            part_dirs.append(p_dir)
        results.append(
            mf.StageResult(
                "extracted", d_ext_parts, part_rows,
                time.perf_counter() - t0, parts_done == 0,
                {"parts": len(parts), "parts_rebuilt": parts_done},
            )
        )
        # Ray treats list entries as files: expand part dirs
        ext_sources = [
            f
            for p in part_dirs
            for f in fsio.walk_files(p)
            if f.endswith(".parquet")
        ]
        # fingerprint for downstream chaining covers every part
        fp_ext = _fp(fp_ext, *[
            mf.load_manifest(p)["fingerprint"] for p in part_dirs
        ])
    _n_docs_est = results[-1].rows  # retained for manifest context

    # ---- stage: docmeta ----------------------------------------------------
    fp_meta = _fp("docmeta", fp_ext)
    d_meta = os.path.join(out_dir, "docmeta")

    def _build_docmeta(stage_dir: str) -> int:
        ds = rd.read_parquet(
            ext_sources,
            columns=["doc_id", "url", "title", "page_size", "last_modified", "lang"],
        )
        ds.write_parquet(stage_dir, min_rows_per_file=cfg.min_rows_per_file)
        return _count_parquet(stage_dir)

    results.append(mf.run_stage(d_meta, fp_meta, _build_docmeta, resume=resume))

    # ---- stage: edges ------------------------------------------------------
    fp_edges = _fp("edges", fp_ext)
    d_edges = os.path.join(out_dir, "edges")

    def _build_edges(stage_dir: str) -> int:
        ds = rd.read_parquet(ext_sources, columns=["doc_id", "url", "links"])
        ds = ds.map_batches(_explode_links, batch_format="pyarrow")
        ds.write_parquet(stage_dir, min_rows_per_file=cfg.min_rows_per_file)
        _ensure_nonempty_schema(
            stage_dir,
            pa.schema(
                [
                    ("src_doc_id", pa.int64()),
                    ("src_url", pa.string()),
                    ("dst_url", pa.string()),
                ]
            ),
        )
        return _count_parquet(stage_dir)

    results.append(mf.run_stage(d_edges, fp_edges, _build_edges, resume=resume))

    # ---- stage: segments (the core term shuffle) ---------------------------
    fp_seg = _fp("segments", fp_ext)
    d_seg = os.path.join(out_dir, "segments")

    # Per-partition resume (cfg.partitioned_build): segments/forward
    # run one doc_shard at a time, each sub-stage with its own lineage
    # manifest (kept OUTSIDE the stage dir so hive discovery never sees
    # it), so a crash mid-stage resumes at the failed shard.  Requires
    # the doc_shard-partitioned extracted/ layout.
    use_parts = (
        cfg.partitioned_build
        and cfg.doc_shards > 1
        and corpus_parts_fn is None
    )

    def _part_manifest(stage: str, s: int) -> str:
        d = os.path.join(out_dir, "_part_manifests")
        fsio.makedirs(d)
        return os.path.join(d, f"{stage}.doc_shard={s}.json")

    def _run_sharded_stage(name: str, stage_dir: str, stage_fp: str,
                           part_fn) -> mf.StageResult:
        """Run ``part_fn(part_dir, shard)`` per doc shard with per-part
        manifests; skip parts (or the whole stage) already complete."""
        t0 = time.perf_counter()
        if resume and mf.is_complete(stage_dir, stage_fp):
            m = mf.load_manifest(stage_dir)
            return mf.StageResult(
                name, stage_dir, m.get("rows", -1), 0.0, True, m
            )
        fsio.makedirs(stage_dir)
        # a previous MONOLITHIC run may have left flat (non-partition)
        # files at the stage root, and a previous PARTITIONED run may
        # have used a larger doc_shards; either way the stale entries
        # would be hive-discovered and duplicate rows, so clear
        # anything that isn't one of THIS config's shard partitions
        # (per-part run_stage only wipes its own part dir)
        live_parts = {f"doc_shard={s}" for s in range(cfg.doc_shards)}
        for entry in fsio.listdir(stage_dir):
            # (stage manifests are SIBLING files outside the stage dir —
            # manifest.py:_manifest_path — and part manifests live under
            # out_dir/_part_manifests, so everything in here is data)
            if entry in live_parts:
                continue
            p = os.path.join(stage_dir, entry)
            if fsio.isdir(p):
                fsio.rmtree(p)
            else:
                fsio.remove(p)
        # per-shard content tokens (written by update_index): a shard
        # whose extracted partition is byte-identical keeps its token,
        # so its per-part manifest still matches and the part is skipped
        shard_tokens = _load_shard_tokens(out_dir, fp_ext)

        def _one_part(s: int) -> int:
            p_dir = os.path.join(stage_dir, f"doc_shard={s}")
            p_fp = _fp(
                f"{name}-part", shard_tokens.get(str(s), fp_ext), sem, str(s)
            )
            r = mf.run_stage(
                p_dir, p_fp,
                functools.partial(part_fn, shard=s),
                resume=resume,
                manifest_path=_part_manifest(name, s),
            )
            return 0 if r.skipped else 1

        workers = max(1, min(cfg.part_build_concurrency, cfg.doc_shards))
        if workers > 1:
            # concurrent part pipelines: each is an independent Dataset
            # execution writing its own partition dir + manifest
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                rebuilt = sum(pool.map(_one_part, range(cfg.doc_shards)))
        else:
            rebuilt = sum(_one_part(s) for s in range(cfg.doc_shards))
        total = _count_parquet(stage_dir)
        mf.write_manifest(
            stage_dir, stage_fp, total,
            wall_sec=time.perf_counter() - t0,
            extra={"partitioned_build": True, "parts_rebuilt": rebuilt},
        )
        return mf.StageResult(
            name, stage_dir, total, time.perf_counter() - t0, False,
            {"parts_rebuilt": rebuilt},
        )

    def _part_source(shard: int | None):
        """The extracted input of one stage run: every extracted file
        (monolithic build) or one ``doc_shard=`` dir (per-part build;
        None when that shard has no documents)."""
        if shard is None:
            return ext_sources
        src = os.path.join(d_ext, f"doc_shard={shard}")
        return src if fsio.isdir(src) else None

    def _build_segments(stage_dir: str, *, shard: int | None = None) -> int:
        src = _part_source(shard)
        if src is None:
            return 0
        # read directly at shuffle parallelism: the groupby below then
        # needs no repartition pass (each repartition moves all run data
        # through the object store once)
        ds = rd.read_parquet(
            src, columns=["doc_id", "title", "text"],
            override_num_blocks=_shuffle_parts(cfg),
        )
        # local index: one compressed run per (term, block) — the raw
        # (term, doc, positions) rows never cross a shuffle.  Task mode
        # with a per-worker singleton (no actor-pool startup); state =
        # stopword set + stem memo, rebuilt cheaply per worker.  Then
        # merge: shuffle only compressed runs, bounded per-term chunks,
        # grouped per (doc_shard, bucket).
        runs = ds.map_batches(
            functools.partial(_tokenize_encode_task, cfg=cfg),
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
        ).groupby("part_key").map_groups(
            functools.partial(
                compact_bucket,
                max_run_docs=cfg.max_run_docs,
                num_buckets=cfg.num_buckets,
            ),
            batch_format="pyarrow",
        )
        if shard is not None:
            # doc_shard is implied by the partition dir; dropping it
            # keeps the file schema identical to the monolithic build's
            runs = runs.map_batches(
                lambda b: b.drop_columns(["doc_shard"]),
                batch_format="pyarrow",
            )
        partition_cols = (
            ["doc_shard", "bucket"]
            if shard is None and cfg.doc_shards > 1
            else ["bucket"]
        )
        runs.write_parquet(stage_dir, partition_cols=partition_cols)
        return _count_parquet(stage_dir)

    def _stamp_part_manifests(name: str, stage_dir: str) -> None:
        """After a MONOLITHIC doc_shard-partitioned stage build, record
        per-part manifests (metadata-only counts) so a later
        ``update_index`` can skip untouched shards on its first resumed
        build — without this, only the second update onward would
        prune."""
        for s in range(cfg.doc_shards):
            p_dir = os.path.join(stage_dir, f"doc_shard={s}")
            if not fsio.isdir(p_dir):
                continue
            fsio.write_json(
                _part_manifest(name, s),
                {
                    "stage": f"doc_shard={s}",
                    "fingerprint": _fp(f"{name}-part", fp_ext, sem, str(s)),
                    "rows": _count_parquet(p_dir),
                    "wall_sec": 0.0,
                    "stamped_from_monolithic": True,
                },
            )

    if use_parts:
        results.append(
            _run_sharded_stage("segments", d_seg, fp_seg, _build_segments)
        )
    else:
        r_seg = mf.run_stage(d_seg, fp_seg, _build_segments, resume=resume)
        results.append(r_seg)
        if (
            not r_seg.skipped
            and cfg.doc_shards > 1
            and corpus_parts_fn is None
        ):
            _stamp_part_manifests("segments", d_seg)

    # ---- stage: forward (doc-local second tokenize pass — NO shuffle) ------
    fp_fwd = _fp("forward", fp_ext, sem)
    d_fwd = os.path.join(out_dir, "forward")

    def _build_forward(stage_dir: str, *, shard: int | None = None) -> int:
        # a doc's forward row is known the moment it is tokenized, so
        # this stage is a pure map over extracted docs.  It replaces the
        # earlier segments-explode derivation that paid a decode + two
        # full-posting-volume shuffles to reach the same rows.
        src = _part_source(shard)
        if src is None:
            return 0
        ds = rd.read_parquet(
            src, columns=["doc_id", "title", "text"],
            override_num_blocks=_shuffle_parts(cfg),
        )
        fwd = ds.map_batches(
            functools.partial(_forward_rows_task, cfg=cfg),
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
        )
        fwd.write_parquet(stage_dir, min_rows_per_file=cfg.min_rows_per_file)
        return _count_parquet(stage_dir)

    if use_parts:
        results.append(
            _run_sharded_stage("forward", d_fwd, fp_fwd, _build_forward)
        )
    else:
        results.append(
            mf.run_stage(d_fwd, fp_fwd, _build_forward, resume=resume)
        )
    n_docs = results[-1].rows  # N = docs with >=1 term (InvertedIndex.java:72)

    # ---- stage: lexicon (df + per-term score upper bound) ------------------
    fp_lex = _fp("lexicon", fp_seg)
    d_lex = os.path.join(out_dir, "lexicon")

    def _build_lexicon(stage_dir: str) -> int:
        # ZERO-shuffle derivation: every run of a term lives in exactly
        # one bucket=N partition (across all doc shards), so each
        # bucket aggregates independently — one task per bucket
        # discovers and reads its own files (inside the task: no
        # driver-side filesystem assumption) and aggregates the whole
        # bucket at once.  (At 100-TB scale raise num_buckets so one
        # bucket fits a task.)
        items = [
            {"bucket": b, "seg_dir": d_seg} for b in range(cfg.num_buckets)
        ]
        # written PARTITIONED BY BUCKET: shard Searchers lazy-load one
        # term-hash bucket at a time (actor RSS independent of total
        # vocabulary) with the same byte-budgeted cache as postings
        lex = rd.from_items(items).map_batches(
            _lexicon_bucket_task, batch_size=1, batch_format="pyarrow"
        )
        lex.write_parquet(stage_dir, partition_cols=["bucket"])
        fsio.makedirs(stage_dir)
        _ensure_nonempty_schema(
            stage_dir,
            pa.schema([("term", pa.string()), ("term_hash", pa.uint64()),
                       ("df", pa.int64()), ("ub_adj", pa.float64())]),
        )
        return _count_parquet(stage_dir)

    results.append(mf.run_stage(d_lex, fp_lex, _build_lexicon, resume=resume))

    # ---- stage: docstats ---------------------------------------------------
    fp_stats = _fp("docstats", fp_fwd, fp_lex, str(n_docs))
    d_stats = os.path.join(out_dir, "docstats")

    def _build_docstats(stage_dir: str) -> int:
        import pyarrow.dataset as pads
        import ray

        # broadcast the df lookup as sorted-hash numpy arrays (plasma
        # zero-copy, no per-worker structure build); dict fallback on
        # the astronomically unlikely 64-bit hash collision.  Hashes
        # come pre-computed from the lexicon bucket tasks, so the
        # driver touches only NUMERIC columns (the earlier
        # driver-serial to_pylist + md5 pass over the whole vocabulary
        # cost ~5.6 s flat at a 1.8M-term vocabulary and capped build
        # scaling).
        from web_based_search_engine_ray.stages.postings import (
            sorted_hash_lookup,
        )

        lex_ds = pads.dataset(d_lex, format="parquet")
        lex = lex_ds.to_table(columns=["term_hash", "df"])
        dfs = lex["df"].to_numpy(zero_copy_only=False)
        hv = lex["term_hash"].to_numpy(zero_copy_only=False)
        try:
            df_ref = ray.put(sorted_hash_lookup(hv, dfs))
        except ValueError:
            terms = lex_ds.to_table(columns=["term"])["term"].to_pylist()
            df_ref = dict(zip(terms, dfs.tolist()))
        # compute at full parallelism; the tiny (doc_id, tf_max, norm)
        # result is coalesced below so the partitioned write doesn't fan
        # out to blocks × shards files
        ds = rd.read_parquet(
            d_fwd, columns=["doc_id", "terms", "title_tfs", "body_tfs",
                            "tf_max"],
            override_num_blocks=_shuffle_parts(cfg),
        )
        stats = ds.map_batches(
            functools.partial(doc_stats_batch, n_docs=n_docs, df_ref=df_ref),
            batch_format="pyarrow",
        )
        if cfg.doc_shards > 1:
            # partition by doc shard so each shard Searcher reads ONLY
            # its slice (per-actor state scales 1/shards).  Coalesce
            # first: a partitioned write fans out to blocks × shards
            # files, and docstats blocks are tiny (24 B/doc).
            stats = stats.map_batches(
                lambda b: b.append_column(
                    "doc_shard",
                    pa.array(
                        b["doc_id"].to_numpy(zero_copy_only=False)
                        % cfg.doc_shards,
                        type=pa.int32(),
                    ),
                ),
                batch_format="pyarrow",
            ).repartition(
                max(1, min(_shuffle_parts(cfg),
                           128 // max(1, cfg.doc_shards)))
            )
            stats.write_parquet(stage_dir, partition_cols=["doc_shard"])
        else:
            stats.write_parquet(
                stage_dir, min_rows_per_file=cfg.min_rows_per_file
            )
        # global corpus stats for BM25 (avgdl must be corpus-wide, not
        # per shard) — one skinny column scan at build time
        tok = pads.dataset(stage_dir, format="parquet",
                           partitioning="hive").to_table(
            columns=["n_tokens"]
        )
        total_tokens = int(
            np.sum(tok["n_tokens"].to_numpy(zero_copy_only=False))
        )
        mf.write_json(
            os.path.join(stage_dir, "_STATS.json"),
            {"total_tokens": total_tokens, "n_docs": int(n_docs)},
        )
        return _count_parquet(stage_dir)

    results.append(mf.run_stage(d_stats, fp_stats, _build_docstats, resume=resume))

    report = {
        "n_docs": n_docs,
        "config": cfg.to_dict(),
        "input_key": input_key,
        "total_wall_sec": round(time.perf_counter() - t_start, 4),
        "stages": [
            {
                "name": r.name,
                "rows": r.rows,
                "wall_sec": round(r.wall_sec, 4),
                "skipped": r.skipped,
            }
            for r in results
        ],
    }
    mf.write_json(os.path.join(out_dir, "meta.json"), report)
    return report


def _count_parquet(path: str) -> int:
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet", partitioning="hive").count_rows()


def _ensure_nonempty_schema(stage_dir: str, schema: pa.Schema) -> None:
    """Ray writes no files for a 0-row dataset; drop in an empty parquet
    file so downstream filtered reads still see the schema."""
    import pyarrow.parquet as pq

    has_file = any(
        f.endswith(".parquet") for f in fsio.walk_files(stage_dir)
    )
    if not has_file:
        pq.write_table(
            schema.empty_table(), os.path.join(stage_dir, "empty.parquet")
        )
