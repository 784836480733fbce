"""Index-build pipeline (the rebuild of ``crawl``, ``App.java:28-30``).

Dataflow (SURVEY.md §3.1 rebuild shape) — every wide step is an explicit
Ray Data shuffle, every stage checkpoints to parquet with a lineage
manifest (resume skips complete stages).  Two Ray Data executions run:
the extracted write and segments.  The LWW check, the lexicon and
docstats are plain Ray tasks (``_run_tasks``), one per doc shard or
term bucket: each lists, reads and writes its own files, so no rows
flow through Ray Data and an execution would only add its fixed cost:

::

    corpus (url, warc_ts, html[, text, lang[, doc_id]])
      │  html → doc_id,title,text,links,page_size,last_modified,
      │         + the page's forward lists terms,title_tfs,body_tfs,
      │         tf_max (``ForwardRows``, in the same map task)
      ▼
    extracted/   partitioned by doc_shard; last-write-wins per url by
                 warc_ts as a per-shard detect-then-compact pass, one
                 plain Ray task per shard (doc_id is a function of url,
                 so a url never spans shards).
                 Also the page-column, link-graph and forward-list
                 store: readers project its columns, and
                 ``stages.extract.link_edges`` flattens its ``links``
                 lists into edges                         [no shuffle]
      ▼
    segments/    tokenize+encode (task pool w/ per-worker state) → one
                 compressed posting run per (term, block) — local
                 index, NO shuffle of raw postings — then compaction
                 merges runs per (doc_shard, term-bucket); each run
                 carries its df and score bound (df_run, ub_run)
                                     [shuffle: term bucket, compressed]
      ▼
    lexicon/     per-bucket Σ df_run / max ub_run (runs of a term all
                 live in one bucket partition), one plain Ray task per
                 bucket writing bucket=N/part-0.parquet   [no shuffle]
      ▼
    docstats/    extracted lists (rows with tf_max > 0) × broadcast
                 (lexicon df) → doc_len_norm, one plain Ray task per
                 doc shard writing doc_shard=N/part-0.parquet
                                                          [no shuffle]
      ▼
    meta.json    N (extracted rows with tf_max > 0), config, semantic
                 key, stage metrics

Every sharded stage (extracted, segments, docstats) is partitioned
``doc_shard=0..doc_shards-1``; an unsharded index is the single
partition ``doc_shard=0``.  segments rebuilds only the shards whose
extracted rows changed since they were written (see
``_run_sharded_stage``), so a fresh build and an incremental update run
the same code.

segments is local-index-then-merge: ``TokenizeEncode`` writes one
compressed run per (term, tokenize batch), and ``compact_bucket`` merges
each (doc_shard, term bucket) group's runs as whole-column arrays (one
bulk decode, one sort, one encode; positions spliced as bytes).  Skew
(Zipf-head terms at web scale): the merge re-chunks a hot term's list
into runs of ≤ ``max_run_docs`` docs, so no output run holds a
mega-term's full posting list; the query side unions runs and
df = Σ df_run.  No plan repartitions: reads are split to
``cfg.shuffle_partitions`` blocks (Ray sort-shuffle cost scales with
block count), and partitioned writes bound their file fan-out with
``cfg.min_rows_per_file``.

Every index parquet file is written with one policy
(``_parquet_options``): zstd at Arrow's default level, and min/max
statistics only for the columns a reader filters on, declared beside
each stage's schema: segments ``term`` (the ``Searcher``'s pushdown),
extracted ``tf_max`` (the count of N), none for lexicon and docstats,
whose readers read whole files.  Readers
project columns and take any codec, so an index of the same format
written with Arrow's defaults (snappy, statistics on every column)
searches and updates unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.functions.hashing import md5_u64_array
from web_based_search_engine_ray.stages.extract import Extractor
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.stages.postings import (
    DOCSTATS_FILTER_COLUMNS,
    DOCSTATS_SCHEMA,
    SEGMENT_FILTER_COLUMNS,
    ForwardRows,
    TokenizeEncode,
    compact_bucket,
    doc_stats_batch,
)
from web_based_search_engine_ray.state import manifest as mf
from web_based_search_engine_ray.util import auto_parallelism

logger = logging.getLogger(__name__)

STAGES = ("extracted", "segments", "lexicon", "docstats")
#: the forward-list columns the extract task appends to each page row
FORWARD_COLUMNS = ("terms", "title_tfs", "body_tfs", "tf_max")
#: the corpus columns every build reads (``text, lang, doc_id`` are optional)
CORPUS_SCHEMA = pa.schema([("url", pa.string()), ("html", pa.binary()),
                           ("warc_ts", pa.timestamp("us"))])
#: ``extracted/``'s rows (less the ``doc_shard`` partition column): the
#: Extractor's page columns, then :data:`FORWARD_COLUMNS`
EXTRACTED_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("url", pa.string()), ("title", pa.string()),
    ("text", pa.string()), ("links", pa.list_(pa.string())),
    ("page_size", pa.int64()), ("last_modified", pa.timestamp("us")),
    ("lang", pa.string()), ("terms", pa.list_(pa.string())),
    ("title_tfs", pa.list_(pa.int64())), ("body_tfs", pa.list_(pa.int64())),
    ("tf_max", pa.int64()),
])
#: ``extracted/``'s one filtered column: N counts its rows with
#: ``tf_max > 0``
EXTRACTED_FILTER_COLUMNS = ("tf_max",)


def _parquet_options(filter_columns) -> dict:
    """Write options of every index parquet file: zstd at Arrow's
    default level, and min/max statistics only for the stage's
    ``filter_columns``, the columns some reader pushes a filter down
    to."""
    return {"compression": "zstd", "write_statistics": list(filter_columns)}


def _fp(*parts: str) -> str:
    return hashlib.md5("|".join(parts).encode()).hexdigest()[:16]


def _add_doc_shard(batch: pa.Table, *, n_shards: int) -> pa.Table:
    """Hive partition column of ``extracted/``: doc_shard = doc_id %
    n_shards, re-derivable anywhere.  A columnless block takes
    :data:`EXTRACTED_SCHEMA`."""
    if not batch.num_columns:
        batch = EXTRACTED_SCHEMA.empty_table()
    if "doc_shard" in batch.column_names:
        batch = batch.drop_columns(["doc_shard"])
    return batch.append_column(
        "doc_shard",
        pa.array(
            batch["doc_id"].to_numpy(zero_copy_only=False) % n_shards,
            type=pa.int32(),
        ),
    )


def _lww_shard_dedup_task(d: str) -> int:
    """One task per extracted ``doc_shard=`` dir ``d``: detect-then-compact
    LWW url-dedup WITHOUT any exchange.

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
    corpus).  Returns the number of duplicate rows removed."""
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
        # reconstruction).  The count for a resumed shard is reported
        # as 0 — it is diagnostic only.
        try:
            fsio.parquet_num_rows(comp)  # reads+checks footer
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
            return 0
    if not inputs:
        return 0
    urls = fsio.parquet_read_table(inputs, columns=["url"])["url"]
    n = len(urls)
    if len(pc.unique(urls.combine_chunks())) == n:
        return 0
    t = fsio.parquet_read_table(inputs)
    keep = _lww_group_extracted(t)
    fsio.parquet_write_table(keep, comp + ".tmp",
                             **_parquet_options(EXTRACTED_FILTER_COLUMNS))
    fsio.replace(comp + ".tmp", comp)
    for p in inputs:
        fsio.remove(p)
    return n - keep.num_rows


def _lww_group_extracted(group: pa.Table) -> pa.Table:
    """LWW over EXTRACTED rows (newest per url by ``last_modified`` =
    ``warc_ts``), every column carried as is: the dedup moves
    title/text/links and the forward lists instead of raw
    html — on real web pages an order of magnitude less data — and the
    occasional stale duplicate is extracted redundantly instead of
    shipping every page's html through the object store."""
    group = group.sort_by(
        [("url", "ascending"), ("last_modified", "descending")]
    )
    urls = np.asarray(group["url"])
    _, first_idx = np.unique(urls, return_index=True)
    return group.take(pa.array(np.sort(first_idx)))


def _write_extracted(ds, stage_dir: str, cfg: IndexConfig) -> None:
    """Write extracted rows ``doc_shard``-partitioned (the build's
    extracted/ stage and ``update_index``'s shard rewrite)."""
    ds.map_batches(
        functools.partial(_add_doc_shard, n_shards=cfg.doc_shards),
        batch_format="pyarrow",
    ).write_parquet(
        stage_dir,
        partition_cols=["doc_shard"],
        min_rows_per_file=cfg.min_rows_per_file,
        **_parquet_options(EXTRACTED_FILTER_COLUMNS),
    )


def _run_tasks(fn, args: list[tuple]) -> list:
    """``fn(*a)`` for each ``a`` in ``args`` as plain Ray tasks, one per
    tuple; returns their results in order.  Retried without limit on
    worker loss, as Ray Data retries its own map tasks, so ``fn`` must
    converge on the same files when re-run."""
    import ray

    task = ray.remote(max_retries=-1)(fn)
    return ray.get([task.remote(*a) for a in args])


def _lww_dedup_shards(stage_dir: str, shards) -> None:
    """One detect-then-compact task per extracted shard dir in
    ``shards`` (:func:`_lww_shard_dedup_task`), so every url has one
    row: its newest.  Because doc_id = f(url), a url's occurrences are
    confined to one shard dir, so url-dedup needs NO exchange at all:
    the previous design — Ray's ``groupby(lww_key)`` — cost an
    all-to-all SORT of the full extracted payload (measured 12 s of a
    13 s extract wall at 1.8M docs / 32 CPUs, flat across parallelism
    levels), where the shard-local check costs one url-column
    projection per shard and rewrites only shards that actually
    contain duplicates.  The tasks move no rows through Ray Data, so
    they run as plain Ray tasks."""
    dups = sum(_run_tasks(_lww_shard_dedup_task, [
        (os.path.join(stage_dir, f"doc_shard={s}"),) for s in shards
    ]))
    if dups:
        logger.info("LWW url-dedup removed %d duplicate rows", dups)


def _shard_files(stage_dir: str, shards) -> list[str]:
    """Every parquet file of the given ``doc_shard=`` partitions of a
    stage — a file list, because Ray treats list entries as files.
    Feed it to Ray through :func:`fsio.ray_file_list`."""
    return [
        f
        for s in shards
        if fsio.isdir(d := os.path.join(stage_dir, f"doc_shard={s}"))
        for f in fsio.walk_files(d)
        if f.endswith(".parquet")
    ]


def _shuffle_parts(cfg: IndexConfig) -> int:
    """Read parallelism of the segments plan (see
    IndexConfig.shuffle_partitions): its read is split to this many
    blocks, so the groupby takes them as read and no plan
    repartitions."""
    return cfg.shuffle_partitions or auto_parallelism()


def _extract_task(batch: pa.Table, *, cfg: IndexConfig) -> pa.Table:
    """Corpus rows → extracted rows: the :class:`Extractor`'s page
    columns followed by the page's :data:`FORWARD_COLUMNS` from
    :class:`ForwardRows` (one row per page, empty lists for a page with
    no kept term), one instance of each per worker."""
    from web_based_search_engine_ray.util import worker_singleton

    if not batch.num_columns:
        return EXTRACTED_SCHEMA.empty_table()
    pages = worker_singleton(
        "extractor", lambda: Extractor(verify=cfg.verify_extraction)
    )(batch)
    fwd = worker_singleton(
        ("forward_rows", cfg.semantic_key()), lambda: ForwardRows(cfg)
    )(pages)
    for name in FORWARD_COLUMNS:
        pages = pages.append_column(name, fwd[name])
    return pages


def _tokenize_encode_task(batch: pa.Table, *, cfg: IndexConfig) -> pa.Table:
    from web_based_search_engine_ray.util import worker_singleton

    inst = worker_singleton(
        ("tokenize_encode", cfg.semantic_key()), lambda: TokenizeEncode(cfg)
    )
    return inst(batch)


#: ``lexicon/bucket=N/part-0.parquet``'s rows
_LEXICON_SCHEMA = pa.schema([
    ("term", pa.string()), ("term_hash", pa.uint64()), ("df", pa.int64()),
    ("ub_adj", pa.float64()),
])
#: lexicon readers read whole bucket files: no column statistics
_LEXICON_FILTER_COLUMNS = ()


def _lexicon_bucket_task(bucket: int, seg_dir: str, stage_dir: str) -> None:
    """One task per term-hash bucket: DISCOVER the bucket's segment
    files inside the task (no driver-side filesystem assumption — the
    segment store only has to be reachable from workers, the normal
    shared-storage contract of ``write_parquet``), read them across
    every doc shard, and aggregate ``df = Σ df_run`` /
    ``ub_adj = max(ub_run)`` — both EXACT, since all runs of a term
    live in exactly one bucket and merged runs carry the max of their
    sources' bounds.  Writes ``stage_dir/bucket=<bucket>/part-0.parquet``
    (typed and empty for a bucket with no term), so a retried task
    overwrites the same file."""
    paths = fsio.glob(
        os.path.join(seg_dir, "**", f"bucket={bucket}", "*.parquet"),
        recursive=True,
    )
    out = _LEXICON_SCHEMA.empty_table()
    if paths:
        g = fsio.parquet_read_table(
            paths, columns=["term", "df_run", "ub_run"]
        ).group_by("term").aggregate([("df_run", "sum"), ("ub_run", "max")])
        # hash HERE (parallel across bucket tasks) so the docstats df
        # broadcast needs no driver-side string materialization/md5 pass
        out = pa.table({
            "term": g["term"],
            "term_hash": pa.array(
                md5_u64_array(g["term"].to_pylist()), type=pa.uint64()
            ),
            "df": g["df_run_sum"],
            "ub_adj": pc.cast(g["ub_run_max"], pa.float64()),
        })
    d = os.path.join(stage_dir, f"bucket={bucket}")
    fsio.makedirs(d)
    fsio.parquet_write_table(out, os.path.join(d, "part-0.parquet"),
                             **_parquet_options(_LEXICON_FILTER_COLUMNS))


def _docstats_shard_task(s: int, ext_dir: str, stage_dir: str, n_docs: int,
                         df: tuple) -> tuple[int, int]:
    """One task per doc shard ``s``: stream ``extracted/doc_shard=<s>``'s
    rows with terms (``tf_max > 0``) batch by batch through
    :func:`doc_stats_batch` into ``stage_dir/doc_shard=<s>/part-0.parquet``
    (typed and empty for a shard with no such row), so memory stays
    bounded and a retried task overwrites the same file.  ``df`` is
    ``(df_ref,)``: a top-level ``ObjectRef`` argument would reach the
    task already resolved.  Returns the shard's rows and token total,
    the two sums ``_STATS.json`` needs."""
    import pyarrow.parquet as pq

    d = os.path.join(stage_dir, f"doc_shard={s}")
    fsio.makedirs(d)
    rows = tokens = 0
    opts = _parquet_options(DOCSTATS_FILTER_COLUMNS)
    with fsio.open_file(os.path.join(d, "part-0.parquet"), "wb") as f, \
            pq.ParquetWriter(f, DOCSTATS_SCHEMA, **opts) as out:
        for path in fsio.glob(os.path.join(ext_dir, f"doc_shard={s}",
                                           "*.parquet")):
            with fsio.open_file(path, "rb") as src:
                for b in pq.ParquetFile(src).iter_batches(
                        columns=["doc_id", *FORWARD_COLUMNS]):
                    b = pa.Table.from_batches([b])
                    b = b.filter(pc.greater(b["tf_max"], 0))
                    if not b.num_rows:
                        continue
                    t = doc_stats_batch(b, n_docs=n_docs, df_ref=df[0])
                    out.write_table(t)
                    rows += t.num_rows
                    tokens += int(np.sum(t["n_tokens"].to_numpy()))
    return rows, tokens


def build_index(
    corpus_fn,
    out_dir: str,
    cfg: IndexConfig,
    *,
    input_key: str = "",
    resume: bool = True,
) -> dict:
    """Build all index artifacts under ``out_dir``.

    ``corpus_fn``: zero-arg callable returning the corpus ``Dataset``
    (callable so a resumed run whose extract stage is complete never
    constructs the input pipeline).  Returns the build report (also
    persisted as ``meta.json``).
    """
    import ray.data as rd

    fsio.makedirs(out_dir)
    sem = cfg.semantic_key()
    shards = range(cfg.doc_shards)
    results: list[mf.StageResult] = []
    t_start = time.perf_counter()

    # ---- stage: extracted --------------------------------------------------
    fp_ext = _fp("extracted", sem, input_key)
    d_ext = os.path.join(out_dir, "extracted")

    def _build_extracted(stage_dir: str) -> int:
        # extract FIRST: html never crosses any exchange, and the LWW
        # dedup moves only the extracted columns
        ds = corpus_fn().map_batches(
            functools.partial(_extract_task, cfg=cfg),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
        )
        _write_extracted(ds, stage_dir, cfg)
        _lww_dedup_shards(stage_dir, shards)
        return _count_parquet(stage_dir)

    # Per-shard fingerprints: the key of the last write that TOUCHED each
    # extracted doc_shard partition.  A full extract rewrites every
    # shard; ``update_index`` gives only the shards it rewrites the new
    # key, so segments rebuilds only those.  ``input_key`` names the
    # write the downstream stages must be finished under.
    results.append(
        mf.run_stage(
            d_ext, fp_ext, _build_extracted, resume=resume,
            extra_metrics={"shard_fps": {str(s): fp_ext for s in shards},
                           "input_key": input_key},
        )
    )
    shard_fps = results[-1].extra["shard_fps"]

    # ---- sharded stage runner (segments) -----------------------------------
    d_parts = os.path.join(out_dir, "_part_manifests")

    def _run_sharded_stage(name: str, stage_fp: str, build_fn) -> mf.StageResult:
        """Rebuild the doc shards of one stage whose part manifest does
        not match the shard's fingerprint — every shard on a fresh build,
        the touched ones after an update or a crash — in ONE Dataset
        execution ``build_fn(files, staging_dir)`` over only those
        shards' extracted files.  The output lands in a staging dir
        partitioned by ``doc_shard``; each rebuilt shard dir is then
        swapped in and stamped with its part manifest (kept under
        ``_part_manifests/``, outside the stage dir, so hive discovery
        never sees it).  Untouched shard dirs are never rewritten."""
        t0 = time.perf_counter()
        stage_dir = os.path.join(out_dir, name)
        fsio.makedirs(stage_dir)
        fsio.makedirs(d_parts)
        # a previous build with a larger doc_shards (or a crashed one)
        # may have left entries that are not THIS config's shard
        # partitions; hive discovery would count their rows as live
        live = {f"doc_shard={s}" for s in shards}
        for entry in fsio.listdir(stage_dir):
            if entry in live:
                continue
            p = os.path.join(stage_dir, entry)
            if fsio.isdir(p):
                fsio.rmtree(p)
            else:
                fsio.remove(p)

        def part_fp(s: int) -> str:
            return _fp(f"{name}-part", shard_fps[str(s)], sem, str(s))

        def part_manifest(s: int) -> str:
            return os.path.join(d_parts, f"{name}.doc_shard={s}.json")

        def part_complete(s: int) -> bool:
            m = mf.load_manifest(stage_dir, manifest_path=part_manifest(s))
            return (
                m is not None
                and m.get("fingerprint") == part_fp(s)
                and (
                    m.get("rows") == 0
                    or fsio.isdir(os.path.join(stage_dir, f"doc_shard={s}"))
                )
            )

        dirty = [s for s in shards if not (resume and part_complete(s))]
        if not dirty and resume and mf.is_complete(stage_dir, stage_fp):
            m = mf.load_manifest(stage_dir)
            return mf.StageResult(name, stage_dir, m.get("rows", -1), 0.0,
                                  True, m)
        staging = os.path.join(out_dir, f"_{name}_staging")
        fsio.rmtree(staging, ignore_errors=True)
        files = _shard_files(d_ext, dirty)
        if files:
            build_fn(files, staging)
        for s in dirty:
            part = f"doc_shard={s}"
            # unstamp first: a crash mid-swap leaves the shard dirty
            if fsio.exists(part_manifest(s)):
                fsio.remove(part_manifest(s))
            dst, new = os.path.join(stage_dir, part), os.path.join(staging, part)
            if fsio.isdir(dst):
                fsio.rmtree(dst)
            rows = 0
            if fsio.isdir(new):
                fsio.replace(new, dst)
                rows = _count_parquet(dst)
            fsio.write_json(
                part_manifest(s),
                {"stage": part, "fingerprint": part_fp(s), "rows": rows},
            )
        fsio.rmtree(staging, ignore_errors=True)
        total = _count_parquet(stage_dir)
        wall = time.perf_counter() - t0
        mf.write_manifest(stage_dir, stage_fp, total, wall_sec=wall,
                          extra={"parts_rebuilt": len(dirty)})
        return mf.StageResult(name, stage_dir, total, wall, False,
                              {"parts_rebuilt": len(dirty)})

    # ---- stage: segments (the core term shuffle) ---------------------------
    fp_seg = _fp("segments", fp_ext)
    d_seg = os.path.join(out_dir, "segments")

    def _build_segments(files: list[str], out: str) -> None:
        # read directly at shuffle parallelism: the groupby below then
        # needs no repartition pass (each repartition moves all run data
        # through the object store once)
        ds = rd.read_parquet(
            **fsio.ray_file_list(files), columns=["doc_id", "title", "text"],
            override_num_blocks=_shuffle_parts(cfg),
        )
        # local index: one compressed run per (term, block) — the raw
        # (term, doc, positions) rows never cross a shuffle.  Task mode
        # with a per-worker singleton (no actor-pool startup); state =
        # stopword set + stem memo, rebuilt cheaply per worker.  Then
        # merge: shuffle only compressed runs, bounded per-term chunks,
        # grouped per (doc_shard, bucket).
        ds.map_batches(
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
        ).write_parquet(out, partition_cols=["doc_shard", "bucket"],
                        **_parquet_options(SEGMENT_FILTER_COLUMNS))

    results.append(_run_sharded_stage("segments", fp_seg, _build_segments))

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
        # bucket fits a task.)  PARTITIONED BY BUCKET: shard Searchers
        # lazy-load one term-hash bucket at a time (actor RSS
        # independent of total vocabulary) with the same byte-budgeted
        # cache as postings
        _run_tasks(_lexicon_bucket_task, [
            (b, d_seg, stage_dir) for b in range(cfg.num_buckets)
        ])
        return _count_parquet(stage_dir)

    results.append(mf.run_stage(d_lex, fp_lex, _build_lexicon, resume=resume))

    # ---- stage: docstats ---------------------------------------------------
    # N = docs with >= 1 term (InvertedIndex.java:72): the extracted
    # rows whose forward lists are not empty
    has_terms = pc.field("tf_max") > 0
    n_docs = _count_parquet(d_ext, has_terms)
    fp_stats = _fp("docstats", fp_ext, fp_lex, str(n_docs))
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
        # partitioned by doc shard so each shard Searcher reads ONLY its
        # slice (per-actor state scales 1/shards)
        per_shard = _run_tasks(_docstats_shard_task, [
            (s, d_ext, stage_dir, n_docs, (df_ref,)) for s in shards
        ])
        # global corpus stats for BM25 (avgdl must be corpus-wide, not
        # per shard), summed from the shard tasks' totals
        fsio.write_json(
            os.path.join(stage_dir, "_STATS.json"),
            {"total_tokens": sum(t for _, t in per_shard),
             "n_docs": int(n_docs)},
        )
        return sum(n for n, _ in per_shard)

    results.append(mf.run_stage(d_stats, fp_stats, _build_docstats, resume=resume))

    report = {
        "n_docs": n_docs,
        "config": cfg.to_dict(),
        "semantic_key": sem,
        "input_key": input_key,
        "total_wall_sec": round(time.perf_counter() - t_start, 4),
        "stages": [
            {
                "name": r.name,
                "rows": r.rows,
                "wall_sec": round(r.wall_sec, 4),
                "skipped": r.skipped,
                "bytes": fsio.du(r.path),
            }
            for r in results
        ],
    }
    fsio.write_json(os.path.join(out_dir, "meta.json"), report)
    return report


def _count_parquet(path: str, filter=None) -> int:
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet",
                        partitioning="hive").count_rows(filter=filter)
