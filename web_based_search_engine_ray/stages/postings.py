"""Posting extraction + segment encoding stages.

This is the Ray-Data re-expression of the reference's posting-list
build (``PostingIndex.addDocument``, ``PostingIndex.java:40-85``): the
per-document positional postings (positions kept separately for the
title field and the body field, ``Posting.java:9``) become delta-gap +
varbyte compressed *segment runs* built with a local-index-then-merge
plan:

1. :class:`TokenizeEncode` (a map task holding one instance per
   worker, ``build_index._tokenize_encode_task``) analyzes a block of
   documents column-wise (:meth:`PostingExtractor.analyze`: one Arrow
   split, integer term keys) and encodes one posting *run* per term
   within the block — no shuffle touches raw (term, doc, positions)
   rows;
2. ``compact_bucket`` merges the compressed runs per term inside a
   term-hash-bucket groupby — the only term shuffle moves already
   compressed bytes.  The merge works on whole-group arrays: one bulk
   varbyte decode of the doc-gap and tf columns, one (term, doc id)
   sort, one encode per column, and position bytes moved by a single
   gather without being decoded.  Skew handling (Zipf head at web
   scale, SURVEY.md §4): a term's merged list is re-chunked into runs
   of at most ``max_run_docs`` docs, so no output row holds a
   mega-term's full posting list (a row must fit one Arrow binary
   chunk); the query side reads and unions every run of a term and
   df = Σ df_run.

Both stages build their binary columns straight from an encoded
``uint8`` blob and its row offsets (no per-row ``bytes`` objects).

The segment row schema is shared by both stages: a run's postings,
its ``df_run`` and its score bound ``ub_run``, and no doc range, since
no reader decodes part of a term's list.  All runs of a term carry the
same ``bucket`` (:func:`term_buckets`), which the lexicon derivation
relies on (all runs of a term meet in one bucket group, so Σ df_run
there is the global df and max ub_run the term's bound).

The format's one reader is here too: :func:`decode_runs` and
:func:`decode_positions` decode segment rows for compaction and for the
``Searcher`` alike, and :data:`POS_BITS` is the position budget.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.functions.hashing import (
    md5_u64_array,
    stable_hash63_array,
)
from web_based_search_engine_ray.functions.tokenize import (
    TOKEN_PATTERN,
    stemmer,
)
from web_based_search_engine_ray.stages import codec

#: bits of a position in a phrase key ``doc_ordinal << POS_BITS | pos``
POS_BITS = 22


def term_buckets(terms, num_buckets: int) -> np.ndarray:
    """The segment and lexicon bucket of each of ``terms``:
    ``stable_hash63(term) % num_buckets``, as int64."""
    return stable_hash63_array(terms) % num_buckets


SEGMENT_SCHEMA = pa.schema(
    [
        ("doc_shard", pa.int32()),
        ("bucket", pa.int32()),
        ("part_key", pa.int64()),   # doc_shard * num_buckets + bucket
        ("term", pa.string()),
        ("df_run", pa.int64()),
        # the run's score upper bound max((a·ttf+(1-a)·btf)/tfMax) over
        # its docs; the lexicon's ub_adj (MaxScore's term bound) is the
        # max over a term's runs
        ("ub_run", pa.float64()),
        ("doc_gaps", pa.binary()),
        ("title_tfs", pa.binary()),
        ("body_tfs", pa.binary()),
        ("title_pos", pa.binary()),
        ("body_pos", pa.binary()),
    ]
)
#: the one segment column a reader filters on: ``Searcher._runs`` pushes
#: ``term ==`` down to the row groups (``doc_shard`` and ``bucket`` are
#: hive dirs), so only ``term`` gets min/max statistics
SEGMENT_FILTER_COLUMNS = ("term",)


class TermRows(NamedTuple):
    """One batch's analysis (:meth:`PostingExtractor.analyze`): one row
    per distinct (doc, term) pair, in (doc, term) order.  Term codes
    index ``vocab``, the batch's distinct stems in code-point order, so
    integer term order is string order."""

    vocab: list[str]
    doc: np.ndarray     # batch row of the row's document
    term: np.ndarray    # term code
    ttf: np.ndarray     # title tf
    btf: np.ndarray     # body tf
    tpos: np.ndarray    # title positions, flat in row order
    bpos: np.ndarray    # body positions, flat in row order
    tf_max: np.ndarray  # the row's doc's max (title + body) tf


class PostingExtractor:
    """Shared tokenizer of the extract and segments stages: a documents
    block → per-(doc, term) title/body positions (:meth:`analyze`),
    which :class:`ForwardRows` folds into each extracted page's term/tf
    lists and :class:`TokenizeEncode` encodes into posting runs.

    The analysis is columnar: one Arrow RE2 split of the ``title`` and
    ``text`` columns, one dictionary encode of the tokens, each distinct
    raw token stemmed once through the process's memoized
    :func:`~web_based_search_engine_ray.functions.tokenize.stemmer`, and
    one integer sort that groups the tokens into rows.
    """

    #: positions must fit the phrase-key packing (:data:`POS_BITS`):
    #: a pathological multi-million-token doc is indexed only on its
    #: first 2^22-1 filtered tokens (logged) instead of poisoning every
    #: phrase query that touches one of its terms at query time
    POS_LIMIT = (1 << POS_BITS) - 1

    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg
        self._truncation_warned = False

    def analyze(self, batch: pa.Table) -> TermRows:
        """``batch`` (``title``, ``text``) → its :class:`TermRows`."""
        n = batch.num_rows
        # title of doc i is list i, its text list n + i: the tokens come
        # out in (field, doc, position) order
        toks = pc.split_pattern_regex(
            pa.chunked_array([*batch["title"].chunks, *batch["text"].chunks],
                             type=pa.string()),
            pattern=TOKEN_PATTERN,
        )
        parent = pc.list_parent_indices(toks).to_numpy()
        enc = pc.dictionary_encode(pc.list_flatten(toks).combine_chunks())
        stem = stemmer(self.cfg.use_stopwords, self.cfg.use_stemming)
        stems = [stem(t) if t else None for t in enc.dictionary.to_pylist()]
        vocab = sorted(set(stems) - {None})
        code_of = dict(zip(vocab, range(len(vocab))))
        code = np.array([code_of.get(s, -1) for s in stems], np.int64)
        term = code[enc.indices.to_numpy(zero_copy_only=False)]
        # dropped tokens (stopwords, blanks) take no position
        keep = term >= 0
        parent, term = parent[keep], term[keep]
        count = np.bincount(parent, minlength=2 * n)
        pos = _ranges(np.zeros_like(count), count)
        over = pos >= self.POS_LIMIT
        if over.any():
            if not self._truncation_warned:
                self._truncation_warned = True
                logging.getLogger(__name__).warning(
                    "document exceeds %d filtered tokens; indexing "
                    "truncated to the position budget", self.POS_LIMIT,
                )
            parent, term, pos = parent[~over], term[~over], pos[~over]
        body = parent >= n
        key = (parent - n * body) * len(vocab) + term
        # stable: within a row, title positions then body positions
        order = np.argsort(key, kind="stable")
        key, body, pos = key[order], body[order], pos[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        size = np.diff(np.append(first, len(key)))
        btf = np.bincount(np.repeat(np.arange(len(first)), size)[body],
                          minlength=len(first))
        doc, term = np.divmod(key[first], max(1, len(vocab)))
        doc_first = np.flatnonzero(np.diff(doc, prepend=-1))
        tf_max = np.repeat(np.maximum.reduceat(size, doc_first),
                           np.diff(np.append(doc_first, len(doc))))
        return TermRows(vocab, doc, term, size - btf, btf, pos[~body],
                        pos[body], tf_max)


#: byte cap of one Arrow binary chunk (int32 offsets); a larger output
#: column is emitted as several row-slices that each fit
MAX_CHUNK_BYTES = (1 << 31) - 1

_BLOB_COLUMNS = ("doc_gaps", "title_tfs", "body_tfs", "title_pos", "body_pos")


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + l) for s, l in zip(starts, lens))`` as one
    vectorized gather index."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if lens.size else 0) - np.repeat(
        ends - lens - starts, lens
    )


def _binary_parts(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """A binary column's bytes as ``(uint8 data, int64 offsets)``, its
    chunks (and any slice offsets) concatenated."""
    datas, offsets, base = [], [np.zeros(1, np.int64)], 0
    for ch in col.chunks:
        if not len(ch):
            continue
        odt = np.int64 if pa.types.is_large_binary(ch.type) else np.int32
        _, obuf, dbuf = ch.buffers()
        o = np.frombuffer(obuf, odt, len(ch) + 1,
                          ch.offset * np.dtype(odt).itemsize).astype(np.int64)
        if o[-1] > o[0]:
            datas.append(np.frombuffer(dbuf, np.uint8, o[-1] - o[0], o[0]))
        offsets.append(o[1:] - o[0] + base)
        base += int(o[-1] - o[0])
    data = np.concatenate(datas) if datas else np.empty(0, np.uint8)
    return data, np.concatenate(offsets)


def _decode_column(col: pa.ChunkedArray) -> np.ndarray:
    """Every varbyte value of a binary column, in row order (uint64)."""
    return codec.varbyte_decode(_binary_parts(col)[0])


def decode_runs(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment rows ``t`` → their ``(doc_ids, title_tfs, body_tfs)``
    as int64, in row order: one varbyte pass per column over all rows,
    row lengths from ``df_run``."""
    df = t["df_run"].to_numpy()
    return (
        codec.undelta_concat(_decode_column(t["doc_gaps"]), df),
        _decode_column(t["title_tfs"]).astype(np.int64),
        _decode_column(t["body_tfs"]).astype(np.int64),
    )


def decode_positions(col: pa.ChunkedArray, tfs: np.ndarray) -> np.ndarray:
    """A ``title_pos`` / ``body_pos`` column → its positions, flat in
    row order; ``tfs`` are the same rows' tfs of that field."""
    return codec.undelta_concat(_decode_column(col), tfs)


def _row_cuts(offsets: list[np.ndarray]) -> list[int]:
    """Row boundaries splitting the rows so that no slice holds more
    than ``MAX_CHUNK_BYTES`` of any binary column."""
    n = len(offsets[0]) - 1
    cuts = [0]
    while cuts[-1] < n:
        a = cuts[-1]
        b = min(
            int(np.searchsorted(o, o[a] + MAX_CHUNK_BYTES, "right")) - 1
            for o in offsets
        )
        if b <= a:
            raise ValueError(
                f"one segment run exceeds {MAX_CHUNK_BYTES} bytes"
            )
        cuts.append(min(b, n))
    return cuts


def _segment_table(cols: dict, num_buckets: int) -> pa.Table:
    """``SEGMENT_SCHEMA`` table from per-row arrays; the binary columns
    are given as ``(uint8 blob, int64 offsets)`` pairs."""
    n = len(cols["term"])
    if not n:
        return SEGMENT_SCHEMA.empty_table()
    cols["part_key"] = (
        np.asarray(cols["doc_shard"], np.int64) * num_buckets
        + np.asarray(cols["bucket"], np.int64)
    )
    cuts = _row_cuts([cols[c][1] for c in _BLOB_COLUMNS])
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        arrays = []
        for f in SEGMENT_SCHEMA:
            if f.name in _BLOB_COLUMNS:
                blob, offs = cols[f.name]
                o = offs[a:b + 1]
                arrays.append(pa.Array.from_buffers(f.type, b - a, [
                    None,
                    pa.py_buffer((o - o[0]).astype(np.int32)),
                    pa.py_buffer(blob[o[0]:o[-1]]),
                ]))
            else:
                arrays.append(pa.array(cols[f.name][a:b], type=f.type))
        parts.append(pa.Table.from_arrays(arrays, schema=SEGMENT_SCHEMA))
    return pa.concat_tables(parts)


class TokenizeEncode(PostingExtractor):
    """Stage: documents block → one compressed posting run per
    (doc_shard, term) in the block (``SEGMENT_SCHEMA`` rows).  The
    reference's binary-search posting insertion
    (``PostingIndex.java:66-84``) becomes one integer sort + one
    delta/varbyte encode per column over all of the block's runs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.analyze(batch)
        if not len(r.term):
            return SEGMENT_SCHEMA.empty_table()
        docs_np = np.asarray(batch["doc_id"], np.int64)[r.doc]
        shards_np = docs_np % max(1, self.cfg.doc_shards)
        order = np.lexsort((docs_np, r.term, shards_np))
        new_run = np.ones(len(order), dtype=bool)
        new_run[1:] = (np.diff(r.term[order]) != 0) | (
            np.diff(shards_np[order]) != 0
        )
        starts = np.flatnonzero(new_run)
        sizes = np.diff(np.append(starts, len(order)))
        # single-doc runs (the Zipf tail) first, then multi-doc runs,
        # each in (doc_shard, term) order; postings in output order
        run_order = np.argsort(sizes > 1, kind="stable")
        lens = sizes[run_order]
        post = order[_ranges(starts[run_order], lens)]
        first = np.cumsum(lens) - lens

        a = self.cfg.title_weight
        ratio = (a * r.ttf + (1.0 - a) * r.btf) / r.tf_max
        docs = docs_np[post]
        run_terms = r.term[post[first]]
        cols = {
            "doc_shard": shards_np[post[first]],
            "bucket": term_buckets(r.vocab, self.cfg.num_buckets)[run_terms],
            "term": np.asarray(r.vocab, dtype=object)[run_terms],
            "df_run": lens,
            "ub_run": np.maximum.reduceat(ratio[post], first),
            "doc_gaps": codec.varbyte_encode_slices(
                codec.delta_concat(docs, lens), lens
            ),
        }
        for name, tf, flat in (("title", r.ttf, r.tpos),
                               ("body", r.btf, r.bpos)):
            tf_post = tf[post]
            flat = flat[_ranges((np.cumsum(tf) - tf)[post], tf_post)]
            cols[f"{name}_tfs"] = codec.varbyte_encode_slices(tf_post, lens)
            cols[f"{name}_pos"] = codec.varbyte_encode_slices(
                codec.delta_concat(flat, tf_post),
                np.add.reduceat(tf_post, first),
            )
        return _segment_table(cols, self.cfg.num_buckets)


def compact_bucket(group: pa.Table, *, max_run_docs: int,
                   num_buckets: int) -> pa.Table:
    """``map_groups`` body for one (doc_shard, term-hash-bucket) group
    (``part_key``): merge each term's compressed runs into doc-sorted
    runs of ≤ ``max_run_docs`` docs.

    Single-run terms (the Zipf tail — the vast majority) pass through
    untouched, ahead of the merged rows.  The multi-run terms' rows are
    merged as whole arrays: one :func:`decode_runs` pass, one
    ``lexsort`` by (term, doc id) whose rank within the term gives the
    output run, and one encode per column.  Position bytes are never
    decoded: within-doc deltas are invariant under doc reordering, so
    each doc's position bytes (located from the value ends of the
    source buffer and the doc tfs) are spliced into the output by a
    single gather."""
    if group.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    terms_np = np.asarray(group["term"])
    order = np.argsort(terms_np, kind="stable")
    terms_np = terms_np[order]
    new_term = np.ones(len(terms_np), dtype=bool)
    new_term[1:] = terms_np[1:] != terms_np[:-1]
    starts = np.flatnonzero(new_term)
    sizes = np.diff(np.append(starts, len(terms_np)))
    multi = sizes > 1
    merged = SEGMENT_SCHEMA.empty_table()
    if multi.any():
        merged = _merge_runs(
            group, order[np.repeat(multi, sizes)], sizes[multi],
            terms_np[starts[multi]], max_run_docs, num_buckets,
        )
    if multi.all():
        return merged
    kept = group.take(pa.array(order[starts[~multi]], type=pa.int64()))
    kept = kept.select([f.name for f in SEGMENT_SCHEMA])
    kept = kept.cast(SEGMENT_SCHEMA)
    return pa.concat_tables([kept, merged]) if merged.num_rows else kept


def _merge_runs(group: pa.Table, src: np.ndarray, runs_per_term: np.ndarray,
                terms: np.ndarray, max_run_docs: int,
                num_buckets: int) -> pa.Table:
    """Merge the source runs ``src`` (row indices of ``group``, grouped
    by term in ``terms`` order, ``runs_per_term`` each) into chunked
    doc-sorted runs."""
    runs = group.take(pa.array(src, type=pa.int64()))
    df = runs["df_run"].to_numpy()
    ids, ttf, btf = decode_runs(runs)
    doc_term = np.repeat(np.repeat(np.arange(len(terms)), runs_per_term), df)
    perm = np.lexsort((ids, doc_term))
    ids = ids[perm]
    term_docs = np.bincount(doc_term, minlength=len(terms))
    rank = np.arange(len(ids)) - np.repeat(
        np.cumsum(term_docs) - term_docs, term_docs
    )
    row_first = np.flatnonzero(rank % max_run_docs == 0)
    lens = np.diff(np.append(row_first, len(ids)))
    row_term = doc_term[perm][row_first]
    # merged-run bound: max of the term's source-run bounds
    # (conservative — rank-safe; exact per-chunk bounds would need
    # per-doc tfMax)
    ub_term = np.maximum.reduceat(runs["ub_run"].to_numpy(),
                                  np.cumsum(runs_per_term) - runs_per_term)
    cols = {
        "doc_shard": np.full(len(lens), group["doc_shard"][0].as_py()),
        "bucket": np.full(len(lens), group["bucket"][0].as_py()),
        "term": terms[row_term],
        "df_run": lens,
        "ub_run": ub_term[row_term],
        "doc_gaps": codec.varbyte_encode_slices(
            codec.delta_concat(ids, lens), lens
        ),
    }
    for name, tf in (("title", ttf), ("body", btf)):
        cols[f"{name}_tfs"] = codec.varbyte_encode_slices(tf[perm], lens)
        # each source doc's position byte range: its first value is
        # the run's first value plus the tfs of the docs before it
        data, offs = _binary_parts(runs[f"{name}_pos"])
        is_end = data < 0x80
        pos_first = np.concatenate(([0], np.cumsum(is_end)))[offs[:-1]]
        doc_first_val = (
            np.repeat(pos_first, df) + codec.undelta_concat(tf, df) - tf
        )
        val_start = np.concatenate(([0], np.flatnonzero(is_end) + 1))
        lo = val_start[doc_first_val][perm]
        nbytes = val_start[doc_first_val + tf][perm] - lo
        byte_ends = np.concatenate(([0], np.cumsum(nbytes)))
        cols[f"{name}_pos"] = (
            data[_ranges(lo, nbytes)],
            byte_ends[np.append(row_first, len(ids))],
        )
    return _segment_table(cols, num_buckets)


class ForwardRows(PostingExtractor):
    """Documents block → one forward row per input row ``(doc_id, terms,
    title_tfs, body_tfs, tf_max)``, which ``build_index._extract_task``
    appends to the page's ``extracted/`` row.  The lists are cut from
    the same columnar :meth:`~PostingExtractor.analyze` rows that
    :class:`TokenizeEncode` encodes, already in (doc, term) order, so
    each doc's term list comes out sorted (deterministic artifacts).  A
    doc with no kept term gets empty lists and ``tf_max`` 0; N counts
    only docs with ``tf_max > 0`` (``InvertedIndex.java:72``).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.analyze(batch)
        ends = np.cumsum(np.bincount(r.doc, minlength=batch.num_rows))
        off = pa.array(np.append(0, ends), type=pa.int32())
        tf_max = np.zeros(batch.num_rows, np.int64)
        tf_max[r.doc] = r.tf_max
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "terms": pa.ListArray.from_arrays(
                    off, pa.array(r.vocab, type=pa.string()).take(r.term)
                ),
                "title_tfs": pa.ListArray.from_arrays(
                    off, pa.array(r.ttf, type=pa.int64())
                ),
                "body_tfs": pa.ListArray.from_arrays(
                    off, pa.array(r.btf, type=pa.int64())
                ),
                "tf_max": pa.array(tf_max),
            }
        )


def _list_column_parts(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(flat_values, lengths) of a list<intN> column."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = arr.values.to_numpy(zero_copy_only=False).astype(np.int64)
    values = values[offsets[0]: offsets[-1]]
    offsets = offsets - offsets[0]
    lengths = np.diff(offsets)
    return values, lengths


def sorted_hash_lookup(hv: np.ndarray, dfs) -> tuple:
    """Sort pre-computed term hashes + align df values into the
    broadcastable ``(sorted_hashes, dfs)`` lookup.  Raises on a hash
    collision (probability ~V²/2^65; the caller then falls back to a
    dict).  Pure numpy on numeric arrays — O(V log V) driver cost with
    no Python-object materialization."""
    order = np.argsort(hv, kind="stable")
    hv = hv[order]
    if len(hv) > 1 and (hv[1:] == hv[:-1]).any():
        raise ValueError("term hash collision")
    return hv, np.asarray(dfs, dtype=np.float64)[order]


#: the rows :func:`doc_stats_batch` writes to ``docstats/``
DOCSTATS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("tf_max", pa.int64()),
                             ("doc_len_norm", pa.float64()),
                             ("n_tokens", pa.int64())])
#: docstats' readers read whole files: no column statistics
DOCSTATS_FILTER_COLUMNS = ()


def doc_stats_batch(batch: pa.Table, *, n_docs: int, df_ref) -> pa.Table:
    """Extracted rows with terms (their ``doc_id`` and forward lists) →
    ``(doc_id, tf_max, doc_len_norm, n_tokens)``.

    doc_len_norm = sqrt(Σ_t (tf_t · log10(N/df_t) / tfMax)²) over ALL of
    the doc's terms with unweighted tf (``InvertedIndex.getDocumentLength``,
    ``InvertedIndex.java:69-95``; the title multiplier is NOT applied
    here).  A single-doc corpus gives idf=0 → norm 0 → NaN scores, which
    is reproduced deliberately (reference behavior).

    ``df_ref``: dict (small/test path) or ``ray.ObjectRef`` of
    ``(sorted_term_hashes: uint64 ndarray, dfs: float64 ndarray)`` built
    once on the driver by :func:`sorted_hash_lookup` — numpy arrays
    ride plasma ZERO-COPY, so workers pay no per-worker structure build
    (a broadcast dict cost ~4 s of deserialization per worker at a
    1.8M-term vocabulary).  Lookup = md5-hash the batch's unique terms
    (worker-memoized) + one vectorized searchsorted.  At vocabularies
    too large to broadcast, partition the lexicon by term bucket and
    map-side join per bucket instead."""
    ttf_flat, lens = _list_column_parts(batch["title_tfs"])
    btf_flat, _ = _list_column_parts(batch["body_tfs"])
    terms_col = batch["terms"].combine_chunks()
    if isinstance(terms_col, pa.ChunkedArray):
        terms_col = terms_col.chunk(0)
    toff = terms_col.offsets.to_numpy(zero_copy_only=False)
    flat = terms_col.values.slice(toff[0], toff[-1] - toff[0])
    # C++ hash-based unique (no numpy object-array sort over tens of
    # millions of Python strings); df looked up once per batch-unique
    enc = pc.dictionary_encode(flat)
    uniq = enc.dictionary.to_pylist()
    inv = enc.indices.to_numpy(zero_copy_only=False)
    if isinstance(df_ref, dict):
        df_uniq = np.fromiter(
            (df_ref[t] for t in uniq), dtype=np.float64, count=len(uniq)
        )
    else:
        import ray

        hv_sorted, df_sorted = ray.get(df_ref)
        uh = md5_u64_array(uniq)
        df_uniq = df_sorted[np.searchsorted(hv_sorted, uh)]
    df_flat = df_uniq[inv]
    tf_max = batch["tf_max"].to_numpy(zero_copy_only=False)
    tf_flat = ttf_flat + btf_flat
    idf_flat = np.log10(n_docs / df_flat)
    contrib = (tf_flat * idf_flat) ** 2
    sums = np.zeros(batch.num_rows, dtype=np.float64)
    row_of = np.repeat(np.arange(batch.num_rows), lens)
    np.add.at(sums, row_of, contrib)
    norm = np.sqrt(sums) / tf_max
    # raw token count per doc (BM25 |d|; avgdl is recorded globally in
    # docstats/_STATS.json by the build)
    n_tokens = np.zeros(batch.num_rows, dtype=np.int64)
    np.add.at(n_tokens, row_of, tf_flat)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tf_max": batch["tf_max"],
            "doc_len_norm": pa.array(norm, type=pa.float64()),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
        },
        schema=DOCSTATS_SCHEMA,
    )
