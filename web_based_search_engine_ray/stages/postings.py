"""Posting extraction + segment encoding stages.

This is the Ray-Data re-expression of the reference's posting-list
build (``PostingIndex.addDocument``, ``PostingIndex.java:40-85``): the
per-document positional postings (positions kept separately for the
title field and the body field, ``Posting.java:9``) become delta-gap +
varbyte compressed *segment runs* built with a local-index-then-merge
plan:

1. :class:`TokenizeEncode` (actor pool) tokenizes a block of documents
   and encodes one posting *run* per term within the block — no shuffle
   touches raw (term, doc, positions) rows;
2. ``compact_bucket`` merges the compressed runs per term inside a
   term-hash-bucket groupby — the only term shuffle moves already
   compressed bytes.  Skew handling (Zipf head at web scale,
   SURVEY.md §4): a term's merged list is re-chunked into runs of at
   most ``max_run_docs`` docs, so no task ever materializes a
   mega-term's full posting list; the query side unions runs and
   df = Σ df_run.

The segment row schema is shared by both stages; all runs of a term
carry the same ``bucket`` (hash(term) % num_buckets), which the forward
/docstats derivation relies on (all runs of a term meet in one bucket
group, so Σ df_run there is the global df).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.functions.hashing import stable_hash63
from web_based_search_engine_ray.functions.stopwords import stopword_set
from web_based_search_engine_ray.functions.tokenize import TOKEN_RE, stem_word
from web_based_search_engine_ray.stages import codec

SEGMENT_SCHEMA = pa.schema(
    [
        ("doc_shard", pa.int32()),
        ("bucket", pa.int32()),
        ("part_key", pa.int64()),   # doc_shard * num_buckets + bucket
        ("term", pa.string()),
        ("run", pa.int32()),
        ("df_run", pa.int64()),
        # per-run block-max metadata: doc-id range (decode-free run
        # skipping) and score upper bound max((a·ttf+(1-a)·btf)/tfMax)
        # over the run's docs (rank-safe run-level MaxScore restriction)
        ("min_doc", pa.int64()),
        ("max_doc", pa.int64()),
        ("ub_run", pa.float64()),
        ("doc_gaps", pa.binary()),
        ("title_tfs", pa.binary()),
        ("body_tfs", pa.binary()),
        ("title_pos", pa.binary()),
        ("body_pos", pa.binary()),
    ]
)


class PostingExtractor:
    """Actor-pool stage: documents → flat positional posting rows
    (``term, doc_id, title_positions, body_positions``).

    ``__init__`` holds per-actor state (stopword set, compiled regex) —
    once per actor, not per batch.
    """

    #: bound on the per-actor token→stem memo (Zipf vocabulary ⇒ the
    #: working set is tiny; the cap only guards pathological inputs)
    MEMO_CAP = 1_000_000
    #: positions must fit the phrase-key packing (Searcher.POS_BITS):
    #: a pathological multi-million-token doc is indexed only on its
    #: first 2^22-1 filtered tokens (logged) instead of poisoning every
    #: phrase query that touches one of its terms at query time
    POS_LIMIT = (1 << 22) - 1

    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg
        self.stops = stopword_set() if cfg.use_stopwords else frozenset()
        self.re = TOKEN_RE
        self._memo: dict[str, str | None] = {}
        self._truncation_warned = False

    def _analyze(self, text: str) -> list[str]:
        cfg = self.cfg
        memo = self._memo
        limit = self.POS_LIMIT
        out = []
        for tok in self.re.split(text):
            if not tok:
                continue
            if len(out) >= limit:
                if not self._truncation_warned:
                    self._truncation_warned = True
                    import logging

                    logging.getLogger(__name__).warning(
                        "document exceeds %d filtered tokens; indexing "
                        "truncated to the position budget", limit,
                    )
                break
            if tok in memo:
                w = memo[tok]
            else:
                w = stem_word(
                    tok,
                    use_stopwords=cfg.use_stopwords,
                    use_stemming=cfg.use_stemming,
                    _stops=self.stops,
                )
                if len(memo) < self.MEMO_CAP:
                    memo[tok] = w
            if w is not None:
                out.append(w)
        return out

    def extract(self, batch: pa.Table):
        """→ (terms, doc_ids, title_pos lists, body_pos lists,
        tf_max-of-row's-doc) flat row arrays."""
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        titles = batch["title"].to_pylist()
        texts = batch["text"].to_pylist()
        terms: list[str] = []
        out_doc: list[int] = []
        tpos: list[list[int]] = []
        bpos: list[list[int]] = []
        tfmax: list[int] = []
        for doc_id, title, text in zip(doc_ids, titles, texts):
            doc_id = int(doc_id)
            acc: dict[str, tuple[list[int], list[int]]] = {}
            for i, t in enumerate(self._analyze(title)):
                acc.setdefault(t, ([], []))[0].append(i)
            for i, t in enumerate(self._analyze(text)):
                acc.setdefault(t, ([], []))[1].append(i)
            if not acc:
                continue
            m = max(len(tl) + len(bl) for tl, bl in acc.values())
            for term, (tl, bl) in acc.items():
                terms.append(term)
                out_doc.append(doc_id)
                tpos.append(tl)
                bpos.append(bl)
                tfmax.append(m)
        return terms, out_doc, tpos, bpos, tfmax

    def __call__(self, batch: pa.Table) -> pa.Table:
        terms, out_doc, tpos, bpos, _tfmax = self.extract(batch)
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "title_positions": pa.array(tpos, type=pa.list_(pa.int32())),
                "body_positions": pa.array(bpos, type=pa.list_(pa.int32())),
            }
        )


def _segment_table(rows: dict[str, list], shards, buckets, runs,
                   num_buckets: int) -> pa.Table:
    n = len(rows["term"])
    if not n:
        return SEGMENT_SCHEMA.empty_table()
    shards_np = np.asarray(shards, dtype=np.int64)
    buckets_np = np.asarray(buckets, dtype=np.int64)
    return pa.table(
        {
            "doc_shard": pa.array(shards_np, type=pa.int32()),
            "bucket": pa.array(buckets_np, type=pa.int32()),
            "part_key": pa.array(
                shards_np * num_buckets + buckets_np, type=pa.int64()
            ),
            "term": pa.array(rows["term"], type=pa.string()),
            "run": pa.array(runs, type=pa.int32()),
            "df_run": pa.array(rows["df_run"], type=pa.int64()),
            "min_doc": pa.array(rows["min_doc"], type=pa.int64()),
            "max_doc": pa.array(rows["max_doc"], type=pa.int64()),
            "ub_run": pa.array(rows["ub_run"], type=pa.float64()),
            "doc_gaps": pa.array(rows["doc_gaps"], type=pa.binary()),
            "title_tfs": pa.array(rows["title_tfs"], type=pa.binary()),
            "body_tfs": pa.array(rows["body_tfs"], type=pa.binary()),
            "title_pos": pa.array(rows["title_pos"], type=pa.binary()),
            "body_pos": pa.array(rows["body_pos"], type=pa.binary()),
        },
        schema=SEGMENT_SCHEMA,
    )


class TokenizeEncode(PostingExtractor):
    """Actor-pool stage: documents block → one compressed posting run
    per term in the block (``SEGMENT_SCHEMA`` rows).  The reference's
    binary-search posting insertion (``PostingIndex.java:66-84``)
    becomes one sort + vectorized delta/varbyte encode per term."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        terms, out_doc, tpos, bpos, tfmax = self.extract(batch)
        if not terms:
            return SEGMENT_SCHEMA.empty_table()
        terms_np = np.asarray(terms, dtype=object)
        docs_np = np.asarray(out_doc, dtype=np.int64)
        tfmax_np = np.asarray(tfmax, dtype=np.float64)
        n_shards = max(1, self.cfg.doc_shards)
        shards_np = docs_np % n_shards
        order = np.lexsort((docs_np, terms_np, shards_np))
        terms_np, docs_np = terms_np[order], docs_np[order]
        shards_np = shards_np[order]
        tfmax_np = tfmax_np[order]
        tpos = [tpos[i] for i in order]
        bpos = [bpos[i] for i in order]

        new_term = np.ones(len(terms_np), dtype=bool)
        new_term[1:] = (terms_np[1:] != terms_np[:-1]) | (
            shards_np[1:] != shards_np[:-1]
        )
        starts = np.flatnonzero(new_term)
        ends = np.concatenate((starts[1:], [len(terms_np)]))
        sizes = ends - starts

        all_ttf = np.fromiter(map(len, tpos), np.int64, len(tpos))
        all_btf = np.fromiter(map(len, bpos), np.int64, len(bpos))
        a = self.cfg.title_weight
        all_ratio = (a * all_ttf + (1.0 - a) * all_btf) / tfmax_np

        rows = {k: [] for k in ("term", "df_run", "min_doc", "max_doc",
                                "ub_run", "doc_gaps", "title_tfs",
                                "body_tfs", "title_pos", "body_pos")}
        buckets = []
        out_shards = []
        nb = self.cfg.num_buckets

        # --- fast path: single-doc runs (the Zipf tail is most of the
        # vocabulary) — one vectorized encode + bytes slicing instead of
        # six codec calls per term
        single = sizes == 1
        s_idx = starts[single]
        if s_idx.size:
            ones = np.ones(len(s_idx), dtype=np.int64)
            gap_blobs = codec.varbyte_encode_slices(
                docs_np[s_idx].astype(np.uint64), ones
            )
            ttfs_s = all_ttf[s_idx]
            btfs_s = all_btf[s_idx]
            ttf_blobs = codec.varbyte_encode_slices(
                ttfs_s.astype(np.uint64), ones
            )
            btf_blobs = codec.varbyte_encode_slices(
                btfs_s.astype(np.uint64), ones
            )
            tflat = (
                np.concatenate([np.asarray(tpos[i], np.int64) for i in s_idx])
                if ttfs_s.sum() else np.empty(0, np.int64)
            )
            bflat = (
                np.concatenate([np.asarray(bpos[i], np.int64) for i in s_idx])
                if btfs_s.sum() else np.empty(0, np.int64)
            )
            tpos_blobs = codec.varbyte_encode_slices(
                codec.delta_concat(tflat, ttfs_s), ttfs_s
            )
            bpos_blobs = codec.varbyte_encode_slices(
                codec.delta_concat(bflat, btfs_s), btfs_s
            )
            for j, i in enumerate(s_idx):
                term = str(terms_np[i])
                rows["term"].append(term)
                rows["df_run"].append(1)
                rows["min_doc"].append(int(docs_np[i]))
                rows["max_doc"].append(int(docs_np[i]))
                rows["ub_run"].append(float(all_ratio[i]))
                rows["doc_gaps"].append(gap_blobs[j])
                rows["title_tfs"].append(ttf_blobs[j])
                rows["body_tfs"].append(btf_blobs[j])
                rows["title_pos"].append(tpos_blobs[j])
                rows["body_pos"].append(bpos_blobs[j])
                buckets.append(stable_hash63(term) % nb)
                out_shards.append(int(shards_np[i]))

        # --- general path: multi-doc runs, batch-encoded like the
        # singles (frame-wise delta + one sliced varbyte pass per
        # column instead of five codec calls per term)
        m_starts = starts[~single]
        m_ends = ends[~single]
        if m_starts.size:
            run_lens = (m_ends - m_starts).astype(np.int64)
            multi_mask = np.repeat(~single, sizes)
            rows_multi = np.flatnonzero(multi_mask)
            ids_all = docs_np[multi_mask]
            ttfs_all = all_ttf[multi_mask]
            btfs_all = all_btf[multi_mask]
            gap_blobs_m = codec.varbyte_encode_slices(
                codec.delta_concat(ids_all, run_lens), run_lens
            )
            ttf_blobs_m = codec.varbyte_encode_slices(
                ttfs_all.astype(np.uint64), run_lens
            )
            btf_blobs_m = codec.varbyte_encode_slices(
                btfs_all.astype(np.uint64), run_lens
            )
            tflat_all = (
                np.concatenate(
                    [np.asarray(tpos[i], np.int64) for i in rows_multi]
                )
                if ttfs_all.sum() else np.empty(0, np.int64)
            )
            bflat_all = (
                np.concatenate(
                    [np.asarray(bpos[i], np.int64) for i in rows_multi]
                )
                if btfs_all.sum() else np.empty(0, np.int64)
            )
            offs = np.concatenate(([0], np.cumsum(run_lens)))[:-1]
            tpos_counts = np.add.reduceat(ttfs_all, offs)
            bpos_counts = np.add.reduceat(btfs_all, offs)
            tpos_blobs_m = codec.varbyte_encode_slices(
                codec.delta_concat(tflat_all, ttfs_all), tpos_counts
            )
            bpos_blobs_m = codec.varbyte_encode_slices(
                codec.delta_concat(bflat_all, btfs_all), bpos_counts
            )
            ratio_multi = all_ratio[multi_mask]
            ub_m = np.maximum.reduceat(ratio_multi, offs)
            for j, s in enumerate(m_starts):
                term = str(terms_np[s])
                rows["term"].append(term)
                rows["df_run"].append(int(run_lens[j]))
                rows["min_doc"].append(int(docs_np[s]))
                rows["max_doc"].append(int(docs_np[m_ends[j] - 1]))
                rows["ub_run"].append(float(ub_m[j]))
                rows["doc_gaps"].append(gap_blobs_m[j])
                rows["title_tfs"].append(ttf_blobs_m[j])
                rows["body_tfs"].append(btf_blobs_m[j])
                rows["title_pos"].append(tpos_blobs_m[j])
                rows["body_pos"].append(bpos_blobs_m[j])
                buckets.append(stable_hash63(term) % nb)
                out_shards.append(int(shards_np[s]))
        run0 = int(docs_np[0] % (1 << 30))
        return _segment_table(
            rows, out_shards, buckets, [run0] * len(buckets), nb
        )


def compact_bucket(group: pa.Table, *, max_run_docs: int,
                   num_buckets: int) -> pa.Table:
    """``map_groups`` body for one (doc_shard, term-hash-bucket) group
    (``part_key``): merge each term's compressed runs into doc-sorted
    runs of ≤ ``max_run_docs`` docs.

    Single-run terms (the Zipf tail — the vast majority) pass through
    untouched.  For multi-run terms only doc-id gaps and tf arrays are
    decoded; per-doc POSITION payloads are never decoded — within-doc
    deltas are invariant under doc reordering, so position runs are
    spliced at byte level (``codec.varbyte_slice_points``)."""
    if group.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    terms_np = np.asarray(group["term"])
    order = np.argsort(terms_np, kind="stable")
    terms_np = terms_np[order]
    new_term = np.ones(len(terms_np), dtype=bool)
    new_term[1:] = terms_np[1:] != terms_np[:-1]
    starts = np.flatnonzero(new_term)
    ends = np.concatenate((starts[1:], [len(terms_np)]))

    passthrough_idx = []
    rows = {k: [] for k in ("term", "df_run", "min_doc", "max_doc",
                            "ub_run", "doc_gaps", "title_tfs",
                            "body_tfs", "title_pos", "body_pos")}
    buckets, runs, shards = [], [], []
    ub_runs_np = group["ub_run"].to_numpy(zero_copy_only=False)
    bucket = int(group["bucket"][0].as_py())
    doc_shard = int(group["doc_shard"][0].as_py())

    gap_blobs = group["doc_gaps"].to_pylist()
    ttf_blobs = group["title_tfs"].to_pylist()
    btf_blobs = group["body_tfs"].to_pylist()
    tpos_blobs = group["title_pos"].to_pylist()
    bpos_blobs = group["body_pos"].to_pylist()

    for s, e in zip(starts, ends):
        idxs = order[s:e]
        if e - s == 1:
            passthrough_idx.append(int(idxs[0]))
            continue
        term = str(terms_np[s])
        ids_parts, ttf_parts, btf_parts = [], [], []
        tpos_pieces: list[bytes] = []  # per-doc byte slices, run order
        bpos_pieces: list[bytes] = []
        for i in idxs:
            i = int(i)
            ids = codec.decode_sorted(gap_blobs[i])
            ttfs = codec.varbyte_decode(ttf_blobs[i]).astype(np.int64)
            btfs = codec.varbyte_decode(btf_blobs[i]).astype(np.int64)
            ids_parts.append(ids)
            ttf_parts.append(ttfs)
            btf_parts.append(btfs)
            tb = tpos_blobs[i]
            bb = bpos_blobs[i]
            tcuts = codec.varbyte_slice_points(tb, ttfs)
            bcuts = codec.varbyte_slice_points(bb, btfs)
            tpos_pieces.extend(
                tb[tcuts[j]:tcuts[j + 1]] for j in range(len(ids))
            )
            bpos_pieces.extend(
                bb[bcuts[j]:bcuts[j + 1]] for j in range(len(ids))
            )
        ids = np.concatenate(ids_parts)
        sort = np.argsort(ids, kind="stable")
        ids = ids[sort]
        ttfs = np.concatenate(ttf_parts)[sort]
        btfs = np.concatenate(btf_parts)[sort]
        # merged-run bound: max of the source runs' bounds (conservative
        # — rank-safe; exact per-chunk bounds would need per-doc tfMax)
        ub_merged = float(ub_runs_np[idxs].max())
        # chunk into bounded runs; positions are byte-spliced per doc
        for chunk, cs in enumerate(range(0, len(ids), max_run_docs)):
            ce = min(cs + max_run_docs, len(ids))
            sel = sort[cs:ce]
            rows["term"].append(term)
            rows["df_run"].append(int(ce - cs))
            rows["min_doc"].append(int(ids[cs]))
            rows["max_doc"].append(int(ids[ce - 1]))
            rows["ub_run"].append(ub_merged)
            rows["doc_gaps"].append(codec.encode_sorted(ids[cs:ce]))
            rows["title_tfs"].append(
                codec.varbyte_encode(ttfs[cs:ce].astype(np.uint64))
            )
            rows["body_tfs"].append(
                codec.varbyte_encode(btfs[cs:ce].astype(np.uint64))
            )
            rows["title_pos"].append(
                b"".join(tpos_pieces[j] for j in sel)
            )
            rows["body_pos"].append(
                b"".join(bpos_pieces[j] for j in sel)
            )
            buckets.append(bucket)
            runs.append(chunk)
            shards.append(doc_shard)

    merged = _segment_table(rows, shards, buckets, runs, num_buckets)
    if passthrough_idx:
        kept = group.take(pa.array(passthrough_idx, type=pa.int64()))
        kept = kept.select([f.name for f in SEGMENT_SCHEMA])
        kept = kept.cast(SEGMENT_SCHEMA)
        merged = (
            pa.concat_tables([kept, merged]) if merged.num_rows else kept
        )
    return merged


class ForwardRows(PostingExtractor):
    """Stage: documents block → forward-index rows ``(doc_id, terms,
    title_tfs, body_tfs, tf_max)`` — entirely DOC-LOCAL (no shuffle:
    a document's term list is known the moment it is tokenized).

    This replaces the earlier derivation that exploded the compressed
    segments (decode + term-bucket shuffle + doc-bucket shuffle): the
    cost here is one extra tokenize pass over extracted docs (cheap —
    the stem memo is hot), and the build saves two full-posting-volume
    shuffles.  Docs with zero surviving terms are dropped (the
    reference counts only docs with ≥1 term, ``InvertedIndex.java:72``).
    Term lists are sorted for deterministic artifacts.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        titles = batch["title"].to_pylist()
        texts = batch["text"].to_pylist()
        out_ids: list[int] = []
        terms_flat: list[str] = []
        ttf_flat: list[int] = []
        btf_flat: list[int] = []
        offsets: list[int] = [0]
        tf_max: list[int] = []
        for doc_id, title, text in zip(doc_ids, titles, texts):
            acc: dict[str, list[int]] = {}
            for t in self._analyze(title):
                e = acc.get(t)
                if e is None:
                    acc[t] = [1, 0]
                else:
                    e[0] += 1
            for t in self._analyze(text):
                e = acc.get(t)
                if e is None:
                    acc[t] = [0, 1]
                else:
                    e[1] += 1
            if not acc:
                continue
            out_ids.append(int(doc_id))
            m = 0
            for term in sorted(acc):
                tt, bt = acc[term]
                terms_flat.append(term)
                ttf_flat.append(tt)
                btf_flat.append(bt)
                m = max(m, tt + bt)
            tf_max.append(m)
            offsets.append(len(terms_flat))
        off = pa.array(np.asarray(offsets, dtype=np.int32), type=pa.int32())
        return pa.table(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "terms": pa.ListArray.from_arrays(
                    off, pa.array(terms_flat, type=pa.string())
                ),
                "title_tfs": pa.ListArray.from_arrays(
                    off, pa.array(ttf_flat, type=pa.int64())
                ),
                "body_tfs": pa.ListArray.from_arrays(
                    off, pa.array(btf_flat, type=pa.int64())
                ),
                "tf_max": pa.array(tf_max, type=pa.int64()),
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


#: per-worker term → md5-hash memo for the docstats df lookup
_DF_HASH_MEMO: dict[str, int] = {}


def md5_hash64(terms) -> np.ndarray:
    """uint64 md5-prefix hash per term (the docstats df-lookup key).
    Run inside the lexicon bucket tasks so the hashing parallelizes
    with the build instead of serializing on the driver."""
    import hashlib

    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
            for t in terms
        ),
        dtype=np.uint64,
        count=len(terms),
    )


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


def doc_stats_batch(batch: pa.Table, *, n_docs: int, df_ref) -> pa.Table:
    """Forward rows → ``(doc_id, tf_max, doc_len_norm)``.

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
    import pyarrow.compute as pc

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
        memo = _DF_HASH_MEMO
        uh = np.empty(len(uniq), dtype=np.uint64)
        for i, t in enumerate(uniq):
            h = memo.get(t)
            if h is None:
                h = int.from_bytes(
                    __import__("hashlib").md5(t.encode()).digest()[:8], "big"
                )
                if len(memo) < 1 << 20:
                    memo[t] = h
            uh[i] = h
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
        }
    )
