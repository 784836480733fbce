"""Query engine over the built index artifacts.

Reproduces the reference search path exactly (``Indexer.search``,
``Indexer.java:243-284`` + ``InvertedIndex.java:97-173`` +
``PostingIndex.java:184-247``):

- query words are stemmed with the same stop-stem pipeline; terms
  missing from the lexicon contribute nothing (df=0 → empty map,
  ``InvertedIndex.java:115-117``);
- per-term partial score = ``(0.9·title_tf + 0.1·body_tf) ·
  log10(N/df) / tfMax(doc)``; per-doc scores are summed across query
  terms (OR semantics) and divided by the precomputed cosine doc
  length (``doc_len_norm``; the reference recomputes it per query —
  same value).  A degenerate corpus (all idf = 0) yields NaN scores,
  as in the reference;
- phrase filtering is the non-associative left-fold positional
  intersection, per field (``PostingIndex.mergePhrase``), applied as a
  semi-join on the scored candidates;
- top-k uses the deterministic tie-break (score desc, doc_id asc) —
  the reference's tie order is HashMap-nondeterministic, so rank
  groups (not tie order) are the conformance surface (SURVEY.md §2.6);
- hydration (title, url, last_modified, page_size, top-5 keywords,
  parent/child links — ``Indexer.buildSearchResult``,
  ``Indexer.java:194-231``) looks up only the k result rows, by
  ``doc_id``, in a store of the hydration columns (extracted's page
  columns, links and forward lists) that a Searcher loads on its first
  hydrated query (the reference's keyed point lookups).

Scale note (10^12 docs): a shard ``Searcher`` reads ONLY its
``docstats/doc_shard=<s>`` partition (per-actor doc state scales
1/shards), keeps the lexicon as sorted Arrow arrays with binary-search
lookup (no vocabulary-sized Python dict), and reads a term's posting
runs via bucket-pruned parquet, decoding its postings at most once per
Searcher (a phrase term's runs once more, for its positions).
Searchers shard by ``doc_id`` behind a scatter-gather
(``ShardedSearcher``); its ``batch_search`` is the one batch query
path: the caller sends one ``search_many`` RPC per shard actor and
merges every shard's top-k once (an unsharded index is the one-shard
case).

The reader speaks the layout ``build_index`` writes (``format_version``
9): a ``bucket=``-partitioned lexicon with ``ub_adj``, ``n_tokens`` in
docstats plus ``docstats/_STATS.json``, and ``doc_shard=`` partitions
of extracted, segments and docstats (``doc_shard=0`` alone when
``doc_shards == 1``).  Page columns, link edges and each page's
forward lists (``terms, title_tfs, body_tfs, tf_max``) are read from
extracted; there is no separate page-metadata, edge or forward table.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.functions.tokenize import stemmer, tokenize
from web_based_search_engine_ray.stages import postings as seg
from web_based_search_engine_ray.stages.extract import link_edges


def _load_cfg(d: dict) -> IndexConfig:
    """Config load that ignores keys of other code versions; the
    readers then refuse an index whose semantic key is not this
    config's (:meth:`IndexConfig.check_index`)."""
    import dataclasses

    known = {f.name for f in dataclasses.fields(IndexConfig)}
    return IndexConfig(**{k: v for k, v in d.items() if k in known})


class Searcher:
    """Loads the small artifacts once (lexicon, docstats, meta); posting
    runs are filtered parquet reads; hydration rows come from a store
    loaded on the first :meth:`hydrate`.

    Every query word goes through one term path: :meth:`stem_query_word`
    (the process's memoized stemmer, shared with the index build) and
    :meth:`_terms` (lexicon df and upper bound, sorted and distinct).
    A term's runs (:meth:`_runs`) decode through ``stages.postings``,
    the segment format's one reader.  Each stem's lexicon entry and
    everything decoded from its runs (postings, phrase keys, partials,
    WAND views) live in one admission-only decode cache
    (:meth:`_cached`); the lexicon buckets keep their own byte budget,
    so decoded postings cannot crowd them out."""

    #: max entries of the decode cache (five kinds per term: lexicon
    #: entry, postings, phrase keys, partials, WAND view); the Zipfian
    #: query distribution makes even a small cache very effective
    CACHE_TERMS = 5 * 65536
    #: byte budget of the decode cache — a count-only cap would let a
    #: handful of web-scale Zipf-head posting lists exhaust the actor
    #: heap
    CACHE_BYTES = 512 * 1024 * 1024
    #: df / shard-size ratio above which a term's cached partial also
    #: keeps a dense (values, mask) image for streaming accumulation
    #: (see :meth:`_densify_partial`); below it the sparse scatter is
    #: cheaper and the dense image would waste cache bytes
    DENSE_PARTIAL_FRAC = 0.25
    #: BM25 parameters (the ``mode="bm25"`` engine extension; the
    #: reference-conformant TF-IDF stays the default scorer)
    BM25_K1 = 1.2
    BM25_B = 0.75

    def __init__(self, index_dir: str, doc_shard: int | None = None):
        """``doc_shard``: restrict scoring/phrase state to one document
        shard (doc-partitioned index, ``IndexConfig.doc_shards``) — the
        per-node deployment unit at web scale.  ``None`` = whole index.
        Global statistics (lexicon df, N) are always loaded in full;
        only postings + doc stats are shard-local."""
        self.index_dir = index_dir
        self.doc_shard = doc_shard
        meta = fsio.read_json(os.path.join(index_dir, "meta.json"))
        self.n_docs: int = meta["n_docs"]
        self.cfg = _load_cfg(meta["config"])
        self.cfg.check_index(meta, index_dir, "Searcher")
        #: the decode cache, keyed by ``(kind, bm25, term)`` with
        #: ``bm25=None`` for the scorer-independent kinds
        self._cache: dict[tuple, tuple | None] = {}
        self._cache_bytes = 0
        #: segment runs read and decoded, counted per read (a term's
        #: postings read, and a phrase term's positions read); every
        #: read decodes all its runs, so the two counts are equal
        self.run_stats = {"considered": 0, "decoded": 0}
        #: reusable dense scoring buffers (allocated on first query)
        self._acc: np.ndarray | None = None
        self._touched: np.ndarray | None = None

        # Lexicon: LAZY per-term-hash-bucket load.  The build writes
        # lexicon/bucket=N/ (same bucketing as segments), so a query
        # term's entry is found by loading only its bucket — sorted
        # Arrow arrays + binary search, admitted to a byte-budgeted
        # cache.  Actor RSS is therefore independent of the total
        # vocabulary (a web-scale vocab held eagerly is tens of GB per
        # actor).
        self._d_lex = os.path.join(index_dir, "lexicon")
        self._lex_cache: dict[int, tuple] = {}
        self._lex_cache_bytes = 0

        # docstats: shard Searchers read ONLY their docstats/doc_shard=<s>/
        # partition.  A shard that got no documents holds a typed empty
        # file and loads zero rows.
        d_stats = os.path.join(index_dir, "docstats")
        src = (
            d_stats if doc_shard is None
            else os.path.join(d_stats, f"doc_shard={doc_shard}")
        )
        stat_cols = ["doc_id", "tf_max", "doc_len_norm", "n_tokens"]
        stats = pads.dataset(src, format="parquet").to_table(
            columns=stat_cols
        ).sort_by("doc_id")
        ids, tf_max, norm, n_tokens = (
            stats[c].to_numpy(zero_copy_only=False) for c in stat_cols
        )
        self._n_tokens = n_tokens.astype(np.float64)
        # corpus-global average doc length (BM25 avgdl), written by the
        # build
        gs = fsio.read_json(os.path.join(d_stats, "_STATS.json"))
        self.avgdl = gs["total_tokens"] / max(1, gs["n_docs"])
        self._stat_ids = ids
        self._tf_max = tf_max.astype(np.float64)
        self._norm = norm
        nz = self._norm[self._norm > 0]
        self._min_norm = float(nz.min()) if nz.size else 0.0
        # degenerate norms (NaN-score corpus) make bounds meaningless
        self._can_prune = (
            self._min_norm > 0 and nz.size == self._norm.size
        )

        self._segments = pads.dataset(
            os.path.join(index_dir, "segments"),
            format="parquet",
            partitioning="hive",
        )
        #: hydration rows, loaded by the first :meth:`hydrate`
        self._hydrate_store: _HydrateStore | None = None

    # ------------------------------------------------------------------ utils
    #: byte budget for cached lexicon buckets (admission-controlled
    #: like the posting decode caches)
    LEX_CACHE_BYTES = 256 * 1024 * 1024

    def _lex_bucket(self, b: int):
        """(sorted term Arrow array, df np, ub np) of one lexicon
        bucket — loaded on first touch, cached within the byte budget."""
        hit = self._lex_cache.get(b)
        if hit is not None:
            return hit
        t = pads.dataset(
            os.path.join(self._d_lex, f"bucket={b}"), format="parquet"
        ).to_table(columns=["term", "df", "ub_adj"]).sort_by("term")
        out = (
            t["term"].combine_chunks(),
            t["df"].to_numpy(zero_copy_only=False),
            t["ub_adj"].to_numpy(zero_copy_only=False),
        )
        nbytes = out[0].nbytes + out[1].nbytes + out[2].nbytes
        if self._lex_cache_bytes + nbytes <= self.LEX_CACHE_BYTES:
            self._lex_cache[b] = out
            self._lex_cache_bytes += nbytes
        return out

    def _lex_entry(self, term: str) -> tuple[int, float] | None:
        """(df, ub_adj) for a term, or None if absent; memoized."""
        return self._cached(("lex", None, term), self._lex_lookup, term)

    def _lex_lookup(self, term: str) -> tuple[int, float] | None:
        """Uncached :meth:`_lex_entry`: touches only the term's bucket."""
        arr, dfs, ubs = self._lex_bucket(self._bucket(term))
        lo, hi = 0, len(arr)
        while lo < hi:
            mid = (lo + hi) // 2
            if arr[mid].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(arr) and arr[lo].as_py() == term:
            return int(dfs[lo]), float(ubs[lo])
        return None

    def stem_query_word(self, word: str) -> str | None:
        return stemmer(self.cfg.use_stopwords, self.cfg.use_stemming)(word)

    def _terms(self, words) -> list[tuple[str, int, float]]:
        """The distinct stems of ``words`` found in the lexicon, as
        sorted ``(term, df, ub_adj)``: sorted so that every scorer folds
        a doc's partials in one order (set iteration is hash-salted per
        process; fp addition is order-sensitive)."""
        out = []
        for t in sorted({t for t in map(self.stem_query_word, words) if t}):
            e = self._lex_entry(t)
            if e is not None and e[0] > 0:
                out.append((t, *e))
        return out

    def _bucket(self, term: str) -> int:
        return int(seg.term_buckets([term], self.cfg.num_buckets)[0])

    def _runs(self, term: str, extra_columns: tuple = ()) -> pa.Table:
        """Every segment run of ``term`` in this Searcher's shard, with
        the columns ``decode_runs`` reads plus ``extra_columns``; each
        read is counted in ``run_stats``."""
        flt = ((pc.field("bucket") == self._bucket(term))
               & (pc.field("term") == term))
        if self.doc_shard is not None:
            flt = flt & (pc.field("doc_shard") == self.doc_shard)
        t = self._segments.to_table(
            columns=["df_run", "doc_gaps", "title_tfs", "body_tfs",
                     *extra_columns],
            filter=flt,
        )
        self.run_stats["considered"] += t.num_rows
        self.run_stats["decoded"] += t.num_rows
        return t

    def _cached(self, key: tuple, build, *args):
        """The decode cache's entry for ``key``, else ``build(*args)``,
        admitted only within the count AND byte budgets (no eviction —
        admission control keeps hot Zipf terms that arrived first)."""
        if key in self._cache:
            return self._cache[key]
        out = build(*args)
        nbytes = (
            sum(a.nbytes for a in out if isinstance(a, np.ndarray))
            if out else 0
        )
        if (len(self._cache) < self.CACHE_TERMS
                and self._cache_bytes + nbytes <= self.CACHE_BYTES):
            self._cache[key] = out
            self._cache_bytes += nbytes
        return out

    def postings(self, term: str):
        """Merged runs → (doc_ids, title_tfs, body_tfs), doc-sorted.
        Decoded arrays are cached per term (bounded)."""
        return self._cached(("postings", None, term),
                            self._postings_uncached, term)

    def _postings_uncached(self, term: str):
        """Every run of ``term`` (they hold disjoint docs) decoded and
        merged into doc order."""
        t = self._runs(term)
        if t.num_rows == 0:
            return None
        ids, ttf, btf = seg.decode_runs(t)
        if t.num_rows > 1:
            order = np.argsort(ids, kind="stable")
            ids, ttf, btf = ids[order], ttf[order], btf[order]
        return ids, ttf, btf

    #: bits reserved for the in-document position in a phrase key
    POS_BITS = seg.POS_BITS

    def postings_with_positions(self, term: str):
        """Phrase-match representation of a term's postings: a pair of
        sorted int64 key arrays (title_keys, body_keys) with
        ``key = doc_ordinal << POS_BITS | position`` (doc ordinal =
        index into the sorted docstats ids).  The non-associative
        left-fold intersection then runs entirely as vectorized
        ``np.intersect1d`` over sorted keys — advancing the prefix's
        positions by +1 is literally ``keys + 1``.  Cached per term."""
        return self._cached(("positions", None, term),
                            self._positions_uncached, term)

    def _positions_uncached(self, term: str):
        """Its own read of the runs: a second filtered read need not
        return them in the cached postings' row order."""
        t = self._runs(term, ("title_pos", "body_pos"))
        if t.num_rows == 0:
            return None
        ids, ttfs, btfs = seg.decode_runs(t)
        tflat = seg.decode_positions(t["title_pos"], ttfs)
        bflat = seg.decode_positions(t["body_pos"], btfs)
        top = max(tflat.max(initial=0), bflat.max(initial=0))
        if top >= (1 << self.POS_BITS) - 1:
            raise ValueError(f"document position exceeds 2^{self.POS_BITS}")
        shift = np.int64(self.POS_BITS)
        ordinals = np.searchsorted(self._stat_ids, ids)
        tkeys = (np.repeat(ordinals, ttfs) << shift) | tflat
        bkeys = (np.repeat(ordinals, btfs) << shift) | bflat
        if t.num_rows > 1:
            tkeys.sort()
            bkeys.sort()
        return tkeys, bkeys

    # ------------------------------------------------------------------ score
    def _densify_partial(self, ids, partial, pos):
        """Partial tuple → 5-tuple, adding a dense (values, mask) pair
        when the term touches a large fraction of the shard.  For such
        terms the OR-merge's scatter ``acc[pos] += partial`` is random
        access over nearly the whole accumulator; a streaming
        ``acc += dense`` (zeros elsewhere) is ~7× cheaper at 225k-doc
        shards and fp-EXACT: partials are ≥ 0 and ``x + 0.0 == x``
        bit-for-bit, and the candidate set stays exact via the bool
        mask (``touched |= mask``)."""
        n_stat = len(self._stat_ids)
        if len(pos) < self.DENSE_PARTIAL_FRAC * n_stat:
            return (ids, partial, pos, None, None)
        dense = np.zeros(n_stat, dtype=np.float64)
        dense[pos] = partial
        mask = np.zeros(n_stat, dtype=bool)
        mask[pos] = True
        # the sparse triple is never read once a dense image exists
        # (every reader uses dense/mask when tp[3] is not None) —
        # dropping it keeps the byte-budgeted cache from paying ~1.7x
        # per densified term
        return (None, None, None, dense, mask)

    def _partial(self, ids, ttf, btf, df: int, bm25: bool):
        """Per-term partial scores of decoded postings → (partials, doc
        ordinals), computed once per term and scorer for
        :meth:`_term_partial`, which every scoring path (TAAT, the
        MaxScore restricted phase, WAND views) reads.

        Reference TF-IDF: ``(0.9·title_tf + 0.1·body_tf) · idf / tfMax``.
        BM25: Robertson idf, k1/b length normalization over the raw
        token count |d| and corpus avgdl; the arithmetic association
        (``num`` first — multiply is non-associative) mirrors the SQL
        oracle exactly."""
        pos = np.searchsorted(self._stat_ids, ids)
        idf = self._idf(df, bm25)
        if bm25:
            tf = (ttf + btf).astype(np.float64)
            K = self.BM25_K1 * (
                1.0 - self.BM25_B
                + self.BM25_B * self._n_tokens[pos] / self.avgdl
            )
            num = tf * (self.BM25_K1 + 1.0)
            return idf * num / (tf + K), pos
        a = self.cfg.title_weight
        adj = a * ttf + (1.0 - a) * btf
        return adj * idf / self._tf_max[pos], pos

    def _idf(self, df: int, bm25: bool) -> float:
        """Reference ``log10(N/df)``, or BM25's Robertson idf."""
        if bm25:
            return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
        return math.log10(self.n_docs / df)

    def _term_partial(self, term: str, df: int, bm25: bool = False):
        """Decode a term's postings → (doc_ids, partial scores, doc
        ordinals, dense values|None, dense mask|None).  The partial
        scores depend only on the index (idf, tfMax / doc length), so
        the fully computed arrays are cached per term and scorer."""
        return self._cached(("partial", bm25, term), self._partial_uncached,
                            term, df, bm25)

    def _partial_uncached(self, term: str, df: int, bm25: bool):
        p = self.postings(term)
        if p is None:
            return None
        return self._densify_partial(p[0], *self._partial(*p, df, bm25))

    def _partial_for_candidates(self, term: str, df: int,
                                touched: np.ndarray, *, bm25: bool = False):
        """The MaxScore restricted phase's read: the term's cached
        partial (:meth:`_term_partial`) restricted to the candidate
        docs (``touched``, a mask over the shard's doc ordinals), as
        ``(doc ordinals, partials)`` to add to the accumulator, or None
        when the term has no postings here."""
        tp = self._term_partial(term, df, bm25)
        if tp is None:
            return None
        if tp[3] is not None:
            pos = np.flatnonzero(tp[4] & touched)
            return pos, tp[3][pos]
        _ids, partial, pos = tp[:3]
        hit = touched[pos]
        return pos[hit], partial[hit]

    def scores_arrays(self, words, k: int | None = None,
                      prune: bool = False, mode: str = "ref"):
        """``InvertedIndex.getScores`` (OR-merge + cosine normalization)
        returning ``(doc_ids, scores)`` numpy arrays.

        ``prune=True`` (requires ``k``) enables rank-safe MaxScore
        pruning (Turtle & Flood-style TAAT): terms are processed in
        sorted-term order, the exhaustive path's order, so every
        returned score is bitwise equal to it; once the k-th best provisional
        score θ exceeds what the remaining terms could give ANY unseen
        doc (Σ remaining ub / min corpus norm), remaining terms only
        update existing candidates (:meth:`_partial_for_candidates`),
        which keeps the top-k selection small.  Every term's partial is
        read through the decode cache either way.  Scores of every
        returned doc are exact, and the true top-k is
        never pruned; docs outside the top-k may be absent, so pruning
        is only used for plain top-k queries (not phrase semi-joins,
        not full score dumps)."""
        entries = self._terms(words)
        if not entries:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        bm25 = mode == "bm25"
        # MaxScore is rank-safe in both modes; the reference scorer's
        # bound needs well-formed norms, bm25's bound is closed-form
        # (idf·(k1+1), the tf-saturation limit — every bm25 partial is
        # positive, no norm division)
        prune = bool(prune and k) and (bm25 or self._can_prune)

        if prune:
            # bm25: idf·(k1+1), since sup over tf of tf(k1+1)/(tf+K) is
            # k1+1; reference: idf × max(adjTF/tfMax), the most this
            # term adds to any doc
            ubs = [self._idf(df, bm25) * (self.BM25_K1 + 1.0 if bm25 else u)
                   for _t, df, u in entries]
            # remaining[i] = fold of ubs[i:] in TERM-PROCESSING order
            # (sorted terms, the exhaustive path's order, so both paths
            # sum each doc's partials identically):
            # fp addition is monotone (a<=a', b<=b' => fl(a+b) <=
            # fl(a'+b')) but NOT associative, so the bound must fold
            # the same way the accumulator does — a reversed cumsum can
            # land an ulp BELOW the forward fold and prune a true
            # top-k doc (same hazard the WAND pivot fold refolds for)
            remaining = np.empty(len(ubs), dtype=np.float64)
            for i in range(len(ubs)):
                s = 0.0
                for v in ubs[i:]:
                    s += v
                remaining[i] = s

        # Dense per-shard accumulation: every doc has an ordinal into
        # the (sorted) docstats arrays, so the OR-merge is fancy-index
        # adds into a reusable accumulator + touched mask instead of an
        # O(C log C) np.unique sort per query (30× at web-scale
        # candidate counts).  Per-doc fp summation order (sorted-term
        # processing) is unchanged.
        n_stat = len(self._stat_ids)
        if self._acc is None or len(self._acc) != n_stat:
            self._acc = np.zeros(n_stat, dtype=np.float64)
            self._touched = np.zeros(n_stat, dtype=bool)
        acc, touched = self._acc, self._touched
        n_cand = 0
        restricted = False
        if prune:
            # Restricting saves no decode: both phases read the term's
            # cached partial.  It only keeps non-candidates out of the
            # top-k input, and masking a partial costs more than adding
            # it.  The θ check scans the touched mask and partitions the
            # candidates' provisional scores, so it runs only while some
            # term >= i is not cached yet (uncached_suffix[i]): a query
            # whose terms are all cached pays nothing for prune=True.
            uncached_suffix = [False] * (len(entries) + 1)
            for j in range(len(entries) - 1, -1, -1):
                uncached_suffix[j] = (
                    uncached_suffix[j + 1]
                    or ("partial", bm25, entries[j][0]) not in self._cache
                )
        try:
            for i, (term, df, _u) in enumerate(entries):
                if (prune and not restricted and n_cand >= k
                        and uncached_suffix[i]):
                    cand_pos = np.flatnonzero(touched)
                    if bm25:
                        provisional = acc[cand_pos]
                        unseen_best = remaining[i]
                    else:
                        provisional = acc[cand_pos] / self._norm[cand_pos]
                        unseen_best = remaining[i] / self._min_norm
                    theta = np.partition(
                        provisional, len(provisional) - k
                    )[len(provisional) - k]
                    if unseen_best < theta:
                        restricted = True
                if restricted:
                    # exact update of existing candidates only
                    part = self._partial_for_candidates(term, df, touched,
                                                        bm25=bm25)
                    if part is not None:
                        pos, partial = part
                        acc[pos] += partial
                else:
                    tp = self._term_partial(term, df, bm25)
                    if tp is None:
                        continue
                    if tp[3] is not None:
                        np.add(acc, tp[3], out=acc)
                        np.logical_or(touched, tp[4], out=touched)
                    else:
                        _ids, partial, pos = tp[:3]
                        acc[pos] += partial
                        touched[pos] = True
                    n_cand = int(touched.sum()) if prune else n_cand
            final_pos = np.flatnonzero(touched)
            if not len(final_pos):
                return (np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.float64))
            if bm25:
                final = acc[final_pos].copy()
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    final = acc[final_pos] / self._norm[final_pos]
            return self._stat_ids[final_pos], final
        finally:
            # reset the reusable buffers (O(candidates), not O(corpus))
            reset = np.flatnonzero(touched)
            acc[reset] = 0.0
            touched[reset] = False

    #: posting-entries per block for the WAND traversal's block maxima
    WAND_BLOCK = 1024

    def scores_topk_wand(self, words, k: int, mode: str = "ref"):
        """DAAT **Block-Max WAND** top-k with a bounded min-heap — the
        north-star traversal (Broder et al. WAND; Ding & Suel
        block-max), walked by the compiled kernel
        (``data/wand_kernel.c`` via ``stages.cwand.wand_topk_c``) over
        the decoded per-term partial arrays: document-at-a-time
        cursors, pivot selection by cumulative term upper bounds, a
        per-block maximum refinement before full evaluation, and a
        k-bounded min-heap whose root is the pruning threshold θ.

        Exactness / rank identity with the TAAT engine
        (:meth:`scores_arrays` + ``_topk_indices``):

        - per-doc score is the SAME left fold in sorted-term order over
          the SAME cached partials, so equal docs produce bitwise-equal
          floats on both paths;
        - bounds are sums of per-term (or per-block) maxima folded in
          the same term order, ≥ the true fold by IEEE rounding
          monotonicity, so a skip is always rank-safe;
        - the heap orders by ``(score, -doc_id)`` — exactly the
          ``(score desc, doc asc)`` tie-break of ``_topk_indices``;
          a candidate is skipped only when its upper-bound KEY is
          strictly below the root's key, so boundary ties resolve
          identically.

        Falls back to the exhaustive scorer + exact top-k (same
        results, no pruning) when the kernel declines (no C compiler,
        more than ``cwand.MAX_TERMS`` terms or ``cwand.MAX_K``
        results) and on degenerate-norm corpora (the reference's NaN
        case), which have no usable bounds.
        """
        from web_based_search_engine_ray.stages.cwand import wand_topk_c

        if not k or k <= 0:
            raise ValueError("scores_topk_wand needs k >= 1")
        empty = (np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.float64))
        entries = self._terms(words)
        if not entries:
            return empty
        bm25 = mode == "bm25"
        if not bm25 and not self._can_prune:
            return self._taat_topk(words, k, mode)

        # per-term WAND view (doc_ids, partials, block_max, term_ub) in
        # term order, cached once: densified partials are exactly the
        # Zipf-head terms WAND queries hit, and re-sparsifying them (two
        # O(df) fancy-index copies) plus the block-max reduceat on EVERY
        # query would dwarf the walk itself
        lists = [
            v for term, df, _u in entries
            if (v := self._cached(("wand", bm25, term), self._wand_view,
                                  term, df, bm25)) is not None
        ]
        if not lists:
            return empty
        got = wand_topk_c(
            lists, bs=self.WAND_BLOCK, bm25=bm25,
            inv_norm_bound=1.0 if bm25 else 1.0 / self._min_norm,
            stat_ids=self._stat_ids, norm=self._norm, k=k,
        )
        return got if got is not None else self._taat_topk(words, k, mode)

    def _wand_view(self, term: str, df: int, bm25: bool):
        """A term's cached partials (dense images re-sparsified) with
        their per-``WAND_BLOCK`` maxima and overall maximum."""
        tp = self._term_partial(term, df, bm25)
        if tp is None:
            return None
        if tp[3] is not None:
            ids, part = self._stat_ids[tp[4]], tp[3][tp[4]]
        else:
            ids, part = tp[0], tp[1]
        if not len(ids):
            return None
        bmax = np.maximum.reduceat(part, np.arange(0, len(ids),
                                                   self.WAND_BLOCK))
        return ids, part, bmax, float(part.max())

    def _taat_topk(self, words, k: int, mode: str):
        """Exhaustive scoring + exact top-k: WAND's fallback."""
        ids, vals = self.scores_arrays(words, k=k, prune=False, mode=mode)
        top = _topk_indices(ids, vals, k)
        return ids[top], vals[top]

    # ----------------------------------------------------------------- phrase
    def phrase_doc_array(self, phrase: list[str]) -> np.ndarray:
        """Positional phrase match per field (``PostingIndex.java:230-247``).
        The reference left-folds in query order — advance the prefix's
        position keys by +1, intersect with the next word's keys — and a
        doc survives while either field retains a position.  That fold
        keeps the starts ``s`` with ``s + i`` in word ``i``'s keys for
        every ``i``: an intersection, which any order gives.  So the
        words are taken rarest first (df from the cached
        :meth:`postings`; an absent word ends the match before any
        position is decoded), each step tests only the surviving starts,
        and the match stops at the first empty intersection.  Returns
        the SORTED doc-id array (vectorized membership tests)."""
        terms = [w for w in (self.stem_query_word(x) for x in phrase) if w]
        empty = np.empty(0, dtype=np.int64)
        if not terms:
            return empty
        df = {}
        for term in terms:
            if term not in df:
                p = self.postings(term)
                if p is None:
                    return empty
                df[term] = len(p[0])
        order = sorted(range(len(terms)), key=lambda i: df[terms[i]])
        # the surviving keys of the rarest word r, that is starts + r
        r = order[0]
        keys = self.postings_with_positions(terms[r])
        for i in order[1:]:
            keys = tuple(k[_in_sorted(k + (i - r), ki)] for k, ki in
                         zip(keys, self.postings_with_positions(terms[i])))
            if not keys[0].size and not keys[1].size:
                return empty
        ends = np.concatenate(keys)
        ends += len(terms) - 1 - r
        return self._stat_ids[np.unique(ends >> np.int64(self.POS_BITS))]

    #: cost-model constants for ``traversal="auto"`` (re-fit on
    #: shard-local volume at two Zipf scales; BASELINE.md "Traversal
    #: re-fit", after the round-5 taat/wand/auto history):
    #: WAND pays off only when the OR-candidate volume is large enough
    #: to beat TAAT's vectorized dense pass, the per-term upper bounds
    #: are skewed enough that the pivot walk can skip (a flat-df corpus
    #: — the synthetic 30-word vocabulary — prunes nothing), and k is
    #: small relative to the candidate volume (deep top-k keeps θ low).
    WAND_AUTO_MIN_VOLUME = 4096
    WAND_AUTO_SKEW = 4.0
    WAND_AUTO_K_FACTOR = 32

    def choose_traversal(self, words, k: int, mode: str = "ref") -> str:
        """Pick TAAT or Block-Max WAND for a plain top-k query from the
        lexicon dfs alone (no posting decode): both paths are
        rank-identical, so this is purely a cost decision, made on the
        shard-local volume (df × the shard's doc share)."""
        from web_based_search_engine_ray.stages.cwand import load_kernel

        if mode != "bm25" and not self._can_prune:
            return "taat"  # degenerate norms: WAND falls back anyway
        if load_kernel() is None:
            return "taat"  # no kernel: WAND falls back to TAAT anyway
        dfs = [df for _t, df, _u in self._terms(words)]
        if len(dfs) < 2:
            return "taat"  # single list: nothing to skip
        from web_based_search_engine_ray.stages import cwand

        if len(dfs) > cwand.MAX_TERMS or k > cwand.MAX_K:
            # over the compiled kernel's capacity scores_topk_wand
            # falls back to exhaustive TAAT after building its views
            return "taat"
        volume = sum(dfs) * len(self._stat_ids) / max(1, self.n_docs)
        if (
            volume >= self.WAND_AUTO_MIN_VOLUME
            and max(dfs) >= self.WAND_AUTO_SKEW * min(dfs)
            and k * self.WAND_AUTO_K_FACTOR <= volume
        ):
            return "wand"
        return "taat"

    # ------------------------------------------------------------------ query
    def search(
        self,
        words,
        phrase: list[str] | None = None,
        k: int | None = None,
        hydrate: bool = True,
        prune: bool = False,
        mode: str = "ref",
        traversal: str = "taat",
    ) -> pd.DataFrame:
        """``traversal="wand"`` routes plain top-k queries through the
        DAAT Block-Max WAND walk (:meth:`scores_topk_wand`, rank- and
        bitwise-identical); ``"auto"`` picks per query with the
        df-skew + k cost model (:meth:`choose_traversal`); phrase
        queries always use the TAAT path (the phrase semi-join needs
        the full OR-merge candidate set)."""
        if traversal not in ("taat", "wand", "auto"):
            raise ValueError(f"unknown traversal {traversal!r}")
        k = k if k is not None else self.cfg.max_results
        phrase = phrase or []
        if traversal == "auto":
            traversal = (
                self.choose_traversal(words, k, mode=mode)
                if not phrase and k else "taat"
            )
        if traversal == "wand" and not phrase and k:
            ids, vals = self.scores_topk_wand(words, k=k, mode=mode)
        else:
            # pruning is rank-safe only for a plain top-k (a phrase
            # semi-join could promote below-threshold docs into the
            # final top-k)
            ids, vals = self.scores_arrays(
                words, k=k, prune=prune and not phrase, mode=mode
            )
            if len(ids) and any(map(self.stem_query_word, phrase)):
                # vectorized sorted-membership semi-join
                mask = _in_sorted(ids, self.phrase_doc_array(phrase))
                ids, vals = ids[mask], vals[mask]
            top = _topk_indices(ids, vals, k)
            ids, vals = ids[top], vals[top]
        if not len(ids):
            return _empty_results(hydrate)
        # ids and vals are fresh (a fancy index or the kernel's output)
        df = pd.DataFrame({"doc_id": ids, "score": vals}, copy=False)
        return hydrated_frame(self.hydrate(df)) if hydrate else df

    def search_many(self, queries: list[str],
                    k: int | None = None) -> pd.DataFrame:
        """Batch form of :meth:`search` for shard fan-out: parse + score
        every query, returning one compact (query_id, doc_id, score)
        frame (no hydration).  One actor RPC per shard instead of one
        per (query, shard).  MaxScore pruning is on (it is rank-safe
        and off for phrase queries) and the traversal is the cost-based
        auto choice (also rank-safe)."""
        k = k if k is not None else self.cfg.max_results
        qids, dids, scs = [], [], []
        for qid, q in enumerate(queries):
            words, phrase = parse_query(q)
            res = self.search(words, phrase, k=k, hydrate=False,
                              prune=True, traversal="auto")
            n = len(res)
            if n:
                qids.extend([qid] * n)
                dids.extend(res["doc_id"].tolist())
                scs.extend(res["score"].tolist())
        return pd.DataFrame(
            {"query_id": qids, "doc_id": dids, "score": scs}
        )

    # --------------------------------------------------------------- hydrate
    def hydrate(self, results: pd.DataFrame) -> pa.Table:
        """``Indexer.buildSearchResult`` for the k result rows only, as
        one Arrow table: ``doc_id, score`` from ``results``, then the
        :class:`_HydrateStore` columns ``title, url, last_modified,
        page_size, keywords, parent_links, child_links, block_head,
        block_lm, block_tail``.  :func:`hydrated_frame` gives its pandas
        form.

        The store is loaded on the first call and kept for this
        Searcher's life, so a request is one ``np.searchsorted`` and one
        ``take`` and reads no file.  It also holds each doc's result
        block rendered once (:func:`result_blocks`).  Its memory is
        O(docs) for a Searcher that hydrates: about 1.5 KB/doc (7.44 MB
        Arrow + numpy, 470 B/doc of it without the blocks) on the
        5,000-doc indexes of both ``perfbench`` workloads.  Docs
        missing from extracted get the store's default row (``""``,
        null, ``0``, empty lists); a page with no kept term has no
        keywords."""
        if self._hydrate_store is None:
            self._hydrate_store = _HydrateStore(self.index_dir,
                                                self.cfg.max_keywords)
        return self._hydrate_store.rows(results)


class _HydrateStore:
    """The result-page columns of one index version as one table whose
    row ``i`` belongs to doc ``keys[i]`` (an int64 numpy array, sorted),
    plus one default row at the end for ids that have no page:

    - ``title, url, last_modified, page_size``: the extracted page's
      columns (default ``""``, ``""``, null, ``0``);
    - ``keywords``: the doc's top ``max_keywords`` ``(term, freq)``
      structs from the page's forward lists, by title+body freq desc,
      term asc (a fixed tie order: the reference's is
      HashMap-nondeterministic, ``SearchResult.java:33-44``) — Arrow
      sorts strings by UTF-8 bytes, which is the code-point order of
      Python's ``sort``;
    - ``child_links``: the sorted distinct ``dst_url`` of the page's
      link edges
      (:func:`~web_based_search_engine_ray.stages.extract.link_edges`);
    - ``parent_links``: the sorted distinct ``src_url`` of the edges
      whose ``dst_url`` is the page's url;
    - ``block_head, block_lm, block_tail``: the doc's result-page block
      but its score (:func:`result_blocks`), rendered here once per doc.

    The three list columns hold each doc's edges ⋈ pages and keyword
    rows pre-joined, so a request expands them for its k rows only.
    All of it comes from one read of ``extracted/``."""

    def __init__(self, index_dir: str, max_keywords: int):
        pages = pads.dataset(
            os.path.join(index_dir, "extracted"), format="parquet"
        ).to_table(columns=["doc_id", "url", "title", "page_size",
                            "last_modified", "links", "terms", "title_tfs",
                            "body_tfs"])
        edges = link_edges(pages)
        parents = edges.join(pages.select(["url", "doc_id"]),
                             keys="dst_url", right_keys="url",
                             join_type="inner")
        meta = pages.select(["doc_id", "url", "title", "page_size",
                             "last_modified"]).sort_by("doc_id")
        self.keys = meta["doc_id"].to_numpy()
        kw = _top_keywords(pages, max_keywords)
        child = _link_sets(edges, "src_doc_id", "dst_url")
        parent = _link_sets(parents, "doc_id", "src_url")

        def with_default(name: str, value) -> pa.Array:
            col = meta[name].combine_chunks()
            return pa.concat_arrays([col, pa.array([value], col.type)])

        def lists(rows: pa.Table, values: pa.Array) -> pa.Array:
            # rows: sorted by a doc_id column whose ids are all in keys
            starts = np.searchsorted(rows["doc_id"].to_numpy(), self.keys)
            offsets = np.concatenate((starts, [len(values)] * 2))
            return pa.LargeListArray.from_arrays(pa.array(offsets), values)

        self.table = pa.table({
            "title": with_default("title", ""),
            "url": with_default("url", ""),
            "last_modified": with_default("last_modified", None),
            "page_size": with_default("page_size", 0),
            "keywords": lists(kw, pa.StructArray.from_arrays(
                [kw["term"].combine_chunks(), kw["freq"].combine_chunks()],
                names=["term", "freq"])),
            "parent_links": lists(parent, parent["url"].combine_chunks()),
            "child_links": lists(child, child["url"].combine_chunks()),
        })
        for name, col in result_blocks(self.table).items():
            self.table = self.table.append_column(name, col)
        self.nbytes = self.table.nbytes + self.keys.nbytes

    def rows(self, results: pd.DataFrame) -> pa.Table:
        ids = np.asarray(results["doc_id"], dtype=np.int64)
        pos = np.searchsorted(self.keys, ids)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == ids[hit]
        rows = self.table.take(np.where(hit, pos, len(self.keys)))
        score = np.asarray(results["score"], dtype=np.float64)
        return rows.add_column(0, "doc_id", pa.array(ids)).add_column(
            1, "score", pa.array(score))


def hydrated_frame(rows: pa.Table) -> pd.DataFrame:
    """The pandas form of :meth:`Searcher.hydrate`'s rows, as the
    reference's row dicts give it: Python values per cell, so pandas
    infers each column's dtype (``last_modified`` holds ``None``
    objects when no row has a timestamp, as when every id lacks a page,
    and datetimes with ``NaT`` otherwise), keywords as ``(term, freq)``
    tuples and links as lists."""
    if not rows.num_rows:
        return _empty_results(True)
    kw = rows["keywords"].combine_chunks()
    flat = kw.flatten()
    pairs = list(zip(flat.field("term").to_pylist(),
                     flat.field("freq").to_pylist()))
    ends = np.cumsum(pc.list_value_length(kw).to_numpy()).tolist()
    lm = rows["last_modified"]
    return pd.DataFrame({
        "doc_id": rows["doc_id"].to_pylist(),
        "score": rows["score"].to_pylist(),
        "title": rows["title"].to_pylist(),
        "url": rows["url"].to_pylist(),
        "last_modified": (lm.to_pandas().tolist() if lm.null_count < len(lm)
                          else [None] * len(lm)),
        "page_size": rows["page_size"].to_pylist(),
        "keywords": [pairs[a:b] for a, b in zip([0] + ends, ends)],
        "parent_links": rows["parent_links"].to_pylist(),
        "child_links": rows["child_links"].to_pylist(),
    })


#: ``html.escape`` (``quote=True``) as ordered substring replacements
_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
            ("'", "&#x27;"))


def _escape(arr: pa.StringArray) -> pa.Array:
    """``html.escape`` of each value; a replacement whose character is
    not in the values' bytes is skipped."""
    data = arr.buffers()[2]
    data = data.to_pybytes() if data is not None else b""
    for old, new in _ESCAPES:
        if old.encode() in data:
            arr = pc.replace_substring(arr, old, new)
    return arr


def _join_lists(lists: pa.Array, items: pa.Array, sep: str) -> pa.Array:
    """Per list of ``lists``, its ``items`` (one per flattened value)
    joined by ``sep``."""
    offsets = lists.offsets.to_numpy()
    return pc.binary_join(pa.LargeListArray.from_arrays(
        pa.array(offsets - offsets[0]), items), sep)


def result_blocks(rows: pa.Table) -> dict[str, pa.Array]:
    """The ``result.jte`` block of each row of ``rows`` (the
    :class:`_HydrateStore` page columns ``title, url, last_modified,
    page_size, keywords, parent_links, child_links``) but its score, as
    three string columns; a page puts ``"<li>\\n<h3>"``, the score to 4
    decimals, ``block_head``, the ``block_lm`` text and ``block_tail``
    together per row:

    - ``block_head``: ``' <a href="URL">TITLE</a></h3>\\n<a
      href="URL">URL</a>\\n<p>'``;
    - ``block_lm``: ``str()`` of ``last_modified``, null where it is
      null (the page picks that text: ``"NaT"`` when some row of the
      page has a timestamp, ``"None"`` otherwise, as the pandas frame
      of those rows prints it);
    - ``block_tail``: ``', SIZE</p>\\n<p>Keywords: TERM FREQ; …</p>\\n'``
      then the ``Parent Links:`` and ``Child Links:`` lists and
      ``'</li>\\n'``.

    All text values (titles, urls, keyword terms, links) are
    HTML-escaped in one column-wise pass and each block is joined
    column-wise; only ``last_modified`` is formatted per row."""
    kw, parent, child = (rows[c].combine_chunks() for c in (
        "keywords", "parent_links", "child_links"))
    pairs = kw.flatten()
    texts = [rows["title"].combine_chunks(), rows["url"].combine_chunks(),
             pairs.field("term"), parent.flatten(), child.flatten()]
    escaped = _escape(pa.concat_arrays(texts))
    ends = np.cumsum([len(t) for t in texts]).tolist()
    title, url, term, parent_url, child_url = (
        escaped.slice(a, b - a) for a, b in zip([0] + ends, ends))
    links = [_join_lists(lists, pc.binary_join_element_wise(
        '<li><a href="', u, '">', u, "</a></li>\n", ""), "")
        for lists, u in ((parent, parent_url), (child, child_url))]
    return {
        "block_head": pc.binary_join_element_wise(
            ' <a href="', url, '">', title, '</a></h3>\n<a href="', url,
            '">', url, "</a>\n<p>", ""),
        "block_lm": pa.array(
            [None if t is None else str(t)
             for t in rows["last_modified"].to_pylist()], pa.string()),
        "block_tail": pc.binary_join_element_wise(
            ", ", rows["page_size"].cast(pa.string()),
            "</p>\n<p>Keywords: ",
            _join_lists(kw, pc.binary_join_element_wise(
                term, pairs.field("freq").cast(pa.string()), " "), "; "),
            "</p>\n<p>Parent Links:</p>\n<ul>\n", links[0],
            "</ul>\n<p>Child Links:</p>\n<ul>\n", links[1],
            "</ul>\n</li>\n", ""),
    }


def _top_keywords(fwd: pa.Table, max_keywords: int) -> pa.Table:
    """``(doc_id, term, freq)`` of the top ``max_keywords`` terms of
    each row's forward lists (``doc_id, terms, title_tfs, body_tfs``),
    sorted by (doc_id, freq desc, term)."""
    terms = fwd["terms"].combine_chunks()
    freq = pc.add(
        *(pc.list_flatten(fwd[c].combine_chunks()).cast(pa.int64())
          for c in ("title_tfs", "body_tfs")))
    flat = pa.table({
        "doc_id": fwd["doc_id"].combine_chunks().take(
            pc.list_parent_indices(terms)),
        "term": pc.list_flatten(terms),
        "freq": freq,
    }).sort_by([("doc_id", "ascending"), ("freq", "descending"),
                ("term", "ascending")])
    ids = flat["doc_id"].to_numpy()
    rank = np.arange(len(ids)) - np.searchsorted(ids, ids)
    return flat.filter(pa.array(rank < max_keywords))


def _link_sets(edges: pa.Table, key: str, url: str) -> pa.Table:
    """The distinct ``(key, url)`` pairs of ``edges`` as ``(doc_id,
    url)``, sorted by both."""
    return (edges.group_by([key, url]).aggregate([])
            .select([key, url]).rename_columns(["doc_id", "url"])
            .sort_by([("doc_id", "ascending"), ("url", "ascending")]))


def format_result(row) -> str:
    """Reference result text block, layout-exact
    (``SearchResult.toResultFormat``, ``SearchResult.java:51-110``):
    score to 4 decimals + title, url, last-modified + page size, the
    keyword line with a trailing ``"; "`` per pair, then ``Parent
    Links:`` / ``Child Links:`` header lines each followed by one
    indented url per line."""
    parts = [
        f"{row['score']:.4f}\t{row['title']}\n",
        f"\t{row['url']}\n",
        f"\t{row['last_modified']}, {row['page_size']}\n",
        "\t" + "".join(f"{w} {f}; " for w, f in row["keywords"]) + "\n",
        "\tParent Links:\n",
    ]
    parts.extend(f"\t{u}\n" for u in row["parent_links"])
    parts.append("\tChild Links:\n")
    parts.extend(f"\t{u}\n" for u in row["child_links"])
    return "".join(parts)


def format_results(df: pd.DataFrame) -> str:
    return "\n\n".join(format_result(r) for r in df.to_dict("records"))


def dump_index(index_dir: str, *, max_rows: int = 20) -> str:
    """Debug full-scan dump of every artifact (the ``print`` verb /
    ``Indexer.printAll``, ``Indexer.java:291-297``), truncated to
    ``max_rows`` per table."""
    import pyarrow.dataset as pads

    out = []
    meta = fsio.read_json(os.path.join(index_dir, "meta.json"))
    out.append(f"meta: n_docs={meta['n_docs']}")
    for name in ("extracted", "lexicon", "docstats", "segments"):
        path = os.path.join(index_dir, name)
        if not fsio.isdir(path):
            continue
        d = pads.dataset(path, format="parquet", partitioning="hive")
        t = d.head(max_rows)
        out.append(f"\n== {name} ({d.count_rows()} rows) ==")
        out.append(t.to_pandas().to_string(max_colwidth=40))
    return "\n".join(out)


def _merge_query_results(parts: list[pd.DataFrame], k: int) -> pd.DataFrame:
    """Merge per-shard (query_id, doc_id, score) frames into exact
    per-query top-k (score desc, doc_id asc, NaN last): one lexsort,
    rank = position minus the query's first position."""
    if not parts:
        return pd.DataFrame(columns=["query_id", "rank", "doc_id", "score"])
    qid, did, sc = (
        np.concatenate([p[c].to_numpy() for p in parts])
        for c in ("query_id", "doc_id", "score")
    )
    order = np.lexsort((did, -sc, qid))
    qid, did, sc = qid[order], did[order].astype(np.int64), sc[order]
    n = len(qid)
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    top = rank < k
    return pd.DataFrame(
        {"query_id": qid[top], "rank": rank[top], "doc_id": did[top],
         "score": sc[top]}
    )


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the values of ``a`` found in the sorted array ``b``: one
    ``searchsorted``, about 3x cheaper than ``intersect1d``'s re-sort."""
    if not b.size:
        return np.zeros(a.shape, dtype=bool)
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = b.size - 1
    return b[idx] == a


def _topk_indices(ids: np.ndarray, vals: np.ndarray, k: int) -> np.ndarray:
    """Deterministic top-k (score desc, doc_id asc, NaN last).

    DELIBERATE divergence: Java's ``Comparator.reverseOrder`` treats NaN
    as the largest double, so the reference ranks NaN-scored docs FIRST
    (constructible only on a degenerate corpus where some doc's every
    term has df=N).  We rank NaN last — a NaN score carries no relevance
    signal — and keep rank groups, not NaN placement, as the conformance
    surface (same stance as the HashMap tie-order note above).  For
    candidate sets much larger than k, select the boundary value with
    ``np.partition`` first and only sort the >= boundary subset — ties
    at the boundary stay doc_id-deterministic."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = len(ids)
    nan_mask = np.isnan(vals)
    if n > 4 * k + 16 and k < n:
        valid = np.flatnonzero(~nan_mask)
        if len(valid) >= k:
            vv = vals[valid]
            kth = np.partition(vv, len(vv) - k)[len(vv) - k]
            cand = valid[vv >= kth]
            order = cand[np.lexsort((ids[cand], -vals[cand]))][:k]
            if len(order) == k:
                return order
    order = np.lexsort((ids, -vals))
    nm = nan_mask[order]
    order = np.concatenate((order[~nm], order[nm]))
    return order[:k]


_EMPTY_RESULTS = {hydrate: pd.DataFrame(columns=["doc_id", "score"] + (
    ["title", "url", "last_modified", "page_size", "keywords",
     "parent_links", "child_links"] if hydrate else []))
    for hydrate in (False, True)}


def _empty_results(hydrate: bool) -> pd.DataFrame:
    # copying a prebuilt frame costs ~1/25 of constructing one
    return _EMPTY_RESULTS[hydrate].copy()


class ShardedSearcher:
    """Scatter-gather search over a doc-partitioned index
    (``IndexConfig.doc_shards`` > 1) — the 10^12-doc deployment shape:
    one ``Searcher`` actor per document shard, each holding only its
    shard's doc stats and reading only its segment partition.  A batch
    fans out from the caller as one ``search_many`` RPC per shard
    actor, every shard returns each query's top-k, and one merge
    combines them (scores are per-doc independent, so the merged top-k
    is exact).  Shard actors serve that one RPC; there is no broker
    tier.  An unsharded index (``doc_shards=1``) runs as one shard
    actor.

    This is one of the few places raw Ray actors are justified: the
    sharded, long-lived, randomly-accessed searcher state is not
    expressible as a Dataset transform.
    """

    #: restarts of a dead shard actor, and retries of the call it was
    #: serving, before the error reaches the caller
    ACTOR_RESTARTS = 3

    def __init__(self, index_dir: str, *, num_cpus_per_shard: float = 1,
                 replicas: int = 1):
        """``replicas``: independent copies of every shard actor.  One
        shard actor processes one RPC at a time, so the query tier's
        CPU ceiling is ``num_shards × replicas`` — scale replicas with
        the cluster (each replica holds only its shard's 1/num_shards
        state, so replication is cheap).  :meth:`batch_search` gives
        each replica ring one contiguous slice of the batch."""
        import ray

        meta = fsio.read_json(os.path.join(index_dir, "meta.json"))
        self.cfg = _load_cfg(meta["config"])
        self.cfg.check_index(meta, index_dir, "ShardedSearcher")
        self.num_shards = max(1, self.cfg.doc_shards)
        self.replicas = max(1, replicas)
        # a shard actor that dies is restarted from the index dir and
        # its in-flight ``search_many`` retried — safe because shard
        # calls are read-only, so one lost actor never fails a batch
        actor_cls = ray.remote(
            num_cpus=num_cpus_per_shard,
            max_restarts=self.ACTOR_RESTARTS,
            max_task_retries=self.ACTOR_RESTARTS,
        )(Searcher)
        self._rings = [
            [
                actor_cls.remote(index_dir, doc_shard=s)
                for s in range(self.num_shards)
            ]
            for _ in range(self.replicas)
        ]
        self._actors = self._rings[0]

    def batch_search(self, queries: list[str], k: int = 10) -> pd.DataFrame:
        """Exact per-query top-k ``(query_id, rank, doc_id, score)`` of
        ``queries``, in one scatter-gather: the batch is cut into one
        contiguous slice per replica ring, every shard actor of ring
        ``r`` gets one ``search_many`` RPC for slice ``r`` (each shard
        decodes 1/num_shards of the posting data), and one
        :func:`_merge_query_results` merges every part."""
        import ray

        chunk = -(-len(queries) // self.replicas)
        starts, futs = [], []
        for r, ring in enumerate(self._rings):
            part = queries[r * chunk:(r + 1) * chunk]
            if not part:
                continue
            for a in ring:
                starts.append(r * chunk)
                futs.append(a.search_many.remote(part, k=k))
        # a frame from ray.get may sit on read-only buffers: the offset
        # query ids are a new column, never an in-place add
        parts = [p.assign(query_id=p["query_id"].to_numpy() + base)
                 for base, p in zip(starts, ray.get(futs)) if len(p)]
        return _merge_query_results(parts, k)

    def shard_actors(self):
        return list(self._actors)

    def shutdown(self):
        import ray

        for ring in self._rings:
            for a in ring:
                ray.kill(a)
        self._rings = []
        self._actors = []


def parse_query(q: str) -> tuple[set[str], list[str]]:
    """Reference query parsing (``JavalinServer.java:48-61``): all tokens
    (quotes are delimiters) form the keyword set; the outermost
    double-quoted span forms the ordered phrase."""
    import re

    words = set(tokenize(q))
    phrase: list[str] = []
    m = re.search(r'"(.*)"', q)  # greedy → outermost pair
    if m:
        phrase = tokenize(m.group(1))
    return words, phrase
