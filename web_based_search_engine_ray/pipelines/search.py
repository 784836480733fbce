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
  columns and links, forward's keyword counts) that a Searcher loads
  on its first hydrated query (the reference's keyed point lookups).

Scale note (10^12 docs): a shard ``Searcher`` reads ONLY its
``docstats/doc_shard=<s>`` partition (per-actor doc state scales
1/shards), keeps the lexicon as sorted Arrow arrays with binary-search
lookup (no vocabulary-sized Python dict), and reads posting runs via
bucket-pruned parquet with per-run block-max metadata for decode
skipping.  Searchers shard by ``doc_id`` behind a scatter-gather
(``ShardedSearcher``); its ``batch_search`` is the one batch query
path: broker actors split the batch and share the shard actors
(an unsharded index is the one-shard case).

The reader speaks the layout ``build_index`` writes (``format_version``
7): a ``bucket=``-partitioned lexicon with ``ub_adj``, ``n_tokens`` in
docstats plus ``docstats/_STATS.json``, and ``doc_shard=`` partitions
of extracted, segments, forward and docstats (``doc_shard=0`` alone
when ``doc_shards == 1``).  Page columns and link edges are read from
extracted; there is no separate page-metadata or edge table.
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
from web_based_search_engine_ray.functions.hashing import stable_hash63
from web_based_search_engine_ray.state import fsio
from web_based_search_engine_ray.functions.tokenize import stem_word, tokenize
from web_based_search_engine_ray.stages import codec
from web_based_search_engine_ray.stages.extract import link_edges
from web_based_search_engine_ray.state import manifest as mf


def _load_cfg(d: dict) -> IndexConfig:
    """Tolerant config load: ignore keys from other code versions (an
    index built by an older/newer build keeps working as long as the
    semantic fields match)."""
    import dataclasses

    known = {f.name for f in dataclasses.fields(IndexConfig)}
    return IndexConfig(**{k: v for k, v in d.items() if k in known})


class Searcher:
    """Loads the small artifacts once (lexicon, docstats, meta); posting
    runs are filtered parquet reads; hydration rows come from a store
    loaded on the first :meth:`hydrate`."""

    #: max cached terms (decoded posting arrays); the Zipfian query
    #: distribution makes even a small cache very effective
    CACHE_TERMS = 65536
    #: byte budget across all decode caches — a count-only cap would
    #: let a handful of web-scale Zipf-head posting lists exhaust the
    #: actor heap
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
        meta = mf.read_json(os.path.join(index_dir, "meta.json"))
        self.n_docs: int = meta["n_docs"]
        self.cfg = _load_cfg(meta["config"])
        self._post_cache: dict[str, tuple | None] = {}
        self._pos_cache: dict[str, tuple | None] = {}
        self._partial_cache: dict[str, tuple | None] = {}
        #: per-term WAND views (sparse ids/partials/block-max/ub),
        #: built once per term from the partial cache
        self._wand_cache: dict[tuple, tuple | None] = {}
        #: decode counters (block-max pruning effectiveness measurement)
        self.run_stats = {"considered": 0, "decoded": 0}
        #: reusable dense scoring buffers (allocated on first query)
        self._acc: np.ndarray | None = None
        self._touched: np.ndarray | None = None
        self._cache_bytes = 0

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
        # partition.  A shard that got no documents has no partition dir
        # and loads zero rows.
        d_stats = os.path.join(index_dir, "docstats")
        src = (
            d_stats if doc_shard is None
            else os.path.join(d_stats, f"doc_shard={doc_shard}")
        )
        stat_cols = ["doc_id", "tf_max", "doc_len_norm", "n_tokens"]
        if fsio.isdir(src):
            stats = pads.dataset(src, format="parquet").to_table(
                columns=stat_cols
            ).sort_by("doc_id")
            ids, tf_max, norm, n_tokens = (
                stats[c].to_numpy(zero_copy_only=False) for c in stat_cols
            )
        else:
            ids = np.empty(0, dtype=np.int64)
            tf_max = norm = n_tokens = np.empty(0, dtype=np.float64)
        self._n_tokens = n_tokens.astype(np.float64)
        # corpus-global average doc length (BM25 avgdl), written by the
        # build
        gs = mf.read_json(os.path.join(d_stats, "_STATS.json"))
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
        path = os.path.join(self._d_lex, f"bucket={b}")
        if not fsio.isdir(path):
            out = (pa.array([], pa.string()), np.empty(0, np.int64),
                   np.empty(0, np.float64))
        else:
            t = pads.dataset(path, format="parquet").to_table(
                columns=["term", "df", "ub_adj"]
            ).sort_by("term")
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
        """(df, ub_adj) for a term, or None if absent — touches only
        the term's hash bucket."""
        arr, dfs, ubs = self._lex_bucket(
            stable_hash63(term) % self.cfg.num_buckets
        )
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

    def lex_df(self, term: str) -> int:
        e = self._lex_entry(term)
        return e[0] if e else 0

    def stem_query_word(self, word: str) -> str | None:
        return stem_word(
            word,
            use_stopwords=self.cfg.use_stopwords,
            use_stemming=self.cfg.use_stemming,
        )

    def _term_runs(self, term: str, columns: list[str],
                   extra_filter=None) -> pa.Table:
        bucket = stable_hash63(term) % self.cfg.num_buckets
        flt = (pc.field("bucket") == bucket) & (pc.field("term") == term)
        if self.doc_shard is not None:
            flt = flt & (pc.field("doc_shard") == self.doc_shard)
        if extra_filter is not None:
            flt = flt & extra_filter
        return self._segments.to_table(columns=columns, filter=flt)

    def _maybe_cache(self, cache: dict, key, out) -> None:
        """Admit ``out`` to a decode cache only within the count AND
        byte budgets (no eviction — admission control keeps hot Zipf
        terms that arrived first)."""
        nbytes = (
            sum(a.nbytes for a in out if isinstance(a, np.ndarray))
            if out else 0
        )
        if (len(cache) < self.CACHE_TERMS
                and self._cache_bytes + nbytes <= self.CACHE_BYTES):
            cache[key] = out
            self._cache_bytes += nbytes

    def postings(self, term: str):
        """Merged runs → (doc_ids, title_tfs, body_tfs), doc-sorted.
        Decoded arrays are cached per term (bounded)."""
        if term in self._post_cache:
            return self._post_cache[term]
        out = self._postings_uncached(term)
        self._maybe_cache(self._post_cache, term, out)
        return out

    def _postings_uncached(self, term: str):
        t = self._term_runs(term, ["df_run", "doc_gaps", "title_tfs", "body_tfs"])
        if t.num_rows == 0:
            return None
        self.run_stats["considered"] += t.num_rows
        self.run_stats["decoded"] += t.num_rows
        return self._decode_runs(t, range(t.num_rows))

    @staticmethod
    def _decode_run(t: pa.Table, i: int):
        """Run ``i`` of ``t`` → (doc_ids, title_tfs, body_tfs), the
        single varbyte decode every posting reader goes through."""
        return (
            codec.decode_sorted(t["doc_gaps"][i].as_py()),
            codec.varbyte_decode(t["title_tfs"][i].as_py()).astype(np.int64),
            codec.varbyte_decode(t["body_tfs"][i].as_py()).astype(np.int64),
        )

    def _decode_runs(self, t: pa.Table, rows):
        """Runs ``rows`` of ``t`` merged → doc-sorted (doc_ids,
        title_tfs, body_tfs).  A term's runs hold disjoint docs, so any
        subset of them yields exactly the full list's entries for its
        docs."""
        ids, ttf, btf = (
            np.concatenate(a)
            for a in zip(*(self._decode_run(t, int(i)) for i in rows))
        )
        if len(rows) > 1:
            order = np.argsort(ids, kind="stable")
            ids, ttf, btf = ids[order], ttf[order], btf[order]
        return ids, ttf, btf

    #: bits reserved for the in-document position in a phrase key
    POS_BITS = 22

    def postings_with_positions(self, term: str):
        """Phrase-match representation of a term's postings: a pair of
        sorted int64 key arrays (title_keys, body_keys) with
        ``key = doc_ordinal << POS_BITS | position`` (doc ordinal =
        index into the sorted docstats ids).  The non-associative
        left-fold intersection then runs entirely as vectorized
        ``np.intersect1d`` over sorted keys — advancing the prefix's
        positions by +1 is literally ``keys + 1``.  Cached per term."""
        if term in self._pos_cache:
            return self._pos_cache[term]
        out = self._positions_uncached(term)
        self._maybe_cache(self._pos_cache, term, out)
        return out

    def _positions_uncached(self, term: str):
        t = self._term_runs(
            term,
            ["doc_gaps", "title_tfs", "body_tfs", "title_pos", "body_pos"],
        )
        if t.num_rows == 0:
            return None
        tkey_parts, bkey_parts = [], []
        shift = np.int64(self.POS_BITS)
        limit = 1 << self.POS_BITS
        for i in range(t.num_rows):
            ids, ttfs, btfs = self._decode_run(t, i)
            tflat = codec.decode_concat_positions(t["title_pos"][i].as_py(), ttfs)
            bflat = codec.decode_concat_positions(t["body_pos"][i].as_py(), btfs)
            if (tflat.size and tflat.max() >= limit - 1) or (
                bflat.size and bflat.max() >= limit - 1
            ):
                raise ValueError(
                    f"document position exceeds 2^{self.POS_BITS}"
                )
            ordinals = np.searchsorted(self._stat_ids, ids)
            tkey_parts.append(
                (np.repeat(ordinals, ttfs) << shift) | tflat
            )
            bkey_parts.append(
                (np.repeat(ordinals, btfs) << shift) | bflat
            )
        tkeys = np.concatenate(tkey_parts)
        bkeys = np.concatenate(bkey_parts)
        if len(tkey_parts) > 1:
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
        # (both scores_arrays branches use dense/mask when tp[3] is not
        # None) — dropping it keeps the byte-budgeted cache from paying
        # ~1.7x per densified term
        return (None, None, None, dense, mask)

    def _partial(self, ids, ttf, btf, df: int, bm25: bool):
        """Per-term partial scores of decoded postings → (partials, doc
        ordinals).  Every scoring path (cached full partials, the
        MaxScore restricted phase, WAND views) computes partials here,
        so a doc's contribution is bit-identical whichever path decoded
        it.

        Reference TF-IDF: ``(0.9·title_tf + 0.1·body_tf) · idf / tfMax``.
        BM25: Robertson idf, k1/b length normalization over the raw
        token count |d| and corpus avgdl; the arithmetic association
        (``num`` first — multiply is non-associative) mirrors the SQL
        oracle exactly."""
        pos = np.searchsorted(self._stat_ids, ids)
        if bm25:
            tf = (ttf + btf).astype(np.float64)
            idf = math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
            K = self.BM25_K1 * (
                1.0 - self.BM25_B
                + self.BM25_B * self._n_tokens[pos] / self.avgdl
            )
            num = tf * (self.BM25_K1 + 1.0)
            return idf * num / (tf + K), pos
        idf = math.log10(self.n_docs / df)
        a = self.cfg.title_weight
        adj = a * ttf + (1.0 - a) * btf
        return adj * idf / self._tf_max[pos], pos

    def _term_partial(self, term: str, df: int, bm25: bool = False):
        """Decode a term's postings → (doc_ids, partial scores, doc
        ordinals, dense values|None, dense mask|None).  The partial
        scores depend only on the index (idf, tfMax / doc length), so
        the fully computed arrays are cached per term and scorer."""
        key = ("bm25", term) if bm25 else term
        cached = self._partial_cache.get(key)
        if cached is not None:
            return cached
        p = self.postings(term)
        out = (
            None if p is None
            else self._densify_partial(p[0], *self._partial(*p, df, bm25))
        )
        self._maybe_cache(self._partial_cache, key, out)
        return out

    def scores(self, words, k: int | None = None,
               prune: bool = False) -> dict[int, float]:
        """Dict facade over :meth:`scores_arrays` (reference-shaped API)."""
        ids, vals = self.scores_arrays(words, k=k, prune=prune)
        return dict(zip(ids.tolist(), vals.tolist()))

    def _partial_for_candidates(self, term: str, df: int,
                                cand_ids: np.ndarray, *,
                                bm25: bool = False):
        """Restricted-phase decode: only runs whose [min_doc, max_doc]
        range contains at least one candidate are decoded (block-max
        run skipping; the parquet filter also pushes the range test
        down to row groups).  Returns (ids, partials, doc ordinals) of
        the decoded runs — exact contributions for every candidate doc,
        in the requested scorer's arithmetic (:meth:`_partial`)."""
        if not len(cand_ids):
            return None
        flt = (pc.field("max_doc") >= int(cand_ids[0])) & (
            pc.field("min_doc") <= int(cand_ids[-1])
        )
        t = self._term_runs(
            term,
            ["df_run", "min_doc", "max_doc", "doc_gaps", "title_tfs",
             "body_tfs"],
            extra_filter=flt,
        )
        if t.num_rows == 0:
            return None
        mins = t["min_doc"].to_numpy(zero_copy_only=False)
        maxs = t["max_doc"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(cand_ids, mins, side="left")
        hi = np.searchsorted(cand_ids, maxs, side="right")
        need = hi > lo
        self.run_stats["considered"] += t.num_rows
        self.run_stats["decoded"] += int(need.sum())
        if not need.any():
            return None
        ids, ttf, btf = self._decode_runs(t, np.flatnonzero(need))
        return (ids, *self._partial(ids, ttf, btf, df, bm25))

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
        update existing candidates — and, run-level (block-max), only
        runs whose doc range intersects the candidate set are decoded.
        Scores of every returned doc are exact, and the true top-k is
        never pruned; docs outside the top-k may be absent, so pruning
        is only used for plain top-k queries (not phrase semi-joins,
        not full score dumps)."""
        terms = {w for w in (self.stem_query_word(x) for x in words) if w}
        # sorted for a deterministic summation order (set iteration is
        # hash-salted per process; fp addition is order-sensitive)
        entries = []
        for t in sorted(terms):
            e = self._lex_entry(t)
            if e is not None and e[0] > 0:
                entries.append((t, e[0], e[1]))
        if not entries:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        bm25 = mode == "bm25"
        # MaxScore is rank-safe in both modes; the reference scorer's
        # bound needs well-formed norms, bm25's bound is closed-form
        # (idf·(k1+1), the tf-saturation limit — every bm25 partial is
        # positive, no norm division)
        prune = bool(prune and k) and (bm25 or self._can_prune)

        if prune:
            if bm25:
                # idf·(k1+1): sup over tf of tf(k1+1)/(tf+K) is k1+1
                ub = {
                    t: math.log(
                        (self.n_docs - df + 0.5) / (df + 0.5) + 1.0
                    ) * (self.BM25_K1 + 1.0)
                    for t, df, _u in entries
                }
            else:
                # idf × max(adjTF/tfMax): the most this term adds to
                # any doc
                ub = {
                    t: math.log10(self.n_docs / df) * u
                    for t, df, u in entries
                }
            # remaining[i] = fold of ubs[i:] in TERM-PROCESSING order
            # (sorted terms, the exhaustive path's order, so both paths
            # sum each doc's partials identically):
            # fp addition is monotone (a<=a', b<=b' => fl(a+b) <=
            # fl(a'+b')) but NOT associative, so the bound must fold
            # the same way the accumulator does — a reversed cumsum can
            # land an ulp BELOW the forward fold and prune a true
            # top-k doc (same hazard the WAND pivot fold refolds for)
            ubs = [ub[t] for t, _, _ in entries]
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
            # Cost-based check gating: restricting term i..end can only
            # SAVE work for terms whose partials are not already cached
            # (the restricted branch itself prefers a cached full
            # partial, and masking a cached partial costs MORE than the
            # plain dense add).  The bound check is O(shard) — gather +
            # divide + partition over every candidate — so on a warm
            # cache it is pure overhead (measured 2x per-query cost on
            # a dense-df query mix).  uncached_suffix[i] == "some term
            # >= i still needs a decode", the only case the check can
            # pay for itself.
            uncached_suffix = [False] * (len(entries) + 1)
            for j in range(len(entries) - 1, -1, -1):
                key_j = ("bm25", entries[j][0]) if bm25 else entries[j][0]
                uncached_suffix[j] = (
                    uncached_suffix[j + 1]
                    or key_j not in self._partial_cache
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
                    # cached full partials beat a fresh filtered read
                    tp = self._partial_cache.get(
                        ("bm25", term) if bm25 else term, False
                    )
                    if tp is False:
                        tp = self._partial_for_candidates(
                            term, df, self._stat_ids[touched], bm25=bm25
                        )
                    if tp is None:
                        continue
                    if len(tp) == 5 and tp[3] is not None:
                        # exact: non-candidates receive + 0.0
                        dense, mask = tp[3], tp[4]
                        np.add(acc, np.where(mask & touched, dense, 0.0),
                               out=acc)
                    else:
                        _ids, partial, pos = tp[:3]
                        # exact update of existing candidates only
                        hit = touched[pos]
                        acc[pos[hit]] += partial[hit]
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
        terms = {w for w in (self.stem_query_word(x) for x in words) if w}
        entries = []
        for t in sorted(terms):
            e = self._lex_entry(t)
            if e is not None and e[0] > 0:
                entries.append((t, e[0]))
        if not entries:
            return empty
        bm25 = mode == "bm25"
        if not bm25 and not self._can_prune:
            return self._taat_topk(words, k, mode)

        bs = self.WAND_BLOCK
        # per-term (doc_ids, partials, block_max, term_ub) in term order
        # — partials come from the same cache the TAAT path uses (dense
        # images are re-sparsified zero-copy-ish)
        lists = []
        for term, df in entries:
            # per-term WAND view cached once: densified partials are
            # exactly the Zipf-head terms WAND queries hit, and
            # re-sparsifying them (two O(df) fancy-index copies) plus
            # the block-max reduceat on EVERY query would dwarf the
            # walk itself
            key_w = ("wand", "bm25", term) if bm25 else ("wand", term)
            view = self._wand_cache.get(key_w, False)
            if view is False:
                tp = self._term_partial(term, df, bm25)
                if tp is None:
                    view = None
                else:
                    if tp[3] is not None:
                        mask = tp[4]
                        ids_t = self._stat_ids[mask]
                        part = tp[3][mask]
                    else:
                        ids_t, part = tp[0], tp[1]
                    n = len(ids_t)
                    if n == 0:
                        view = None
                    else:
                        bmax = np.maximum.reduceat(
                            part, np.arange(0, n, bs)
                        )
                        view = (ids_t, part, bmax, float(part.max()))
                self._maybe_cache(self._wand_cache, key_w, view)
            if view is not None:
                lists.append(view)
        if not lists:
            return empty
        got = wand_topk_c(
            lists, bs=bs, bm25=bm25,
            inv_norm_bound=1.0 if bm25 else 1.0 / self._min_norm,
            stat_ids=self._stat_ids, norm=self._norm, k=k,
        )
        return got if got is not None else self._taat_topk(words, k, mode)

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

    def documents_with_phrase(self, phrase: list[str]) -> set[int]:
        """Set facade over :meth:`phrase_doc_array` (reference-shaped
        API)."""
        return set(self.phrase_doc_array(phrase).tolist())

    #: cost-model constants for ``traversal="auto"`` (measured on the
    #: Zipf bench fixture, ``bench.py --zipf`` — see BASELINE.md):
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
        rank-identical, so this is purely a cost decision."""
        from web_based_search_engine_ray.stages.cwand import load_kernel

        if mode != "bm25" and not self._can_prune:
            return "taat"  # degenerate norms: WAND falls back anyway
        if load_kernel() is None:
            return "taat"  # no kernel: WAND falls back to TAAT anyway
        dfs = []
        for w in words:
            t = self.stem_query_word(w)
            if not t:
                continue
            e = self._lex_entry(t)
            if e is not None and e[0] > 0:
                dfs.append(e[0])
        if len(dfs) < 2:
            return "taat"  # single list: nothing to skip
        from web_based_search_engine_ray.stages import cwand

        if len(dfs) > cwand.MAX_TERMS or k > cwand.MAX_K:
            # over the compiled kernel's capacity scores_topk_wand
            # falls back to exhaustive TAAT after building its views
            return "taat"
        sum_df, min_df, max_df = sum(dfs), min(dfs), max(dfs)
        if (
            sum_df >= self.WAND_AUTO_MIN_VOLUME
            and max_df >= self.WAND_AUTO_SKEW * min_df
            and k * self.WAND_AUTO_K_FACTOR <= sum_df
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
            df = pd.DataFrame({"doc_id": ids, "score": vals})
            if not len(df):
                return _empty_results(hydrate)
            return hydrated_frame(self.hydrate(df)) if hydrate else df
        # pruning is rank-safe only for a plain top-k (a phrase semi-join
        # could promote below-threshold docs into the final top-k)
        ids, vals = self.scores_arrays(
            words, k=k, prune=prune and not phrase, mode=mode
        )
        stemmed_phrase = [
            w for w in (self.stem_query_word(x) for x in phrase) if w
        ]
        if stemmed_phrase and len(ids):
            # vectorized sorted-membership semi-join
            mask = _in_sorted(ids, self.phrase_doc_array(phrase))
            ids, vals = ids[mask], vals[mask]
        if not len(ids):
            return _empty_results(hydrate)
        top = _topk_indices(ids, vals, k)
        df = pd.DataFrame({"doc_id": ids[top], "score": vals[top]})
        return hydrated_frame(self.hydrate(df)) if hydrate else df

    def search_many(self, queries: list[str], k: int | None = None,
                    prune: bool = True,
                    traversal: str = "auto") -> pd.DataFrame:
        """Batch form of :meth:`search` for shard fan-out: parse + score
        every query, returning one compact (query_id, doc_id, score)
        frame (no hydration).  One actor RPC per shard instead of one
        per (query, shard).  MaxScore pruning is on by default (it is
        rank-safe and auto-disabled for phrase queries); traversal
        defaults to the cost-based auto choice (also rank-safe)."""
        k = k if k is not None else self.cfg.max_results
        qids, dids, scs = [], [], []
        for qid, q in enumerate(queries):
            words, phrase = parse_query(q)
            res = self.search(words, phrase, k=k, hydrate=False,
                              prune=prune, traversal=traversal)
            n = len(res)
            if n:
                qids.extend([qid] * n)
                dids.extend(res["doc_id"].tolist())
                scs.extend(res["score"].tolist())
        return pd.DataFrame(
            {"query_id": qids, "doc_id": dids, "score": scs}
        )

    # --------------------------------------------------------------- hydrate
    @property
    def hydrate_store_bytes(self) -> int:
        """Arrow + numpy bytes of the hydration store; 0 until the first
        :meth:`hydrate` loads it (shard Searchers never hydrate)."""
        return self._hydrate_store.nbytes if self._hydrate_store else 0

    def hydrate(self, results: pd.DataFrame) -> pa.Table:
        """``Indexer.buildSearchResult`` for the k result rows only, as
        one Arrow table: ``doc_id, score`` from ``results``, then the
        :class:`_HydrateStore` columns ``title, url, last_modified,
        page_size, keywords, parent_links, child_links``.
        :func:`hydrated_frame` gives its pandas form.

        The store is loaded on the first call and kept for this
        Searcher's life, so a request is one ``np.searchsorted`` and one
        ``take`` and reads no file.  Its memory is O(docs) for a
        Searcher that hydrates: about 470 B/doc (2.35 MB Arrow + numpy)
        on the 5,000-doc indexes of both ``perfbench`` workloads.  Docs
        missing from extracted get the store's default row (``""``,
        null, ``0``, empty lists)."""
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
      structs from forward, by title+body freq desc, term asc (a fixed
      tie order: the reference's is HashMap-nondeterministic,
      ``SearchResult.java:33-44``) — Arrow sorts strings by UTF-8
      bytes, which is the code-point order of Python's ``sort``;
    - ``child_links``: the sorted distinct ``dst_url`` of the page's
      link edges
      (:func:`~web_based_search_engine_ray.stages.extract.link_edges`);
    - ``parent_links``: the sorted distinct ``src_url`` of the edges
      whose ``dst_url`` is the page's url.

    The three list columns hold each doc's edges ⋈ pages and keyword
    rows pre-joined, so a request expands them for its k rows only."""

    def __init__(self, index_dir: str, max_keywords: int):
        def read(name: str, columns: list[str]) -> pa.Table:
            return pads.dataset(os.path.join(index_dir, name),
                                format="parquet").to_table(columns=columns)

        pages = read("extracted", ["doc_id", "url", "title", "page_size",
                                   "last_modified", "links"])
        edges = link_edges(pages)
        parents = edges.join(pages.select(["url", "doc_id"]),
                             keys="dst_url", right_keys="url",
                             join_type="inner")
        meta = pages.drop_columns(["links"]).sort_by("doc_id")
        self.keys = meta["doc_id"].to_numpy()
        kw = _top_keywords(read("forward", ["doc_id", "terms", "title_tfs",
                                            "body_tfs"]), max_keywords)
        # a doc with no page gets the default row, keywords included
        kw = kw.filter(pc.is_in(kw["doc_id"], value_set=pa.array(self.keys)))
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


def _top_keywords(fwd: pa.Table, max_keywords: int) -> pa.Table:
    """``(doc_id, term, freq)`` of each forward row's top
    ``max_keywords`` terms, sorted by (doc_id, freq desc, term)."""
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
    meta = mf.read_json(os.path.join(index_dir, "meta.json"))
    out.append(f"meta: n_docs={meta['n_docs']}")
    for name in ("extracted", "lexicon", "docstats", "forward", "segments"):
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


class _Broker:
    """Query broker: scatter-gathers a query slice against SHARED shard
    actors and merges locally; multiple brokers multiply gather/merge
    throughput without duplicating shard state."""

    def __init__(self, shard_actors):
        self._shards = shard_actors

    def run(self, queries: list[str], base_qid: int, k: int,
            traversal: str = "auto") -> pd.DataFrame:
        import ray

        futs = [
            s.search_many.remote(queries, k=k, traversal=traversal)
            for s in self._shards
        ]
        parts = [p for p in ray.get(futs) if len(p)]
        out = _merge_query_results(parts, k)
        out["query_id"] += base_qid
        return out


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


def _empty_results(hydrate: bool) -> pd.DataFrame:
    cols = ["doc_id", "score"]
    if hydrate:
        cols += ["title", "url", "last_modified", "page_size", "keywords",
                 "parent_links", "child_links"]
    return pd.DataFrame(columns=cols)


class ShardedSearcher:
    """Scatter-gather search over a doc-partitioned index
    (``IndexConfig.doc_shards`` > 1) — the 10^12-doc deployment shape:
    one ``Searcher`` actor per document shard, each holding only its
    shard's doc stats and reading only its segment partition; a query
    fans out, every shard returns its top-k, and the results are merged
    (scores are per-doc independent, so the merged top-k is exact).  An
    unsharded index (``doc_shards=1``) runs as one shard actor.

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
        state, so replication is cheap) the way production search tiers
        replicate shards behind brokers."""
        import ray

        meta = mf.read_json(os.path.join(index_dir, "meta.json"))
        self.cfg = _load_cfg(meta["config"])
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
        self._brokers: list = []

    def search(self, words, phrase=None, k: int | None = None,
               mode: str = "ref") -> pd.DataFrame:
        """One query scattered to every shard; exact merged top-k
        ``(doc_id, score)`` frame (no hydration)."""
        import ray

        k = k if k is not None else self.cfg.max_results
        futs = [
            a.search.remote(words, phrase, k=k, hydrate=False, mode=mode)
            for a in self._actors
        ]
        parts = [p.assign(query_id=0) for p in ray.get(futs) if len(p)]
        return _merge_query_results(parts, k)[["doc_id", "score"]]

    def batch_search(self, queries: list[str], k: int = 10,
                     n_brokers: int | None = None,
                     traversal: str = "auto") -> pd.DataFrame:
        """Split the query batch into ``n_brokers`` contiguous slices;
        each broker actor sends its slice to every shard (one
        ``search_many`` RPC per shard; each shard's decode work is
        1/num_shards of the posting data) and merges per query.
        Returns ``(query_id, rank, doc_id, score)``.

        Brokers SHARE the shard actors, so adding brokers scales
        gather+merge throughput with cores the way production search
        tiers do.  Default (``n_brokers=None``): one broker per ~8
        cluster CPUs."""
        import ray

        if n_brokers is None:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            n_brokers = max(1, cpus // 8)
        if n_brokers < 1:
            raise ValueError("n_brokers must be >= 1")
        # num_cpus=0: brokers spend most time waiting on shard futures
        # with short merge bursts — a reserved CPU would deadlock small
        # clusters where shard actors hold every core.  Brokers are
        # cached across calls (actor startup would otherwise dominate
        # small batches).
        if len(self._brokers) < n_brokers:
            broker_cls = ray.remote(num_cpus=0)(_Broker)
            self._brokers.extend(
                # broker i scatter-gathers against replica ring
                # i mod replicas — load spreads across shard copies
                broker_cls.remote(self._rings[i % self.replicas])
                for i in range(len(self._brokers), n_brokers)
            )
        chunk = -(-len(queries) // n_brokers)
        futs = [
            self._brokers[i].run.remote(
                queries[i * chunk:(i + 1) * chunk], i * chunk, k, traversal
            )
            for i in range(n_brokers)
            if queries[i * chunk:(i + 1) * chunk]
        ]
        parts = [p for p in ray.get(futs) if len(p)]
        if not parts:
            return pd.DataFrame(columns=["query_id", "rank", "doc_id", "score"])
        return pd.concat(parts, ignore_index=True)

    def shard_actors(self):
        return list(self._actors)

    def shutdown(self):
        import ray

        for b in self._brokers:
            ray.kill(b)
        self._brokers = []
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
