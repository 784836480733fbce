"""Pure-Python literal oracle of the reference engine semantics.

Shipped inside the package so conformance checks can run anywhere (the
driver, tests, user code): a record-at-a-time implementation of
SURVEY.md §2.5 exactly as written in the Java — no Ray, no numpy.

Implements SURVEY.md §2.5 *exactly as written in the Java* (record at a
time, no Ray, no numpy tricks) so pipeline results can be checked
against an independent implementation.
"""

from __future__ import annotations

import math
from collections import defaultdict

from web_based_search_engine_ray.functions.tokenize import analyze


class OracleIndex:
    """In-memory replica of tables 5-10 (SURVEY.md §1)."""

    #: TITLE_MATCH_MULTIPLIER, InvertedIndex.java:21
    title_weight = 0.9

    def __init__(self, use_stopwords=True, use_stemming=True):
        self.kw = dict(use_stopwords=use_stopwords, use_stemming=use_stemming)
        # term -> {doc_id -> (title_positions, body_positions)}
        self.postings: dict[str, dict[int, tuple[list[int], list[int]]]] = (
            defaultdict(dict)
        )
        self.forward: dict[int, set[str]] = {}
        self.tf_max: dict[int, int] = {}

    def add_document(self, doc_id: int, title: str, body: str):
        title_terms = analyze(title, **self.kw)
        body_terms = analyze(body, **self.kw)
        self.add_term_lists(doc_id, title_terms, body_terms)

    def add_term_lists(self, doc_id: int, title_terms, body_terms):
        # PostingIndex.addDocument (PostingIndex.java:40-85)
        tl: dict[str, list[int]] = defaultdict(list)
        bl: dict[str, list[int]] = defaultdict(list)
        for i, t in enumerate(title_terms):
            tl[t].append(i)
        for i, t in enumerate(body_terms):
            bl[t].append(i)
        total = set(title_terms) | set(body_terms)
        if not total:
            return  # reference: unindexable (InvertedIndex.java:50-51)
        for t in total:
            self.postings[t][doc_id] = (tl.get(t, []), bl.get(t, []))
        self.forward[doc_id] = total
        self.tf_max[doc_id] = max(
            len(tl.get(t, [])) + len(bl.get(t, [])) for t in total
        )

    @property
    def n(self) -> int:
        return len(self.tf_max)

    def df(self, term: str) -> int:
        return len(self.postings.get(term, {}))

    def doc_length(self, doc_id: int) -> float:
        # InvertedIndex.getDocumentLength (InvertedIndex.java:69-95)
        total = 0.0
        tfm = self.tf_max[doc_id]
        for t in self.forward[doc_id]:
            tp, bp = self.postings[t][doc_id]
            tf = len(tp) + len(bp)
            idf = math.log10(self.n / self.df(t))
            total += (tf * idf / tfm) ** 2
        return math.sqrt(total)

    def scores_for_terms(self, terms) -> dict[int, float]:
        # InvertedIndex.getScores over already-normalized terms
        merged: dict[int, float] = defaultdict(float)
        a = self.title_weight
        for t in set(terms):
            docs = self.postings.get(t)
            if not docs:
                continue
            idf = math.log10(self.n / len(docs))
            for doc_id, (tp, bp) in docs.items():
                adj = a * len(tp) + (1 - a) * len(bp)
                merged[doc_id] += adj * idf / self.tf_max[doc_id]
        out = {}
        for doc_id, s in merged.items():
            dl = self.doc_length(doc_id)
            out[doc_id] = s / dl if dl != 0 else float("nan")
        return out

    def docs_with_phrase_terms(self, phrase_terms: list[str]) -> set[int]:
        # PostingIndex.getDocumentsWithPhrase — left fold (non-assoc.)
        if not phrase_terms:
            return set()
        lists = [self.postings.get(t, {}) for t in phrase_terms]
        merged = {
            d: (set(tp), set(bp)) for d, (tp, bp) in lists[0].items()
        }
        for cur in lists[1:]:
            nxt = {}
            for d, (pt, pb) in merged.items():
                if d not in cur:
                    continue
                ct, cb = cur[d]
                nt = {p + 1 for p in pt} & set(ct)
                nb = {p + 1 for p in pb} & set(cb)
                if nt or nb:
                    nxt[d] = (nt, nb)
            merged = nxt
        return set(merged.keys())

    def search(self, words, phrase=()):
        # Indexer.search (Indexer.java:243-284)
        from web_based_search_engine_ray.functions.tokenize import stem_word

        terms = {
            w
            for w in (stem_word(x, **self.kw) for x in words)
            if w is not None
        }
        scores = self.scores_for_terms(terms)
        phrase_terms = [
            w
            for w in (stem_word(x, **self.kw) for x in phrase)
            if w is not None
        ]
        if phrase_terms:
            allowed = self.docs_with_phrase_terms(phrase_terms)
            scores = {d: s for d, s in scores.items() if d in allowed}
        return scores
