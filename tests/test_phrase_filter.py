"""``Searcher.phrase_doc_array`` intersects the phrase words' shifted
position keys rarest-first, stopping at the first empty intersection;
it must return exactly the docs of the plain query-order fold over
every word's full position keys, kept below as the reference."""

from __future__ import annotations

import random

import numpy as np
import pyarrow.parquet as pq
import pytest


def reference_phrase_docs(s, phrase: list[str]) -> np.ndarray:
    """Left-fold positional merge over the full key arrays of every
    term, in query order (the implementation the rarest-first
    intersection replaced)."""
    terms = [w for w in (s.stem_query_word(x) for x in phrase) if w]
    empty = np.empty(0, dtype=np.int64)
    if not terms:
        return empty
    lists = []
    for term in terms:
        p = s.postings_with_positions(term)
        lists.append(p if p is not None else (empty, empty))
    tkeys, bkeys = lists[0]
    for ct, cb in lists[1:]:
        tkeys = np.intersect1d(tkeys + 1, ct)
        bkeys = np.intersect1d(bkeys + 1, cb)
    ordinals = np.unique(np.concatenate((tkeys, bkeys)) >> s.POS_BITS)
    return s._stat_ids[ordinals]


def _phrases(texts: list[str], n: int, seed: int) -> list[list[str]]:
    """``n`` random 2-4-word phrases: windows of the docs' text (real
    phrases), random word draws, and draws mixed with an absent word,
    stopwords and repeats of one word."""
    rng = random.Random(seed)
    words = sorted({w for t in texts for w in t.split()})
    extra = ["zzznope", "the", "of", "and"]
    out = []
    for i in range(n):
        ln = rng.randint(2, 4)
        kind = i % 4
        if kind == 0:
            toks = rng.choice([t for t in texts if t]).split()
            at = rng.randrange(max(1, len(toks) - ln + 1))
            out.append(toks[at:at + ln])
        elif kind == 1:
            out.append([rng.choice(words) for _ in range(ln)])
        elif kind == 2:
            out.append([rng.choice(words + extra) for _ in range(ln)])
        else:
            w = rng.choice(words)
            out.append([w] * (ln - 1) + [rng.choice([w, *extra])])
    return out + [["the", "of"], ["zzznope", "spark"], ["spark", "zzznope"]]


@pytest.mark.parametrize("doc_shard", [None, 0])
def test_phrase_doc_array_matches_reference_fold(ray_session, sf_dir,
                                                 doc_shard):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.registry import get_index

    idx = get_index(sf_dir, IndexConfig(doc_shards=2))
    texts = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    s, ref = Searcher(idx, doc_shard), Searcher(idx, doc_shard)
    hits = 0
    for phrase in _phrases(texts, 400, seed=5):
        got = s.phrase_doc_array(phrase)
        want = reference_phrase_docs(ref, phrase)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want, err_msg=str(phrase))
        hits += bool(len(want))
    # both the empty and the non-empty outcome are well covered
    assert 100 < hits < 350
