"""Randomized end-to-end parity: seeded random corpora through the
FULL Ray build (extract → tokenize → segments → lexicon → docstats),
then every query's complete score map compared against the pure-Python
``OracleIndex`` (the literal record-at-a-time reference semantics,
SURVEY.md §2.5 / Indexer.java:243-284) — doc sets exact, scores to
1e-9 relative, NaN-for-NaN.  The WAND/MaxScore traversals are then
pinned bitwise against TAAT on the same random dfs, the exact fp-fold
hazard class the golden corpora can't vary.

Complements the fixed-corpus golden tests (``test_golden_scores``) and
the build-level property tests (``test_posting_properties``): those
pin known inputs; this drives arbitrary ones through the whole stack.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pyarrow as pa
import pytest

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.oracle import OracleIndex
from web_based_search_engine_ray.pipelines.build_index import build_index
from web_based_search_engine_ray.pipelines.search import (
    Searcher,
    _topk_indices,
)
from web_based_search_engine_ray.sources.webcorpus import (
    doc_title,
    synth_batch,
)

# Vocabulary engineered for coverage: stopwords (dropped before
# stemming), stemmable forms, the reference stemmer's quirk words
# ("this" → "thi"), hyphen/underscore tokens the [^a-zA-Z0-9_-]
# tokenizer keeps whole, case variants, and a Zipf-ish skew so some
# terms approach df == N (idf == 0) while others stay rare.
_VOCAB = (
    ["the", "of", "and", "to", "a"] * 6          # stopwords, frequent
    + ["data", "spark", "merge"] * 5             # hot content terms
    + ["running", "merged", "connected", "flies", "happiness",
       "organization", "this", "metre", "relational"] * 2
    + ["data-set", "x_1", "Spark", "SPARK", "kilometre"]
    + ["qux", "zlorb", "vextrine", "wumpus"]     # rare (high idf)
)

_SEEDS = [11, 23]


def _gen_texts(rng: random.Random, n_docs: int) -> list[str]:
    texts = []
    for _ in range(n_docs):
        ln = rng.choice([0, 1, 2, 4, 8, 16, 32])
        texts.append(" ".join(rng.choice(_VOCAB) for _ in range(ln)))
    # guaranteed exact duplicates and an all-stopword doc
    if n_docs >= 4:
        texts[1] = texts[0]
        texts[2] = "the of and to the of"
    return texts


def _gen_queries(rng: random.Random, texts: list[str]):
    """(words, phrase) pairs: random word sets incl. OOV, plus phrases
    lifted from real docs (hits) and random ones (mostly misses)."""
    qs = []
    for _ in range(12):
        n = rng.randint(1, 5)
        words = {rng.choice(_VOCAB) for _ in range(n)}
        if rng.random() < 0.2:
            words.add("nosuchword")
        qs.append((words, []))
    docs_with_text = [t.split() for t in texts if len(t.split()) >= 3]
    for _ in range(6):
        if docs_with_text and rng.random() < 0.7:
            toks = rng.choice(docs_with_text)
            i = rng.randrange(len(toks) - 2)
            phrase = toks[i : i + rng.choice([2, 3])]
        else:
            phrase = [rng.choice(_VOCAB), rng.choice(_VOCAB)]
        qs.append((set(phrase), phrase))
    return qs


@pytest.fixture(scope="module", params=_SEEDS)
def fuzz_case(request, ray_session, tmp_path_factory):
    import ray.data as rd

    seed = request.param
    rng = random.Random(seed)
    n_docs = rng.randint(60, 140)
    texts = _gen_texts(rng, n_docs)
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(n_docs)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n_docs, pa.string()),
        }
    )
    corpus = synth_batch(docs)
    d = str(tmp_path_factory.mktemp(f"fuzz_idx_{seed}"))
    build_index(
        lambda: rd.from_arrow(corpus),
        d,
        IndexConfig(num_buckets=2, doc_shards=2),
        input_key=f"fuzz-{seed}",
        resume=False,
    )
    oracle = OracleIndex()
    for i, t in enumerate(texts):
        oracle.add_document(i, doc_title(i), t)
    return d, oracle, seed, texts


def _test_rng(seed: int, request) -> random.Random:
    """Each test draws its queries from its own stream, so its queries
    do not depend on which tests ran before it."""
    return random.Random(f"{seed}:{request.function.__name__}")


def test_fuzz_full_score_maps_match_oracle(fuzz_case, request):
    d, oracle, seed, texts = fuzz_case
    rng = _test_rng(seed, request)
    s = Searcher(d)
    for words, phrase in _gen_queries(rng, texts):
        want = oracle.search(words, phrase)
        got = s.search(words, phrase=phrase, k=10**9, hydrate=False)
        got_map = dict(zip(got["doc_id"].astype(int), got["score"]))
        assert set(got_map) == set(want), (words, phrase)
        for doc, sc in want.items():
            g = got_map[doc]
            if math.isnan(sc):
                assert math.isnan(g), (words, phrase, doc)
            else:
                assert g == pytest.approx(sc, rel=1e-9, abs=1e-12), (
                    words, phrase, doc,
                )


def test_fuzz_wand_rank_identity(fuzz_case, request):
    """On random dfs (incl. idf==0 heads and df==1 tails) the DAAT
    walks must stay bitwise rank-identical to TAAT in both modes."""
    d, oracle, seed, texts = fuzz_case
    s = Searcher(d)
    queries = [w for w, p in _gen_queries(_test_rng(seed, request), texts)
               if not p][:8]
    for mode in ("ref", "bm25"):
        for words in queries:
            ids, vals = s.scores_arrays(words, mode=mode)
            for k in (1, 7, 25):
                top = _topk_indices(ids, vals, k)
                got_ids, got_vals = s.scores_topk_wand(
                    words, k=k, mode=mode
                )
                assert got_ids.tolist() == ids[top].tolist(), (
                    mode, k, words,
                )
                assert np.array_equal(got_vals, vals[top]), (
                    mode, k, words,
                )


def test_fuzz_maxscore_prune_rank_identity(fuzz_case, request):
    """The TAAT MaxScore pruned path must return the identical top-k
    as the exhaustive scorer on the same random corpora."""
    d, oracle, seed, texts = fuzz_case
    s = Searcher(d)
    queries = [w for w, p in _gen_queries(_test_rng(seed, request), texts)
               if not p][:8]
    for words in queries:
        ids, vals = s.scores_arrays(words, prune=False)
        top = _topk_indices(ids, vals, 10)
        got = s.search(words, k=10, hydrate=False, prune=True)
        assert got["doc_id"].astype(int).tolist() == ids[top].tolist(), (
            words,
        )
