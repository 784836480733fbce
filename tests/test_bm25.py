"""BM25 scoring mode (engine extension; BASELINE metric scorer).
Exact-value conformance runs via the DuckDB oracle (`bm25_search`);
these tests cover engine-level invariants + sharded equivalence."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def idx(ray_session, sf_dir):
    from web_based_search_engine_ray.config import ORACLE_CONFIG
    from web_based_search_engine_ray.registry import get_index

    return get_index(sf_dir, ORACLE_CONFIG)


def test_bm25_basic_properties(idx):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    assert s.avgdl > 0
    res = s.search({"spark", "merge"}, k=20, hydrate=False, mode="bm25")
    assert len(res) > 0
    assert (res["score"] > 0).all()
    # deterministic ordering: score desc, doc_id asc
    sc = res["score"].to_numpy()
    assert (np.diff(sc) <= 1e-12).all()

    # brute-force reference on one doc: recompute from postings
    term = s.stem_query_word("spark")
    ids, ttf, btf = s.postings(term)
    import math

    df = s._lex_entry(term)[0]
    d0 = int(ids[0])
    tf = float(ttf[0] + btf[0])
    pos = np.searchsorted(s._stat_ids, d0)
    K = s.BM25_K1 * (1.0 - s.BM25_B
                     + s.BM25_B * s._n_tokens[pos] / s.avgdl)
    idf = math.log((s.n_docs - df + 0.5) / (df + 0.5) + 1.0)
    expected = idf * (tf * (s.BM25_K1 + 1.0)) / (tf + K)
    single = s.search({"spark"}, k=10**9, hydrate=False, mode="bm25")
    got = float(single.loc[single["doc_id"] == d0, "score"].iloc[0])
    assert got == pytest.approx(expected, rel=1e-12)


def test_bm25_sharded_equivalent(ray_session, tmp_path_factory):
    """Per-shard BM25 top-k merged by the batch merge equals flat BM25:
    every shard Searcher uses the corpus-wide ``avgdl``."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        _merge_query_results,
    )
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    d = str(tmp_path_factory.mktemp("bm25") / "idx")
    build_index(
        lambda: synth_corpus("/root/testdata/sf0.001"), d,
        IndexConfig(doc_shards=4, shuffle_partitions=4),
        input_key="bm25", resume=False,
    )
    flat = Searcher(d)
    shards = [Searcher(d, doc_shard=s) for s in range(4)]
    assert {s.avgdl for s in shards} == {flat.avgdl}
    words = {"spark", "merge"}
    a = flat.search(words, k=20, hydrate=False, mode="bm25")
    b = _merge_query_results(
        [s.search(words, k=20, hydrate=False, mode="bm25").assign(query_id=0)
         for s in shards], 20)
    assert len(a) == 20
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    np.testing.assert_allclose(
        a["score"].to_numpy(np.float64),
        b["score"].to_numpy(np.float64), rtol=1e-12,
    )
