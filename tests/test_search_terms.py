"""The Searcher's one term path (stem + lexicon lookup, distinct and
sorted) and its one byte-budgeted decode cache."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

#: docs holding "merge" / "merged" (both stem to "merg") and the rare
#: term: their dfs sum below ``WAND_AUTO_MIN_VOLUME`` (4096) unless the
#: common one is counted twice
N_COMMON, N_RARE = 2100, 300
#: the same pair on a 2-shard index: the corpus-wide volume clears
#: ``WAND_AUTO_MIN_VOLUME`` and each shard's half of it does not
N_WIDE, N_WIDE_RARE = 4200, 400


def _skew_index(tmp_path_factory, texts, name, doc_shards) -> str:
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import (
        build_index,
    )
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    corpus = synth_batch(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    }))
    d = str(tmp_path_factory.mktemp(name))
    build_index(lambda: rd.from_arrow(corpus), d,
                IndexConfig(num_buckets=2, shuffle_partitions=2,
                            doc_shards=doc_shards),
                input_key=name, resume=False)
    return d


@pytest.fixture(scope="module")
def skew_idx(ray_session, tmp_path_factory):
    texts = [("merge merged data" if i % 2 else "merge data")
             if i < N_COMMON else "zlorb data"
             for i in range(N_COMMON + N_RARE)]
    return _skew_index(tmp_path_factory, texts, "skew", 1)


@pytest.fixture(scope="module")
def sharded_skew_idx(ray_session, tmp_path_factory):
    texts = ["merge data" if i < N_WIDE else "zlorb data"
             for i in range(N_WIDE + N_WIDE_RARE)]
    return _skew_index(tmp_path_factory, texts, "sharded_skew", 2)


def test_choose_traversal_counts_each_stem_once(skew_idx):
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.stages.cwand import load_kernel

    if load_kernel() is None:
        pytest.skip("no C compiler: every query routes to TAAT")
    s = Searcher(skew_idx)
    assert s._lex_entry("merg")[0] == N_COMMON
    assert s._lex_entry("zlorb")[0] == N_RARE
    assert N_COMMON + N_RARE < s.WAND_AUTO_MIN_VOLUME <= 2 * N_COMMON
    plain = s.choose_traversal({"merge", "zlorb"}, k=10)
    assert s.choose_traversal({"merge", "merged", "zlorb"}, k=10) == plain
    assert plain == "taat"
    assert s._terms({"merged", "zlorb", "merge", "the"}) == [
        ("merg", N_COMMON, s._lex_entry("merg")[1]),
        ("zlorb", N_RARE, s._lex_entry("zlorb")[1]),
    ]


def test_shard_chooser_reads_shard_local_volume(sharded_skew_idx):
    """A shard walks only its own postings, so its traversal choice
    scales the corpus df by its doc share."""
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.stages.cwand import load_kernel

    if load_kernel() is None:
        pytest.skip("no C compiler: every query routes to TAAT")
    words = {"merge", "zlorb"}
    whole = Searcher(sharded_skew_idx)
    assert N_WIDE + N_WIDE_RARE >= whole.WAND_AUTO_MIN_VOLUME
    assert whole.choose_traversal(words, k=10) == "wand"
    for shard in (0, 1):
        s = Searcher(sharded_skew_idx, doc_shard=shard)
        assert s._lex_entry("merg")[0] == N_WIDE  # df stays corpus-wide
        assert len(s._stat_ids) * 2 == N_WIDE + N_WIDE_RARE
        assert s.choose_traversal(words, k=10) == "taat"
        got = [s.search(words, k=10, hydrate=False, prune=True,
                        traversal=t) for t in ("auto", "wand")]
        assert got[0]["doc_id"].tolist() == got[1]["doc_id"].tolist()


def test_repeated_query_reads_no_lexicon_bucket(skew_idx, monkeypatch):
    """Lexicon entries, absent terms included, are memoized: a repeated
    query looks no stem up again."""
    import pandas as pd

    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(skew_idx)
    words = {"merge", "merged", "zlorb", "data", "qqxyzzy"}
    first = s.search(words, k=10, hydrate=False, traversal="auto")
    assert len(first)
    assert s._lex_entry("qqxyzzy") is None
    calls = []
    real = s._lex_bucket
    monkeypatch.setattr(s, "_lex_bucket",
                        lambda b: calls.append(b) or real(b))
    again = s.search(words, k=10, hydrate=False, traversal="auto")
    assert calls == []
    pd.testing.assert_frame_equal(again, first)


QUERIES = [
    ({"spark", "merge"}, [], "ref", "taat"),
    ({"spark", "merge"}, [], "ref", "wand"),
    ({"window", "batch", "stream", "join"}, [], "bm25", "taat"),
    ({"window", "batch", "stream", "join"}, [], "bm25", "wand"),
    ({"data", "stream"}, [], "ref", "auto"),
    ({"window", "merge", "batch"}, ["merge", "batch"], "ref", "taat"),
    ({"dup", "slow", "agg", "row", "key", "data"}, [], "ref", "taat"),
]


def _run(s):
    return [s.search(words, phrase, k=10, hydrate=False, prune=True,
                     mode=mode, traversal=traversal)
            for words, phrase, mode, traversal in QUERIES]


def test_decode_cache_stays_within_its_byte_budget(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.registry import get_index

    idx = get_index(sf_dir, IndexConfig())
    fresh = Searcher(idx)
    want = _run(fresh)
    small = Searcher(idx)
    small.CACHE_BYTES = fresh._cache_bytes // 3
    for _ in range(2):  # the second pass meets the refused terms again
        for (words, phrase, mode, traversal), w in zip(QUERIES, want):
            got = small.search(words, phrase, k=10, hydrate=False,
                               prune=True, mode=mode, traversal=traversal)
            assert got["doc_id"].tolist() == w["doc_id"].tolist()
            np.testing.assert_array_equal(got["score"].to_numpy(),
                                          w["score"].to_numpy())
            assert small._cache_bytes <= small.CACHE_BYTES
            assert small._cache_bytes == sum(
                a.nbytes for v in small._cache.values() if v
                for a in v if isinstance(a, np.ndarray))
    assert len(small._cache) < len(fresh._cache)  # some were refused
