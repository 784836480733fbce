"""MaxScore pruning must be rank-identical to exhaustive scoring for
the returned top-k."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def idx(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.registry import get_index

    return get_index(sf_dir, IndexConfig())


def test_lexicon_has_upper_bounds(idx):
    import os

    import pyarrow.dataset as pads

    lex = pads.dataset(os.path.join(idx, "lexicon"), format="parquet").to_table()
    assert "ub_adj" in lex.column_names
    ub = lex["ub_adj"].to_numpy(zero_copy_only=False)
    assert (ub > 0).all() and (ub <= 1.0).all()  # adjTF/tfMax <= 1


@pytest.mark.parametrize("k", [1, 5, 10, 50])
def test_prune_rank_identical(idx, k):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    for words in [
        {"spark", "merge"},
        {"window", "batch", "stream", "join"},
        {"doc", "fast"},
        {"dup", "slow", "agg", "row", "key", "data"},
    ]:
        full = s.search(words, k=k, hydrate=False)
        pruned = s.search(words, k=k, hydrate=False, prune=True)
        assert full["doc_id"].tolist() == pruned["doc_id"].tolist(), (words, k)
        # both paths fold each doc's partials in sorted-term order
        np.testing.assert_array_equal(
            full["score"].to_numpy(np.float64),
            pruned["score"].to_numpy(np.float64),
        )


def test_segments_carry_block_max_metadata(idx):
    import os

    import pyarrow.dataset as pads

    seg = pads.dataset(
        os.path.join(idx, "segments"), format="parquet", partitioning="hive"
    ).to_table(columns=["ub_run", "df_run"])
    ub = seg["ub_run"].to_numpy(zero_copy_only=False)
    assert (ub > 0).all() and (ub <= 1.0).all()
    assert (seg["df_run"].to_numpy(zero_copy_only=False) > 0).all()


def test_prune_actually_restricts(idx):
    """With small k on a query mixing one rare and several common terms,
    the pruning path must enter restricted mode (observable via fewer
    candidates than exhaustive scoring)."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    words = {"42", "merge", "join", "batch"}  # '42' = rare title term
    full_map = dict(zip(*(a.tolist() for a in s.scores_arrays(words))))
    pruned_map = dict(zip(*(a.tolist() for a in
                            s.scores_arrays(words, k=1, prune=True))))
    top_full = max(full_map.items(), key=lambda kv: (kv[1], -kv[0]))
    top_pruned = max(pruned_map.items(), key=lambda kv: (kv[1], -kv[0]))
    assert top_full == top_pruned
    assert len(pruned_map) <= len(full_map)


@pytest.mark.parametrize("k", [1, 5, 10])
def test_bm25_prune_rank_identical(idx, k):
    """BM25 MaxScore (ub = idf·(k1+1), no norm division) must return
    the exact top-k of exhaustive bm25 scoring."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    for words in [
        {"spark", "merge"},
        {"window", "batch", "stream", "join"},
        {"dup", "slow", "agg", "row", "key", "data"},
    ]:
        full = s.search(words, k=k, hydrate=False, mode="bm25")
        pruned = s.search(words, k=k, hydrate=False, prune=True,
                          mode="bm25")
        assert full["doc_id"].tolist() == pruned["doc_id"].tolist(), (words, k)
        np.testing.assert_array_equal(
            full["score"].to_numpy(np.float64),
            pruned["score"].to_numpy(np.float64),
        )


def test_lexicon_bucket_lazy_load(idx):
    """Searcher must load only the queried terms' lexicon buckets —
    actor RSS independent of total vocabulary."""
    import os

    from web_based_search_engine_ray.pipelines.search import Searcher

    lex_dir = os.path.join(idx, "lexicon")
    assert os.listdir(lex_dir) and all(
        d.startswith("bucket=") for d in os.listdir(lex_dir)
    )
    s = Searcher(idx)
    assert not s._lex_cache
    s.search({"spark", "merge"}, k=5, hydrate=False)
    touched = len(s._lex_cache)
    assert 0 < touched <= 2  # at most one bucket per query term


def test_restricted_partial_bitwise_matches_cached(idx):
    """``_partial_for_candidates`` is the cached partial masked to the
    candidates, bit for bit, in both modes and for both the sparse and
    the densified partial (regression: a separate restricted-phase
    decode once multiplied ``(idf*tf)*(k1+1)`` instead of
    ``idf*(tf*(k1+1))``, so pruned scores differed by ulps)."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    rng = np.random.default_rng(0)
    n = len(s._stat_ids)
    dense_seen = set()
    for word in ("merge", "42"):
        term = s.stem_query_word(word)
        df = s._lex_entry(term)[0]
        for bm25 in (False, True):
            tp = s._term_partial(term, df, bm25)
            if tp[3] is not None:  # densified: the sparse view of it
                pos_c = np.flatnonzero(tp[4])
                part_c = tp[3][pos_c]
            else:
                pos_c, part_c = tp[2], tp[1]
            dense_seen.add(tp[3] is not None)
            touched = rng.random(n) < 0.5
            pos_r, part_r = s._partial_for_candidates(term, df, touched,
                                                      bm25=bm25)
            keep = touched[pos_c]
            assert (pos_r == pos_c[keep]).all() and touched[pos_r].all()
            assert (part_r == part_c[keep]).all(), (
                f"{word} bm25={bm25}: restricted partials not the cached ones"
            )
    assert dense_seen == {False, True}


@pytest.mark.parametrize("mode", ["ref", "bm25"])
def test_pruned_query_decodes_each_term_once(idx, mode):
    """A pruned query that restricts reads every term through the
    decode cache, so running it again on the same Searcher decodes no
    run; both runs return the exhaustive top-1 bit for bit."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    words = {"42", "merge", "join", "batch"}  # '42' = rare title term
    ids_f, vals_f = Searcher(idx).scores_arrays(words, mode=mode)
    top = np.lexsort((ids_f, -vals_f))[:1]
    s = Searcher(idx)
    decoded = []
    for _ in range(2):
        ids, vals = s.scores_arrays(words, k=1, prune=True, mode=mode)
        decoded.append(s.run_stats["decoded"])
        best = np.lexsort((ids, -vals))[:1]
        assert ids[best].tolist() == ids_f[top].tolist()
        assert vals[best].tobytes() == vals_f[top].tobytes()
    assert decoded[0] > 0 and decoded[1] == decoded[0], decoded


def test_search_k0_returns_empty(idx):
    """k=0 must yield empty results on every traversal, not an obscure
    ``np.partition`` ValueError (regression)."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(idx)
    for tr in ("taat", "auto"):
        res = s.search({"spark", "merge"}, k=0, hydrate=False,
                       traversal=tr)
        assert len(res) == 0


def test_choose_traversal_respects_kernel_capacity(idx, monkeypatch):
    """Queries over the compiled kernel's capacity (terms > MAX_TERMS
    or k > MAX_K) must route to TAAT — wand would silently fall back to
    the order-of-magnitude-slower Python pivot walk (regression)."""
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.stages.cwand import (
        MAX_K,
        load_kernel,
    )

    if load_kernel() is None:
        pytest.skip("no C compiler on this host")
    s = Searcher(idx)
    # force the volume/skew/k heuristics open so capacity is the only gate
    monkeypatch.setattr(s, "WAND_AUTO_MIN_VOLUME", 0)
    monkeypatch.setattr(s, "WAND_AUTO_SKEW", 0.0)
    monkeypatch.setattr(s, "WAND_AUTO_K_FACTOR", 0)
    words = ["spark", "merge"]
    assert s.choose_traversal(words, k=10) == "wand"
    assert s.choose_traversal(words, k=MAX_K + 1) == "taat"
