"""Dense-image accumulation (``Searcher._densify_partial``) must be
bit-for-bit identical to the sparse scatter path: the dense add only
introduces ``x + 0.0`` terms (exact identity for the non-negative
partials), and the candidate set comes from the bool mask."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def idx(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.registry import get_index

    return get_index(sf_dir, IndexConfig())


QUERIES = [
    {"spark", "merge"},
    {"window", "batch", "stream", "join"},
    {"the", "data"},          # stopword + dense term
    {"doc"},                  # near-universal (title tokens)
    {"zzz_absent_term"},      # no postings at all
]


@pytest.mark.parametrize("mode", ["ref", "bm25"])
def test_dense_matches_sparse_bitwise(idx, mode):
    from web_based_search_engine_ray.pipelines.search import Searcher

    sparse = Searcher(idx)
    sparse.DENSE_PARTIAL_FRAC = 2.0   # never densify
    dense = Searcher(idx)
    dense.DENSE_PARTIAL_FRAC = 0.0    # always densify

    for words in QUERIES:
        ids_s, val_s = sparse.scores_arrays(words, mode=mode)
        ids_d, val_d = dense.scores_arrays(words, mode=mode)
        np.testing.assert_array_equal(ids_s, ids_d)
        # bit-for-bit: adding 0.0 to a non-negative float is exact
        np.testing.assert_array_equal(val_s, val_d)
        if len(ids_d):
            partials = [v for (kind, _, _), v in dense._cache.items()
                        if kind == "partial"]
            assert (partials and any(
                v is not None and len(v) == 5 and v[3] is not None
                for v in partials
            )), "forced densification did not produce dense images"


def test_dense_prune_restricted_matches(idx):
    """The restricted (MaxScore) branch's masked dense update must agree
    with the sparse hit-update."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    sparse = Searcher(idx)
    sparse.DENSE_PARTIAL_FRAC = 2.0
    dense = Searcher(idx)
    dense.DENSE_PARTIAL_FRAC = 0.0
    for words in [
        {"dup", "slow", "agg", "row", "key", "data"},
        {"spark", "merge", "window"},
    ]:
        for k in (1, 5, 10):
            full = sparse.search(words, k=k, hydrate=False, prune=True)
            d = dense.search(words, k=k, hydrate=False, prune=True)
            assert full["doc_id"].tolist() == d["doc_id"].tolist(), (words, k)
            np.testing.assert_allclose(
                full["score"].to_numpy(np.float64),
                d["score"].to_numpy(np.float64),
                rtol=1e-12,
            )
