"""The broker's per-query top-k merge against a pandas reference."""

import numpy as np
import pandas as pd
import pytest

from web_based_search_engine_ray.pipelines.search import _merge_query_results


def _reference_merge(parts: list[pd.DataFrame], k: int) -> pd.DataFrame:
    """Concat, sort the non-NaN rows by (query_id, score desc, doc_id),
    append the NaN rows by (query_id, doc_id), stable-sort by query_id
    and cut each query at rank k."""
    if not parts:
        return pd.DataFrame(columns=["query_id", "rank", "doc_id", "score"])
    merged = pd.concat(parts, ignore_index=True)
    nan = merged["score"].isna()
    merged = pd.concat(
        [
            merged[~nan].sort_values(
                ["query_id", "score", "doc_id"],
                ascending=[True, False, True],
            ),
            merged[nan].sort_values(["query_id", "doc_id"]),
        ],
        ignore_index=True,
    )
    merged = merged.sort_values("query_id", kind="stable", ignore_index=True)
    merged["rank"] = merged.groupby("query_id").cumcount()
    merged = merged[merged["rank"] < k].reset_index(drop=True)
    merged["doc_id"] = merged["doc_id"].astype(np.int64)
    return merged[["query_id", "rank", "doc_id", "score"]]


def _random_parts(rng) -> list[pd.DataFrame]:
    # few distinct scores and doc ids so ties, NaN and ±0.0 collide
    pool = np.array([np.nan, 0.0, -0.0, 0.5, 0.5, 1.25, -3.0, 7.0])
    parts = []
    for _ in range(rng.integers(1, 4)):
        n = int(rng.integers(0, 12))
        parts.append(pd.DataFrame({
            "query_id": rng.integers(0, 4, n).astype(np.int64),
            "doc_id": rng.integers(0, 9, n).astype(np.int64),
            "score": rng.choice(pool, n),
        }))
    return parts


def test_merge_matches_pandas_reference_on_random_parts():
    rng = np.random.default_rng(11)
    for _ in range(600):
        parts = _random_parts(rng)
        k = int(rng.integers(0, 6))
        got = _merge_query_results(parts, k)
        want = _reference_merge(parts, k)
        pd.testing.assert_frame_equal(got, want)
        # the sign of a zero score survives the merge
        assert np.array_equal(np.signbit(got["score"].to_numpy()),
                              np.signbit(want["score"].to_numpy()))


@pytest.mark.parametrize("k", [1, 10])
def test_merge_orders_nan_last_and_ties_by_doc_id(k):
    parts = [
        pd.DataFrame({"query_id": [0, 0, 1], "doc_id": [5, 3, 2],
                      "score": [np.nan, 1.0, 2.0]}),
        pd.DataFrame({"query_id": [0, 1, 0], "doc_id": [1, 9, 4],
                      "score": [1.0, np.nan, 3.0]}),
    ]
    got = _merge_query_results(parts, k)
    pd.testing.assert_frame_equal(got, _reference_merge(parts, k))
    if k == 10:
        assert got["doc_id"].tolist() == [4, 1, 3, 5, 2, 9]
        assert got["rank"].tolist() == [0, 1, 2, 3, 0, 1]


def test_merge_of_no_parts_is_the_empty_frame():
    pd.testing.assert_frame_equal(
        _merge_query_results([], 10), _reference_merge([], 10)
    )
