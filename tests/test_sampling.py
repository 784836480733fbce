"""Deterministic sampling/split operators (pipelines.sampling)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_split_buckets_deterministic_and_salted():
    from web_based_search_engine_ray.pipelines.sampling import (
        SPLIT_BUCKETS,
        split_buckets,
    )

    ids = list(range(200))
    a = split_buckets(ids, "v1")
    b = split_buckets(ids, "v1")
    np.testing.assert_array_equal(a, b)
    assert ((a >= 0) & (a < SPLIT_BUCKETS)).all()
    c = split_buckets(ids, "v2")
    assert (a != c).any()  # a new salt re-deals


def test_sql_bucket_parity():
    import duckdb

    from web_based_search_engine_ray.pipelines.sampling import (
        split_buckets,
        sql_bucket_expr,
    )

    ids = list(range(100)) + [10**12, 9_999_999_999]
    py = split_buckets(ids, "v1")
    sql = duckdb.sql(
        f"SELECT {sql_bucket_expr('k', 'v1')} AS b "
        f"FROM (SELECT unnest({ids}) AS k)"
    ).fetchnumpy()["b"]
    np.testing.assert_array_equal(py, sql.astype(np.int64))


def test_hash_split_partitions_cover_and_disjoint(ray_session):
    """``assign_split``'s ``split`` column deals every doc to exactly one
    named split, at the ratios, and growth never moves a doc."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.sampling import assign_split

    ratios = {"train": 0.9, "val": 0.05, "test": 0.05}

    def splits(n: int) -> dict:
        ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(n), pa.int64())}))
        df = assign_split(ds, ratios).to_pandas()
        assert set(df["split"]) <= set(ratios) and len(df) == n
        return {k: set(df.loc[df["split"] == k, "doc_id"]) for k in ratios}

    got = splits(2000)
    all_ids = set(range(2000))
    assert got["train"] | got["val"] | got["test"] == all_ids
    assert not (got["train"] & got["val"])
    assert not (got["train"] & got["test"])
    assert not (got["val"] & got["test"])
    # ratios hold within sampling noise at n=2000
    assert 0.85 < len(got["train"]) / 2000 < 0.95
    # growth stability: adding docs never moves existing assignments
    assert got["train"] == {i for i in splits(3000)["train"] if i < 2000}


def test_sample_fraction_deterministic_subset(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.sampling import sample_fraction

    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(5000), pa.int64())}))
    s1 = set(sample_fraction(ds, 0.1).to_pandas()["doc_id"])
    s2 = set(sample_fraction(ds, 0.1).to_pandas()["doc_id"])
    assert s1 == s2
    assert 0.07 < len(s1) / 5000 < 0.13
    # a larger fraction is a SUPERSET (nested samples — same hash gate)
    s3 = set(sample_fraction(ds, 0.2).to_pandas()["doc_id"])
    assert s1 <= s3


def test_bad_ratios_and_frac_raise():
    from web_based_search_engine_ray.pipelines.sampling import (
        _thresholds,
        sample_fraction,
    )

    with pytest.raises(ValueError, match="sum to 1"):
        _thresholds({"a": 0.5, "b": 0.4})
    with pytest.raises(ValueError, match="frac"):
        sample_fraction(None, 1.5)
