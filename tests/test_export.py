"""Partitioned training-export sink round-trips."""

import glob
import json
import os

import pyarrow as pa
import pytest
import ray.data as rd

from web_based_search_engine_ray.pipelines.export import export_dataset


def _docs():
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(100), type=pa.int64()),
                "lang": pa.array(
                    ["en" if i % 3 else "fr" for i in range(100)],
                    type=pa.string(),
                ),
                "text": pa.array(
                    [f"doc number {i}" for i in range(100)],
                    type=pa.string(),
                ),
            }
        )
    )


def test_partitioned_parquet_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "parq")
    m = export_dataset(_docs(), out, fmt="parquet", partition_col="lang")
    assert m["partitions"] == {"en": 66, "fr": 34}
    assert m["total_rows"] == 100
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        assert json.load(f)["partitions"]["fr"] == 34
    # hive dirs exist and prune correctly
    assert os.path.isdir(os.path.join(out, "lang=fr"))
    back = rd.read_parquet(os.path.join(out, "lang=fr"))
    df = back.to_pandas()
    assert len(df) == 34
    assert set(df["doc_id"]) == {i for i in range(100) if i % 3 == 0}


def test_partitioned_jsonl_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "jl")
    m = export_dataset(_docs(), out, fmt="jsonl", partition_col="lang")
    assert m["partitions"] == {"en": 66, "fr": 34}
    files = glob.glob(os.path.join(out, "lang=en", "*"))
    assert files
    back = rd.read_json(os.path.join(out, "lang=en"))
    assert back.count() == 66
    assert set(back.to_pandas()["lang"]) == {"en"}


def test_unpartitioned_and_guard(ray_session, tmp_path):
    out = str(tmp_path / "flat")
    m = export_dataset(_docs(), out, fmt="jsonl")
    assert m["partitions"] == {"_all": 100}
    with pytest.raises(ValueError, match="fmt"):
        export_dataset(_docs(), out, fmt="csv")


def test_partitioned_jsonl_int_partition_col(ray_session, tmp_path):
    """Int partition values must be rendered as unquoted literals —
    a quoted '3' against an int64 column yields empty partitions."""
    import pyarrow as pa
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.export import export_dataset

    ds = rd.from_arrow(pa.table(
        {
            "doc_id": pa.array(range(30), type=pa.int64()),
            "shard": pa.array([i % 3 for i in range(30)], type=pa.int64()),
        }
    ))
    out = str(tmp_path / "jsonl_int")
    m = export_dataset(ds, out, fmt="jsonl", partition_col="shard")
    assert m["partitions"] == {"0": 10, "1": 10, "2": 10}
    assert m["total_rows"] == 30
