"""The files each index stage leaves on disk: one parquet file per
partition, a lexicon file for every term bucket (typed and empty when
the bucket has no term), a docstats file for every doc shard (typed and
empty when the shard has no doc), and lexicon bucket and docstats shard
tasks that converge on the same file when re-run."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _parquet_files(d: str) -> list[str]:
    return sorted(f for f in os.listdir(d) if f.endswith(".parquet"))


def _partitions(stage_dir: str, depth: int) -> list[str]:
    """The partition dirs ``depth`` levels below ``stage_dir``."""
    dirs = [stage_dir]
    for _ in range(depth):
        dirs = [os.path.join(d, e) for d in dirs for e in sorted(os.listdir(d))
                if os.path.isdir(os.path.join(d, e))]
    return dirs


@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    cfg = IndexConfig(shuffle_partitions=4, num_buckets=4, doc_shards=2)
    idx = str(tmp_path_factory.mktemp("files") / "idx")
    build_index(lambda: synth_corpus(sf_dir), idx, cfg, input_key="files",
                resume=False)
    return idx


@pytest.mark.parametrize("stage, names", [
    ("extracted", ["doc_shard"]),
    ("docstats", ["doc_shard"]),
    ("segments", ["doc_shard", "bucket"]),
    ("lexicon", ["bucket"]),
])
def test_one_file_per_partition(small_index, stage, names):
    stage_dir = os.path.join(small_index, stage)
    parts = _partitions(stage_dir, len(names))
    assert len(parts) == 2 ** names.count("doc_shard") * 4 ** names.count(
        "bucket"), parts
    for d in parts:
        keys = [c.split("=")[0]
                for c in os.path.relpath(d, stage_dir).split(os.sep)]
        assert keys == names, d
        assert len(_parquet_files(d)) == 1, d


def test_lexicon_bucket_task_rerun_changes_nothing(small_index, tmp_path):
    """A retried bucket task (run here twice, without Ray) leaves one
    file with the same table, which is the built lexicon's bucket."""
    from web_based_search_engine_ray.pipelines.build_index import (
        _lexicon_bucket_task,
    )

    seg, out = os.path.join(small_index, "segments"), str(tmp_path / "lex")
    d = os.path.join(out, "bucket=1")
    _lexicon_bucket_task(1, seg, out)
    first = pq.read_table(d)
    _lexicon_bucket_task(1, seg, out)
    assert _parquet_files(d) == ["part-0.parquet"]
    assert first.num_rows > 0
    assert pq.read_table(d).equals(first)
    built = pq.read_table(os.path.join(small_index, "lexicon", "bucket=1"))
    assert built.sort_by("term").equals(first.sort_by("term"))


def test_one_doc_build_writes_every_lexicon_bucket(ray_session, tmp_path):
    """With 8 buckets and one doc most buckets hold no term: each still
    gets a typed empty file, and search finds the doc's term."""
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import (
        _LEXICON_SCHEMA,
        build_index,
    )
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    web = synth_batch(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["solitary"]),
        "lang": pa.array(["en"]),
    }))
    idx = str(tmp_path / "idx")
    build_index(lambda: rd.from_arrow(web), idx,
                IndexConfig(num_buckets=8), input_key="one", resume=False)
    lex = os.path.join(idx, "lexicon")
    parts = _partitions(lex, 1)
    assert [os.path.basename(d) for d in parts] == [
        f"bucket={b}" for b in range(8)
    ]
    sizes = []
    for d in parts:
        assert _parquet_files(d) == ["part-0.parquet"]
        t = pq.read_table(os.path.join(d, "part-0.parquet"))
        assert t.schema.equals(_LEXICON_SCHEMA)
        sizes.append(t.num_rows)
    assert 0 in sizes and sum(sizes) > 0, sizes
    res = Searcher(idx).search({"solitary"}, k=5, hydrate=False)
    assert res["doc_id"].tolist() == [0]


#: docstats rows (sorted by doc_id) of ``small_index``, and its
#: ``_STATS.json``
DOCSTATS_SF0001_DIGEST = (
    "2e665b877582badc553a60c85f2d7a90be541554ef9b5729c8a5e8aef8bbe619"
)
STATS_SF0001 = {"total_tokens": 22438, "n_docs": 500}


def _docstats_digest(table: pa.Table) -> str:
    import hashlib

    from web_based_search_engine_ray.stages.postings import DOCSTATS_SCHEMA

    h = hashlib.sha256()
    rows = table.sort_by("doc_id").select(DOCSTATS_SCHEMA.names)
    for row in rows.to_pylist():
        h.update(repr(tuple(row.values())).encode())
    return h.hexdigest()


def test_docstats_pinned(small_index):
    """docstats rows and ``_STATS.json`` hash to the pinned values, and
    each doc shard's file holds only that shard's docs."""
    import json

    import pyarrow.dataset as pads

    d = os.path.join(small_index, "docstats")
    t = pads.dataset(d, format="parquet", partitioning="hive").to_table()
    assert _docstats_digest(t) == DOCSTATS_SF0001_DIGEST, t.num_rows
    with open(os.path.join(d, "_STATS.json")) as f:
        assert json.load(f) == STATS_SF0001
    for s in (0, 1):
        assert _parquet_files(os.path.join(d, f"doc_shard={s}")) == [
            "part-0.parquet"
        ]
        ids = pq.read_table(os.path.join(d, f"doc_shard={s}"),
                            columns=["doc_id"])["doc_id"].to_numpy()
        assert len(ids) and (ids % 2 == s).all()


def test_docstats_shard_task_rerun_changes_nothing(small_index, tmp_path):
    """A retried docstats shard task (run here twice, without Ray)
    leaves one file with the same table, which is the built docstats'
    shard; a shard with no extracted file gets a typed empty file."""
    from web_based_search_engine_ray.pipelines.build_index import (
        _docstats_shard_task,
    )
    from web_based_search_engine_ray.stages.postings import DOCSTATS_SCHEMA

    lex = pq.read_table(os.path.join(small_index, "lexicon"),
                        columns=["term", "df"])
    df = (dict(zip(lex["term"].to_pylist(), lex["df"].to_pylist())),)
    ext, out = os.path.join(small_index, "extracted"), str(tmp_path / "st")
    n_docs = STATS_SF0001["n_docs"]
    d = os.path.join(out, "doc_shard=1")
    first_totals = _docstats_shard_task(1, ext, out, n_docs, df)
    first = pq.read_table(d)
    assert _docstats_shard_task(1, ext, out, n_docs, df) == first_totals
    assert _parquet_files(d) == ["part-0.parquet"]
    assert first.num_rows == first_totals[0] > 0
    assert first_totals[1] == int(first["n_tokens"].to_numpy().sum())
    assert pq.read_table(d).equals(first)
    built = pq.read_table(os.path.join(small_index, "docstats", "doc_shard=1"))
    assert built.sort_by("doc_id").equals(first.sort_by("doc_id"))

    assert _docstats_shard_task(2, ext, out, n_docs, df) == (0, 0)
    empty = pq.read_table(os.path.join(out, "doc_shard=2", "part-0.parquet"))
    assert empty.num_rows == 0 and empty.schema.equals(DOCSTATS_SCHEMA)
