"""The index's parquet write policy: every file of the four stage dirs is
zstd-compressed and carries min/max statistics only for the columns a
reader filters on (segments ``term``, extracted ``tf_max``); an index
whose files were written with Arrow's defaults (snappy, statistics on
every column) still searches and updates the same; and the build report
gives each stage's bytes on disk."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from test_fuzz_update_chain import _assert_index_equal
from test_update_index import _web

#: the columns each stage's readers filter on
FILTER_COLUMNS = {
    "extracted": {"tf_max"},
    "segments": {"term"},
    "lexicon": set(),
    "docstats": set(),
}
QUERIES = ["spark merge", "data", "window stream", 'merge "spark merge"',
           "relational join filter", '"batch window"', "zlorbnotaword"]


def _base_corpus(sf_dir):
    """sf0.001 plus an older second row for doc 3's url (doc shard 1),
    so the build's LWW check compacts shard 1."""
    import ray.data as rd

    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    return synth_corpus(sf_dir).union(
        rd.from_arrow(_web([3], ["stale copy of three"], days=-1)))


def _snapshot(sf_dir):
    """The base corpus with doc 4 rewritten twice (two newer rows for one
    url, so the update's LWW check compacts shard 0) and a new doc."""
    import ray.data as rd

    return _base_corpus(sf_dir).union(rd.from_arrow(pa.concat_tables([
        _web([4], ["older rewrite of four"], days=1),
        _web([4], ["newest rewrite of four spark"], days=2),
        _web([1000], ["brand new spark document"]),
    ])))


def _cfg():
    from web_based_search_engine_ray.config import IndexConfig

    return IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)


def _parquet_files(idx: str, stage: str) -> list[str]:
    return sorted(os.path.join(d, f)
                  for d, _, fs in os.walk(os.path.join(idx, stage))
                  for f in fs if f.endswith(".parquet"))


def _du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("policy")


@pytest.fixture(scope="module")
def built(ray_session, root, sf_dir):
    """An sf0.001 index whose build compacted a repeated url, and its
    build report."""
    from web_based_search_engine_ray.pipelines.build_index import build_index

    idx = str(root / "built")
    report = build_index(lambda: _base_corpus(sf_dir), idx, _cfg(),
                         input_key="p1", resume=False)
    return idx, report


@pytest.fixture(scope="module")
def updated(built, root, sf_dir):
    """A copy of ``built`` after an update with a repeated fresh url, its
    update report, and a fresh build of the same snapshot."""
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import update_index

    idx, full = str(root / "updated"), str(root / "full")
    shutil.copytree(built[0], idx)
    report = update_index(lambda: _snapshot(sf_dir), idx, _cfg(),
                          input_key="p2")
    build_index(lambda: _snapshot(sf_dir), full, _cfg(), input_key="p2-full",
                resume=False)
    return idx, report, full


@pytest.fixture(scope="module")
def legacy(built, root):
    """A copy of ``built`` with every parquet file re-encoded with Arrow's
    defaults, as indexes of this format written before the policy are."""
    idx = str(root / "legacy")
    shutil.copytree(built[0], idx)
    for stage in FILTER_COLUMNS:
        for f in _parquet_files(idx, stage):
            t = pq.ParquetFile(f).read()
            pq.write_table(t, f)
            meta = pq.read_metadata(f)
            for i in range(meta.num_row_groups):
                for j in range(meta.num_columns):
                    assert meta.row_group(i).column(j).compression == "SNAPPY"
    return idx


@pytest.mark.parametrize("which", ["built", "updated"])
def test_index_files_follow_the_write_policy(which, built, updated):
    """Every parquet file the five index writers leave (partitioned
    extracted write, LWW compaction, segments, lexicon, docstats), in
    a build and after an update, is zstd with statistics only on its
    stage's filter columns."""
    idx = {"built": built, "updated": updated}[which][0]
    # both LWW compactions wrote a file: the build's in shard 1, the
    # update's in shard 0 (shard 1 is untouched by the update)
    compacted = {os.path.basename(os.path.dirname(f))
                 for f in _parquet_files(idx, "extracted")
                 if f.endswith("lww-compacted.parquet")}
    assert compacted == ({"doc_shard=1"} if which == "built"
                         else {"doc_shard=0", "doc_shard=1"})
    for stage, want in FILTER_COLUMNS.items():
        files = _parquet_files(idx, stage)
        assert files, stage
        for f in files:
            meta = pq.read_metadata(f)
            for i in range(meta.num_row_groups):
                rg = meta.row_group(i)
                cols = [rg.column(j) for j in range(meta.num_columns)]
                assert {c.compression for c in cols} == {"ZSTD"}, f
                assert {c.path_in_schema for c in cols
                        if c.is_stats_set} == want, f


def test_arrow_default_files_search_the_same(built, legacy):
    """readers project columns and take any codec: the re-encoded
    index's result and hydrated frames equal the original's."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    a, b = Searcher(built[0]), Searcher(legacy)
    ra, rb = a.search_many(QUERIES, k=10**9), b.search_many(QUERIES, k=10**9)
    assert len(ra)
    assert ra.equals(rb)
    top = ra[ra.query_id == 0].head(10)[["doc_id", "score"]]
    assert a.hydrate(top).equals(b.hydrate(top))


def test_arrow_default_files_update_like_a_fresh_build(legacy, updated, root,
                                                       sf_dir):
    """An update of the re-encoded index equals a fresh build of the new
    snapshot: lexicon, docstats, extracted lists and searches."""
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import update_index

    full = updated[2]
    idx = str(root / "legacy_updated")
    shutil.copytree(legacy, idx)
    report = update_index(lambda: _snapshot(sf_dir), idx, _cfg(),
                          input_key="p2")
    assert report["update"]["fresh_docs"] == 2
    _assert_index_equal(idx, full, "arrow-default index")
    ra = Searcher(idx).search_many(QUERIES, k=10**9)
    assert ra.equals(Searcher(full).search_many(QUERIES, k=10**9))


@pytest.mark.parametrize("which", ["built", "updated"])
def test_report_gives_stage_bytes(which, built, updated):
    """Each report stage entry, in the returned report and in
    ``meta.json``, gives the bytes of every file in its stage dir; the
    update's extracted entry is a resumed stage and gives them too."""
    idx, report = {"built": built, "updated": updated}[which][:2]
    with open(os.path.join(idx, "meta.json")) as f:
        meta = json.load(f)
    assert meta["stages"] == report["stages"]
    names = [s["name"] for s in report["stages"]]
    assert names == list(FILTER_COLUMNS)
    for s in report["stages"]:
        assert s["bytes"] == _du(os.path.join(idx, s["name"])) > 0, s
    if which == "updated":
        assert report["stages"][0]["skipped"]
