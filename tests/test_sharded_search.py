"""Doc-partitioned index + scatter-gather search must be result-
identical to the single-partition engine on the same corpus."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    sf = "/root/testdata/sf0.001"
    base = tmp_path_factory.mktemp("sharded")
    flat_dir = str(base / "flat")
    shard_dir = str(base / "sharded")
    common = dict(
        shuffle_partitions=4,
    )
    build_index(
        lambda: synth_corpus(sf), flat_dir,
        IndexConfig(**common), input_key="flat", resume=False,
    )
    build_index(
        lambda: synth_corpus(sf), shard_dir,
        IndexConfig(doc_shards=4, **common), input_key="shard", resume=False,
    )
    return flat_dir, shard_dir


def test_sharded_build_partitions_exist(indexes):
    import os

    _, shard_dir = indexes
    parts = sorted(os.listdir(os.path.join(shard_dir, "segments")))
    assert parts == [f"doc_shard={i}" for i in range(4)]
    # docstats is partitioned the same way, so a shard Searcher loads
    # only its 1/shards slice of doc state
    sparts = sorted(
        p for p in os.listdir(os.path.join(shard_dir, "docstats"))
        if p.startswith("doc_shard=")
    )
    assert sparts == [f"doc_shard={i}" for i in range(4)]


def test_unsharded_index_is_one_partition(indexes):
    """``doc_shards=1`` is the single partition ``doc_shard=0`` of every
    sharded stage — one layout for every shard count — and the index
    holds the four stages."""
    import os

    from web_based_search_engine_ray.pipelines.build_index import STAGES

    flat_dir, _ = indexes
    assert {e for e in os.listdir(flat_dir)
            if os.path.isdir(os.path.join(flat_dir, e))
            and e[0] != "_"} == set(STAGES)
    for stage in ("extracted", "segments", "docstats"):
        parts = sorted(
            e for e in os.listdir(os.path.join(flat_dir, stage))
            if not e.startswith("_")  # docstats/_STATS.json
        )
        assert parts == ["doc_shard=0"], (stage, parts)


def _assert_matches_flat(batch, flat, queries, k):
    """``batch`` (query_id, rank, doc_id, score) equals per-query flat
    ``Searcher.search``: same ids in rank order, scores to 1e-12."""
    from web_based_search_engine_ray.pipelines.search import parse_query

    assert set(batch.columns) == {"query_id", "rank", "doc_id", "score"}
    assert set(batch["query_id"]) <= set(range(len(queries)))
    for qid, q in enumerate(queries):
        got = batch[batch.query_id == qid].sort_values("rank")
        assert got["rank"].tolist() == list(range(len(got))), q
        want = flat.search(*parse_query(q), k=k, hydrate=False)
        assert got["doc_id"].tolist() == want["doc_id"].tolist(), q
        np.testing.assert_allclose(
            got["score"].to_numpy(np.float64),
            want["score"].to_numpy(np.float64), rtol=1e-12,
        )


def test_batch_search_replica_slices(indexes):
    """The replica count only changes how the batch is split: each ring
    takes one contiguous slice.  replicas=2 (uneven slices, shifted
    query ids) equals replicas=1, and both equal per-query flat search;
    so does a batch smaller than the ring count (one ring idle)."""
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        ShardedSearcher,
    )

    flat_dir, shard_dir = indexes
    flat = Searcher(flat_dir)
    queries = ["spark merge", '"batch batch" window', "doc table",
               "key fast join", "zzznope"]
    frames = {}
    for replicas in (1, 2):
        sharded = ShardedSearcher(shard_dir, num_cpus_per_shard=0.25,
                                  replicas=replicas)
        try:
            frames[replicas] = sharded.batch_search(queries, k=10)
            if replicas == 2:
                tiny = sharded.batch_search(queries[:1], k=10)
        finally:
            sharded.shutdown()
    pd.testing.assert_frame_equal(frames[1], frames[2])
    _assert_matches_flat(frames[2], flat, queries, 10)
    _assert_matches_flat(tiny, flat, queries[:1], 10)
    pd.testing.assert_frame_equal(
        tiny, frames[1][frames[1].query_id == 0].reset_index(drop=True))


@pytest.fixture(scope="module")
def sparse_index(ray_session, tmp_path_factory):
    """More doc shards than documents: shards 5-7 get no documents."""
    import pyarrow as pa
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    texts = ["spark merge join", "merge window stream", "batch batch window",
             "spark table scan", "doc table merge"]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    })
    corpus = synth_batch(docs)
    d = str(tmp_path_factory.mktemp("sparse_shards"))
    build_index(
        lambda: rd.from_arrow(corpus), d,
        IndexConfig(doc_shards=8, num_buckets=2, shuffle_partitions=2),
        input_key="sparse", resume=False,
    )
    return d


def test_empty_shard_loads_no_stats(sparse_index):
    import os

    import pyarrow.parquet as pq

    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.stages.postings import DOCSTATS_SCHEMA

    # a shard that got no documents holds one typed, empty file
    part = os.path.join(sparse_index, "docstats", "doc_shard=7",
                        "part-0.parquet")
    empty_part = pq.read_table(part)
    assert empty_part.num_rows == 0
    assert empty_part.schema.equals(DOCSTATS_SCHEMA)
    empty = Searcher(sparse_index, doc_shard=7)
    assert len(empty._stat_ids) == 0 and len(empty._n_tokens) == 0
    assert empty.search({"spark", "merge"}, k=10, hydrate=False).empty
    assert len(Searcher(sparse_index, doc_shard=1)._stat_ids) == 1
    assert len(Searcher(sparse_index)._stat_ids) == 5


def test_batch_search_with_empty_shards_matches_flat(sparse_index):
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        ShardedSearcher,
    )

    flat = Searcher(sparse_index)
    sharded = ShardedSearcher(sparse_index, num_cpus_per_shard=0.25)
    try:
        queries = ["spark merge", '"batch window"', "table", "zzznope",
                   "merge window doc"]
        res = sharded.batch_search(queries, k=10)
        assert len(res) > 0
        _assert_matches_flat(res, flat, queries, 10)
    finally:
        sharded.shutdown()


def test_sharded_results_identical(indexes):
    """``batch_search`` over 4 doc shards, plain and quoted-phrase
    queries at k=20, equals per-query flat search, in the merged
    frame's columns and dtypes."""
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        ShardedSearcher,
    )

    flat_dir, shard_dir = indexes
    flat = Searcher(flat_dir)
    sharded = ShardedSearcher(shard_dir)
    try:
        queries = ["spark merge", 'window "batch batch"', '"spark merge"',
                   "doc table", '"zzznope merge"', "zzznope"]
        bs = sharded.batch_search(queries, k=20)
        assert list(bs.columns) == ["query_id", "rank", "doc_id", "score"]
        assert bs.dtypes.tolist() == [np.int64, np.int64, np.int64,
                                      np.float64]
        _assert_matches_flat(bs, flat, queries, 20)
        assert set(bs["query_id"]) == {0, 1, 2, 3}
    finally:
        sharded.shutdown()


def test_shard_restricted_searcher_is_partition(indexes):
    from web_based_search_engine_ray.pipelines.search import Searcher

    _, shard_dir = indexes
    full = Searcher(shard_dir)
    all_ids = set(full.search({"merge"}, k=10**9, hydrate=False)["doc_id"])
    union = set()
    for s in range(4):
        part = Searcher(shard_dir, doc_shard=s)
        ids = set(part.search({"merge"}, k=10**9, hydrate=False)["doc_id"])
        assert all(i % 4 == s for i in ids)
        union |= ids
    assert union == all_ids


def test_batch_search_survives_shard_actor_death(indexes):
    """A shard actor that dies is restarted and its calls retried, so a
    batch equals the pre-kill frame instead of failing with
    ``RayActorError``: whether the kill lands between batches or while
    a batch is in flight."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    import ray

    from web_based_search_engine_ray.pipelines.search import ShardedSearcher

    _, shard_dir = indexes
    sharded = ShardedSearcher(shard_dir, num_cpus_per_shard=0.5)
    try:
        queries = ["spark merge", '"batch batch" window', "doc table"]
        before = sharded.batch_search(queries, k=10)
        ray.kill(sharded.shard_actors()[1], no_restart=False)
        after = sharded.batch_search(queries, k=10)
        pd.testing.assert_frame_equal(before, after)

        # mid-batch: the kill is sent a quarter of a warm batch's wall
        # time after the batch starts in a second thread
        batch = queries * 1000
        sharded.batch_search(batch, k=10)  # warm every shard's cache
        t0 = time.perf_counter()
        before = sharded.batch_search(batch, k=10)
        kill_delay = (time.perf_counter() - t0) / 4

        def timed_batch():
            t = time.perf_counter()
            return sharded.batch_search(batch, k=10), time.perf_counter() - t

        with ThreadPoolExecutor(1) as pool:
            fut = pool.submit(timed_batch)
            time.sleep(kill_delay)
            ray.kill(sharded.shard_actors()[1], no_restart=False)
            after, wall = fut.result(timeout=300)
        assert wall > kill_delay, "the batch ended before the kill"
        pd.testing.assert_frame_equal(before, after)
    finally:
        sharded.shutdown()
