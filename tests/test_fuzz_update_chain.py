"""Chained randomized incremental updates: a seeded sequence of
random deltas (modify / add / remove / resurrect / no-op) applied
through ``update_index`` must keep the index value-identical to a
FRESH BUILD of each snapshot — lexicon, docstats and extracted's
forward lists frame-equal, searches rank- and score-identical.  This
adversarially exercises the cross-round state machine (per-shard
content tokens, stage manifests, doc-shard pruning, full-sync
deletion) that the fixed single-delta tests in ``test_update_index.py``
cannot vary.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.sources.webcorpus import (
    EPOCH,
    doc_url,
    make_html,
)

_VOCAB = (
    ["the", "of", "and", "data", "spark", "merge"] * 4
    + ["running", "connected", "this", "metre", "relational",
       "window", "stream", "batch", "filter", "sorted"]
    + ["qux", "zlorb", "vextrine", "wumpus"]
)


def _snapshot_table(truth: dict[int, tuple[str, int]]) -> pa.Table:
    """truth: doc_id -> (text, ts_bump_seconds) → input-hint table."""
    ids = sorted(truth)
    texts = [truth[i][0] for i in ids]
    bumps = np.array([truth[i][1] for i in ids], dtype="timedelta64[s]")
    arr = np.array(ids, dtype=np.int64)
    warc_ts = (
        EPOCH
        + arr.astype("timedelta64[s]").astype("timedelta64[us]")
        + bumps.astype("timedelta64[us]")
    )
    return pa.table(
        {
            "url": pa.array([doc_url(i) for i in ids], pa.string()),
            "warc_ts": pa.array(warc_ts, type=pa.timestamp("us")),
            "html": pa.array(
                [make_html(i, t) for i, t in zip(ids, texts)],
                type=pa.binary(),
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
        }
    )


def _rand_text(rng: random.Random) -> str:
    return " ".join(
        rng.choice(_VOCAB) for _ in range(rng.choice([1, 3, 6, 12, 24]))
    )


def _tbl(d: str, name: str) -> pd.DataFrame:
    return (
        pads.dataset(os.path.join(d, name), format="parquet",
                     partitioning="hive")
        .to_table()
        .to_pandas()
    )


def _assert_index_equal(inc_dir: str, full_dir: str, label: str):
    li = _tbl(inc_dir, "lexicon").sort_values("term").reset_index(drop=True)
    lf = _tbl(full_dir, "lexicon").sort_values("term").reset_index(drop=True)
    pd.testing.assert_frame_equal(li, lf, obj=f"{label} lexicon")
    si = (
        _tbl(inc_dir, "docstats").sort_values("doc_id")
        .reset_index(drop=True)
    )
    sf = (
        _tbl(full_dir, "docstats").sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(si, sf, obj=f"{label} docstats")
    # stored rows carry their forward lists through updates: they must
    # equal a fresh analysis of the snapshot
    cols = ["doc_id", "terms", "title_tfs", "body_tfs", "tf_max"]
    ei, ef = (
        _tbl(d, "extracted")[cols].sort_values("doc_id")
        .reset_index(drop=True)
        for d in (inc_dir, full_dir)
    )
    pd.testing.assert_frame_equal(ei, ef, obj=f"{label} extracted lists")


def _assert_search_equal(inc_dir, full_dir, rng, label):
    from web_based_search_engine_ray.pipelines.search import Searcher

    a, b = Searcher(inc_dir), Searcher(full_dir)
    for _ in range(6):
        words = {rng.choice(_VOCAB) for _ in range(rng.randint(1, 4))}
        ra = a.search(words, k=10**9, hydrate=False)
        rb = b.search(words, k=10**9, hydrate=False)
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), (
            label, words,
        )
        np.testing.assert_allclose(
            ra["score"].to_numpy(np.float64),
            rb["score"].to_numpy(np.float64),
            rtol=1e-12, err_msg=f"{label} {words}",
        )


@pytest.mark.parametrize("seed", [7])
def test_update_chain_matches_fresh_rebuilds(
    seed, ray_session, tmp_path_factory
):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import update_index

    rng = random.Random(seed)
    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    base = tmp_path_factory.mktemp(f"updchain{seed}")
    inc_dir = str(base / "incremental")

    truth: dict[int, tuple[str, int]] = {
        i: (_rand_text(rng), 0) for i in range(80)
    }
    removed_once: list[int] = []
    next_id = 1000

    snap = _snapshot_table(truth)
    build_index(lambda: rd.from_arrow(snap), inc_dir, cfg,
                input_key="v0", resume=False)
    # the index's current view: doc_id -> ts bump it was indexed at
    indexed_ts = {i: b for i, (_, b) in truth.items()}

    for rnd in range(1, 4):
        if rnd == 2:
            pass  # empty delta round: snapshot unchanged
        else:
            ids = sorted(truth)
            # modify ~10% (newer ts; docs modified in earlier rounds
            # can be hit again — cumulative edits)
            for i in rng.sample(ids, max(1, len(ids) // 10)):
                truth[i] = (_rand_text(rng), truth[i][1] + rnd * 3600)
            # add brand-new docs (fresh id range → possibly new shards)
            for _ in range(rng.randint(2, 5)):
                truth[next_id] = (_rand_text(rng), 0)
                next_id += 1
            # remove a few (full-sync deletion; may hit a doc that was
            # modified or added THIS round — the freshness count must
            # reflect the final snapshot, not the edit log)
            for i in rng.sample(sorted(truth), 3):
                removed_once.append(i)
                del truth[i]
            # round 3: resurrect a doc removed earlier, newer ts
            if rnd == 3 and removed_once:
                back = removed_once.pop(0)
                truth[back] = (_rand_text(rng), 7200 * rnd)

        # fresh = in the snapshot but unseen-or-newer vs the index
        # (freshness is keyed on warc_ts; every edit above bumps it)
        expected_fresh = sum(
            1 for i, (_, b) in truth.items()
            if indexed_ts.get(i) != b
        )
        snap = _snapshot_table(truth)
        report = update_index(
            lambda: rd.from_arrow(snap), inc_dir, cfg,
            input_key=f"v{rnd}", remove_missing=True,
        )
        assert report["update"]["fresh_docs"] == expected_fresh, rnd
        assert report["n_docs"] == len(truth), rnd
        indexed_ts = {i: b for i, (_, b) in truth.items()}

        full_dir = str(base / f"full{rnd}")
        build_index(lambda: rd.from_arrow(snap), full_dir, cfg,
                    input_key=f"v{rnd}-full", resume=False)
        _assert_index_equal(inc_dir, full_dir, f"round {rnd}")
        _assert_search_equal(inc_dir, full_dir, rng, f"round {rnd}")


def test_update_without_remove_missing_keeps_vanished_docs(
    ray_session, tmp_path_factory
):
    """Reference semantics (``remove_missing=False``): urls absent from
    the new snapshot stay indexed forever."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import update_index

    rng = random.Random(13)
    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    d = str(tmp_path_factory.mktemp("updkeep") / "idx")
    truth = {i: (_rand_text(rng), 0) for i in range(40)}
    truth[39] = ("wumpus zlorb vextrine", 0)  # uniquely findable
    snap = _snapshot_table(truth)
    build_index(lambda: rd.from_arrow(snap), d, cfg,
                input_key="k0", resume=False)

    del truth[39]  # vanishes from the snapshot
    truth[0] = (truth[0][0] + " updatedtoken", 3600)
    snap2 = _snapshot_table(truth)
    report = update_index(lambda: rd.from_arrow(snap2), d, cfg,
                          input_key="k1", remove_missing=False)
    assert report["n_docs"] == 40  # nothing deleted
    s = Searcher(d)
    hits = s.search({"wumpus"}, k=10, hydrate=False)
    assert 39 in set(hits["doc_id"].astype(int))
    hits2 = s.search({"updatedtoken"}, k=10, hydrate=False)
    assert 0 in set(hits2["doc_id"].astype(int))
