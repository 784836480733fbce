from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_format_result_block(ray_session, tmp_path_factory):
    import pandas as pd

    from web_based_search_engine_ray.pipelines.search import (
        format_result,
        format_results,
    )

    row = {
        "score": 0.73484,
        "title": "Doc 1",
        "url": "https://x/1",
        "last_modified": "2024-01-01 00:00:01",
        "page_size": 123,
        "keywords": [("merg", 3), ("spark", 1)],
        "parent_links": ["https://x/0"],
        "child_links": ["https://x/2", "https://x/3"],
    }
    block = format_result(row)
    # layout-exact vs SearchResult.toResultFormat: trailing "; " on the
    # keyword line, "Parent Links:"/"Child Links:" header lines, one
    # indented url per line
    assert block == (
        "0.7348\tDoc 1\n"
        "\thttps://x/1\n"
        "\t2024-01-01 00:00:01, 123\n"
        "\tmerg 3; spark 1; \n"
        "\tParent Links:\n"
        "\thttps://x/0\n"
        "\tChild Links:\n"
        "\thttps://x/2\n"
        "\thttps://x/3\n"
    )
    assert format_results(pd.DataFrame([row, row])).count("0.7348\t") == 2


def _fresh(corpus, index_dir):
    """The update's fresh corpus rows: classify join + corpus filter."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.update_index import (
        classify_snapshot,
        fresh_rows,
    )

    return fresh_rows(
        corpus, classify_snapshot(corpus, index_dir, IndexConfig())
    )


def test_classify_fresh(ray_session, tmp_path_factory, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    out = str(tmp_path_factory.mktemp("fresh") / "idx")
    cfg = IndexConfig(
        shuffle_partitions=4,
    )
    build_index(lambda: synth_corpus(sf_dir), out, cfg,
                input_key="freshtest", resume=False)

    # identical snapshot → nothing is fresh
    assert _fresh(synth_corpus(sf_dir), out).count() == 0

    # bump warc_ts on 3 docs → exactly those are fresh
    def bump(batch: pa.Table) -> pa.Table:
        ts = batch["warc_ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        bumped = np.where(
            ids < 3, ts + np.timedelta64(1, "h"), ts
        )
        i = batch.schema.get_field_index("warc_ts")
        return batch.set_column(
            i, "warc_ts", pa.array(bumped, type=pa.timestamp("us"))
        )

    updated = synth_corpus(sf_dir).map_batches(bump, batch_format="pyarrow")
    fresh = _fresh(updated, out).to_pandas()
    assert sorted(fresh["doc_id"]) == [0, 1, 2]
    # full corpus rows survive the filter
    assert set(fresh.columns) == set(synth_corpus(sf_dir).columns())


def test_dump_index(ray_session, sf_dir):
    from web_based_search_engine_ray.config import ORACLE_CONFIG
    from web_based_search_engine_ray.pipelines.search import dump_index
    from web_based_search_engine_ray.registry import get_index

    idx = get_index(sf_dir, ORACLE_CONFIG)
    text = dump_index(idx, max_rows=3)
    assert "== lexicon" in text and "== segments" in text
    assert "n_docs=500" in text


def test_embedding_lsh_finds_exact_pairs(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        embedding_dup_pairs,
        embedding_dup_pairs_exact,
    )

    rng = np.random.default_rng(3)
    base = rng.standard_normal((50, 64))
    # 5 near-duplicate pairs: vec i and vec 100+i nearly identical
    dups = base[:5] + rng.standard_normal((5, 64)) * 0.01
    vecs = np.concatenate([base, dups])
    ids = list(range(50)) + list(range(100, 105))
    t = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], type=pa.list_(pa.float32())
            ),
        }
    )
    exact = embedding_dup_pairs_exact(
        rd.from_arrow(t), threshold=0.95
    ).to_pandas()
    lsh = embedding_dup_pairs(
        rd.from_arrow(t), threshold=0.95, dim=64
    ).to_pandas()
    exact_pairs = set(zip(exact["vec_a"], exact["vec_b"]))
    lsh_pairs = set(zip(lsh["vec_a"], lsh["vec_b"]))
    expected = {(i, 100 + i) for i in range(5)}
    assert exact_pairs == expected
    # LSH is probabilistic but near-identical vectors share buckets with
    # overwhelming probability across 4 tables
    assert lsh_pairs == expected


def test_classify_drops_stale_duplicate_rows(
    ray_session, tmp_path_factory, sf_dir
):
    """A corpus carrying BOTH a newer and a stale row for the same url
    must keep only the newer row (regression: a per-URL fresh set kept
    both)."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    out = str(tmp_path_factory.mktemp("freshdup") / "idx")
    cfg = IndexConfig(
        shuffle_partitions=4,
    )
    build_index(lambda: synth_corpus(sf_dir), out, cfg,
                input_key="freshduptest", resume=False)

    def dup_rows(batch: pa.Table) -> pa.Table:
        # for doc 0: one copy +1h (fresh), one copy -1h (stale);
        # everything else unchanged (not fresh)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = batch.filter(pa.array(ids == 0))
        if sel.num_rows == 0:
            return batch
        def shift(t, hours):
            ts = t["warc_ts"].to_numpy(zero_copy_only=False).astype(
                "datetime64[us]"
            ) + np.timedelta64(hours, "h")
            i = t.schema.get_field_index("warc_ts")
            return t.set_column(
                i, "warc_ts", pa.array(ts, type=pa.timestamp("us"))
            )
        rest = batch.filter(pa.array(ids != 0))
        return pa.concat_tables([rest, shift(sel, 1), shift(sel, -1)])

    updated = synth_corpus(sf_dir).map_batches(
        dup_rows, batch_format="pyarrow"
    )
    fresh = _fresh(updated, out).to_pandas()
    assert list(fresh["doc_id"]) == [0]
    # the surviving row is the NEWER one
    assert len(fresh) == 1


def test_classify_duplicate_docmeta_uses_newest_threshold(
    ray_session, tmp_path_factory
):
    """If the stored rows hold the same url more than once (the build
    keeps one row per url; this writes duplicates directly), the
    freshness threshold must be the NEWEST stored ``last_modified``
    (regression: a file-order-dependent first-match lookup used the
    stale row's timestamp, re-admitting candidates older than the
    newest stored version)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    idx = tmp_path_factory.mktemp("dupmeta")
    (idx / "extracted" / "doc_shard=0").mkdir(parents=True)

    def ts(*days):
        return pa.array(
            np.array(days, dtype="datetime64[us]"), type=pa.timestamp("us")
        )

    # older "dup" row FIRST: a first-match lookup returns 01-01
    pq.write_table(
        pa.table({
            "url": ["dup", "dup", "solo"],
            "last_modified": ts("2024-01-01", "2024-01-03", "2024-01-02"),
            "doc_id": pa.array([7, 7, 9], type=pa.int64()),
        }),
        str(idx / "extracted" / "doc_shard=0" / "part-0.parquet"),
    )
    corpus = pa.table({
        "url": ["dup", "dup", "solo", "brand-new"],
        "warc_ts": ts(
            "2024-01-02",   # newer than the stale dup row, older than
                            # the newest -> must be DROPPED
            "2024-01-04",   # newer than every stored version -> kept
            "2024-01-01",   # stale -> dropped
            "2024-01-01",   # unknown url -> kept
        ),
    })
    kept = _fresh(rd.from_arrow(corpus), str(idx)).to_pandas()
    got = sorted(zip(kept["url"], kept["warc_ts"].astype(str).str[:10]))
    assert got == [("brand-new", "2024-01-01"), ("dup", "2024-01-04")]
