"""Pages with no kept term: a stopword-only page and a page with an
empty title and body.  Each keeps its ``extracted/`` row, with empty
forward lists and ``tf_max`` 0, but is not a document of the ranked
index (``InvertedIndex.java:72`` counts docs with ≥ 1 term): it is not
in N, has no docstats row and hydrates with no keywords.  An update
that gives such a page terms, and one that takes them away again, must
each equal a full rebuild."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.sources.webcorpus import EPOCH, doc_url

CFG = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
STOPWORDS_ONLY, EMPTY = 10, 11
PAGES = {i: (f"page {i}", f"searchable body number {i}") for i in range(6)}
PAGES[STOPWORDS_ONLY] = ("the of", "and the a")
PAGES[EMPTY] = ("", "")
FORWARD = ["doc_id", "terms", "title_tfs", "body_tfs", "tf_max"]


def _web(pages: dict, days: int = 0) -> pa.Table:
    """Corpus rows for ``{doc_id: (title, body)}``, crawled ``days``
    after the base crawl."""
    ids = sorted(pages)
    html = [
        f"<html><head><title>{pages[i][0]}</title></head>"
        f"<body>{pages[i][1]}</body></html>".encode()
        for i in ids
    ]
    ts = (EPOCH + np.asarray(ids).astype("timedelta64[s]")
          + np.timedelta64(days, "D"))
    return pa.table({
        "url": pa.array([doc_url(i) for i in ids], pa.string()),
        "warc_ts": pa.array(ts.astype("datetime64[us]"),
                            pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "text": pa.array([pages[i][1] for i in ids], pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
    })


def _rows(index_dir: str, stage: str, columns=None) -> list:
    t = pads.dataset(os.path.join(index_dir, stage), format="parquet",
                     partitioning="hive").to_table(columns=columns)
    return sorted(repr(sorted(r.items())) for r in t.to_pylist())


def _extracted(index_dir: str) -> dict:
    t = pads.dataset(os.path.join(index_dir, "extracted"),
                     format="parquet").to_table(columns=FORWARD)
    return {r["doc_id"]: r for r in t.to_pylist()}


def _n_docs(index_dir: str) -> int:
    from web_based_search_engine_ray.state import fsio

    return fsio.read_json(os.path.join(index_dir, "meta.json"))["n_docs"]


def _assert_equals_rebuild(index_dir: str, snapshot: list, key: str):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.build_index import (
        STAGES,
        build_index,
    )

    full = index_dir + f"-full-{key}"
    build_index(lambda: rd.from_arrow(snapshot), full, CFG,
                input_key=f"{key}-full", resume=False)
    assert _n_docs(index_dir) == _n_docs(full)
    for stage in STAGES:
        assert _rows(index_dir, stage) == _rows(full, stage), (key, stage)


@pytest.fixture(scope="module")
def zero_term_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.build_index import build_index

    idx = str(tmp_path_factory.mktemp("zeroterm") / "idx")
    build_index(lambda: rd.from_arrow(_web(PAGES)), idx, CFG,
                input_key="z1", resume=False)
    return idx


def test_zero_term_pages_have_empty_lists(zero_term_index):
    ext = _extracted(zero_term_index)
    assert sorted(ext) == sorted(PAGES)
    for i in (STOPWORDS_ONLY, EMPTY):
        assert ext[i] == {"doc_id": i, "terms": [], "title_tfs": [],
                          "body_tfs": [], "tf_max": 0}
    assert all(ext[i]["tf_max"] > 0 and ext[i]["terms"] for i in range(6))
    assert _n_docs(zero_term_index) == 6
    stats = pads.dataset(os.path.join(zero_term_index, "docstats"),
                         format="parquet").to_table(columns=["doc_id"])
    assert sorted(stats["doc_id"].to_pylist()) == list(range(6))


def test_zero_term_pages_hydrate_without_keywords(zero_term_index):
    import pandas as pd

    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        hydrated_frame,
    )

    res = pd.DataFrame({"doc_id": [STOPWORDS_ONLY, EMPTY, 3],
                        "score": [0.3, 0.2, 0.1]})
    out = hydrated_frame(Searcher(zero_term_index).hydrate(res))
    assert out["title"].tolist() == ["the of", "", "page 3"]
    assert out["url"].tolist() == [doc_url(STOPWORDS_ONLY), doc_url(EMPTY),
                                   doc_url(3)]
    assert out["keywords"].tolist()[:2] == [[], []]
    assert out["keywords"][2]


def test_update_giving_and_taking_terms_equals_rebuild(zero_term_index):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )

    idx = zero_term_index
    base = _web(PAGES)
    others = base.filter(pc.not_equal(base["doc_id"], STOPWORDS_ONLY))
    rounds = [
        ("z2", _web({STOPWORDS_ONLY: ("now", "sparkly words")}, days=1), 7),
        ("z3", _web({STOPWORDS_ONLY: PAGES[STOPWORDS_ONLY]}, days=2), 6),
    ]
    for key, page, n_docs in rounds:
        snapshot = [others, page]
        report = update_index(lambda: rd.from_arrow(snapshot), idx, CFG,
                              input_key=key)
        assert report["update"]["fresh_docs"] == 1, key
        assert report["n_docs"] == n_docs, key
        _assert_equals_rebuild(idx, snapshot, key)
    assert _extracted(idx)[STOPWORDS_ONLY]["tf_max"] == 0


def test_extract_task_zero_row_batch_keeps_schema():
    """A zero-row typed batch (Ray hands those to a map task after a
    filter) gives the typed empty table with the forward columns, the
    schema of a non-empty batch's output, so the update's union of
    stored and fresh rows lines up."""
    from web_based_search_engine_ray.pipelines.build_index import (
        FORWARD_COLUMNS,
        _extract_task,
    )

    web = _web(PAGES)
    full = _extract_task(web, cfg=CFG)
    empty = _extract_task(web.slice(0, 0), cfg=CFG)
    assert empty.num_rows == 0
    assert empty.schema == full.schema
    assert full.column_names[-4:] == list(FORWARD_COLUMNS)
    assert full.schema.field("terms").type == pa.list_(pa.string())
    assert full.schema.field("tf_max").type == pa.int64()
