"""URI-capable artifact IO (state/fsio): the index round-trips against
an fsspec ``file://`` root — every manifest read/write, task-side
bucket/glob discovery, LWW compaction rename, and Searcher init goes
through the filesystem layer, never bare ``os`` calls on data paths."""

from __future__ import annotations

import shutil

import pytest


def test_fsio_primitives(tmp_path):
    from web_based_search_engine_ray.state import fsio

    root = f"file://{tmp_path}/a"
    fsio.makedirs(root + "/sub")
    assert fsio.isdir(root) and fsio.isdir(root + "/sub")
    fsio.write_json(root + "/m.json", {"x": 1})
    assert fsio.read_json(root + "/m.json") == {"x": 1}
    assert fsio.isfile(root + "/m.json")
    assert fsio.listdir(root) == ["m.json", "sub"] or sorted(
        fsio.listdir(root)
    ) == ["m.json", "sub"]
    with fsio.open_file(root + "/sub/f.txt", "w") as f:
        f.write("hi")
    assert fsio.getsize(root + "/sub/f.txt") == 2
    assert fsio.glob(root + "/sub/*.txt") == [
        f"file://{tmp_path}/a/sub/f.txt"
    ]
    assert fsio.walk_files(root) == [
        f"file://{tmp_path}/a/m.json",
        f"file://{tmp_path}/a/sub/f.txt",
    ]
    fsio.replace(root + "/sub/f.txt", root + "/sub/g.txt")
    assert not fsio.exists(root + "/sub/f.txt")
    fsio.remove(root + "/sub/g.txt")
    fsio.rmtree(root + "/sub")
    assert not fsio.isdir(root + "/sub")
    fsio.rmtree(root + "/nope", ignore_errors=True)  # no raise


def test_build_search_roundtrip_file_uri(ray_session, sf_dir):
    """Full index build + search against a ``file://`` root must be
    byte-equivalent (identical scores) to a plain-path build."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    shutil.rmtree("/tmp/fsio_uri_idx", ignore_errors=True)
    shutil.rmtree("/tmp/fsio_plain_idx", ignore_errors=True)
    cfg = IndexConfig(
        num_buckets=8,
    )
    build_index(lambda: synth_corpus(sf_dir), "file:///tmp/fsio_uri_idx",
                cfg, input_key="fsio-uri", resume=False)
    build_index(lambda: synth_corpus(sf_dir), "/tmp/fsio_plain_idx",
                cfg, input_key="fsio-uri", resume=False)

    s_uri = Searcher("file:///tmp/fsio_uri_idx")
    s_plain = Searcher("/tmp/fsio_plain_idx")
    for words in ({"spark", "merge"}, {"window"}, {"batch", "stream"}):
        a = s_uri.search(words, k=10**9, hydrate=False)
        b = s_plain.search(words, k=10**9, hydrate=False)
        assert a["doc_id"].tolist() == b["doc_id"].tolist()
        assert a["score"].tolist() == pytest.approx(
            b["score"].tolist(), abs=0.0
        )
    # resume over the URI root: every stage must skip
    report = build_index(
        lambda: synth_corpus(sf_dir), "file:///tmp/fsio_uri_idx",
        cfg, input_key="fsio-uri", resume=True,
    )
    assert all(s["skipped"] for s in report["stages"])
    shutil.rmtree("/tmp/fsio_uri_idx", ignore_errors=True)
    shutil.rmtree("/tmp/fsio_plain_idx", ignore_errors=True)


def test_update_index_over_file_uri(ray_session, tmp_path):
    """Incremental update against a ``file://`` root exercises the
    fsio directory-swap path (``fsio.replace`` with recursive fsspec
    moves) end to end: the updated URI index must search-match a
    plain-path full rebuild of the updated corpus."""
    from tests.test_update_index import _corpus_v1, _corpus_v2
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )

    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    uri = f"file://{tmp_path}/inc_uri"
    full = str(tmp_path / "full_plain")
    build_index(_corpus_v1, uri, cfg, input_key="v1", resume=False)
    report = update_index(_corpus_v2, uri, cfg, input_key="v2")
    assert report["update"]["affected_shards"] == [0]
    build_index(_corpus_v2, full, cfg, input_key="v2-full", resume=False)

    s_uri = Searcher(uri)
    s_full = Searcher(full)
    for words in ({"spark", "merge"}, {"freshly", "updated"},
                  {"sparkly", "merges"}):
        a = s_uri.search(words, k=10**9, hydrate=False)
        b = s_full.search(words, k=10**9, hydrate=False)
        assert a["doc_id"].tolist() == b["doc_id"].tolist()
        assert a["score"].tolist() == b["score"].tolist()
