"""Incremental update must produce an index equivalent to a full
rebuild of the updated corpus, while leaving unaffected doc-shard
segment partitions untouched on disk."""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

SF = "/root/testdata/sf0.001"
UPDATED_IDS = (0, 4, 8)          # all in shard 0 (mod 4)
NEW_IDS = (1000, 1004)           # shard 0 as well


def _corpus_v1():
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    return synth_corpus(SF)


def _corpus_v2():
    """v1 with docs 0/4/8 rewritten (newer warc_ts) and two new docs."""
    import ray.data as rd

    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    def modify(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        texts = [
            t + " freshly updated content tokens"
            if i in UPDATED_IDS else t
            for i, t in zip(ids, texts)
        ]
        t = batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(texts, type=pa.string()),
        )
        return t

    def to_web(batch: pa.Table) -> pa.Table:
        web = synth_batch(batch)
        ids = web["doc_id"].to_numpy(zero_copy_only=False)
        ts = web["warc_ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        bumped = np.where(
            np.isin(ids, UPDATED_IDS), ts + np.timedelta64(1, "D"), ts
        )
        i = web.schema.get_field_index("warc_ts")
        return web.set_column(
            i, "warc_ts", pa.array(bumped, type=pa.timestamp("us"))
        )

    base = (
        rd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "text", "lang"],
                        override_num_blocks=8)
        .map_batches(modify, batch_format="pyarrow")
    )
    extra = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(NEW_IDS), type=pa.int64()),
                "text": pa.array(
                    ["brand new document about sparkly merges" for _ in NEW_IDS]
                ),
                "lang": pa.array(["en"] * len(NEW_IDS)),
            }
        )
    )
    return base.union(extra).map_batches(to_web, batch_format="pyarrow")


@pytest.fixture(scope="module")
def updated_and_rebuilt(ray_session, tmp_path_factory):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import update_index

    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    base = tmp_path_factory.mktemp("upd")
    inc_dir = str(base / "incremental")
    full_dir = str(base / "full")

    build_index(_corpus_v1, inc_dir, cfg, input_key="v1", resume=False)
    # snapshot mtimes of unaffected shard partitions of every stage the
    # update may rebuild per shard (None: the stage has no such dir)
    mtimes = {
        (stage, s): (
            os.path.getmtime(p)
            if os.path.isdir(p := os.path.join(inc_dir, stage, f"doc_shard={s}"))
            else None
        )
        for s in (1, 2, 3)
        for stage in ("segments", "extracted")
    }
    report = update_index(_corpus_v2, inc_dir, cfg, input_key="v2")
    build_index(_corpus_v2, full_dir, cfg, input_key="v2-full", resume=False)
    return inc_dir, full_dir, report, mtimes


def _shard_fps(index_dir: str) -> dict:
    """Per-shard fingerprints recorded in the extracted/ manifest."""
    from web_based_search_engine_ray.state import manifest as mf

    return mf.load_manifest(os.path.join(index_dir, "extracted"))["shard_fps"]


def _ext_fp(input_key: str) -> str:
    """The extracted-stage fingerprint of ``input_key`` (test config)."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import _fp

    cfg = IndexConfig(shuffle_partitions=4, num_buckets=4, doc_shards=4)
    return _fp("extracted", cfg.semantic_key(), input_key)


def test_update_report(updated_and_rebuilt):
    inc_dir, _, report, _ = updated_and_rebuilt
    assert report["update"]["fresh_docs"] == len(UPDATED_IDS) + len(NEW_IDS)
    assert report["update"]["affected_shards"] == [0]
    assert report["n_docs"] == 502
    # only the rewritten shard carries the update's key; the others keep
    # the key of the build that last wrote them
    assert _shard_fps(inc_dir) == {
        "0": _ext_fp("v2"), "1": _ext_fp("v1"), "2": _ext_fp("v1"),
        "3": _ext_fp("v1"),
    }


def test_index_holds_only_the_stage_dirs(updated_and_rebuilt):
    """A fresh build and an update write the four stage dirs and no
    other (underscore-prefixed dirs are bookkeeping), and one manifest
    per stage plus one part manifest per segments shard: page columns,
    link edges and forward lists are read from extracted/, never from
    a copy."""
    from web_based_search_engine_ray.pipelines.build_index import STAGES

    inc_dir, full_dir, _, _ = updated_and_rebuilt
    assert sorted(STAGES) == ["docstats", "extracted", "lexicon",
                              "segments"]
    for d in (full_dir, inc_dir):
        dirs = {e for e in os.listdir(d)
                if os.path.isdir(os.path.join(d, e)) and e[0] != "_"}
        assert dirs == set(STAGES), d
        manifests = {e for e in os.listdir(d) if e.endswith(".json")}
        assert manifests == {"meta.json"} | {f"{s}.manifest.json"
                                             for s in STAGES}, d
        parts = set(os.listdir(os.path.join(d, "_part_manifests")))
        assert parts == {f"segments.doc_shard={s}.json"
                         for s in range(4)}, d


def _format_key(cfg, format_version: int) -> str:
    """``cfg.semantic_key()`` as the build of ``format_version`` wrote
    it."""
    import hashlib
    import json

    sem = {k: getattr(cfg, k) for k in (
        "title_weight", "use_stopwords", "use_stemming", "num_buckets",
        "max_run_docs", "doc_shards")}
    sem["format_version"] = format_version
    return hashlib.md5(
        json.dumps(sem, sort_keys=True).encode()).hexdigest()[:12]


def test_update_refuses_format_6_index(ray_session, tmp_path):
    """An index of an older format is refused with the semantic-config
    error before anything is read or written: format 6 (its meta.json
    has the config with ``dedup_urls`` and no semantic key) and format
    7 (its extracted rows have no forward lists; its meta.json config
    holds ``verify_extraction``, ``extract_batch_size`` and
    ``min_rows_per_file``) and format 8 (its segment rows carry
    ``run``, ``min_doc`` and ``max_doc``)."""
    import json

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )

    cfg = IndexConfig(doc_shards=2)
    old_metas = {
        6: {"config": {**cfg.to_dict(), "dedup_urls": True}},
        7: {"config": {**cfg.to_dict(), "verify_extraction": True,
                       "extract_batch_size": 256,
                       "min_rows_per_file": 65536},
            "semantic_key": _format_key(cfg, 7)},
        8: {"config": cfg.to_dict(), "semantic_key": _format_key(cfg, 8)},
    }

    def no_corpus():
        raise AssertionError("corpus read before the format check")

    for fmt, meta in old_metas.items():
        idx = tmp_path / f"idx{fmt}"
        idx.mkdir()
        (idx / "meta.json").write_text(json.dumps(
            {"n_docs": 6, "input_key": "v1", "stages": [], **meta}))
        with pytest.raises(ValueError, match="semantic config"):
            update_index(no_corpus, str(idx), cfg, input_key="v2")
        assert sorted(os.listdir(idx)) == ["meta.json"], fmt
    # the helper reproduces the current format's key
    assert _format_key(cfg, 9) == cfg.semantic_key()


def test_searchers_refuse_other_format(ray_session, tmp_path):
    """``Searcher`` and ``ShardedSearcher`` refuse an index whose
    meta.json carries another semantic key (formats 7 and 8) or none
    (format 6) with the update's "rebuild" error, instead of opening it and
    failing on a later column read; the same index with its own key
    opens."""
    import json

    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        ShardedSearcher,
    )

    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    idx = str(tmp_path / "idx")
    base = _web(list(range(6)), [f"base document number {i}"
                                 for i in range(6)])
    build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="f1",
                resume=False)
    path = os.path.join(idx, "meta.json")
    with open(path) as f:
        meta = json.load(f)
    config7 = {**meta["config"], "verify_extraction": True}
    old_metas = {
        6: {k: v for k, v in meta.items() if k != "semantic_key"},
        7: {**meta, "config": config7, "semantic_key": _format_key(cfg, 7)},
        8: {**meta, "semantic_key": _format_key(cfg, 8)},
    }
    for fmt, old in old_metas.items():
        with open(path, "w") as f:
            json.dump(old, f)
        for reader in (Searcher, ShardedSearcher):
            with pytest.raises(ValueError,
                               match="semantic config.*rebuild it with"):
                reader(idx)
    with open(path, "w") as f:
        json.dump(meta, f)
    assert Searcher(idx).search({"base"}, k=10, hydrate=False)[
        "doc_id"].tolist() == list(range(6))


def test_index_with_retired_config_fields_opens(ray_session, tmp_path):
    """An index whose meta.json config still holds ``title_weight``,
    ``max_results`` and ``max_keywords`` (fields before they became
    class constants) under today's semantic key opens in ``Searcher``
    and ``ShardedSearcher`` and takes an update, with no rebuild."""
    import json

    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        ShardedSearcher,
    )
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )

    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    idx = str(tmp_path / "idx")
    base = _web(list(range(6)), [f"base document number {i}"
                                 for i in range(6)])
    build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="f1",
                resume=False)
    path = os.path.join(idx, "meta.json")
    with open(path) as f:
        meta = json.load(f)
    assert meta["semantic_key"] == cfg.semantic_key()
    meta["config"].update(title_weight=0.9, max_results=50, max_keywords=5)
    with open(path, "w") as f:
        json.dump(meta, f)

    assert Searcher(idx).search({"base"}, k=10, hydrate=False)[
        "doc_id"].tolist() == list(range(6))
    sharded = ShardedSearcher(idx, num_cpus_per_shard=0.25)
    try:
        res = sharded.batch_search(["base"], k=10)
    finally:
        sharded.shutdown()
    assert sorted(res["doc_id"]) == list(range(6))

    snap = pa.concat_tables([base, _web([6], ["fresh page"], days=1)])
    report = update_index(lambda: rd.from_arrow(snap), idx, cfg,
                          input_key="f2")
    assert report["update"]["fresh_docs"] == 1
    assert Searcher(idx).search({"fresh"}, k=10, hydrate=False)[
        "doc_id"].tolist() == [6]


@pytest.mark.parametrize("dies_at", ["swap", "downstream"])
def test_rerun_of_interrupted_update_finishes(updated_and_rebuilt,
                                              tmp_path, monkeypatch,
                                              dies_at):
    """An update that dies once its fresh rows are in extracted/ (right
    after the swap, or as its downstream build starts) is finished by a
    rerun of the same update.  The rerun finds nothing fresh, yet the
    index then equals a full rebuild of the new snapshot."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines import update_index as ui
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher

    _, full_dir, _, _ = updated_and_rebuilt
    cfg = IndexConfig(shuffle_partitions=4, num_buckets=4, doc_shards=4)
    idx = str(tmp_path / "idx")
    build_index(_corpus_v1, idx, cfg, input_key="v1", resume=False)
    real_replace = ui.fsio.replace

    def swap_then_die(*a, **kw):  # v2 touches shard 0 only
        real_replace(*a, **kw)
        raise RuntimeError("died")

    def dies(*a, **kw):
        raise RuntimeError("died")

    with monkeypatch.context() as mp:
        if dies_at == "swap":
            mp.setattr(ui.fsio, "replace", swap_then_die)
        else:
            mp.setattr(ui, "build_index", dies)
        with pytest.raises(RuntimeError, match="died"):
            ui.update_index(_corpus_v2, idx, cfg, input_key="v2")
    report = ui.update_index(_corpus_v2, idx, cfg, input_key="v2")
    assert report["update"] == {
        "fresh_docs": 0, "removed_docs": 0, "affected_shards": []
    }
    assert report["n_docs"] == 502
    assert report["input_key"] == "v2"
    for stage, key in (("lexicon", "term"), ("docstats", "doc_id")):
        a, b = (_tbl(d, stage).sort_values(key).reset_index(drop=True)
                for d in (idx, full_dir))
        pd.testing.assert_frame_equal(a, b)
    a, b = Searcher(idx), Searcher(full_dir)
    words = {"freshly", "updated", "sparkly"}
    ra = a.search(words, k=10, hydrate=False)
    rb = b.search(words, k=10, hydrate=False)
    assert ra["doc_id"].tolist() == rb["doc_id"].tolist() != []
    np.testing.assert_array_equal(ra["score"].to_numpy(np.float64),
                                  rb["score"].to_numpy(np.float64))
    # finished: a third run is the plain no-op
    again = ui.update_index(_corpus_v2, idx, cfg, input_key="v2")
    assert again["n_docs"] == 502 and again["update"]["fresh_docs"] == 0


def test_unaffected_partitions_untouched(updated_and_rebuilt):
    inc_dir, _, _, mtimes = updated_and_rebuilt
    for (stage, s), old in mtimes.items():
        now = os.path.getmtime(
            os.path.join(inc_dir, stage, f"doc_shard={s}")
        )
        assert now == old, f"{stage} shard {s} was rewritten"


def test_first_update_keeps_untouched_shards(updated_and_rebuilt):
    """The FIRST update after a fresh build already rebuilds only the
    affected shard of segments: a fresh build stamps a part manifest
    for every segments shard."""
    inc_dir, _, _, mtimes = updated_and_rebuilt
    for (stage, s), old in mtimes.items():
        if stage == "extracted":
            continue
        assert old is not None, f"{stage} has no doc_shard={s} partition"
        now = os.path.getmtime(
            os.path.join(inc_dir, stage, f"doc_shard={s}")
        )
        assert now == old, f"{stage} shard {s} was rewritten"


def _tbl(d, name, cols=None):
    return (
        pads.dataset(os.path.join(d, name), format="parquet",
                     partitioning="hive")
        .to_table(columns=cols)
        .to_pandas()
    )


def test_update_equals_full_rebuild(updated_and_rebuilt):
    inc_dir, full_dir, _, _ = updated_and_rebuilt
    li = _tbl(inc_dir, "lexicon").sort_values("term").reset_index(drop=True)
    lf = _tbl(full_dir, "lexicon").sort_values("term").reset_index(drop=True)
    pd.testing.assert_frame_equal(li, lf)
    si = _tbl(inc_dir, "docstats").sort_values("doc_id").reset_index(drop=True)
    sf = _tbl(full_dir, "docstats").sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(si, sf)


def test_update_search_equivalent(updated_and_rebuilt):
    from web_based_search_engine_ray.pipelines.search import Searcher

    inc_dir, full_dir, _, _ = updated_and_rebuilt
    a, b = Searcher(inc_dir), Searcher(full_dir)
    for words, phrase in [
        ({"freshly", "updated"}, None),
        ({"sparkly", "merges"}, None),
        ({"spark", "merge"}, None),
        ({"batch"}, ["batch", "batch"]),
    ]:
        ra = a.search(words, phrase, k=50, hydrate=False)
        rb = b.search(words, phrase, k=50, hydrate=False)
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), words
        np.testing.assert_allclose(
            ra["score"].to_numpy(np.float64),
            rb["score"].to_numpy(np.float64),
            rtol=1e-12,
        )
    # the updated content is actually searchable
    hits = a.search({"freshly"}, k=10, hydrate=False)
    assert sorted(hits["doc_id"]) == list(UPDATED_IDS)


REMOVED_IDS = (2, 6)  # shard 2 (mod 4)


def _corpus_v3():
    """v1 minus docs 2 and 6 (full-sync snapshot with deletions)."""
    import ray.data as rd

    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    return (
        rd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "text", "lang"],
                        override_num_blocks=8)
        .filter(expr=f"doc_id not in {list(REMOVED_IDS)}")
        .map_batches(synth_batch, batch_format="pyarrow")
    )


def test_remove_missing_deletes_documents(ray_session, tmp_path_factory):
    """update_index(remove_missing=True) must equal a full rebuild of
    the reduced snapshot: deleted docs gone from extracted/search, df and
    norms globally consistent."""
    import pandas as pd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import update_index

    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    base = tmp_path_factory.mktemp("del")
    inc_dir = str(base / "incremental")
    full_dir = str(base / "full")

    build_index(_corpus_v1, inc_dir, cfg, input_key="v1", resume=False)
    report = update_index(
        _corpus_v3, inc_dir, cfg, input_key="v3", remove_missing=True
    )
    assert report["update"]["removed_docs"] == len(REMOVED_IDS)
    assert 2 in report["update"]["affected_shards"]
    assert report["n_docs"] == 500 - len(REMOVED_IDS)

    build_index(_corpus_v3, full_dir, cfg, input_key="v3-full", resume=False)
    li = _tbl(inc_dir, "lexicon").sort_values("term").reset_index(drop=True)
    lf = _tbl(full_dir, "lexicon").sort_values("term").reset_index(drop=True)
    pd.testing.assert_frame_equal(li, lf)

    meta = _tbl(inc_dir, "extracted", cols=["doc_id"])
    assert not set(REMOVED_IDS) & set(meta["doc_id"])

    a, b = Searcher(inc_dir), Searcher(full_dir)
    for words in [{"spark", "merge"}, {"doc", "2"}]:
        ra = a.search(words, k=10**9, hydrate=False)
        rb = b.search(words, k=10**9, hydrate=False)
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist()
        assert not set(REMOVED_IDS) & set(ra["doc_id"])


def _corpus_v4():
    """v2 with doc 5 (shard 1 under mod 4) rewritten again."""
    import ray.data as rd

    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    def modify(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = [
            t + " freshly updated content tokens" if i in UPDATED_IDS
            else t + " secondwave tokens" if i == 5
            else t
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(texts, type=pa.string()),
        )

    def to_web(batch: pa.Table) -> pa.Table:
        web = synth_batch(batch)
        ids = web["doc_id"].to_numpy(zero_copy_only=False)
        ts = web["warc_ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        bumped = np.where(
            np.isin(ids, UPDATED_IDS), ts + np.timedelta64(1, "D"), ts
        )
        bumped = np.where(ids == 5, ts + np.timedelta64(2, "D"), bumped)
        i = web.schema.get_field_index("warc_ts")
        return web.set_column(
            i, "warc_ts", pa.array(bumped, type=pa.timestamp("us"))
        )

    base = (
        rd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "text", "lang"],
                        override_num_blocks=8)
        .map_batches(modify, batch_format="pyarrow")
    )
    extra = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(NEW_IDS), type=pa.int64()),
                "text": pa.array(
                    ["brand new document about sparkly merges" for _ in NEW_IDS]
                ),
                "lang": pa.array(["en"] * len(NEW_IDS)),
            }
        )
    )
    return base.union(extra).map_batches(to_web, batch_format="pyarrow")


def test_second_update_prunes_segments(updated_and_rebuilt):
    """Per-shard fingerprints must let a SECOND update skip the
    untouched shards of segments and extracted: a shard keeps the key
    of the last write that touched it, so updates stay O(delta) in
    tokenize work."""
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import update_index
    from web_based_search_engine_ray.config import IndexConfig

    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4, doc_shards=4,
    )
    inc_dir, _, _, _ = updated_and_rebuilt
    assert _shard_fps(inc_dir)["0"] == _ext_fp("v2")

    mtimes = {
        (stage, s): os.path.getmtime(
            os.path.join(inc_dir, stage, f"doc_shard={s}")
        )
        for s in (0, 2, 3)
        for stage in ("segments", "extracted")
    }
    report = update_index(_corpus_v4, inc_dir, cfg, input_key="v4")
    assert report["update"]["affected_shards"] == [1]
    assert _shard_fps(inc_dir) == {
        "0": _ext_fp("v2"), "1": _ext_fp("v4"), "2": _ext_fp("v1"),
        "3": _ext_fp("v1"),
    }
    for (stage, s), old in mtimes.items():
        now = os.path.getmtime(
            os.path.join(inc_dir, stage, f"doc_shard={s}")
        )
        assert now == old, f"{stage} shard {s} was rewritten on update 2"

    # the second wave of content is searchable and correctly scored
    hits = Searcher(inc_dir).search({"secondwave"}, k=10, hydrate=False)
    assert hits["doc_id"].tolist() == [5]


def _web(ids, texts, days=0):
    """Synthetic web rows for ``ids``, crawled ``days`` after the base."""
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    t = synth_batch(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * len(ids)),
    }))
    ts = t["warc_ts"].to_numpy().astype("datetime64[us]")
    return t.set_column(
        t.schema.get_field_index("warc_ts"), "warc_ts",
        pa.array(ts + np.timedelta64(days, "D"), type=pa.timestamp("us")),
    )


@pytest.fixture(scope="module")
def split_update(ray_session, tmp_path_factory):
    """A 2-shard index of docs 0-5 (shard 0 = 0/2/4, shard 1 = 1/3/5),
    updated with doc 2 rewritten and an unseen doc 7, which lands in
    shard 1 where no doc was modified or removed; plus a full rebuild
    of the same snapshot.  Records the path of every
    ``Dataset.write_parquet`` call the update makes and the function of
    every ``Dataset.map_batches`` call."""
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import update_index

    base_ids = list(range(6))
    base = _web(base_ids, [f"base document number {i}" for i in base_ids])
    snapshot = [
        base.filter(pa.array(base["doc_id"].to_numpy() != 2)),
        _web([2], ["rewritten second document"], days=1),
        _web([7], ["unseen splitshard document"]),
    ]
    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    root = tmp_path_factory.mktemp("split")
    idx, full = str(root / "idx"), str(root / "full")
    build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="s1",
                resume=False)
    written = []
    real_write = rd.Dataset.write_parquet
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd.Dataset, "write_parquet",
                   lambda self, path, *a, **kw: written.append(path)
                   or real_write(self, path, *a, **kw))
        mapped = _record_map_fns(mp)
        report = update_index(lambda: rd.from_arrow(snapshot), idx, cfg,
                              input_key="s2")
    build_index(lambda: rd.from_arrow(snapshot), full, cfg,
                input_key="s2-full", resume=False)
    return idx, full, report, written, mapped


def _record_map_fns(mp) -> list:
    """Record the function of every ``Dataset.map_batches`` call, and
    each LWW check the update runs as ``partial(_lww_dedup_shards,
    stage_dir, shards)`` (its tasks are plain Ray tasks)."""
    import functools

    import ray.data as rd

    from web_based_search_engine_ray.pipelines import update_index as ui

    fns = []
    real_map = rd.Dataset.map_batches
    mp.setattr(rd.Dataset, "map_batches",
               lambda self, fn, *a, **kw: fns.append(fn)
               or real_map(self, fn, *a, **kw))
    real_lww = ui._lww_dedup_shards
    mp.setattr(ui, "_lww_dedup_shards",
               lambda *a: fns.append(functools.partial(real_lww, *a))
               or real_lww(*a))
    return fns


def test_update_writes_extracted_once(split_update):
    """An update writes the touched extracted/ shards in one Dataset
    write: no staging copy of the fresh rows is written first."""
    idx, _, report, written, _ = split_update
    ext = [p for p in written
           if os.path.basename(p.rstrip("/")).startswith("_extracted")
           and os.path.dirname(p.rstrip("/")) == idx]
    assert len(ext) == 1, written
    assert report["update"] == {
        "fresh_docs": 2, "removed_docs": 0, "affected_shards": [0, 1],
    }
    assert list(report["update"]) == ["fresh_docs", "removed_docs",
                                      "affected_shards"]


def test_new_url_in_untouched_shard(split_update):
    """An unseen url whose shard holds no modified or removed doc makes
    that shard affected: the shard keeps its old docs, gains the new
    one, and the index equals a full rebuild."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx, full, report, _, _ = split_update
    assert 1 in report["update"]["affected_shards"]
    shard1 = pads.dataset(os.path.join(idx, "extracted", "doc_shard=1"),
                          format="parquet").to_table(columns=["doc_id"])
    assert sorted(shard1["doc_id"].to_pylist()) == [1, 3, 5, 7]
    for stage in ("extracted", "segments", "lexicon", "docstats"):
        a, b = (
            sorted(repr(sorted(r.items())) for r in pads.dataset(
                os.path.join(d, stage), format="parquet", partitioning="hive"
            ).to_table().to_pylist())
            for d in (idx, full)
        )
        assert a == b, stage
    a, b = Searcher(idx), Searcher(full)
    for words in ({"splitshard"}, {"base", "document"}, {"rewritten"}):
        ra = a.search(words, k=50, hydrate=False)
        rb = b.search(words, k=50, hydrate=False)
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), words
        np.testing.assert_array_equal(ra["score"].to_numpy(np.float64),
                                      rb["score"].to_numpy(np.float64))
    assert a.search({"splitshard"}, k=5, hydrate=False)["doc_id"].tolist() == [7]


def test_update_with_one_row_per_fresh_url_skips_lww_check(split_update):
    """Every fresh url of the split update has one snapshot row, and the
    kept stored rows are url-unique, so the update runs no shard LWW
    check; its index still equals a full rebuild (above)."""
    from web_based_search_engine_ray.pipelines.build_index import (
        _extract_task,
        _lww_dedup_shards,
    )

    _, _, _, _, mapped = split_update
    assert any(getattr(f, "func", f) is _extract_task for f in mapped)
    assert not any(getattr(f, "func", f) is _lww_dedup_shards
                   for f in mapped)


def test_update_delta_duplicate_url_keeps_newest(ray_session,
                                                 tmp_path_factory,
                                                 monkeypatch):
    """An update snapshot holding an older AND a newer row for one
    indexed url (plus a new url) indexes only the newest version: the
    delta goes through the build's shard-local last-write-wins, run on
    the one shard the update rewrote."""
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import (
        _lww_dedup_shards,
        build_index,
    )
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.pipelines.update_index import update_index
    from web_based_search_engine_ray.sources.webcorpus import doc_url

    base_ids = list(range(6))
    base = _web(base_ids, [f"base document number {i}" for i in base_ids])
    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    idx = str(tmp_path_factory.mktemp("dupdelta") / "idx")
    build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="d1",
                resume=False)
    # separate blocks: the newer row arrives BEFORE the older one
    snapshot = [
        base,
        _web([3], ["newerversion of three"], days=2),
        _web([3], ["olderversion of three"], days=1),
        _web([9], ["brandnewurl document"]),
    ]
    mapped = _record_map_fns(monkeypatch)
    report = update_index(lambda: rd.from_arrow(snapshot), idx, cfg,
                          input_key="d2")
    lww = [f for f in mapped if getattr(f, "func", f) is _lww_dedup_shards]
    assert len(lww) == 1
    assert report["update"]["fresh_docs"] == 2  # doc 3 once, doc 9
    assert sorted(report["update"]["affected_shards"]) == [1]
    assert list(lww[0].args[1]) == [1]  # only the rewritten shard

    s = Searcher(idx)
    assert s.search({"newerversion"}, k=10, hydrate=False)["doc_id"].tolist() == [3]
    assert s.search({"olderversion"}, k=10, hydrate=False).empty
    assert s.search({"brandnewurl"}, k=10, hydrate=False)["doc_id"].tolist() == [9]
    meta = _tbl(idx, "extracted", cols=["doc_id", "url", "last_modified"])
    assert sorted(meta["doc_id"]) == base_ids + [9]
    row = meta[meta.url == doc_url(3)]
    assert len(row) == 1
    want = _web([3], ["x"], days=2)["warc_ts"][0].as_py()
    assert row["last_modified"].iloc[0] == pd.Timestamp(want)


# ---- Dataset executions per build and per update --------------------------

#: Ray Data logs one "Starting execution of Dataset" record per execution;
#: each execution has a fixed cost, so the plan size is pinned here
_EXECUTOR_LOG = "ray.data._internal.execution.streaming_executor"


@contextmanager
def _count_executions():
    """Yields a list that gets one entry per Dataset execution started
    in the block."""
    started: list[str] = []

    class Handler(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if msg.startswith("Starting execution of Dataset"):
                started.append(msg)

    log = logging.getLogger(_EXECUTOR_LOG)
    handler, level = Handler(), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield started
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def test_build_and_update_execution_counts(ray_session, tmp_path):
    """A build runs 2 executions (the extracted write and segments; its
    LWW check, lexicon and docstats are plain Ray tasks); an update with
    one row per fresh url runs 3 (classify, the extracted rewrite,
    segments); one where a fresh url has two fresh rows runs the same 3,
    its LWW check being plain Ray tasks too; a no-op update runs
    classify only (1)."""
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )

    ids = list(range(6))
    base = _web(ids, [f"base document number {i}" for i in ids])
    one_row = [base.filter(pa.array(np.array(ids) != 2)),
               _web([2], ["rewritten second document"], days=1),
               _web([7], ["unseen document"])]
    two_rows = one_row + [_web([3], ["older third rewrite"], days=1),
                          _web([3], ["newer third rewrite"], days=2)]
    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    idx = str(tmp_path / "idx")
    counts = {}
    with _count_executions() as started:
        build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="e1",
                    resume=False)
        counts["build"] = len(started)
    for key, snapshot, what in (("e2", one_row, "one row per fresh url"),
                                ("e3", two_rows, "two fresh rows"),
                                ("e4", two_rows, "no-op")):
        with _count_executions() as started:
            report = update_index(lambda: rd.from_arrow(snapshot), idx, cfg,
                                  input_key=key)
            counts[what] = len(started)
        assert (report["update"]["fresh_docs"] == 0) == (what == "no-op")
    assert counts == {"build": 2, "one row per fresh url": 3,
                      "two fresh rows": 3, "no-op": 1}


# ---- the classify join ----------------------------------------------------

_DAY_US = 86_400_000_000


def _random_sides(seed: int, index_dir, with_ids: bool = False):
    """Random stored (``index_dir/extracted/doc_shard=0``, written as 3
    parquet files) and snapshot tables over one url pool: urls 0-9 only
    stored, 10-29 on both sides, 30-39 only in the snapshot; duplicates
    on both sides and timestamps from 4 days, so snapshot maxima equal
    to the stored maximum are common.  ``with_ids`` gives the snapshot
    a ``doc_id`` column of its own (one id per row, never a url hash)."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    s_url = rng.integers(0, 30, 60)
    stored = pd.DataFrame({
        "url": [f"u{i}" for i in s_url],
        "last_modified": rng.integers(0, 4, 60) * _DAY_US,
        "doc_id": s_url * 10 + 7,  # duplicate urls share their doc id
    })
    n_url = rng.integers(10, 40, 80)
    snap = pd.DataFrame({
        "url": [f"u{i}" for i in n_url],
        "warc_ts": rng.integers(0, 4, 80) * _DAY_US,
        "row": np.arange(80),
        "doc_id": 5000 + np.arange(80),
    })
    stored_dir = index_dir / "extracted" / "doc_shard=0"
    stored_dir.mkdir(parents=True)
    for i, part in enumerate(stored.iloc[j::3] for j in range(3)):
        pq.write_table(
            pa.table({
                "url": pa.array(part["url"], pa.string()),
                "last_modified": pa.array(part["last_modified"],
                                          pa.timestamp("us")),
                "doc_id": pa.array(part["doc_id"], pa.int64()),
            }),
            str(stored_dir / f"part-{i}.parquet"),
        )
    corpus = pa.table({
        "url": pa.array(snap["url"], pa.string()),
        "warc_ts": pa.array(snap["warc_ts"], pa.timestamp("us")),
        "row": pa.array(snap["row"], pa.int64()),
    })
    if with_ids:
        corpus = corpus.append_column(
            "doc_id", pa.array(snap["doc_id"], pa.int64()))
    else:
        from web_based_search_engine_ray.functions.hashing import (
            stable_hash63,
        )

        snap["doc_id"] = [stable_hash63(u) for u in snap["url"]]
    return stored, snap, corpus


def _reference_classes(stored, snap, remove_missing):
    """Per-url freshness in pandas: fresh = unseen, or newest snapshot
    row strictly newer than the newest stored row."""
    thr = stored.groupby("url")["last_modified"].max()
    newest = snap.groupby("url")["warc_ts"].max()
    unseen = np.iinfo(np.int64).min
    fresh = {u: int(thr.get(u, unseen)) for u, ts in newest.items()
             if u not in thr.index or ts > thr[u]}
    rows = snap[snap["url"].isin(list(fresh)) & (
        snap["warc_ts"] > snap["url"].map(fresh).fillna(unseen))]
    old = sorted(stored.loc[stored["url"].isin(list(fresh)), "doc_id"])
    gone = stored[~stored["url"].isin(set(snap["url"]))]
    removed = sorted(zip(gone["doc_id"], gone["url"])) if remove_missing else []
    return (fresh, sorted(rows["row"]), old, removed, thr, newest,
            sorted(set(rows["doc_id"])))


@pytest.mark.parametrize("seed,remove_missing,with_ids", [
    pytest.param(seed, rm, False, id=f"{seed}-{rm}")
    for seed in (0, 1, 2) for rm in (False, True)
] + [pytest.param(3, True, True, id="3-True-doc_id")])
def test_classify_matches_pandas_reference(ray_session, tmp_path,
                                           seed, remove_missing, with_ids):
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.update_index import (
        classify_snapshot,
        fresh_rows,
    )

    stored, snap, corpus = _random_sides(seed, tmp_path, with_ids)
    fresh, rows, old, removed, thr, newest, fresh_ids = _reference_classes(
        stored, snap, remove_missing)
    # the data covers every case the predicate distinguishes
    both = newest.index.intersection(thr.index)
    assert (newest[both] == thr[both]).any()  # warc_ts == threshold
    assert (newest[both] > thr[both]).any()
    assert any(u not in thr.index for u in fresh)  # unseen urls
    assert snap["url"].duplicated().any() and stored["url"].duplicated().any()

    ds = rd.from_arrow(corpus)
    cfg = IndexConfig(num_buckets=4, shuffle_partitions=4)
    got = classify_snapshot(ds, str(tmp_path), cfg,
                            remove_missing=remove_missing)
    assert dict(zip(got.fresh_urls.to_pylist(),
                    got.thresholds.tolist())) == fresh
    assert sorted(got.old_ids.tolist()) == old
    # the Extractor's doc ids of the fresh rows: the snapshot's own
    # doc_id column, else stable_hash63(url)
    assert got.fresh_ids.tolist() == fresh_ids
    assert got.n_fresh_rows == len(rows)
    assert sorted(zip(got.removed_ids.tolist(),
                      got.removed_urls.to_pylist())) == removed
    kept = fresh_rows(ds, got).to_pandas()
    assert sorted(kept["row"]) == rows


def test_classify_driver_traffic(ray_session, tmp_path, monkeypatch):
    """The driver never opens a stored extracted file, and the corpus
    filter's broadcast holds exactly the fresh urls."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.update_index import (
        classify_snapshot,
        fresh_rows,
    )

    stored, snap, corpus = _random_sides(5, tmp_path)
    fresh = _reference_classes(stored, snap, True)[0]
    ds = rd.from_arrow(corpus)

    opened = []
    real_dataset = pads.dataset
    monkeypatch.setattr(
        pads, "dataset",
        lambda *a, **kw: opened.append(a) or real_dataset(*a, **kw),
    )
    # two doc shards: the read task of doc_shard=1 finds no files
    got = classify_snapshot(ds, str(tmp_path),
                            IndexConfig(num_buckets=4, doc_shards=2),
                            remove_missing=True)
    assert opened == []

    puts = []
    real_put = ray.put
    monkeypatch.setattr(
        ray, "put", lambda v, **kw: puts.append(v) or real_put(v, **kw)
    )
    fresh_rows(ds, got)
    assert len(puts) == 1
    urls, thresholds = puts[0]
    assert len(urls) == len(thresholds) == len(fresh) > 0


def test_noop_update_returns_before_extract(ray_session, tmp_path,
                                          monkeypatch):
    """An unchanged snapshot reports 0 fresh / 0 removed / no shards,
    and the update returns before extraction runs."""
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines import update_index as ui
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    base = synth_batch(pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": pa.array([f"base document number {i}" for i in range(6)]),
        "lang": pa.array(["en"] * 6),
    }))
    cfg = IndexConfig(shuffle_partitions=2, num_buckets=4, doc_shards=2)
    idx = str(tmp_path / "idx")
    build_index(lambda: rd.from_arrow(base), idx, cfg, input_key="n1",
                resume=False)

    def no_extract(*a, **kw):
        raise AssertionError("extract ran on a no-op update")

    meta = os.path.join(idx, "meta.json")
    stamp = os.stat(meta).st_mtime_ns
    writes = []
    monkeypatch.setattr(ui, "_extract_task", no_extract)
    monkeypatch.setattr(ui, "_write_extracted",
                        lambda *a, **kw: writes.append(a))
    report = ui.update_index(lambda: rd.from_arrow(base), idx, cfg,
                             input_key="n2", remove_missing=True)
    assert report["update"] == {
        "fresh_docs": 0, "removed_docs": 0, "affected_shards": []
    }
    assert writes == []
    # nothing downstream ran: the index is untouched
    assert os.stat(meta).st_mtime_ns == stamp
    assert not os.path.exists(os.path.join(idx, "_extracted_delta"))


_UDF_BLOCKS = [(u, b) for u in ("_tag", "_classify_bucket", "keep_fresh",
                                "drop_updated", "_extract_task",
                                "_add_doc_shard")
               for b in ("columnless", "zero-row")]


@pytest.mark.parametrize("udf,block",
                         _UDF_BLOCKS + [("_read_stored", "no-files")])
def test_update_udfs_give_typed_empty_blocks(ray_session, tmp_path, udf,
                                             block):
    """Every UDF of the update's classify and extracted-rewrite plans
    maps a zero-row block, with or without columns, to its typed empty
    output.  Ray makes columnless blocks (classify's empty sort
    partitions, map tasks with no output); the plans must not depend on
    them never reaching a UDF."""
    import functools

    import ray

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines import update_index as ui
    from web_based_search_engine_ray.pipelines.build_index import (
        CORPUS_SCHEMA,
        EXTRACTED_SCHEMA,
        _add_doc_shard,
        _extract_task,
    )

    no_urls = pa.array([], pa.string())
    cases = {
        "_tag": (functools.partial(ui._tag, ts_col="warc_ts", stored=False,
                                   num_buckets=4),
                 CORPUS_SCHEMA, ui._TAG_SCHEMA),
        "_classify_bucket": (
            functools.partial(ui._classify_bucket, remove_missing=True),
            ui._TAG_SCHEMA, ui._CLASSES_SCHEMA),
        "keep_fresh": (
            functools.partial(ui.keep_fresh, fresh_ref=ray.put(
                (no_urls, np.empty(0, np.int64)))),
            CORPUS_SCHEMA, CORPUS_SCHEMA),
        "drop_updated": (
            functools.partial(ui.drop_updated, urls_ref=ray.put(no_urls)),
            EXTRACTED_SCHEMA, EXTRACTED_SCHEMA),
        "_extract_task": (
            functools.partial(_extract_task, cfg=IndexConfig(doc_shards=2)),
            CORPUS_SCHEMA, EXTRACTED_SCHEMA),
        "_add_doc_shard": (
            functools.partial(_add_doc_shard, n_shards=2),
            EXTRACTED_SCHEMA,
            EXTRACTED_SCHEMA.append(pa.field("doc_shard", pa.int32()))),
        # a doc shard with no files is the stored side's zero-row read
        "_read_stored": (functools.partial(ui._read_stored, num_buckets=4),
                         None, ui._TAG_SCHEMA),
    }
    fn, in_schema, expected = cases[udf]
    batch = {
        "columnless": lambda: pa.table({}),
        "zero-row": lambda: in_schema.empty_table(),
        "no-files": lambda: pa.table({"ext": [str(tmp_path)], "shard": [0]}),
    }[block]()
    out = fn(batch)
    assert out.num_rows == 0
    assert out.schema == expected
