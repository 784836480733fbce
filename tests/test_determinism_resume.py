"""BASELINE criteria: (1) identical index content + rank-identical
search results when the same corpus is built at different parallelism
settings; (2) resume after a partial failure reproduces the same
artifacts while skipping completed stages."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest


def _build(sf, out, *, shuffle_partitions, parallelism, resume=False,
           input_key="det"):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    cfg = IndexConfig(
        shuffle_partitions=shuffle_partitions,
        num_buckets=8,
    )
    return build_index(
        lambda: synth_corpus(sf, parallelism=parallelism),
        out, cfg, input_key=input_key, resume=resume,
    )


def _table(path, columns=None):
    return (
        pads.dataset(path, format="parquet", partitioning="hive")
        .to_table(columns=columns)
    )


@pytest.fixture(scope="module")
def two_indexes(ray_session, tmp_path_factory, sf_dir):
    base = tmp_path_factory.mktemp("det")
    a = str(base / "p_low")
    b = str(base / "p_high")
    _build(sf_dir, a, shuffle_partitions=2, parallelism=2)
    _build(sf_dir, b, shuffle_partitions=13, parallelism=16)
    return a, b


def test_lexicon_identical_across_parallelism(two_indexes):
    a, b = two_indexes
    la = _table(os.path.join(a, "lexicon")).to_pandas().sort_values("term")
    lb = _table(os.path.join(b, "lexicon")).to_pandas().sort_values("term")
    pd.testing.assert_frame_equal(
        la.reset_index(drop=True), lb.reset_index(drop=True)
    )


def test_docstats_identical_across_parallelism(two_indexes):
    a, b = two_indexes
    sa = _table(os.path.join(a, "docstats")).to_pandas().sort_values("doc_id")
    sb = _table(os.path.join(b, "docstats")).to_pandas().sort_values("doc_id")
    assert sa["doc_id"].tolist() == sb["doc_id"].tolist()
    assert sa["tf_max"].tolist() == sb["tf_max"].tolist()
    np.testing.assert_allclose(
        sa["doc_len_norm"], sb["doc_len_norm"], rtol=0, atol=0
    )  # identical inputs → bit-identical norms


def test_search_rank_identical_across_parallelism(two_indexes):
    from web_based_search_engine_ray.pipelines.search import Searcher

    a, b = two_indexes
    sa, sb = Searcher(a), Searcher(b)
    for words, phrase in [
        ({"spark", "merge"}, None),
        ({"window"}, ["window", "window"]),
        ({"fast", "key", "table"}, ["fast", "key"]),
    ]:
        ra = sa.search(words, phrase, k=100, hydrate=False)
        rb = sb.search(words, phrase, k=100, hydrate=False)
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist()
        np.testing.assert_allclose(
            ra["score"].to_numpy(np.float64),
            rb["score"].to_numpy(np.float64),
            rtol=0, atol=0,
        )


def test_resume_after_partial_failure(ray_session, tmp_path_factory, sf_dir):
    base = tmp_path_factory.mktemp("resume")
    out = str(base / "idx")
    _build(sf_dir, out, shuffle_partitions=4, parallelism=4,
           input_key="resume-test")
    lex_before = _table(os.path.join(out, "lexicon")).to_pandas().sort_values(
        "term").reset_index(drop=True)

    # simulate a crash that lost the segments and docstats artifacts
    shutil.rmtree(os.path.join(out, "docstats"))
    os.remove(out + "/docstats.manifest.json")
    shutil.rmtree(os.path.join(out, "segments"))
    # segments manifests left behind on purpose: dir missing → incomplete

    report = _build(sf_dir, out, shuffle_partitions=4, parallelism=4,
                    resume=True, input_key="resume-test")
    stages = {s["name"]: s for s in report["stages"]}
    assert stages["extracted"]["skipped"]
    assert not stages["segments"]["skipped"]
    assert stages["lexicon"]["skipped"]
    assert not stages["docstats"]["skipped"]

    lex_after = _table(os.path.join(out, "lexicon")).to_pandas().sort_values(
        "term").reset_index(drop=True)
    pd.testing.assert_frame_equal(lex_before, lex_after)

    from web_based_search_engine_ray.pipelines.search import Searcher

    res = Searcher(out).search({"spark"}, k=5, hydrate=False)
    assert len(res) == 5


def test_partitioned_build_resume_per_shard(ray_session, tmp_path_factory,
                                            sf_dir):
    """A crash mid-segments resumes at the failed SHARD — completed
    shard partitions are skipped (byte-stable on disk) and the final
    artifacts equal an uninterrupted build's."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    base = tmp_path_factory.mktemp("partres")
    out = str(base / "idx")
    mono = str(base / "mono")
    cfg = IndexConfig(shuffle_partitions=4, num_buckets=8, doc_shards=4)
    build_index(lambda: synth_corpus(sf_dir), out, cfg,
                input_key="partres", resume=False)

    # simulate a crash while building shards 1 and 2 of segments: kill
    # their dirs + part manifests; ALSO drop the stage-level manifest
    # (a real crash dies before writing it)
    dead = (1, 2)
    for s in dead:
        shutil.rmtree(os.path.join(out, "segments", f"doc_shard={s}"))
        os.remove(os.path.join(out, "_part_manifests",
                               f"segments.doc_shard={s}.json"))
    os.remove(os.path.join(out, "segments.manifest.json"))
    # the downstream docstats stage is lost too
    shutil.rmtree(os.path.join(out, "docstats"))
    os.remove(os.path.join(out, "docstats.manifest.json"))

    mtimes = {
        s: os.path.getmtime(os.path.join(out, "segments", f"doc_shard={s}"))
        for s in range(4)
        if s not in dead
    }
    report = build_index(lambda: synth_corpus(sf_dir), out, cfg,
                         input_key="partres", resume=True)
    stages = {s["name"]: s for s in report["stages"]}
    assert stages["extracted"]["skipped"]
    assert not stages["segments"]["skipped"]
    assert not stages["docstats"]["skipped"]
    # only the killed shards were rebuilt
    for s, old in mtimes.items():
        now = os.path.getmtime(os.path.join(out, "segments",
                                            f"doc_shard={s}"))
        assert now == old, f"segments shard {s} was rebuilt"

    # artifacts equal an uninterrupted build's
    build_index(lambda: synth_corpus(sf_dir), mono, cfg,
                input_key="partres-mono", resume=False)
    for art, key in (("lexicon", "term"), ("docstats", "doc_id")):
        a = _table(os.path.join(out, art)).to_pandas().sort_values(
            key).reset_index(drop=True)
        b = _table(os.path.join(mono, art)).to_pandas().sort_values(
            key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_partitioned_rebuild_with_fewer_shards_drops_stale_parts(
    ray_session, tmp_path_factory, sf_dir
):
    """Rebuilding into the same out_dir with a SMALLER ``doc_shards``
    must clear the previous layout's extra ``doc_shard=`` partitions —
    hive discovery would otherwise count their rows as live postings
    (regression: the stage-root cleanup preserved ALL doc_shard=
    entries, not just the current config's)."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    base = tmp_path_factory.mktemp("shrink")
    out, clean = str(base / "idx"), str(base / "clean")
    kw = dict(shuffle_partitions=4, num_buckets=8)
    build_index(lambda: synth_corpus(sf_dir), out,
                IndexConfig(doc_shards=4, **kw),
                input_key="shrink", resume=False)
    build_index(lambda: synth_corpus(sf_dir), out,
                IndexConfig(doc_shards=2, **kw),
                input_key="shrink", resume=False)
    for stage in ("extracted", "segments", "docstats"):
        parts = sorted(
            e for e in os.listdir(os.path.join(out, stage))
            if e.startswith("doc_shard=")
        )
        assert parts == ["doc_shard=0", "doc_shard=1"], (stage, parts)

    build_index(lambda: synth_corpus(sf_dir), clean,
                IndexConfig(doc_shards=2, **kw),
                input_key="shrink-clean", resume=False)
    a = Searcher(out).search({"spark", "merge"}, k=10, hydrate=False)
    b = Searcher(clean).search({"spark", "merge"}, k=10, hydrate=False)
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
