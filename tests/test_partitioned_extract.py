"""Partition-level extract checkpoints: per-part manifests, resume
re-extracts only incomplete parts, and the result is equivalent to a
monolithic build."""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow.dataset as pads
import pytest


def _parts(sf_dir, n=4):
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    def make(i):
        def fn():
            import pyarrow as pa

            ds = synth_corpus(sf_dir)
            return ds.map_batches(
                lambda b, _i=i: b.filter(
                    pa.array(
                        b["doc_id"].to_numpy(zero_copy_only=False) % n == _i
                    )
                ),
                batch_format="pyarrow",
            )

        return fn

    return lambda: [(f"{i:04d}", make(i)) for i in range(n)]


@pytest.fixture(scope="module")
def part_index(ray_session, tmp_path_factory, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index

    cfg = IndexConfig(
        shuffle_partitions=4, num_buckets=4,
    )
    out = str(tmp_path_factory.mktemp("parts") / "idx")
    report = build_index(
        lambda: (_ for _ in ()).throw(RuntimeError("unused")),
        out, cfg, input_key="parts-v1", resume=False,
        corpus_parts_fn=_parts(sf_dir),
    )
    return out, cfg, report


def test_part_manifests_written(part_index):
    out, _, report = part_index
    parts_dir = os.path.join(out, "extracted_parts")
    assert sorted(os.listdir(parts_dir)) == [
        "part-0000", "part-0000.manifest.json",
        "part-0001", "part-0001.manifest.json",
        "part-0002", "part-0002.manifest.json",
        "part-0003", "part-0003.manifest.json",
    ]
    ext = [s for s in report["stages"] if s["name"] == "extracted"][0]
    assert ext["rows"] == 500
    assert report["n_docs"] == 500


def test_partial_resume_rebuilds_only_missing_part(part_index, sf_dir):
    from web_based_search_engine_ray.pipelines.build_index import build_index

    out, cfg, _ = part_index
    parts_dir = os.path.join(out, "extracted_parts")
    victim = os.path.join(parts_dir, "part-0002")
    before = {
        p: os.path.getmtime(os.path.join(parts_dir, p))
        for p in os.listdir(parts_dir)
        if not p.endswith(".json") and p != "part-0002"
    }
    shutil.rmtree(victim)
    os.remove(victim + ".manifest.json")

    report = build_index(
        lambda: (_ for _ in ()).throw(RuntimeError("unused")),
        out, cfg, input_key="parts-v1", resume=True,
        corpus_parts_fn=_parts(sf_dir),
    )
    assert os.path.isdir(victim)
    for p, t in before.items():
        assert os.path.getmtime(os.path.join(parts_dir, p)) == t
    assert report["n_docs"] == 500


def test_part_build_matches_monolithic(part_index, sf_dir, tmp_path_factory):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    out, cfg, _ = part_index
    mono = str(tmp_path_factory.mktemp("mono") / "idx")
    build_index(
        lambda: synth_corpus(sf_dir), mono, cfg,
        input_key="mono-v1", resume=False,
    )
    for artifact in ("lexicon", "docstats"):
        a = (
            pads.dataset(os.path.join(out, artifact), format="parquet")
            .to_table().to_pandas()
            .sort_values(
                "term" if artifact == "lexicon" else "doc_id"
            ).reset_index(drop=True)
        )
        b = (
            pads.dataset(os.path.join(mono, artifact), format="parquet")
            .to_table().to_pandas()
            .sort_values(
                "term" if artifact == "lexicon" else "doc_id"
            ).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b, obj=artifact)
