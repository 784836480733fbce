"""PageRank pipeline vs a dense in-memory reference implementation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from web_based_search_engine_ray.pipelines.graph import pagerank


def dense_pagerank(edges, damping=0.85, iters=10):
    """Literal dense reference: same node set (src ∪ dst), distinct
    edges, dangling mass redistributed uniformly, fixed iterations."""
    edges = sorted(set(edges))
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    idx = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n, dtype=np.int64)
    for u, _ in edges:
        out[idx[u]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dm = r[out == 0].sum()
        contrib = np.zeros(n)
        for u, v in edges:
            contrib[idx[v]] += r[idx[u]] / out[idx[u]]
        r = (1.0 - damping) / n + damping * (contrib + dm / n)
    return dict(zip(nodes, r))


def _run(edges, **kw):
    t = pa.table(
        {
            "src_url": pa.array([u for u, _ in edges], type=pa.string()),
            "dst_url": pa.array([v for _, v in edges], type=pa.string()),
        }
    )
    res = pagerank(rd.from_arrow(t), num_buckets=8, **kw).to_pandas()
    return dict(zip(res["url"], res["pagerank"]))


def _check(edges, **kw):
    got = _run(edges, **kw)
    want = dense_pagerank(edges, **kw)
    assert set(got) == set(want)
    for u in want:
        assert got[u] == pytest.approx(want[u], abs=1e-12), u
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)


def test_triangle_with_dangling():
    # c is dangling (no outlinks); a has outdeg 2
    _check([("a", "b"), ("b", "a"), ("c", "a"), ("a", "c")])


def test_pure_dangling_sink():
    _check([("a", "sink"), ("b", "sink"), ("c", "sink")])


def test_chain():
    edges = [(f"n{i}", f"n{i+1}") for i in range(50)]
    _check(edges, iters=5)


def test_duplicate_edges_collapse():
    base = [("a", "b"), ("b", "c"), ("c", "a")]
    got_dup = _run(base * 3)
    got = _run(base)
    assert got.keys() == got_dup.keys()
    for u in got:
        assert got[u] == pytest.approx(got_dup[u], abs=1e-12)


def test_determinism_across_runs():
    edges = [(f"u{i}", f"u{(i * 7 + 3) % 40}") for i in range(120)]
    a, b = _run(edges, iters=6), _run(edges, iters=6)
    assert a.keys() == b.keys()
    for u in a:
        assert a[u] == pytest.approx(b[u], abs=1e-12)


def test_empty_edges():
    t = pa.table(
        {
            "src_url": pa.array([], type=pa.string()),
            "dst_url": pa.array([], type=pa.string()),
        }
    )
    ds = pagerank(rd.from_arrow(t), num_buckets=4)
    assert ds.count() == 0
    assert ds.schema().names == ["url", "pagerank"]


def test_star_graph_favors_center():
    edges = [(f"leaf{i}", "center") for i in range(20)]
    got = _run(edges)
    assert got["center"] == max(got.values())
    leaf_vals = [v for k, v in got.items() if k != "center"]
    assert max(leaf_vals) == pytest.approx(min(leaf_vals), abs=1e-15)


def test_cli_pagerank_keeps_top_k_on_workers(ray_session, tmp_path,
                                             monkeypatch, capsys):
    """The CLI ``pagerank`` verb prints the same top K as a pandas full
    sort, while the driver collects at most K rows per block."""
    import os

    import pyarrow.parquet as pq
    import ray

    from web_based_search_engine_ray.__main__ import main
    from web_based_search_engine_ray.sources.webcorpus import synth_batch
    from web_based_search_engine_ray.stages.extract import link_edges

    ids = np.arange(200, dtype=np.int64)
    web = synth_batch(pa.table({
        "doc_id": ids,
        "text": pa.array([f"doc {i}" for i in ids]),
        "lang": pa.array(["en"] * len(ids)),
    }))
    urls = web["url"].to_pylist()
    # a cycle with chords, plus five pages outside the corpus that tie
    links = [[urls[(i * 7 + 3) % 200], f"https://ext.example/{i % 5}"]
             + [urls[(i + 1) % 200]] * (i % 2) for i in range(200)]
    pages = pa.table({"doc_id": web["doc_id"], "url": web["url"],
                      "links": pa.array(links, pa.list_(pa.string()))})
    part = tmp_path / "idx" / "extracted" / "doc_shard=0"
    part.mkdir(parents=True)
    pq.write_table(pages, str(part / "part-0.parquet"))

    ranks = pagerank(rd.from_arrow(link_edges(pages)), iters=10).materialize()
    blocks = ranks.num_blocks()
    want_all = ranks.to_pandas()
    want = (want_all.sort_values(["pagerank", "url"], ascending=[False, True])
            .head(3))

    collected = []
    real = rd.Dataset.to_pandas
    monkeypatch.setattr(rd.Dataset, "to_pandas",
                        lambda self, *a, **kw: collected.append(
                            real(self, *a, **kw)) or collected[-1])
    monkeypatch.setattr(ray, "shutdown", lambda *a, **kw: None)
    main(["pagerank", "--index", os.path.join(tmp_path, "idx"),
          "--top", "3"])
    printed = capsys.readouterr().out
    assert collected
    assert max(len(f) for f in collected) <= 3 * blocks < len(want_all)
    assert printed.strip() == want.to_string(index=False).strip()
