"""WARC source: reader/writer round trip and end-to-end build."""

from __future__ import annotations

import gzip

import numpy as np
import pyarrow as pa


def _sample_records():
    return [
        (
            "https://example.com/a.html",
            "2024-03-01T12:00:00Z",
            b"<html><head><title>Alpha</title></head>"
            b"<body><p>spark merge data</p></body></html>",
        ),
        (
            "https://example.com/b.html",
            "2024-03-02T08:30:00Z",
            b"<html><head><title>Beta</title></head>"
            b"<body><p>window stream batch</p></body></html>",
        ),
    ]


def test_warc_roundtrip_plain_and_gzip(tmp_path):
    from web_based_search_engine_ray.sources.warc import (
        parse_warc_records,
        write_warc,
    )

    for compress in (False, True):
        p = tmp_path / f"t{'gz' if compress else ''}.warc"
        write_warc(str(p), _sample_records(), compress=compress)
        data = p.read_bytes()
        if compress:
            assert data[:2] == b"\x1f\x8b"
        recs = list(parse_warc_records(data))
        # warcinfo + 2 responses
        assert [h.get("warc-type") for h, _ in recs] == [
            "warcinfo", "response", "response",
        ]
        urls = [h["warc-target-uri"] for h, _ in recs[1:]]
        assert urls == [r[0] for r in _sample_records()]
        # http header block is stripped from the payload downstream
        from web_based_search_engine_ray.sources.warc import _http_payload

        payload = _http_payload(recs[1][1])
        assert payload.startswith(b"<html>") and b"Alpha" in payload


def test_warc_truncated_tail_yields_complete_records(tmp_path):
    from web_based_search_engine_ray.sources.warc import (
        parse_warc_records,
        write_warc,
    )

    p = tmp_path / "t.warc"
    write_warc(str(p), _sample_records())
    data = p.read_bytes()
    recs = list(parse_warc_records(data[:-40]))  # cut into last record
    assert [h.get("warc-type") for h, _ in recs] == ["warcinfo", "response"]


def test_read_warc_dataset_and_build(ray_session, tmp_path):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.search import Searcher
    from web_based_search_engine_ray.sources.warc import read_warc, write_warc

    d = tmp_path / "dump"
    d.mkdir()
    write_warc(str(d / "part-0.warc"), _sample_records())
    write_warc(
        str(d / "part-1.warc.gz"),
        [(
            "https://example.com/c.html",
            "2024-03-03T00:00:00Z",
            b"<html><head><title>Gamma</title></head>"
            b"<body><p>spark data</p></body></html>",
        )],
        compress=True,
    )

    ds = read_warc([str(d / "part-0.warc"), str(d / "part-1.warc.gz")])
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert sorted(t["url"].to_pylist()) == [
        "https://example.com/a.html",
        "https://example.com/b.html",
        "https://example.com/c.html",
    ]
    assert t["warc_ts"].type == pa.timestamp("us")
    ts = t["warc_ts"].to_numpy(zero_copy_only=False)
    assert ts.min() == np.datetime64("2024-03-01T12:00:00", "us")

    out = str(tmp_path / "idx")
    cfg = IndexConfig(
        shuffle_partitions=2,
    )
    build_index(
        lambda: read_warc(str(d)), out, cfg,
        input_key="warctest", resume=False,
    )
    s = Searcher(out)
    res = s.search({"spark"}, k=10, hydrate=True)
    assert sorted(res["title"]) == ["Alpha", "Gamma"]
    res2 = s.search({"window"}, k=10, hydrate=True)
    assert list(res2["title"]) == ["Beta"]


def test_warc_midfile_corruption_raises(tmp_path):
    """Mid-file corruption must raise, not silently drop the rest of a
    40k-record member (only truncated TAILS end parsing quietly)."""
    import pytest

    from web_based_search_engine_ray.sources.warc import (
        parse_warc_records,
        write_warc,
    )

    p = tmp_path / "t.warc"
    write_warc(str(p), _sample_records())
    data = p.read_bytes()

    # corrupt the SECOND record's version line
    idx = data.index(b"WARC/1.0", data.index(b"WARC/1.0") + 1)
    bad = data[:idx] + b"GARB/9.9" + data[idx + 8:]
    with pytest.raises(ValueError, match="version line"):
        list(parse_warc_records(bad))

    # corrupt a Content-Length value (same byte count)
    cl = data.index(b"Content-Length: ")
    bad2 = data[:cl + 16] + b"4O" + data[cl + 18:]
    with pytest.raises(ValueError, match="Content-Length"):
        list(parse_warc_records(bad2))
