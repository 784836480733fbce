"""WARC source: read Common-Crawl-style WARC files into the corpus
table shape ``(url, warc_ts, html)``.

WARC (Web ARChive, ISO 28500 / WARC 1.0 — a public format; parser
written from the spec) is the on-disk format of real Common Crawl
dumps, so ingesting it directly removes the need for a pre-conversion
step: ``read_warc(paths)`` → ``build_index`` works end-to-end (the
extract stage derives ``doc_id`` from the url when absent,
``stages/extract.py:84-92``).

Scale shape: Common Crawl ships ~1 GB gzipped WARC files by the tens
of thousands — file-level parallelism is natural, so the reader is
``read_binary_files`` (one block per file) → ``flat_map``-style
``map_batches`` parse.  Per-record member gzip (the Common Crawl
layout) and whole-file gzip both decompress transparently
(``gzip.decompress`` handles concatenated members).  Only
``WARC-Type: response`` records become rows; request/metadata/warcinfo
records are skipped, matching what an indexing pipeline consumes.

A deterministic writer (``write_warc``) exists so tests and benches
can synthesize inputs without network access.
"""

from __future__ import annotations

import gzip
import io
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa

_CRLF2 = b"\r\n\r\n"


def _parse_warc_date(s: str) -> np.datetime64:
    # WARC-Date is ISO 8601 UTC, e.g. 2017-03-22T17:39:09Z
    dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
    dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(dt, "us")


def _http_payload(body: bytes) -> bytes:
    """HTTP response record body → payload (bytes after the header
    block); a body with no header block is returned as-is."""
    i = body.find(_CRLF2)
    if body.startswith(b"HTTP/") and i >= 0:
        return body[i + len(_CRLF2):]
    return body


def parse_warc_records(data: bytes):
    """Yield ``(headers: dict[str, str], body: bytes)`` per WARC record.

    Record grammar (WARC 1.0 §4): version line + named fields, CRLF
    CRLF, ``Content-Length`` body bytes, CRLF CRLF.  Header names are
    lower-cased.  Failure semantics matter at crawl scale: a TRUNCATED
    TAIL (fewer bytes than the last record's declared length, or an
    unterminated header block at EOF) ends parsing quietly — a partial
    fetch of a 1 GB member still yields its complete records — but
    MID-FILE corruption (a non-``WARC/`` version line, an unparsable
    ``Content-Length``) RAISES: silently stopping there would drop
    every remaining record of the member and be indistinguishable from
    clean EOF."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    i, n = 0, len(data)
    rec = 0
    while i < n:
        while data.startswith(b"\r\n", i):
            i += 2
        if i >= n:
            break
        he = data.find(_CRLF2, i)
        if he < 0:
            break  # header block never terminated: truncated tail
        head = data[i:he].decode("utf-8", "replace")
        lines = head.split("\r\n")
        if not lines or not lines[0].startswith("WARC/"):
            raise ValueError(
                f"malformed WARC data at byte {i} (record {rec}): "
                f"expected a WARC/ version line, got "
                f"{lines[0][:40]!r}"
            )
        headers: dict[str, str] = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ValueError(
                f"malformed WARC record {rec} at byte {i}: unparsable "
                f"Content-Length {headers.get('content-length')!r}"
            ) from None
        body = data[he + len(_CRLF2): he + len(_CRLF2) + length]
        if len(body) < length:
            break  # truncated tail
        i = he + len(_CRLF2) + length
        rec += 1
        yield headers, body


def warc_batch_to_corpus(batch: pa.Table) -> pa.Table:
    """``read_binary_files`` batch (``bytes`` [, ``path``]) → corpus
    rows (url, warc_ts, html) from the response records."""
    urls: list[str] = []
    ts: list[np.datetime64] = []
    htmls: list[bytes] = []
    for blob in batch["bytes"].to_pylist():
        for headers, body in parse_warc_records(blob):
            if headers.get("warc-type") != "response":
                continue
            uri = headers.get("warc-target-uri")
            date = headers.get("warc-date")
            if not uri or not date:
                continue
            urls.append(uri)
            ts.append(_parse_warc_date(date))
            htmls.append(_http_payload(body))
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(
                np.array(ts, dtype="datetime64[us]")
                if ts else np.empty(0, dtype="datetime64[us]"),
                type=pa.timestamp("us"),
            ),
            "html": pa.array(htmls, type=pa.binary()),
        }
    )


def read_warc(paths):
    """Ray Dataset of corpus rows from WARC file(s)/dir(s).

    One input file = one read block (WARC members do not split without
    an index), so size the dump's file count to the cluster — the
    Common Crawl layout (tens of thousands of ~1 GB files) already
    does.  Records stream through ``map_batches``; nothing driver-side.
    """
    import ray.data as rd

    ds = rd.read_binary_files(paths)
    return ds.map_batches(warc_batch_to_corpus, batch_format="pyarrow")


def write_warc(path: str, records, *, compress: bool = False) -> None:
    """Write ``(url, warc_ts_iso: str, html: bytes)`` triples as a
    minimal WARC 1.0 response file (plus a leading warcinfo record, as
    real dumps carry).  ``compress=True`` gzips per record member —
    the Common Crawl layout."""
    def record(rtype: str, headers: list[tuple[str, str]],
               body: bytes) -> bytes:
        head = [f"WARC/1.0"]
        head += [f"WARC-Type: {rtype}"]
        head += [f"{k}: {v}" for k, v in headers]
        head += [f"Content-Length: {len(body)}"]
        blob = (
            "\r\n".join(head).encode() + _CRLF2 + body + _CRLF2
        )
        return gzip.compress(blob) if compress else blob

    out = io.BytesIO()
    out.write(record(
        "warcinfo",
        [("WARC-Date", "2024-01-01T00:00:00Z")],
        b"software: web_based_search_engine_ray test writer\r\n",
    ))
    for url, ts_iso, html in records:
        body = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
            + f"Content-Length: {len(html)}".encode()
            + _CRLF2 + html
        )
        out.write(record(
            "response",
            [("WARC-Target-URI", url), ("WARC-Date", ts_iso),
             ("Content-Type", "application/http; msgtype=response")],
            body,
        ))
    with open(path, "wb") as f:
        f.write(out.getvalue())
