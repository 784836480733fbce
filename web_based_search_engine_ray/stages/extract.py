"""HTML → text/title/links extraction stage.

Replaces the reference's live-HTTP htmlparser extraction
(``Crawler.java:23-70``: StringBean over BODY / TITLE subtrees,
LinkBean for hrefs) with a vectorizable batch transform over the
``html:binary`` column of the corpus table.  Extraction semantics of
this engine (documented contract, exercised by the per-row invariant):

- body text  = content between the first ``<body...>`` and ``</body>``,
  tags stripped (``<[^>]*>``), HTML entities unescaped;
- title      = same treatment over the first ``<title>`` element
  (display form; the reference space-joins the split at
  ``Indexer.java:100`` which round-trips to the raw string);
- links      = ``href`` values of anchor tags inside the document, in
  order (absolute URLs expected, as LinkBean emits);
- page_size  = byte length of the html payload (the reference falls
  back to content length, ``Crawler.java:86-96``);
- last_modified = the ``warc_ts`` column (the reference uses the
  Last-Modified / Date header, ``Crawler.java:72-84``).

For the synthetic corpus the body text round-trips **byte-identically**
to the input ``text`` column; ``verify=True`` asserts that invariant
per row and raises on the first mismatch.
"""

from __future__ import annotations

import html as _html
import re

import pyarrow as pa

from web_based_search_engine_ray.functions.hashing import stable_hash63_array

_BODY_RE = re.compile(rb"<body[^>]*>(.*?)</body>", re.S | re.I)
_TITLE_RE = re.compile(rb"<title[^>]*>(.*?)</title>", re.S | re.I)
_TAG_RE = re.compile(r"<[^>]*>")
_HREF_RE = re.compile(r"""<a\s[^>]*?href\s*=\s*["']([^"']*)["']""", re.S | re.I)
_AMP_RE = re.compile(r"[&<>]")


def _strip(html_bytes: bytes, pattern: re.Pattern) -> str:
    m = pattern.search(html_bytes)
    if not m:
        return ""
    inner = m.group(1).decode("utf-8", errors="replace")
    inner = _TAG_RE.sub("", inner)
    # html.unescape is comparatively slow; skip it when no entity marker
    if "&" in inner:
        inner = _html.unescape(inner)
    return inner


def page_doc_ids(batch: pa.Table) -> pa.Array:
    """The doc ids a batch of corpus rows gets: its ``doc_id`` column
    when it has one, else ``stable_hash63(url)`` per row."""
    if "doc_id" in batch.column_names:
        return batch["doc_id"]
    return pa.array(stable_hash63_array(batch["url"].to_pylist()),
                    type=pa.int64())


class Extractor:
    """Actor-pool / task body: html → (doc_id, url, title, text, links,
    page_size, last_modified, lang).  Compiled state lives in
    ``__init__`` (once per actor), per ``SURVEY.md §2.3``."""

    def __init__(self, *, verify: bool = True):
        self.verify = verify

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch["html"].to_pylist()
        urls = batch["url"].to_pylist()
        texts = []
        titles = []
        links = []
        sizes = []
        for h in htmls:
            texts.append(_strip(h, _BODY_RE))
            titles.append(_strip(h, _TITLE_RE))
            links.append(_HREF_RE.findall(h.decode("utf-8", errors="replace")))
            sizes.append(len(h))

        if self.verify and "text" in batch.column_names:
            expected = batch["text"].to_pylist()
            for u, got, exp in zip(urls, texts, expected):
                if got != exp:
                    raise ValueError(
                        f"extracted text differs from oracle for url={u!r}: "
                        f"{got[:120]!r} != {exp[:120]!r}"
                    )

        # lang is optional on the input contract (build_index docstring:
        # corpus (url, warc_ts, html[, text, lang[, doc_id]])) — real
        # WARC dumps carry no language column
        lang = (
            batch["lang"] if "lang" in batch.column_names
            else pa.nulls(batch.num_rows, pa.string())
        )

        return pa.table(
            {
                "doc_id": page_doc_ids(batch),
                "url": batch["url"],
                "title": pa.array(titles, type=pa.string()),
                "text": pa.array(texts, type=pa.string()),
                "links": pa.array(links, type=pa.list_(pa.string())),
                "page_size": pa.array(sizes, type=pa.int64()),
                "last_modified": batch["warc_ts"],
                "lang": lang,
            }
        )


_EDGE_SCHEMA = pa.schema([
    ("src_doc_id", pa.int64()),
    ("src_url", pa.string()),
    ("dst_url", pa.string()),
])


def link_edges(table: pa.Table) -> pa.Table:
    """The link graph of extracted pages as ``(src_doc_id, src_url,
    dst_url)`` rows: one per entry of a page's ``links`` list, in page
    then link order.  ``table`` needs ``doc_id``, ``url`` and ``links``;
    a zero-row table (columnless or not) gives the typed empty table."""
    import pyarrow.compute as pc

    if table.num_rows == 0:
        return _EDGE_SCHEMA.empty_table()
    links = table["links"].combine_chunks()
    src = pc.list_parent_indices(links)
    return pa.table({
        "src_doc_id": table["doc_id"].take(src),
        "src_url": table["url"].take(src),
        "dst_url": pc.list_flatten(links),
    }, schema=_EDGE_SCHEMA)
