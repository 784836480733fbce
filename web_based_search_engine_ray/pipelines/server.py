"""Thin HTTP search frontend mirroring the reference web server
(``JavalinServer.java:27-84`` + ``index.jte`` / ``result.jte``).

Routes:

- ``GET /``        — the search form (``index.jte``);
- ``GET /result``  — parse ``?search=`` with the reference query
  semantics (``JavalinServer.java:48-61``: all tokens form the keyword
  set, the outermost double-quoted span forms the ordered phrase), run
  the engine, render the result page (``result.jte`` shape: shown
  keyword/phrase stems, then per result score/title/url, last-modified
  + page size, top keywords, parent/child link lists).

Implementation notes: stdlib ``http.server`` (no web framework in this
environment); one in-process ``Searcher`` is loaded once at startup
and shared across requests.  ``Searcher.search`` mutates per-instance
scratch state (the dense score accumulator ``_acc`` / ``_touched`` and
the decode caches), so concurrent handler threads must NOT interleave
calls — a per-server ``threading.Lock`` serializes the search and
hydrate calls (form/404 routes and the page render stay lock-free).
Hydration reads a per-Searcher store of the result-page rows
(extracted's page columns and link lists, forward's keyword counts)
that the first ``/result`` request loads, under that same lock; the
page is rendered from those Arrow rows.

A running server is not isolated from ``update_index`` on its index:
the update deletes and replaces segment files under a live
``Searcher``, whose next reads can then fail (``FileNotFoundError``)
or return pre-update scores from its caches, and a lexicon bucket or
the hydrate store first loaded after the update mixes the new index
version with the old.  Restart the server after an update; index
generations that keep a reader's version live are ROADMAP direction 2.
This is a demo/debug surface; batch workloads should use
``pipelines.search.ShardedSearcher.batch_search``.
"""

from __future__ import annotations

import html
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from web_based_search_engine_ray.pipelines.search import Searcher, parse_query

_INDEX_PAGE = """<!DOCTYPE html>
<html lang="en">
<head><title>Search Page</title></head>
<body>
    <h1>Search Page</h1>
    <form action="/result">
        <input type="text" name="search" placeholder="Enter your search query">
        <input type="submit" value="Search">
    </form>
</body>
</html>"""


#: ``html.escape`` (``quote=True``) as ordered substring replacements
_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
            ("'", "&#x27;"))


def _escape(arr: pa.StringArray) -> pa.Array:
    """``html.escape`` of each value; a replacement whose character is
    not in the values' bytes is skipped."""
    data = arr.buffers()[2]
    data = data.to_pybytes() if data is not None else b""
    for old, new in _ESCAPES:
        if old.encode() in data:
            arr = pc.replace_substring(arr, old, new)
    return arr


def _join_lists(lists: pa.Array, items: pa.Array, sep: str) -> pa.Array:
    """Per list of ``lists``, its ``items`` (one per flattened value)
    joined by ``sep``."""
    offsets = lists.offsets.to_numpy()
    return pc.binary_join(pa.LargeListArray.from_arrays(
        pa.array(offsets - offsets[0]), items), sep)


def _render_result_page(keyword_stems, phrase_stems, rows: pa.Table) -> str:
    """The ``result.jte`` page for :meth:`Searcher.hydrate`'s rows.  All
    text values (titles, urls, keyword terms, links) are HTML-escaped
    in one column-wise pass, and each row's block is joined
    column-wise from them; only the score and timestamp strings are
    formatted per row."""
    parts = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n",
        "<head><title>Search Results</title></head>\n<body>\n",
        '<form action="/result">\n'
        '<input type="text" name="search" placeholder="Enter your search query">\n'
        '<input type="submit" value="Search">\n</form>\n',
        "<h1>Search Results</h1>\n",
        f"<h4>Search keywords: {html.escape(str(sorted(keyword_stems)))}</h4>\n",
        f"<h4>Search phrase: {html.escape(str(list(phrase_stems)))}</h4>\n",
        "<ol>\n",
    ]
    if rows.num_rows == 0:
        parts.append("<p>No matching document found.</p>\n")
    else:
        rows = rows.combine_chunks()
        kw, parent, child = (rows[c].chunk(0) for c in (
            "keywords", "parent_links", "child_links"))
        pairs = kw.flatten()
        texts = [rows["title"].chunk(0), rows["url"].chunk(0),
                 pairs.field("term"), parent.flatten(), child.flatten()]
        escaped = _escape(pa.concat_arrays(texts))
        ends = np.cumsum([len(t) for t in texts]).tolist()
        title, url, term, parent_url, child_url = (
            escaped.slice(a, b - a) for a, b in zip([0] + ends, ends))
        links = [_join_lists(lists, pc.binary_join_element_wise(
            '<li><a href="', u, '">', u, "</a></li>\n", ""), "")
            for lists, u in ((parent, parent_url), (child, child_url))]
        lm = rows["last_modified"]
        # a frame column with no timestamp at all holds None, not NaT
        no_time = "NaT" if lm.null_count < len(lm) else "None"
        blocks = pc.binary_join_element_wise(
            "<li>\n<h3>",
            pa.array([f"{x:.4f}" for x in rows["score"].to_numpy().tolist()]),
            ' <a href="', url, '">', title, '</a></h3>\n<a href="', url,
            '">', url, "</a>\n<p>",
            pa.array([no_time if t is None else str(t)
                      for t in lm.to_pylist()], pa.string()),
            ", ", rows["page_size"].cast(pa.string()),
            "</p>\n<p>Keywords: ",
            _join_lists(kw, pc.binary_join_element_wise(
                term, pairs.field("freq").cast(pa.string()), " "), "; "),
            "</p>\n<p>Parent Links:</p>\n<ul>\n", links[0],
            "</ul>\n<p>Child Links:</p>\n<ul>\n", links[1],
            "</ul>\n</li>\n", "")
        parts.extend(blocks.to_numpy(zero_copy_only=False).tolist())
    parts.append("</ol>\n</body>\n</html>")
    return "".join(parts)


class _Handler(BaseHTTPRequestHandler):
    searcher: Searcher = None  # class-level, set by make_server
    search_lock: threading.Lock = None  # serializes Searcher scratch state

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, code: int, body: str):
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        u = urlparse(self.path)
        if u.path == "/":
            self._send(200, _INDEX_PAGE)
        elif u.path == "/result":
            q = parse_qs(u.query).get("search", [""])[0]
            words, phrase = parse_query(q)
            s = self.searcher
            with self.search_lock:
                rows = s.hydrate(s.search(words, phrase, hydrate=False))
            kw_stems = {
                w for w in (s.stem_query_word(x) for x in words) if w
            }
            ph_stems = [
                w for w in (s.stem_query_word(x) for x in phrase) if w
            ]
            self._send(200, _render_result_page(kw_stems, ph_stems, rows))
        else:
            self._send(404, "<h1>404</h1>")


def make_server(index_dir: str, port: int = 0) -> ThreadingHTTPServer:
    """Bind a server for the given index (port 0 = ephemeral); call
    ``.serve_forever()`` (or ``.handle_request()``) on the result."""
    handler = type(
        "Handler",
        (_Handler,),
        {"searcher": Searcher(index_dir), "search_lock": threading.Lock()},
    )
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def serve(index_dir: str, port: int = 8080):
    srv = make_server(index_dir, port)
    print(f"serving index {index_dir} on http://127.0.0.1:{srv.server_port}")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
