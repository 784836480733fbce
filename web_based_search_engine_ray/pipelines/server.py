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
environment).  Requests run on a fixed pool of ``_HANDLER_THREADS``
persistent handler threads, not on a new thread each; a connection
that sends nothing for ``_IDLE_TIMEOUT_S`` is closed, so idle clients
cannot hold the pool.  One in-process ``Searcher`` is loaded once at
startup and shared across requests.  ``Searcher.search`` mutates
per-instance scratch state (the dense score accumulator ``_acc`` /
``_touched`` and the decode cache), so concurrent handler threads must
NOT interleave calls — a per-server ``threading.Lock`` serializes the
search and hydrate calls (form/404 routes and the page join stay
lock-free).  The page's keyword and phrase stems come from the
process's memoized stemmer (thread-safe), which the search has already
filled, so a query word is stemmed once however often it is shown.
Hydration reads a per-Searcher store of the result-page rows that the
first ``/result`` request loads, under that same lock.  The store
holds each doc's result block but its score, HTML-escaped and rendered
once per doc when it loads
(:func:`~web_based_search_engine_ray.pipelines.search.result_blocks`),
so a request only looks up its k rows and joins each block with its
score.  A request that raises gets a 500 page and the traceback goes
to this module's logger.

A running server is not isolated from ``update_index`` on its index:
the update deletes and replaces segment files under a live
``Searcher``, whose next reads can then fail (``FileNotFoundError``,
answered with a 500) or return pre-update scores from its caches, and
a lexicon bucket or the hydrate store first loaded after the update
mixes the new index version with the old.  Restart the server after an update; index
generations that keep a reader's version live are ROADMAP direction 2.
This is a demo/debug surface; batch workloads should use
``pipelines.search.ShardedSearcher.batch_search``, which sends one
``search_many`` RPC per shard actor and merges once in the caller.
"""

from __future__ import annotations

import html
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pyarrow as pa
import pyarrow.compute as pc

from web_based_search_engine_ray.pipelines.search import Searcher, parse_query

logger = logging.getLogger(__name__)

#: persistent request-handler threads per server
_HANDLER_THREADS = 8
#: seconds a connection may wait on its client before it is closed
_IDLE_TIMEOUT_S = 30

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


def _render_result_page(keyword_stems, phrase_stems, rows: pa.Table) -> str:
    """The ``result.jte`` page for :meth:`Searcher.hydrate`'s rows: the
    page frame around each row's ``"<li>\\n<h3>"``, score and
    pre-rendered block columns
    (:func:`~web_based_search_engine_ray.pipelines.search.result_blocks`)."""
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
        lm = rows["block_lm"]
        # a frame column with no timestamp at all holds None, not NaT
        no_time = "NaT" if lm.null_count < len(lm) else "None"
        blocks = pc.binary_join_element_wise(
            "<li>\n<h3>",
            pa.array([f"{x:.4f}" for x in rows["score"].to_numpy().tolist()]),
            rows["block_head"], pc.fill_null(lm, no_time),
            rows["block_tail"], "")
        parts.extend(blocks.to_numpy(zero_copy_only=False).tolist())
    parts.append("</ol>\n</body>\n</html>")
    return "".join(parts)


class _Handler(BaseHTTPRequestHandler):
    searcher: Searcher = None  # class-level, set by make_server
    search_lock: threading.Lock = None  # serializes Searcher scratch state
    timeout = _IDLE_TIMEOUT_S

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
        try:
            code, body = self._page(urlparse(self.path))
        except Exception:  # noqa: BLE001 -- the client gets a status
            logger.exception("GET %s failed", self.path)
            code, body = 500, "<h1>500 Internal Server Error</h1>"
        self._send(code, body)

    def _page(self, u) -> tuple[int, str]:
        if u.path == "/":
            return 200, _INDEX_PAGE
        if u.path != "/result":
            return 404, "<h1>404</h1>"
        q = parse_qs(u.query).get("search", [""])[0]
        words, phrase = parse_query(q)
        s = self.searcher
        with self.search_lock:
            rows = s.hydrate(s.search(words, phrase, hydrate=False))
        kw_stems = {w for w in map(s.stem_query_word, words) if w}
        ph_stems = [w for w in map(s.stem_query_word, phrase) if w]
        return 200, _render_result_page(kw_stems, ph_stems, rows)


class _PooledHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose requests run on a pool of
    ``_HANDLER_THREADS`` persistent threads; ``server_close`` waits for
    the requests in flight and ends the pool."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool = ThreadPoolExecutor(_HANDLER_THREADS,
                                        thread_name_prefix="http-handler")

    def process_request(self, request, client_address):
        self._pool.submit(self.process_request_thread, request,
                          client_address)

    def server_close(self):
        super().server_close()
        self._pool.shutdown()


def make_server(index_dir: str, port: int = 0) -> ThreadingHTTPServer:
    """Bind a server for the given index (port 0 = ephemeral); call
    ``.serve_forever()`` (or ``.handle_request()``) on the result, and
    ``.server_close()`` when done."""
    handler = type(
        "Handler",
        (_Handler,),
        {"searcher": Searcher(index_dir), "search_lock": threading.Lock()},
    )
    return _PooledHTTPServer(("127.0.0.1", port), handler)


def serve(index_dir: str, port: int = 8080):
    srv = make_server(index_dir, port)
    print(f"serving index {index_dir} on http://127.0.0.1:{srv.server_port}")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
