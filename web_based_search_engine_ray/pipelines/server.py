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
calls — a per-server ``threading.Lock`` serializes the search section
(form/404 routes stay lock-free).  Hydration reads a per-Searcher store
of the result-page columns (extracted's page columns and link lists,
forward's keyword counts) that the first ``/result`` request loads,
under that same lock; like the lexicon and docstats caches it is never
reloaded, so a server serves the one index version it started on.
This is a demo/debug surface; batch workloads should use
``pipelines.search.ShardedSearcher.batch_search``.
"""

from __future__ import annotations

import html
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

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


def _render_result_page(keyword_stems, phrase_stems, results) -> str:
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
    if len(results) == 0:
        parts.append("<p>No matching document found.</p>\n")
    for r in results.to_dict("records"):
        url = html.escape(str(r["url"]), quote=True)
        kw = "; ".join(f"{w} {f}" for w, f in r["keywords"])
        parts.append(
            "<li>\n"
            f"<h3>{r['score']:.4f} <a href=\"{url}\">"
            f"{html.escape(str(r['title']))}</a></h3>\n"
            f"<a href=\"{url}\">{url}</a>\n"
            f"<p>{html.escape(str(r['last_modified']))}, {int(r['page_size'])}</p>\n"
            f"<p>Keywords: {html.escape(kw)}</p>\n"
            "<p>Parent Links:</p>\n<ul>\n"
            + "".join(
                f'<li><a href="{html.escape(u, quote=True)}">'
                f"{html.escape(u)}</a></li>\n"
                for u in r["parent_links"]
            )
            + "</ul>\n<p>Child Links:</p>\n<ul>\n"
            + "".join(
                f'<li><a href="{html.escape(u, quote=True)}">'
                f"{html.escape(u)}</a></li>\n"
                for u in r["child_links"]
            )
            + "</ul>\n</li>\n"
        )
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
                res = s.search(words, phrase, hydrate=True)
            kw_stems = {
                w for w in (s.stem_query_word(x) for x in words) if w
            }
            ph_stems = [
                w for w in (s.stem_query_word(x) for x in phrase) if w
            ]
            self._send(200, _render_result_page(kw_stems, ph_stems, res))
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
