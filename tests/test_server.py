"""HTTP frontend tests (reference ``JavalinServer`` parity: ``/``
renders the search form, ``/result?search=`` renders the results page
with reference-shaped fields, listing the engine's results in rank
order, also under concurrent requests; a failing request gets a 500;
the persistent handler threads end with the server and idle
connections cannot hold them)."""

import contextlib
import html
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

#: the url of each result entry of a ``/result`` page
_RESULT_URL = re.compile(r'<li>\n<h3>[^<]*<a href="([^"]*)"')


@contextlib.contextmanager
def _running(idx: str):
    """A server for ``idx`` serving on a thread; shut down and closed
    on exit."""
    from web_based_search_engine_ray.pipelines.server import make_server

    srv = make_server(idx, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        t.join(timeout=30)


@pytest.fixture(scope="module")
def sf_index(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.registry import get_index

    return get_index(sf_dir, IndexConfig())


@pytest.fixture(scope="module")
def server(sf_index):
    with _running(sf_index) as srv:
        yield sf_index, f"http://127.0.0.1:{srv.server_port}"


def _get(base: str, query: str, timeout: float = 30) -> tuple[int, str]:
    q = urllib.request.quote(query)
    with urllib.request.urlopen(f"{base}/result?search={q}",
                                timeout=timeout) as r:
        return r.status, r.read().decode()


def test_server_routes(server):
    _, base = server
    home = urllib.request.urlopen(f"{base}/", timeout=10).read().decode()
    assert "Search Page" in home and 'action="/result"' in home

    _, page = _get(base, 'spark "merge batch"')
    assert "Search Results" in page
    assert "Search keywords:" in page and "Search phrase:" in page
    assert "Parent Links:" in page and "Child Links:" in page
    # scores rendered to 4 decimals like the reference template
    assert "<h3>0." in page or "No matching document found" in page

    _, missing = _get(base, "zzznope")
    assert "No matching document found" in missing


@pytest.mark.parametrize("query", ["spark merge", 'window "merge batch"',
                                   "zzznope"])
def test_result_page_lists_the_search_urls_in_order(server, query):
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        parse_query,
    )
    from web_based_search_engine_ray.sources.webcorpus import doc_url

    idx, base = server
    res = Searcher(idx).search(*parse_query(query), hydrate=False)
    status, page = _get(base, query)
    assert status == 200
    got = [html.unescape(u) for u in _RESULT_URL.findall(page)]
    assert got == [doc_url(int(d)) for d in res["doc_id"]]
    assert ("No matching document found" in page) == res.empty
    if query != "zzznope":
        assert len(got) > 0


def test_concurrent_requests_get_the_serial_page(server):
    """8 client threads at once (the handler threads share one Searcher
    behind the search lock) each get the page a serial request got."""
    _, base = server
    queries = ["spark merge", 'window "merge batch"', "data stream",
               "zzznope"]
    want = {q: _get(base, q) for q in queries}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often inside a request
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda i: (queries[i % 4],
                                           _get(base, queries[i % 4])),
                                range(32)))
    finally:
        sys.setswitchinterval(interval)
    for q, (status, page) in got:
        assert status == 200
        assert page == want[q][1]


def test_each_query_word_is_stemmed_once(server, monkeypatch):
    """A phrase query that the server's Searcher answers and the server
    renders runs Porter at most once per distinct word (the search, the
    phrase match and the page header share one memoized stemmer), and
    the same query again runs it not at all."""
    from collections import Counter

    from web_based_search_engine_ray.functions import tokenize

    calls = Counter()
    porter = tokenize.strip_affixes

    def counted(word):
        calls[word] += 1
        return porter(word)

    monkeypatch.setattr(tokenize, "strip_affixes", counted)
    _, base = server
    # mixed-case raw tokens, which no other test stems in this process
    query = 'wInDoW sPaRk "MeRgE bAtCh"'
    status, page = _get(base, query)
    assert status == 200 and _RESULT_URL.findall(page)
    assert max(calls.values(), default=0) <= 1, calls
    calls.clear()
    assert _get(base, query)[1] == page
    assert not calls, calls


def test_failing_request_gets_a_500_page(sf_index, monkeypatch):
    """A ``/result`` whose search raises answers 500 with a short page,
    not a dropped connection, and the next request is served."""
    with _running(sf_index) as srv:
        base = f"http://127.0.0.1:{srv.server_port}"
        want = _get(base, "spark merge")

        def broken(*a, **kw):
            raise FileNotFoundError("segment file replaced under the server")

        monkeypatch.setattr(srv.RequestHandlerClass.searcher, "search",
                            broken)
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "spark merge")
        assert err.value.code == 500
        assert "500" in err.value.read().decode()
        monkeypatch.undo()
        assert _get(base, "spark merge") == want


def test_handler_threads_end_with_the_server(sf_index):
    """Requests run on the server's persistent handler threads, and
    none of them is alive after ``shutdown(); server_close()``."""
    before = set(threading.enumerate())

    def handler_threads():
        return [t for t in threading.enumerate()
                if t not in before and t.name.startswith("http-handler")]

    with _running(sf_index) as srv:
        base = f"http://127.0.0.1:{srv.server_port}"
        with ThreadPoolExecutor(max_workers=4) as pool:
            pages = list(pool.map(lambda q: _get(base, q),
                                  ["spark merge", "data stream"] * 4))
        assert {status for status, _ in pages} == {200}
        assert handler_threads()
    assert not handler_threads()


def test_idle_connections_cannot_hold_the_handler_threads(sf_index,
                                                          monkeypatch):
    """As many idle connections as there are handler threads, open while
    a request comes in: each is closed after the handler timeout, so
    the request is still served."""
    from web_based_search_engine_ray.pipelines import server as server_mod

    monkeypatch.setattr(server_mod._Handler, "timeout", 0.5)
    with _running(sf_index) as srv:
        idle = [socket.create_connection(("127.0.0.1", srv.server_port))
                for _ in range(server_mod._HANDLER_THREADS)]
        try:
            t0 = time.perf_counter()
            status, page = _get(f"http://127.0.0.1:{srv.server_port}",
                                "spark merge", timeout=10)
            assert status == 200 and _RESULT_URL.findall(page)
            assert time.perf_counter() - t0 < 10
        finally:
            for conn in idle:
                conn.close()
