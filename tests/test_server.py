"""HTTP frontend tests (reference ``JavalinServer`` parity: ``/``
renders the search form, ``/result?search=`` renders the results page
with reference-shaped fields, listing the engine's results in rank
order, also under concurrent requests)."""

import html
import re
import sys
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

#: the url of each result entry of a ``/result`` page
_RESULT_URL = re.compile(r'<li>\n<h3>[^<]*<a href="([^"]*)"')


@pytest.fixture(scope="module")
def server(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.server import make_server
    from web_based_search_engine_ray.registry import get_index

    idx = get_index(sf_dir, IndexConfig())
    srv = make_server(idx, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        yield idx, f"http://127.0.0.1:{srv.server_port}"
    finally:
        srv.shutdown()
        srv.server_close()


def _get(base: str, query: str) -> tuple[int, str]:
    q = urllib.request.quote(query)
    with urllib.request.urlopen(f"{base}/result?search={q}",
                                timeout=30) as r:
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
