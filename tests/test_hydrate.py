"""Result hydration and the result-page renderers.

``Searcher.hydrate`` reads a store loaded on its first call and returns
Arrow rows; through ``hydrated_frame`` they must give the frame of the
filtered-scan implementation kept below as the reference (same
columns, dtypes, defaults for ids missing from extracted or forward,
sorted link sets, top-``max_keywords`` keywords).  It reads no file
after that first call and never loads on a shard Searcher.  The HTTP
page rendered from those rows must be byte-equal to the pandas
row-at-a-time renderer kept below as the reference.
"""

from __future__ import annotations

import html

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

MODIFIED_IDS = (3, 10, 17)
REMOVED_IDS = (5, 12)


def reference_hydrate(index_dir: str, results: pd.DataFrame,
                      max_keywords: int) -> pd.DataFrame:
    """Four filtered Dataset scans per call, then per-row pandas lookups
    (the implementation the store replaced)."""
    import os

    from web_based_search_engine_ray.pipelines.search import _empty_results

    def ds(name):
        return pads.dataset(os.path.join(index_dir, name), format="parquet")

    if results.empty:
        return _empty_results(True)
    ids = results["doc_id"].tolist()
    meta = ds("extracted").to_table(
        columns=["doc_id", "url", "title", "page_size", "last_modified"],
        filter=pc.field("doc_id").isin(ids),
    ).to_pandas().set_index("doc_id")
    fwd = ds("forward").to_table(
        columns=["doc_id", "terms", "title_tfs", "body_tfs"],
        filter=pc.field("doc_id").isin(ids),
    ).to_pandas().set_index("doc_id")
    urls = meta["url"].to_dict()
    # one row per (page, link): the edges, exploded here in pandas
    child = ds("extracted").to_table(
        columns=["doc_id", "links"],
        filter=pc.field("doc_id").isin(ids),
    ).to_pandas().explode("links").dropna()
    parent = ds("extracted").to_table(
        columns=["url", "links"],
    ).to_pandas().explode("links")
    parent = parent[parent["links"].isin(list(urls.values()))]
    child_map = child.groupby("doc_id")["links"].apply(
        lambda s: sorted(set(s))
    ).to_dict()
    parent_by_url = parent.groupby("links")["url"].apply(
        lambda s: sorted(set(s))
    ).to_dict()

    rows = []
    for doc_id, score in zip(results["doc_id"], results["score"]):
        m = meta.loc[doc_id] if doc_id in meta.index else None
        kw: list[tuple[str, int]] = []
        if doc_id in fwd.index:
            f = fwd.loc[doc_id]
            freqs = [
                (t, int(a) + int(b))
                for t, a, b in zip(f["terms"], f["title_tfs"], f["body_tfs"])
            ]
            freqs.sort(key=lambda x: (-x[1], x[0]))
            kw = freqs[:max_keywords]
        url = urls.get(doc_id, "")
        rows.append(
            {
                "doc_id": doc_id,
                "score": score,
                "title": (m["title"] if m is not None else ""),
                "url": url,
                "last_modified": (m["last_modified"] if m is not None
                                  else None),
                "page_size": int(m["page_size"]) if m is not None else 0,
                "keywords": kw,
                "parent_links": parent_by_url.get(url, []),
                "child_links": child_map.get(doc_id, []),
            }
        )
    return pd.DataFrame(rows)


def _all_ids(index_dir: str) -> np.ndarray:
    import os

    ids = pads.dataset(os.path.join(index_dir, "extracted"),
                       format="parquet").to_table(columns=["doc_id"])
    return np.sort(ids["doc_id"].to_numpy())


def _assert_parity(index_dir: str, ids, chunk: int = 50) -> None:
    """Every id, in result-sized chunks with descending scores, through
    one Searcher (so later chunks hit the loaded store)."""
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        hydrated_frame,
    )

    s = Searcher(index_dir)
    ids = np.asarray(ids, dtype=np.int64)
    for i in range(0, len(ids), chunk):
        part = ids[i:i + chunk]
        res = pd.DataFrame({"doc_id": part,
                            "score": np.linspace(1.0, 0.5, len(part))})
        pd.testing.assert_frame_equal(
            hydrated_frame(s.hydrate(res)),
            reference_hydrate(index_dir, res, s.cfg.max_keywords),
            check_dtype=True,
        )


@pytest.fixture(scope="module")
def sf_index(ray_session, sf_dir):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.registry import get_index

    return get_index(sf_dir, IndexConfig())


def test_hydrate_matches_reference_every_doc(sf_index):
    ids = _all_ids(sf_index)
    assert len(ids) == 500
    _assert_parity(sf_index, ids)


def _updated_corpus(sf_dir: str, modified=MODIFIED_IDS, removed=REMOVED_IDS):
    """The sf corpus with ``modified`` rewritten (newer ``warc_ts``, new
    text) and ``removed`` gone (a full-sync snapshot)."""
    import ray.data as rd

    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    modified, removed = list(modified), [int(i) for i in removed]

    def modify(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = [t + " freshly updated hydration tokens"
                 if i in modified else t
                 for i, t in zip(ids, batch["text"].to_pylist())]
        web = synth_batch(batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array(texts, pa.string())))
        ts = web["warc_ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]")
        ts = np.where(np.isin(ids, modified),
                      ts + np.timedelta64(1, "D"), ts)
        return web.set_column(web.schema.get_field_index("warc_ts"),
                              "warc_ts", pa.array(ts, pa.timestamp("us")))

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text", "lang"],
                        override_num_blocks=4)
        .filter(expr=f"doc_id not in {removed}")
        .map_batches(modify, batch_format="pyarrow")
    )


#: sha256 over ``repr`` of every hydrated row of the sf0.001 build and of
#: its seeded update (see ``test_hydrated_rows_pinned``)
HYDRATED_BUILD_DIGEST = (
    "e4324c4ccc72f895081b06c2eb64516a671e886a15ba88443f9020f81615fd13"
)
HYDRATED_UPDATE_DIGEST = (
    "57f9097dc6c99df11d51d9df9922f462e3558556df7a3dd57af685af8295b61b"
)


def _hydrated_digest(index_dir: str, ids: np.ndarray) -> str:
    """Every id through one ``Searcher.hydrate`` and the frame
    converter of ``search(hydrate=True)``, in 50-id chunks."""
    import hashlib

    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        hydrated_frame,
    )

    s, h = Searcher(index_dir), hashlib.sha256()
    for i in range(0, len(ids), 50):
        part = ids[i:i + 50]
        res = pd.DataFrame({"doc_id": part,
                            "score": np.linspace(1.0, 0.5, len(part))})
        for row in hydrated_frame(s.hydrate(res)).to_dict("records"):
            h.update(repr(tuple(row.values())).encode())
    return h.hexdigest()


def test_hydrated_rows_pinned(ray_session, sf_dir, tmp_path):
    """The hydrated rows of every doc id, after a two-shard build and
    after a seeded full-sync update (removed ids ride along as default
    rows), hash to the pinned digests: a change in where hydration
    reads its columns cannot drift the result rows."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    cfg = IndexConfig(doc_shards=2)
    idx = str(tmp_path / "idx")
    build_index(lambda: synth_corpus(sf_dir), idx, cfg, input_key="pin1",
                resume=False)
    ids = np.sort(pads.dataset(f"{idx}/extracted", format="parquet")
                  .to_table(columns=["doc_id"])["doc_id"].to_numpy())
    assert len(ids) == 500
    built = _hydrated_digest(idx, ids)

    pick = np.random.default_rng(8).permutation(ids)
    modified, removed = np.sort(pick[:15]), np.sort(pick[15:20])
    report = update_index(
        lambda: _updated_corpus(sf_dir, modified, removed), idx, cfg,
        input_key="pin2", remove_missing=True)
    assert report["update"]["fresh_docs"] == len(modified)
    assert report["update"]["removed_docs"] == len(removed)
    assert (built, _hydrated_digest(idx, ids)) == (
        HYDRATED_BUILD_DIGEST, HYDRATED_UPDATE_DIGEST)


def test_hydrate_matches_reference_after_update(ray_session, sf_dir,
                                                tmp_path_factory):
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.pipelines.update_index import (
        update_index,
    )
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    cfg = IndexConfig(shuffle_partitions=4, num_buckets=4, doc_shards=2)
    idx = str(tmp_path_factory.mktemp("hydrate_upd") / "idx")
    build_index(lambda: synth_corpus(sf_dir), idx, cfg, input_key="v1",
                resume=False)
    report = update_index(lambda: _updated_corpus(sf_dir), idx, cfg,
                          input_key="v2", remove_missing=True)
    assert report["update"]["removed_docs"] == len(REMOVED_IDS)
    assert report["update"]["fresh_docs"] == len(MODIFIED_IDS)
    ids = _all_ids(idx)
    assert not set(REMOVED_IDS) & set(ids.tolist())
    # the removed ids ride along: absent from extracted and forward
    _assert_parity(idx, np.concatenate([list(REMOVED_IDS), ids]))


def test_hydrate_ids_missing_from_docmeta_and_forward(sf_index):
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        hydrated_frame,
    )

    ids = [7, 10**9, 3, -1, 10**9 + 1]
    _assert_parity(sf_index, ids)
    res = pd.DataFrame({"doc_id": ids, "score": [0.9, 0.8, 0.7, 0.6,
                                                 float("nan")]})
    out = hydrated_frame(Searcher(sf_index).hydrate(res))
    absent = out[out["doc_id"] >= 10**9]
    assert absent["title"].tolist() == ["", ""]
    assert absent["url"].tolist() == ["", ""]
    assert absent["page_size"].tolist() == [0, 0]
    assert absent["keywords"].tolist() == [[], []]
    assert absent["parent_links"].tolist() == [[], []]
    assert absent["child_links"].tolist() == [[], []]
    # only absent ids (the scan reference raises here: its parent-link
    # filter gets an empty url list): the row the reference builds
    only = pd.DataFrame({"doc_id": [10**9], "score": [1.0]})
    pd.testing.assert_frame_equal(
        hydrated_frame(Searcher(sf_index).hydrate(only)),
        pd.DataFrame([{"doc_id": 10**9, "score": 1.0, "title": "",
                       "url": "", "last_modified": None, "page_size": 0,
                       "keywords": [], "parent_links": [],
                       "child_links": []}]),
        check_dtype=True)


def test_hydrate_reads_no_file_after_first_call(sf_index, monkeypatch):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(sf_index)
    assert s.hydrate_store_bytes == 0
    res = s.search({"spark", "merge"}, k=20, hydrate=False)
    assert len(res)
    first = s.hydrate(res)
    assert s.hydrate_store_bytes > 0

    calls = []
    real = pads.dataset

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(pads, "dataset", counted)
    for _ in range(20):
        assert s.hydrate(res).equals(first)
    assert calls == []


def test_shard_searcher_loads_no_hydrate_store(sf_index):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(sf_index, doc_shard=0)
    out = s.search_many(["spark merge", 'window "merge batch"'], k=10)
    assert len(out)
    assert s.hydrate_store_bytes == 0


def reference_render_page(keyword_stems, phrase_stems,
                          results: pd.DataFrame) -> str:
    """The result page from the hydrated frame, one ``html.escape`` per
    value (the renderer the Arrow one replaced)."""
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


def _as_rows(df: pd.DataFrame) -> pa.Table:
    """A hydrated frame in ``Searcher.hydrate``'s Arrow row form."""
    return pa.table({
        "doc_id": pa.array(df["doc_id"], pa.int64()),
        "score": pa.array(df["score"], pa.float64()),
        "title": pa.array(df["title"], pa.string()),
        "url": pa.array(df["url"], pa.string()),
        "last_modified": pa.array(df["last_modified"], pa.timestamp("us")),
        "page_size": pa.array(df["page_size"], pa.int64()),
        "keywords": pa.array(
            [[{"term": t, "freq": f} for t, f in kw] for kw in df["keywords"]],
            pa.large_list(pa.struct([("term", pa.string()),
                                     ("freq", pa.int64())]))),
        "parent_links": pa.array(df["parent_links"],
                                 pa.large_list(pa.string())),
        "child_links": pa.array(df["child_links"],
                                pa.large_list(pa.string())),
    })


_STEMS = ({"spark", "merg"}, ["merg"])


def test_render_matches_reference_every_doc(sf_index):
    """Every doc id in 50-id chunks with descending scores, ids missing
    from extracted among them, ids missing only, and the empty result:
    the page from the Arrow rows is the reference's page of the
    reference hydration."""
    from web_based_search_engine_ray.pipelines.search import (
        Searcher,
        _empty_results,
    )
    from web_based_search_engine_ray.pipelines.server import (
        _render_result_page,
    )

    s = Searcher(sf_index)

    def check(ids, want_frame=None):
        res = pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                            "score": np.linspace(1.0, 0.5, len(ids))})
        if want_frame is None:
            want_frame = reference_hydrate(sf_index, res, s.cfg.max_keywords)
        page = _render_result_page(*_STEMS, s.hydrate(res))
        assert page == reference_render_page(*_STEMS, want_frame)
        return page

    ids = _all_ids(sf_index)
    for i in range(0, len(ids), 50):
        check(ids[i:i + 50])
    check([7, 10**9, 3, -1])
    # ids missing only: the frame the reference hydration built (the
    # scan reference itself raises on an empty url list)
    missing = check([10**9, -1], pd.DataFrame([
        {"doc_id": d, "score": sc, "title": "", "url": "",
         "last_modified": None, "page_size": 0, "keywords": [],
         "parent_links": [], "child_links": []}
        for d, sc in ((10**9, 1.0), (-1, 0.5))]))
    assert "<p>None, 0</p>" in missing
    empty = s.search({"zzznope"}, k=10, hydrate=False)
    assert _render_result_page(*_STEMS, s.hydrate(empty)) == (
        reference_render_page(*_STEMS, _empty_results(True)))


def test_render_matches_reference_on_html_special_rows():
    from web_based_search_engine_ray.pipelines.search import hydrated_frame
    from web_based_search_engine_ray.pipelines.server import (
        _render_result_page,
    )

    df = _page_frame()
    rows = _as_rows(df)
    pd.testing.assert_frame_equal(hydrated_frame(rows), df)
    for part in (rows, rows.slice(1), rows.slice(0, 1)):
        assert _render_result_page(*_STEMS, part) == reference_render_page(
            *_STEMS, hydrated_frame(part))


def _page_frame() -> pd.DataFrame:
    return pd.DataFrame({
        "doc_id": [1, 2],
        "score": [0.73484, 0.5],
        "title": ['<b>"Fish" & Chips</b>', "plain"],
        "url": ["https://x/a?b=1&c=<2>", "https://x/2"],
        "last_modified": [pd.Timestamp("2024-01-01 00:00:01"), pd.NaT],
        "page_size": [123, 0],
        "keywords": [[("merg", 3), ("<tag>", 1)], []],
        "parent_links": [["https://x/0", "https://x/'q'"], []],
        "child_links": [[], []],
    })


def test_result_renderers_golden():
    from web_based_search_engine_ray.pipelines.search import format_results
    from web_based_search_engine_ray.pipelines.server import (
        _render_result_page,
    )

    df = _page_frame()
    assert df["last_modified"].dtype.kind == "M"
    assert format_results(df) == (
        '0.7348\t<b>"Fish" & Chips</b>\n'
        "\thttps://x/a?b=1&c=<2>\n"
        "\t2024-01-01 00:00:01, 123\n"
        "\tmerg 3; <tag> 1; \n"
        "\tParent Links:\n"
        "\thttps://x/0\n"
        "\thttps://x/'q'\n"
        "\tChild Links:\n"
        "\n\n"
        "0.5000\tplain\n"
        "\thttps://x/2\n"
        "\tNaT, 0\n"
        "\t\n"
        "\tParent Links:\n"
        "\tChild Links:\n"
    )
    assert _render_result_page({"spark", "merg"}, ["merg"],
                               _as_rows(df)) == (
        '<!DOCTYPE html>\n<html lang="en">\n'
        "<head><title>Search Results</title></head>\n<body>\n"
        '<form action="/result">\n'
        '<input type="text" name="search" '
        'placeholder="Enter your search query">\n'
        '<input type="submit" value="Search">\n</form>\n'
        "<h1>Search Results</h1>\n"
        "<h4>Search keywords: [&#x27;merg&#x27;, &#x27;spark&#x27;]</h4>\n"
        "<h4>Search phrase: [&#x27;merg&#x27;]</h4>\n"
        "<ol>\n"
        "<li>\n"
        '<h3>0.7348 <a href="https://x/a?b=1&amp;c=&lt;2&gt;">'
        "&lt;b&gt;&quot;Fish&quot; &amp; Chips&lt;/b&gt;</a></h3>\n"
        '<a href="https://x/a?b=1&amp;c=&lt;2&gt;">'
        "https://x/a?b=1&amp;c=&lt;2&gt;</a>\n"
        "<p>2024-01-01 00:00:01, 123</p>\n"
        "<p>Keywords: merg 3; &lt;tag&gt; 1</p>\n"
        "<p>Parent Links:</p>\n<ul>\n"
        '<li><a href="https://x/0">https://x/0</a></li>\n'
        '<li><a href="https://x/&#x27;q&#x27;">'
        "https://x/&#x27;q&#x27;</a></li>\n"
        "</ul>\n<p>Child Links:</p>\n<ul>\n</ul>\n</li>\n"
        "<li>\n"
        '<h3>0.5000 <a href="https://x/2">plain</a></h3>\n'
        '<a href="https://x/2">https://x/2</a>\n'
        "<p>NaT, 0</p>\n"
        "<p>Keywords: </p>\n"
        "<p>Parent Links:</p>\n<ul>\n"
        "</ul>\n<p>Child Links:</p>\n<ul>\n</ul>\n</li>\n"
        "</ol>\n</body>\n</html>"
    )
