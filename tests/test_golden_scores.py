"""Golden-score conformance: the closed-form constants from the
reference's ``InvertedIndexTest.java:39-116`` (3 tiny docs, scores
pinned to 1e-10), checked against (1) the pure-Python oracle and
(2) the full Ray pipeline + Searcher."""

from __future__ import annotations

import math

import pytest

from web_based_search_engine_ray.oracle import OracleIndex

# TestDocument.java:5-10 — term ids mapped to identity-stemming strings.
DOC1 = (1, ["w1", "w1", "w2", "w3"], [])          # title-only
DOC2 = (2, [], ["w4", "w4", "w5", "w6"])          # body-only
DOC3 = (3, ["w7", "w8", "w9"], ["w10", "w11", "w12"])  # mixed

S1 = 0.7348469228349534294591852224117674175897842441970010385298
S2 = 0.0816496580927726032732428024901963797321982493552223376144
S3 = 0.4082482904638630163662140124509818986609912467761116880721


def make_oracle() -> OracleIndex:
    oi = OracleIndex()
    for doc_id, t, b in (DOC1, DOC2, DOC3):
        oi.add_term_lists(doc_id, t, b)
    return oi


def test_identity_stemming_of_wn_tokens():
    from web_based_search_engine_ray.functions.tokenize import analyze

    assert analyze("w1 w1 w2 w3") == ["w1", "w1", "w2", "w3"]
    assert analyze("w10 w11 w12") == ["w10", "w11", "w12"]


def test_oracle_golden_scores():
    oi = make_oracle()
    scores = oi.scores_for_terms({"w1", "w4", "w7", "w10"})
    assert scores[1] == pytest.approx(S1, abs=1e-10)
    assert scores[2] == pytest.approx(S2, abs=1e-10)
    assert scores[3] == pytest.approx(S3, abs=1e-10)


def test_oracle_keyword_frequency():
    oi = make_oracle()
    tp, bp = oi.postings["w1"][1]
    assert len(tp) + len(bp) == 2
    assert oi.forward[3] == {"w7", "w8", "w9", "w10", "w11", "w12"}
    assert oi.tf_max == {1: 2, 2: 2, 3: 1}


def test_oracle_phrase():
    oi = make_oracle()
    f = oi.docs_with_phrase_terms
    assert f(["w1"]) == {1}
    assert f(["w1", "w1"]) == {1}
    assert f(["w1", "w1", "w2"]) == {1}
    assert f(["w1", "w1", "w2", "w3"]) == {1}
    assert f(["w1", "w2"]) == {1}
    assert f(["w1", "w2", "w3"]) == {1}
    assert f(["w2"]) == {1}
    assert f(["w2", "w3"]) == {1}
    assert f(["w3"]) == {1}
    assert f(["w2", "w1"]) == set()           # wrong order
    assert f(["w4", "w4"]) == {2}
    assert f([]) == set()


def test_oracle_single_doc_nan():
    # Single-doc corpus: idf=0 → docLen=0 → NaN score (the reference's
    # IndexerTest.addAndSearch still returns the doc).
    oi = OracleIndex()
    oi.add_term_lists(1, ["hello"], ["world"])
    scores = oi.scores_for_terms({"hello"})
    assert math.isnan(scores[1])


@pytest.fixture(scope="module")
def golden_index(ray_session, tmp_path_factory):
    """Full Ray pipeline over the 3 golden docs."""
    import pyarrow as pa
    import ray.data as rd

    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import make_html

    out = str(tmp_path_factory.mktemp("golden_idx"))
    docs = []
    for doc_id, t, b in (DOC1, DOC2, DOC3):
        title = " ".join(t)
        body = " ".join(b)
        html = (
            f"<html><head><title>{title}</title></head>"
            f"<body><p>{body}</p></body></html>"
        ).encode()
        docs.append(
            {
                "url": f"https://g.example.com/{doc_id}",
                "warc_ts": 1700000000000000 + doc_id,
                "html": html,
                "text": body,
                "lang": "en",
                "doc_id": doc_id,
            }
        )

    def corpus():
        t = pa.table(
            {
                "url": pa.array([d["url"] for d in docs]),
                "warc_ts": pa.array(
                    [d["warc_ts"] for d in docs], type=pa.timestamp("us")
                ),
                "html": pa.array([d["html"] for d in docs], type=pa.binary()),
                "text": pa.array([d["text"] for d in docs]),
                "lang": pa.array([d["lang"] for d in docs]),
                "doc_id": pa.array([d["doc_id"] for d in docs], type=pa.int64()),
            }
        )
        return rd.from_arrow(t)

    cfg = IndexConfig(
        num_buckets=4,
        shuffle_partitions=4,
    )
    build_index(corpus, out, cfg, input_key="golden", resume=False)
    return out


def test_pipeline_golden_scores(golden_index):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(golden_index)
    assert s.n_docs == 3
    ids, vals = s.scores_arrays({"w1", "w4", "w7", "w10"})
    scores = dict(zip(ids.tolist(), vals.tolist()))
    assert scores[1] == pytest.approx(S1, abs=1e-10)
    assert scores[2] == pytest.approx(S2, abs=1e-10)
    assert scores[3] == pytest.approx(S3, abs=1e-10)


def test_pipeline_golden_phrase(golden_index):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(golden_index)
    def docs(phrase):
        return s.phrase_doc_array(phrase).tolist()

    assert docs(["w1", "w1", "w2", "w3"]) == [1]
    assert docs(["w2", "w1"]) == []
    assert docs(["w4", "w4"]) == [2]
    # title/body split: phrase across fields must NOT match
    assert docs(["w9", "w10"]) == []


def test_pipeline_golden_topk_and_hydration(golden_index):
    from web_based_search_engine_ray.pipelines.search import Searcher

    s = Searcher(golden_index)
    res = s.search({"w1", "w4", "w7", "w10"}, k=3)
    assert res["doc_id"].tolist() == [1, 3, 2]  # S1 > S3 > S2
    row = res.iloc[0]
    assert row["title"] == "w1 w1 w2 w3"
    assert row["url"] == "https://g.example.com/1"
    assert ("w1", 2) in row["keywords"]
