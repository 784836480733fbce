"""Property tests mirroring the reference's ``PostingIndexTest`` (jqwik
ActionChain invariants): for arbitrary corpora, the segment build must
agree exactly with the literal oracle — forward set = union of
title+body terms, df = distinct docs per term, positions preserved per
field."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.oracle import OracleIndex
from web_based_search_engine_ray.stages.postings import (
    TokenizeEncode,
    compact_bucket,
    decode_positions,
    decode_runs,
)

WORDS = ["aa", "bb", "cc", "dd", "ee", "ff"]  # identity under analyze()

doc_strategy = st.tuples(
    st.lists(st.sampled_from(WORDS), max_size=8),   # title terms
    st.lists(st.sampled_from(WORDS), max_size=12),  # body terms
)


def _decode_segments(seg: pa.Table):
    ids, ttfs, btfs = decode_runs(seg)
    tflat = decode_positions(seg["title_pos"], ttfs)
    bflat = decode_positions(seg["body_pos"], btfs)
    toff = np.concatenate(([0], np.cumsum(ttfs)))
    boff = np.concatenate(([0], np.cumsum(btfs)))
    terms = [t for t, n in zip(seg["term"].to_pylist(),
                               seg["df_run"].to_pylist()) for _ in range(n)]
    assert len(terms) == len(ids)
    out: dict = {}
    for j, (term, doc) in enumerate(zip(terms, ids)):
        d = out.setdefault(term, {})
        assert int(doc) not in d
        d[int(doc)] = (
            tflat[toff[j]:toff[j + 1]].tolist(),
            bflat[boff[j]:boff[j + 1]].tolist(),
        )
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(doc_strategy, min_size=1, max_size=12),
       st.integers(min_value=1, max_value=3))
def test_segments_match_oracle(docs, n_blocks):
    cfg = IndexConfig(use_stemming=False, use_stopwords=False,
                      num_buckets=1, doc_shards=1)
    enc = TokenizeEncode(cfg)
    oracle = OracleIndex(use_stopwords=False, use_stemming=False)

    # split the corpus into blocks (runs must merge identically however
    # the corpus is partitioned)
    tables = []
    for b in range(n_blocks):
        chunk = [(i, t, body) for i, (t, body) in enumerate(docs)
                 if i % n_blocks == b]
        if not chunk:
            continue
        tables.append(
            enc(
                pa.table(
                    {
                        "doc_id": pa.array([c[0] for c in chunk], pa.int64()),
                        "title": pa.array([" ".join(c[1]) for c in chunk]),
                        "text": pa.array([" ".join(c[2]) for c in chunk]),
                    }
                )
            )
        )
    for i, (t, body) in enumerate(docs):
        oracle.add_term_lists(i, t, body)

    seg = pa.concat_tables(tables) if tables else None
    if seg is None or seg.num_rows == 0:
        assert not oracle.postings
        return
    compacted = compact_bucket(seg, max_run_docs=10**9, num_buckets=1)
    decoded = _decode_segments(compacted)

    assert set(decoded.keys()) == set(oracle.postings.keys())
    for term, docs_map in oracle.postings.items():
        got = decoded[term]
        assert set(got.keys()) == set(docs_map.keys()), term
        for doc_id, (tp, bp) in docs_map.items():
            assert got[doc_id] == (tp, bp), (term, doc_id)
    # df invariant: one distinct doc per posting row per term
    for term, docs_map in oracle.postings.items():
        assert len(decoded[term]) == oracle.df(term)
