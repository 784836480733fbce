"""Boundary-shape corpora through the dedup/clean tier: empty texts,
whitespace-only, unicode (non-ASCII tokens must hash stably), an
all-identical corpus (one giant duplicate class — the keep-min CC's
worst case), and a fully unique corpus (no pairs anywhere).  These
shapes can't appear in the fixed sf testdata the SQL oracles run on.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _docs(texts):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


EDGE_TEXTS = [
    "",                       # empty
    "   ",                    # whitespace only
    "a",                      # single 1-char token
    "naïve café über straße", # unicode letters
    "héllo wörld héllo wörld héllo wörld",
    "日本語 テキスト の 処理",   # CJK tokens
    "emoji 🎉 in 🎉 text",
    "normal english text with several plain tokens here",
]


def test_minhash_pairs_edge_corpus(ray_session):
    from web_based_search_engine_ray.pipelines.dedup import (
        minhash_lsh_pairs,
    )

    # duplicate the unicode doc exactly; everything else is unique
    texts = EDGE_TEXTS + [EDGE_TEXTS[4]]
    pairs = minhash_lsh_pairs(_docs(texts)).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (4, len(EDGE_TEXTS)) in got
    # docs with NO tokens under [^a-zA-Z0-9_-]+ ("", whitespace, pure
    # CJK/emoji-only) share the sentinel signature and pair ONLY with
    # each other (identical-as-tokenized; mirrored by the SQL oracle's
    # allsig branch) — never with a doc that has real tokens
    tokenless = {0, 1, 5}
    for a, b in got:
        assert (a in tokenless) == (b in tokenless), (a, b)
    # short-but-tokenized docs ("a" folds a 1-window shingle) must NOT
    # ride the sentinel: doc 2 pairs with nothing here
    for a, b in got:
        assert 2 not in (a, b), (a, b)


def test_exact_dedup_all_identical(ray_session):
    from web_based_search_engine_ray.pipelines.dedup import exact_dedup

    texts = ["same exact text content"] * 50
    kept = exact_dedup(_docs(texts), num_buckets=8).to_pandas()
    assert len(kept) == 1
    assert kept["doc_id"].iloc[0] == 0  # keep-first = smallest id


def test_exact_dedup_all_unique(ray_session):
    from web_based_search_engine_ray.pipelines.dedup import exact_dedup

    texts = [f"unique text number {i}" for i in range(30)]
    kept = exact_dedup(_docs(texts), num_buckets=8).to_pandas()
    assert sorted(kept["doc_id"]) == list(range(30))


def test_minhash_dedup_one_giant_class(ray_session):
    """All docs near-identical → a single connected component; keep-min
    must retain exactly the smallest doc_id (pointer-jumping CC over
    one big star/chain must converge, not cycle)."""
    from web_based_search_engine_ray.pipelines.dedup import (
        dedup_keep_min,
        minhash_lsh_pairs,
    )

    texts = ["the quick brown fox jumps over the lazy dog again"] * 40
    ds = _docs(texts)
    pairs = minhash_lsh_pairs(ds)
    kept = dedup_keep_min(ds, pairs).to_pandas()
    assert sorted(kept["doc_id"]) == [0]


def test_clean_corpus_edge_texts(ray_session):
    """The fused clean funnel must classify, not crash, on the edge
    shapes (empty docs are simply low-quality rejects)."""
    from web_based_search_engine_ray.pipelines.clean import clean_corpus

    kept, funnel = clean_corpus(_docs(EDGE_TEXTS), min_chars=5)
    out = kept.to_pandas()
    assert len(out) <= len(EDGE_TEXTS)
    # funnel counts are monotone non-increasing stage to stage
    counts = list(funnel.values())
    assert all(a >= b for a, b in zip(counts, counts[1:])), funnel
    # empty/whitespace docs never survive the length gate (an empty
    # survivor set comes back as a columnless frame)
    survivors = set(out["doc_id"]) if "doc_id" in out.columns else set()
    assert not ({0, 1} & survivors)


def test_quality_scores_edge_texts(ray_session):
    import math

    from web_based_search_engine_ray.pipelines.text_pipeline import (
        quality_batch,
    )

    out = (
        _docs(EDGE_TEXTS)
        .map_batches(quality_batch, batch_format="pyarrow")
        .to_pandas()
    )
    assert len(out) == len(EDGE_TEXTS)
    num_cols = [c for c in out.columns
                if out[c].dtype.kind in "fiu" and c != "doc_id"]
    assert num_cols
    for c in num_cols:
        vals = out[c].to_numpy()
        assert all(math.isfinite(v) for v in vals), c


@pytest.mark.parametrize(
    "fn_name", ["minhash_lsh_pairs", "simhash_pairs", "jaccard_dup_pairs"]
)
def test_pair_finders_no_dup_corpus(ray_session, fn_name):
    """A corpus with no near-duplicates must flow through the pair
    finder AND the keep-min finalize without error, keeping every doc.
    (A fully-empty pair Dataset may collect as a columnless frame —
    Ray Data's representation of zero rows — which downstream
    consumers must tolerate.)"""
    from web_based_search_engine_ray.pipelines import dedup

    rng_texts = [
        " ".join(f"tok{i}x{j}" for j in range(12)) for i in range(12)
    ]
    ds = _docs(rng_texts)
    fn = getattr(dedup, fn_name)
    pairs = fn(ds)
    out = pairs.to_pandas()
    if len(out):
        assert {"doc_a", "doc_b"} <= set(out.columns)
        assert (out["doc_a"] < out["doc_b"]).all()
    else:
        kept = dedup.dedup_keep_min(ds, pairs).to_pandas()
        assert sorted(kept["doc_id"]) == list(range(12))


@pytest.mark.parametrize("typed", [False, True], ids=["columnless", "typed"])
@pytest.mark.parametrize(
    "a_col,b_col,val_col,val_type",
    [
        ("doc_a", "doc_b", "est_jaccard", pa.float64()),
        ("doc_a", "doc_b", "hamming", pa.int64()),
        ("vec_a", "vec_b", "cosine", pa.float64()),
    ],
)
def test_pair_bucket_empty_block_keeps_schema(a_col, b_col, val_col,
                                              val_type, typed):
    """A zero-row block, with or without a schema, must come back as a
    typed empty (a, b, val, pb) table for every pair pipeline's column
    set, so the downstream ``groupby("pb")`` sees a stable schema."""
    from web_based_search_engine_ray.pipelines.dedup import _pb_batch

    want = pa.schema([(a_col, pa.int64()), (b_col, pa.int64()),
                      (val_col, val_type), ("pb", pa.int64())])
    block = (want.empty_table().drop_columns(["pb"]) if typed
             else pa.table({}))
    out = _pb_batch(block, val_col=val_col, val_type=val_type,
                    a_col=a_col, b_col=b_col)
    assert out.num_rows == 0
    assert out.schema == want


def test_pair_bucket_embedding_columns():
    from web_based_search_engine_ray.pipelines.dedup import _pb_batch

    t = pa.table({"vec_a": pa.array([1, 2], pa.int64()),
                  "vec_b": pa.array([3, 70], pa.int64()),
                  "cosine": [0.9, 0.95]})
    out = _pb_batch(t, val_col="cosine", val_type=pa.float64(),
                    a_col="vec_a", b_col="vec_b")
    assert out["pb"].to_pylist() == [(31 + 3) % 64, (62 + 70) % 64]


def test_key_run_pairs_edges():
    """Every i < j pair within each run of equal sorted keys; a run of
    exactly ``cap`` rows is kept, ``cap + 1`` is skipped and counted,
    singletons give nothing and empty input gives empty arrays."""
    from web_based_search_engine_ray.pipelines.dedup import _key_run_pairs

    ii, jj, skipped = _key_run_pairs(np.empty(0, np.int64), 3)
    assert ii.dtype == jj.dtype == np.int64
    assert (len(ii), len(jj), skipped) == (0, 0, 0)

    ii, jj, skipped = _key_run_pairs(np.array([1, 2, 3]), 3)
    assert (len(ii), len(jj), skipped) == (0, 0, 0)

    # runs: 5 x1 (singleton), 7 x3 (== cap), 9 x4 (cap + 1), 11 x2
    keys = np.array([5, 7, 7, 7, 9, 9, 9, 9, 11, 11])
    ii, jj, skipped = _key_run_pairs(keys, 3)
    assert skipped == 1
    assert sorted(zip(ii.tolist(), jj.tolist())) == [
        (1, 2), (1, 3), (2, 3), (8, 9)
    ]
    assert (keys[ii] == keys[jj]).all()

    ii, jj, skipped = _key_run_pairs(keys, 1)
    assert (len(ii), skipped) == (0, 3)
