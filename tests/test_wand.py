"""Block-Max WAND traversal: rank identity with the TAAT engine."""

import heapq

import numpy as np
import pytest

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.pipelines.build_index import build_index
from web_based_search_engine_ray.pipelines.search import (
    Searcher,
    _topk_indices,
)
from web_based_search_engine_ray.sources.webcorpus import synth_corpus

_QUERIES = [
    {"spark", "merge"},
    {"window", "batch", "stream"},
    {"customer", "table", "scan", "sort"},
    {"data"},
    {"spark", "nosuchword"},
    {"nosuchword"},
    {"spark", "merge", "join", "window", "batch", "stream", "filter"},
]


def wand_topk_py(term_lists, *, bs: int, bm25: bool,
                 inv_norm_bound: float, stat_ids: np.ndarray,
                 norm: np.ndarray, k: int):
    """Reference Python walk of ``data/wand_kernel.c``, with the
    signature of ``cwand.wand_topk_c``: ``term_lists`` is
    ``[(ids_i64, partials_f64, bmax_f64, ub_float), ...]`` in TERM
    ORDER; returns ``(ids, scores)`` in (score desc, doc asc) order."""
    # cursor state per term: [cursor, doc_ids, partials, block_max,
    # term_ub, term_order]
    lists = [[0, ids, part, bmax, ub, ti]
             for ti, (ids, part, bmax, ub) in enumerate(term_lists)]
    heap: list[tuple[float, int]] = []  # (score, -doc): root = worst
    while True:
        live = [L for L in lists if L[0] < len(L[1])]
        if not live:
            break
        live.sort(key=lambda L: L[1][L[0]])
        theta = heap[0] if len(heap) >= k else None
        # WAND pivot: first cursor prefix whose summed term ubs could
        # still beat θ.  The prefix SET is cursor-ordered (that's what
        # defines the pivot), but each prefix's ubs are FOLDED IN TERM
        # ORDER — IEEE addition is non-associative, and a cursor-order
        # fold could land an ulp below the term-order score fold,
        # skipping an exact-theta tie the TAAT path keeps.
        pivot = None
        for i in range(len(live)):
            cum = 0.0
            for L in sorted(live[: i + 1], key=lambda L: L[5]):
                cum += L[4]
            if theta is None or cum * inv_norm_bound >= theta[0]:
                pivot = i
                break
        if pivot is None:
            break
        pl = live[pivot]
        pivot_doc = int(pl[1][pl[0]])
        if int(live[0][1][live[0][0]]) == pivot_doc:
            # aligned: every list at pivot_doc is the sorted prefix
            at = []
            for L in live:
                if L[0] < len(L[1]) and int(L[1][L[0]]) == pivot_doc:
                    at.append(L)
                else:
                    break
            at.sort(key=lambda L: L[5])  # term order for fp identity
            if bm25:
                nv = 1.0
            else:
                nv = float(norm[int(np.searchsorted(stat_ids, pivot_doc))])
            blockub = 0.0
            for L in at:
                blockub += float(L[3][L[0] // bs])
            bound_key = (blockub / nv, -pivot_doc)
            if theta is None or bound_key > theta:
                s = 0.0
                for L in at:
                    s += float(L[2][L[0]])
                key = (s / nv, -pivot_doc)
                if len(heap) < k:
                    heapq.heappush(heap, key)
                elif key > heap[0]:
                    heapq.heapreplace(heap, key)
            for L in at:
                L[0] += 1
        else:
            # advance every list before the pivot to >= pivot_doc
            for L in live[:pivot]:
                c = L[0]
                L[0] = c + int(
                    np.searchsorted(L[1][c:], pivot_doc, side="left")
                )
    heap.sort(reverse=True)  # (score desc, doc asc)
    return (np.array([-d for _, d in heap], dtype=np.int64),
            np.array([s for s, _ in heap], dtype=np.float64))


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("wand_idx"))
    build_index(
        lambda: synth_corpus("/root/testdata/sf0.001"),
        d,
        IndexConfig(),
        input_key="wand-test",
        resume=False,
    )
    return d


@pytest.mark.parametrize("mode", ["ref", "bm25"])
@pytest.mark.parametrize("k", [1, 5, 10, 50])
def test_wand_rank_identical(idx, mode, k):
    s = Searcher(idx)
    for words in _QUERIES:
        ids, vals = s.scores_arrays(words, mode=mode)
        top = _topk_indices(ids, vals, k)
        want_ids, want_vals = ids[top], vals[top]
        got_ids, got_vals = s.scores_topk_wand(words, k=k, mode=mode)
        assert got_ids.tolist() == want_ids.tolist(), (mode, k, words)
        # bitwise-equal scores (same fold, same partials)
        assert np.array_equal(got_vals, want_vals), (mode, k, words)


def test_wand_small_blocks_still_exact(idx):
    """Tiny blocks exercise the block-max refinement path."""
    s = Searcher(idx)
    s.WAND_BLOCK = 4
    for words in _QUERIES[:4]:
        ids, vals = s.scores_arrays(words)
        top = _topk_indices(ids, vals, 10)
        got_ids, got_vals = s.scores_topk_wand(words, k=10)
        assert got_ids.tolist() == ids[top].tolist()
        assert np.array_equal(got_vals, vals[top])


def test_wand_guards(idx):
    s = Searcher(idx)
    with pytest.raises(ValueError, match="k >= 1"):
        s.scores_topk_wand({"spark"}, k=0)
    assert s.scores_topk_wand({"nosuchword"}, k=5)[0].size == 0


def test_search_traversal_wand(idx):
    s = Searcher(idx)
    a = s.search({"spark", "merge"}, k=5, hydrate=False)
    b = s.search({"spark", "merge"}, k=5, hydrate=False,
                 traversal="wand")
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["score"].tolist() == b["score"].tolist()
    with pytest.raises(ValueError, match="traversal"):
        s.search({"spark"}, traversal="bogus")


@pytest.mark.parametrize("mode", ["ref", "bm25"])
def test_wand_c_kernel_bitwise_parity(idx, mode, monkeypatch):
    """The compiled kernel (data/wand_kernel.c) must match BOTH the
    reference Python walk over the same term lists and the TAAT scorer
    bitwise."""
    from web_based_search_engine_ray.stages import cwand

    if cwand.load_kernel() is None:
        pytest.skip("no C compiler on this host")
    s = Searcher(idx)
    for k in (1, 7, 25):
        for words in _QUERIES:
            ids, vals = s.scores_arrays(words, mode=mode)
            top = _topk_indices(ids, vals, k)
            ci, cv = s.scores_topk_wand(words, k=k, mode=mode)
            with monkeypatch.context() as m:
                m.setattr(cwand, "wand_topk_c", wand_topk_py)
                pi, pv = s.scores_topk_wand(words, k=k, mode=mode)
            assert ci.tolist() == ids[top].tolist() == pi.tolist()
            assert np.array_equal(cv, vals[top])
            assert np.array_equal(cv, pv)


def test_wand_c_kernel_small_blocks(idx):
    from web_based_search_engine_ray.stages.cwand import load_kernel

    if load_kernel() is None:
        pytest.skip("no C compiler on this host")
    s = Searcher(idx)
    s.WAND_BLOCK = 4
    for words in _QUERIES[:4]:
        ids, vals = s.scores_arrays(words)
        top = _topk_indices(ids, vals, 10)
        ci, _ = s.scores_topk_wand(words, k=10)
        assert ci.tolist() == ids[top].tolist()


def test_wand_kernel_fallbacks(idx):
    """A k over the compiled capacity makes the kernel decline; the
    method must then return the exhaustive TAAT top-k."""
    from web_based_search_engine_ray.stages import cwand

    s = Searcher(idx)
    big_k = cwand.MAX_K + 1
    ids, vals = s.scores_arrays({"spark", "merge"})
    top = _topk_indices(ids, vals, big_k)
    gi, gv = s.scores_topk_wand({"spark", "merge"}, k=big_k)
    assert gi.tolist() == ids[top].tolist()
    assert np.array_equal(gv, vals[top])


def test_search_traversal_auto_rank_identity(idx):
    """traversal='auto' must be rank-identical to both engines on every
    query shape (the cost model only picks, never changes results)."""
    s = Searcher(idx)
    for words in _QUERIES:
        a = s.search(words, k=10, hydrate=False)
        c = s.search(words, k=10, hydrate=False, traversal="auto")
        assert a["doc_id"].tolist() == c["doc_id"].tolist(), words
        assert a["score"].tolist() == c["score"].tolist(), words
    # phrase queries route to TAAT under auto (semi-join needs OR-merge)
    p1 = s.search({"spark", "merge"}, phrase=["spark", "merge"], k=10,
                  hydrate=False)
    p2 = s.search({"spark", "merge"}, phrase=["spark", "merge"], k=10,
                  hydrate=False, traversal="auto")
    assert p1["doc_id"].tolist() == p2["doc_id"].tolist()


def _zipf_queries(n: int) -> list[str]:
    """Deterministic query mix over the Zipf fixture's vocabulary:
    common+rare pairs (the classic WAND win), three-term mixed, and
    flat common pairs (where TAAT should keep winning — the auto
    cost model must NOT switch there)."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(f"w1 w{2000 + i % 500}")
        elif i % 3 == 1:
            out.append(f"w{3 + i % 5} w{300 + i % 200} w{5000 + i % 1000}")
        else:
            out.append(f"w{1 + i % 10} w{12 + i % 10}")
    return out


def test_choose_traversal_cost_model(ray_session, tmp_path_factory):
    """On a skewed-df (Zipfian) corpus the cost model picks WAND for a
    common+rare pair and TAAT for flat pairs / single terms; on the
    flat-vocabulary corpus it never leaves TAAT."""
    from web_based_search_engine_ray.sources.webcorpus import (
        synth_corpus,
        zipf_documents_dir,
    )
    from web_based_search_engine_ray.stages.cwand import load_kernel

    d = str(tmp_path_factory.mktemp("zipf_idx"))
    # sized so a common+rare pair clears WAND_AUTO_MIN_VOLUME (sum_df
    # ≈ df(w1) ≈ n_docs must exceed 4096)
    zdir = zipf_documents_dir(
        n_docs=6000, vocab=4000, doc_len=80, seed=9,
        cache_root=str(tmp_path_factory.mktemp("zipf_docs")),
    )
    build_index(
        lambda: synth_corpus(zdir), d, IndexConfig(),
        input_key="zipf-test", resume=False,
    )
    s = Searcher(d)
    if load_kernel() is not None:
        # w1 df≈N, w900 rare → volume+skew+k all clear the bars
        assert s.choose_traversal({"w1", "w900"}, k=10) == "wand"
    # flat pair (similar ranks → similar dfs): skew bar fails
    assert s.choose_traversal({"w1", "w2"}, k=10) == "taat"
    # single term: nothing to skip
    assert s.choose_traversal({"w1"}, k=10) == "taat"
    # deep k kills pruning
    assert s.choose_traversal({"w1", "w900"}, k=10**6) == "taat"

    # rank identity across all three traversals on the zipf index
    for q in _zipf_queries(12):
        words = {w for w in q.split()}
        a = s.search(words, k=10, hydrate=False)
        b = s.search(words, k=10, hydrate=False, traversal="wand")
        c = s.search(words, k=10, hydrate=False, traversal="auto")
        assert a["doc_id"].tolist() == b["doc_id"].tolist() == \
            c["doc_id"].tolist(), q
