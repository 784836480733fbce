"""Tests for the vectorized dedup/text hot paths, the LSH band-bucket
caps, and the partitioned IVF store."""

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_mulmod_mersenne61_exact():
    from web_based_search_engine_ray.pipelines.dedup import (
        _MERSENNE,
        _mulmod_mersenne61,
    )

    rng = np.random.default_rng(1)
    a = rng.integers(0, 2**63, size=4000, dtype=np.int64).astype(np.uint64)
    x = rng.integers(0, 2**63, size=4000, dtype=np.int64).astype(np.uint64)
    r = _mulmod_mersenne61(a, x)
    for i in range(0, 4000, 7):
        assert int(r[i]) == (int(a[i]) * int(x[i])) % _MERSENNE


def test_simhash_batch_matches_reference_formula():
    from web_based_search_engine_ray.functions.tokenize import TOKEN_RE
    from web_based_search_engine_ray.pipelines.dedup import SimHasher

    def ref_simhash(text: str) -> int:
        toks = [t.lower() for t in TOKEN_RE.split(text) if t]
        if not toks:
            return 0
        acc = np.zeros(64, dtype=np.int64)
        for tok, tf in Counter(toks).items():
            h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
            bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            acc += tf * (2 * bits.astype(np.int64) - 1)
        return int(
            ((acc > 0).astype(np.uint64)
             << np.arange(64, dtype=np.uint64)).sum()
        )

    texts = ["the quick brown fox", "spark merge batch batch stream",
             "", "a b c a b c a", "one-token"]
    got = SimHasher.simhash_batch(texts)
    for t, g in zip(texts, got):
        assert int(g) == ref_simhash(t)


def test_shingle_fold_polynomial_definition():
    """Shingle hash = polynomial fold of md5 token hashes mod 2^61-1 —
    the exact contract the SQL oracles mirror."""
    from web_based_search_engine_ray.functions.hashing import md5_u64
    from web_based_search_engine_ray.pipelines.dedup import (
        _MERSENNE,
        SHINGLE_BASE,
        _shingle_hashes,
    )

    text = "alpha beta gamma delta"
    toks = ["alpha", "beta", "gamma", "delta"]
    hs = [md5_u64(t) % _MERSENNE for t in toks]
    expected = set()
    for i in range(len(toks) - 2):
        s = hs[i]
        for j in (i + 1, i + 2):
            s = (s * SHINGLE_BASE + hs[j]) % _MERSENNE
        expected.add(s)
    assert set(_shingle_hashes(text, 3).tolist()) == expected
    # short doc folds all tokens as one shingle
    short = (hs[0] * SHINGLE_BASE + hs[1]) % _MERSENNE
    assert set(_shingle_hashes("alpha beta", 3).tolist()) == {short}
    assert _shingle_hashes("", 3).size == 0


@pytest.mark.parametrize("fn_name", ["minhash", "simhash", "embedding"])
def test_band_bucket_cap_blocks_quadratic_blowup(ray_session, fn_name):
    """An adversarial constant corpus (every doc identical) lands all
    docs in one band bucket per band; the cap must skip those groups
    instead of emitting ~n²/2 pairs."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        embedding_dup_pairs,
        minhash_lsh_pairs,
        simhash_pairs,
    )

    n = 600
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), type=pa.int64()),
            "text": pa.array(["identical content for every doc"] * n),
        }
    )
    ds = rd.from_arrow(t)
    if fn_name == "minhash":
        pairs = minhash_lsh_pairs(ds, max_band_bucket=100).to_pandas()
    elif fn_name == "simhash":
        pairs = simhash_pairs(ds, max_band_bucket=100).to_pandas()
    else:
        vec = np.random.default_rng(5).standard_normal(64).tolist()
        vecs = rd.from_arrow(pa.table(
            {
                "vec_id": pa.array(np.arange(n), type=pa.int64()),
                "embedding": pa.array([vec] * n,
                                      type=pa.list_(pa.float32())),
            }
        ))
        pairs = embedding_dup_pairs(vecs, max_band_bucket=100).to_pandas()
    assert len(pairs) == 0  # capped, not quadratic


EMBEDDING_LSH_ROWS = 70
EMBEDDING_LSH_SHA256 = (
    "98e9e3b7c30f1b0efcb44735fc06ee3c22f6f8e6d615e9f4f9a199783b4b1912"
)


def test_embedding_lsh_pairs_pinned(ray_session, sf_dir):
    """The LSH cosine finder has no SQL oracle: pin its sorted output
    on the sf0.001 embeddings (threshold 0.3) by digest.  The digest
    was produced by this body on the previous per-family
    implementation of the pair plan."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        embedding_dup_pairs,
    )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = embedding_dup_pairs(ds, threshold=0.3).to_pandas()
    assert list(out.columns) == ["vec_a", "vec_b", "cosine"]
    assert [str(t) for t in out.dtypes] == ["int64", "int64", "float64"]
    rows = sorted(zip(out["vec_a"].tolist(), out["vec_b"].tolist(),
                      out["cosine"].tolist()))
    digest = hashlib.sha256(
        "\n".join(f"{a},{b},{c.hex()}" for a, b, c in rows).encode()
    ).hexdigest()
    assert (len(rows), digest) == (EMBEDDING_LSH_ROWS, EMBEDDING_LSH_SHA256)


def test_connected_components_and_keep_min(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        connected_components,
        dedup_keep_min,
    )

    # chain 10-11-12-13 (diameter 3), pair 5-6, triangle-ish 1-2-3
    pairs = rd.from_arrow(pa.table(
        {
            "doc_a": pa.array([1, 2, 5, 10, 11, 12], type=pa.int64()),
            "doc_b": pa.array([2, 3, 6, 11, 12, 13], type=pa.int64()),
        }
    ))
    comp = connected_components(pairs).to_pandas()
    got = dict(zip(comp["node"], comp["component"]))
    assert got == {1: 1, 2: 1, 3: 1, 5: 5, 6: 5,
                   10: 10, 11: 10, 12: 10, 13: 10}

    docs = rd.from_arrow(pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 5, 6, 9, 13], type=pa.int64()),
            "text": pa.array(list("abcdefg")),
        }
    ))
    kept = dedup_keep_min(docs, pairs).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 5, 9]


def test_quality_and_token_count_vectorized_parity(ray_session):
    from web_based_search_engine_ray.functions.stopwords import stopword_set
    from web_based_search_engine_ray.functions.tokenize import TOKEN_RE
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        quality_batch,
        token_count_batch,
    )

    texts = ["hello world", "", "a-b_c 42 !!", "  spaces  ",
             "tab\there\nnl", "x" * 257, "9 99 999", "the of and"]
    b = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
        }
    )
    tc = token_count_batch(b)["token_count"].to_pylist()
    assert tc == [len([t for t in TOKEN_RE.split(x) if t]) for x in texts]

    q = quality_batch(b).to_pandas()
    stops = stopword_set()
    for i, t in enumerate(texts):
        L = len(t)
        assert q["n_chars"][i] == L
        if L:
            assert q["alpha_ratio"][i] == pytest.approx(
                sum("a" <= c <= "z" or "A" <= c <= "Z" for c in t) / L)
            assert q["digit_ratio"][i] == pytest.approx(
                sum("0" <= c <= "9" for c in t) / L)
            assert q["space_ratio"][i] == pytest.approx(
                sum(c in "\t\n\x0b\x0c\r " for c in t) / L)
        toks = [x for x in TOKEN_RE.split(t) if x]
        if toks:
            assert q["stopword_ratio"][i] == pytest.approx(
                sum(x.lower() in stops for x in toks) / len(toks))


def test_ivf_partitioned_store(ray_session, tmp_path):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.similarity import IvfIndex

    rng = np.random.default_rng(3)
    n, dim = 400, 16
    emb = rng.standard_normal((n, dim))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(emb.tolist(), type=pa.list_(pa.float32())),
        }
    )
    idx = IvfIndex(n_clusters=8, iters=2, store_dir=str(tmp_path / "ivf"))
    idx.fit(rd.from_arrow(t))
    res = idx.search(emb[:2], k=5, nprobe=3)
    assert set(res["query_id"]) == {0, 1}
    # self-match must rank first with high recall at nprobe=3
    top0 = res[res["query_id"] == 0].sort_values("rank").iloc[0]
    assert top0["vec_id"] == 0
    # only probed partitions were loaded
    assert len(idx._cluster_cache) <= 2 * 3


def test_connected_components_long_chain(ray_session):
    """A duplicate CHAIN (diameter = n) is the hash-min worst case; the
    pointer-jumping half-step must converge it in O(log n) rounds —
    this would take 100k rounds (and hours) without it."""
    import time

    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        connected_components,
    )

    n = 100_001
    pairs = rd.from_pandas(
        pd.DataFrame({"doc_a": range(n - 1), "doc_b": range(1, n)})
    )
    t0 = time.time()
    comp = connected_components(pairs).to_pandas()
    assert len(comp) == n
    assert (comp["component"] == 0).all()
    assert time.time() - t0 < 120  # seconds, not O(diameter) rounds


def test_connected_components_mixed_topologies(ray_session):
    """Cliques + a star, disjoint: every node must label to the min id
    of its own component and nothing leaks across components."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        connected_components,
    )

    e = []
    for base in (200_000, 300_000):
        for i in range(10):
            for j in range(i + 1, 10):
                e.append((base + i, base + j))
    for i in range(1, 50):
        e.append((400_000, 400_000 + i))
    pairs = rd.from_pandas(pd.DataFrame(e, columns=["doc_a", "doc_b"]))
    comp = connected_components(pairs).to_pandas()
    sizes = comp.groupby("component").size()
    assert sorted(sizes.values) == [10, 10, 50]
    assert set(sizes.index) == {200_000, 300_000, 400_000}


def test_connected_components_high_ids_no_sentinel_collapse(ray_session):
    """Node ids above 2^62 (real 63-bit doc-id hashes reach 2^63-1)
    must NOT collapse onto the min-inert sentinel label — regression
    for _CC_SENTINEL = 1<<62."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        connected_components,
        dedup_keep_min,
    )

    base = np.int64(1) << 62
    a = [int(base + 10), int(base + 30)]
    b = [int(base + 20), int(base + 40)]
    pairs = rd.from_arrow(pa.table(
        {
            "doc_a": pa.array(a, type=pa.int64()),
            "doc_b": pa.array(b, type=pa.int64()),
        }
    ))
    comp = connected_components(pairs).to_pandas()
    got = dict(zip(comp["node"], comp["component"]))
    assert got == {
        a[0]: a[0], b[0]: a[0],   # distinct components, real roots
        a[1]: a[1], b[1]: a[1],
    }

    docs = rd.from_arrow(pa.table(
        {
            "doc_id": pa.array(a + b, type=pa.int64()),
            "text": pa.array(list("wxyz")),
        }
    ))
    kept = dedup_keep_min(docs, pairs).to_pandas()
    assert sorted(kept["doc_id"]) == sorted(a)


def test_keep_mask_vectorized_million_ids():
    """Finalize filter must be numpy-vectorized: 1e6 drop ids against
    1e6 batch ids completes via one sorted np.isin (no Python-set
    membership loop — the old path took ~60 B/id and a per-row
    interpreter call)."""
    import time

    from web_based_search_engine_ray.pipelines.dedup import _keep_mask

    rng = np.random.default_rng(7)
    gone = np.unique(rng.integers(0, 4_000_000, size=1_200_000))
    assert len(gone) >= 1_000_000
    ids = rng.integers(0, 4_000_000, size=1_000_000)
    t0 = time.perf_counter()
    mask = _keep_mask(ids, gone)
    wall = time.perf_counter() - t0
    # exact semantics on a sample
    samp = rng.choice(len(ids), size=500, replace=False)
    gset = set(gone.tolist())
    for i in samp:
        assert mask[i] == (int(ids[i]) not in gset)
    # 1e6x1e6 np.isin is ~100ms-class; a Python loop is ~10s-class
    assert wall < 5.0
    assert _keep_mask(ids, np.empty(0, dtype=np.int64)).all()


@pytest.mark.parametrize("id_set", ["two_buckets", "empty"])
@pytest.mark.parametrize("broadcast_limit", [20_000_000, -1],
                         ids=["broadcast", "bucketed"])
@pytest.mark.parametrize("keep", [True, False], ids=["keep", "drop"])
def test_filter_by_ids_matches_isin(ray_session, tmp_path, keep,
                                    broadcast_limit, id_set):
    """Both modes x both strategies equal an ``np.isin`` filter.  The
    id set covers only buckets 0 and 3 of 8 (the other buckets hold no
    ids) or is empty; ``broadcast_limit=-1`` forces the bucketed join
    even for the empty set."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import filter_by_ids

    n = 300
    doc_ids = np.arange(n, dtype=np.int64)
    docs = rd.from_arrow(pa.table(
        {"doc_id": pa.array(doc_ids),
         "text": pa.array([f"doc {i}" for i in range(n)])}
    ))
    rng = np.random.default_rng(9)
    if id_set == "empty":
        sel = np.empty(0, dtype=np.int64)
    else:
        cand = doc_ids[np.isin(doc_ids % 8, [0, 3])]
        sel = rng.choice(cand, size=40, replace=False)
        # ids outside the corpus select nothing
        sel = np.concatenate([sel, [n + 8, n + 11]])
    ids = rd.from_arrow(pa.table({"doc_id": pa.array(sel, pa.int64())}))
    out = filter_by_ids(
        docs, ids, keep=keep, broadcast_limit=broadcast_limit,
        n_buckets=8, spill_dir=str(tmp_path / "ids"),
    ).to_pandas()
    want = doc_ids[np.isin(doc_ids, sel) == keep]
    if len(want) == 0:
        # Ray Data may hand back an all-empty result without columns
        assert len(out) == 0
        return
    assert sorted(out["doc_id"]) == want.tolist()
    assert list(out.columns) == ["doc_id", "text"]
    assert (out["text"] == "doc " + out["doc_id"].astype(str)).all()


def test_keep_min_anti_join_path_matches_broadcast(ray_session, tmp_path):
    """broadcast_limit=0 forces the bucketed anti-join shuffle; the
    survivor set must be identical to the broadcast path."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import dedup_keep_min

    rng = np.random.default_rng(3)
    n = 400
    docs = rd.from_arrow(pa.table(
        {
            "doc_id": pa.array(np.arange(n), type=pa.int64()),
            "text": pa.array([f"doc {i}" for i in range(n)]),
        }
    ))
    a = rng.integers(0, n, size=150)
    b = rng.integers(0, n, size=150)
    keep = a != b
    pairs = rd.from_arrow(pa.table(
        {
            "doc_a": pa.array(np.minimum(a, b)[keep], type=pa.int64()),
            "doc_b": pa.array(np.maximum(a, b)[keep], type=pa.int64()),
        }
    ))
    bc = sorted(dedup_keep_min(docs, pairs).to_pandas()["doc_id"])
    aj = sorted(
        dedup_keep_min(
            docs, pairs, broadcast_limit=0, n_buckets=8,
            spill_dir=str(tmp_path / "km"),
        ).to_pandas()["doc_id"]
    )
    assert bc == aj
    assert len(bc) < n  # something was actually dropped


def test_embedding_exact_pairs_guard(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        embedding_dup_pairs_exact,
    )

    ds = rd.from_arrow(pa.table(
        {
            "vec_id": pa.array(np.arange(50), type=pa.int64()),
            "embedding": pa.array(
                np.eye(50, 4)[:, :4].tolist(), type=pa.list_(pa.float32())
            ),
        }
    ))
    with pytest.raises(ValueError, match="O\\(n\\^2\\)"):
        embedding_dup_pairs_exact(ds, max_vectors=10)
    # under the cap it still runs
    out = embedding_dup_pairs_exact(ds, threshold=0.99).to_pandas()
    if len(out):
        assert (out["vec_a"] < out["vec_b"]).all()


def test_embedding_matrix_zero_copy_helper():
    from web_based_search_engine_ray.util import embedding_matrix

    a = pa.array([[1.0, 2.0], [3.0, 4.0]], type=pa.list_(pa.float32()))
    m = embedding_matrix(a)
    assert m.shape == (2, 2) and m.dtype == np.float64
    assert m[1, 0] == 3.0
    # sliced window and chunked input
    assert embedding_matrix(a.slice(1, 1))[0, 1] == 4.0
    assert embedding_matrix(pa.chunked_array([a, a])).shape == (4, 2)
    with pytest.raises(ValueError, match="non-uniform"):
        embedding_matrix(pa.array([[1.0], [1.0, 2.0]],
                                  type=pa.list_(pa.float32())))


def test_ivf_auto_scale_clusters(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.similarity import IvfIndex

    rng = np.random.default_rng(11)
    n = 900
    ds = rd.from_arrow(pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(
                rng.normal(size=(n, 8)).tolist(), type=pa.list_(pa.float32())
            ),
        }
    ))
    idx = IvfIndex(iters=2)  # n_clusters=None -> auto
    idx.fit(ds)
    assert idx.n_clusters == 30  # round(sqrt(900))
    res = idx.search(rng.normal(size=(2, 8)), k=5, nprobe=4)
    assert len(res) == 10


def test_hot_key_guards_fire(ray_session, tmp_path):
    """A group over the per-group row budget must raise loudly (not
    OOM silently): sessionize mega-user, chunk_dedup mega-bucket, CC
    mega-bucket."""
    import ray
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.chunk_dedup import chunk_dedup
    from web_based_search_engine_ray.pipelines.dedup import (
        connected_components,
    )
    from web_based_search_engine_ray.pipelines.events import sessionize

    ev = rd.from_arrow(pa.table(
        {
            "user_id": pa.array([7] * 100, type=pa.int64()),
            "ts": pa.array(
                pd.date_range("2024-01-01", periods=100, freq="min")
            ),
            "value": pa.array([1.0] * 100),
        }
    ))
    with pytest.raises(ray.exceptions.RayTaskError, match="sessionize"):
        sessionize(ev, max_group_rows=10).materialize()
    # default budget: unchanged result
    assert sessionize(ev).count() == 1

    docs = rd.from_arrow(pa.table(
        {
            "doc_id": pa.array(range(40), type=pa.int64()),
            "text": pa.array(["alpha beta gamma"] * 40),
        }
    ))
    with pytest.raises(ray.exceptions.RayTaskError, match="chunk_dedup"):
        chunk_dedup(docs, num_buckets=1, max_group_rows=5).materialize()

    pairs = rd.from_arrow(pa.table(
        {
            "doc_a": pa.array(range(0, 60), type=pa.int64()),
            "doc_b": pa.array(range(1, 61), type=pa.int64()),
        }
    ))
    with pytest.raises(
        ray.exceptions.RayTaskError, match="connected_components"
    ):
        connected_components(
            pairs, num_buckets=1, max_group_rows=5
        ).materialize()


def test_semantic_dedup_within_groups(ray_session):
    """SemDeDup composition: pairs only within a group; keep-min per
    component; the mega-group guard fires."""
    import ray
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        semantic_dedup,
        semantic_dup_pairs_grouped,
    )

    # group 0: vecs 0,1 identical, 2 orthogonal; group 1: vec 3
    # identical to 0 but in ANOTHER group -> never paired with it
    emb = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    ds = rd.from_arrow(pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "label": pa.array([0, 0, 0, 1], pa.int32()),
            "embedding": pa.array(emb, type=pa.list_(pa.float32())),
        }
    ))
    pairs = semantic_dup_pairs_grouped(ds, threshold=0.9).to_pandas()
    assert [(r.vec_a, r.vec_b) for r in pairs.itertuples()] == [(0, 1)]
    kept = sorted(semantic_dedup(ds, threshold=0.9).to_pandas()["vec_id"])
    assert kept == [0, 2, 3]
    with pytest.raises(ray.exceptions.RayTaskError, match="semantic"):
        semantic_dup_pairs_grouped(ds, max_group_vecs=2).materialize()


def test_brute_force_topk_driver_intake_bounded(ray_session):
    """1000 queries x many blocks: the per-query groupby merge must cap
    what reaches the driver at nq*k rows, and the final result must
    match a single-machine numpy reference exactly."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.similarity import (
        _topk_partials_merged,
        brute_force_topk,
    )
    from web_based_search_engine_ray.util import unit_rows

    rng = np.random.default_rng(11)
    n, dim, nq, k = 2000, 8, 1000, 3
    emb = rng.standard_normal((n, dim))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(emb.tolist(), type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(t).repartition(32)  # many blocks
    q = emb[:nq]

    merged = _topk_partials_merged(ds, unit_rows(q.astype(np.float64)), k)
    assert merged.count() <= nq * k

    res = brute_force_topk(ds, q, k=k)
    assert len(res) == nq * k

    # numpy reference over float32-roundtripped embeddings (the table
    # stores list<float>, so normalize what the engine actually reads)
    m = unit_rows(emb.astype(np.float32).astype(np.float64))
    qn = unit_rows(q.astype(np.float32).astype(np.float64))
    sims = qn @ m.T
    for qid in (0, 7, 999):
        order = np.lexsort((np.arange(n), -sims[qid]))[:k]
        got = res[res["query_id"] == qid].sort_values("rank")
        assert list(got["vec_id"]) == list(order)

    # merge modes are value-identical; auto picks the driver merge
    # below the partial threshold and the distributed reduce above it
    from web_based_search_engine_ray.pipelines import similarity as sim_mod

    r_driver = brute_force_topk(ds, q, k=k, merge="driver")
    r_dist = brute_force_topk(ds, q, k=k, merge="distributed")
    pd.testing.assert_frame_equal(res, r_driver)
    pd.testing.assert_frame_equal(res, r_dist)
    old = sim_mod.DRIVER_MERGE_MAX_PARTIALS
    try:
        sim_mod.DRIVER_MERGE_MAX_PARTIALS = 0  # force the scale path
        r_auto_big = brute_force_topk(ds, q, k=k, merge="auto")
    finally:
        sim_mod.DRIVER_MERGE_MAX_PARTIALS = old
    pd.testing.assert_frame_equal(res, r_auto_big)


def test_ivf_pretrained_centroids_deterministic(ray_session, tmp_path):
    """IvfIndex(centroids=...) skips Lloyd and still builds the
    partitioned store; deterministic_centroids is process-reproducible
    (same rounded values on repeated calls)."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.similarity import (
        IvfIndex,
        deterministic_centroids,
    )

    rng = np.random.default_rng(5)
    n, dim = 300, 12
    emb = rng.standard_normal((n, dim))
    ids = np.arange(n)
    c1 = deterministic_centroids(ids, emb, 6, iters=2)
    c2 = deterministic_centroids(ids[::-1].copy(), emb[::-1].copy(), 6, iters=2)
    assert np.array_equal(c1, c2)  # row-order independent (sorts by id)

    t = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(emb.tolist(), type=pa.list_(pa.float32())),
        }
    )
    idx = IvfIndex(centroids=c1, store_dir=str(tmp_path / "ivf"))
    idx.fit(rd.from_arrow(t))
    assert idx.n_clusters == 6
    res = idx.search(emb[:2], k=5, nprobe=2)
    top0 = res[res["query_id"] == 0].sort_values("rank").iloc[0]
    assert top0["vec_id"] == 0


def test_estimated_blocks_never_executes_the_plan(
    ray_session, tmp_path, sf_dir
):
    """merge="auto" sizing must be metadata-only (regression:
    ``Dataset.size_bytes()`` falls back to ``plan.execute()`` on
    transformed datasets, running the upstream pipeline twice)."""
    import os

    import ray.data as rd

    from web_based_search_engine_ray.pipelines.similarity import (
        _estimated_blocks,
    )

    marker = tmp_path / "executed"
    mpath = str(marker)

    def boom(b: pa.Table) -> pa.Table:
        with open(mpath, "w") as f:
            f.write("x")
        return b

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet")
    ).map_batches(boom, batch_format="pyarrow")
    nb = _estimated_blocks(ds)
    assert nb is None or nb >= 1
    assert not marker.exists(), "_estimated_blocks executed the plan"
