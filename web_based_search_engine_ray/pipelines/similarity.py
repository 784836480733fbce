"""Similarity search over the ``embeddings`` table.

- :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  broadcast once (``ray.put``), every batch does one dense matmul;
  at scale the per-block top-k partials reduce through a
  ``groupby(query_id)`` top-k so the driver sees <= nq*k rows
  regardless of block count (small inputs skip the shuffle and merge
  the partials in one driver lexsort — ``merge="auto"``).
- :class:`IvfIndex` — IVF-flat scale path: deterministic k-means
  (seeded sample init + Lloyd iterations via ``map_batches`` partial
  sums), cluster assignment stored per vector, query probes the
  ``nprobe`` nearest centroids only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from web_based_search_engine_ray.util import embedding_matrix, unit_rows


def deterministic_centroids(ids: np.ndarray, mat: np.ndarray,
                            n_clusters: int, iters: int = 3) -> np.ndarray:
    """Pure-numpy, fully deterministic spherical k-means over a SMALL
    in-memory matrix: rows sorted by id, init = the ``n_clusters``
    smallest ids' vectors, fixed Lloyd rounds, centroids rounded to
    9 decimals so the exact values can be inlined in a SQL
    oracle and recomputed bit-identically in another process.  This is
    the offline/sample centroid-training path (the common production
    pattern — FAISS trains IVF centroids on a sample); the distributed
    Lloyd in :meth:`IvfIndex.fit` remains the at-scale default."""
    order = np.argsort(np.asarray(ids), kind="mergesort")
    m = unit_rows(np.asarray(mat, dtype=np.float64)[order])
    if len(m) < n_clusters:
        raise ValueError(
            f"need >= {n_clusters} vectors, got {len(m)}"
        )
    cents = m[:n_clusters].copy()
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, m)
        counts = np.bincount(assign, minlength=len(cents))
        nz = counts > 0
        cents[nz] = unit_rows(sums[nz] / counts[nz, None])
    return np.round(cents, 9)


def _block_partials(ds, q: np.ndarray, k: int):
    """Lazy Dataset of per-block top-k partials: the query matrix is
    broadcast once (``ray.put``), each block does one dense matmul and
    keeps its local top-k per query (nq*k rows per block)."""
    import ray

    qref = ray.put(q)

    def block_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(qref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = unit_rows(embedding_matrix(batch["embedding"]))
        sim = qm @ emb.T  # (nq, nb)
        nq, nb = sim.shape
        kk = min(k, nb)
        # per-block partial top-k with deterministic tie-break
        order = np.lexsort((ids[None, :].repeat(nq, 0), -sim), axis=1)[:, :kk]
        rows_q = np.repeat(np.arange(nq), kk)
        cols = order.ravel()
        return pa.table(
            {
                "query_id": pa.array(rows_q, type=pa.int64()),
                "vec_id": pa.array(ids[cols], type=pa.int64()),
                "cosine": pa.array(sim[rows_q, cols], type=pa.float64()),
            }
        )

    return ds.map_batches(block_topk, batch_format="pyarrow")


def _topk_partials_merged(ds, q: np.ndarray, k: int):
    """Lazy Dataset of the per-query merged top-k partials: per-block
    top-k map, then a ``groupby(query_id)`` top-k reduce, so whatever
    consumes it (the driver) sees at most ``nq * k`` rows regardless
    of how many blocks the corpus splits into."""

    def group_topk(group: pa.Table) -> pa.Table:
        # distributed per-query merge of the block partials: keeps the
        # driver intake at <= nq x k rows no matter how many blocks the
        # corpus splits into (at 100x block counts the raw partials are
        # a driver-side materialization bomb)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        sims = group["cosine"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return group.take(pa.array(order))

    return (
        _block_partials(ds, q, k)
        .groupby("query_id")
        .map_groups(group_topk, batch_format="pyarrow")
    )


def _estimated_blocks(ds) -> int | None:
    """Cheap block-count estimate WITHOUT executing the pipeline:
    materialized datasets know their block count; file-based reads
    expose file list + in-memory size from parquet metadata (one big
    file still splits into ``size / target_max_block_size`` blocks at
    execution, so take the max of both).  ``None`` = unknown."""
    try:
        return ds.num_blocks()
    except Exception:
        pass
    try:
        files = ds.input_files()
        if not files:
            return None
        est = len(files)
        # metadata-only size: Dataset.size_bytes() EXECUTES the plan
        # when metadata can't infer it (ray 2.49 falls back to
        # plan.execute()), which would run the upstream pipeline twice
        # just for this estimate — read the inferred metadata directly
        # and treat "unknown" as unknown
        size = ds._logical_plan.dag.infer_metadata().size_bytes
        if size:
            from ray.data import DataContext

            tgt = DataContext.get_current().target_max_block_size
            if tgt:
                est = max(est, -(-size // tgt))
        return est
    except Exception:
        return None


#: partial-row count above which the per-query merge runs as a
#: distributed ``groupby`` reduce instead of one driver lexsort.  A
#: sort-shuffle groupby carries ~0.3-0.5 s of fixed scheduling cost,
#: so below this the driver merge (a single numpy lexsort, <0.2 s at
#: the threshold) is strictly faster; above it — or whenever the block
#: count can't be read from metadata — the distributed reduce caps
#: driver intake at nq*k rows regardless of corpus block count.
DRIVER_MERGE_MAX_PARTIALS = 2_000_000


def brute_force_topk(ds, query_vecs: np.ndarray, k: int = 10,
                     merge: str = "auto") -> pd.DataFrame:
    """Exact cosine top-k per query.  Returns (query_id, rank, vec_id,
    cosine) — deterministic tie-break (cosine desc, vec_id asc).

    ``merge``: ``"distributed"`` always reduces block partials through
    a ``groupby(query_id)`` before the driver; ``"driver"`` collects
    the raw nq*k*blocks partials (small inputs only); ``"auto"`` picks
    by the estimated partial count, defaulting to distributed when the
    block count is unknown."""
    import ray

    q = unit_rows(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    if merge not in ("auto", "driver", "distributed"):
        raise ValueError(f"merge={merge!r}")
    if merge == "auto":
        nb = _estimated_blocks(ds)
        small = (
            nb is not None
            and len(q) * k * nb <= DRIVER_MERGE_MAX_PARTIALS
        )
        merge = "driver" if small else "distributed"
    if merge == "driver":
        # skip the groupby — the driver finish below IS the merge
        # (same lexsort semantics over the raw block partials)
        merged = _block_partials(ds, q, k).to_pandas()
    else:
        merged = _topk_partials_merged(ds, q, k).to_pandas()
    # driver finish: global (query, -cosine, vec_id) sort + rank over
    # the <= nq x k merged rows
    q_arr = merged["query_id"].to_numpy()
    v_arr = merged["vec_id"].to_numpy()
    c_arr = merged["cosine"].to_numpy()
    order = np.lexsort((v_arr, -c_arr, q_arr))
    sq = q_arr[order]
    new = np.ones(len(sq), dtype=bool)
    new[1:] = sq[1:] != sq[:-1]
    run_start = np.maximum.accumulate(
        np.where(new, np.arange(len(sq)), 0)
    )
    rank = np.arange(len(sq)) - run_start
    keep = rank < k
    sel = order[keep]
    return pd.DataFrame(
        {
            "query_id": q_arr[sel].astype(np.int64),
            "rank": rank[keep].astype(np.int64),
            "vec_id": v_arr[sel].astype(np.int64),
            "cosine": c_arr[sel].astype(np.float64),
        }
    )


#: seeds :class:`IvfIndex`'s centroid sample and initial draw
IVF_SEED = 42


class IvfIndex:
    """IVF-flat over a Ray Dataset of (vec_id, embedding).

    Build: k-means on normalized vectors — centroid init from a sample
    seeded with ``IVF_SEED``, ``iters`` Lloyd rounds where each round is
    one ``map_batches`` pass emitting per-centroid partial sums (pre-agg →
    tiny driver reduce; no shuffle).  Assignment adds a ``cluster``
    column.  Query: probe the ``nprobe`` closest centroids, exact
    cosine within probed clusters.
    """

    def __init__(self, n_clusters: int | None = None, iters: int = 5,
                 store_dir: str | None = None,
                 centroids: np.ndarray | None = None):
        #: None → auto-scale at fit() time to ~sqrt(n) (the standard
        #: IVF sizing rule), clamped to [16, 65536]
        self.n_clusters = n_clusters
        self.iters = iters
        #: pre-trained centroids (e.g. deterministic_centroids on a
        #: sample) — fit() then skips the distributed Lloyd and only
        #: runs the assignment + partitioned store
        self.centroids: np.ndarray | None = (
            None if centroids is None
            else unit_rows(np.asarray(centroids, dtype=np.float64))
        )
        self.store_dir = store_dir  # cluster-partitioned parquet
        self._cluster_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def fit(self, ds):
        import ray

        if self.centroids is not None:
            self.n_clusters = len(self.centroids)
            return self._store_assignment(ds, self.centroids)
        n_total = ds.count()
        if self.n_clusters is None:
            self.n_clusters = int(
                min(65536, max(16, round(n_total ** 0.5)))
            )
        sample = ds.random_sample(
            min(1.0, (self.n_clusters * 32) / max(1, n_total)), seed=IVF_SEED
        ).to_pandas()
        m = unit_rows(np.asarray(sample["embedding"].tolist(), dtype=np.float64))
        rng = np.random.default_rng(IVF_SEED)
        init_idx = rng.choice(len(m), size=min(self.n_clusters, len(m)), replace=False)
        cents = m[np.sort(init_idx)]

        for _ in range(self.iters):
            cref = ray.put(cents)

            def partial(batch: pa.Table) -> pa.Table:
                c = ray.get(cref)
                emb = unit_rows(
                    embedding_matrix(batch["embedding"])
                )
                assign = np.argmax(emb @ c.T, axis=1)
                dim = emb.shape[1]
                sums = np.zeros((len(c), dim))
                np.add.at(sums, assign, emb)
                counts = np.bincount(assign, minlength=len(c))
                return pa.table(
                    {
                        "cluster": pa.array(np.arange(len(c)), type=pa.int64()),
                        "sum": pa.array(sums.tolist(), type=pa.list_(pa.float64())),
                        "count": pa.array(counts, type=pa.int64()),
                    }
                )

            parts = pa.concat_tables(
                ds.map_batches(partial, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow")
            )
            dim = cents.shape[1]
            cl = parts["cluster"].to_numpy(zero_copy_only=False)
            sums = np.zeros((len(cents), dim))
            np.add.at(sums, cl, embedding_matrix(parts["sum"]))
            counts = np.bincount(
                cl,
                weights=parts["count"].to_numpy(zero_copy_only=False),
                minlength=len(cents),
            )
            nonzero = counts > 0
            cents[nonzero] = unit_rows(sums[nonzero] / counts[nonzero, None])
        self.centroids = cents
        return self._store_assignment(ds, cents)

    def _store_assignment(self, ds, cents: np.ndarray):
        """Distributed assignment pass + cluster-partitioned store."""
        import ray

        cref = ray.put(cents)

        def assign(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            emb = unit_rows(
                embedding_matrix(batch["embedding"])
            )
            a = np.argmax(emb @ c.T, axis=1)
            return batch.append_column("cluster", pa.array(a, type=pa.int64()))

        # Persist the assignment partitioned BY CLUSTER: queries then
        # read only the probed partitions (resumable, and at cluster
        # scale each partition is a bounded slice instead of a full
        # dataset scan per query).
        if self.store_dir is None:
            import tempfile

            self.store_dir = tempfile.mkdtemp(prefix="ivf_store_")
        else:
            # a re-fit (or a dirty target dir) must not leave stale
            # cluster partitions behind — _cluster_vectors would read
            # them alongside the fresh assignment
            import os
            from web_based_search_engine_ray.state import fsio

            if fsio.isdir(self.store_dir):
                fsio.rmtree(self.store_dir)
        ds.map_batches(assign, batch_format="pyarrow").write_parquet(
            self.store_dir, partition_cols=["cluster"]
        )
        self._cluster_cache = {}
        return self

    def _cluster_vectors(self, cluster: int) -> tuple[np.ndarray, np.ndarray]:
        """(vec_ids, normalized matrix) of one cluster partition —
        loaded once, memoized."""
        hit = self._cluster_cache.get(cluster)
        if hit is not None:
            return hit
        import os

        import pyarrow.dataset as pads

        from web_based_search_engine_ray.state import fsio

        part = os.path.join(self.store_dir, f"cluster={cluster}")
        if not fsio.isdir(part):
            out = (np.empty(0, dtype=np.int64), np.empty((0, 0)))
        else:
            t = pads.dataset(part, format="parquet").to_table(
                columns=["vec_id", "embedding"]
            )
            ids = t["vec_id"].to_numpy(zero_copy_only=False)
            emb = unit_rows(embedding_matrix(t["embedding"]))
            out = (ids, emb)
        self._cluster_cache[cluster] = out
        return out

    def search(self, query_vecs: np.ndarray, k: int = 10, nprobe: int = 4) -> pd.DataFrame:
        assert self.centroids is not None, "fit() first"
        q = unit_rows(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
        out = []
        for qid, qv in enumerate(q):
            # stable deterministic probe order: cosine desc, cluster asc
            # (argsort alone leaves tie order undefined)
            sims_c = self.centroids @ qv
            probes = np.lexsort(
                (np.arange(len(sims_c)), -sims_c)
            )[:nprobe]
            parts = [self._cluster_vectors(int(c)) for c in probes]
            parts = [p for p in parts if len(p[0])]
            if not parts:
                continue
            ids = np.concatenate([p[0] for p in parts])
            emb = np.vstack([p[1] for p in parts])
            sim = emb @ qv
            order = np.lexsort((ids, -sim))[:k]
            for rank, i in enumerate(order):
                out.append(
                    {
                        "query_id": qid,
                        "rank": rank,
                        "vec_id": int(ids[i]),
                        "cosine": float(sim[i]),
                    }
                )
        return pd.DataFrame(out)
