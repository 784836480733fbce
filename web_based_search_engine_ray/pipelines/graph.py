"""Link-graph analytics over the edge table.

The reference maintains the web graph as adjacency SETS
(``LinkIndexer.java:24-26`` — parent→children and child→parents
HTrees) but never ranks by it.  PageRank (Brin & Page 1998, public
algorithm) is the canonical operator a web-scale engine runs over
exactly this table, so it ships here as a first-class pipeline.

Distributed shape (no driver-side graph, no broadcast rank vector):

- edges are DISTINCT ``(src, dst)`` pairs (set semantics, matching the
  reference's adjacency sets), hash-bucketed by ``src`` ONCE and
  materialized — the edge table never moves again;
- the rank table ``(node, rank, outdeg)`` is bucketed by the same
  ``hash(node) % num_buckets`` key, so each iteration is exactly two
  bucket shuffles: a ``spread`` pass (per bucket: join ranks to the
  co-bucketed edges vectorized, emit ``rank/outdeg`` messages to the
  destinations) and a ``combine`` pass (per bucket: sum incoming
  messages per node and apply the damping update);
- dangling mass (rank parked on nodes with no outlinks) is a scalar
  per-iteration aggregate, redistributed uniformly — the standard
  stochastic-matrix completion;
- every per-bucket function is numpy over the whole bucket (sort +
  ``add.reduceat``), never per-node Python.

Iteration count is FIXED (not tolerance-based) so the result is
deterministic and mirrors the unrolled SQL oracle in ``registry``.
At 10^12 nodes the per-iteration traffic is O(|E| + |V|) rows through
two keyed exchanges; ``num_buckets`` bounds task count and should be
sized to ~2-4× total cores.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.functions.hashing import (
    fnv1a63_array,
    splitmix64_array,
)
from web_based_search_engine_ray.util import coalesce

_SCHEMA_COLS = ("bucket", "key", "other", "rank", "outdeg", "is_node")


def _rows(bucket, key, other, rank, outdeg, is_node) -> pa.Table:
    return pa.table(
        {
            "bucket": pa.array(bucket, type=pa.int64()),
            "key": pa.array(key, type=pa.string()),
            "other": pa.array(other, type=pa.string()),
            "rank": pa.array(rank, type=pa.float64()),
            "outdeg": pa.array(outdeg, type=pa.int64()),
            "is_node": pa.array(is_node, type=pa.bool_()),
        }
    )


def _empty() -> pa.Table:
    return _rows([], [], [], [], [], [])


def _key_runs(keys: np.ndarray):
    """Boundaries of equal-key runs in a SORTED object array:
    (starts, run_index_per_row)."""
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    new = np.ones(n, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    run_of = np.cumsum(new) - 1
    return starts, run_of


def pagerank(
    edges,
    *,
    src: str = "src_url",
    dst: str = "dst_url",
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 64,
):
    """PageRank over an edge Dataset; returns ``(url, pagerank)``.

    ``rank'(v) = (1-d)/N + d·(Σ_{u→v} rank(u)/outdeg(u) + D/N)`` where
    ``D`` is the total rank on dangling nodes; node set = every url
    appearing as src OR dst; parallel edges collapse (set semantics,
    reference ``LinkIndexer`` stores child sets).  Fixed ``iters``
    rounds from the uniform vector — deterministic up to fp summation
    order (callers comparing across runs should round, see registry).
    """
    nb = np.int64(num_buckets)

    def edge_rows(b: pa.Table) -> pa.Table:
        s = b[src].to_numpy(zero_copy_only=False)
        d = b[dst].to_numpy(zero_copy_only=False)
        n = len(s)
        return _rows(
            fnv1a63_array(s) % nb,
            s,
            d,
            np.zeros(n),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=bool),
        )

    def pair_bucket(b: pa.Table) -> pa.Table:
        # route by the PAIR hash so exact-duplicate edges co-locate
        hs = fnv1a63_array(b[src].to_numpy(zero_copy_only=False))
        hd = fnv1a63_array(b[dst].to_numpy(zero_copy_only=False))
        pb = splitmix64_array(hs * np.int64(1000003) + hd) % nb
        return b.select([src, dst]).append_column(
            "pb", pa.array(pb, type=pa.int64())
        )

    def drop_dup_pairs(g: pa.Table) -> pa.Table:
        # Arrow-native distinct: group_by with no aggregates keeps one
        # row per (src, dst) — no pandas round-trip in the reducer
        return g.select([src, dst]).group_by([src, dst]).aggregate([])

    edges = (
        coalesce(edges.map_batches(pair_bucket, batch_format="pyarrow"))
        .groupby("pb")
        .map_groups(drop_dup_pairs, batch_format="pyarrow")
    )

    edge_tbl = edges.map_batches(edge_rows, batch_format="pyarrow").materialize()

    # ---- node table: outdeg per node over src-presence + dst-presence
    def presence(b: pa.Table) -> pa.Table:
        # src rows carry outdeg-contribution 1, dst rows 0; both routed
        # by their OWN url so the bucket groupby sees every node
        s = b["key"].to_numpy(zero_copy_only=False)
        d = b["other"].to_numpy(zero_copy_only=False)
        key = np.concatenate([s, d])
        contrib = np.concatenate(
            [np.ones(len(s), dtype=np.int64), np.zeros(len(d), dtype=np.int64)]
        )
        return _rows(
            fnv1a63_array(key) % nb,
            key,
            np.full(len(key), "", dtype=object),
            np.zeros(len(key)),
            contrib,
            np.ones(len(key), dtype=bool),
        )

    def init_nodes(g: pa.Table) -> pa.Table:
        g = g.sort_by([("key", "ascending")])
        keys = g["key"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return _empty()
        od = g["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
        starts, _ = _key_runs(keys)
        uk = keys[starts]
        out = np.add.reduceat(od, starts)
        n = len(uk)
        return _rows(
            fnv1a63_array(uk) % nb,
            uk,
            np.full(n, "", dtype=object),
            np.ones(n),  # placeholder; scaled to 1/N below
            out,
            np.ones(n, dtype=bool),
        )

    ranks = (
        coalesce(edge_tbl.map_batches(presence, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(init_nodes, batch_format="pyarrow")
        .materialize()
    )
    n_nodes = ranks.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"url": pa.array([], type=pa.string()),
                 "pagerank": pa.array([], type=pa.float64())}
            )
        )

    inv_n = 1.0 / float(n_nodes)
    ranks = ranks.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("rank"),
            "rank",
            pa.array(np.full(len(b), inv_n), type=pa.float64()),
        ),
        batch_format="pyarrow",
    ).materialize()

    from ray.data.aggregate import Sum

    def dangling_partial(b: pa.Table) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False)
        od = b["outdeg"].to_numpy(zero_copy_only=False)
        return pa.table({"dm": pa.array([float(r[od == 0].sum())])})

    def spread(g: pa.Table) -> pa.Table:
        # bucket-wide vectorized rank→edge join: every edge src has a
        # rank row in the same bucket (same hash key)
        g = g.sort_by([("key", "ascending")])
        keys = g["key"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return _empty()
        is_node = g["is_node"].to_numpy(zero_copy_only=False)
        rank = g["rank"].to_numpy(zero_copy_only=False)
        od = g["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
        other = g["other"].to_numpy(zero_copy_only=False)
        starts, run_of = _key_runs(keys)
        nk = len(starts)
        rk = np.zeros(nk)
        odk = np.zeros(nk, dtype=np.int64)
        rk[run_of[is_node]] = rank[is_node]
        odk[run_of[is_node]] = od[is_node]
        em = ~is_node
        esrc_run = run_of[em]
        contrib = rk[esrc_run] / odk[esrc_run]  # outdeg ≥ 1 for any src
        msg_key = other[em]
        # carry rows keep the node set + outdeg flowing to combine
        node_keys = keys[is_node]
        node_od = od[is_node]
        out_key = np.concatenate([msg_key, node_keys])
        out_rank = np.concatenate([contrib, np.zeros(len(node_keys))])
        out_od = np.concatenate(
            [np.full(len(msg_key), -1, dtype=np.int64), node_od]
        )
        out_isn = np.concatenate(
            [np.zeros(len(msg_key), dtype=bool), np.ones(len(node_keys), dtype=bool)]
        )
        return _rows(
            fnv1a63_array(out_key) % nb,
            out_key,
            np.full(len(out_key), "", dtype=object),
            out_rank,
            out_od,
            out_isn,
        )

    for _ in range(iters):
        agg = ranks.map_batches(
            dangling_partial, batch_format="pyarrow"
        ).aggregate(Sum("dm"))
        dm = float(agg.get("sum(dm)") or 0.0)
        base = (1.0 - damping) / float(n_nodes)
        shared = dm / float(n_nodes)

        def combine(g: pa.Table, _base=base, _shared=shared) -> pa.Table:
            g = g.sort_by([("key", "ascending")])
            keys = g["key"].to_numpy(zero_copy_only=False)
            if len(keys) == 0:
                return _empty()
            rank = g["rank"].to_numpy(zero_copy_only=False)
            od = g["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
            starts, _ = _key_runs(keys)
            uk = keys[starts]
            contrib = np.add.reduceat(rank, starts)
            # the single carry row per node holds the real outdeg;
            # message rows carry -1
            odk = np.maximum.reduceat(od, starts)
            new_rank = _base + damping * (contrib + _shared)
            n = len(uk)
            return _rows(
                fnv1a63_array(uk) % nb,
                uk,
                np.full(n, "", dtype=object),
                new_rank,
                odk,
                np.ones(n, dtype=bool),
            )

        msgs = (
            coalesce(edge_tbl.union(ranks))
            .groupby("bucket")
            .map_groups(spread, batch_format="pyarrow")
        )
        ranks = (
            coalesce(msgs)
            .groupby("bucket")
            .map_groups(combine, batch_format="pyarrow")
            .materialize()
        )

    return ranks.map_batches(
        lambda b: pa.table({"url": b["key"], "pagerank": b["rank"]}),
        batch_format="pyarrow",
    )
