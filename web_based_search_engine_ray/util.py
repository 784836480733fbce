"""Small shared helpers for pipeline parallelism.

Ray sizes read blocks by bytes, so test-scale inputs collapse to one
block (serializing map stages), while every block is a task and a
sort-shuffle's cost grows with block count.  Pipelines therefore split
reads to ``auto_parallelism()`` blocks, 2 per cluster CPU: 2 on a
1-CPU host, where each further block only adds task overhead.  The
index plans size their reads for the groupby and never repartition
(see ``IndexConfig.shuffle_partitions``); the other pipelines
``coalesce`` to one block per CPU, at least 8, right before a groupby.
At real cluster scale block counts are byte-driven and these become
no-ops by configuration.
"""

from __future__ import annotations


def _cpus() -> int:
    """The Ray cluster's CPU count, at least 1 (a fractional or missing
    count still runs tasks); 4 when Ray is not initialized."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:
        pass
    return 4


def auto_parallelism() -> int:
    """Blocks for reads/maps: 2 per CPU."""
    return _cpus() * 2


def coalesce(ds):
    """Repartition a dataset ahead of a shuffle: blocks going INTO a
    groupby are 1 per CPU, at least 8 (sort-shuffle overhead scales
    with block count)."""
    return ds.repartition(max(8, _cpus()))


_WORKER_SINGLETONS: dict = {}


def worker_singleton(key, factory):
    """Per-worker-process lazy singleton for map_batches TASK stages.

    Ray reuses worker processes across tasks, so a module-level cache
    gives actor-style state amortization (compiled regexes, stopword
    sets, memo tables) without paying actor-pool startup.  Use a real
    actor pool instead when state must NOT be rebuilt per worker
    (large models) or needs strict lifecycle control.
    """
    inst = _WORKER_SINGLETONS.get(key)
    if inst is None:
        inst = factory()
        _WORKER_SINGLETONS[key] = inst
    return inst


def embedding_matrix(col, dtype="float64"):
    """(n, dim) numpy matrix from an Arrow ``list<float>`` (or
    ``list<int64>``, e.g. MinHash signatures) column WITHOUT
    per-element Python objects.  Uses the flat ``values``
    buffer of the ListArray (zero-copy from the object store for the
    float read; one cast to ``dtype``).  Requires rows of uniform
    length and no nulls — both guaranteed by the embeddings schema;
    raises otherwise rather than silently mis-reshaping.
    """
    import numpy as np
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if col.null_count:
        raise ValueError("embedding column contains nulls")
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    dim = int(widths[0])
    if not (widths == dim).all():
        raise ValueError("embedding rows have non-uniform length")
    flat = col.values.to_numpy(zero_copy_only=False)
    # a sliced ListArray's values buffer covers the parent; cut to
    # this array's window before reshaping
    flat = flat[offsets[0]:offsets[-1]]
    return np.ascontiguousarray(flat.reshape(n, dim)).astype(
        dtype, copy=False
    )


def unit_rows(m):
    """``m`` with every row scaled to unit L2 norm; all-zero rows stay
    zero (their norm is taken as 1)."""
    import numpy as np

    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def check_group_budget(n_rows: int, max_rows, *, stage: str, key, hint: str):
    """Hot-key guard for per-group reducers: a ``map_groups`` task must
    hold its whole group in one worker's heap, so a pathological key
    (one user = 1% of a 100-TB event log; one mega band-bucket) OOMs
    the reducer silently.  Fail LOUD and actionable instead.
    ``max_rows=None`` disables the guard."""
    if max_rows is not None and n_rows > max_rows:
        raise RuntimeError(
            f"{stage}: group {key!r} holds {n_rows} rows, over the "
            f"per-group budget of {max_rows} — a single reducer task "
            f"must materialize this whole group. {hint}"
        )
