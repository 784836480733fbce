"""Corpus-profiling statistics: exact distributed quantiles over
bounded-cardinality numeric columns, and grouped corpus composition
stats.

Quantiles at 100 TB: a full ``sort`` is the textbook way to get exact
quantiles and is an all-to-all shuffle of every row.  For the columns a
data-quality dashboard actually profiles (doc length in chars/tokens,
quality scores on fixed grids), the VALUE DOMAIN is tiny compared to
the row count, so the exchange can be a value-count histogram instead:
one streaming ``map_batches`` emits per-block ``(value, count)``
partials (block-local combine), a ``groupby(value).sum`` merges them
(shuffle of |distinct values| rows, not |rows|), and the driver sorts
the distinct values and walks the cumulative counts — O(distinct)
driver work, independent of corpus size.  A guard raises if the
distinct count explodes past ``max_distinct`` (continuous columns
should be profiled with a sketch, not this operator).

The quantile definition is pinned so the SQL oracle can mirror it
exactly: ``q_v = min{ v : cum_count(v) >= ceil(q * n) }`` (1-based,
"lower value at or above the target rank" — DuckDB's
``quantile_disc``-compatible for these inputs, but we inline the rank
expression rather than trusting engine-version tie semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def exact_quantiles(ds, col: str, qs: list[float], *,
                    max_distinct: int = 5_000_000) -> pd.DataFrame:
    """Exact quantiles of ``ds[col]`` (integer-like or fixed-grid
    column) as a DataFrame ``(q, value, n_rows)``."""
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({"value": batch[col]}).group_by("value").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "value": g["value"],
                "n_part": g["count_all"],
            }
        )

    from ray.data.aggregate import Sum

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("value")
        .aggregate(Sum("n_part", alias_name="n"))
        # materialize ONCE: the count() guard and the collect share an
        # execution instead of re-running the combiner+groupby twice.
        # Trade-off: a guard VIOLATION now pays object-store
        # materialization (spills to disk) before raising — the guard
        # still fires before the driver-heap collect below, which is
        # the hazard it exists to prevent.
        .materialize()
    )
    n_distinct = merged.count()  # distributed count BEFORE collecting
    if n_distinct > max_distinct:
        raise ValueError(
            f"exact_quantiles: {n_distinct} distinct values in {col!r} "
            f"exceeds max_distinct={max_distinct}; use a sketch for "
            "continuous columns"
        )
    t = merged.to_pandas()  # bounded by the guard above
    t = t.sort_values("value", kind="mergesort").reset_index(drop=True)
    cum = t["n"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        raise ValueError(f"exact_quantiles: no rows in column {col!r}")
    ranks = np.ceil(np.asarray(qs, dtype=np.float64) * n).astype(np.int64)
    idx = np.searchsorted(cum, ranks, side="left")
    vals = t["value"].to_numpy()[idx]
    return pd.DataFrame(
        {
            "q": pd.Series(qs, dtype="float64"),
            "value": pd.Series(vals).astype(t["value"].dtype),
            "n_rows": pd.Series([n] * len(qs), dtype="int64"),
        }
    )


def corpus_stats(docs):
    """Composition profile: per ``(lang, source)`` — doc count, total
    and mean ``n_chars`` (mean rounded to 6 places so fp summation
    order can't flip the value hash vs the SQL mirror)."""
    from ray.data.aggregate import Count, Sum

    by = ["lang", "source"]

    def partial(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in by}
        cols["sz"] = batch["n_chars"]
        g = pa.table(cols).group_by(by).aggregate(
            [([], "count_all"), ("sz", "sum")]
        )
        out = {k: g[k] for k in by}
        out["n_part"] = g["count_all"]
        out["sz_part"] = g["sz_sum"]
        return pa.table(out)

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(by)
        .aggregate(
            Sum("n_part", alias_name="n_docs"),
            Sum("sz_part", alias_name="total_chars"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = batch["total_chars"].to_numpy(zero_copy_only=False)
        out = {k: batch[k] for k in by}
        out["n_docs"] = batch["n_docs"]
        out["total_chars"] = batch["total_chars"]
        out["avg_chars"] = pa.array(
            np.round(tot / n, 6), type=pa.float64()
        )
        return pa.table(out)

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_quantiles(ds, col: str, group_col: str, qs: list[float], *,
                      max_distinct: int = 5_000_000) -> pd.DataFrame:
    """Exact per-group quantiles (same pinned rank definition as
    :func:`exact_quantiles`): one streaming (group, value)-count
    combiner, ``groupby((group, value)).sum`` — the exchange moves
    |groups × distinct values| rows, never |rows| — then a vectorized
    driver walk over the cumulative counts per group.  Returns
    ``(group, q, value, n_rows)``."""
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table(
            {"g": batch[group_col], "value": batch[col]}
        ).group_by(["g", "value"]).aggregate([([], "count_all")])
        return pa.table(
            {"g": g["g"], "value": g["value"], "n_part": g["count_all"]}
        )

    from ray.data.aggregate import Sum

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "value"])
        .aggregate(Sum("n_part", alias_name="n"))
        # materialize ONCE (see exact_quantiles, incl. the documented
        # guard-violation spill trade-off): guard + collect share a
        # single execution of the combiner+groupby
        .materialize()
    )
    n_rows = merged.count()  # distributed count BEFORE collecting
    if n_rows > max_distinct:
        raise ValueError(
            f"grouped_quantiles: {n_rows} (group, value) rows exceeds "
            f"max_distinct={max_distinct}; use a sketch for continuous "
            "columns"
        )
    t = merged.to_pandas()  # bounded by the guard above
    t = t.sort_values(["g", "value"], kind="mergesort").reset_index(drop=True)
    gv = t["g"].to_numpy()
    nv = t["n"].to_numpy()
    new = np.ones(len(t), dtype=bool)
    new[1:] = gv[1:] != gv[:-1]
    starts = np.flatnonzero(new)
    bounds = np.append(starts, len(t))
    out_g, out_q, out_v, out_n = [], [], [], []
    vals = t["value"].to_numpy()
    for a, b in zip(bounds[:-1], bounds[1:]):
        cum = nv[a:b].cumsum()
        n = int(cum[-1])
        ranks = np.ceil(
            np.asarray(qs, dtype=np.float64) * n
        ).astype(np.int64)
        idx = np.searchsorted(cum, ranks, side="left")
        out_g.extend([gv[a]] * len(qs))
        out_q.extend(qs)
        out_v.extend(vals[a + idx])
        out_n.extend([n] * len(qs))
    return pd.DataFrame(
        {
            "group": pd.Series(out_g),
            "q": pd.Series(out_q, dtype="float64"),
            "value": pd.Series(out_v).astype(t["value"].dtype),
            "n_rows": pd.Series(out_n, dtype="int64"),
        }
    )


def histogram_quantiles(ds, col: str, qs: list[float], *,
                        bins: int = 4096) -> pd.DataFrame:
    """Approximate quantiles for CONTINUOUS columns — the documented
    scale path the ``max_distinct`` guards point at.  Two cheap
    passes, both deterministic and parallelism-independent:

    1. global ``min``/``max`` (tiny aggregate);
    2. a fixed linear ``bins``-bucket histogram — per-batch
       ``floor((x - min) / width)`` + ``bincount`` combiner, then a
       ``groupby(bucket).sum`` that exchanges ≤ ``bins`` rows
       regardless of corpus size.

    The returned value is the bucket UPPER edge at rank
    ``ceil(q·n)`` — error bounded by one bucket width
    (``(max-min)/bins``).  Every arithmetic step is mirrorable in SQL
    (same two float64 ops per row), so unlike a randomized KLL/t-digest
    this sketch is ORACLE-CHECKABLE, not merely self-verified."""
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
    from ray.data.aggregate import Max, Min, Sum

    mm = ds.aggregate(Min(col), Max(col))
    mn = float(mm[f"min({col})"])
    mx = float(mm[f"max({col})"])
    if not (np.isfinite(mn) and np.isfinite(mx)):
        raise ValueError(f"histogram_quantiles: non-finite range in {col!r}")
    width = (mx - mn) / bins if mx > mn else 1.0

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        b = np.minimum(
            np.floor((v - mn) / width).astype(np.int64), bins - 1
        )
        counts = np.bincount(b, minlength=bins)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "bucket": pa.array(nz, type=pa.int64()),
                "n_part": pa.array(counts[nz], type=pa.int64()),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_part", alias_name="n"))
        .to_pandas()  # <= bins rows by construction
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    cum = merged["n"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        raise ValueError(f"histogram_quantiles: no rows in {col!r}")
    ranks = np.ceil(np.asarray(qs, dtype=np.float64) * n).astype(np.int64)
    idx = np.searchsorted(cum, ranks, side="left")
    bkt = merged["bucket"].to_numpy()[idx]
    vals = mn + width * (bkt + 1).astype(np.float64)
    return pd.DataFrame(
        {
            "q": pd.Series(qs, dtype="float64"),
            "value": pd.Series(np.round(vals, 9), dtype="float64"),
            "n_rows": pd.Series([n] * len(qs), dtype="int64"),
        }
    )
