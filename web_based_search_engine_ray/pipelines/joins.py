"""Time-series joins Ray Data lacks natively, expressed as bucketed
map_groups compositions.

:func:`asof_join` — the classic event-attribution join: for every left
row, the single right row with the greatest ``on`` value ≤ (backward)
or smallest ≥ (forward) the left's, matching on ``by``.  Semantics and
the vectorized per-group kernel follow ``pandas.merge_asof`` (the
public reference implementation); DuckDB's native ``ASOF JOIN`` is the
SQL oracle in ``registry.py``.

Scale shape: both sides are hash-bucketed on ``by`` (ONE shuffle each,
keyed by hash — uniform), unioned under a padded common schema so a
single ``groupby(bucket)`` co-locates each key's rows, and each group
runs one vectorized ``merge_asof``.  The partitioning assumption — all
rows of one ``by`` key fit one reducer — is the same as ``sessionize``
and is guarded by ``max_group_rows`` (raise ``num_buckets`` to thin
buckets; a single hot key needs time-sliced salting).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from web_based_search_engine_ray.util import check_group_budget, coalesce

_SIDE = "__aj_side"
_BUCKET = "__aj_bucket"
_RPREF = "__aj_r_"


def asof_join(left, right, *, on: str, by: str,
              direction: str = "backward",
              allow_exact_matches: bool = True,
              suffix: str = "_r",
              num_buckets: int = 64,
              max_group_rows: int | None = 8_000_000):
    """LEFT as-of join: every left row survives; right value columns
    (all but ``on``/``by``) are appended with ``suffix`` (null when no
    match).  ``on`` must be orderable (timestamp/numeric); ``by`` an
    integer key."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward: {direction}")
    lschema = left.schema()   # ray.data.Schema: .names + .types
    rschema = right.schema()
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    if on not in lcols or on not in rcols or by not in lcols or by not in rcols:
        raise ValueError(f"on={on!r} and by={by!r} must exist on both sides")
    rvals = [c for c in rcols if c not in (on, by)]
    clash = set(lcols) & {c + suffix for c in rvals}
    if clash:
        raise ValueError(f"suffixed right columns collide with left: {clash}")
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))

    def _pad(batch: pa.Table, side: int) -> pa.Table:
        n = len(batch)
        cols: dict[str, pa.Array | pa.ChunkedArray] = {}
        for c in lcols:
            cols[c] = batch[c] if side == 0 else pa.nulls(n, ltypes[c])
        for c in rcols:
            cols[_RPREF + c] = (
                batch[c] if side == 1 else pa.nulls(n, rtypes[c])
            )
        key = batch[by].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        cols[_SIDE] = pa.array(np.full(n, side, dtype=np.int8))
        cols[_BUCKET] = pa.array(key % num_buckets, type=pa.int64())
        return pa.table(cols)

    tagged = coalesce(
        left.map_batches(lambda b: _pad(b, 0), batch_format="pyarrow").union(
            right.map_batches(lambda b: _pad(b, 1), batch_format="pyarrow")
        )
    )

    def _join_group(group: pa.Table) -> pa.Table:
        check_group_budget(
            len(group), max_group_rows, stage="asof_join",
            key=int(group[_BUCKET][0].as_py()) if len(group) else None,
            hint="raise num_buckets (thins key buckets) or "
                 "max_group_rows; one hot key needs time-sliced salting",
        )
        side = group[_SIDE].to_numpy(zero_copy_only=False)
        lt = group.filter(pa.array(side == 0)).select(lcols).to_pandas()
        rt = (
            group.filter(pa.array(side == 1))
            .select([_RPREF + c for c in rcols])
            .rename_columns(rcols)
            .to_pandas()
        )
        lt = lt.sort_values([on, by], kind="stable").reset_index(drop=True)
        rt = (
            rt.sort_values([on, by], kind="stable")
            .reset_index(drop=True)
            # rename up front: pandas only applies suffixes to names
            # that collide, and the output contract is ALWAYS-suffixed
            .rename(columns={c: c + suffix for c in rvals})
        )
        merged = pd.merge_asof(
            lt, rt, on=on, by=by, direction=direction,
            allow_exact_matches=allow_exact_matches,
        )
        out = {}
        for c in lcols:
            out[c] = pa.Array.from_pandas(merged[c], type=ltypes[c])
        for c in rvals:
            out[c + suffix] = pa.Array.from_pandas(
                merged[c + suffix], type=rtypes[c]
            )
        return pa.table(out)

    return tagged.groupby(_BUCKET).map_groups(
        _join_group, batch_format="pyarrow"
    )


def broadcast_range_join(ds, ranges, *, on: str, suffix: str = "_r"):
    """LEFT range join against a SMALL interval table: each left row
    matches the interval with ``lo <= row[on] < hi``.  The interval
    table must be non-overlapping (validated here — overlap would make
    the match ambiguous); it is sorted once, ``ray.put`` ONCE, and
    every task does one vectorized ``searchsorted`` per batch — a
    broadcast join, NO shuffle (the correct plan whenever one side
    fits in memory, vs. an interval-keyed exchange).

    ``ranges``: pandas DataFrame with ``lo``/``hi`` plus value
    columns (appended with ``suffix``, null when no interval
    matches)."""
    import ray

    r = ranges.sort_values("lo").reset_index(drop=True)
    lo = r["lo"].to_numpy(dtype=np.float64)
    hi = r["hi"].to_numpy(dtype=np.float64)
    if (hi < lo).any():
        raise ValueError("range table has hi < lo")
    if (lo[1:] < hi[:-1]).any():
        raise ValueError("range table has overlapping intervals")
    vcols = [c for c in r.columns if c not in ("lo", "hi")]
    vals = {c: r[c].to_numpy() for c in vcols}
    ref = ray.put((lo, hi, vals))

    def join(batch: pa.Table) -> pa.Table:
        blo, bhi, bvals = ray.get(ref)
        v = batch[on].to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        idx = np.searchsorted(blo, v, side="right") - 1
        idx_c = np.clip(idx, 0, len(blo) - 1)
        hit = (idx >= 0) & (v < bhi[idx_c])
        out = batch
        for c in vcols:
            col = pd.Series(bvals[c][idx_c]).where(hit, other=None)
            out = out.append_column(
                c + suffix, pa.Array.from_pandas(col)
            )
        return out

    return ds.map_batches(join, batch_format="pyarrow")
