"""Deterministic sampling / split operators for training-data exports.

A 100-TB training pipeline needs reproducible, cluster-independent
train/val/test assignment and down-sampling: the same doc must land in
the same split on every run, on any worker, at any parallelism — so
assignment is a pure function of a stable row key, never of
``random()`` or row order.

Mechanism: ``bucket = stable_hash63(f"{key}|{salt}") % 1_000_000``
(md5-derived, process-independent, SQL-mirrorable via DuckDB's
``md5()`` — the same technique the minhash/simhash oracles use), then
ratio thresholds on the bucket.  One md5 per row, same cost class as
document fingerprinting (per-row digest is unavoidable; everything
around it is a vectorized mask).

Changing ``salt`` re-deals every assignment; keeping it pins the split
across corpus growth (new docs join splits at the configured ratios,
existing docs never move — the property training reproducibility
needs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_based_search_engine_ray.functions.hashing import stable_hash63

#: bucket space for ratio thresholds — 1e6 gives ppm-resolution ratios
SPLIT_BUCKETS = 1_000_000


def split_buckets(keys, salt: str) -> np.ndarray:
    """int64 buckets in ``[0, SPLIT_BUCKETS)`` per key (any scalar
    sequence; keys are stringified so int64 and string keys agree with
    the SQL mirror ``md5(CAST(k AS VARCHAR) || '|' || salt)``)."""
    return np.fromiter(
        (
            stable_hash63(f"{k}|{salt}") % SPLIT_BUCKETS
            for k in keys
        ),
        dtype=np.int64,
        count=len(keys),
    )


def _thresholds(ratios: dict[str, float]) -> list[tuple[str, int, int]]:
    """(name, lo, hi) bucket ranges; ratios must sum to 1 (±1e-9).
    Boundaries are integer-rounded cumulative sums so the SQL mirror
    can inline the exact same constants."""
    total = sum(ratios.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {total}")
    out, cum = [], 0.0
    lo = 0
    for name, frac in ratios.items():
        cum += frac
        hi = SPLIT_BUCKETS if abs(cum - 1.0) < 1e-12 else round(
            cum * SPLIT_BUCKETS
        )
        out.append((name, lo, hi))
        lo = hi
    return out


def assign_split(ds, ratios: dict[str, float], *, salt: str = "v1"):
    """Add a ``split`` column (dict-ordered ratio names, dealt on the
    ``doc_id`` hash) — one streaming ``map_batches``, no shuffle, no
    driver state."""
    th = _thresholds(ratios)

    def tag(batch: pa.Table) -> pa.Table:
        b = split_buckets(batch["doc_id"].to_pylist(), salt)
        split = np.empty(len(b), dtype=object)
        for name, lo, hi in th:
            split[(b >= lo) & (b < hi)] = name
        return batch.append_column(
            "split", pa.array(split, type=pa.string())
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def sample_fraction(ds, frac: float, *, salt: str = "v1",
                    mark: str | None = None):
    """Deterministic ``frac`` down-sample (gated on the ``doc_id``
    hash, reproducible across runs/parallelism — unlike
    ``Dataset.random_sample``).
    With ``mark=<col>`` the gate is APPENDED as a bool column instead
    of filtering — same predicate, audit/suite-friendly output."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError(f"frac must be in [0, 1], got {frac}")
    cut = round(frac * SPLIT_BUCKETS)

    def keep(batch: pa.Table) -> pa.Table:
        b = split_buckets(batch["doc_id"].to_pylist(), salt)
        gate = pa.array(b < cut)
        if mark is not None:
            return batch.append_column(mark, gate)
        return batch.filter(gate)

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds, fractions: dict[str, float], *,
                      strata_col: str, salt: str = "v1",
                      default: float = 0.0,
                      mark: str | None = None):
    """Per-stratum deterministic down-sample: keep each row iff its
    ``doc_id`` hash bucket clears its stratum's fraction (strata absent
    from ``fractions`` use ``default``).  Same hash-gate guarantees as
    :func:`sample_fraction` — reproducible across runs and
    parallelism, nested across fractions — applied per class, the
    rebalancing primitive a training-mix pipeline needs (e.g. keep 10%
    of English, 100% of low-resource languages).  One streaming
    ``map_batches``; the fraction table is a plain broadcast-by-closure
    dict (strata counts are human-scale)."""
    for name, frac in fractions.items():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(
                f"fraction for stratum {name!r} must be in [0, 1], "
                f"got {frac}"
            )
    if not 0.0 <= default <= 1.0:
        raise ValueError(f"default must be in [0, 1], got {default}")
    cuts = {
        name: round(frac * SPLIT_BUCKETS)
        for name, frac in fractions.items()
    }
    default_cut = round(default * SPLIT_BUCKETS)

    def keep(batch: pa.Table) -> pa.Table:
        b = split_buckets(batch["doc_id"].to_pylist(), salt)
        strata = batch[strata_col].to_pylist()
        cut = np.fromiter(
            (cuts.get(s, default_cut) for s in strata),
            dtype=np.int64,
            count=len(strata),
        )
        gate = pa.array(b < cut)
        if mark is not None:
            return batch.append_column(mark, gate)
        return batch.filter(gate)

    return ds.map_batches(keep, batch_format="pyarrow")


def sql_bucket_expr(key_sql: str, salt: str) -> str:
    """The DuckDB expression computing the SAME bucket as
    ``split_buckets`` — oracle-mirror helper (md5 hex prefix →
    UBIGINT, masked to 63 bits, mod SPLIT_BUCKETS)."""
    return (
        "CAST(CAST(concat('0x', substr(md5(CAST("
        + key_sql
        + f" AS VARCHAR) || '|{salt}'), 1, 16)) AS UBIGINT)"
        f" % 9223372036854775808 % {SPLIT_BUCKETS} AS BIGINT)"
    )
