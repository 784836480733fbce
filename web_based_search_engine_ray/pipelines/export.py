"""Training-data export sink: partitioned, resumable, deterministic.

A 100-TB cleaning pipeline ends by WRITING the kept corpus for the
trainer, and the write has the same scale constraints as the reads:

- **Partitioned output** — one hive directory per partition value
  (split / lang / shard), so a failed export re-runs only missing
  partitions and the trainer prunes at the directory level.
- **Never one giant file** — Ray's streaming write emits one file per
  output block; ``min_rows_per_file`` bounds tiny-file explosion.
- **Deterministic layout** — re-exporting the same dataset yields the
  same partition directories (file contents are block-order dependent;
  the MANIFEST captures exact row counts per partition for
  verification and resume decisions).

Formats: ``parquet`` (native ``write_parquet(partition_cols=...)``)
and ``jsonl`` (the common trainer interchange; Ray's ``write_json``
emits newline-delimited JSON but has no partition support, so
partitioned JSONL fans out one ``write_json`` per partition over a
FILTERED VIEW of the lazy dataset — each partition streams
independently; with hash-gated partition values this re-reads the
source once per partition, so prefer parquet for many-partition
exports, documented below).

``export_dataset`` returns a manifest dict (also written as
``_MANIFEST.json``) with per-partition row counts.
"""

from __future__ import annotations

import json
import os

import numpy as np

_FORMATS = ("parquet", "jsonl")
#: ``min_rows_per_file`` of every export write
MIN_ROWS_PER_FILE = 10_000


def export_dataset(ds, out_dir: str, *, fmt: str = "parquet",
                   partition_col: str | None = None) -> dict:
    """Write ``ds`` under ``out_dir`` partitioned by ``partition_col``
    (hive layout ``<col>=<value>/``); returns the manifest."""
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be one of {_FORMATS}, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {"format": fmt, "partition_col": partition_col,
                      "partitions": {}}
    if partition_col is None:
        n = _write_one(ds, out_dir, fmt)
        manifest["partitions"]["_all"] = n
    elif fmt == "parquet":
        # native partitioned write: one pass, every partition in parallel
        ds = ds.materialize()
        counts = (
            ds.groupby(partition_col).count().to_pandas()
        )
        ds.write_parquet(
            out_dir,
            partition_cols=[partition_col],
            min_rows_per_file=MIN_ROWS_PER_FILE,
        )
        cnt_col = next(c for c in counts.columns if c != partition_col)
        for _, row in counts.iterrows():
            manifest["partitions"][str(row[partition_col])] = int(
                row[cnt_col]
            )
    else:
        # jsonl: no native partition_cols — fan out one filtered
        # streaming write per partition value.  The source is
        # materialized once so the per-partition passes scan the object
        # store, not the original storage.  Suited to few-valued
        # partitions (split names, languages); use parquet for
        # high-cardinality partitioning.
        ds = ds.materialize()
        values = ds.unique(partition_col)
        for v in sorted(values, key=str):
            # typed literal: quote strings, pass ints/floats/bools
            # through — a quoted literal against an int column would
            # compare the wrong type (error or silently empty
            # partitions)
            if isinstance(v, str):
                lit = json.dumps(v)
            elif isinstance(v, (bool, np.bool_)):
                lit = str(bool(v))
            elif isinstance(v, (int, float, np.integer, np.floating)):
                fv = v.item() if hasattr(v, "item") else v
                if isinstance(fv, float) and not np.isfinite(fv):
                    raise TypeError(
                        f"non-finite float partition value {fv!r} "
                        f"cannot be rendered as a filter literal "
                        f"(NaN != NaN would silently drop its rows)"
                    )
                lit = repr(fv)
            else:
                raise TypeError(
                    f"unsupported partition value type for JSONL "
                    f"export: {type(v).__name__}={v!r} (use parquet "
                    f"for non-scalar partition columns)"
                )
            part = ds.filter(expr=f"{partition_col} == {lit}")
            pdir = os.path.join(out_dir, f"{partition_col}={v}")
            n = _write_one(part, pdir, fmt)
            manifest["partitions"][str(v)] = n
    manifest["total_rows"] = sum(manifest["partitions"].values())
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def _write_one(ds, path: str, fmt: str) -> int:
    os.makedirs(path, exist_ok=True)
    ds = ds.materialize()  # count + write from the same snapshot
    n = ds.count()
    if fmt == "parquet":
        ds.write_parquet(path, min_rows_per_file=MIN_ROWS_PER_FILE)
    else:
        ds.write_json(path, min_rows_per_file=MIN_ROWS_PER_FILE)
    return n

