"""Per-stage lineage + metrics manifests enabling resume.

The reference has no checkpoints at all (one jdbm ``commit()`` at close,
``Indexer.java:299-303`` — a crash loses the run).  Here every pipeline
stage writes its output parquet into a stage directory and then a
manifest — a SIBLING ``<stage>.manifest.json`` file next to (never
inside) the stage dir, so parquet readers over the dir never see it —
recording the input fingerprint, row count, output files
(per-partition lineage), wall time and config key.  A re-run with
``resume=True`` skips stages whose manifest matches the fingerprint;
incomplete stage directories (no manifest) are wiped and rebuilt, so
output is written atomically at stage granularity.
"""

from __future__ import annotations

import json
import os
import time

from web_based_search_engine_ray.state import fsio
from dataclasses import dataclass, field

@dataclass
class StageResult:
    name: str
    path: str
    rows: int
    wall_sec: float
    skipped: bool
    extra: dict = field(default_factory=dict)


def _manifest_path(stage_dir: str) -> str:
    # Sibling file (NOT inside the directory) so parquet readers over the
    # stage dir never see it.
    return stage_dir.rstrip("/") + ".manifest.json"


def load_manifest(stage_dir: str, *, manifest_path: str | None = None) -> dict | None:
    p = manifest_path or _manifest_path(stage_dir)
    if not fsio.exists(p):
        return None
    try:
        return fsio.read_json(p)
    except (json.JSONDecodeError, OSError):
        return None


def is_complete(stage_dir: str, fingerprint: str) -> bool:
    if not fsio.isdir(stage_dir):
        return False
    m = load_manifest(stage_dir)
    return m is not None and m.get("fingerprint") == fingerprint


def partition_files(stage_dir: str) -> list[dict]:
    """Per-partition lineage: every parquet part file with its size."""
    out = []
    base = stage_dir.rstrip("/") + "/"
    for full in fsio.walk_files(stage_dir):
        if full.endswith(".parquet"):
            out.append(
                {
                    "file": full[len(base):] if full.startswith(base)
                    else full.rsplit("/", 1)[-1],
                    "bytes": fsio.getsize(full),
                }
            )
    return out


def run_stage(
    stage_dir: str,
    fingerprint: str,
    build_fn,
    *,
    resume: bool = True,
    extra_metrics: dict | None = None,
) -> StageResult:
    """Run ``build_fn(stage_dir)`` (which must write parquet into
    ``stage_dir`` and return a row count) unless a matching manifest
    already marks the stage complete."""
    name = os.path.basename(stage_dir.rstrip("/"))
    mp = _manifest_path(stage_dir)
    if resume and is_complete(stage_dir, fingerprint):
        m = load_manifest(stage_dir)
        return StageResult(name, stage_dir, m.get("rows", -1), 0.0, True, m)
    if fsio.exists(stage_dir):
        fsio.rmtree(stage_dir)
    if fsio.exists(mp):
        fsio.remove(mp)
    fsio.makedirs(stage_dir)
    t0 = time.perf_counter()
    rows = build_fn(stage_dir)
    wall = time.perf_counter() - t0
    manifest = write_manifest(stage_dir, fingerprint, rows, wall_sec=wall,
                              extra=extra_metrics)
    return StageResult(name, stage_dir, int(rows), wall, False, manifest)


def write_manifest(
    stage_dir: str,
    fingerprint: str,
    rows: int,
    *,
    wall_sec: float = 0.0,
    extra: dict | None = None,
) -> dict:
    """Mark a stage directory complete and return its manifest (used by
    :func:`run_stage`, ``update_index``'s extracted/ rewrite, and the
    per-shard stages of ``build_index``)."""
    manifest = {
        "stage": os.path.basename(stage_dir.rstrip("/")),
        "fingerprint": fingerprint,
        "rows": int(rows),
        "wall_sec": round(wall_sec, 4),
        "partitions": partition_files(stage_dir),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        manifest.update(extra)
    fsio.write_json(_manifest_path(stage_dir), manifest)
    return manifest

