"""Memory-pressure + kill-resume evidence for the 100×-scale claim.

Runs the full index build with an object store DELIBERATELY sized far
below the working set (input repeat-expanded so extracted + segment
runs exceed the plasma budget several times over), in three phases,
each its own process-isolated Ray session:

1. ``clean``  — one uninterrupted build under pressure.  Must stream
   to completion (Ray Data spills blocks to disk instead of OOMing);
   the probe records the raylet's spill counters.
2. ``killed`` — the same build in a subprocess that is SIGKILLed as
   soon as ``<out>/extracted.manifest.json`` appears (the start of the
   segments stage), then resumed (``resume=True``, same
   ``input_key``).  The resumed run must skip extracted, rebuild the
   stages after it, and finish.  A build that exits before the
   manifest appears, or a resume that rebuilds no stage, tested no
   resume: the probe reports ``"kill_missed": true`` and exits
   non-zero.
3. ``compare`` — lexicon + docstats + the extracted page columns of
   both indexes must be value-identical (bit-identical norms), proving
   pressure + crash + resume changes nothing.

Prints ONE JSON line; record the result in BASELINE.md.

Usage: ``python tools/spill_probe.py [--repeat 32] [--store-mb 256]``
(run from /root/repo; scratch under /tmp/spill_probe).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

SCRATCH = "/tmp/spill_probe"
#: the killed build is SIGKILLed once this stage's manifest exists
KILL_AT_STAGE = "extracted"

BUILD_SNIPPET = r"""
import sys, time
import ray

repeat = int(sys.argv[1])
out_dir = sys.argv[2]
store_mb = int(sys.argv[3])

ray.init(
    address="local",
    num_cpus=16,
    include_dashboard=False,
    object_store_memory=store_mb * 1024 * 1024,
    logging_level="ERROR",
)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from web_based_search_engine_ray.config import IndexConfig
from web_based_search_engine_ray.pipelines.build_index import build_index
from web_based_search_engine_ray.sources.webcorpus import synth_corpus_cached

cfg = IndexConfig(
    doc_shards=16,
    num_buckets=8,
)
t0 = time.perf_counter()
report = build_index(
    lambda: synth_corpus_cached("/root/testdata/sf0.1", repeat=repeat),
    out_dir,
    cfg,
    input_key=f"spill-{repeat}",
    resume=True,
)
wall = time.perf_counter() - t0

print("BUILD_OK", report["n_docs"], round(wall, 2),
      sum(not st["skipped"] for st in report["stages"]))
# spill counters from the raylet log (grpc-free; memory_summary needs
# the grpc wheel, absent here)
import os, re
session = ray._private.worker._global_node.get_session_dir_path()
raylet = os.path.join(session, "logs", "raylet.out")
spilled_mib = spilled_objs = restored_mib = 0
try:
    with open(raylet, errors="replace") as f:
        for line in f:
            m = re.search(r"Spilled (\d+) MiB, (\d+) objects", line)
            if m:
                spilled_mib = max(spilled_mib, int(m.group(1)))
                spilled_objs = max(spilled_objs, int(m.group(2)))
            m = re.search(r"Restored (\d+) MiB", line)
            if m:
                restored_mib = max(restored_mib, int(m.group(1)))
except OSError:
    pass
print(f"Spilled {spilled_mib} MiB, {spilled_objs} objects")
print(f"Restored {restored_mib} MiB, 0 objects")
ray.shutdown()
"""


def _run_build(repeat: int, out_dir: str, store_mb: int,
               kill: bool = False) -> dict:
    proc = subprocess.Popen(
        [sys.executable, "-c", BUILD_SNIPPET, str(repeat), out_dir,
         str(store_mb)],
        cwd="/root/repo",
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,  # so we can SIGKILL the whole tree
    )
    if kill:
        manifest = os.path.join(out_dir, f"{KILL_AT_STAGE}.manifest.json")
        t0 = time.perf_counter()
        while not os.path.exists(manifest):
            if proc.poll() is not None:  # ended before the stage did
                return {"killed": False}
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"killed": True,
                "kill_sec": round(time.perf_counter() - t0, 2)}
    out, _ = proc.communicate(timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"build failed (rc={proc.returncode}):\n{out}")
    m = re.search(r"BUILD_OK (\d+) ([0-9.]+) (\d+)", out)
    spilled = re.search(r"Spilled (\d+) MiB, (\d+) objects", out)
    restored = re.search(r"Restored (\d+) MiB, (\d+) objects", out)
    return {
        "n_docs": int(m.group(1)),
        "wall_sec": float(m.group(2)),
        "stages_built": int(m.group(3)),
        "spilled_mib": int(spilled.group(1)) if spilled else 0,
        "spilled_objects": int(spilled.group(2)) if spilled else 0,
        "restored_mib": int(restored.group(1)) if restored else 0,
    }


def _artifact_hash(idx_dir: str) -> dict:
    import hashlib

    import pyarrow.dataset as pads

    out = {}
    pages = ["doc_id", "url", "title", "page_size", "last_modified", "lang"]
    for stage, key, cols in (("lexicon", "term", None),
                             ("docstats", "doc_id", None),
                             ("extracted", "doc_id", pages)):
        t = (
            pads.dataset(os.path.join(idx_dir, stage), format="parquet",
                         partitioning="hive")
            .to_table(columns=cols)
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )
        t = t[sorted(t.columns)]
        out[stage] = hashlib.md5(
            t.to_csv(index=False, float_format="%.17g").encode()
        ).hexdigest()
        out[f"{stage}_rows"] = len(t)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=32)  # 160k docs
    ap.add_argument("--store-mb", type=int, default=256)
    args = ap.parse_args()

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    clean_dir = os.path.join(SCRATCH, "clean")
    resumed_dir = os.path.join(SCRATCH, "resumed")

    clean = _run_build(args.repeat, clean_dir, args.store_mb)

    kill = _run_build(args.repeat, resumed_dir, args.store_mb, kill=True)
    resumed = _run_build(args.repeat, resumed_dir, args.store_mb)
    kill_missed = not kill["killed"] or resumed["stages_built"] == 0

    ha = _artifact_hash(clean_dir)
    hb = _artifact_hash(resumed_dir)
    identical = all(ha[k] == hb[k] for k in ha)

    print(json.dumps({
        "metric": "build under object-store pressure + kill-resume",
        "repeat": args.repeat,
        "object_store_mb": args.store_mb,
        "clean": clean,
        "kill": kill | {"at_stage_end": KILL_AT_STAGE},
        "resumed_after_kill": resumed,
        "kill_missed": kill_missed,
        "artifacts_identical": identical,
        "artifact_hashes": ha,
    }))
    if not identical:
        print(json.dumps({"clean": ha, "resumed": hb}), file=sys.stderr)
    if kill_missed:
        print("kill missed: the build was not running at the kill, or "
              "the resume rebuilt no stage", file=sys.stderr)
    if kill_missed or not identical:
        sys.exit(1)


if __name__ == "__main__":
    main()
