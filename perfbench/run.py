"""raysearch benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload zipf-query --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Prints a detail record (sizes,
sample counts, host load, failures) and, as the last line of stdout, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from a traced run whose spans are also written to
``.perfbench_traces/<workload>-seed<seed>.json``.  End-to-end times are
steal-adjusted (see ``host.py``); per-layer span times are raw walls,
with the steal share of each phase reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.host import Window  # noqa: E402

#: setup_s counts from here: process start, before the heavy imports
PROCESS = Window()
PACKAGE = "web_based_search_engine_ray"
#: a run must end well inside the 180 s a caller allows it
RUN_LIMIT_S = 170
#: Ray's AF_UNIX socket paths (``<temp>/session_<date>_<pid>/sockets/
#: plasma_store``) must stay under 108 bytes
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_1234567"
                        "/sockets/plasma_store")


def layer_unit(name: str) -> str:
    if name.startswith("host.loadavg"):
        return "load"
    if name.startswith("host.steal_frac"):
        return "fraction"
    if name.startswith("index.bytes.") or name in (
            "search.cache_bytes", "update.bytes_rewritten"):
        return "B"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name in ("search.decode_ratio", "search.candidates_per_result",
                "update.write_amp"):
        return "ratio"
    return "count"


def host_record(seed: int, ray_cpus: int) -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True,
                                   text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {
        "seed": seed,
        "ray_cpus": ray_cpus,
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("zipf-query", "flat-update"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: {ROOT} holds no {PACKAGE} package to measure",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"))
    ray_tmp = os.path.join(work, "ray")
    if len(ray_tmp) + RAY_SOCKET_SUFFIX > 107:
        # checkout path too deep for Ray's socket files
        ray_tmp = tempfile.mkdtemp(prefix="pbray")
    # kernel caches and other temp files stay in the run's work dir;
    # Ray workers inherit the environment and import the checkout
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["PERFBENCH_RAY_TMP"] = ray_tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        from perfbench.workload import RAY_CPUS, WORKLOADS, Run

        host = host_record(args.seed, RAY_CPUS)
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work, PROCESS)
        t0 = time.perf_counter()
        out = run.execute()
        wall = time.perf_counter() - t0
        if args.trace:
            tdir = os.path.join(ROOT, ".perfbench_traces")
            os.makedirs(tdir, exist_ok=True)
            run.tracer.dump(
                os.path.join(tdir, f"{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "host": host,
                 "layer": out["layer"]},
            )
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    if args.trace:
        metrics = dict(out["layer"])
        for k, v in out["loadavg_1m"].items():
            metrics[f"host.loadavg_1m.{k}"] = v
        for k, v in out["steal_frac"].items():
            metrics[f"host.steal_frac.{k}"] = v
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(metrics.items())}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in out["e2e"].items()}
    detail = {
        "workload": args.workload, "trace": args.trace, "wall_s": wall,
        "host": host, "loadavg_1m": out["loadavg_1m"],
        "steal_frac": out["steal_frac"], "sizes": out["sizes"],
        "samples": out["samples"], "phase_walls_s": out["phase_walls_s"],
        "timeline_s": out["timeline_s"],
        "score_ulp_diffs": out["score_ulp_diffs"],
        "failures": out["failures"],
    }
    if not args.trace:
        detail["metrics"] = {k: f"{v['value']:.6g} {v['unit']} "
                                f"(n={out['samples'][k]})"
                             for k, v in metrics.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
