"""Checks on the benchmark itself (not part of the engine's test suite).

    python3 -m pytest perfbench/test_repeatability.py -q

Makes two traced runs of each workload with one seed (a few minutes) and
checks that the exact counts repeat, that the traced layers account for
each phase's wall, that the WAND routing differs between the workloads
as designed, and that ``BENCHMARK.json`` names what the runs print.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
#: counts that must not depend on timing or on the run
EXACT_PREFIXES = ("index.", "search.runs_", "search.queries_wand",
                  "update.bytes_rewritten", "update.fresh_docs",
                  "update.removed_docs", "update.affected_shards")


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced():
    out = {}
    for wl in ("zipf-query", "flat-update"):
        runs = []
        for _ in range(2):
            p = _run(ROOT, "--workload", wl, "--seed", str(SEED),
                     "--seconds", "3", "--trace", "1")
            assert p.returncode == 0, p.stderr[-2000:]
            runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
        out[wl] = runs
    return out


def _values(run: dict) -> dict:
    return {k: v["value"] for k, v in run["metrics"].items()}


@pytest.mark.parametrize("wl", ["zipf-query", "flat-update"])
def test_exact_counts_repeat(traced, wl):
    a, b = (_values(r) for r in traced[wl])
    exact = sorted(k for k in a if k.startswith(EXACT_PREFIXES))
    assert len(exact) >= 14
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}


@pytest.mark.parametrize("wl", ["zipf-query", "flat-update"])
def test_runs_are_correct_and_layers_cover_phases(traced, wl):
    for run in traced[wl]:
        assert run["correct"] and run["failed"] == 0
        for k, v in _values(run).items():
            if k.startswith("trace.") and k.endswith(".self_sum_frac"):
                assert 0.9 <= v <= 1.0 + 1e-9, (k, v)


def test_wand_routing_by_workload(traced):
    for run in traced["zipf-query"]:
        m = _values(run)
        share = m["search.queries_wand"] / (
            m["search.queries_wand"] + m["search.queries_taat"])
        assert share >= 0.25
    for run in traced["flat-update"]:
        assert _values(run)["search.queries_wand"] == 0


def test_benchmark_json_names_the_printed_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for runs in traced.values():
        printed = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        assert printed == layer


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(str(tmp_path), "--workload", "zipf-query", "--seed", "1",
             "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
