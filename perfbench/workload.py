"""One benchmark run: set up, update, batch, serve, check, report.

Both workloads run the same phases over their own seeded inputs:

1. build: ``build_index`` into a fresh directory.
2. update: ``update_index(remove_missing=True)`` with the workload's
   seeded delta snapshot.
3. up: the serving components -- a ``ShardedSearcher`` with
   ``DOC_SHARDS`` shard actors and a ``pipelines.server`` HTTP server --
   up and answering a first query, ``UP_REPEATS`` times (once when
   traced).  A setup is process start to Ray up, plus the build, plus
   one bring-up; ``setup_s`` is the median over the bring-ups.
4. batch: back-to-back ``ShardedSearcher.batch_search`` calls (k=10,
   ``auto`` traversal) after an untimed warm-up batch.
5. serve: one client, closed loop, one request at a time:
   ``GET /result`` on the HTTP server (hydrated, server default k=50).
6. checks: sampled batch results against the same shard searchers run
   in-process and against exhaustive TAAT over the whole index, every
   HTTP reply against the expected urls, and the update's
   marker/removal invariants.

Reported times are steal-adjusted (see ``host``).

The traced run (``trace=True``) runs the same phases with spans around
the engine calls (``tracing.Tracer``) and replays the build kernels and
the shard searches in-process to attribute time to layers.  It reports
per-layer metrics only; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import http.client
import os
import re
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable
from urllib.parse import urlencode

import numpy as np

from perfbench import inputs
from perfbench.host import (
    Window,
    du,
    loadavg_1m,
    peak_rss_mb,
    pids_with_title,
    steal_factor,
)
from perfbench.tracing import Tracer

#: Ray CPUs: the load is one process with one client thread, the count
#: ``nproc`` reports on the reference host
RAY_CPUS = 1
#: >= 2 so the scatter / broker-merge path runs; shard actors together
#: reserve no more than the Ray CPUs, or some would stay pending
DOC_SHARDS = 2
NUM_BUCKETS = 8
#: times the serving components are brought up (and closed again) over
#: the built index in an untraced run; setup_s is the median
UP_REPEATS = 3
#: share of --seconds spent in the batch phase; the rest is serve
BATCH_SHARE = 1 / 3
#: the serve phase runs until it has this many requests, so the p95 has
#: at least ten samples beyond it
MIN_SERVE_REQUESTS = 200
BATCH_K = 10
#: consecutive serve requests that share one steal adjustment
SERVE_CHUNK = 10
SERVE_WARM_REQUESTS = 8
TRACE_SERVE_REQUESTS = 64
#: batch queries compared against the TAAT reference per run
CHECK_SAMPLE = 32

SEARCHER_LAYERS = {
    "search": "search.search",
    "search_many": "search.search_many",
    "choose_traversal": "search.lexicon",
    "scores_arrays": "search.taat",
    "scores_topk_wand": "search.wand",
    "phrase_doc_array": "search.phrase",
    "postings": "search.decode",
    "postings_with_positions": "search.decode",
    # the MaxScore run-restricted decode (block-max skip path)
    "_partial_for_candidates": "search.decode",
    "hydrate": "search.hydrate",
}
BUILD_STAGES = ("extracted", "docmeta", "edges", "segments", "forward",
                "lexicon", "docstats")
UPDATE_STAGES = BUILD_STAGES[1:]


@dataclass(frozen=True)
class Workload:
    name: str
    make_corpus: Callable  # (seed, rng, work) -> documents dir
    make_queries: Callable  # (rng, docs, n) -> list[str]
    modified_frac: float
    removed_frac: float
    #: doc shards the delta touches
    delta_shards: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zipf-query", lambda seed, rng, work: inputs.zipf_corpus(
            seed, work), inputs.zipf_queries, 0.005, 0.001, (1,)),
        Workload("flat-update", lambda seed, rng, work: inputs.flat_corpus(
            rng, work), inputs.flat_queries, 0.01, 0.002,
            tuple(range(DOC_SHARDS))),
    )
}


def parquet_files(path: str) -> dict[str, tuple]:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(d, f)
                st = os.stat(p)
                out[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


_RESULT_URL = re.compile(r'<li>\n<h3>[^<]*<a href="([^"]*)"')


class Serving:
    """The serving components over one index: shard actors + HTTP server."""

    def __init__(self, index_dir: str):
        from web_based_search_engine_ray.pipelines.search import (
            ShardedSearcher,
        )
        from web_based_search_engine_ray.pipelines.server import make_server

        self.sharded = ShardedSearcher(
            index_dir, num_cpus_per_shard=RAY_CPUS / DOC_SHARDS
        )
        self.server = make_server(index_dir)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def server_searcher(self):
        return self.server.RequestHandlerClass.searcher

    def batch(self, queries: list[str]):
        return self.sharded.batch_search(queries, k=BATCH_K)

    def get(self, query: str) -> tuple[int, str]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_port, timeout=60
        )
        try:
            conn.request("GET", "/result?" + urlencode({"search": query}))
            resp = conn.getresponse()
            return resp.status, resp.read().decode("utf-8")
        finally:
            conn.close()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)
        self.sharded.shutdown()


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, work: str, process: Window):
        self.wl = workload
        #: opened at process start: setup time counts from there
        self.process = process
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer() if trace else None
        self.loadavg: dict[str, float] = {}
        self.phase_walls: Counter = Counter()
        self.phase_busy: Counter = Counter()
        self.phase_steal: Counter = Counter()
        #: wall seconds between consecutive milestones of the run
        self.timeline: dict[str, float] = {}
        self._last_mark = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        #: sampled queries whose scores differ from exhaustive TAAT in
        #: the last bits only (same ranks, relative error <= 1e-12)
        self.ulp_diffs = 0
        self.failures: list[str] = []
        self.layer: dict[str, float] = {}

    # ------------------------------------------------------------ helpers
    def _span(self, name: str, **kw):
        return self.tracer.span(name, **kw) if self.trace else nullcontext()

    def _mark(self, label: str) -> None:
        now = time.perf_counter()
        self.timeline[label] = now - self._last_mark
        self._last_mark = now

    def _fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    @contextmanager
    def _phase(self, name: str):
        """A timed phase: a root span when traced, the load average before
        and after, and its wall, busy and steal seconds.  ``timing["s"]``
        is the steal-adjusted duration (``host`` module)."""
        self.loadavg[f"{name}.before"] = loadavg_1m()
        timing = {}
        window = Window()
        with self._span(f"phase.{name}"):
            yield timing
        wall, busy, steal = window.read()
        timing["wall"] = wall
        timing["s"] = wall * steal_factor(busy, steal)
        self.phase_walls[name] += wall
        self.phase_busy[name] += busy
        self.phase_steal[name] += steal
        self.loadavg[f"{name}.after"] = loadavg_1m()

    def _report_spans(self, parent, prefix: str, stages: list[dict],
                      names) -> None:
        """Child spans of ``parent`` laid end to end from a report's
        ``stages[]`` walls (the stages run one after another)."""
        t = parent["start"]
        for st in stages:
            if st["name"] in names and st["wall_sec"] > 0:
                self.tracer.add(f"{prefix}.{st['name']}", t,
                                t + st["wall_sec"], parent)
                t += st["wall_sec"]

    def _covered(self, root: dict, unattributed=()) -> float:
        """Share of a phase's wall that the layer spans under it account
        for: the phase span's own self time, and that of spans named in
        ``unattributed``, is time no layer claims."""
        st = self.tracer.self_times(root)
        dur = root["end"] - root["start"]
        lost = sum(st.get(n, (0.0, 0))[0]
                   for n in (root["name"], *unattributed))
        return (dur - lost) / dur

    def _root(self, name: str) -> dict:
        return [s for s in self.tracer.spans if s["name"] == name][-1]

    # --------------------------------------------------------------- run
    def execute(self) -> dict:
        import ray

        wl, rng = self.wl, np.random.default_rng(self.seed)
        ddir = wl.make_corpus(self.seed, rng, self.work)
        docs = inputs.read_documents(ddir)
        queries = wl.make_queries(rng, docs, inputs.BATCH_QUERIES)
        serve_queries = wl.make_queries(rng, docs, inputs.SERVE_QUERIES)
        snapshot = os.path.join(self.work, "snapshot", "part-0.parquet")
        delta = inputs.delta_snapshot(
            docs, rng, snapshot, modified_frac=wl.modified_frac,
            removed_frac=wl.removed_frac, n_shards=DOC_SHARDS,
            shards=wl.delta_shards,
        )
        check_ids = sorted(rng.choice(len(queries), CHECK_SAMPLE,
                                      replace=False).tolist())
        self._mark("inputs")
        inputs_s = self.timeline["inputs"]

        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * 1024 * 1024,
                 _temp_dir=os.environ["PERFBENCH_RAY_TMP"])
        try:
            from ray.data import DataContext

            DataContext.get_current().enable_progress_bars = False
            # process start -> Ray up, less the benchmark's own input
            # generation
            wall, busy, steal = self.process.read()
            startup_s = (wall - inputs_s) * steal_factor(busy, steal)
            self._mark("ray_start")
            return self._execute(ddir, docs, queries, serve_queries,
                                 snapshot, delta, check_ids, startup_s)
        finally:
            ray.shutdown()
            self._mark("ray_shutdown")

    def _execute(self, ddir, docs, queries, serve_queries, snapshot, delta,
                 check_ids, startup_s) -> dict:
        import ray.data as rd

        from web_based_search_engine_ray.config import IndexConfig
        from web_based_search_engine_ray.pipelines.build_index import (
            build_index,
        )
        from web_based_search_engine_ray.pipelines.update_index import (
            update_index,
        )
        from web_based_search_engine_ray.pipelines.search import parse_query
        from web_based_search_engine_ray.sources.webcorpus import (
            default_parallelism,
            synth_corpus,
        )

        wl = self.wl
        cfg = IndexConfig(doc_shards=DOC_SHARDS, num_buckets=NUM_BUCKETS)
        idx = os.path.join(self.work, "index")
        with self._phase("build") as ph, \
                self._span("build_index") as build_span:
            report = build_index(
                lambda: synth_corpus(ddir), idx, cfg,
                input_key=f"{wl.name}-{self.seed}", resume=False,
            )
        build_s = ph["s"]
        if self.trace:
            self._build_layers(build_span, report)
            self._stages_replay(docs, cfg, report)
            before = parquet_files(idx)
        # the update runs between the build and the serving components;
        # it is timed on its own, outside the setup time
        with self._phase("update") as ph, \
                self._span("update_index") as update_span:
            upd = update_index(
                lambda: rd.read_parquet(
                    snapshot, override_num_blocks=default_parallelism()
                ),
                idx, cfg, input_key=f"{wl.name}-{self.seed}-delta",
                remove_missing=True,
            )
        update_s = ph["s"]
        self.attempted += 1
        if self.trace:
            self._update_layers(update_span, upd, before, idx, delta)
        setup_s = []
        for i in range(1 if self.trace else UP_REPEATS):
            if i:
                serving.close()
            serving = self._serving_up(idx, queries, serve_queries, setup_s,
                                       startup_s + build_s)
        n_docs = report["n_docs"]
        self._mark("setups")

        try:
            # untimed warm-up: the batch once; the server's decode caches
            # through its searcher (no request is in flight), then a few
            # requests over HTTP
            serving.batch(queries)
            for q in serve_queries:
                serving.server_searcher.search(*parse_query(q),
                                               hydrate=False)
            for q in serve_queries[:SERVE_WARM_REQUESTS]:
                serving.get(q)
            self._mark("warm_up")
            batch_res, batch_qps, batch_walls = self._batch(serving, queries)
            if self.trace:
                self._search_replay(idx, queries, batch_walls,
                                    serving.sharded.shard_actors())
            replies, lat = self._serve(serving, serve_queries)
            query_rss_mb = peak_rss_mb([os.getpid()]
                                       + pids_with_title(b"ray::Searcher"))
            self._mark("measure")
        finally:
            serving.close()
            self._mark("serving_close")

        self._check(idx, queries, check_ids, batch_res, replies,
                    upd["update"], delta)
        self._mark("check")
        n_live = upd["n_docs"]
        idx_bytes = du(idx)
        if self.trace:
            self._index_layout(idx, n_live)

        e2e = {
            "setup_s": (statistics.median(setup_s), "s"),
            "build_docs_per_s": (n_docs / build_s, "docs/s"),
            "index_bytes_per_doc": (idx_bytes / n_live, "B/doc"),
            "batch_qps": (batch_qps, "queries/s"),
            "serve_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "serve_p95_ms": (float(np.percentile(lat, 95)), "ms"),
            "update_s": (update_s, "s"),
            "query_rss_mb": (query_rss_mb, "MB"),
            "success_rate": (1 - self.failed / self.attempted, "fraction"),
        }
        samples = {
            "setup_s": len(setup_s), "build_docs_per_s": 1,
            "index_bytes_per_doc": 1,
            "batch_qps": len(batch_walls) * len(queries),
            "serve_p50_ms": len(lat), "serve_p95_ms": len(lat),
            "update_s": 1, "query_rss_mb": 1,
            "success_rate": self.attempted,
        }
        return {
            "e2e": e2e,
            "samples": samples,
            "layer": self.layer,
            "sizes": {"docs": int(docs.num_rows), "indexed_docs": n_docs,
                      "live_docs_after_update": n_live,
                      "batch_queries": len(queries),
                      "serve_queries": len(serve_queries),
                      "modified": len(delta["modified"]),
                      "removed": len(delta["removed"])},
            "loadavg_1m": self.loadavg,
            "phase_walls_s": dict(self.phase_walls),
            "steal_frac": {k: 1 - steal_factor(self.phase_busy[k], v)
                           for k, v in self.phase_steal.items()},
            "timeline_s": self.timeline,
            "score_ulp_diffs": self.ulp_diffs,
            "failures": self.failures,
        }

    # ------------------------------------------------------------ phases
    def _serving_up(self, idx, queries, serve_queries, setup_s,
                    before_s: float) -> Serving:
        """Serving components up and a first query answered; records the
        setup time (``before_s`` = process start to Ray up, plus build)."""
        with self._phase("up") as ph:
            serving = Serving(idx)
            serving.batch(queries[:2 * DOC_SHARDS])
            serving.get(serve_queries[0])
        setup_s.append(before_s + ph["s"])
        return serving

    def _batch(self, serving: Serving, queries):
        """Back-to-back batches for the phase budget; throughput is all
        queries over the summed steal-adjusted call walls."""
        budget = self.seconds * BATCH_SHARE
        walls, adjusted, res = [], [], None
        with self._phase("batch"):
            while not walls or sum(walls) < budget:
                window = Window()
                with self._span("sharded.batch_search"):
                    try:
                        res = serving.batch(queries)
                    except Exception as e:  # noqa: BLE001 -- counted
                        res = None
                        self._fail(f"batch_search raised {e!r}",
                                   len(queries))
                wall, busy, steal = window.read()
                walls.append(wall)
                adjusted.append(wall * steal_factor(busy, steal))
                self.attempted += len(queries)
        return res, len(walls) * len(queries) / sum(adjusted), walls

    def _serve(self, serving: Serving, serve_queries):
        """Closed loop, one request at a time.  Latencies are
        steal-adjusted per chunk of ``SERVE_CHUNK`` consecutive
        requests."""
        budget = self.seconds * (1 - BATCH_SHARE)
        # the traced run reports no latency
        min_requests = TRACE_SERVE_REQUESTS if self.trace else \
            MIN_SERVE_REQUESTS
        replies, lat, chunk = [], [], []
        if self.trace:
            self.tracer.wrap(serving.server_searcher, SEARCHER_LAYERS)
        with self._phase("serve"):
            t0 = time.perf_counter()
            window = Window()
            while (len(replies) < min_requests
                   or time.perf_counter() - t0 < budget):
                q = serve_queries[len(replies) % len(serve_queries)]
                t = time.perf_counter()
                with self._span("http.request",
                                request=f"r{len(replies)}") as sp:
                    if self.trace:
                        self.tracer.foreign_parent = sp
                    try:
                        status, body = serving.get(q)
                    except OSError as e:
                        status, body = None, repr(e)
                    if self.trace:
                        self.tracer.foreign_parent = None
                chunk.append((time.perf_counter() - t) * 1000)
                replies.append((q, status, body))
                if len(chunk) == SERVE_CHUNK:
                    lat += self._adjust(chunk, window)
            lat += self._adjust(chunk, window)
        self.attempted += len(replies)
        if self.trace:
            self._serve_layers()
        return replies, lat

    @staticmethod
    def _adjust(chunk: list[float], window: Window) -> list[float]:
        """Steal-adjust and empty ``chunk``; restart ``window``."""
        if not chunk:
            return []
        _, busy, steal = window.read()
        f = steal_factor(busy, steal)
        out = [x * f for x in chunk]
        chunk.clear()
        window.restart()
        return out

    # ------------------------------------------------------------ checks
    def _check(self, idx, queries, check_ids, batch_res, replies, update,
               delta) -> None:
        from web_based_search_engine_ray.pipelines.search import (
            Searcher,
            parse_query,
        )
        from web_based_search_engine_ray.sources.webcorpus import doc_url

        ref = Searcher(idx)
        ref_shards = [Searcher(idx, doc_shard=s) for s in range(DOC_SHARDS)]
        removed = set(delta["removed"].tolist())
        removed_urls = {doc_url(int(d)) for d in removed}

        # The sharded auto batch must equal, bit for bit, what the shard
        # searchers compute in-process (same call: ``search_many``), and
        # must rank exactly like exhaustive TAAT over the whole index
        # with scores equal to 1e-12 relative (the engine's sharding
        # contract, tests/test_sharded_search.py).  Scores that differ
        # from exhaustive TAAT in the last bits only are counted in
        # ``ulp_diffs``.
        if batch_res is not None:
            if set(batch_res["doc_id"].tolist()) & removed:
                self._fail("removed doc in batch results")
            by_q = {q: g.sort_values("rank")
                    for q, g in batch_res.groupby("query_id")}
            for qi in check_ids:
                q = queries[qi]
                got = by_q.get(qi)
                got = ((np.empty(0, np.int64), np.empty(0)) if got is None
                       else _ids_scores(got))
                local = _merge_topk([s.search_many([q], k=BATCH_K)
                                     for s in ref_shards])
                full = _ids_scores(ref.search(*parse_query(q), k=BATCH_K,
                                              hydrate=False,
                                              traversal="taat"))
                if not _same(got, local):
                    self._fail(f"batch != in-process shards for {q!r}")
                elif not _same(got, full, rtol=1e-12):
                    self._fail(f"batch != exhaustive TAAT for {q!r}")
                elif not _same(got, full):
                    self.ulp_diffs += 1

        # every HTTP reply: 200 with the expected urls, in order
        expected = {}
        for q, status, body in replies:
            if q not in expected:
                words, phrase = parse_query(q)
                want = ref.search(words, phrase, hydrate=False,
                                  traversal="taat")
                expected[q] = [doc_url(int(d)) for d in want["doc_id"]]
            urls = _RESULT_URL.findall(body) if status == 200 else None
            if urls != expected[q] or removed_urls & set(urls):
                self._fail(f"HTTP reply for {q!r}: status {status}, "
                           f"{'-' if urls is None else len(urls)} results, "
                           f"expected {len(expected[q])}")

        # the update: the delta's counts, and the marker finds exactly the
        # modified docs
        want = (len(delta["modified"]), len(delta["removed"]))
        marked = ref.search({inputs.MARKER}, [], k=want[0] + 100,
                            hydrate=False, traversal="taat")
        if ((update["fresh_docs"], update["removed_docs"]) != want
                or sorted(marked["doc_id"].tolist())
                != delta["modified"].tolist()):
            self._fail(f"update: fresh {update['fresh_docs']}, removed "
                       f"{update['removed_docs']}, marker hits "
                       f"{len(marked)}; expected {want}")

    # ------------------------------------------------------ traced layers
    def _build_layers(self, build_span: dict, report: dict) -> None:
        self._report_spans(build_span, "build_index", report["stages"],
                           BUILD_STAGES)
        for s in BUILD_STAGES:
            self.layer[f"build_index.{s}_s"] = _stage_wall(report, s)
        self.layer["trace.build.self_sum_frac"] = self._covered(
            self._root("phase.build"), unattributed=("build_index",))

    def _stages_replay(self, docs, cfg, report: dict) -> None:
        """The build's kernels replayed in-process over the same corpus,
        with the build's batch sizes."""
        import pyarrow as pa

        from web_based_search_engine_ray.pipelines.build_index import (
            _shuffle_parts,
        )
        from web_based_search_engine_ray.stages.extract import Extractor
        from web_based_search_engine_ray.stages.postings import (
            ForwardRows,
            TokenizeEncode,
            compact_bucket,
        )

        tr = self.tracer
        web = inputs.web_table(docs)
        ex = Extractor(verify=cfg.verify_extraction)
        te, fr = TokenizeEncode(cfg), ForwardRows(cfg)
        with tr.span("phase.stages") as root:
            parts = []
            for i in range(0, web.num_rows, cfg.extract_batch_size):
                with tr.span("stages.extract.Extractor"):
                    parts.append(ex(web.slice(i, cfg.extract_batch_size)))
            # the build reads extracted/ (doc_shard-partitioned files) in
            # _shuffle_parts(cfg) blocks, each tokenized in batches
            ext = pa.concat_tables(parts).select(["doc_id", "title", "text"])
            ids = ext["doc_id"].to_numpy()
            ext = ext.take(np.lexsort((ids, ids % cfg.doc_shards)))
            blocks = [b for b in np.array_split(np.arange(ext.num_rows),
                                                _shuffle_parts(cfg)) if len(b)]
            batches = [(b[0] + i, min(cfg.tokenize_batch_size, len(b) - i))
                       for b in blocks
                       for i in range(0, len(b), cfg.tokenize_batch_size)]
            runs = []
            for start, n in batches:
                with tr.span("stages.postings.TokenizeEncode"):
                    runs.append(te(ext.slice(start, n)))
            # the build's groupby(part_key): here a sort and slices
            with tr.span("stages.group_runs"):
                runs = pa.concat_tables(runs).sort_by("part_key")
                keys = runs["part_key"].to_numpy()
                cuts = np.flatnonzero(np.diff(keys)) + 1
                starts = np.concatenate(([0], cuts))
                ends = np.concatenate((cuts, [len(keys)]))
            for a, b in zip(starts, ends):
                with tr.span("stages.postings.compact_bucket"):
                    compact_bucket(runs.slice(a, b - a),
                                   max_run_docs=cfg.max_run_docs,
                                   num_buckets=cfg.num_buckets)
            for start, n in batches:
                with tr.span("stages.postings.ForwardRows"):
                    fr(ext.slice(start, n))
        st = tr.self_times(root)
        for name in ("stages.extract.Extractor",
                     "stages.postings.TokenizeEncode",
                     "stages.postings.compact_bucket",
                     "stages.postings.ForwardRows"):
            self.layer[f"{name}_s"] = st[name][0]
        self.layer["build_index.segments_wait_s"] = (
            _stage_wall(report, "segments")
            - st["stages.postings.TokenizeEncode"][0]
            - st["stages.postings.compact_bucket"][0])
        self.layer["trace.stages.self_sum_frac"] = self._covered(root)

    def _update_layers(self, update_span, upd, before, idx, delta) -> None:
        u = upd["update"]
        # a snapshot without changes returns before any stage runs
        stages = upd["stages"] if u["fresh_docs"] or u["removed_docs"] else []
        self._report_spans(update_span, "update_index", stages,
                           UPDATE_STAGES)
        for s in UPDATE_STAGES:
            self.layer[f"update_index.{s}_s"] = _stage_wall(
                {"stages": stages}, s)
        # freshness filter, delta extract, removed-url anti-join and the
        # extracted/ rewrite: everything before the resumed build
        self.layer["update_index.prepare_s"] = self.tracer.self_times(
            update_span)["update_index"][0]
        after = parquet_files(idx)
        rewritten = sum(st[1] for p, st in after.items()
                        if before.get(p) != st)
        self.layer["update.fresh_docs"] = u["fresh_docs"]
        self.layer["update.removed_docs"] = u["removed_docs"]
        self.layer["update.affected_shards"] = len(u["affected_shards"])
        self.layer["update.bytes_rewritten"] = rewritten
        self.layer["update.write_amp"] = (
            rewritten / delta["changed_input_bytes"])
        self.layer["trace.update.self_sum_frac"] = self._covered(
            self._root("phase.update"))

    def _search_replay(self, idx, queries, batch_walls, actors) -> None:
        """Each shard's share of the batch replayed in-process, so the
        shard-local layers can be timed and counted.  Passes: cold
        (counts), then warm untraced / traced / untraced / traced (layer
        times and tracing overhead), then every plain query forced
        through WAND (the WAND layer's cost even where ``auto`` routes no
        query to it).  The shard busy time is taken from the serving
        shard actors themselves, one at a time."""
        import ray

        from web_based_search_engine_ray.pipelines.search import (
            Searcher,
            parse_query,
        )

        tr = self.tracer
        layers = {k: v for k, v in SEARCHER_LAYERS.items() if k != "hydrate"}
        shards = [Searcher(idx, doc_shard=s) for s in range(DOC_SHARDS)]
        tally = Counter()

        def count(s, attr, tally_fn):
            fn = getattr(s, attr)

            def counted(*a, **kw):
                r = fn(*a, **kw)
                tally_fn(r)
                return r

            setattr(s, attr, counted)

        # installed under the cold pass's spans; unwrapping after that
        # pass removes them, so the tallies cover the cold pass only
        count(shards[0], "choose_traversal",
              lambda r: tally.update([f"route.{r}"]))
        for s in shards:
            count(s, "scores_arrays",
                  lambda r: tally.update(candidates=len(r[0])))
            count(s, "search_many", lambda r: tally.update(results=len(r)))

        def run_pass(name: str | None) -> list[float]:
            walls = []
            if name:
                for s in shards:
                    tr.wrap(s, layers)
            with tr.span(name) if name else nullcontext():
                for s in shards:
                    t = time.perf_counter()
                    with tr.span("sharded.shard_replay") if name \
                            else nullcontext():
                        s.search_many(queries, k=BATCH_K)
                    walls.append(time.perf_counter() - t)
            for s in shards:
                tr.unwrap(s, layers)
            return walls

        run_pass("replay.cold")
        considered = sum(s.run_stats["considered"] for s in shards)
        decoded = sum(s.run_stats["decoded"] for s in shards)
        plain_a = run_pass(None)
        traced_b = run_pass("replay.warm")
        plain_c = run_pass(None)
        traced_d = run_pass("replay.warm2")
        for s in shards:
            tr.wrap(s, {"scores_topk_wand": "search.wand"})
        with tr.span("replay.forced_wand") as forced:
            for q in queries:
                words, phrase = parse_query(q)
                if not phrase:
                    for s in shards:
                        s.search(words, k=BATCH_K, hydrate=False,
                                 prune=True, traversal="wand")

        st = tr.self_times(self._root("replay.warm"))
        calls = st["search.search"][1]
        for name in ("lexicon", "taat", "phrase", "decode"):
            self.layer[f"search.{name}_ms"] = (
                st.get(f"search.{name}", (0.0, 0))[0] * 1000 / calls)
        self.layer["search.topk_ms"] = st["search.search"][0] * 1000 / calls
        wand = tr.self_times(forced).get("search.wand", (0.0, 1))
        self.layer["search.wand_ms"] = wand[0] * 1000 / wand[1]
        self.layer["search.queries_wand"] = tally["route.wand"]
        self.layer["search.queries_taat"] = len(queries) - tally["route.wand"]
        self.layer["search.runs_considered"] = considered
        self.layer["search.runs_decoded"] = decoded
        self.layer["search.decode_ratio"] = decoded / considered
        self.layer["search.candidates_per_result"] = (
            tally["candidates"] / tally["results"])
        self.layer["search.cache_bytes"] = sum(s._cache_bytes for s in shards)
        def shard_wall(actor) -> float:
            t = time.perf_counter()
            ray.get(actor.search_many.remote(queries, k=BATCH_K))
            return time.perf_counter() - t

        busy = max(min(shard_wall(a) for _ in range(2)) for a in actors)
        self.layer["sharded.shard_busy_ms"] = busy * 1000
        self.layer["sharded.gather_merge_ms"] = (
            statistics.median(batch_walls) - busy) * 1000
        self.layer["trace.overhead_frac"] = (
            sum(traced_b + traced_d) / sum(plain_a + plain_c) - 1)
        self.layer["trace.batch.self_sum_frac"] = self._covered(
            self._root("phase.batch"))

    def _serve_layers(self) -> None:
        root = self._root("phase.serve")
        st = self.tracer.self_times(root)
        n, calls = st["http.request"][1], st["search.search"][1]
        self.layer["server.handler_ms"] = st["http.request"][0] * 1000 / n
        self.layer["search.hydrate_ms"] = (
            st["search.hydrate"][0] * 1000 / calls)
        self.layer["trace.serve.self_sum_frac"] = self._covered(root)

    def _index_layout(self, idx: str, n_live: int) -> None:
        import pyarrow.dataset as pads

        def rows(name):
            return pads.dataset(os.path.join(idx, name), format="parquet",
                                partitioning="hive").count_rows()

        self.layer["index.docs"] = n_live
        self.layer["index.terms"] = rows("lexicon")
        self.layer["index.segment_runs"] = rows("segments")
        for s in BUILD_STAGES:
            self.layer[f"index.bytes.{s}"] = du(os.path.join(idx, s))


def _stage_wall(report: dict, name: str) -> float:
    return sum(s["wall_sec"] for s in report["stages"] if s["name"] == name)


def _ids_scores(df) -> tuple[np.ndarray, np.ndarray]:
    return (df["doc_id"].to_numpy(dtype=np.int64),
            df["score"].to_numpy(dtype=np.float64))


def _merge_topk(parts) -> tuple[np.ndarray, np.ndarray]:
    """Per-shard results -> top BATCH_K by score desc, doc id asc, NaN
    last."""
    ids = np.concatenate([_ids_scores(p)[0] for p in parts])
    sc = np.concatenate([_ids_scores(p)[1] for p in parts])
    order = np.lexsort((ids, np.isnan(sc), -np.nan_to_num(sc)))[:BATCH_K]
    return ids[order], sc[order]


def _same(a, b, rtol: float = 0.0) -> bool:
    """Same doc ids in the same order, and scores equal (to ``rtol``
    relative when given)."""
    if not np.array_equal(a[0], b[0]):
        return False
    if rtol:
        return bool(np.allclose(a[1], b[1], rtol=rtol, atol=0,
                                equal_nan=True))
    return np.array_equal(a[1], b[1], equal_nan=True)
