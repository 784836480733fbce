"""CLI mirroring the reference's verbs (``App.java:27-63``):

    python -m web_based_search_engine_ray build  --sf-dir DIR --out IDX
    python -m web_based_search_engine_ray update --sf-dir DIR --out IDX
    python -m web_based_search_engine_ray search --index IDX "words..." [--phrase "a b"] [-k N]
    python -m web_based_search_engine_ray print  --index IDX
    python -m web_based_search_engine_ray server --index IDX [--port N]
    python -m web_based_search_engine_ray pagerank --index IDX [--iters N] [--top K]
    python -m web_based_search_engine_ray export --sf-dir DIR --out DIR \
        [--format parquet|jsonl] [--partition-by lang] [--no-clean]

The CLI owns the Ray session (guarded init); library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray():
    import os

    import ray

    if not ray.is_initialized():
        # Respect RAY_ADDRESS so `ray job submit -- python -m
        # web_based_search_engine_ray ...` joins the job's cluster;
        # standalone invocations fall back to a local session.
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None):
    p = argparse.ArgumentParser(prog="web_based_search_engine_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the index from a testdata sf dir")
    b.add_argument("--sf-dir", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--repeat", type=int, default=1)

    u = sub.add_parser("update", help="incrementally apply a corpus snapshot")
    u.add_argument("--sf-dir", required=True)
    u.add_argument("--out", required=True)
    u.add_argument("--input-key", required=True)

    s = sub.add_parser("search", help="query an index")
    s.add_argument("--index", required=True)
    s.add_argument("query", help='query string; "quoted span" = phrase')
    s.add_argument("-k", type=int, default=None)

    d = sub.add_parser("print", help="debug-dump all index artifacts")
    d.add_argument("--index", required=True)
    d.add_argument("--max-rows", type=int, default=20)

    v = sub.add_parser("server", help="serve / and /result over an index")
    v.add_argument("--index", required=True)
    v.add_argument("--port", type=int, default=8080)

    g = sub.add_parser("pagerank", help="rank urls by the index link graph")
    g.add_argument("--index", required=True)
    g.add_argument("--iters", type=int, default=10)
    g.add_argument("--top", type=int, default=20)

    e = sub.add_parser(
        "export",
        help="clean the corpus (langid/quality/dedup funnel) and export "
        "it partitioned for training",
    )
    e.add_argument("--sf-dir", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--format", choices=("parquet", "jsonl"),
                   default="parquet")
    e.add_argument("--partition-by", default=None,
                   help="column for hive partitioning (e.g. lang)")
    e.add_argument("--no-clean", action="store_true",
                   help="export the raw corpus without the clean funnel")

    args = p.parse_args(argv)
    ray = _ray()
    try:
        if args.cmd == "build":
            from web_based_search_engine_ray.config import IndexConfig
            from web_based_search_engine_ray.pipelines.build_index import (
                build_index,
            )
            from web_based_search_engine_ray.sources.webcorpus import (
                synth_corpus,
            )

            report = build_index(
                lambda: synth_corpus(args.sf_dir, repeat=args.repeat),
                args.out,
                IndexConfig(),
                input_key=f"{args.sf_dir}x{args.repeat}",
            )
            print(json.dumps(report, indent=1))
        elif args.cmd == "update":
            from web_based_search_engine_ray.config import IndexConfig
            from web_based_search_engine_ray.pipelines.update_index import (
                update_index,
            )
            from web_based_search_engine_ray.sources.webcorpus import (
                synth_corpus,
            )

            report = update_index(
                lambda: synth_corpus(args.sf_dir),
                args.out,
                IndexConfig(),
                input_key=args.input_key,
            )
            print(json.dumps(report["update"], indent=1))
        elif args.cmd == "search":
            from web_based_search_engine_ray.pipelines.search import (
                Searcher,
                format_results,
                parse_query,
            )

            words, phrase = parse_query(args.query)
            res = Searcher(args.index).search(words, phrase, k=args.k)
            print(format_results(res))
        elif args.cmd == "print":
            from web_based_search_engine_ray.pipelines.search import dump_index

            print(dump_index(args.index, max_rows=args.max_rows))
        elif args.cmd == "server":
            from web_based_search_engine_ray.pipelines.server import serve

            serve(args.index, port=args.port)
        elif args.cmd == "export":
            import ray.data as rd

            from web_based_search_engine_ray.pipelines.export import (
                export_dataset,
            )

            docs = rd.read_parquet(f"{args.sf_dir}/documents.parquet")
            if not args.no_clean:
                from web_based_search_engine_ray.pipelines.clean import (
                    clean_corpus,
                )
                from web_based_search_engine_ray.pipelines.dedup import (
                    filter_by_ids,
                )

                kept, funnel = clean_corpus(
                    docs.select_columns(["doc_id", "text"])
                )
                print(json.dumps({"funnel": funnel}, indent=1),
                      file=sys.stderr)
                docs = filter_by_ids(docs, kept, keep=True)
            manifest = export_dataset(
                docs,
                args.out,
                fmt=args.format,
                partition_col=args.partition_by,
            )
            print(json.dumps(manifest, indent=1))
        elif args.cmd == "pagerank":
            import os

            import ray.data as rd

            from web_based_search_engine_ray.pipelines.graph import pagerank
            from web_based_search_engine_ray.stages.extract import link_edges

            order = [("pagerank", "descending"), ("url", "ascending")]
            edges = rd.read_parquet(
                os.path.join(args.index, "extracted"),
                columns=["doc_id", "url", "links"],
            ).map_batches(link_edges, batch_format="pyarrow")
            # each block keeps its own top K, so the driver collects at
            # most K rows per block, never the whole node table
            res = (
                pagerank(edges, iters=args.iters)
                .map_batches(lambda t: t.sort_by(order).slice(0, args.top),
                             batch_format="pyarrow", batch_size=None)
                .to_pandas()
                .sort_values(
                    ["pagerank", "url"], ascending=[False, True]
                )
                .head(args.top)
            )
            print(res.to_string(index=False))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
