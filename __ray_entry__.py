"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the library) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``      — flagship pipeline on sf0.001: build the full
  stemmed inverted index over the synthetic web corpus, run a query
  batch through the sharded searcher's batch path, return the ranked
  ``(query_id, rank, doc_id, score)`` rows.
- ``queries()``    — one entry per implemented operator/pipeline
  (see ``web_based_search_engine_ray.registry``).
- ``oracle_sql()`` — DuckDB-equivalent SQL for each SQL-expressible
  entry (same column names; floats rounded identically on both sides).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from web_based_search_engine_ray import registry


def entry() -> Any:
    """Flagship: index build (stemmed config) + batch search on sf0.001."""
    from web_based_search_engine_ray.config import IndexConfig
    from web_based_search_engine_ray.pipelines.search import ShardedSearcher

    sf_dir = "/root/testdata/sf0.001"
    idx = registry.get_index(sf_dir, IndexConfig())
    queries = [
        "spark merge",
        '"fast key" table scan',
        "window stream batch",
        "sorted filters joining",
    ]
    searcher = ShardedSearcher(idx)
    try:
        return searcher.batch_search(queries, k=10)
    finally:
        searcher.shutdown()


def queries() -> dict[str, Callable[[str], Any]]:
    return registry.queries()


def oracle_sql() -> dict[str, str]:
    return registry.oracle_sql()


def self_verified() -> dict[str, str]:
    """Assertion descriptions for the queries() entries that have no
    SQL oracle — each callable raises if its in-process check fails, so
    a returned result is a passed check (see SELFCHECK.json)."""
    return registry.self_verified()
