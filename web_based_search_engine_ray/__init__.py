"""Ray-Data-native inverted-index + ranked-retrieval engine.

A from-scratch rebuild of the query/data-processing capabilities of the
reference course search engine (``sungjin122517/Web-based-Search-Engine``,
surveyed in ``SURVEY.md``), re-expressed as ``ray.data.Dataset`` pipelines:

- ``functions``  — pure kernels (Porter stemmer, tokenizer, stopwords,
  text statistics, hashing/sketches).  No Ray dependency.
- ``sources``    — corpus readers and the deterministic synthetic
  Common-Crawl-style web table used by tests/benchmarks.
- ``stages``     — ``map_batches`` stage bodies (HTML extraction,
  posting extraction, varbyte codec, segment build).
- ``pipelines``  — end-to-end pipelines (index build, search, dedup,
  similarity search, text analysis, events windows, multimodal).
- ``state``      — manifests for per-stage lineage/metrics + resume.

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

from web_based_search_engine_ray.config import IndexConfig

__all__ = ["IndexConfig"]
__version__ = "0.1.0"
