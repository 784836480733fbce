"""Engine configuration.

The scoring/behavior constants mirror the reference
(``InvertedIndex.java:21`` TITLE_MATCH_MULTIPLIER=0.9,
``App.java:23-24`` maxPages=300 / maxSearchResults=50,
``SearchResult.java:12`` MAX_KEYWORD_COUNT=5); the physical knobs
(buckets, batch sizes, doc shards, shuffle parallelism) are ours — the
reference is single-threaded and has no equivalents.  Every field is
read by the build or the query engine, and the build has one physical
plan (no execution-strategy switches); ``semantic_key`` hashes the
settings that change index content.  Settings no caller varies
(the reference's three constants among them) are class constants: an
instance reads them, but they are not fields, and a stored
``meta.json`` config that still holds them loads with them dropped.
``tests/test_every_option_has_a_caller.py`` keeps every field set by
some caller.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import ClassVar


@dataclass(frozen=True)
class IndexConfig:
    # --- semantics (must match the reference for rank-identity) ---
    title_weight: ClassVar[float] = 0.9  # InvertedIndex.java:21
    use_stopwords: bool = True         # Indexer.stemWord, Indexer.java:67
    use_stemming: bool = True          # Indexer.stemWord, Indexer.java:70
    max_results: ClassVar[int] = 50    # App.java:24
    max_keywords: ClassVar[int] = 5    # SearchResult.java:12
    # Verify extracted body text is byte-identical to the input table's
    # ``text`` column (the per-row invariant from BASELINE.json).
    verify_extraction: ClassVar[bool] = True

    # --- physical layout / scale knobs (ours) ---
    num_buckets: int = 32              # term-hash partitions for segments
    tokenize_batch_size: int = 1024    # docs per batch in the tokenize stage
    # (larger batches -> fewer per-(term, block) runs to shuffle+compact)
    extract_batch_size: ClassVar[int] = 256
    # Segment build is local-index-then-merge: posting runs are encoded
    # per tokenize block (no shuffle of raw postings), then compacted
    # per term-hash bucket — the shuffle moves only compressed runs.
    # The merge cuts each term's list into runs of at most
    # ``max_run_docs`` docs, which bounds a segment row's bytes (one
    # Arrow binary chunk holds < 2 GiB) for Zipf-head terms.  No reader
    # skips runs: a query decodes every run of a term and unions them
    # (df = Σ df_run).
    max_run_docs: int = 5_000_000
    # Document partitioning (web-search-style doc-partitioned index):
    # extracted, segments and docstats are partitioned by
    # doc_shard = doc_id % doc_shards, so a query can scatter-gather
    # over per-shard searchers each holding only its shard's postings +
    # doc stats, and an update rebuilds only the shards it touches.
    # 1 = the single partition doc_shard=0.
    doc_shards: int = 1
    # Shuffle parallelism: the index plans read their inputs as this
    # many blocks (None = 2 × cluster CPUs) and feed them to the
    # groupby as read, with no repartition.  Ray's sort shuffle cost
    # scales with block count, which at test scale is dominated by
    # many tiny blocks; a 100-TB deployment should set this to
    # ~data_size / target_block_size instead.
    shuffle_partitions: int | None = None
    min_rows_per_file: ClassVar[int] = 65536

    def semantic_key(self) -> str:
        """Stable hash of the fields that affect index *content* (used to
        key index caches and resume manifests)."""
        sem = {
            "title_weight": self.title_weight,
            "use_stopwords": self.use_stopwords,
            "use_stemming": self.use_stemming,
            "num_buckets": self.num_buckets,
            "max_run_docs": self.max_run_docs,
            "doc_shards": self.doc_shards,
            "format_version": 9,  # bump when artifact schemas change
        }
        return hashlib.md5(json.dumps(sem, sort_keys=True).encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return asdict(self)

    def check_index(self, meta: dict, index_dir: str, use: str) -> None:
        """Refuse an index whose ``meta.json`` was written under another
        semantic config (another ``format_version`` included), or under
        none: its artifacts are not the ones ``use`` reads and writes."""
        stored, sem = meta.get("semantic_key"), self.semantic_key()
        if stored != sem:
            raise ValueError(
                f"index at {index_dir} was built with semantic config "
                f"{stored}; {use} requires {sem} — rebuild it with "
                "build_index"
            )


#: Configuration whose output is expressible in ANSI SQL (used by the
#: DuckDB oracle checks): tokenization + lowercase only, no stopword
#: removal, no stemming.  Everything else identical.
ORACLE_CONFIG = IndexConfig(use_stopwords=False, use_stemming=False)
