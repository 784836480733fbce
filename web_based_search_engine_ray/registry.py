"""Query registry: every implemented operator/pipeline exposed as a
``name -> callable(sf_dir)`` plus (where expressible) an ANSI-SQL
oracle string for DuckDB over the same parquet tables.

Conventions (driver contract):
- column names match between Ray result and SQL exactly;
- float columns that cross the Ray/DuckDB boundary are rounded
  (``ROUND(x, n)`` / ``np.round``) so summation-order fp noise can't
  break the value hash;
- search-engine queries run over the deterministic synthetic web corpus
  (``sources.webcorpus``) whose derivations are mirrored 1:1 in SQL on
  the ``documents`` view;
- SQL-checked search queries use ``ORACLE_CONFIG`` (tokenize+lowercase
  only — stemming isn't SQL-expressible); the stemmed engine is
  exercised by the rows-only entries and the pytest golden/oracle
  suites.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from web_based_search_engine_ray.config import ORACLE_CONFIG, IndexConfig
from web_based_search_engine_ray.sources.webcorpus import (
    SQL_TITLE, SQL_URL, SQL_WARC_TS,
)

CACHE_ROOT = "/tmp/wbse_index_cache"

# tokens of a string s with the reference regex, non-empty, lowercased
_TOKS = (
    "list_filter(string_split_regex({s}, '[^a-zA-Z0-9_-]+'), x -> x <> '')"
)

#: body-token list expression (f-string shorthand for oracles)
_TT_TOKS = _TOKS.format(s="text")

_BODY_TOKENS = f"""
    SELECT doc_id, lower(unnest({_TOKS.format(s='text')})) AS term,
           unnest(range(len({_TOKS.format(s='text')}))) AS pos
    FROM documents
"""
_TITLE_TOKENS = f"""
    SELECT doc_id, lower(unnest({_TOKS.format(s=SQL_TITLE)})) AS term,
           unnest(range(len({_TOKS.format(s=SQL_TITLE)}))) AS pos
    FROM documents
"""

# Shared CTE prefix for scoring queries (tf per doc/term/field, df, N,
# tf_max, doc_len) — mirrors SURVEY.md §2.5 exactly.
_SCORE_CTES = f"""
WITH body_toks AS ({_BODY_TOKENS}),
title_toks AS ({_TITLE_TOKENS}),
tf AS (
    SELECT doc_id, term,
           SUM(CASE WHEN src = 't' THEN 1 ELSE 0 END) AS title_tf,
           SUM(CASE WHEN src = 'b' THEN 1 ELSE 0 END) AS body_tf
    FROM (
        SELECT doc_id, term, 'b' AS src FROM body_toks
        UNION ALL
        SELECT doc_id, term, 't' AS src FROM title_toks
    ) GROUP BY doc_id, term
),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
nn AS (SELECT COUNT(DISTINCT doc_id) AS n FROM tf),
tfmax AS (SELECT doc_id, MAX(title_tf + body_tf) AS tf_max FROM tf GROUP BY doc_id),
doclen AS (
    SELECT t.doc_id,
           SQRT(SUM(POW((t.title_tf + t.body_tf) * LOG10(CAST(nn.n AS DOUBLE) / d.df) / m.tf_max, 2))) AS doc_len
    FROM tf t, df d, tfmax m, nn
    WHERE t.term = d.term AND t.doc_id = m.doc_id
    GROUP BY t.doc_id
)
"""

_SEARCH_TERMS = ("spark", "merge", "42")   # '42' hits doc 42's title
_PHRASE = ("batch", "batch")


# --------------------------------------------------------------------------
def _index_dir(sf_dir: str, cfg: IndexConfig) -> str:
    key = f"{os.path.abspath(sf_dir).replace('/', '_')}-{cfg.semantic_key()}"
    return os.path.join(CACHE_ROOT, key)


def get_index(sf_dir: str, cfg: IndexConfig) -> str:
    """Build (or resume) the index for sf_dir under the cache; returns
    the index dir."""
    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    out = _index_dir(sf_dir, cfg)
    build_index(
        lambda: synth_corpus(sf_dir),
        out,
        cfg,
        input_key=os.path.abspath(sf_dir),
        resume=True,
    )
    return out


def _docs(sf_dir: str):
    import ray.data as rd

    from web_based_search_engine_ray.util import auto_parallelism

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", override_num_blocks=auto_parallelism()
    )


def _events(sf_dir: str):
    import ray.data as rd

    from web_based_search_engine_ray.util import auto_parallelism

    return rd.read_parquet(
        f"{sf_dir}/events.parquet", override_num_blocks=auto_parallelism()
    )


def _embeddings(sf_dir: str):
    import ray.data as rd

    from web_based_search_engine_ray.util import auto_parallelism

    return rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", override_num_blocks=auto_parallelism()
    )


# ------------------------------------------------------------ query bodies
def q_extract_text(sf_dir: str):
    """Per-row invariant surface: synthesized corpus → extraction →
    byte-identical text per url."""
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus
    from web_based_search_engine_ray.stages.extract import Extractor

    ds = synth_corpus(sf_dir).map_batches(
        Extractor, fn_constructor_kwargs={"verify": True},
        batch_format="pyarrow", concurrency=(1, 4),
    )
    return ds.select_columns(["url", "text"])


def q_term_df(sf_dir: str):
    import pyarrow.dataset as pads

    idx = get_index(sf_dir, ORACLE_CONFIG)
    lex = pads.dataset(os.path.join(idx, "lexicon"), format="parquet").to_table()
    return lex.select(["term", "df"])


def q_doc_stats(sf_dir: str):
    import pyarrow.dataset as pads

    idx = get_index(sf_dir, ORACLE_CONFIG)
    t = pads.dataset(os.path.join(idx, "docstats"), format="parquet").to_table()
    df = t.to_pandas()
    df["doc_len_norm"] = np.round(df["doc_len_norm"], 9)
    return df[["doc_id", "tf_max", "doc_len_norm"]]


def q_tfidf_search(sf_dir: str):
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx = get_index(sf_dir, ORACLE_CONFIG)
    s = Searcher(idx)
    res = s.search(set(_SEARCH_TERMS), k=10**9, hydrate=False)
    res["score"] = np.round(res["score"], 9)
    return res[["doc_id", "score"]]


def q_bm25_search(sf_dir: str):
    """BM25 top-k engine extension (k1=1.2, b=0.75, Robertson idf) —
    the BASELINE metric's scorer; the reference-conformant TF-IDF
    remains the default mode."""
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx = get_index(sf_dir, ORACLE_CONFIG)
    s = Searcher(idx)
    res = s.search(set(_SEARCH_TERMS), k=10**9, hydrate=False, mode="bm25")
    res["score"] = np.round(res["score"], 9)
    return res[["doc_id", "score"]]


def q_phrase_search(sf_dir: str):
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx = get_index(sf_dir, ORACLE_CONFIG)
    s = Searcher(idx)
    docs = s.phrase_doc_array(list(_PHRASE))  # sorted, distinct
    return pd.DataFrame({"doc_id": pd.Series(docs, dtype="int64")})


def q_link_edges(sf_dir: str):
    import pyarrow.dataset as pads

    from web_based_search_engine_ray.stages.extract import link_edges

    idx = get_index(sf_dir, ORACLE_CONFIG)
    t = pads.dataset(os.path.join(idx, "extracted"), format="parquet")
    t = link_edges(t.to_table(columns=["doc_id", "url", "links"]))
    return t.select(["src_url", "dst_url"])


def q_pagerank(sf_dir: str):
    """PageRank over the index's link-edge table (distinct (src,dst),
    dangling mass redistributed, damping 0.85, FIXED 5 iterations so
    the unrolled SQL oracle computes the identical recurrence).
    Scores rounded to 9dp on both sides (values ~1/N; fp summation
    order is the only divergence and sits ~1e-18 off the grid)."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.graph import pagerank

    res = pagerank(
        rd.from_arrow(q_link_edges(sf_dir)),
        damping=_PAGERANK_DAMPING,
        iters=_PAGERANK_ITERS,
    ).to_pandas()
    res["pagerank"] = np.round(res["pagerank"], 9)
    return res[["url", "pagerank"]]


_PAGERANK_ITERS, _PAGERANK_DAMPING = 5, 0.85


def _pagerank_sql() -> str:
    """Unrolled-iteration mirror of pipelines.graph.pagerank over the
    synthetic corpus's derived edge set (doc → doc+{1,7,42})."""
    d = repr(_PAGERANK_DAMPING)
    ctes = [
        f"""edges AS (
            SELECT {SQL_URL} AS src,
                   'https://corpus.example.com/' || printf('%012d', doc_id + off) || '.html' AS dst
            FROM documents, (SELECT unnest([1, 7, 42]) AS off)
        )""",
        "nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges)",
        "odeg AS (SELECT src AS node, COUNT(*) AS od FROM edges GROUP BY src)",
        "nn AS (SELECT COUNT(*) AS n FROM nodes)",
        "pr0 AS (SELECT node, 1.0 / nn.n AS rank FROM nodes, nn)",
    ]
    for i in range(1, _PAGERANK_ITERS + 1):
        p = f"pr{i - 1}"
        ctes.append(f"""dang{i} AS (
            SELECT COALESCE(SUM(p.rank), 0.0) AS dm
            FROM {p} p LEFT JOIN odeg o ON p.node = o.node
            WHERE o.node IS NULL
        )""")
        ctes.append(f"""pr{i} AS (
            SELECT n.node,
                   (1 - {d}) / nn.n
                   + {d} * (COALESCE(c.contrib, 0.0) + dang{i}.dm / nn.n) AS rank
            FROM nodes n
            LEFT JOIN (
                SELECT e.dst AS node, SUM(p.rank / o.od) AS contrib
                FROM edges e
                JOIN {p} p ON e.src = p.node
                JOIN odeg o ON e.src = o.node
                GROUP BY e.dst
            ) c ON n.node = c.node
            CROSS JOIN nn CROSS JOIN dang{i}
        )""")
    return (
        "WITH " + ",\n".join(ctes)
        + "\nSELECT node AS url, ROUND(rank, 9) AS pagerank "
        f"FROM pr{_PAGERANK_ITERS}"
    )


def q_docmeta(sf_dir: str):
    import pyarrow.dataset as pads

    idx = get_index(sf_dir, ORACLE_CONFIG)
    t = pads.dataset(os.path.join(idx, "extracted"), format="parquet")
    return t.to_table(columns=["doc_id", "url", "title", "last_modified",
                               "lang"])


# ------------------------------------------------- stemmed SQL oracles
import functools


def _oracle_sf_dir() -> str:
    """The corpus dir the stemmed oracles inline their vocabulary
    from: ``WBSE_ORACLE_SF_DIR`` (default sf0.01 — the driver's
    correctness scale).  Resolved ONCE per ``oracle_sql()`` call and
    threaded explicitly into the SQL builders; if the SQL then runs
    against a corpus with tokens outside this vocabulary, the in-SQL
    OOV guard raises instead of silently dropping them."""
    return os.environ.get("WBSE_ORACLE_SF_DIR", "/root/testdata/sf0.01")


@functools.lru_cache(maxsize=4)
def _stem_map_values_for(sf_dir: str) -> str:
    """Cached per sf dir: oracle_sql() builds BOTH stemmed oracles per
    call, and the corpus scan + full-vocab stemming should run once."""
    return _stem_map_values_uncached(sf_dir)


def _stem_map_values_uncached(sf_dir: str) -> str:
    """(raw → stemmed) VALUES rows covering the ENTIRE distinct raw
    vocabulary of the oracle corpus (body tokens + synthesized title
    tokens).  The stop-stem normalizer is a pure function, so its
    lookup table over the finite vocabulary IS the normalizer.
    Stopword-dropped/blank tokens are kept with a NULL stem (filtered
    in the join), so that a raw token entirely ABSENT from the map is
    unambiguously out-of-vocabulary — the SQL guard can then tell
    "stopword" from "this oracle was built for a different corpus"
    and fail loudly instead of corrupting df/N/doc_len."""
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.functions.tokenize import (
        TOKEN_RE,
        stem_word,
    )

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    vocab: set[str] = set()
    for t in docs["text"].to_pylist():
        vocab.update(x.lower() for x in TOKEN_RE.split(t) if x)
    for d in docs["doc_id"].to_pylist():
        vocab.update(x.lower() for x in TOKEN_RE.split(f"Doc {d}") if x)
    rows = []
    for w in sorted(vocab):
        s = stem_word(w)
        # tokens are [a-zA-Z0-9_-]+ so no quoting hazards
        rows.append(f"('{w}', '{s}')" if s is not None else f"('{w}', NULL)")
    return ", ".join(rows)


def _stemmed_score_ctes(sf_dir: str) -> str:
    """Stemmed-engine mirror of ``_SCORE_CTES``: raw token streams are
    routed through the inlined stem map (stopwords carry a NULL stem
    and drop in the join filter), positions re-numbered over the
    POST-FILTER sequence (``Indexer.java:117-140`` — dropped tokens
    take no position), then the identical tf/df/N/tf_max/doc_len
    algebra.  N counts indexable docs only (docs whose every token is
    a stopword are unindexed, ``InvertedIndex.java:50-51``).  The
    ``oov`` guard makes the oracle refuse (DuckDB ``error()``) any
    corpus whose vocabulary the inlined stem map does not cover,
    instead of silently treating unknown tokens as stopwords."""
    return f"""
WITH stemmap(raw, stem) AS (VALUES {_stem_map_values_for(sf_dir)}),
body_raw AS ({_BODY_TOKENS}),
title_raw AS ({_TITLE_TOKENS}),
oov AS (
    SELECT COUNT(*) AS n_missing FROM (
        SELECT DISTINCT term FROM body_raw
        UNION SELECT DISTINCT term FROM title_raw
    ) v LEFT JOIN stemmap m ON v.term = m.raw
    WHERE m.raw IS NULL
),
body_toks AS (
    SELECT b.doc_id, m.stem AS term,
           ROW_NUMBER() OVER (PARTITION BY b.doc_id ORDER BY b.pos) - 1 AS pos
    FROM body_raw b JOIN stemmap m ON b.term = m.raw
    WHERE m.stem IS NOT NULL
),
title_toks AS (
    SELECT t.doc_id, m.stem AS term,
           ROW_NUMBER() OVER (PARTITION BY t.doc_id ORDER BY t.pos) - 1 AS pos
    FROM title_raw t JOIN stemmap m ON t.term = m.raw
    WHERE m.stem IS NOT NULL
),
tf AS (
    SELECT doc_id, term,
           SUM(CASE WHEN src = 't' THEN 1 ELSE 0 END) AS title_tf,
           SUM(CASE WHEN src = 'b' THEN 1 ELSE 0 END) AS body_tf
    FROM (
        SELECT doc_id, term, 'b' AS src FROM body_toks
        UNION ALL
        SELECT doc_id, term, 't' AS src FROM title_toks
    ) GROUP BY doc_id, term
),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
nn AS (
    SELECT CASE WHEN (SELECT n_missing FROM oov) > 0
                THEN CAST(error('stemmed oracle vocabulary does not '
                     || 'cover this corpus; set WBSE_ORACLE_SF_DIR to '
                     || 'the sf dir the oracle runs against')
                     AS BIGINT)
                ELSE COUNT(DISTINCT doc_id) END AS n
    FROM tf
),
tfmax AS (SELECT doc_id, MAX(title_tf + body_tf) AS tf_max FROM tf GROUP BY doc_id),
doclen AS (
    SELECT t.doc_id,
           SQRT(SUM(POW((t.title_tf + t.body_tf) * LOG10(CAST(nn.n AS DOUBLE) / d.df) / m.tf_max, 2))) AS doc_len
    FROM tf t, df d, tfmax m, nn
    WHERE t.term = d.term AND t.doc_id = m.doc_id
    GROUP BY t.doc_id
)
"""


def _stemmed_terms(words) -> list[str]:
    from web_based_search_engine_ray.functions.tokenize import stem_word

    return sorted({s for s in (stem_word(w) for w in words) if s})


def _stemmed_select(words, phrase, *, qid: int | None = None) -> str:
    """One scored SELECT over the stemmed CTEs: TF-IDF over the
    normalized query terms, optionally restricted to docs containing
    the normalized phrase adjacently in ONE field (title or body) —
    the reference's per-field fold."""
    from web_based_search_engine_ray.functions.tokenize import stem_word

    terms = _stemmed_terms(words)
    if not terms:
        return ""
    terms_in = ", ".join(f"'{t}'" for t in terms)
    qcol = f"CAST({qid} AS BIGINT) AS query_id, " if qid is not None else ""
    phrase_filter = ""
    pterms = [s for s in (stem_word(w) for w in phrase) if s]
    if pterms:
        adj = []
        for tab in ("body_toks", "title_toks"):
            joins, conds = [], [f"w0.term = '{pterms[0]}'"]
            for i in range(1, len(pterms)):
                joins.append(
                    f"JOIN {tab} w{i} ON w{i}.doc_id = w0.doc_id "
                    f"AND w{i}.pos = w0.pos + {i}"
                )
                conds.append(f"w{i}.term = '{pterms[i]}'")
            adj.append(
                f"SELECT DISTINCT w0.doc_id FROM {tab} w0 "
                + " ".join(joins)
                + " WHERE " + " AND ".join(conds)
            )
        phrase_filter = (
            " AND p.doc_id IN (" + " UNION ".join(adj) + ")"
        )
    return f"""
    SELECT {qcol}p.doc_id,
           ROUND(SUM(p.p) / ANY_VALUE(l.doc_len), 9) AS score
    FROM (
        SELECT t.doc_id,
               (0.9 * t.title_tf + 0.1 * t.body_tf)
               * LOG10(CAST(nn.n AS DOUBLE) / d.df) / m.tf_max AS p
        FROM tf t, df d, tfmax m, nn
        WHERE t.term = d.term AND t.doc_id = m.doc_id
          AND t.term IN ({terms_in})
    ) p JOIN doclen l ON p.doc_id = l.doc_id
    WHERE TRUE{phrase_filter}
    GROUP BY p.doc_id
    """


def _stemmed_search_sql(sf_dir: str) -> str:
    return _stemmed_score_ctes(sf_dir) + _stemmed_select(
        set(_STEMMED_WORDS), ()
    )


def _stemmed_conformance_sql(sf_dir: str) -> str:
    branches = [
        sel
        for qid, (words, phrase) in enumerate(_STEMMED_BATTERY)
        if (sel := _stemmed_select(words, phrase, qid=qid))
    ]
    return _stemmed_score_ctes(sf_dir) + " UNION ALL ".join(branches)


_STEMMED_WORDS = ("sparking", "merged", "windows")

#: conformance battery shared by the engine query AND the SQL mirror
_STEMMED_BATTERY = [
    ({"spark", "merge"}, ()),
    ({"window"}, ()),
    ({"batch", "stream", "join"}, ()),
    ({"batch"}, ("batch", "batch")),
    ({"fast", "key"}, ("fast", "key")),
    ({"the", "of"}, ()),
    ({"tables", "sorted", "filtering"}, ()),
    ({"doc", "42"}, ()),
]


def q_search_stemmed(sf_dir: str):
    """Full stemmed-engine TF-IDF result for the raw query words
    (stop-stem normalized engine-side).  SQL-oracle-checked: the
    oracle inlines the corpus's (raw → stemmed) vocabulary as a
    VALUES table (the stemmer is a pure function, so its lookup
    table over the finite vocabulary IS the stemmer — see
    ``_stemmed_score_ctes``).  Additionally self-verified doc-for-doc
    and score-for-score (1e-12) against the in-package literal
    oracle before returning."""
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.oracle import OracleIndex
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx = get_index(sf_dir, IndexConfig())
    s = Searcher(idx)
    words = set(_STEMMED_WORDS)

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    oi = OracleIndex()
    for did, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        oi.add_document(did, f"Doc {did}", text)
    orc = oi.search(words, ())
    full = s.search(words, k=10**9, hydrate=False)
    eng_map = dict(zip(full["doc_id"].tolist(), full["score"].tolist()))
    if set(eng_map) != set(orc):
        raise AssertionError(
            f"search_stemmed doc-set mismatch: {len(eng_map)} vs {len(orc)}"
        )
    worst = max(
        (abs(eng_map[d] - orc[d]) for d in orc if orc[d] == orc[d]), default=0.0
    )
    if worst > 1e-12:
        raise AssertionError(f"search_stemmed score mismatch: {worst}")
    full["score"] = np.round(full["score"], 9)
    return full[["doc_id", "score"]]


def q_stemmed_conformance(sf_dir: str):
    """Full stemmed engine over the ``_STEMMED_BATTERY``
    (keyword/phrase/stopword queries); returns
    (query_id, doc_id, score) rows for every battery entry.
    SQL-oracle-checked via the inlined vocabulary stem map (see
    ``_stemmed_conformance_sql``), and ADDITIONALLY asserted
    doc-for-doc and <=1e-12 score-for-score against the in-package
    literal Python oracle — any mismatch raises."""
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.oracle import OracleIndex
    from web_based_search_engine_ray.pipelines.search import Searcher

    idx = get_index(sf_dir, IndexConfig())
    s = Searcher(idx)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    oi = OracleIndex()
    for did, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        oi.add_document(did, f"Doc {did}", text)

    frames = []
    for qid, (words, phrase) in enumerate(_STEMMED_BATTERY):
        eng = s.search(words, list(phrase), k=10**9, hydrate=False)
        orc = oi.search(words, phrase)
        eng_map = dict(zip(eng["doc_id"].tolist(), eng["score"].tolist()))
        if set(eng_map) != set(orc):
            raise AssertionError(
                f"doc-set mismatch for {words}/{phrase}: "
                f"{len(eng_map)} vs {len(orc)}"
            )
        worst = max(
            (abs(eng_map[d] - orc[d]) for d in orc if orc[d] == orc[d]),
            default=0.0,
        )
        if worst > 1e-12:
            raise AssertionError(
                f"score mismatch for {words}/{phrase}: {worst}"
            )
        if len(eng):
            f = eng[["doc_id", "score"]].copy()
            f.insert(0, "query_id", qid)
            frames.append(f)
    out = (
        pd.concat(frames, ignore_index=True)
        if frames
        else pd.DataFrame(columns=["query_id", "doc_id", "score"])
    )
    out["score"] = np.round(out["score"], 9)
    out["query_id"] = out["query_id"].astype("int64")
    return out


def q_dedup_exact(sf_dir: str):
    from web_based_search_engine_ray.pipelines.dedup import exact_dedup

    kept = exact_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))
    return kept.select_columns(["doc_id"])


def q_jaccard_pairs(sf_dir: str):
    from web_based_search_engine_ray.pipelines.dedup import jaccard_dup_pairs

    pairs = jaccard_dup_pairs(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        k=3, threshold=0.5, max_shingle_df=10**9,
    ).to_pandas()
    pairs["jaccard"] = np.round(pairs["jaccard"], 6)
    return pairs[["doc_a", "doc_b", "jaccard"]]


def q_minhash_pairs(sf_dir: str):
    from web_based_search_engine_ray.pipelines.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        _docs(sf_dir).select_columns(["doc_id", "text"]), threshold=0.5
    ).to_pandas()
    pairs["est_jaccard"] = np.round(pairs["est_jaccard"], 6)
    return pairs[["doc_a", "doc_b", "est_jaccard"]]


def q_minhash_dedup(sf_dir: str):
    """End-to-end fuzzy dedup: MinHash-LSH pairs → distributed
    connected components (hash-min label propagation) → keep the
    min-id member per component."""
    from web_based_search_engine_ray.pipelines.dedup import (
        dedup_keep_min,
        minhash_lsh_pairs,
    )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.5)
    return dedup_keep_min(docs, pairs).select_columns(["doc_id"])


def q_simhash_pairs(sf_dir: str):
    from web_based_search_engine_ray.pipelines.dedup import simhash_pairs

    return simhash_pairs(
        _docs(sf_dir).select_columns(["doc_id", "text"]), max_hamming=8
    )


def q_embedding_dup_pairs(sf_dir: str):
    from web_based_search_engine_ray.pipelines.dedup import (
        embedding_dup_pairs_exact,
    )

    # the synthetic embeddings are near-orthogonal (max pairwise cosine
    # ≈ 0.48), so the "near-dup" threshold is set low enough to produce
    # a non-trivial pair set for the correctness check
    pairs = embedding_dup_pairs_exact(_embeddings(sf_dir), threshold=0.4).to_pandas()
    if pairs.empty:
        return pd.DataFrame(
            {"vec_a": pd.Series(dtype="int64"),
             "vec_b": pd.Series(dtype="int64"),
             "cosine": pd.Series(dtype="float64")}
        )
    pairs["cosine"] = np.round(pairs["cosine"], 6)
    return pairs[["vec_a", "vec_b", "cosine"]]


def q_ann_topk(sf_dir: str):
    from web_based_search_engine_ray.pipelines.similarity import brute_force_topk

    emb = _embeddings(sf_dir)
    qrows = (
        emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    )
    res = brute_force_topk(
        emb, np.asarray(qrows["embedding"].tolist()), k=10
    )
    res["cosine"] = np.round(res["cosine"], 6)
    return res[["query_id", "rank", "vec_id", "cosine"]]


_IVF_CLUSTERS = 8
_IVF_ITERS = 3
_IVF_NPROBE = 3


@functools.lru_cache(maxsize=4)
def _ivf_oracle_fingerprint(sf_dir: str) -> tuple:
    """(row count, sum(vec_id), sum of first embedding component) of the
    table the oracle centroids were trained on — inlined into the SQL so
    the oracle ERRORS (self-describing) instead of hash-mismatching when
    it runs against a different corpus than ``WBSE_ORACLE_SF_DIR`` (the
    ivf_ann analogue of the stemmed oracles' OOV guard)."""
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.util import embedding_matrix

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    mat = embedding_matrix(t["embedding"])
    return (
        t.num_rows,
        int(np.sum(t["vec_id"].to_numpy(zero_copy_only=False))),
        float(np.sum(mat[:, 0].astype(np.float64))),
    )


@functools.lru_cache(maxsize=4)
def _ivf_oracle_centroids(sf_dir: str) -> tuple:
    """Deterministic centroids shared by q_ivf_ann and its SQL oracle:
    ``similarity.deterministic_centroids`` on the embeddings table
    (sorted by vec_id, rounded to 9 dp — bit-identically recomputable
    in any process, so the SAME values get inlined in the SQL and
    handed to the engine)."""
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.pipelines.similarity import (
        deterministic_centroids,
    )
    from web_based_search_engine_ray.util import embedding_matrix

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cents = deterministic_centroids(
        t["vec_id"].to_numpy(zero_copy_only=False),
        embedding_matrix(t["embedding"]),
        _IVF_CLUSTERS,
        iters=_IVF_ITERS,
    )
    return tuple(map(tuple, cents))


def q_ivf_ann(sf_dir: str):
    """IVF-flat ANN, ORACLE-CHECKABLE: centroids come from the shared
    deterministic sample-trained fit (``_ivf_oracle_centroids`` — the
    production pattern of training IVF centroids offline), the engine
    runs the distributed assignment + cluster-partitioned store +
    probed search, and the SQL mirror recomputes assignment/probing/
    top-k from the SAME inlined centroid values.  The recall@10 gate
    vs exact brute force is KEPT as an in-process assertion."""
    from web_based_search_engine_ray.pipelines.similarity import (
        IvfIndex,
        brute_force_topk,
    )

    emb = _embeddings(sf_dir)
    qrows = emb.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    qv = np.asarray(qrows["embedding"].tolist())
    cents = np.asarray(_ivf_oracle_centroids(sf_dir), dtype=np.float64)
    idx = IvfIndex(centroids=cents).fit(emb)
    res = idx.search(qv, k=10, nprobe=_IVF_NPROBE)

    truth = brute_force_topk(emb, qv, k=10)
    hits = 0
    for qid in range(len(qv)):
        got = set(res.loc[res["query_id"] == qid, "vec_id"])
        exp = set(truth.loc[truth["query_id"] == qid, "vec_id"])
        hits += len(got & exp)
    recall = hits / max(1, len(truth))
    # near-orthogonal synthetic vectors have no cluster structure, so
    # nprobe=3/8 recall sits around 0.5; the gate catches breakage, not
    # tuning drift
    if recall < 0.3:
        raise AssertionError(f"ivf_ann recall@10 vs brute force: {recall}")
    res["cosine"] = np.round(res["cosine"], 6)
    return res[["query_id", "rank", "vec_id", "cosine"]]


def q_token_count(sf_dir: str):
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        token_count_batch,
    )

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow"
    )


def q_quality(sf_dir: str):
    from web_based_search_engine_ray.pipelines.text_pipeline import quality_batch

    res = (
        _docs(sf_dir)
        .select_columns(["doc_id", "text"])
        .map_batches(quality_batch, batch_format="pyarrow")
        .to_pandas()
    )
    # floor-scale instead of ROUND: np.round is half-to-even while
    # DuckDB ROUND is half-away, and the dyadic ratios here (e.g.
    # 105/128 = 0.8203125) land exactly on rounding ties.  floor of the
    # identical float64 product is tie-free on both sides.
    for c in ("alpha_ratio", "digit_ratio", "space_ratio"):
        res[c] = np.floor(res[c] * 1e6) / 1e6
    return res[["doc_id", "n_chars", "alpha_ratio", "digit_ratio", "space_ratio"]]


def q_repetition(sf_dir: str):
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        repetition_stats_batch,
    )

    res = (
        _docs(sf_dir)
        .select_columns(["doc_id", "text"])
        .map_batches(repetition_stats_batch, batch_format="pyarrow")
        .to_pandas()
    )
    # int/int ratios are bit-identical on both sides; floor-scale (not
    # round) for the same half-tie reason as `quality`
    for c in ("dup_bigram_frac", "top_bigram_frac"):
        res[c] = np.floor(res[c] * 1e6) / 1e6
    return res[
        ["doc_id", "n_tokens", "n_bigrams", "dup_bigram_frac",
         "top_bigram_frac"]
    ]


def q_top_bigrams(sf_dir: str):
    from web_based_search_engine_ray.pipelines.text_pipeline import top_bigrams

    return top_bigrams(
        _docs(sf_dir).select_columns(["doc_id", "text"]), k=20
    )


def q_clean_corpus(sf_dir: str):
    """End-to-end training-data cleaning funnel (langid → quality →
    repetition → exact dedup → MinHash fuzzy dedup) — the WHOLE
    composition has one value-exact SQL mirror."""
    from web_based_search_engine_ray.pipelines.clean import clean_corpus

    kept, _funnel = clean_corpus(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    )
    return kept


def _clean_corpus_sql() -> str:
    """Composed mirror of pipelines.clean.clean_corpus: every gate uses
    the RAW int/int float64 metric (identical bits on both sides), the
    exact-dedup keeps MIN(doc_id) per text, and the fuzzy stage reuses
    the minhash oracle parameterized over the survivor CTE plus the
    recursive-closure keep-min."""
    return f"""
        WITH RECURSIVE lang AS ({_lang_profile_sql()}),
        ctoks AS ({_BODY_TOKENS}),
        cbgr AS (
            SELECT a.doc_id, a.term AS w1, b.term AS w2
            FROM ctoks a JOIN ctoks b
              ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        ),
        ccnt AS (
            SELECT doc_id, w1, w2, COUNT(*) AS c
            FROM cbgr GROUP BY doc_id, w1, w2
        ),
        cagg AS (
            SELECT doc_id, SUM(c) AS nb,
                   SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup
            FROM ccnt GROUP BY doc_id
        ),
        survivors AS (
            SELECT d.doc_id, d.text
            FROM documents d
            JOIN lang l ON l.doc_id = d.doc_id
            LEFT JOIN cagg a ON a.doc_id = d.doc_id
            WHERE l.lang_pred IN ('en')
              AND length(d.text) >= 100
              AND (CASE WHEN length(d.text) = 0 THEN 0.0 ELSE
                     CAST(length(regexp_replace(d.text, '[^a-zA-Z]', '', 'g'))
                          AS DOUBLE) / length(d.text) END) >= 0.81
              AND (CASE WHEN a.nb > 0 THEN CAST(a.dup AS DOUBLE) / a.nb
                        ELSE 0.0 END) <= 0.12
        ),
        exact AS (
            SELECT MIN(doc_id) AS doc_id FROM survivors GROUP BY text
        ),
        kept AS (
            SELECT s.doc_id, s.text FROM survivors s
            JOIN exact e ON s.doc_id = e.doc_id
        ),
        prs AS ({_minhash_pairs_sql(source="kept")}),
        cedges AS (
            SELECT doc_a AS s, doc_b AS d FROM prs
            UNION
            SELECT doc_b, doc_a FROM prs
        ),
        reach(s, d) AS (
            SELECT s, d FROM cedges
            UNION
            SELECT r.s, e.d FROM reach r JOIN cedges e ON r.d = e.s
        ),
        dropped AS (
            SELECT s AS node FROM reach GROUP BY s HAVING MIN(d) < s
        )
        SELECT doc_id FROM kept
        WHERE doc_id NOT IN (SELECT node FROM dropped)
    """


def q_hll_distinct(sf_dir: str):
    """Approximate distinct-token count via the HyperLogLog sketch,
    ORACLE-CHECKABLE: the register array is a pure function of the
    fnv1a63+splitmix64 hash family, which the SQL mirror recomputes
    bit-exactly (HUGEINT modular arithmetic), so the ESTIMATE itself
    hash-matches.  The ≤2% relative-error gate vs the exact count is
    KEPT as an in-process assertion."""
    import pyarrow as pa

    from web_based_search_engine_ray.functions.tokenize import TOKEN_RE
    from web_based_search_engine_ray.pipelines.sketches import hll_distinct

    def toks(batch: pa.Table) -> pa.Table:
        out = [
            t.lower()
            for txt in batch["text"].to_pylist()
            for t in TOKEN_RE.split(txt)
            if t
        ]
        return pa.table({"tok": pa.array(out, type=pa.string())})

    tokens = (
        _docs(sf_dir).select_columns(["text"])
        .map_batches(toks, batch_format="pyarrow")
    )
    r = hll_distinct(tokens, "tok", p=14)
    exact = len(
        np.unique(tokens.to_pandas()["tok"].to_numpy())
    )
    rel_err = abs(r["estimate"] / max(exact, 1) - 1.0)
    if rel_err > 0.02:  # explicit raise: survives `python -O`
        raise AssertionError(
            f"HLL estimate {r['estimate']:.1f} vs exact {exact}: "
            f"rel err {rel_err:.4f} > 0.02"
        )
    return pd.DataFrame(
        {
            # rounded: the register set is bit-exact both sides, but the
            # estimator's 16384-term float sum associates differently
            "distinct_est": pd.Series(
                [np.round(r["estimate"], 4)], dtype="float64"
            ),
            "distinct_exact": pd.Series([exact], dtype="int64"),
        }
    )


class _DocProfileStage:
    """Actor-pool stage fusing the two per-doc annotators — md5
    fingerprint (``text_pipeline.fingerprint_batch``) and heuristic
    language ID (``text_pipeline.LangIdHeuristic``) — into ONE pass
    over the text column (both kernels see the same batch, so the
    outputs zip positionally with no join)."""

    def __init__(self):
        from web_based_search_engine_ray.pipelines.text_pipeline import (
            LangIdHeuristic,
        )

        self.langid = LangIdHeuristic()

    def __call__(self, batch):
        from web_based_search_engine_ray.pipelines.text_pipeline import (
            fingerprint_batch,
        )

        fp = fingerprint_batch(batch)
        li = self.langid(batch)
        return fp.append_column(
            "lang_pred", li["lang_pred"]
        ).append_column("lang_conf", li["lang_conf"])


def q_doc_profile(sf_dir: str):
    """Per-doc fingerprint + language-ID annotations in one
    driver-visible query (one fused actor-pool pass)."""
    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        _DocProfileStage, batch_format="pyarrow", concurrency=(1, 4)
    )


def q_lang_dist(sf_dir: str):
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        lang_distribution,
    )

    return lang_distribution(_docs(sf_dir).select_columns(["lang"]))


def q_windowed_events(sf_dir: str):
    """Both window operators in ONE driver-visible query: tumbling
    hourly aggregation (``events.hourly_window_agg``) and 60-min/15-min
    sliding windows (``events.sliding_window_agg``), discriminated by a
    ``kind`` column (``mean_value`` is NaN on the sliding rows, which
    don't define it)."""
    from web_based_search_engine_ray.pipelines.events import (
        hourly_window_agg,
        sliding_window_agg,
    )

    h = hourly_window_agg(_events(sf_dir)).to_pandas()
    h["sum_value"] = np.round(h["sum_value"], 6)
    h["mean_value"] = np.round(h["mean_value"], 6)
    h.insert(0, "kind", "hourly")
    s = sliding_window_agg(
        _events(sf_dir), size_minutes=60, step_minutes=15
    ).to_pandas()
    s["sum_value"] = np.round(s["sum_value"], 6)
    s.insert(0, "kind", "sliding")
    s["mean_value"] = np.nan
    cols = ["kind", "window_start", "event_type", "n_events",
            "sum_value", "mean_value"]
    return pd.concat([h[cols], s[cols]], ignore_index=True)


def q_sessionize(sf_dir: str):
    from web_based_search_engine_ray.pipelines.events import sessionize

    res = sessionize(_events(sf_dir), gap_minutes=30).to_pandas()
    res["sum_value"] = np.round(res["sum_value"], 6)
    return res[["user_id", "session_start", "session_end", "n_events", "sum_value"]]


def q_top_users(sf_dir: str):
    from web_based_search_engine_ray.pipelines.events import top_users_by_value

    res = top_users_by_value(_events(sf_dir), k=20).to_pandas()
    res["total_value"] = np.round(res["total_value"], 6)
    return res[["user_id", "total_value"]]


def q_lineitem_agg(sf_dir: str):
    """Relational breadth demo: pre-aggregated groupby (combiner
    pattern) over lineitem."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def pre(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "l_extendedprice": batch["l_extendedprice"],
                "disc_price": disc,
            }
        )
        # count_all = COUNT(*) row semantics; columns picked by NAME
        # (aggregate output order is a pyarrow implementation detail)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("l_quantity", "sum"),
                ("l_extendedprice", "sum"),
                ("disc_price", "sum"),
                ([], "count_all"),
            ]
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "l_linestatus": g["l_linestatus"],
                "sum_qty": g["l_quantity_sum"],
                "sum_base": g["l_extendedprice_sum"],
                "sum_disc": g["disc_price_sum"],
                "n_rows": g["count_all"],
            }
        )

    agg = (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base", alias_name="sum_base_price"),
            Sum("sum_disc", alias_name="sum_disc_price"),
            Sum("n_rows", alias_name="count_order"),
        )
    ).to_pandas()
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        agg[c] = np.round(agg[c], 2)
    return agg


def q_orders_join(sf_dir: str):
    """Broadcast join (small side via ray.put) + grouped sum: revenue
    per market segment."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    seg_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def join(batch: pa.Table) -> pa.Table:
        seg = ray.get(seg_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(ck, return_inverse=True)
        seg_u = np.array(
            [seg.get(int(c), "UNKNOWN") for c in uniq], dtype=object
        )
        t = pa.table(
            {
                "c_mktsegment": pa.array(seg_u[inv], type=pa.string()),
                "part": batch["o_totalprice"],
            }
        )
        g = t.group_by("c_mktsegment").aggregate([("part", "sum")])
        return pa.table(
            {"c_mktsegment": g["c_mktsegment"], "part": g["part_sum"]}
        )

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    res = (
        orders.map_batches(join, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("part", alias_name="revenue"))
    ).to_pandas()
    res["revenue"] = np.round(res["revenue"], 2)
    return res[["c_mktsegment", "revenue"]]


def q_media_features(sf_dir: str):
    """Rows-only: multimodal plumbing over the corpus html blobs
    (deterministic fake decoder — see pipelines.multimodal)."""
    from web_based_search_engine_ray.pipelines.multimodal import media_pipeline
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    ds = synth_corpus(sf_dir).select_columns(["doc_id", "html"])
    out = media_pipeline(ds, payload_col="html", batch_size=64)
    return out.select_columns(["doc_id", "width", "height"])


def q_sampling_suite(sf_dir: str):
    """All three deterministic sampling operators in ONE driver-visible
    query (the per-round correctness file caps at 50 entries): 90/5/5
    ``assign_split``, 10% ``sample_fraction``, and per-language
    ``stratified_sample`` (10% en, 50% fr, 100% zh, 25% default) — each
    a pure hash-gate function of (doc_id, salt), chained as three
    streaming ``map_batches`` with the gates emitted as columns
    (``mark=``), no shuffle (``pipelines.sampling``)."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.sampling import (
        assign_split,
        sample_fraction,
        stratified_sample,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = assign_split(
        ds, {"train": 0.9, "val": 0.05, "test": 0.05}, salt="v1"
    )
    out = sample_fraction(out, 0.1, salt="v1", mark="in_10pct")
    out = stratified_sample(
        out,
        {"en": 0.1, "fr": 0.5, "zh": 1.0},
        strata_col="lang",
        salt="v1",
        default=0.25,
        mark="strat_kept",
    )
    return out.select_columns(
        ["doc_id", "split", "in_10pct", "strat_kept"]
    )


_DECON_N = 8


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs sharing any 8-gram with the
    'benchmark' subset (every 50th doc) are flagged — broadcast
    sorted-hash membership, no corpus shuffle
    (``pipelines.decontaminate``)."""
    import pyarrow as pa

    from web_based_search_engine_ray.pipelines.decontaminate import (
        benchmark_ngram_hashes,
        decontaminate,
    )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def bench_only(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 50 == 0))

    bench = docs.map_batches(bench_only, batch_format="pyarrow")
    hashes = benchmark_ngram_hashes(bench, n=_DECON_N)
    return decontaminate(
        docs, hashes, n=_DECON_N, action="flag"
    ).select_columns(["doc_id", "contaminated"])


_CHUNK_TOKENS = 16


def q_chunk_dedup(sf_dir: str):
    """C4-style corpus-wide chunk dedup (keep globally-first occurrence
    of every 16-token chunk, reassemble docs) —
    ``pipelines.chunk_dedup``."""
    from web_based_search_engine_ray.pipelines.chunk_dedup import chunk_dedup

    return chunk_dedup(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        chunk_tokens=_CHUNK_TOKENS,
    )


_QUANTILE_QS = [0.5, 0.9, 0.99]


def q_lang_length_quantiles(sf_dir: str):
    """Exact P50/P90/P99 of doc length, BOTH per-language (grouped
    distinct-value-exchange operator,
    ``pipelines.stats.grouped_quantiles``) and corpus-wide
    (``pipelines.stats.exact_quantiles``, reported as group
    ``__all__``) — one driver-visible query covering both quantile
    operators."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.stats import (
        exact_quantiles,
        grouped_quantiles,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    grouped = grouped_quantiles(ds, "n_chars", "lang", _QUANTILE_QS)
    overall = exact_quantiles(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["n_chars"]),
        "n_chars",
        _QUANTILE_QS,
    )
    overall.insert(0, "group", "__all__")
    return pd.concat([grouped, overall], ignore_index=True)


def _lang_length_quantiles_sql() -> str:
    """Per-language quantiles UNION'd with the corpus-wide quantiles as
    group ``__all__`` (mirrors both stats operators in one query)."""
    qs_rows = ", ".join(f"(CAST({q} AS DOUBLE))" for q in _QUANTILE_QS)
    return f"""
        WITH vc AS (
            SELECT lang, n_chars AS value, COUNT(*) AS c
            FROM documents GROUP BY lang, n_chars
        ),
        cum AS (
            SELECT lang, value,
                   SUM(c) OVER (PARTITION BY lang ORDER BY value) AS cumc
            FROM vc
        ),
        tot AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
        avc AS (
            SELECT n_chars AS value, COUNT(*) AS c
            FROM documents GROUP BY n_chars
        ),
        acum AS (
            SELECT value, SUM(c) OVER (ORDER BY value) AS cumc FROM avc
        ),
        atot AS (SELECT COUNT(*) AS n FROM documents),
        qs(q) AS (VALUES {qs_rows})
        SELECT t.lang AS "group", q.q AS q,
               (SELECT MIN(c.value) FROM cum c
                WHERE c.lang = t.lang AND c.cumc >= CEIL(q.q * t.n))
                   AS value,
               t.n AS n_rows
        FROM tot t CROSS JOIN qs q
        UNION ALL
        SELECT '__all__' AS "group", q.q AS q,
               (SELECT MIN(c.value) FROM acum c
                WHERE c.cumc >= CEIL(q.q * (SELECT n FROM atot)))
                   AS value,
               (SELECT n FROM atot) AS n_rows
        FROM qs q
    """


_HIST_BINS = 4096


def q_value_quantiles_sketch(sf_dir: str):
    """Approximate P50/P90/P99 of the CONTINUOUS events.value column
    via the deterministic fixed-grid histogram sketch
    (``pipelines.stats.histogram_quantiles`` — the scale path the
    exact-quantile guards point at; error ≤ one bucket width, and the
    grid arithmetic is mirrored exactly in SQL so the sketch is
    oracle-checkable, unlike a randomized KLL/t-digest)."""
    from web_based_search_engine_ray.pipelines.stats import (
        histogram_quantiles,
    )

    ev = _events(sf_dir).select_columns(["value"])
    return histogram_quantiles(ev, "value", _QUANTILE_QS, bins=_HIST_BINS)


def _value_quantiles_sketch_sql() -> str:
    qs_rows = ", ".join(f"(CAST({q} AS DOUBLE))" for q in _QUANTILE_QS)
    b = _HIST_BINS
    return f"""
        WITH mm AS (
            SELECT MIN(value) AS mn, MAX(value) AS mx FROM events
        ),
        grid AS (
            SELECT mn, CASE WHEN mx > mn THEN (mx - mn) / {b}
                            ELSE 1.0 END AS width
            FROM mm
        ),
        bk AS (
            SELECT LEAST(CAST(FLOOR((e.value - g.mn) / g.width)
                              AS BIGINT), {b} - 1) AS bucket
            FROM events e, grid g
        ),
        vc AS (SELECT bucket, COUNT(*) AS c FROM bk GROUP BY bucket),
        cum AS (
            SELECT bucket, SUM(c) OVER (ORDER BY bucket) AS cumc
            FROM vc
        ),
        tot AS (SELECT COUNT(*) AS n FROM events),
        qs(q) AS (VALUES {qs_rows})
        SELECT q.q AS q,
               ROUND((SELECT ANY_VALUE(g.mn)
                             + ANY_VALUE(g.width) * (MIN(c.bucket) + 1)
                      FROM cum c, grid g, tot
                      WHERE c.cumc >= CEIL(q.q * tot.n)), 9) AS value,
               (SELECT n FROM tot) AS n_rows
        FROM qs q
    """


def q_corpus_stats(sf_dir: str):
    """Corpus composition profile per (lang, source): doc count, total
    and mean chars — pre-aggregated combiner + small groupby
    (``pipelines.stats.corpus_stats``)."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.stats import corpus_stats

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["lang", "source", "n_chars"],
    )
    return corpus_stats(ds)


def q_redact(sf_dir: str):
    """PII redaction (emails/IPv4/phones → placeholders, counted) —
    vectorized RE2 kernels, ``pipelines.redact``."""
    from web_based_search_engine_ray.pipelines.redact import redact

    return redact(
        _docs(sf_dir).select_columns(["doc_id", "text"])
    ).select_columns(
        ["doc_id", "text_redacted", "n_email", "n_ipv4", "n_phone"]
    )


def q_lm_score(sf_dir: str):
    """Unigram-LM quality score (CCNet-shape perplexity filter): fit
    token counts corpus-wide, broadcast the model once, score every doc
    in one streaming pass — ``pipelines.lm_score``."""
    from web_based_search_engine_ray.pipelines.lm_score import (
        fit_unigram,
        score_unigram,
    )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    model = fit_unigram(docs)
    res = score_unigram(docs, model).to_pandas()
    # floor-scale (like q_quality/q_repetition), not round(): the two
    # sides sum token log-probs in different orders, and ROUND's
    # half-boundary behaviour could diverge on an exact .5e-9 grid hit
    res["lm_score"] = np.floor(res["lm_score"] * 1e6) / 1e6
    return res


def q_profile_suite(sf_dir: str):
    """All three corpus-profile operators in ONE driver-visible query
    (long form ``(section, k1, k2, ival, dval)`` so one hash check
    covers them): top-5 tokens per language
    (``profile.top_terms_per_group``), per-source exact-duplicate
    profile (``profile.dup_rate_by_group``), and per-label embedding
    centroids (``profile.label_centroids``).  Each pipeline keeps its
    own combiner+small-groupby scale shape; only the already-tiny
    RESULTS (O(groups) rows) are reshaped driver-side."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.profile import (
        dup_rate_by_group,
        label_centroids,
        top_terms_per_group,
    )

    tt = top_terms_per_group(
        _docs(sf_dir).select_columns(["lang", "text"]), group_col="lang",
        k=5,
    ).to_pandas()
    dr = dup_rate_by_group(
        _docs(sf_dir).select_columns(["source", "text"])
    ).to_pandas()
    lc = label_centroids(
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
        )
    ).to_pandas()

    def rows(section, k1, k2, val):
        n = len(k1)
        return pd.DataFrame(
            {
                "section": pd.Series([section] * n, dtype=object),
                "k1": pd.Series(np.asarray(k1, dtype=object)),
                "k2": pd.Series(
                    np.asarray(k2, dtype=object) if not isinstance(k2, str)
                    else [k2] * n
                ),
                "val": pd.Series(val, dtype="float64").reset_index(
                    drop=True
                ),
            }
        )

    out = pd.concat(
        [
            rows("top_terms", tt["lang"], tt["term"],
                 tt["n"].astype("float64")),
            rows("dup_docs", dr["source"], "",
                 dr["n_docs"].astype("float64")),
            rows("dup_unique", dr["source"], "",
                 dr["n_unique"].astype("float64")),
            rows("dup_rate", dr["source"], "", dr["dup_rate"]),
            rows("centroid", lc["label"].astype(str),
                 lc["dim"].astype(str), lc["centroid"]),
        ],
        ignore_index=True,
    )
    return out


_PNM_W = 16
_PNM_H = 16


def q_media_real(sf_dir: str):
    """REAL image decode through the registry seam: a deterministic
    binary PGM gradient is synthesized per doc (payload byte i =
    ``(doc_id + i) % 256``), decoded by the stdlib ``pnm`` decoder in
    the actor-pool media pipeline, and the decoded luma math is
    mirrored closed-form in SQL."""
    import pyarrow as pa

    from web_based_search_engine_ray.pipelines.multimodal import (
        media_pipeline,
    )

    w, h = _PNM_W, _PNM_H
    header = b"P5 %d %d 255\n" % (w, h)

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        base = np.arange(w * h, dtype=np.int64)
        payloads = [
            header + ((int(i) + base) % 256).astype(np.uint8).tobytes()
            for i in ids
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    media = _docs(sf_dir).select_columns(["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    out = media_pipeline(media, decoder="pnm", batch_size=64)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "width": pa.compute.cast(batch["width"], pa.int64()),
                "height": pa.compute.cast(batch["height"], pa.int64()),
                "channels": pa.compute.cast(
                    batch["channels"], pa.int64()
                ),
                "mean_luma": pa.compute.round(
                    batch["mean_luma"], ndigits=9
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


_SEQ_W = _SEQ_H = 8   # frame size of the synthesized PGM sequence
_SEQ_FRAMES = 6
_SEQ_STRIDE = 2


def q_media_frames(sf_dir: str):
    """REAL video-shaped frame sampling through the registry seam:
    each doc gets a sequence of ``_SEQ_FRAMES`` concatenated binary
    PGM frames (frame ``f`` pixel ``i`` = ``(doc_id + 7f + i) % 256``),
    decoded by the stdlib ``pnmseq`` decoder (parse frames, keep every
    ``_SEQ_STRIDE``-th, per-frame mean luma features); the sampled
    mean-luma math is mirrored closed-form in SQL."""
    import pyarrow as pa

    from web_based_search_engine_ray.pipelines.multimodal import (
        PnmSeqDecoder,
        media_pipeline,
    )

    w, h, F = _SEQ_W, _SEQ_H, _SEQ_FRAMES
    header = b"P5 %d %d 255\n" % (w, h)
    n = w * h

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        base = np.arange(n, dtype=np.int64)
        payloads = []
        for d in ids:
            frames = b"".join(
                header
                + ((int(d) + 7 * f + base) % 256).astype(np.uint8).tobytes()
                for f in range(F)
            )
            payloads.append(frames)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    media = _docs(sf_dir).select_columns(["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    out = media_pipeline(
        media, decoder=lambda: PnmSeqDecoder(stride=_SEQ_STRIDE),
        batch_size=64,
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_frames": pa.compute.cast(batch["n_frames"], pa.int64()),
                "n_sampled": pa.compute.cast(
                    batch["n_sampled"], pa.int64()
                ),
                "width": pa.compute.cast(batch["width"], pa.int64()),
                "height": pa.compute.cast(batch["height"], pa.int64()),
                "mean_luma": pa.compute.round(
                    batch["mean_luma"], ndigits=9
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _media_frames_sql() -> str:
    n = _SEQ_W * _SEQ_H
    sampled = ", ".join(
        str(f) for f in range(0, _SEQ_FRAMES, _SEQ_STRIDE)
    )
    n_sampled = len(range(0, _SEQ_FRAMES, _SEQ_STRIDE))
    return f"""
        SELECT doc_id,
               CAST({_SEQ_FRAMES} AS BIGINT) AS n_frames,
               CAST({n_sampled} AS BIGINT) AS n_sampled,
               CAST({_SEQ_W} AS BIGINT) AS width,
               CAST({_SEQ_H} AS BIGINT) AS height,
               ROUND((SELECT AVG(CAST((doc_id + 7 * f.f + i.i) % 256
                                      AS DOUBLE))
                      FROM (SELECT unnest([{sampled}]) AS f) f,
                           (SELECT unnest(range({n})) AS i) i), 9)
                   AS mean_luma
        FROM documents
    """


_WAV_N = 800       # samples per synthesized clip
_WAV_RATE = 8000   # Hz → 0.1 s clips


def q_media_audio(sf_dir: str):
    """REAL audio decode through the registry seam: a deterministic
    16-bit PCM mono WAV is synthesized per doc (sample i =
    ``(doc_id*7 + i*13) % 4096 - 2048``), decoded by the stdlib
    ``wav`` decoder in the actor-pool media pipeline, and the decoded
    RMS math is mirrored closed-form in SQL (rms floor-scaled at 1e6
    on both sides — summation order differs)."""
    import io
    import wave

    import pyarrow as pa

    from web_based_search_engine_ray.pipelines.multimodal import (
        media_pipeline,
    )

    n, rate = _WAV_N, _WAV_RATE

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        i_arr = np.arange(n, dtype=np.int64)
        payloads = []
        for d in ids:
            samples = (
                (int(d) * 7 + i_arr * 13) % 4096 - 2048
            ).astype("<i2")
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(rate)
                w.writeframes(samples.tobytes())
            payloads.append(buf.getvalue())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    media = _docs(sf_dir).select_columns(["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    out = media_pipeline(media, decoder="wav", batch_size=64)

    def finish(batch: pa.Table) -> pa.Table:
        rms = batch["rms"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_channels": pa.compute.cast(
                    batch["n_channels"], pa.int64()
                ),
                "sample_rate": pa.compute.cast(
                    batch["sample_rate"], pa.int64()
                ),
                "duration_s": pa.compute.round(
                    batch["duration_s"], ndigits=9
                ),
                "rms": pa.array(np.floor(rms * 1e6) / 1e6),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _media_audio_sql() -> str:
    return f"""
        WITH s AS (
            SELECT d.doc_id,
                   ((d.doc_id * 7 + i.i * 13) % 4096 - 2048) / 32768.0
                       AS x
            FROM documents d,
                 (SELECT unnest(range({_WAV_N})) AS i) i
        )
        SELECT doc_id,
               CAST(1 AS BIGINT) AS n_channels,
               CAST({_WAV_RATE} AS BIGINT) AS sample_rate,
               ROUND({_WAV_N} / {_WAV_RATE}.0, 9) AS duration_s,
               FLOOR(SQRT(AVG(x * x)) * 1e6) / 1e6 AS rms
        FROM s GROUP BY doc_id
    """


def _media_real_sql() -> str:
    n = _PNM_W * _PNM_H
    return f"""
        SELECT doc_id,
               {_PNM_W} AS width, {_PNM_H} AS height, 1 AS channels,
               ROUND((SELECT AVG(CAST((doc_id + i) % 256 AS DOUBLE))
                      FROM (SELECT unnest(range({n})) AS i)), 9)
                   AS mean_luma
        FROM documents
    """


#: (lo, hi, band) intervals shared by the engine query AND the SQL
#: VALUES mirror — half-open [lo, hi)
_VALUE_BANDS = [
    (0.0, 5.0, "low"),
    (5.0, 20.0, "mid"),
    (20.0, 100.0, "high"),
    (100.0, 1000000.0, "extreme"),
]


def _band_values_sql() -> str:
    return ", ".join(
        f"({lo!r}, {hi!r}, '{b}')" for lo, hi, b in _VALUE_BANDS
    )


def q_value_bands(sf_dir: str):
    """Broadcast range join: classify every event's value into a small
    interval table (``pipelines.joins.broadcast_range_join`` — the
    small side is ``ray.put`` once, each batch does one vectorized
    searchsorted; no shuffle).  Oracle: LEFT JOIN ON a VALUES interval
    table."""
    from web_based_search_engine_ray.pipelines.joins import (
        broadcast_range_join,
    )

    ranges = pd.DataFrame(
        [{"lo": lo, "hi": hi, "band": b} for lo, hi, b in _VALUE_BANDS]
    )
    ev = _events(sf_dir).select_columns(["event_id", "value"])
    return broadcast_range_join(ev, ranges, on="value", suffix="")


def q_top_events_per_user(sf_dir: str):
    """Window rank without a global sort: top-3 events per user by
    (value desc, event_id asc) — ``pipelines.events.top_k_per_group``
    (one hash-bucket shuffle + whole-bucket lexsort).  Oracle:
    ``QUALIFY ROW_NUMBER()``."""
    from web_based_search_engine_ray.pipelines.events import top_k_per_group

    ev = _events(sf_dir).select_columns(["event_id", "user_id", "value"])
    return top_k_per_group(
        ev, group_col="user_id", order_col="value", k=3,
        tie_col="event_id",
    )


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-shaped semantic dedup: within-group cosine ≥ τ pairs
    (group = the ``label`` column, standing in for a k-means cluster
    id) → connected components → keep-min — the survivors' vec_ids.
    Oracle: per-label O(g²) cosine join + recursive closure."""
    from web_based_search_engine_ray.pipelines.dedup import semantic_dedup

    emb = _embeddings(sf_dir)
    return semantic_dedup(
        emb, group_col="label", threshold=0.3
    ).select_columns(["vec_id"])


def q_asof_attribution(sf_dir: str):
    """Event attribution via the as-of join (``pipelines.joins``):
    for every click, the user's most recent prior-or-same-instant view
    (backward as-of, exact matches allowed), plus the gap in seconds.
    Oracle: DuckDB's native ``ASOF LEFT JOIN``.  (user_id, ts) pairs
    are unique in the synthetic events table, so the join is
    deterministic without a tie-break dedup."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from web_based_search_engine_ray.pipelines.joins import asof_join

    ev = _events(sf_dir).select_columns(["event_id", "ts", "user_id",
                                         "event_type"])
    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"]
    )

    def as_views(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "view_id": b["event_id"],
                "user_id": b["user_id"],
                "ts": b["ts"],
                "view_ts": b["ts"],
            }
        )

    views = ev.filter(expr="event_type == 'view'").map_batches(
        as_views, batch_format="pyarrow"
    )
    joined = asof_join(clicks, views, on="ts", by="user_id", suffix="")

    def gap(b: pa.Table) -> pa.Table:
        d = pc.cast(
            pc.subtract(b["ts"], b["view_ts"]), pa.duration("us")
        )
        return b.append_column(
            "gap_s",
            pc.divide(pc.cast(d, pa.int64()), pa.scalar(1_000_000.0)),
        )

    return joined.map_batches(gap, batch_format="pyarrow")


_PACK_BUDGET = 512
_PACK_SHARDS = 4


def q_pack_docs(sf_dir: str):
    """Greedy token-budget sequence packing per doc-id shard (the
    training-export operator, ``pipelines.packing``); invariants also
    asserted in-process before returning."""
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.packing import (
        pack_sequences,
        verify_packing,
    )

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = pack_sequences(
        ds, _PACK_BUDGET, num_shards=_PACK_SHARDS
    ).to_pandas()
    verify_packing(out, _PACK_BUDGET)
    return out[["doc_id", "shard", "pack", "token_count"]]


# ------------------------------------------------------------------ registry
def queries():
    return {
        "extract_text": q_extract_text,
        "term_df": q_term_df,
        "doc_stats": q_doc_stats,
        "tfidf_search": q_tfidf_search,
        "bm25_search": q_bm25_search,
        "phrase_search": q_phrase_search,
        "link_edges": q_link_edges,
        "pagerank": q_pagerank,
        "docmeta": q_docmeta,
        "search_stemmed": q_search_stemmed,
        "stemmed_conformance": q_stemmed_conformance,
        "dedup_exact": q_dedup_exact,
        "jaccard_pairs": q_jaccard_pairs,
        "minhash_pairs": q_minhash_pairs,
        "minhash_dedup": q_minhash_dedup,
        "simhash_pairs": q_simhash_pairs,
        "embedding_dup_pairs": q_embedding_dup_pairs,
        "ann_topk": q_ann_topk,
        "ivf_ann": q_ivf_ann,
        "token_count": q_token_count,
        "quality": q_quality,
        "repetition": q_repetition,
        "top_bigrams": q_top_bigrams,
        "hll_distinct": q_hll_distinct,
        "clean_corpus": q_clean_corpus,
        "doc_profile": q_doc_profile,
        "lang_dist": q_lang_dist,
        "windowed_events": q_windowed_events,
        "sessionize": q_sessionize,
        "top_users": q_top_users,
        "lineitem_agg": q_lineitem_agg,
        "orders_join": q_orders_join,
        "media_features": q_media_features,
        "media_real": q_media_real,
        "media_audio": q_media_audio,
        "media_frames": q_media_frames,
        "asof_attribution": q_asof_attribution,
        "semantic_dedup": q_semantic_dedup,
        "value_bands": q_value_bands,
        "top_events_per_user": q_top_events_per_user,
        "lang_length_quantiles": q_lang_length_quantiles,
        "value_quantiles_sketch": q_value_quantiles_sketch,
        "profile_suite": q_profile_suite,
        "sampling_suite": q_sampling_suite,
        "decontaminate": q_decontaminate,
        "chunk_dedup": q_chunk_dedup,
        "corpus_stats": q_corpus_stats,
        "redact": q_redact,
        "lm_score": q_lm_score,
        "pack_docs": q_pack_docs,
    }


def self_verified() -> dict[str, str]:
    """The queries without a SQL oracle (each would carry the
    in-process assertion that gates its result).  EMPTY as of round 5:
    the last two approximate queries (``ivf_ann``, ``hll_distinct``)
    gained exact SQL mirrors — deterministic inlined centroids and a
    bit-exact HUGEINT hash recomputation — while KEEPING their
    in-process recall/error gates."""
    return {}


_MERSENNE61 = (1 << 61) - 1


def _lang_profile_sql() -> str:
    """CASE/GREATEST mirror of pipelines.text_pipeline.LangIdHeuristic
    (tie-break = first language in en,de,fr,es order, strict >)."""
    from web_based_search_engine_ray.pipelines.text_pipeline import (
        _LANG_PROFILES,
    )

    def inlist(lang):
        return ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES[lang]))

    toks = _TOKS.format(s="text")
    return f"""
        WITH toks AS (
            SELECT doc_id, lower(unnest({toks})) AS tok FROM documents
        ),
        counts AS (
            SELECT doc_id, COUNT(*) AS n,
                SUM(CASE WHEN tok IN ({inlist('en')}) THEN 1 ELSE 0 END) AS h_en,
                SUM(CASE WHEN tok IN ({inlist('de')}) THEN 1 ELSE 0 END) AS h_de,
                SUM(CASE WHEN tok IN ({inlist('fr')}) THEN 1 ELSE 0 END) AS h_fr,
                SUM(CASE WHEN tok IN ({inlist('es')}) THEN 1 ELSE 0 END) AS h_es
            FROM toks GROUP BY doc_id
        )
        SELECT d.doc_id,
            CASE WHEN c.doc_id IS NULL
                      OR GREATEST(h_en, h_de, h_fr, h_es) = 0 THEN 'und'
                 WHEN h_en >= h_de AND h_en >= h_fr AND h_en >= h_es THEN 'en'
                 WHEN h_de >= h_fr AND h_de >= h_es THEN 'de'
                 WHEN h_fr >= h_es THEN 'fr'
                 ELSE 'es' END AS lang_pred,
            CASE WHEN c.doc_id IS NULL THEN 0.0
                 ELSE CAST(GREATEST(h_en, h_de, h_fr, h_es) AS DOUBLE) / c.n
                 END AS lang_conf
        FROM documents d LEFT JOIN counts c ON d.doc_id = c.doc_id
    """


def _simhash_pairs_sql(max_hamming: int = 8) -> str:
    """Mirror of pipelines.dedup.simhash_pairs: 64-bit tf-weighted
    simhash from md5 token hashes, 4×16-bit band LSH (a pair is emitted
    iff it shares at least one exact band) + Hamming ≤ t."""
    toks = _TOKS.format(s="text")
    return f"""
        WITH toks AS (
            SELECT doc_id, lower(unnest({toks})) AS tok FROM documents
        ),
        tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM toks GROUP BY doc_id, tok),
        th AS (
            SELECT doc_id, tf,
                   CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS h
            FROM tf
        ),
        bits AS (
            SELECT doc_id, b.b AS bit,
                   SUM(CASE WHEN (h >> b.b) & 1 = 1 THEN tf ELSE -tf END) AS acc
            FROM th, (SELECT unnest(range(64)) AS b) b
            GROUP BY doc_id, b.b
        ),
        bands AS (
            SELECT doc_id, bit // 16 AS band,
                   SUM(CASE WHEN acc > 0
                            THEN (CAST(1 AS BIGINT) << CAST(bit % 16 AS INTEGER))
                            ELSE 0 END) AS bval
            FROM bits GROUP BY doc_id, bit // 16
        ),
        docbands AS (
            SELECT d.doc_id,
                COALESCE(MAX(CASE WHEN band = 0 THEN bval END), 0) AS b0,
                COALESCE(MAX(CASE WHEN band = 1 THEN bval END), 0) AS b1,
                COALESCE(MAX(CASE WHEN band = 2 THEN bval END), 0) AS b2,
                COALESCE(MAX(CASE WHEN band = 3 THEN bval END), 0) AS b3
            FROM documents d LEFT JOIN bands ON d.doc_id = bands.doc_id
            GROUP BY d.doc_id
        )
        SELECT doc_a, doc_b, hamming FROM (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(bit_count(xor(a.b0, b.b0)) + bit_count(xor(a.b1, b.b1))
                      + bit_count(xor(a.b2, b.b2)) + bit_count(xor(a.b3, b.b3))
                      AS BIGINT) AS hamming,
                   (a.b0 = b.b0 OR a.b1 = b.b1 OR a.b2 = b.b2 OR a.b3 = b.b3)
                       AS shares_band
            FROM docbands a JOIN docbands b ON a.doc_id < b.doc_id
        ) WHERE shares_band AND hamming <= {max_hamming}
    """


def _minhash_pairs_sql(source: str = "documents") -> str:
    """Mirror of pipelines.dedup.minhash_lsh_pairs (k=3, 64 perms, 16
    bands of 4 rows, threshold 0.5): md5 token hashes → polynomial
    shingle fold mod 2^61-1 → per-permutation min → pairs sharing ≥1
    exact band with ≥32/64 agreeing permutations.  The permutation
    constants are the engine's seeded values, inlined.  (The engine
    buckets by an FNV mix of the band values — collision probability is
    ~2^-64, so exact band equality is the oracle contract.)

    ``source``: relation with (doc_id, text) to dedup over — the
    documents view by default, or an outer CTE name (composition, e.g.
    the clean_corpus survivor set)."""
    from web_based_search_engine_ray.pipelines.dedup import (
        SHINGLE_BASE,
        MinHasher,
    )

    mh = MinHasher(k=3, num_perm=64, seed=42)
    perm_rows = ", ".join(
        f"({i}, {int(a)}, {int(b)})"
        for i, (a, b) in enumerate(zip(mh.a, mh.b))
    )
    toks = _TOKS.format(s="text")
    p = _MERSENNE61
    A = SHINGLE_BASE
    return f"""
        WITH perms(perm, pa, pb) AS (VALUES {perm_rows}),
        toks AS (
            SELECT doc_id, lower(unnest({toks})) AS tok,
                   unnest(range(len({toks}))) AS pos
            FROM {source}
        ),
        th AS (
            SELECT doc_id, pos,
                   CAST(CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT)
                        % {p} AS BIGINT) AS h
            FROM toks
        ),
        nt AS (SELECT doc_id, COUNT(*) AS n FROM th GROUP BY doc_id),
        sh3 AS (
            SELECT a.doc_id,
                   CAST((CAST((CAST(a.h AS HUGEINT) * {A} + b.h) % {p} AS HUGEINT)
                         * {A} + c.h) % {p} AS BIGINT) AS x
            FROM th a
            JOIN th b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            JOIN th c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2
            JOIN nt ON nt.doc_id = a.doc_id AND nt.n >= 3
        ),
        sh2 AS (
            SELECT a.doc_id,
                   CAST((CAST(a.h AS HUGEINT) * {A} + b.h) % {p} AS BIGINT) AS x
            FROM th a
            JOIN th b ON a.doc_id = b.doc_id AND a.pos = 0 AND b.pos = 1
            JOIN nt ON nt.doc_id = a.doc_id AND nt.n = 2
        ),
        sh1 AS (
            SELECT th.doc_id, th.h AS x
            FROM th JOIN nt ON nt.doc_id = th.doc_id AND nt.n = 1
        ),
        shingles AS (
            SELECT DISTINCT doc_id, x FROM (
                SELECT * FROM sh3 UNION ALL
                SELECT * FROM sh2 UNION ALL
                SELECT * FROM sh1
            )
        ),
        sig AS (
            SELECT s.doc_id, p.perm,
                   MIN(CAST((CAST(p.pa AS HUGEINT) * s.x + p.pb) % {p}
                            AS BIGINT)) AS mv
            FROM shingles s CROSS JOIN perms p
            GROUP BY s.doc_id, p.perm
        ),
        allsig AS (
            SELECT * FROM sig
            UNION ALL
            SELECT d.doc_id, p.perm, {p} AS mv
            FROM (SELECT doc_id FROM {source}
                  EXCEPT SELECT doc_id FROM nt) d
            CROSS JOIN perms p
        ),
        pairband AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.perm // 4 AS band,
                   SUM(CASE WHEN a.mv = b.mv THEN 1 ELSE 0 END) AS band_agree
            FROM allsig a
            JOIN allsig b ON a.perm = b.perm AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id, a.perm // 4
        ),
        pairstats AS (
            SELECT doc_a, doc_b, SUM(band_agree) AS matches,
                   MAX(CASE WHEN band_agree = 4 THEN 1 ELSE 0 END) AS shares
            FROM pairband GROUP BY doc_a, doc_b
        )
        SELECT doc_a, doc_b, CAST(matches AS DOUBLE) / 64 AS est_jaccard
        FROM pairstats WHERE shares = 1 AND matches >= 32
    """


def _pack_docs_sql() -> str:
    """Recursive-CTE mirror of ``pipelines.packing.pack_sequences``:
    same tokenizer (the ``token_count`` oracle expression), same
    greedy first-fit-in-doc-id-order recurrence per shard."""
    toks = _TOKS.format(s="text")
    b, s = _PACK_BUDGET, _PACK_SHARDS
    return f"""
        WITH RECURSIVE base AS (
            SELECT doc_id, doc_id % {s} AS shard,
                   CAST(len({toks}) AS BIGINT) AS token_count,
                   ROW_NUMBER() OVER (
                       PARTITION BY doc_id % {s} ORDER BY doc_id
                   ) AS rn
            FROM documents
        ),
        packed AS (
            SELECT shard, rn, doc_id, token_count,
                   CAST(0 AS BIGINT) AS pack, token_count AS fill
            FROM base WHERE rn = 1
            UNION ALL
            SELECT d.shard, d.rn, d.doc_id, d.token_count,
                   CASE WHEN p.fill + d.token_count <= {b} THEN p.pack
                        ELSE p.pack + 1 END,
                   CASE WHEN p.fill + d.token_count <= {b}
                        THEN p.fill + d.token_count
                        ELSE d.token_count END
            FROM base d JOIN packed p
              ON d.shard = p.shard AND d.rn = p.rn + 1
        )
        SELECT doc_id, shard, pack, token_count FROM packed
    """


def _sampling_suite_sql() -> str:
    """Mirror of all three sampling operators over the SAME md5-prefix
    bucket (``pipelines.sampling.sql_bucket_expr``): 90/5/5 split
    thresholds, 10% gate, per-language stratified gate — identical
    integer constants to the engine's ``_thresholds``/``round``
    arithmetic."""
    from web_based_search_engine_ray.pipelines.sampling import sql_bucket_expr

    b = sql_bucket_expr("doc_id", "v1")
    return f"""
        SELECT doc_id,
               CASE WHEN {b} < 900000 THEN 'train'
                    WHEN {b} < 950000 THEN 'val'
                    ELSE 'test' END AS split,
               {b} < 100000 AS in_10pct,
               {b} < CASE lang
                   WHEN 'en' THEN 100000
                   WHEN 'fr' THEN 500000
                   WHEN 'zh' THEN 1000000
                   ELSE 250000 END AS strat_kept
        FROM documents
    """


def _hll_distinct_sql() -> str:
    """Bit-exact mirror of ``sketches.hll_distinct`` (p=14) over the
    engine tokenizer's token stream: DuckDB recomputes the
    fnv1a63+splitmix64 hash (HUGEINT modular arithmetic; the two
    splitmix multiplies are split 32/32 to stay under 2^127), the
    register index/rank bit ops (MSB via the same 32/16/8/4/2/1
    halving chain the numpy kernel uses), the per-register MAX, and
    the standard HLL estimator with the linear-counting branch.
    Registers depend only on the DISTINCT token set, so the hash work
    runs over ``SELECT DISTINCT`` (tokens are ASCII by the tokenizer
    charset, so ``ord(substr(...))`` is the UTF-8 byte)."""
    two64 = "18446744073709551616"
    mask63 = "9223372036854775808"
    sm_mul1 = "13787848793156543929"  # 0xBF58476D1CE4E5B9
    sm_mul2 = "10723151780598845931"  # 0x94D049BB133111EB
    sm_add = "11400714819323198485"   # 0x9E3779B97F4A7C15
    m = 16384  # 2^p, p=14
    return f"""
        WITH toks AS (
            SELECT lower(unnest({_TT_TOKS})) AS tok FROM documents
        ),
        dt AS (SELECT DISTINCT tok FROM toks),
        fnv AS (
            SELECT tok,
                list_reduce(
                    list_prepend(CAST(14695981039346656037 AS HUGEINT),
                        list_transform(range(1, length(tok)+1),
                            i -> CAST(ord(substr(tok, i, 1)) AS HUGEINT))),
                    (h, b) -> (CAST(xor(CAST(h AS UBIGINT),
                                        CAST(b AS UBIGINT)) AS HUGEINT)
                               * 1099511628211) % {two64}
                ) % {mask63} AS h63
            FROM dt
        ),
        sm AS (
            SELECT tok,
                CAST((h63 + {sm_add}) % {two64} AS UBIGINT) AS x0,
                xor(x0, x0 >> 30) AS y0,
                CAST((
                    ((CAST(y0 >> 32 AS HUGEINT) * {sm_mul1}) % 4294967296)
                        * 4294967296
                    + CAST(y0 % 4294967296 AS HUGEINT) * {sm_mul1}
                  ) % {two64} AS UBIGINT) AS x1,
                xor(x1, x1 >> 27) AS y1,
                CAST((
                    ((CAST(y1 >> 32 AS HUGEINT) * {sm_mul2}) % 4294967296)
                        * 4294967296
                    + CAST(y1 % 4294967296 AS HUGEINT) * {sm_mul2}
                  ) % {two64} AS UBIGINT) AS x2,
                CAST(xor(x2, x2 >> 31) % {mask63} AS UBIGINT) AS h
            FROM fnv
        ),
        rk AS (
            SELECT h >> 49 AS idx,
                h % 562949953421312 AS rest,
                CASE WHEN rest >= 4294967296 THEN 32 ELSE 0 END AS s32,
                rest >> s32 AS v32,
                CASE WHEN v32 >= 65536 THEN 16 ELSE 0 END AS s16,
                v32 >> s16 AS v16,
                CASE WHEN v16 >= 256 THEN 8 ELSE 0 END AS s8,
                v16 >> s8 AS v8,
                CASE WHEN v8 >= 16 THEN 4 ELSE 0 END AS s4,
                v8 >> s4 AS v4,
                CASE WHEN v4 >= 4 THEN 2 ELSE 0 END AS s2,
                v4 >> s2 AS v2,
                CASE WHEN v2 >= 2 THEN 1 ELSE 0 END AS s1,
                CASE WHEN rest = 0 THEN 50
                     ELSE 49 - (s32+s16+s8+s4+s2+s1) END AS rnk
            FROM sm
        ),
        regs AS (SELECT idx, MAX(rnk) AS r FROM rk GROUP BY idx),
        est AS (
            SELECT
                (0.7213 / (1.0 + 1.079 / {m}.0)) * {m}.0 * {m}.0
                    / (SUM(power(2.0, -r)) + ({m} - COUNT(*))) AS raw,
                {m} - COUNT(*) AS zeros
            FROM regs
        )
        SELECT ROUND(
                 CASE WHEN raw <= 2.5 * {m} AND zeros > 0
                      THEN {m}.0 * ln({m}.0 / zeros)
                      WHEN raw > 9223372036854775808.0 / 30.0
                      THEN -9223372036854775808.0
                           * ln(1.0 - raw / 9223372036854775808.0)
                      ELSE raw END, 4) AS distinct_est,
               (SELECT COUNT(DISTINCT tok) FROM toks) AS distinct_exact
        FROM est
    """


def _ivf_ann_sql(sf_dir: str) -> str:
    """Mirror of ``q_ivf_ann``: the SAME deterministic centroid values
    are inlined as a VALUES list-table; assignment = cosine-argmax over
    centroids (ties: cluster asc — numpy argmax keeps the first max),
    probes = top-nprobe centroids per query (ties: cluster asc), then
    exact cosine top-k within the probed clusters with the brute-force
    tie-break (cosine desc, vec_id asc), ROUND(_, 6) like ann_topk.
    The ``guard`` CTE refuses (DuckDB ``error()``) any corpus whose
    fingerprint differs from the table the inlined centroids were
    trained on, instead of failing as an opaque hash mismatch."""
    cents = _ivf_oracle_centroids(sf_dir)
    fp_n, fp_svid, fp_s0 = _ivf_oracle_fingerprint(sf_dir)
    rows = ", ".join(
        "(" + str(i) + ", ["
        + ", ".join(repr(float(x)) for x in c)
        + "]::DOUBLE[])"
        for i, c in enumerate(cents)
    )
    return f"""
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
            FROM embeddings
        ),
        cents(cluster, cent) AS (VALUES {rows}),
        guard AS (
            SELECT CASE WHEN (SELECT COUNT(*) FROM e) <> {fp_n}
                          OR (SELECT SUM(vec_id) FROM e) <> {fp_svid}
                          OR ABS((SELECT SUM(emb[1]) FROM e)
                                 - ({fp_s0!r})) > 1e-3
                   THEN CAST(error('ivf_ann oracle centroids were '
                        || 'trained on a different embeddings table '
                        || 'than this corpus; set WBSE_ORACLE_SF_DIR '
                        || 'to the sf dir the oracle runs against')
                        AS BIGINT)
                   ELSE 0 END AS ok
        ),
        assign AS (
            SELECT e.vec_id, e.emb,
                   (SELECT c.cluster FROM cents c
                    ORDER BY list_cosine_similarity(e.emb, c.cent) DESC,
                             c.cluster ASC
                    LIMIT 1) AS cluster
            FROM e
        ),
        q AS (SELECT vec_id AS query_id, emb AS qe FROM e WHERE vec_id < 3),
        probes AS (
            SELECT query_id, cluster FROM (
                SELECT q.query_id, c.cluster,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qe, c.cent)
                                        DESC,
                                    c.cluster ASC
                       ) AS pr
                FROM q CROSS JOIN cents c
            ) WHERE pr <= {_IVF_NPROBE}
        ),
        scored AS (
            SELECT p.query_id, a.vec_id,
                   list_cosine_similarity(
                       (SELECT qe FROM q WHERE q.query_id = p.query_id),
                       a.emb
                   ) AS s
            FROM probes p JOIN assign a ON a.cluster = p.cluster
        ),
        ranked AS (
            SELECT query_id, vec_id, s,
                   ROW_NUMBER() OVER (
                       PARTITION BY query_id ORDER BY s DESC, vec_id ASC
                   ) - 1 AS rank
            FROM scored
        )
        SELECT query_id, rank, vec_id, ROUND(s, 6) AS cosine
        FROM ranked WHERE rank < 10 AND (SELECT ok FROM guard) = 0
    """


def _profile_suite_sql() -> str:
    """Mirror of ``q_profile_suite``: the three profile SQLs cast into
    the long ``(section, k1, k2, val)`` shape and UNION ALL'd."""
    tt = f"""
        WITH toks AS (
            SELECT lang, lower(unnest({_TT_TOKS})) AS term
            FROM documents
        ),
        tc AS (
            SELECT lang, term, COUNT(*) AS n
            FROM toks GROUP BY lang, term
        ),
        rk AS (
            SELECT lang, term, n,
                   ROW_NUMBER() OVER (
                       PARTITION BY lang ORDER BY n DESC, term ASC
                   ) AS r
            FROM tc
        )
        SELECT lang, term, n FROM rk WHERE r <= 5
    """
    dr = """
        SELECT source, COUNT(*) AS n_docs,
               COUNT(DISTINCT text) AS n_unique,
               ROUND(1.0 - CAST(COUNT(DISTINCT text) AS DOUBLE)
                     / COUNT(*), 9) AS dup_rate
        FROM documents GROUP BY source
    """
    lc = """
        WITH flat AS (
            SELECT CAST(label AS BIGINT) AS label,
                   unnest(range(len(embedding))) AS dim,
                   unnest(embedding) AS v
            FROM embeddings
        )
        SELECT label, dim,
               ROUND(AVG(CAST(v AS DOUBLE)), 6) AS centroid
        FROM flat GROUP BY label, dim
    """
    return f"""
        SELECT 'top_terms' AS section, lang AS k1, term AS k2,
               CAST(n AS DOUBLE) AS val FROM ({tt})
        UNION ALL
        SELECT 'dup_docs', source, '', CAST(n_docs AS DOUBLE)
        FROM ({dr})
        UNION ALL
        SELECT 'dup_unique', source, '', CAST(n_unique AS DOUBLE)
        FROM ({dr})
        UNION ALL
        SELECT 'dup_rate', source, '', dup_rate FROM ({dr})
        UNION ALL
        SELECT 'centroid', CAST(label AS VARCHAR), CAST(dim AS VARCHAR),
               centroid FROM ({lc})
    """


def _decontaminate_sql() -> str:
    """Mirror of pipelines.decontaminate (n=8, benchmark = doc_id%50=0):
    md5 token hashes mod 2^61-1 → per-window polynomial fold with the
    ENGINE'S inlined constants SHINGLE_BASE^(n-1-j) mod p (each product
    reduced mod p before the HUGEINT-safe 8-term sum) → EXISTS against
    the benchmark subset's fold set.  Bit-identical hashes on both
    sides, so the comparison is exact even under (2^-61) collisions."""
    from web_based_search_engine_ray.pipelines.decontaminate import (
        ngram_fold_constants,
    )

    n = _DECON_N
    p = _MERSENNE61
    cs = ngram_fold_constants(n)
    toks = _TOKS.format(s="text")
    fold_terms = " + ".join(
        f"(CAST(hs[i + {j + 1}] AS HUGEINT) * {cs[j]}) % {p}"
        for j in range(n)
    )
    return f"""
        WITH toks AS (
            SELECT doc_id, lower(unnest({toks})) AS tok,
                   unnest(range(len({toks}))) AS pos
            FROM documents
        ),
        th AS (
            SELECT doc_id, pos,
                   CAST(CAST(concat('0x', substr(md5(tok), 1, 16))
                             AS UBIGINT) % {p} AS BIGINT) AS h
            FROM toks
        ),
        dh AS (
            SELECT doc_id, list(h ORDER BY pos) AS hs
            FROM th GROUP BY doc_id
        ),
        ng AS (
            SELECT doc_id,
                   CAST(({fold_terms}) % {p} AS BIGINT) AS g
            FROM dh, LATERAL (
                SELECT unnest(range(len(hs) - {n - 1})) AS i
            )
            WHERE len(hs) >= {n}
        ),
        bench AS (SELECT DISTINCT g FROM ng WHERE doc_id % 50 = 0)
        SELECT d.doc_id,
               EXISTS (SELECT 1 FROM ng JOIN bench USING (g)
                       WHERE ng.doc_id = d.doc_id) AS contaminated
        FROM documents d
    """


def _chunk_dedup_sql() -> str:
    """Mirror of pipelines.chunk_dedup (16-token windows, original
    case): first occurrence per distinct chunk in (doc_id, chunk_no)
    order survives; docs reassemble surviving chunks in order."""
    toks = _TOKS.format(s="text")
    c = _CHUNK_TOKENS
    return f"""
        WITH toks AS (
            SELECT doc_id, unnest({toks}) AS term,
                   unnest(range(len({toks}))) AS pos
            FROM documents
        ),
        chunks AS (
            SELECT doc_id, pos // {c} AS chunk_no,
                   string_agg(term, ' ' ORDER BY pos) AS chunk
            FROM toks GROUP BY doc_id, pos // {c}
        ),
        rk AS (
            SELECT doc_id, chunk_no, chunk,
                   ROW_NUMBER() OVER (
                       PARTITION BY chunk ORDER BY doc_id, chunk_no
                   ) AS r
            FROM chunks
        )
        SELECT doc_id,
               COALESCE(string_agg(CASE WHEN r = 1 THEN chunk END,
                                   ' ' ORDER BY chunk_no), '')
                   AS text_clean,
               COUNT(*) AS n_chunks,
               CAST(SUM(CASE WHEN r = 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_kept
        FROM rk GROUP BY doc_id
    """


def _redact_sql() -> str:
    """Mirror of pipelines.redact: the SAME RE2 pattern text applied in
    the SAME order (pyarrow and DuckDB both run RE2, so semantics are
    engine-identical); counts are pre-replacement occurrences on the
    progressively-redacted string."""
    from web_based_search_engine_ray.pipelines.redact import PII_PATTERNS

    cur = "text"
    counts = []
    for name, pat, repl in PII_PATTERNS:
        # DuckDB single-quoted literals keep backslashes verbatim, so
        # only quotes need doubling
        esc = pat.replace("'", "''")
        counts.append(
            f"CAST(len(regexp_extract_all({cur}, '{esc}')) AS BIGINT)"
            f" AS n_{name}"
        )
        cur = f"regexp_replace({cur}, '{esc}', '{repl}', 'g')"
    return f"""
        SELECT doc_id, {cur} AS text_redacted,
               {', '.join(counts)}
        FROM documents
    """


def _lm_score_sql() -> str:
    """Mirror of pipelines.lm_score (uncapped vocab at oracle scale):
    Laplace unigram over corpus token counts, mean log-prob per doc.
    (The engine keys counts by md5 token hash; a hash collision —
    ~|V|²/2^64 — is the documented oracle tolerance, same contract as
    the minhash band buckets.)"""
    toks = _TOKS.format(s="text")
    return f"""
        WITH toks AS (
            SELECT doc_id, lower(unnest({toks})) AS tok FROM documents
        ),
        tc AS (SELECT tok, COUNT(*) AS c FROM toks GROUP BY tok),
        tot AS (
            SELECT CAST(SUM(c) AS DOUBLE) AS total,
                   CAST(COUNT(*) AS DOUBLE) AS vocab
            FROM tc
        ),
        lp AS (
            SELECT tok, LN((c + 1.0) / (total + vocab + 1.0)) AS logp
            FROM tc, tot
        ),
        ds AS (
            SELECT t.doc_id, COUNT(*) AS n_tokens,
                   FLOOR(AVG(lp.logp) * 1e6) / 1e6 AS lm_score
            FROM toks t JOIN lp ON t.tok = lp.tok
            GROUP BY t.doc_id
        )
        SELECT d.doc_id,
               COALESCE(ds.n_tokens, 0) AS n_tokens,
               COALESCE(ds.lm_score, 0.0) AS lm_score
        FROM documents d LEFT JOIN ds ON ds.doc_id = d.doc_id
    """


def _media_features_sql() -> str:
    """Mirror of pipelines.multimodal._decode_fake over the synthesized
    html payload: width/height = 64 + first/second md5 byte.  The html
    string is rebuilt with the exact html.escape replacement chain."""
    esc = (
        "replace(replace(replace(replace(replace(text, '&', '&amp;'), "
        "'<', '&lt;'), '>', '&gt;'), '\"', '&quot;'), chr(39), '&#x27;')"
    )
    link = (
        "'<a href=\"https://corpus.example.com/' || "
        "printf('%012d', doc_id + {off}) || '.html\"></a>'"
    )
    return f"""
        WITH h AS (
            SELECT doc_id,
                '<html><head><title>Doc ' || CAST(doc_id AS VARCHAR)
                || '</title></head><body><p>' || {esc} || '</p>'
                || {link.format(off=1)} || {link.format(off=7)}
                || {link.format(off=42)} || '</body></html>' AS html
            FROM documents
        )
        SELECT doc_id,
            CAST(64 + CAST(concat('0x', substr(md5(html), 1, 2)) AS INTEGER)
                 AS INTEGER) AS width,
            CAST(64 + CAST(concat('0x', substr(md5(html), 3, 2)) AS INTEGER)
                 AS INTEGER) AS height
        FROM h
    """


def oracle_sql():
    toks = _TOKS.format(s="text")
    title_toks = _TOKS.format(s=SQL_TITLE)
    terms_in = ", ".join(f"'{t}'" for t in _SEARCH_TERMS)
    return {
        "extract_text": f"SELECT {SQL_URL} AS url, text FROM documents",
        "term_df": f"""
            WITH toks AS (
                SELECT doc_id, lower(unnest({toks})) AS term FROM documents
                UNION ALL
                SELECT doc_id, lower(unnest({title_toks})) AS term FROM documents
            )
            SELECT term, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY term
        """,
        "doc_stats": _SCORE_CTES + """
            SELECT m.doc_id, CAST(m.tf_max AS BIGINT) AS tf_max,
                   ROUND(l.doc_len, 9) AS doc_len_norm
            FROM tfmax m JOIN doclen l ON m.doc_id = l.doc_id
        """,
        "tfidf_search": _SCORE_CTES + f"""
            , partials AS (
                SELECT t.doc_id,
                       (0.9 * t.title_tf + 0.1 * t.body_tf)
                       * LOG10(CAST(nn.n AS DOUBLE) / d.df) / m.tf_max AS p
                FROM tf t, df d, tfmax m, nn
                WHERE t.term = d.term AND t.doc_id = m.doc_id
                  AND t.term IN ({terms_in})
            )
            SELECT p.doc_id,
                   ROUND(SUM(p.p) / ANY_VALUE(l.doc_len), 9) AS score
            FROM partials p JOIN doclen l ON p.doc_id = l.doc_id
            GROUP BY p.doc_id
        """,
        # BM25 (k1=1.2, b=0.75, Robertson idf); arithmetic association
        # mirrors Searcher._partial (bm25=True) exactly
        "bm25_search": _SCORE_CTES + f"""
            , dl AS (
                SELECT doc_id,
                       CAST(SUM(title_tf + body_tf) AS DOUBLE) AS dl
                FROM tf GROUP BY doc_id
            ),
            ad AS (SELECT AVG(dl) AS avgdl FROM dl),
            bp AS (
                SELECT t.doc_id,
                       LN((CAST(nn.n AS DOUBLE) - d.df + 0.5)
                          / (d.df + 0.5) + 1.0)
                       * ((t.title_tf + t.body_tf) * (1.2 + 1.0))
                       / ((t.title_tf + t.body_tf)
                          + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / ad.avgdl))
                       AS p
                FROM tf t, df d, dl, ad, nn
                WHERE t.term = d.term AND t.doc_id = dl.doc_id
                  AND t.term IN ({terms_in})
            )
            SELECT doc_id, ROUND(SUM(p), 9) AS score
            FROM bp GROUP BY doc_id
        """,
        "phrase_search": f"""
            WITH btoks AS ({_BODY_TOKENS}),
            ttoks AS ({_TITLE_TOKENS})
            SELECT DISTINCT a.doc_id FROM btoks a JOIN btoks b
              ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            WHERE a.term = '{_PHRASE[0]}' AND b.term = '{_PHRASE[1]}'
            UNION
            SELECT DISTINCT a.doc_id FROM ttoks a JOIN ttoks b
              ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            WHERE a.term = '{_PHRASE[0]}' AND b.term = '{_PHRASE[1]}'
        """,
        "link_edges": f"""
            SELECT {SQL_URL} AS src_url,
                   'https://corpus.example.com/' || printf('%012d', doc_id + off) || '.html' AS dst_url
            FROM documents, (SELECT unnest([1, 7, 42]) AS off)
        """,
        "pagerank": _pagerank_sql(),
        # stemmed engine: the (raw -> stemmed) vocabulary is inlined
        # as a VALUES table (pure-function lookup over the finite
        # corpus vocabulary), making the full stop-stem TF-IDF path
        # hash-checkable like tfidf_search
        "search_stemmed": _stemmed_search_sql(_oracle_sf_dir()),
        "stemmed_conformance": _stemmed_conformance_sql(_oracle_sf_dir()),
        "docmeta": f"""
            SELECT doc_id, {SQL_URL} AS url, {SQL_TITLE} AS title,
                   {SQL_WARC_TS} AS last_modified,
                   lang
            FROM documents
        """,
        "dedup_exact": """
            SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        "jaccard_pairs": f"""
            WITH toks AS (
                SELECT doc_id, {_TOKS.format(s='lower(text)')} AS lt FROM documents
            ),
            sh AS (
                SELECT DISTINCT doc_id,
                       lt[i + 1] || ' ' || lt[i + 2] || ' ' || lt[i + 3] AS shingle
                FROM toks, LATERAL (SELECT unnest(range(len(lt) - 2)) AS i)
                WHERE len(lt) >= 3
                UNION
                SELECT doc_id, array_to_string(lt, ' ') AS shingle
                FROM toks WHERE len(lt) < 3 AND len(lt) > 0
            ),
            sizes AS (SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
                FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            )
            SELECT i.doc_a, i.doc_b,
                   ROUND(CAST(i.i AS DOUBLE) / (sa.sz + sb.sz - i.i), 6) AS jaccard
            FROM inter i JOIN sizes sa ON i.doc_a = sa.doc_id
                         JOIN sizes sb ON i.doc_b = sb.doc_id
            WHERE CAST(i.i AS DOUBLE) / (sa.sz + sb.sz - i.i) >= 0.5
        """,
        # engine math is float64 (np.float64 from the float32 parquet
        # column); DuckDB's list_cosine_similarity on FLOAT[] stays in
        # float32 and disagrees in the 6th digit — cast to DOUBLE[] so
        # the oracle computes in the same precision
        "embedding_dup_pairs": """
            WITH e AS (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
                FROM embeddings
            )
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   ROUND(list_cosine_similarity(a.emb, b.emb), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.emb, b.emb) >= 0.4
        """,
        "ann_topk": """
            WITH e AS (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
                FROM embeddings
            ),
            q AS (SELECT vec_id AS query_id, emb AS qe
                  FROM e WHERE vec_id < 3),
            scored AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(q.qe, e.emb) AS c
                FROM q CROSS JOIN e
            ),
            ranked AS (
                SELECT query_id, vec_id, c,
                       ROW_NUMBER() OVER (
                           PARTITION BY query_id ORDER BY c DESC, vec_id ASC
                       ) - 1 AS rank
                FROM scored
            )
            SELECT query_id, rank, vec_id, ROUND(c, 6) AS cosine
            FROM ranked WHERE rank < 10
        """,
        "token_count": f"""
            SELECT doc_id, CAST(len({toks}) AS BIGINT) AS token_count
            FROM documents
        """,
        # FLOOR(x*1e6)/1e6 mirrors the engine's np.floor scaling —
        # tie-free where ROUND's half-away vs numpy's half-even differ
        "quality": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   FLOOR((CASE WHEN length(text) = 0 THEN 0.0 ELSE
                     CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                       / length(text) END) * 1e6) / 1e6 AS alpha_ratio,
                   FLOOR((CASE WHEN length(text) = 0 THEN 0.0 ELSE
                     CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE)
                       / length(text) END) * 1e6) / 1e6 AS digit_ratio,
                   FLOOR((CASE WHEN length(text) = 0 THEN 0.0 ELSE
                     CAST(length(text) - length(regexp_replace(text, '\\s', '', 'g')) AS DOUBLE)
                       / length(text) END) * 1e6) / 1e6 AS space_ratio
            FROM documents
        """,
        # bigrams over the engine tokenizer's lowercased tokens; both
        # metrics are int/int float64 ratios → floor-scale matches the
        # numpy side bit-for-bit.  Top bigram tie-break: among max-count
        # bigrams take max char mass (same composite as the numpy side).
        "repetition": f"""
            WITH toks AS ({_BODY_TOKENS}),
            stats AS (
                SELECT doc_id, COUNT(*) AS n_tokens,
                       SUM(LENGTH(term)) AS tchars
                FROM toks GROUP BY doc_id
            ),
            bg AS (
                SELECT a.doc_id, a.term AS w1, b.term AS w2,
                       LENGTH(a.term) + LENGTH(b.term) AS bl
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            ),
            cnt AS (
                SELECT doc_id, w1, w2, ANY_VALUE(bl) AS bl, COUNT(*) AS c
                FROM bg GROUP BY doc_id, w1, w2
            ),
            agg AS (
                SELECT doc_id,
                       SUM(c) AS n_bigrams,
                       SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_occ,
                       MAX(c * 1048576 + bl) AS comp
                FROM cnt GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(COALESCE(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CASE WHEN a.n_bigrams > 0 THEN
                     FLOOR(CAST(a.dup_occ AS DOUBLE) / a.n_bigrams * 1e6) / 1e6
                   ELSE 0.0 END AS dup_bigram_frac,
                   CASE WHEN a.n_bigrams > 0 THEN
                     FLOOR(CAST((a.comp // 1048576) * (a.comp % 1048576) AS DOUBLE)
                           / s.tchars * 1e6) / 1e6
                   ELSE 0.0 END AS top_bigram_frac
            FROM documents d
            LEFT JOIN stats s ON d.doc_id = s.doc_id
            LEFT JOIN agg a ON d.doc_id = a.doc_id
        """,
        "clean_corpus": _clean_corpus_sql(),
        "top_bigrams": f"""
            WITH toks AS ({_BODY_TOKENS}),
            bg AS (
                SELECT a.term || ' ' || b.term AS bigram
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            )
            SELECT bigram, COUNT(*) AS n FROM bg GROUP BY bigram
            ORDER BY n DESC, bigram ASC LIMIT 20
        """,
        "doc_profile": f"""
            SELECT f.doc_id, f.fingerprint, l.lang_pred, l.lang_conf
            FROM (
                SELECT doc_id,
                       md5(regexp_replace(lower(text), '\\s+', ' ', 'g'))
                           AS fingerprint
                FROM documents
            ) f JOIN ({_lang_profile_sql()}) l ON f.doc_id = l.doc_id
        """,
        "simhash_pairs": _simhash_pairs_sql(max_hamming=8),
        "minhash_pairs": _minhash_pairs_sql(),
        # recursive transitive closure over the exact minhash pair set,
        # keep the min doc per component (mirrors connected_components
        # + dedup_keep_min)
        "minhash_dedup": f"""
            WITH RECURSIVE edges AS (
                SELECT doc_a AS s, doc_b AS d
                FROM ({_minhash_pairs_sql()})
                UNION
                SELECT doc_b, doc_a FROM ({_minhash_pairs_sql()})
            ),
            reach(s, d) AS (
                SELECT s, d FROM edges
                UNION
                SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s
            ),
            dropped AS (
                SELECT s AS node FROM reach GROUP BY s HAVING MIN(d) < s
            )
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT node FROM dropped)
        """,
        "media_features": _media_features_sql(),
        "media_real": _media_real_sql(),
        "media_audio": _media_audio_sql(),
        "media_frames": _media_frames_sql(),
        "lang_length_quantiles": _lang_length_quantiles_sql(),
        "value_quantiles_sketch": _value_quantiles_sketch_sql(),
        # interval VALUES table mirrors pipelines.joins.broadcast_range_join
        "value_bands": f"""
            SELECT e.event_id, e.value, r.band
            FROM events e LEFT JOIN (
                VALUES {_band_values_sql()}
            ) r(lo, hi, band)
              ON e.value >= r.lo AND e.value < r.hi
        """,
        # QUALIFY window mirror of pipelines.events.top_k_per_group
        "top_events_per_user": """
            SELECT event_id, user_id, value FROM events
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY user_id ORDER BY value DESC, event_id
            ) <= 3
        """,
        # per-label cosine pairs + recursive closure mirrors
        # pipelines.dedup.semantic_dedup (SemDeDup shape)
        "semantic_dedup": """
            WITH RECURSIVE emb AS (
                SELECT vec_id, label,
                       list_transform(embedding, x -> CAST(x AS DOUBLE))
                           AS emb
                FROM embeddings
            ),
            e0 AS (
                SELECT a.vec_id AS s, b.vec_id AS d
                FROM emb a JOIN emb b
                  ON a.label = b.label AND a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.emb, b.emb) >= 0.3
            ),
            edges AS (
                SELECT s, d FROM e0 UNION SELECT d, s FROM e0
            ),
            reach(s, d) AS (
                SELECT s, d FROM edges
                UNION
                SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s
            ),
            dropped AS (
                SELECT s AS node FROM reach GROUP BY s HAVING MIN(d) < s
            )
            SELECT vec_id FROM embeddings
            WHERE vec_id NOT IN (SELECT node FROM dropped)
        """,
        # DuckDB-native ASOF LEFT JOIN mirrors pipelines.joins.asof_join
        "asof_attribution": """
            WITH clicks AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'
            ),
            views AS (
                SELECT event_id AS view_id, user_id, ts, ts AS view_ts
                FROM events WHERE event_type = 'view'
            )
            SELECT c.event_id, c.user_id, c.ts,
                   v.view_id, v.view_ts,
                   date_diff('microsecond', v.view_ts, c.ts) / 1000000.0
                       AS gap_s
            FROM clicks c ASOF LEFT JOIN views v
              ON c.user_id = v.user_id AND c.ts >= v.ts
        """,
        "profile_suite": _profile_suite_sql(),
        "sampling_suite": _sampling_suite_sql(),
        "ivf_ann": _ivf_ann_sql(_oracle_sf_dir()),
        "hll_distinct": _hll_distinct_sql(),
        "decontaminate": _decontaminate_sql(),
        "chunk_dedup": _chunk_dedup_sql(),
        "corpus_stats": """
            SELECT lang, source, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS total_chars,
                   ROUND(CAST(SUM(n_chars) AS DOUBLE) / COUNT(*), 6)
                       AS avg_chars
            FROM documents GROUP BY lang, source
        """,
        "redact": _redact_sql(),
        "lm_score": _lm_score_sql(),
        "pack_docs": _pack_docs_sql(),
        "lang_dist": """
            SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang
        """,
        "windowed_events": """
            SELECT 'hourly' AS kind,
                   date_trunc('hour', ts) AS window_start, event_type,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 6) AS sum_value,
                   ROUND(SUM(value) / COUNT(*), 6) AS mean_value
            FROM events GROUP BY 2, 3
            UNION ALL
            SELECT 'sliding', window_start, event_type, n_events,
                   sum_value, CAST(NULL AS DOUBLE) AS mean_value
            FROM (
                WITH e AS (
                    SELECT epoch_ms(ts) * 1000 AS tus, event_type, value
                    FROM events
                ),
                w AS (
                    SELECT (tus // 900000000) * 900000000
                             - i.i * 900000000 AS ws,
                           event_type, value
                    FROM e, (SELECT unnest(range(4)) AS i) i
                    WHERE (tus // 900000000) * 900000000 - i.i * 900000000
                          > tus - 3600000000
                )
                SELECT make_timestamp(ws) AS window_start, event_type,
                       COUNT(*) AS n_events,
                       ROUND(SUM(value), 6) AS sum_value
                FROM w GROUP BY ws, event_type
            )
        """,
        "sessionize": """
            WITH marked AS (
                SELECT user_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            sess AS (
                SELECT *, SUM(new_s) OVER (
                    PARTITION BY user_id ORDER BY ts
                    ROWS UNBOUNDED PRECEDING) AS sid
                FROM marked
            )
            SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end,
                   COUNT(*) AS n_events, ROUND(SUM(value), 6) AS sum_value
            FROM sess GROUP BY user_id, sid
        """,
        "top_users": """
            SELECT user_id, ROUND(SUM(value), 6) AS total_value
            FROM events GROUP BY user_id
            ORDER BY SUM(value) DESC, user_id ASC LIMIT 20
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   COUNT(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_join": """
            SELECT c.c_mktsegment,
                   ROUND(SUM(o.o_totalprice), 2) AS revenue
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
    }
