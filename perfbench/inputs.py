"""Seeded benchmark inputs: corpora, query mixes and update deltas.

Every generator takes a ``numpy.random.Generator`` (or the seed) so one
``--seed`` fixes every input of a run.  The engine only ever sees the
generated corpus, queries and delta snapshot.

Sizes (why they are what they are):

- ``zipf-query``: 5,000 docs x 16 tokens over a 10,000-word Zipf(1.07)
  vocabulary.  ``Searcher.choose_traversal`` routes a query to WAND only
  when the summed df of its terms reaches ``WAND_AUTO_MIN_VOLUME``
  (4096); at 5,000 docs the head term w1 (in ~90% of documents) reaches
  it, so the queries of the mix that pair w1 with rarer terms are
  WAND-routed.  Short documents keep the build (dominated by segment
  compaction) short.
- ``flat-update``: 5,000 docs of 10-100 words drawn uniformly from the
  30-word vocabulary of the synthetic testdata ``documents`` table, so every
  term has df close to N and no query is WAND-routed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ZIPF_DOCS = 5000
ZIPF_DOC_LEN = 16
ZIPF_VOCAB = 10000
ZIPF_S = 1.07

FLAT_DOCS = 5000
FLAT_MIN_LEN, FLAT_MAX_LEN = 10, 100
FLAT_VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)

#: queries per ``batch_search`` call, and distinct queries sent by the
#: HTTP client (one each, in order, before any repeats)
BATCH_QUERIES = 400
SERVE_QUERIES = 200

#: appended to every modified document of a delta; a query for it must
#: return exactly the modified doc ids after the update
MARKER = "qzxupdated"


def zipf_corpus(seed: int, work: str) -> str:
    """documents.parquet dir of the Zipf corpus (``zipf_documents_dir``)."""
    from web_based_search_engine_ray.sources.webcorpus import (
        zipf_documents_dir,
    )

    return zipf_documents_dir(
        n_docs=ZIPF_DOCS, vocab=ZIPF_VOCAB, doc_len=ZIPF_DOC_LEN, s=ZIPF_S,
        seed=seed, cache_root=os.path.join(work, "corpus"),
    )


def flat_corpus(rng: np.random.Generator, work: str) -> str:
    """documents.parquet dir shaped like the testdata ``documents`` table:
    (doc_id, text, lang) with a flat 30-word vocabulary."""
    d = os.path.join(work, "corpus", "flat")
    os.makedirs(d, exist_ok=True)
    lens = rng.integers(FLAT_MIN_LEN, FLAT_MAX_LEN + 1, FLAT_DOCS)
    vocab = np.array(FLAT_VOCAB, dtype=object)
    words = vocab[rng.integers(0, len(vocab), int(lens.sum()))]
    ends = np.cumsum(lens)
    texts = [" ".join(words[e - n:e]) for n, e in zip(lens, ends)]
    langs = np.array(LANGS, dtype=object)[
        rng.choice(len(LANGS), FLAT_DOCS, p=LANG_P)
    ]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(np.arange(FLAT_DOCS), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs.tolist(), type=pa.string()),
        }),
        os.path.join(d, "documents.parquet"),
    )
    return d


def read_documents(ddir: str) -> pa.Table:
    return pq.read_table(os.path.join(ddir, "documents.parquet"))


def _phrase(rng: np.random.Generator, texts: list[str]) -> str:
    """Two raw tokens that are adjacent after stopword removal in a random
    document, quoted -- so phrase queries have matches to verify."""
    from web_based_search_engine_ray.functions.tokenize import (
        stem_word,
        tokenize,
    )

    while True:
        toks = [t for t in tokenize(texts[rng.integers(len(texts))])
                if stem_word(t)]
        if len(toks) >= 2:
            i = int(rng.integers(len(toks) - 1))
            return f'"{toks[i]} {toks[i + 1]}"'


def _kinds(rng: np.random.Generator, n: int, shares) -> np.ndarray:
    """Query kinds in exact proportions, in seeded order, so the mix of a
    run does not vary with the seed."""
    counts = np.floor(np.asarray(shares) * n).astype(int)
    counts[0] += n - counts.sum()
    return rng.permutation(np.repeat(np.arange(len(shares)), counts))


def zipf_queries(rng: np.random.Generator, docs: pa.Table,
                 n: int) -> list[str]:
    """Mix over the Zipf vocabulary (word ``w<r>`` has frequency rank r):
    35% common+rare pairs and 25% three-term mixed queries, all led by
    the head term (the WAND regime: skewed df, large candidate volume),
    25% flat pairs of common words (where TAAT should win), 15% a common
    word plus a phrase."""
    texts = docs["text"].to_pylist()
    out = []
    for kind in _kinds(rng, n, (0.35, 0.25, 0.25, 0.15)):
        if kind == 0:
            out.append(f"w1 w{rng.integers(200, 3000)}")
        elif kind == 1:
            out.append(f"w1 w{rng.integers(20, 200)} "
                       f"w{rng.integers(500, 3000)}")
        elif kind == 2:
            out.append(f"w{rng.integers(3, 11)} w{rng.integers(11, 40)}")
        else:
            out.append(f"w{rng.integers(1, 20)} {_phrase(rng, texts)}")
    return out


def flat_queries(rng: np.random.Generator, docs: pa.Table,
                 n: int) -> list[str]:
    """``bench.make_queries`` shape, seeded: one query in five carries a
    phrase; the rest are three, two or one word (40/40/20)."""
    texts = docs["text"].to_pylist()
    vocab = FLAT_VOCAB
    out = []
    for kind in _kinds(rng, n, (0.32, 0.32, 0.16, 0.2)):
        w = [vocab[j] for j in rng.integers(0, len(vocab), 3)]
        if kind == 3:
            out.append(f"{w[0]} {_phrase(rng, texts)}")
        else:
            out.append(" ".join(w[:3 - kind]))
    return out


def web_table(docs: pa.Table) -> pa.Table:
    """The corpus as the engine reads it (``synth_corpus`` rows)."""
    from web_based_search_engine_ray.sources.webcorpus import synth_batch

    return synth_batch(docs.select(["doc_id", "text", "lang"]))


def delta_snapshot(docs: pa.Table, rng: np.random.Generator, path: str, *,
                   modified_frac: float, removed_frac: float,
                   n_shards: int, shards: tuple[int, ...]) -> dict:
    """Write the next crawl snapshot to ``path`` (parquet web table).

    The shape of ``bench.py::run_update_bench``'s delta: modified docs get
    ``MARKER`` appended, their html rebuilt and ``warc_ts`` + 1000 s; the
    removed urls are absent from the snapshot.  Both sets are drawn from
    the doc shards in ``shards`` (shard = doc_id % n_shards), with at
    least one doc of each kind per listed shard."""
    from web_based_search_engine_ray.sources.webcorpus import make_html

    web = web_table(docs)
    ids = web["doc_id"].to_numpy()
    n = len(ids)

    def pick(pool: np.ndarray, count: int) -> np.ndarray:
        per = max(1, count // len(shards))
        return np.concatenate([
            rng.choice(pool[pool % n_shards == s], per, replace=False)
            for s in shards
        ])

    candidates = ids[np.isin(ids % n_shards, shards)]
    removed = np.sort(pick(candidates, round(removed_frac * n)))
    candidates = np.setdiff1d(candidates, removed)
    modified = np.sort(pick(candidates, round(modified_frac * n)))

    keep = ~np.isin(ids, removed)
    hot_mask = np.isin(ids, modified)
    cold = web.filter(pa.array(keep & ~hot_mask))
    hot = web.filter(pa.array(hot_mask))
    texts = [t + " " + MARKER for t in hot["text"].to_pylist()]
    htmls = [make_html(int(i), t)
             for i, t in zip(hot["doc_id"].to_numpy(), texts)]
    ts = hot["warc_ts"].to_numpy() + np.timedelta64(1000, "s")
    hot = pa.table({
        "url": hot["url"],
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(htmls, type=pa.binary()),
        "text": pa.array(texts, type=pa.string()),
        "lang": hot["lang"],
        "doc_id": hot["doc_id"],
    })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.concat_tables([cold.select(hot.column_names), hot]),
                   path)
    return {
        "modified": modified,
        "removed": removed,
        "changed_input_bytes": int(sum(len(h) for h in htmls)),
    }
