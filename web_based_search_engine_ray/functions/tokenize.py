"""Tokenizer + stop-stem normalization.

Semantics pinned to the reference:

- Token split regex ``[^a-zA-Z0-9_-]+`` (``Crawler.java:39,59``;
  query side ``JavalinServer.java:48,58``).  ``_`` and ``-`` stay inside
  tokens.  Java's ``String.split`` keeps a leading empty token and drops
  trailing ones; empty tokens are always dropped later by ``stemWord``
  (blank check, ``Indexer.java:71-72``) and never occupy a position, so
  dropping them here is observationally identical.  The index build
  splits whole columns on ``TOKEN_PATTERN`` with Arrow's RE2
  (``PostingExtractor.analyze``), whose tokens must equal ``TOKEN_RE``'s.
- ``stem_word`` (``Indexer.stemWord``, ``Indexer.java:65-75``):
  lowercase → stopword test on the *raw lowercased token* → Porter
  ``strip_affixes`` → drop if blank.  :func:`stemmer` memoizes it per
  process; the index build and the query side both stem through it.
- Positions (used for phrase search) are indices into the
  *post-filter* term sequence: dropped tokens (stopwords, blanks) do
  not take a position (``Indexer.java:117-140`` builds the filtered
  list, ``PostingIndex.java:50-64`` enumerates it).
"""

from __future__ import annotations

import functools
import re

from web_based_search_engine_ray.functions.porter import strip_affixes
from web_based_search_engine_ray.functions.stopwords import stopword_set

TOKEN_PATTERN = r"[^a-zA-Z0-9_-]+"
TOKEN_RE = re.compile(TOKEN_PATTERN)

#: bound on each memoized stemmer's raw-token → stem table (a Zipf
#: vocabulary keeps the working set small; the cap only guards
#: pathological inputs)
STEM_MEMO_CAP = 1 << 20


def tokenize(text: str) -> list[str]:
    """Raw tokens (non-empty) in order."""
    return [t for t in TOKEN_RE.split(text) if t]


def stem_word(
    word: str,
    *,
    use_stopwords: bool = True,
    use_stemming: bool = True,
) -> str | None:
    """Normalize one raw token; ``None`` means the token is dropped."""
    w = word.lower()
    if use_stopwords and w in stopword_set():
        return None
    if use_stemming:
        w = strip_affixes(w)
    if not w or w.isspace():
        return None
    return w


@functools.lru_cache(maxsize=None)
def stemmer(use_stopwords: bool, use_stemming: bool, /):
    """This process's memoized :func:`stem_word` for one
    ``(use_stopwords, use_stemming)`` pair: raw token → stem or
    ``None``, each distinct token stemmed once (LRU-bounded by
    ``STEM_MEMO_CAP``)."""
    return functools.lru_cache(maxsize=STEM_MEMO_CAP)(
        functools.partial(stem_word, use_stopwords=use_stopwords,
                          use_stemming=use_stemming)
    )


def analyze(
    text: str,
    *,
    use_stopwords: bool = True,
    use_stemming: bool = True,
) -> list[str]:
    """Tokenize + normalize; the i-th element's index IS its position."""
    stem = stemmer(use_stopwords, use_stemming)
    return [w for w in map(stem, tokenize(text)) if w is not None]
