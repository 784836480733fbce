"""PII redaction: scrub emails / IPv4 addresses / phone-shaped numbers
from a text column, counting what was removed.

Hot path is fully vectorized: each pattern is one
``pyarrow.compute.replace_substring_regex`` / ``count_substring_regex``
kernel over the Arrow string column — RE2 over the zero-copy buffer, no
Python per row.  DuckDB's ``regexp_replace``/``regexp_extract_all`` are
also RE2, so the SQL oracle runs the IDENTICAL pattern text with
identical semantics.

One streaming ``map_batches``; no shuffle, no state.  At 100 TB this is
embarrassingly parallel and IO-bound — the kernels stream at memory
bandwidth.

Pattern notes (kept deliberately simple and order-pinned):
- email before phone (an email's digits must not be half-eaten first);
- IPv4 uses word boundaries, not lookarounds (RE2 has no lookbehind);
- phone = international-ish ``+?digits[-. ]digits...`` with ≥9 digits
  total, anchored on word boundaries.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

#: (name, pattern, replacement) — applied IN ORDER; order matters and
#: is part of the operator contract (mirrored by the SQL oracle).
PII_PATTERNS: list[tuple[str, str, str]] = [
    (
        "email",
        r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
        "<EMAIL>",
    ),
    (
        "ipv4",
        r"\b(?:\d{1,3}\.){3}\d{1,3}\b",
        "<IP>",
    ),
    (
        "phone",
        # optional leading + OUTSIDE the boundary: '\b\+' can never
        # match after a space (no word char on either side of '+')
        r"\+?\b\d[\d\-\. ]{7,}\d\b",
        "<PHONE>",
    ),
]


def redact_batch(batch: pa.Table) -> pa.Table:
    """Redacts ``text``: adds ``text_redacted`` plus one ``n_<name>``
    count column per pattern (counts are pre-replacement occurrences on
    the progressively-redacted string, matching sequential
    application)."""
    col = batch["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out: dict[str, pa.Array | pa.ChunkedArray] = {}
    cur = col
    for name, pat, repl in PII_PATTERNS:
        out[f"n_{name}"] = pc.count_substring_regex(cur, pat)
        cur = pc.replace_substring_regex(cur, pat, repl)
    res = batch.append_column("text_redacted", cur)
    for name, _, _ in PII_PATTERNS:
        res = res.append_column(
            f"n_{name}", pc.cast(out[f"n_{name}"], pa.int64())
        )
    return res


def redact(docs):
    """Dataset with ``text_redacted`` and per-pattern counts appended."""
    return docs.map_batches(redact_batch, batch_format="pyarrow")
