"""Unit tests for stage bodies: run compaction, forward lists,
events, dedup — checked against brute-force implementations."""

from __future__ import annotations

import io

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_based_search_engine_ray.config import ORACLE_CONFIG, IndexConfig
from web_based_search_engine_ray.functions.hashing import stable_hash63
from web_based_search_engine_ray.functions.tokenize import TOKEN_RE, stemmer
from web_based_search_engine_ray.stages import codec, postings
from web_based_search_engine_ray.stages.postings import (
    SEGMENT_SCHEMA,
    ForwardRows,
    PostingExtractor,
    TokenizeEncode,
    compact_bucket,
)


def _mk_batch(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "title": pa.array([r[1] for r in rows], type=pa.string()),
            "text": pa.array([r[2] for r in rows], type=pa.string()),
        }
    )


def _decode_rows(seg: pa.Table):
    """segment rows → {term: {doc: (ttf, btf, tpos, bpos)}}"""
    ids, ttfs, btfs = postings.decode_runs(seg)
    tflat = postings.decode_positions(seg["title_pos"], ttfs)
    bflat = postings.decode_positions(seg["body_pos"], btfs)
    toff = np.concatenate(([0], np.cumsum(ttfs)))
    boff = np.concatenate(([0], np.cumsum(btfs)))
    terms = [t for t, n in zip(seg["term"].to_pylist(),
                               seg["df_run"].to_pylist()) for _ in range(n)]
    assert len(terms) == len(ids)
    out: dict = {}
    for j, (term, doc) in enumerate(zip(terms, ids)):
        d = out.setdefault(term, {})
        assert int(doc) not in d, f"duplicate doc {doc} for {term}"
        d[int(doc)] = (
            int(ttfs[j]),
            int(btfs[j]),
            tflat[toff[j]:toff[j + 1]].tolist(),
            bflat[boff[j]:boff[j + 1]].tolist(),
        )
    return out


CFG = IndexConfig(use_stemming=False, use_stopwords=False, num_buckets=1)


def test_tokenize_encode_roundtrip():
    enc = TokenizeEncode(CFG)
    seg = enc(_mk_batch([
        (1, "alpha beta", "alpha gamma alpha"),
        (2, "", "beta beta"),
    ]))
    decoded = _decode_rows(seg)
    assert decoded["alpha"][1] == (1, 2, [0], [0, 2])
    assert decoded["beta"][1] == (1, 0, [1], [])
    assert decoded["beta"][2] == (0, 2, [], [0, 1])
    assert decoded["gamma"][1] == (0, 1, [], [1])


def test_compact_merges_runs_across_blocks():
    enc = TokenizeEncode(CFG)
    # same terms split across two blocks, unordered doc ids
    seg1 = enc(_mk_batch([(5, "x", "x y"), (1, "", "y")]))
    seg2 = enc(_mk_batch([(3, "x x", "z x")]))
    both = pa.concat_tables([seg1, seg2])
    compacted = compact_bucket(both, max_run_docs=1000, num_buckets=1)
    decoded = _decode_rows(compacted)
    assert sorted(decoded["x"].keys()) == [3, 5]
    assert decoded["x"][3] == (2, 1, [0, 1], [1])
    assert decoded["x"][5] == (1, 1, [0], [0])
    assert sorted(decoded["y"].keys()) == [1, 5]
    # x appears in 2 runs pre-compaction, 1 run after
    x_rows = compacted.filter(
        pa.compute.equal(compacted["term"], "x")
    )
    assert x_rows.num_rows == 1
    assert x_rows["df_run"][0].as_py() == 2


def test_compact_chunks_hot_terms():
    enc = TokenizeEncode(CFG)
    segs = [
        enc(_mk_batch([(d, "", "hot") for d in range(b * 10, b * 10 + 10)]))
        for b in range(4)
    ]
    compacted = compact_bucket(
        pa.concat_tables(segs), max_run_docs=15, num_buckets=1
    )
    assert compacted.num_rows == 3  # 40 docs / 15 per run
    assert sum(compacted["df_run"].to_pylist()) == 40
    decoded = _decode_rows(compacted)
    assert sorted(decoded["hot"].keys()) == list(range(40))


# ---- reference: the per-term, per-run, per-doc loops the array
# merge and the array run assembly replaced (kept to pin their output)


def _varbyte_encode(values) -> bytes:
    v = np.asarray(values, dtype=np.uint64)
    return codec.varbyte_encode_slices(v, [v.size])[0].tobytes()


def _encode_sorted(values) -> bytes:
    v = np.asarray(values, dtype=np.int64)
    return _varbyte_encode(codec.delta_concat(v, [v.size]))


def _encode_slices_list(values, lengths) -> list[bytes]:
    blob, offs = codec.varbyte_encode_slices(values, lengths)
    blob = blob.tobytes()
    return [blob[offs[i]:offs[i + 1]] for i in range(len(lengths))]


def _varbyte_slice_points(blob: bytes, counts) -> np.ndarray:
    """Byte offsets splitting ``blob`` into groups of ``counts[i]``
    varbyte values each, without decoding."""
    counts = np.asarray(counts, dtype=np.int64)
    b = np.frombuffer(blob, dtype=np.uint8)
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    if b.size == 0:
        return out
    value_ends = np.flatnonzero((b & 0x80) == 0) + 1
    cum = np.cumsum(counts)
    nz = cum > 0
    out[1:][nz] = value_ends[cum[nz] - 1]
    np.maximum.accumulate(out, out=out)
    return out


def _segment_table_rows(rows, shards, buckets, num_buckets):
    if not rows["term"]:
        return SEGMENT_SCHEMA.empty_table()
    shards_np = np.asarray(shards, dtype=np.int64)
    buckets_np = np.asarray(buckets, dtype=np.int64)
    cols = {
        "doc_shard": pa.array(shards_np, type=pa.int32()),
        "bucket": pa.array(buckets_np, type=pa.int32()),
        "part_key": pa.array(shards_np * num_buckets + buckets_np,
                             type=pa.int64()),
    }
    for f in SEGMENT_SCHEMA:
        if f.name not in cols:
            cols[f.name] = pa.array(rows[f.name], type=f.type)
    return pa.table(cols, schema=SEGMENT_SCHEMA)


def _new_rows():
    return {k: [] for k in ("term", "df_run", "ub_run", "doc_gaps",
                            "title_tfs", "body_tfs", "title_pos",
                            "body_pos")}


def compact_bucket_loop(group: pa.Table, *, max_run_docs: int,
                        num_buckets: int) -> pa.Table:
    """Reference ``compact_bucket``: decodes every run of a multi-run
    term one at a time and splices position bytes doc by doc."""
    if group.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    terms_np = np.asarray(group["term"])
    order = np.argsort(terms_np, kind="stable")
    terms_np = terms_np[order]
    new_term = np.ones(len(terms_np), dtype=bool)
    new_term[1:] = terms_np[1:] != terms_np[:-1]
    starts = np.flatnonzero(new_term)
    ends = np.concatenate((starts[1:], [len(terms_np)]))

    passthrough_idx = []
    rows = _new_rows()
    buckets, shards = [], []
    ub_runs_np = group["ub_run"].to_numpy(zero_copy_only=False)
    bucket = int(group["bucket"][0].as_py())
    doc_shard = int(group["doc_shard"][0].as_py())
    gap_blobs = group["doc_gaps"].to_pylist()
    ttf_blobs = group["title_tfs"].to_pylist()
    btf_blobs = group["body_tfs"].to_pylist()
    tpos_blobs = group["title_pos"].to_pylist()
    bpos_blobs = group["body_pos"].to_pylist()

    for s, e in zip(starts, ends):
        idxs = order[s:e]
        if e - s == 1:
            passthrough_idx.append(int(idxs[0]))
            continue
        term = str(terms_np[s])
        ids_parts, ttf_parts, btf_parts = [], [], []
        tpos_pieces: list[bytes] = []
        bpos_pieces: list[bytes] = []
        for i in idxs:
            i = int(i)
            gaps = codec.varbyte_decode(gap_blobs[i])
            ids = codec.undelta_concat(gaps, [gaps.size])
            ttfs = codec.varbyte_decode(ttf_blobs[i]).astype(np.int64)
            btfs = codec.varbyte_decode(btf_blobs[i]).astype(np.int64)
            ids_parts.append(ids)
            ttf_parts.append(ttfs)
            btf_parts.append(btfs)
            tb, bb = tpos_blobs[i], bpos_blobs[i]
            tcuts = _varbyte_slice_points(tb, ttfs)
            bcuts = _varbyte_slice_points(bb, btfs)
            tpos_pieces.extend(
                tb[tcuts[j]:tcuts[j + 1]] for j in range(len(ids))
            )
            bpos_pieces.extend(
                bb[bcuts[j]:bcuts[j + 1]] for j in range(len(ids))
            )
        ids = np.concatenate(ids_parts)
        sort = np.argsort(ids, kind="stable")
        ids = ids[sort]
        ttfs = np.concatenate(ttf_parts)[sort]
        btfs = np.concatenate(btf_parts)[sort]
        ub_merged = float(ub_runs_np[idxs].max())
        for cs in range(0, len(ids), max_run_docs):
            ce = min(cs + max_run_docs, len(ids))
            sel = sort[cs:ce]
            rows["term"].append(term)
            rows["df_run"].append(int(ce - cs))
            rows["ub_run"].append(ub_merged)
            rows["doc_gaps"].append(_encode_sorted(ids[cs:ce]))
            rows["title_tfs"].append(_varbyte_encode(ttfs[cs:ce]))
            rows["body_tfs"].append(_varbyte_encode(btfs[cs:ce]))
            rows["title_pos"].append(b"".join(tpos_pieces[j] for j in sel))
            rows["body_pos"].append(b"".join(bpos_pieces[j] for j in sel))
            buckets.append(bucket)
            shards.append(doc_shard)

    merged = _segment_table_rows(rows, shards, buckets, num_buckets)
    if passthrough_idx:
        kept = group.take(pa.array(passthrough_idx, type=pa.int64()))
        kept = kept.select([f.name for f in SEGMENT_SCHEMA])
        kept = kept.cast(SEGMENT_SCHEMA)
        merged = (
            pa.concat_tables([kept, merged]) if merged.num_rows else kept
        )
    return merged


def _reference_analyze(cfg: IndexConfig, text: str) -> list[str]:
    """One field's kept stems in position order, token by token: a
    Python ``re`` split, each token stemmed, at most ``POS_LIMIT``
    kept."""
    stem = stemmer(cfg.use_stopwords, cfg.use_stemming)
    out = []
    for tok in TOKEN_RE.split(text):
        if not tok:
            continue
        if len(out) >= PostingExtractor.POS_LIMIT:
            break
        w = stem(tok)
        if w is not None:
            out.append(w)
    return out


def reference_extract(cfg: IndexConfig, batch: pa.Table):
    """Reference per-document extraction (the loop that
    ``PostingExtractor.analyze`` replaced) → (terms, doc_ids, title_pos
    lists, body_pos lists, tf_max-of-row's-doc) flat row arrays, one
    row per (doc, term), each doc's rows in first-occurrence order."""
    terms, out_doc, tpos, bpos, tfmax = [], [], [], [], []
    for doc_id, title, text in zip(batch["doc_id"].to_pylist(),
                                   batch["title"].to_pylist(),
                                   batch["text"].to_pylist()):
        acc: dict[str, tuple[list[int], list[int]]] = {}
        for i, t in enumerate(_reference_analyze(cfg, title)):
            acc.setdefault(t, ([], []))[0].append(i)
        for i, t in enumerate(_reference_analyze(cfg, text)):
            acc.setdefault(t, ([], []))[1].append(i)
        if not acc:
            continue
        m = max(len(tl) + len(bl) for tl, bl in acc.values())
        for term, (tl, bl) in acc.items():
            terms.append(term)
            out_doc.append(doc_id)
            tpos.append(tl)
            bpos.append(bl)
            tfmax.append(m)
    return terms, out_doc, tpos, bpos, tfmax


def forward_rows_loop(cfg: IndexConfig, batch: pa.Table) -> pa.Table:
    """Reference ``ForwardRows.__call__`` from :func:`reference_extract`:
    one row per input doc (ids unique) with its terms sorted; a doc with
    no kept term gets empty lists and tf_max 0."""
    terms, out_doc, tpos, bpos, tfmax = reference_extract(cfg, batch)
    docs: dict[int, list] = {d: [] for d in batch["doc_id"].to_pylist()}
    for term, doc, tl, bl, m in zip(terms, out_doc, tpos, bpos, tfmax):
        docs[doc].append((term, len(tl), len(bl), m))
    rows = {"doc_id": [], "terms": [], "title_tfs": [], "body_tfs": [],
            "tf_max": []}
    for doc, entries in docs.items():
        entries.sort()
        rows["doc_id"].append(doc)
        rows["terms"].append([e[0] for e in entries])
        rows["title_tfs"].append([e[1] for e in entries])
        rows["body_tfs"].append([e[2] for e in entries])
        rows["tf_max"].append(entries[0][3] if entries else 0)
    return pa.table({
        "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
        "terms": pa.array(rows["terms"], type=pa.list_(pa.string())),
        "title_tfs": pa.array(rows["title_tfs"], type=pa.list_(pa.int64())),
        "body_tfs": pa.array(rows["body_tfs"], type=pa.list_(pa.int64())),
        "tf_max": pa.array(rows["tf_max"], type=pa.int64()),
    })


def tokenize_encode_loop(enc: TokenizeEncode, batch: pa.Table) -> pa.Table:
    """Reference ``TokenizeEncode.__call__``: single-doc runs, then
    multi-doc runs, appended row by row."""
    terms, out_doc, tpos, bpos, tfmax = reference_extract(enc.cfg, batch)
    if not terms:
        return SEGMENT_SCHEMA.empty_table()
    terms_np = np.asarray(terms, dtype=object)
    docs_np = np.asarray(out_doc, dtype=np.int64)
    tfmax_np = np.asarray(tfmax, dtype=np.float64)
    shards_np = docs_np % max(1, enc.cfg.doc_shards)
    order = np.lexsort((docs_np, terms_np, shards_np))
    terms_np, docs_np = terms_np[order], docs_np[order]
    shards_np, tfmax_np = shards_np[order], tfmax_np[order]
    tpos = [tpos[i] for i in order]
    bpos = [bpos[i] for i in order]
    new_term = np.ones(len(terms_np), dtype=bool)
    new_term[1:] = (terms_np[1:] != terms_np[:-1]) | (
        shards_np[1:] != shards_np[:-1]
    )
    starts = np.flatnonzero(new_term)
    ends = np.concatenate((starts[1:], [len(terms_np)]))
    sizes = ends - starts
    all_ttf = np.array([len(x) for x in tpos], dtype=np.int64)
    all_btf = np.array([len(x) for x in bpos], dtype=np.int64)
    a = enc.cfg.title_weight
    all_ratio = (a * all_ttf + (1.0 - a) * all_btf) / tfmax_np
    rows = _new_rows()
    buckets, out_shards = [], []
    nb = enc.cfg.num_buckets

    def flat(lists, idx):
        parts = [np.asarray(lists[i], np.int64) for i in idx]
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    for is_multi in (False, True):
        sel = (sizes > 1) == is_multi
        r_starts, r_ends = starts[sel], ends[sel]
        if not r_starts.size:
            continue
        lens = r_ends - r_starts
        idx = np.concatenate([np.arange(s, e) for s, e in zip(r_starts, r_ends)])
        offs = np.concatenate(([0], np.cumsum(lens)))[:-1]
        ttfs, btfs = all_ttf[idx], all_btf[idx]
        gaps = _encode_slices_list(codec.delta_concat(docs_np[idx], lens), lens)
        ttf_b = _encode_slices_list(ttfs, lens)
        btf_b = _encode_slices_list(btfs, lens)
        tpos_b = _encode_slices_list(
            codec.delta_concat(flat(tpos, idx), ttfs),
            np.add.reduceat(ttfs, offs),
        )
        bpos_b = _encode_slices_list(
            codec.delta_concat(flat(bpos, idx), btfs),
            np.add.reduceat(btfs, offs),
        )
        ub = np.maximum.reduceat(all_ratio[idx], offs)
        for j, (s, e) in enumerate(zip(r_starts, r_ends)):
            term = str(terms_np[s])
            rows["term"].append(term)
            rows["df_run"].append(int(e - s))
            rows["ub_run"].append(float(ub[j]))
            rows["doc_gaps"].append(gaps[j])
            rows["title_tfs"].append(ttf_b[j])
            rows["body_tfs"].append(btf_b[j])
            rows["title_pos"].append(tpos_b[j])
            rows["body_pos"].append(bpos_b[j])
            buckets.append(stable_hash63(term) % nb)
            out_shards.append(int(shards_np[s]))
    return _segment_table_rows(rows, out_shards, buckets, nb)


def _parquet_bytes(t: pa.Table) -> bytes:
    sink = io.BytesIO()
    pq.write_table(t, sink)
    return sink.getvalue()


def _assert_same_table(got: pa.Table, want: pa.Table):
    assert got.schema.equals(want.schema)
    assert got.equals(want)
    assert _parquet_bytes(got) == _parquet_bytes(want)


def _random_blocks(seed: int, n_blocks: int = 6, docs_per_block: int = 12):
    """Random document blocks that reach every varbyte width: doc ids
    past 2^21, tfs of 128+ (a long repeated word), position gaps of
    128+ (rare words far apart), empty titles, and a block of docs that
    share no term with any other block."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]
    ids = rng.choice(np.arange(1, 1 << 23), n_blocks * docs_per_block,
                     replace=False)
    ids[: docs_per_block // 2] += 1 << 40  # 6-byte gaps
    blocks = []
    for b in range(n_blocks):
        rows = []
        for d in ids[b * docs_per_block:(b + 1) * docs_per_block]:
            n_title = int(rng.integers(0, 4)) if rng.random() < 0.7 else 0
            title = " ".join(rng.choice(vocab[:10], n_title))
            words = list(rng.choice(vocab, int(rng.integers(1, 30))))
            if rng.random() < 0.3:  # tf >= 128
                words += ["hot"] * int(rng.integers(128, 300))
            if rng.random() < 0.3:  # position gap >= 128
                words += ["far"] + ["pad"] * int(rng.integers(128, 200))
                words += ["far"]
            if b == n_blocks - 1:  # terms private to this block
                words = [f"solo{d % 7}x{k}" for k in range(3)]
            rng.shuffle(words)
            rows.append((int(d), title, " ".join(words)))
        blocks.append(_mk_batch(rows))
    return blocks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tokenize_encode_matches_loop(seed):
    for cfg in (
        IndexConfig(use_stemming=False, use_stopwords=False,
                    num_buckets=3, doc_shards=2),
        IndexConfig(num_buckets=1),
    ):
        enc = TokenizeEncode(cfg)
        for block in _random_blocks(seed):
            _assert_same_table(enc(block), tokenize_encode_loop(enc, block))
        empty = _mk_batch([(1, "", ""), (2, "", "")])
        _assert_same_table(enc(empty), tokenize_encode_loop(enc, empty))


#: fuzz words: case, digits, ``_`` / ``-`` inside and around tokens,
#: stopwords, words that stem alike, and non-ASCII code points (which
#: the split treats as delimiters, also inside a word)
_FUZZ_WORDS = ["Run", "running", "RUNS", "merge", "Merging", "the", "of",
               "And", "x1", "42", "0", "a_b", "c-d", "-", "_", "--x", "y__",
               "café", "straße", "中文", "😀", "ﬁle", "İstanbul", "kilos"]
_FUZZ_DELIMS = [" ", "  ", ",", ". ", "\u00a0", "é", "ß", "中", "😀", "ﬁ",
                "İ", "\t\n", "!?"]


def _fuzz_field(rng) -> str:
    kind = rng.random()
    if kind < 0.1:
        return ""
    if kind < 0.15:
        return str(rng.choice(["   ", "\u00a0\t ", ",,..", "é😀"]))
    if kind < 0.2:  # stopwords only
        return " ".join(rng.choice(["the", "of", "and", "A"],
                                   int(rng.integers(1, 5))))
    parts = [str(rng.choice(_FUZZ_DELIMS))] if rng.random() < 0.3 else []
    for _ in range(int(rng.integers(1, 25))):
        parts.append(str(rng.choice(_FUZZ_WORDS)))
        parts.append("".join(rng.choice(_FUZZ_DELIMS,
                                        int(rng.integers(1, 3)))))
    if rng.random() < 0.5:
        parts.pop()  # no trailing delimiter
    return "".join(parts)


def _fuzz_batch(rng, n_docs: int) -> pa.Table:
    ids = rng.permutation(np.cumsum(rng.integers(1, 1 << 34, n_docs)))
    return _mk_batch([(int(d), _fuzz_field(rng), _fuzz_field(rng))
                      for d in ids])


def _rows_by_doc_term(r: postings.TermRows, batch: pa.Table) -> dict:
    """{(doc_id, term): (title positions, body positions, tf_max)} of an
    analysis."""
    ids = batch["doc_id"].to_numpy()
    toff = np.cumsum(r.ttf) - r.ttf
    boff = np.cumsum(r.btf) - r.btf
    return {
        (int(ids[r.doc[i]]), r.vocab[r.term[i]]): (
            r.tpos[toff[i]:toff[i] + r.ttf[i]].tolist(),
            r.bpos[boff[i]:boff[i] + r.btf[i]].tolist(),
            int(r.tf_max[i]),
        )
        for i in range(len(r.term))
    }


@pytest.mark.parametrize("cfg", [
    IndexConfig(doc_shards=2, num_buckets=3), ORACLE_CONFIG,
], ids=["default", "oracle"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_analysis_matches_reference_fuzz(cfg, seed):
    """The columnar analysis equals the per-document reference on every
    (doc, term): title positions, body positions and tf_max; both
    stages' tables equal the ones built from the reference."""
    rng = np.random.default_rng(seed)
    enc, fwd = TokenizeEncode(cfg), ForwardRows(cfg)
    for n_docs in (1, 3, 17, 40):
        batch = _fuzz_batch(rng, n_docs)
        r = enc.analyze(batch)
        terms, docs, tpos, bpos, tfmax = reference_extract(cfg, batch)
        assert _rows_by_doc_term(r, batch) == {
            (d, t): (tl, bl, m)
            for t, d, tl, bl, m in zip(terms, docs, tpos, bpos, tfmax)
        }
        assert len(r.term) == len(terms)
        # rows in (doc, term) order; term codes in code-point order
        key = r.doc * len(r.vocab) + r.term
        assert (np.diff(key) > 0).all()
        assert r.vocab == sorted(set(terms))
        _assert_same_table(enc(batch), tokenize_encode_loop(enc, batch))
        _assert_same_table(fwd(batch), forward_rows_loop(cfg, batch))


def test_pos_limit_truncates_per_field(monkeypatch, caplog):
    """A field with more kept tokens than ``POS_LIMIT`` keeps exactly
    its first ``POS_LIMIT`` positions, the other field is unaffected,
    the warning is logged once per instance, and both stages equal the
    reference."""
    import logging

    monkeypatch.setattr(PostingExtractor, "POS_LIMIT", 4)
    cfg = IndexConfig(use_stemming=False, doc_shards=2, num_buckets=2)
    batch = _mk_batch([
        (1, "alpha the beta gamma delta alpha epsilon",
         "alpha beta the gamma eta"),
        (2, "omega", "psi"),
    ])
    enc = TokenizeEncode(cfg)
    with caplog.at_level(logging.WARNING, logger=postings.__name__):
        rows = _rows_by_doc_term(enc.analyze(batch), batch)
        got = enc(batch)
        _assert_same_table(ForwardRows(cfg)(batch),
                           forward_rows_loop(cfg, batch))
    assert rows == {
        (1, "alpha"): ([0], [0], 2), (1, "beta"): ([1], [1], 2),
        (1, "gamma"): ([2], [2], 2), (1, "delta"): ([3], [], 2),
        (1, "eta"): ([], [3], 2),
        (2, "omega"): ([0], [], 1), (2, "psi"): ([], [0], 1),
    }
    _assert_same_table(got, tokenize_encode_loop(enc, batch))
    warned = [rec for rec in caplog.records
              if "exceeds 4 filtered tokens" in rec.getMessage()]
    assert len(warned) == 2  # enc's analyze + __call__ once, ForwardRows once


def _groups(seed: int, cfg: IndexConfig):
    """Per-part_key groups of a random build's runs, each given as a
    slice of a multi-chunk table (as Ray's group concatenation and the
    perfbench replay pass them)."""
    enc = TokenizeEncode(cfg)
    runs = pa.concat_tables([enc(b) for b in _random_blocks(seed)])
    keys = runs["part_key"].to_numpy()
    for key in np.unique(keys):
        g = runs.filter(pa.array(keys == key))
        pieces = [g.slice(i, 5) for i in range(0, g.num_rows, 5)]
        big = pa.concat_tables([runs.slice(0, 3), *pieces, runs.slice(0, 2)])
        yield big.slice(3, g.num_rows)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_compact_bucket_matches_loop(seed):
    cfg = IndexConfig(use_stemming=False, use_stopwords=False,
                      num_buckets=3, doc_shards=2)
    n_groups = n_merged = 0
    for group in _groups(seed, cfg):
        assert group["term"].num_chunks > 1
        n_groups += 1
        terms = group["term"].to_pylist()
        n_merged += len(terms) > len(set(terms))
        single = [t for t in terms if terms.count(t) == 1]
        only_single = group.filter(pa.compute.is_in(
            group["term"], pa.array(single, pa.string())))
        for g in (group, only_single, group.slice(0, 0)):
            for max_run_docs in (1, 7, 5_000_000):
                kw = dict(max_run_docs=max_run_docs, num_buckets=3)
                _assert_same_table(compact_bucket(g, **kw),
                                   compact_bucket_loop(g, **kw))
    assert n_groups == 6 and n_merged == 6


def test_compact_bucket_splits_oversized_columns(monkeypatch):
    """Past ``MAX_CHUNK_BYTES`` per binary column the merged rows are
    emitted as several row-slices, each within the cap."""
    cfg = IndexConfig(use_stemming=False, use_stopwords=False,
                      num_buckets=1)
    group = next(_groups(0, cfg))
    want = compact_bucket_loop(group, max_run_docs=3, num_buckets=1)
    cap = 2 * max(max(map(len, want[c].to_pylist()))
                  for c in postings._BLOB_COLUMNS)
    monkeypatch.setattr(postings, "MAX_CHUNK_BYTES", cap)
    got = compact_bucket(group, max_run_docs=3, num_buckets=1)
    assert got.equals(want)
    assert got["doc_gaps"].num_chunks > 2
    for name in postings._BLOB_COLUMNS:
        for ch in got[name].chunks:
            assert pa.compute.sum(pa.compute.binary_length(ch)).as_py() <= cap
    monkeypatch.setattr(postings, "MAX_CHUNK_BYTES", cap // 4)
    with pytest.raises(ValueError, match=f"exceeds {cap // 4} bytes"):
        compact_bucket(group, max_run_docs=1000, num_buckets=1)


#: sha256 over every ``segments`` row of the sf0.001 build below, in
#: (doc_shard, bucket, term, doc_gaps) order: computed over the same
#: columns on the format-8 build, whose digest over all of its columns
#: was pinned from the run-at-a-time merge that the array merge replaced
SEGMENTS_SF0001_DIGEST = (
    "a17ca5b62d50ff811b595edf4c8f76abffe5a6de2a887fc11377799aebe045c6"
)


def test_segment_bytes_pinned(ray_session, sf_dir, tmp_path):
    """The segments of a build where runs both merge and re-chunk
    (64-doc tokenize batches, 64-doc runs, 2 shards × 8 buckets) hash
    to the pinned digest: encoder and merge changes cannot drift the
    bytes silently."""
    import hashlib

    import pyarrow.dataset as pads

    from web_based_search_engine_ray.pipelines.build_index import build_index
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    cfg = IndexConfig(doc_shards=2, num_buckets=8, tokenize_batch_size=64,
                      max_run_docs=64)
    out = str(tmp_path / "idx")
    build_index(lambda: synth_corpus(sf_dir), out, cfg,
                input_key="segment-digest", resume=False)
    seg = pads.dataset(f"{out}/segments", format="parquet",
                       partitioning="hive").to_table()
    # a term's runs hold disjoint docs, so their doc_gaps (whose first
    # value is the run's first doc id) differ
    seg = seg.sort_by([(c, "ascending")
                       for c in ("doc_shard", "bucket", "term", "doc_gaps")])
    h = hashlib.sha256()
    for row in seg.select([f.name for f in SEGMENT_SCHEMA]).to_pylist():
        h.update(repr(tuple(row.values())).encode())
    assert int(seg["df_run"].to_numpy().max()) == 64
    assert h.hexdigest() == SEGMENTS_SF0001_DIGEST, seg.num_rows


def test_sessionize_matches_bruteforce(ray_session, sf_dir):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.events import sessionize

    got = (
        sessionize(rd.read_parquet(f"{sf_dir}/events.parquet"), gap_minutes=30)
        .to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )

    ev = pd.read_parquet(f"{sf_dir}/events.parquet").sort_values(
        ["user_id", "ts"]
    )
    rows = []
    for uid, grp in ev.groupby("user_id"):
        cur = None
        for _, r in grp.iterrows():
            if cur is None or (r["ts"] - cur["end"]).total_seconds() > 1800:
                if cur:
                    rows.append(cur)
                cur = {"user_id": uid, "start": r["ts"], "end": r["ts"],
                       "n": 1, "sum": r["value"]}
            else:
                cur["end"] = r["ts"]
                cur["n"] += 1
                cur["sum"] += r["value"]
        if cur:
            rows.append(cur)
    exp = pd.DataFrame(rows).sort_values(["user_id", "start"]).reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
    assert (got["n_events"].to_numpy() == exp["n"].to_numpy()).all()
    np.testing.assert_allclose(got["sum_value"], exp["sum"], rtol=1e-9)


def test_exact_dedup_keeps_min_doc_id(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import exact_dedup

    t = pa.table(
        {
            "doc_id": pa.array([5, 1, 3, 2, 9], type=pa.int64()),
            "text": pa.array(["a", "b", "a", "b", "c"]),
        }
    )
    kept = exact_dedup(rd.from_arrow(t)).to_pandas()
    assert sorted(kept["doc_id"].tolist()) == [1, 3, 9]


def test_minhash_estimates_jaccard(ray_session):
    import ray.data as rd

    from web_based_search_engine_ray.pipelines.dedup import (
        MinHasher,
        _shingle_hashes,
        minhash_lsh_pairs,
    )

    base = "the quick brown fox jumps over the lazy dog again and again today"
    near = base + " extra"
    far = "completely different words nothing shared here at all whatsoever ok"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array([base, near, far]),
        }
    )
    pairs = minhash_lsh_pairs(
        rd.from_arrow(t), threshold=0.3
    ).to_pandas()
    assert {(1, 2)} == set(zip(pairs["doc_a"], pairs["doc_b"]))
    est = pairs["est_jaccard"].iloc[0]
    a = set(_shingle_hashes(base, 3).tolist())
    b = set(_shingle_hashes(near, 3).tolist())
    true_j = len(a & b) / len(a | b)
    assert abs(est - true_j) < 0.25  # 64 permutations → coarse estimate


def test_media_pipeline_schema(ray_session, sf_dir):
    from web_based_search_engine_ray.pipelines.multimodal import (
        FEATURE_DIM,
        media_pipeline,
    )
    from web_based_search_engine_ray.sources.webcorpus import synth_corpus

    out = media_pipeline(
        synth_corpus(sf_dir).select_columns(["doc_id", "html"]).limit(20),
        payload_col="html",
        batch_size=8,
        concurrency=(1, 2),
    ).to_pandas()
    assert len(out) == 20
    assert "html" not in out.columns  # heavy payload dropped
    assert len(out["features"].iloc[0]) == FEATURE_DIM
    # determinism
    out2 = media_pipeline(
        synth_corpus(sf_dir).select_columns(["doc_id", "html"]).limit(20),
        payload_col="html",
        batch_size=8,
        concurrency=(1, 2),
    ).to_pandas()
    m1 = dict(zip(out["doc_id"], out["width"]))
    m2 = dict(zip(out2["doc_id"], out2["width"]))
    assert m1 == m2


def test_media_strict_mode_raises():
    from web_based_search_engine_ray.pipelines.multimodal import (
        MediaFeatureExtractor,
    )

    ex = MediaFeatureExtractor(payload_col="p", decoder="strict")
    batch = pa.table({"p": pa.array([b"bytes"], type=pa.binary())})
    with pytest.raises(NotImplementedError):
        ex(batch)


def test_media_custom_decoder_injection():
    """A user codec drops in via register_decoder without editing the
    stage: the stage builds output columns from the decoder's declared
    schema."""
    from web_based_search_engine_ray.pipelines import multimodal

    class ByteLenDecoder:
        schema = [("n_bytes", pa.int64()), ("first", pa.int32())]

        def decode_batch(self, payloads):
            return {
                "n_bytes": pa.array([len(p) for p in payloads]),
                "first": pa.array(
                    [p[0] if p else -1 for p in payloads], type=pa.int32()
                ),
            }

    multimodal.register_decoder("bytelen", ByteLenDecoder)
    try:
        ex = multimodal.MediaFeatureExtractor(
            payload_col="p", decoder="bytelen"
        )
        batch = pa.table(
            {
                "doc_id": pa.array([1, 2], type=pa.int64()),
                "p": pa.array([b"abc", b""], type=pa.binary()),
            }
        )
        out = ex(batch)
        assert out.column_names == ["doc_id", "n_bytes", "first"]
        assert out["n_bytes"].to_pylist() == [3, 0]
        assert out["first"].to_pylist() == [ord("a"), -1]
    finally:
        del multimodal._DECODERS["bytelen"]

    with pytest.raises(ValueError, match="unknown media decoder"):
        multimodal.MediaFeatureExtractor(payload_col="p", decoder="nope")


def test_lww_shard_dedup_task_idempotent_on_retry(tmp_path):
    """Ray re-executes tasks on worker loss: a retry that finds a
    completed ``lww-compacted.parquet`` (plus leftover inputs from the
    interrupted remove loop) must converge on the compacted state —
    never delete the output (regression: the output was globbed as an
    input and removed)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.pipelines.build_index import (
        _lww_shard_dedup_task,
    )

    d = tmp_path / "doc_shard=0"
    d.mkdir()
    rows = pa.table({
        "url": ["u1", "u1", "u2"],
        "last_modified": pa.array(
            np.array(["2024-01-02", "2024-01-01", "2024-01-01"],
                     dtype="datetime64[us]"),
            type=pa.timestamp("us")),
        "text": ["new", "old", "x"],
    })
    pq.write_table(rows, d / "part-0.parquet")

    # first (clean) execution: drops 1 duplicate, removes the input
    assert _lww_shard_dedup_task(str(d)) == 1
    assert sorted(p.name for p in d.iterdir()) == ["lww-compacted.parquet"]

    # simulate an interrupted remove loop: leftover input + output
    pq.write_table(rows, d / "part-0.parquet")
    assert _lww_shard_dedup_task(str(d)) == 0  # resumed: nothing dropped
    files = sorted(p.name for p in d.iterdir())
    assert files == ["lww-compacted.parquet"], files
    out = pq.read_table(d / "lww-compacted.parquet")
    assert sorted(out["url"].to_pylist()) == ["u1", "u2"]
    assert "new" in out["text"].to_pylist()

    # pure re-execution (no leftovers) is also stable
    assert _lww_shard_dedup_task(str(d)) == 0
    assert sorted(p.name for p in d.iterdir()) == ["lww-compacted.parquet"]


def test_lww_resume_read_error_with_no_inputs_raises(tmp_path, monkeypatch):
    """A transient footer-read failure on a completed compaction whose
    inputs were already removed must RAISE — the compacted file is the
    shard's only copy (regression: the torn-copy branch deleted it and
    reported the shard as empty).  Inputs still present do NOT prove a
    torn copy (the remove loop can be interrupted midway through, so
    comp may hold rows whose inputs are already gone): only the
    ``.tmp`` source sibling — which ``fsio.replace`` deletes strictly
    AFTER verifying the copy — marks a genuine torn copy, and only then
    is comp discarded and the shard recompacted from the (then
    guaranteed complete) inputs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_based_search_engine_ray.pipelines import build_index as bi

    d = tmp_path / "doc_shard=0"
    d.mkdir()
    rows = pa.table({
        "url": ["u1"],
        "last_modified": pa.array(
            np.array(["2024-01-01"], dtype="datetime64[us]"),
            type=pa.timestamp("us")),
        "text": ["x"],
    })
    pq.write_table(rows, d / "lww-compacted.parquet")

    def boom(path):
        raise OSError("transient object-store read failure")

    monkeypatch.setattr(bi.fsio, "parquet_num_rows", boom)
    with pytest.raises(OSError, match="transient"):
        bi._lww_shard_dedup_task(str(d))
    assert (d / "lww-compacted.parquet").exists()  # sole copy untouched

    # inputs present but NO .tmp sibling: the replace COMPLETED (tmp is
    # deleted only after a verified copy), so the read failure is still
    # transient and comp may be the only copy of rows whose inputs a
    # prior attempt's remove loop already deleted — must still RAISE
    # (regression: leftover inputs were mis-read as proof of a torn copy
    # and comp was deleted, losing the already-removed inputs' rows)
    dup_rows = pa.table({
        "url": ["u1", "u1"],
        "last_modified": pa.array(
            np.array(["2024-01-02", "2024-01-01"], dtype="datetime64[us]"),
            type=pa.timestamp("us")),
        "text": ["new", "old"],
    })
    pq.write_table(dup_rows, d / "part-0.parquet")
    with pytest.raises(OSError, match="transient"):
        bi._lww_shard_dedup_task(str(d))
    assert (d / "lww-compacted.parquet").exists()

    # .tmp sibling present -> genuine torn copy (crash mid-copy, remove
    # loop never ran): comp is discarded and the shard recompacts from
    # the intact inputs
    pq.write_table(dup_rows, d / "lww-compacted.parquet.tmp")
    assert bi._lww_shard_dedup_task(str(d)) == 1
    assert sorted(p.name for p in d.iterdir()) == ["lww-compacted.parquet"]
    assert pq.read_table(d / "lww-compacted.parquet")["text"].to_pylist() \
        == ["new"]
