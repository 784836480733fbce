"""Multimodal column plumbing (binary payloads + typed metadata).

Image/audio/video payloads are opaque ``binary`` columns processed by
actor-pool ``map_batches`` stages.  The compressed-codec libraries
(PIL, torchaudio, ffmpeg) are NOT in this container, so the codec
layer is a PLUGGABLE DECODER REGISTRY with four built-ins:

- ``"pnm"``: a REAL image decoder (binary PPM/PGM — header parse +
  zero-copy pixel view + luma-histogram features, stdlib + numpy
  only);
- ``"wav"``: a REAL audio decoder (RIFF/WAV 16-bit PCM via stdlib
  ``wave`` — channels/rate/duration/RMS + envelope features);
- ``"fake"`` (default for the SQL-mirrored bench query): a
  deterministic md5-seeded pseudo-decoder, kept because its output is
  exactly reproducible in DuckDB for the oracle contract;
- ``"strict"``: raises ``NotImplementedError`` at decode time — the
  honest production boundary for formats needing an external codec.

Wiring a real codec needs NO edits to this stage::

    from web_based_search_engine_ray.pipelines import multimodal

    class PilDecoder:
        schema = [("width", pa.int32()), ("height", pa.int32()),
                  ("features", pa.list_(pa.float32()))]
        def __init__(self):
            from PIL import Image      # heavy import once per ACTOR
            self._Image = Image
        def decode_batch(self, payloads):
            ...  # -> {name: pyarrow array} matching self.schema

    multimodal.register_decoder("pil", PilDecoder)
    media_pipeline(ds, decoder="pil")

Batch-size guidance: payloads are large, so size ``batch_size`` by
payload, not row count — ~32 for MB-scale images (the bench uses 32-64
on KB-scale blobs), single digits for video segments — and cap block
size via ``DataContext.target_max_block_size`` so a block × actor-pool
concurrency stays within the worker heap.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
import pyarrow as pa

FEATURE_DIM = 16

#: decoder name -> zero-arg factory returning a decoder instance with
#: ``schema: list[(name, pa.DataType)]`` and
#: ``decode_batch(payloads: list[bytes]) -> dict[str, pa.Array]``
_DECODERS: dict[str, Callable[[], object]] = {}


def register_decoder(name: str, factory: Callable[[], object]) -> None:
    """Register a codec under ``name`` (overwrites).  The factory runs
    once per ACTOR (inside ``MediaFeatureExtractor.__init__``), so
    heavy state — model weights, decoder contexts — belongs in the
    decoder's ``__init__``."""
    _DECODERS[name] = factory


def get_decoder(name: str):
    try:
        return _DECODERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown media decoder {name!r}; registered: "
            f"{sorted(_DECODERS)}"
        ) from None


_MEDIA_SCHEMA = [
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("features", pa.list_(pa.float32())),
]


class FakeDecoder:
    """Deterministic pseudo-decode: md5-seeded 'dimensions' and a unit
    feature vector.  STUB — stands in for a real decoder so the
    pipeline shape is testable without codec libraries."""

    schema = _MEDIA_SCHEMA

    def decode_batch(self, payloads: list[bytes]) -> dict[str, pa.Array]:
        ws, hs, feats = [], [], []
        for p in payloads:
            d = hashlib.md5(p).digest()
            ws.append(64 + d[0])
            hs.append(64 + d[1])
            rng = np.random.default_rng(int.from_bytes(d[2:10], "big"))
            f = rng.standard_normal(FEATURE_DIM)
            feats.append((f / np.linalg.norm(f)).astype(np.float32).tolist())
        return {
            "width": pa.array(ws, type=pa.int32()),
            "height": pa.array(hs, type=pa.int32()),
            "features": pa.array(feats, type=pa.list_(pa.float32())),
        }


class StrictDecoder:
    """Honest production boundary: no codec library is present in this
    environment, so decoding raises instead of faking."""

    schema = _MEDIA_SCHEMA

    def decode_batch(self, payloads: list[bytes]) -> dict[str, pa.Array]:
        raise NotImplementedError(
            "no image/audio codec available in this environment; "
            "register_decoder() a PIL/torchaudio-backed decoder"
        )


class PnmDecoder:
    """REAL image decoder for binary PPM (``P6``) / PGM (``P5``)
    payloads — pure stdlib + numpy (no codec library needed): header
    parse, ``np.frombuffer`` pixel view, and a 16-bin normalized luma
    histogram as the feature vector.  Demonstrates that the registry
    seam carries an actual decoder, not only the fake; PIL-backed JPEG
    decode drops into the identical shape."""

    schema = [
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("channels", pa.int32()),
        ("mean_luma", pa.float64()),
        ("features", pa.list_(pa.float32())),
    ]

    @staticmethod
    def _parse_header(p: bytes, start: int = 0):
        """(magic, width, height, maxval, data_offset) — PNM headers
        are whitespace-separated ASCII tokens with ``#`` comments.
        ``start`` parses a header mid-buffer (frame sequences) without
        copying the tail; ``data_offset`` is ABSOLUTE into ``p``."""
        if p[start:start + 2] not in (b"P5", b"P6"):
            raise ValueError(
                f"not a binary PGM/PPM payload: {p[start:start + 2]!r}"
            )
        tokens, i, n = [], start + 2, len(p)
        while len(tokens) < 3:
            while i < n and p[i:i + 1].isspace():
                i += 1
            if i < n and p[i:i + 1] == b"#":
                while i < n and p[i] != 0x0A:
                    i += 1
                continue
            j = i
            while j < n and not p[j:j + 1].isspace():
                j += 1
            if j == i:
                raise ValueError("truncated PNM header")
            tokens.append(int(p[i:j]))
            i = j
        i += 1  # single whitespace byte after maxval, then raster
        w, h, maxval = tokens
        if maxval > 255:
            raise ValueError("16-bit PNM not supported")
        return p[start:start + 2], w, h, maxval, i

    def decode_batch(self, payloads: list[bytes]) -> dict[str, pa.Array]:
        ws, hs, cs, lumas, feats = [], [], [], [], []
        for p in payloads:
            magic, w, h, _maxval, off = self._parse_header(p)
            ch = 3 if magic == b"P6" else 1
            need = w * h * ch
            px = np.frombuffer(p, dtype=np.uint8, count=need, offset=off)
            if ch == 3:
                rgb = px.reshape(-1, 3).astype(np.float64)
                luma = (
                    0.299 * rgb[:, 0] + 0.587 * rgb[:, 1]
                    + 0.114 * rgb[:, 2]
                )
            else:
                luma = px.astype(np.float64)
            hist, _ = np.histogram(luma, bins=FEATURE_DIM,
                                   range=(0.0, 256.0))
            tot = max(1, int(hist.sum()))
            ws.append(w)
            hs.append(h)
            cs.append(ch)
            lumas.append(float(luma.mean()) if luma.size else 0.0)
            feats.append((hist / tot).astype(np.float32).tolist())
        return {
            "width": pa.array(ws, type=pa.int32()),
            "height": pa.array(hs, type=pa.int32()),
            "channels": pa.array(cs, type=pa.int32()),
            "mean_luma": pa.array(lumas, type=pa.float64()),
            "features": pa.array(feats, type=pa.list_(pa.float32())),
        }


class WavDecoder:
    """REAL audio decoder for RIFF/WAV payloads — stdlib ``wave`` over
    a bytes buffer + numpy sample math (16-bit PCM): channel count,
    sample rate, duration, RMS amplitude, and a coarse 16-bin |sample|
    envelope as the feature vector."""

    schema = [
        ("n_channels", pa.int32()),
        ("sample_rate", pa.int32()),
        ("duration_s", pa.float64()),
        ("rms", pa.float64()),
        ("features", pa.list_(pa.float32())),
    ]

    def __init__(self):
        import io
        import wave

        self._io = io
        self._wave = wave

    def decode_batch(self, payloads: list[bytes]) -> dict[str, pa.Array]:
        nch, rate, dur, rms, feats = [], [], [], [], []
        for p in payloads:
            with self._wave.open(self._io.BytesIO(p), "rb") as w:
                c = w.getnchannels()
                r = w.getframerate()
                nf = w.getnframes()
                if w.getsampwidth() != 2:
                    raise ValueError("only 16-bit PCM WAV supported")
                raw = w.readframes(nf)
            x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
            nch.append(c)
            rate.append(r)
            dur.append(nf / r if r else 0.0)
            rms.append(float(np.sqrt(np.mean(x * x))) if x.size else 0.0)
            if x.size:
                seg = np.array_split(np.abs(x), FEATURE_DIM)
                env = np.array([s.mean() if s.size else 0.0 for s in seg])
            else:
                env = np.zeros(FEATURE_DIM)
            feats.append(env.astype(np.float32).tolist())
        return {
            "n_channels": pa.array(nch, type=pa.int32()),
            "sample_rate": pa.array(rate, type=pa.int32()),
            "duration_s": pa.array(dur, type=pa.float64()),
            "rms": pa.array(rms, type=pa.float64()),
            "features": pa.array(feats, type=pa.list_(pa.float32())),
        }


class PnmSeqDecoder:
    """REAL video-shaped decoder: the payload is a SEQUENCE of
    concatenated binary PPM/PGM frames (the layout a raw frame-dump
    produces), and decode = frame-SAMPLING — parse frame headers, keep
    every ``stride``-th frame, per-sampled-frame mean luma as the
    feature vector.  This is the brief's video frame-sample operator
    with stdlib-only decode: an ffmpeg/PyAV-backed decoder drops into
    the identical registry shape when the codec libs exist."""

    schema = [
        ("n_frames", pa.int32()),
        ("n_sampled", pa.int32()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("mean_luma", pa.float64()),
        ("features", pa.list_(pa.float32())),
    ]

    def __init__(self, stride: int = 2):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride

    def decode_batch(self, payloads: list[bytes]) -> dict[str, pa.Array]:
        nf, ns, ws, hs, lumas, feats = [], [], [], [], [], []
        for p in payloads:
            off, frames = 0, []
            w = h = 0
            while off < len(p):
                # offset parse: no per-frame copy of the payload tail
                magic, fw, fh, _mx, data = PnmDecoder._parse_header(p, off)
                if frames and (fw, fh) != (w, h):
                    # mixed-dimension sequences would silently misreport
                    # width/height (last frame's) and mean_luma
                    # (mean-of-means != pixel mean when frame sizes
                    # differ) — reject loudly instead
                    raise ValueError(
                        "PnmSeqDecoder: non-uniform frame dimensions in "
                        f"sequence ({w}x{h} then {fw}x{fh}); all frames "
                        "must share dimensions"
                    )
                w, h = fw, fh
                ch = 3 if magic == b"P6" else 1
                need = w * h * ch
                px = np.frombuffer(p, dtype=np.uint8, count=need,
                                   offset=data)
                frames.append((ch, px))
                off = data + need
            sampled = frames[::self.stride]
            means = []
            for ch, px in sampled:
                if ch == 3:
                    rgb = px.reshape(-1, 3).astype(np.float64)
                    luma = (0.299 * rgb[:, 0] + 0.587 * rgb[:, 1]
                            + 0.114 * rgb[:, 2])
                else:
                    luma = px.astype(np.float64)
                means.append(float(luma.mean()) if luma.size else 0.0)
            fv = np.zeros(FEATURE_DIM, dtype=np.float32)
            fv[:min(FEATURE_DIM, len(means))] = means[:FEATURE_DIM]
            nf.append(len(frames))
            ns.append(len(sampled))
            ws.append(w)
            hs.append(h)
            lumas.append(float(np.mean(means)) if means else 0.0)
            feats.append(fv.tolist())
        return {
            "n_frames": pa.array(nf, type=pa.int32()),
            "n_sampled": pa.array(ns, type=pa.int32()),
            "width": pa.array(ws, type=pa.int32()),
            "height": pa.array(hs, type=pa.int32()),
            "mean_luma": pa.array(lumas, type=pa.float64()),
            "features": pa.array(feats, type=pa.list_(pa.float32())),
        }


register_decoder("fake", FakeDecoder)
register_decoder("pnmseq", PnmSeqDecoder)
register_decoder("strict", StrictDecoder)
register_decoder("pnm", PnmDecoder)
register_decoder("wav", WavDecoder)


class MediaFeatureExtractor:
    """Actor-pool stage: binary payload → the decoder's typed columns.

    ``decoder`` is a registry name (or a zero-arg factory); it is
    instantiated ONCE per actor in ``__init__`` — real-codec state
    (model weights, decoder contexts) loads here, not per batch.
    ``payload_col`` names the binary column (tests use the corpus
    ``html`` bytes as a stand-in blob); it is DROPPED from the output
    so the heavy bytes don't travel further down the pipeline."""

    def __init__(self, payload_col: str = "payload",
                 decoder: str | Callable[[], object] = "fake"):
        self.payload_col = payload_col
        self.decoder = (
            get_decoder(decoder) if isinstance(decoder, str) else decoder()
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        decoded = self.decoder.decode_batch(payloads)
        cols = {
            name: batch[name]
            for name in batch.column_names
            if name != self.payload_col
        }
        for name, typ in self.decoder.schema:
            cols[name] = decoded[name].cast(typ)
        return pa.table(cols)


def media_pipeline(ds, *, payload_col: str = "payload", batch_size: int = 32,
                   concurrency=(1, 4), decoder: str = "fake"):
    """Standard multimodal shape: small batches, actor pool, drop the
    heavy payload column as early as possible (projection before
    shuffle).

    A ``decoder`` NAME is resolved to its factory HERE, on the driver:
    the registry is a driver-process module global, so a name
    registered via :func:`register_decoder` at runtime would not exist
    inside fresh actor processes (only the built-ins re-register on
    import).  Shipping the factory itself (cloudpickled into the actor
    constructor) makes the documented register-then-run flow work in
    any distributed run; unknown names also fail fast on the driver."""
    if isinstance(decoder, str):
        try:
            factory = _DECODERS[decoder]
        except KeyError:
            raise ValueError(
                f"unknown media decoder {decoder!r}; registered: "
                f"{sorted(_DECODERS)}"
            ) from None
    else:
        factory = decoder
    return ds.map_batches(
        MediaFeatureExtractor,
        fn_constructor_kwargs={
            "payload_col": payload_col, "decoder": factory,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
