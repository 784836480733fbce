"""ctypes loader for the compiled Block-Max WAND kernel.

``data/wand_kernel.c`` is the DAAT walk behind
:meth:`Searcher.scores_topk_wand` (its reference Python walk,
``wand_topk_py``, lives in ``tests/test_wand.py``); this module
compiles it ONCE per host (cached ``.so`` keyed by source md5 under
``$TMPDIR``) with the system C compiler and exposes it as a numpy-friendly
callable.  Entirely optional: on hosts without a compiler
``load_kernel()`` returns ``None``, and ``scores_topk_wand`` answers
with the exhaustive TAAT top-k instead (same results, no pruning).
``-ffp-contract=off`` keeps the float folds bitwise-identical to numpy
(FMA contraction would change IEEE rounding and break rank parity with
the TAAT engine).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import threading
import uuid

import numpy as np

logger = logging.getLogger(__name__)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data", "wand_kernel.c",
)

#: heap capacity compiled into the kernel; larger k falls back to TAAT
MAX_K = 4096
#: max query terms compiled into the kernel
MAX_TERMS = 64

_lib = None
_load_failed = False


def _cache_dir() -> str:
    """Per-user 0700 cache dir — a world-writable shared path would
    let another local user pre-plant a same-named .so that dlopen
    would execute."""
    d = os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"wbse_wand_{os.getuid()}"
    )
    os.makedirs(d, mode=0o700, exist_ok=True)
    st = os.stat(d)
    if st.st_uid != os.getuid():
        raise OSError(f"kernel cache dir {d} owned by uid {st.st_uid}")
    os.chmod(d, 0o700)
    return d


def _compile() -> str | None:
    with open(_SRC, "rb") as f:
        src = f.read()
    tag = hashlib.md5(src).hexdigest()[:16]
    so = os.path.join(_cache_dir(), f"wand_{tag}.so")
    if os.path.exists(so):
        return so
    # unique tmp per ATTEMPT (pid alone would collide for two threads
    # of one process racing through first-load, and an interleaved
    # write could publish a corrupt .so that every later process finds
    # and fails to dlopen); always cleaned up on failure
    tmp = f"{so}.tmp.{os.getpid()}.{threading.get_ident()}.{uuid.uuid4().hex[:8]}"
    try:
        for cc in ("cc", "gcc", "clang"):  # compiles must not collide
            try:
                r = subprocess.run(
                    [cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                     _SRC, "-o", tmp],
                    capture_output=True, timeout=60,
                )
            except (FileNotFoundError, subprocess.TimeoutExpired):
                continue
            if r.returncode == 0:
                os.replace(tmp, so)
                return so
            logger.debug("wand kernel compile failed with %s: %s",
                         cc, r.stderr.decode()[:500])
        return None
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def load_kernel():
    """The compiled entry point, or ``None`` when no C compiler is
    available (callers fall back to exhaustive TAAT)."""
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    try:
        so = _compile()
        if so is None:
            _load_failed = True
            return None
        lib = ctypes.CDLL(so)
        c_i64p = ctypes.POINTER(ctypes.c_int64)
        c_dp = ctypes.POINTER(ctypes.c_double)
        lib.wand_topk.restype = ctypes.c_long
        lib.wand_topk.argtypes = [
            ctypes.c_long,                      # m
            ctypes.POINTER(ctypes.c_long),      # n_per_term
            ctypes.POINTER(c_i64p),             # ids_list
            ctypes.POINTER(c_dp),               # part_list
            ctypes.POINTER(c_dp),               # bmax_list
            c_dp,                               # ub
            ctypes.c_long,                      # bs
            ctypes.c_int,                       # bm25
            ctypes.c_double,                    # inv_norm_bound
            c_i64p,                             # stat_ids
            c_dp,                               # norm
            ctypes.c_long,                      # n_stats
            ctypes.c_long,                      # k
            c_i64p,                             # out_ids
            c_dp,                               # out_scores
        ]
        _lib = lib
        return _lib
    except OSError as e:  # dlopen failure
        logger.debug("wand kernel load failed: %s", e)
        _load_failed = True
        return None


def wand_topk_c(term_lists, *, bs: int, bm25: bool,
                inv_norm_bound: float, stat_ids: np.ndarray,
                norm: np.ndarray, k: int):
    """Run the compiled walk over ``term_lists`` =
    ``[(ids_i64, partials_f64, bmax_f64, ub_float), ...]`` in TERM
    ORDER.  Returns ``(ids, scores)`` or ``None`` when the kernel is
    unavailable or the query exceeds compiled capacity."""
    lib = load_kernel()
    if lib is None:
        return None
    m = len(term_lists)
    if m == 0 or m > MAX_TERMS or k > MAX_K:
        return None
    c_i64p = ctypes.POINTER(ctypes.c_int64)
    c_dp = ctypes.POINTER(ctypes.c_double)
    keep = []  # keep contiguous arrays alive across the call
    n_arr = (ctypes.c_long * m)()
    ids_arr = (c_i64p * m)()
    part_arr = (c_dp * m)()
    bmax_arr = (c_dp * m)()
    ub_arr = (ctypes.c_double * m)()
    for i, (ids, part, bmax, ub) in enumerate(term_lists):
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        part = np.ascontiguousarray(part, dtype=np.float64)
        bmax = np.ascontiguousarray(bmax, dtype=np.float64)
        keep.extend((ids, part, bmax))
        n_arr[i] = len(ids)
        ids_arr[i] = ids.ctypes.data_as(c_i64p)
        part_arr[i] = part.ctypes.data_as(c_dp)
        bmax_arr[i] = bmax.ctypes.data_as(c_dp)
        ub_arr[i] = float(ub)
    stat_ids = np.ascontiguousarray(stat_ids, dtype=np.int64)
    norm = np.ascontiguousarray(norm, dtype=np.float64)
    out_ids = np.empty(min(k, MAX_K), dtype=np.int64)
    out_scores = np.empty(min(k, MAX_K), dtype=np.float64)
    n = lib.wand_topk(
        m, n_arr, ids_arr, part_arr, bmax_arr, ub_arr,
        bs, int(bm25), float(inv_norm_bound),
        stat_ids.ctypes.data_as(c_i64p),
        norm.ctypes.data_as(c_dp),
        len(stat_ids), k,
        out_ids.ctypes.data_as(c_i64p),
        out_scores.ctypes.data_as(c_dp),
    )
    if n < 0:
        return None
    return out_ids[:n], out_scores[:n]
