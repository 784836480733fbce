"""URI-capable filesystem layer for every index/artifact path.

All segment/lexicon/docstats/extracted IO — and the TASK-SIDE
bucket discovery that runs inside Ray workers — goes through these
helpers instead of bare ``os``/``glob``/``shutil`` calls, so an index
can live on generic object storage (any fsspec scheme: ``s3://``,
``gs://``, ``file://``, …) as well as a shared POSIX filesystem.

Design rules:

- A **plain path** (no ``scheme://``) takes the direct ``os`` fast
  path — zero behavior or performance change for the
  local/NFS-backed deployments the test suite exercises.
- A **URI** resolves through ``fsspec`` ONCE per call; functions that
  return paths (``glob``, ``listdir_full``, ``walk_files``) re-attach
  the scheme so results feed straight back into pyarrow/Ray readers
  (both accept URIs).
- ``replace`` is atomic on the local fast path (``os.replace``); on
  object stores it is an explicit copy → size-verify → delete-source
  sequence, so a mid-move crash can never leave a torn destination
  without the source still intact (callers treat an existing dst as a
  COMPLETE output when resuming).

Parquet READS throughout the package go through ``pyarrow.dataset`` /
``pq.read_table`` / ``ray.data.read_parquet``, which already accept
URIs natively — this module covers the metadata/manifest/discovery
surface those readers don't.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import shutil
from typing import Any


def is_uri(path: str) -> bool:
    return "://" in path


def _fs(path: str):
    """(fsspec filesystem, scheme-stripped path) for a URI."""
    import fsspec

    return fsspec.core.url_to_fs(path)


def _prefix(path: str) -> str:
    """Scheme prefix (e.g. ``file://``) of a URI, kept so returned
    paths remain URIs."""
    scheme, rest = path.split("://", 1)
    return scheme + "://"


def exists(path: str) -> bool:
    if not is_uri(path):
        return os.path.exists(path)
    fs, p = _fs(path)
    return fs.exists(p)


def isdir(path: str) -> bool:
    if not is_uri(path):
        return os.path.isdir(path)
    fs, p = _fs(path)
    return fs.isdir(p)


def isfile(path: str) -> bool:
    if not is_uri(path):
        return os.path.isfile(path)
    fs, p = _fs(path)
    return fs.isfile(p)


def listdir(path: str) -> list[str]:
    """Base names of the entries of ``path`` (os.listdir semantics)."""
    if not is_uri(path):
        return os.listdir(path)
    fs, p = _fs(path)
    return [e.rstrip("/").rsplit("/", 1)[-1] for e in fs.ls(p, detail=False)]


def makedirs(path: str) -> None:
    if not is_uri(path):
        os.makedirs(path, exist_ok=True)
        return
    fs, p = _fs(path)
    fs.makedirs(p, exist_ok=True)


def remove(path: str) -> None:
    if not is_uri(path):
        os.remove(path)
        return
    fs, p = _fs(path)
    fs.rm_file(p)


def rmtree(path: str, *, ignore_errors: bool = False) -> None:
    if not is_uri(path):
        shutil.rmtree(path, ignore_errors=ignore_errors)
        return
    fs, p = _fs(path)
    try:
        if fs.exists(p):
            fs.rm(p, recursive=True)
    except FileNotFoundError:
        if not ignore_errors:
            raise
    except Exception:
        if not ignore_errors:
            raise


def replace(src: str, dst: str) -> None:
    """Rename: atomic locally; on object stores a rename is copy+delete
    and NOT atomic, so do an explicit copy → size-verify → delete-source
    sequence.  A crash mid-sequence can then only leave (a) a partial
    destination WITH the source intact (resume re-runs the replace), or
    (b) both complete — never a deleted source behind a torn
    destination, which is what callers that treat an existing dst as a
    COMPLETE output (LWW-compaction resume, update_index partition
    swaps) must be protected from.
    Directory copies need ``recursive=True`` on generic fsspec backends
    (only LocalFileSystem handles directories implicitly)."""
    if not is_uri(src) and not is_uri(dst):
        os.replace(src, dst)
        return
    fs, s = _fs(src)
    _, d = _fs(dst)
    if fs.isdir(s):
        src_files = sorted(fs.find(s))
        fs.copy(s, d, recursive=True)
        # verify: every source file exists at dst with the same size
        for sf in src_files:
            rel = sf[len(s):].lstrip("/")
            df = d.rstrip("/") + "/" + rel
            if not fs.exists(df) or fs.size(df) != fs.size(sf):
                raise OSError(
                    f"fsio.replace: copy verify failed for {df!r} "
                    f"(from {sf!r}); source left intact"
                )
        fs.rm(s, recursive=True)
    else:
        fs.copy(s, d)
        if not fs.exists(d) or fs.size(d) != fs.size(s):
            raise OSError(
                f"fsio.replace: copy verify failed for {d!r} "
                f"(from {s!r}); source left intact"
            )
        fs.rm_file(s)


def getsize(path: str) -> int:
    if not is_uri(path):
        return os.path.getsize(path)
    fs, p = _fs(path)
    return int(fs.size(p))


def glob(pattern: str, *, recursive: bool = False) -> list[str]:
    """Sorted matches; URIs keep their scheme so results feed straight
    into pyarrow/Ray readers."""
    if not is_uri(pattern):
        return sorted(_glob.glob(pattern, recursive=recursive))
    fs, p = _fs(pattern)
    pre = _prefix(pattern)
    return sorted(pre + m for m in fs.glob(p))


def walk_files(path: str) -> list[str]:
    """Every file under ``path`` recursively (full paths, scheme
    preserved), sorted."""
    if not is_uri(path):
        out = []
        for root, _dirs, files in os.walk(path):
            out.extend(os.path.join(root, f) for f in files)
        return sorted(out)
    fs, p = _fs(path)
    pre = _prefix(path)
    return sorted(pre + f for f in fs.find(p))


def du(path: str) -> int:
    """Total bytes of every file under ``path``."""
    return sum(getsize(f) for f in walk_files(path))


def open_file(path: str, mode: str = "r"):
    if not is_uri(path):
        return open(path, mode)
    fs, p = _fs(path)
    return fs.open(p, mode)


def read_json(path: str) -> Any:
    with open_file(path) as f:
        return json.load(f)


def write_json(path: str, obj: Any) -> None:
    """Atomic on the local fast path (tmp + rename); direct write on
    object stores (whole-object PUTs are already all-or-nothing)."""
    if not is_uri(path):
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=1)
        os.replace(tmp, path)
        return
    fs, p = _fs(path)
    with fs.open(p, "w") as f:
        json.dump(obj, f, indent=1)


def parquet_read_table(paths, **kwargs):
    """``pq.read_table`` that also accepts URI lists (pyarrow infers a
    filesystem from a single URI string but rejects lists of them).
    Reads exactly the files' own columns: pyarrow would otherwise infer
    a ``doc_shard`` column from the ``doc_shard=N`` path segment of a
    multi-file list, and a table written back from it would carry a
    partition column inside the partition dir."""
    import pyarrow.parquet as pq

    kwargs.setdefault("partitioning", None)
    if isinstance(paths, str) or not paths or not is_uri(paths[0]):
        return pq.read_table(paths, **kwargs)
    fs, _ = _fs(paths[0])
    stripped = [fs._strip_protocol(p) for p in paths]
    return pq.read_table(stripped, filesystem=fs, **kwargs)


def ray_file_list(paths: list[str]) -> dict:
    """``paths``/``filesystem`` kwargs for a Ray read over an explicit
    file list.  Ray resolves a list's filesystem from its first entry
    and then rejects every further ``file://`` URI, so URI lists go in
    scheme-stripped with their filesystem passed explicitly (wrapped
    for pyarrow here: Ray's own fsspec wrapping needs aiohttp)."""
    from pyarrow.fs import FSSpecHandler, PyFileSystem

    if not paths or not is_uri(paths[0]):
        return {"paths": paths}
    fs, _ = _fs(paths[0])
    return {
        "paths": [fs._strip_protocol(p) for p in paths],
        "filesystem": PyFileSystem(FSSpecHandler(fs)),
    }


def parquet_write_table(table, path: str, **kwargs) -> None:
    import pyarrow.parquet as pq

    if not is_uri(path):
        pq.write_table(table, path, **kwargs)
        return
    fs, p = _fs(path)
    with fs.open(p, "wb") as f:
        pq.write_table(table, f, **kwargs)


def parquet_num_rows(path: str) -> int:
    import pyarrow.parquet as pq

    if not is_uri(path):
        return pq.read_metadata(path).num_rows
    fs, p = _fs(path)
    with fs.open(p, "rb") as f:
        return pq.read_metadata(f).num_rows
