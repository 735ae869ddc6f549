"""Per-partition manifests: exactly-once commit + resume.

The engine's replacement for the reference's ack-token checkpointing
(``Processing.scala:269-272`` emits tokens only after the full pipeline;
KCL checkpoints debounced — ``config.aws.reference.hocon:55``). The
at-least-once ack becomes an exactly-once *visible output* rule:

- a partition's manifest is written only AFTER its output files are
  fully written (write-temp → ``os.replace`` rename; the manifest file
  itself is always fsync'd). Output DATA files are fsync'd only for
  ``durable=True`` commits (final, non-recomputable artifacts);
  lineage-recoverable intermediates (extracted docs, posting runs)
  commit with ``durable=False`` — after a machine-level crash such a
  stage can be manifest-committed with lost data pages, and recovery
  is "delete the stage's manifests and outputs, rerun the stage"
  (shuffle-loss recompute). Callers record ``durable`` and row counts
  in the manifest payload so an auditor can tell the two apart;
- the manifests of one stage whose outputs are all written commit as
  one batch (``commit_many``): every tmp file written and fsync'd, then
  all renamed, then ONE directory fsync — one fsync round per stage
  instead of two fsyncs per manifest. A marker that must follow the
  others (the ``index`` manifest) is still committed alone, after them;
- on resume the driver scans manifests and skips committed partitions —
  uncommitted work is recomputed (at-least-once work, exactly-once
  output), mirroring the checkpoint-after-everything ordering the
  reference's tests pin (``ProcessingSpec.scala:59-80``).

Manifest shape follows FIXTURES.md §4: part, input files, row counts,
stage counters, output files, content hash, commit timestamp.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        pass


def file_sha256(path: str, chunk: int = 1 << 20) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            b = f.read(chunk)
            if not b:
                break
            h.update(b)
    return h.hexdigest()


def content_hash(paths: list[str]) -> str:
    """Order-insensitive hash over (basename, sha256) of output files."""
    items = sorted((os.path.basename(p), file_sha256(p)) for p in paths)
    h = hashlib.sha256()
    for name, digest in items:
        h.update(name.encode())
        h.update(digest.encode())
    return h.hexdigest()


def manifest_path(manifest_dir: str, name: str) -> str:
    return os.path.join(manifest_dir, f"{name}.json")


def is_committed(manifest_dir: str, name: str) -> bool:
    return os.path.exists(manifest_path(manifest_dir, name))


def load(manifest_dir: str, name: str) -> dict:
    with open(manifest_path(manifest_dir, name)) as f:
        return json.load(f)


def load_all(manifest_dir: str, prefix: str = "") -> dict[str, dict]:
    out: dict[str, dict] = {}
    if not os.path.isdir(manifest_dir):
        return out
    for fn in sorted(os.listdir(manifest_dir)):
        if fn.endswith(".json") and fn.startswith(prefix):
            with open(os.path.join(manifest_dir, fn)) as f:
                out[fn[: -len(".json")]] = json.load(f)
    return out


def commit(manifest_dir: str, name: str, payload: dict) -> dict:
    """Atomically write the manifest (tmp + rename + dir fsync)."""
    return commit_many(manifest_dir, [(name, payload)])[0]


def commit_many(manifest_dir: str,
                items: list[tuple[str, dict]]) -> list[dict]:
    """Atomically write several manifests with one fsync round → their
    payloads as written.

    Every tmp file is written, then all of them are fsync'd (on a thread
    pool past four files), and only then renamed into place in
    ``items`` order, followed by ONE directory fsync. A crash at any
    point leaves each manifest either absent or whole, never torn: a
    rename publishes a file whose bytes are already durable. A failed
    write or rename removes the tmp files not yet renamed and raises;
    the manifests renamed before it stay committed. Callers batch the
    manifests of one stage whose outputs are all visible; a manifest
    that must follow the others (``index``) is its own call."""
    if not items:
        return []
    os.makedirs(manifest_dir, exist_ok=True)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out, tmps = [], []
    try:
        for name, payload in items:
            payload = dict(payload)
            payload.setdefault("committed_at", stamp)
            # writer-unique temp name: two concurrent committers of the
            # same manifest must not interleave into one .tmp and
            # replace torn JSON
            tmp = manifest_path(manifest_dir, name) + f".tmp.{os.getpid()}"
            tmps.append(tmp)
            with open(tmp, "w") as f:
                json.dump(payload, f, indent=1, sort_keys=True)
            out.append(payload)
        _fsync_files(tmps)
        for i, (name, _payload) in enumerate(items):
            os.replace(tmps[i], manifest_path(manifest_dir, name))
            tmps[i] = None
    finally:
        for tmp in tmps:
            if tmp is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
        _fsync_dir(manifest_dir)
    return out


def _fsync_file(path: str) -> None:
    with open(path, "rb") as f:
        os.fsync(f.fileno())


def _fsync_files(paths: list[str]) -> None:
    """fsync every file, on a thread pool past four files (fsync
    releases the GIL): a serial walk over many files otherwise makes a
    fixed cost per file."""
    if len(paths) > 4:
        with ThreadPoolExecutor(max_workers=min(16, len(paths))) as pool:
            list(pool.map(_fsync_file, paths))
    else:
        for p in paths:
            _fsync_file(p)


def commit_dir_rename(tmp_dir: str, final_dir: str, durable: bool = True) -> None:
    """Atomic publish of an output directory (write-temp-then-rename).

    ``durable=True`` fsyncs every file before the rename (final,
    non-recomputable artifacts). ``durable=False`` skips the data
    fsyncs — correct for lineage-recoverable INTERMEDIATES (extracted
    docs, posting runs): if a machine crash loses async-writeback pages
    after commit, the recovery path is "delete the stage's manifests
    and outputs, rerun the stage", exactly like shuffle-file loss in a
    lineage system. Forcing multi-GB intermediate fsyncs otherwise
    serializes the build on one disk's flush bandwidth.

    fsyncs run on a thread pool (fsync releases the GIL) — a serial
    walk over many output files otherwise becomes a fixed per-partition
    commit cost that caps scaling.
    """
    if durable:
        _fsync_files([os.path.join(root, fn)
                      for root, _dirs, files in os.walk(tmp_dir) for fn in files])
    os.replace(tmp_dir, final_dir)
    _fsync_dir(os.path.dirname(final_dir))
