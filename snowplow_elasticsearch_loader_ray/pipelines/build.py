"""Index build: ingest → SPIMI runs → per-shard segment encode.

Physical plan (SURVEY.md §7.3). Every stage is plain Ray tasks over the
Arrow batch kernels (``ExtractTransform``, ``TokenizeFilePostings``,
``encode_shard_tables``): one task runs a whole fused read → kernel →
write pipeline over its slice of the input (the Velox driver model,
PAPERS.md), and the driver only plans, commits manifests and rolls up
counters. No stage starts a Ray Data execution.

1. **ingest_pages** (optional, for raw page corpora): one task per page
   file reads it in ``cfg.batch_size`` batches of
   ``[url, warc_ts, html, lang]``, runs ``ExtractTransform`` and streams
   each status's rows to ``status=<s>/part-<k>.parquet`` (k = the page
   file's position in input order): good docs and dead-letter rows land
   in separate directories from a single pass (the reference's
   good-sink/bad-sink split, ``Processing.scala:209-267``, without
   reading the corpus twice). Docs files are named in input order, so
   the doc ordinals below (sorted file order) do not depend on the
   cluster. Note ``text`` is NOT read — the engine re-derives it from
   ``html`` (byte-identity invariant).

2. **phase 1 — runs**: one task per input file tokenizes it
   (``TokenizeFilePostings`` — each doc gets its dense corpus ORDINAL,
   see stages/postings.py), streams the shard-sorted chunks into one
   run file with small row groups under its resume part's tmp dir, and
   returns the chunks' docmap rows held in memory. Parts (contiguous
   slices of the sorted doc files) are the resume unit, files the
   parallelism unit: when a part's last file task finishes, the driver
   renames its tmp dir, writes ``docmap/part-K.parquet`` (ord → doc_id,
   doclen, lang; a contiguous ordinal range per part) and commits the
   part's manifest. The shard-clustered row-group layout IS the
   term-shard exchange, materialized to storage instead of held in the
   object store: at 100 TB the shuffle spills by construction, a killed
   job resumes at partition granularity (the KCL-checkpoint analogue,
   SURVEY.md C1), and the file count stays at one per input file (not
   files × shards).

3. **phase 2 — segments**: one Ray task per contiguous shard group —
   groups sized by the run manifests' postings estimate
   (``PHASE2_GROUP_POSTINGS``, independent of the cluster size) —
   reads the run files, in ordinal order, with a shard-range filter (row-group
   statistics prune to the group's share of each file), orders all the
   group's rows by (shard, term) with ONE stable sort (ords already
   arrive ascending within a term), cuts each shard's lists out of that
   order, delta/FOR-encodes posting blocks with block-max metadata and
   commits ``segments/shard-j.parquet`` + manifest. Ordinal keys make
   the average delta gap n_docs/df (vs 2^63/n for raw 64-bit id
   hashes), so postings land at ~1-2 B each instead of ~9.
   Embarrassingly parallel — the all-to-all already happened in
   phase 1. Head-term skew: a single term's postings are inherently one
   list, but shards hold many terms and ``num_term_shards`` spreads the
   heavy ones (SURVEY.md §4 "Skew").

4. **finalize**: N / avgdl / counters roll up from manifests (the
   running-counter analogue of ``Processing.scala:237-249``) into
   ``stats.json`` + ``metrics.json`` + an ``index`` manifest.

**Inline fast path** (``_build_index_inline``, corpora at or below
``cfg.inline_build_max_docs``): phases 1 and 2 run in the calling
process over the same kernels, and the exchange never leaves memory —
the phase-1 chunks, term column still dictionary-typed, go straight to
the phase-2 encode. Its docmap parts and segments match the distributed
path's byte for byte, and so do its manifests, except that they name no
run files: nothing is written under ``runs/``, a ``runs-part`` manifest
declares only its docmap file, and a segment manifest lists the input
doc files.
Resume crosses the paths: the inline build re-tokenizes committed parts
in memory, and the distributed phase 1 re-runs any part committed
without run files, so phase 2 never encodes a subset of the parts.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig, DEFAULT_CONFIG, DOCMAP_SHARD
from ..stages.extract import ExtractTransform
from ..stages.postings import (CHUNK_SCHEMA, RUN_SCHEMA,
                               TokenizeFilePostings)
from ..stages.segment import encode_shard_tables, SEGMENT_SCHEMA
from ..stages.transforms import with_retries
from ..state import manifest as mf


class SimulatedFailure(RuntimeError):
    """Raised by the fail_after_parts test hook (resume tests)."""


def _input_files(source: str | list[str]) -> list[str]:
    if isinstance(source, str):
        if os.path.isdir(source):
            return sorted(glob.glob(os.path.join(source, "*.parquet")))
        return [source]
    return sorted(source)


# --------------------------------------------------------------------------
# ingest (pages → docs + dead letters)
# --------------------------------------------------------------------------

#: page columns the extract kernel reads (``text`` is re-derived)
PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _ingest_file(path: str, k: int, tmp: str, cfg: IndexConfig) -> dict[str, int]:
    """Ingest one page file: ``ExtractTransform`` batch by batch, each
    status's rows (without the ``status`` column) streamed to
    ``tmp/status=<s>/part-<k>.parquet``; → rows per status. A retry
    rewrites the same files."""
    extract = ExtractTransform(cfg)
    writers: dict[str, pq.ParquetWriter] = {}
    counts: dict[str, int] = {}
    try:
        for batch in pq.ParquetFile(path).iter_batches(
                batch_size=cfg.batch_size, columns=PAGE_COLUMNS):
            out = extract(pa.Table.from_batches([batch]))
            tags = out["status"]
            rows = out.drop_columns(["status"])
            for status in pc.unique(tags).to_pylist():
                part = rows.filter(pc.equal(tags, status))
                if status not in writers:
                    d = os.path.join(tmp, f"status={status}")
                    os.makedirs(d, exist_ok=True)
                    writers[status] = pq.ParquetWriter(
                        os.path.join(d, f"part-{k:05d}.parquet"),
                        part.schema, compression="zstd")
                writers[status].write_table(part)
                counts[status] = counts.get(status, 0) + part.num_rows
    finally:
        for w in writers.values():
            w.close()
    return counts


def ingest_pages(pages: str | list[str], out_dir: str,
                 cfg: IndexConfig = DEFAULT_CONFIG) -> dict:
    """Extract text from raw pages; returns the ingest counter dict.

    Output layout: ``out_dir/docs/status=good/*.parquet`` (document
    table) and ``status=<error_type>/`` (dead letters), one streaming
    pass (one task per page file), committed via manifest.
    """
    files = _input_files(pages)
    man_dir = os.path.join(out_dir, "manifests")
    docs_dir = os.path.join(out_dir, "docs")
    if mf.is_committed(man_dir, "ingest"):
        return mf.load(man_dir, "ingest")["counters"]

    tmp = os.path.join(out_dir, "_tmp_docs")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.time()
    totals: dict[str, int] = {}
    for counts in ray.get([_ingest_file.remote(f, k, tmp, cfg)
                           for k, f in enumerate(files)]):
        for status, n in counts.items():
            totals[status] = totals.get(status, 0) + n
    if os.path.exists(docs_dir):
        shutil.rmtree(docs_dir)
    # docs are a lineage-recoverable intermediate (re-derivable from the
    # pages by rerunning ingest) — no per-file fsync
    mf.commit_dir_rename(tmp, docs_dir, durable=False)

    counters = {status: totals[status] for status in sorted(totals)}
    error_samples = {
        status: _sample_errors(sorted(glob.glob(os.path.join(
            docs_dir, f"status={status}", "*.parquet")))[0])
        for status in counters if status != "good"}
    counters.setdefault("good", 0)
    mf.commit(man_dir, "ingest", {
        "stage": "ingest",
        "input_files": [os.path.basename(f) for f in files],
        "counters": counters,
        "error_messages": error_samples,
        "durable": False,          # lineage-recoverable (rerun ingest)
        "wall_s": round(time.time() - t0, 3),
    })
    return counters


def _sample_errors(path: str, cap: int = 10) -> list[str]:
    """Up to ``cap`` distinct error messages from one dead-letter file
    (first batch only — a bounded metadata-grade read). The cap mirrors
    the reference's readable-message rule: 'Error messages are capped at
    10 to keep the message readable' (ElasticsearchSink.scala:172-180)."""
    msgs: list[str] = []
    try:
        pf = pq.ParquetFile(path)
        if "error" not in pf.schema_arrow.names:
            return msgs
        for batch in pf.iter_batches(batch_size=256, columns=["error"]):
            for e in batch["error"].to_pylist():
                if e and e not in msgs:
                    msgs.append(e)
                    if len(msgs) >= cap:
                        return msgs
            break                              # one batch is plenty
    except OSError:
        pass
    return msgs


def good_docs_dir(ingest_out_dir: str) -> str:
    return os.path.join(ingest_out_dir, "docs", "status=good")


# --------------------------------------------------------------------------
# phase 1: runs
# --------------------------------------------------------------------------

#: run-part on-disk format version. 2 = ordinal run rows + per-part
#: docmap extraction + CONTIGUOUS _plan_parts grouping. 3 = one run
#: file per input file, named in file order, whose rows keep the
#: chunks' ordinal order, which phase 2 relies on (format-2 parts were
#: written through an order-free block write). Bump whenever the part layout or row schema changes:
#: resume compares it (and the exact file grouping) against committed
#: manifests and REFUSES a mixed index instead of silently skipping
#: old-format parts.
RUN_FORMAT = 3

#: the run columns phase 2 encodes from
PHASE2_COLUMNS = ["shard", "term", "ord", "tf"]


def _plan_parts(files: list[str], target_parts: int | None) -> list[list[str]]:
    """Group input files into resume partitions (file granularity).

    CONTIGUOUS slices of the sorted file list, so each part owns a
    contiguous doc-ordinal range and its ``docmap/part-K.parquet`` is an
    ordinal-range partition — the doc-partitioned layout a 10^12-doc
    reader grid keys on."""
    if not target_parts or target_parts >= len(files):
        return [[f] for f in files]
    n, q, r = len(files), len(files) // target_parts, len(files) % target_parts
    out, at = [], 0
    for i in range(target_parts):
        size = q + (1 if i < r else 0)
        if size:
            out.append(files[at:at + size])
        at += size
    return out


def _footer_counts(files: list[str]) -> list[int]:
    """Exact row count of each file from its parquet footer (metadata
    only, no scan), read on a thread pool past 8 files."""
    def rows(f: str) -> int:
        return pq.ParquetFile(f).metadata.num_rows

    if len(files) > 8:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=16) as pool:
            return list(pool.map(rows, files))
    return [rows(f) for f in files]


def _ordinal_bases(doc_files: list[str], counts: list[int]) -> dict[str, int]:
    """Doc-ordinal base offset per input file: cumulative footer row
    counts over the SORTED global file list — deterministic across
    resumes, independent of part grouping."""
    return dict(zip(doc_files, itertools.accumulate([0] + counts)))


DOCMAP_SCHEMA = pa.schema([
    ("ord", pa.int64()),
    ("doc_id", pa.int64()),
    ("doclen", pa.int64()),
    ("lang", pa.string()),          # doc-value (null if the input had none)
])


def _part_name(k: int) -> str:
    return f"part={k:04d}"


def _run_files(index_dir: str) -> list[str]:
    """Committed run files in ORDINAL order: by the integer part number,
    then the file's index in the part. Phase 2 relies on this order
    (``encode_shard_tables``), and path-string order breaks it at 10^4
    parts (``part=10000`` sorts before ``part=9999``)."""
    runs_dir = os.path.join(index_dir, "runs")
    files = glob.glob(os.path.join(runs_dir, "part=*", "*.parquet"))
    return sorted(files, key=lambda f: [
        int(n) for n in re.findall(r"\d+", os.path.relpath(f, runs_dir))])


def _open_part(index_dir: str, k: int, n_files: int) -> list[str]:
    """Clear part K's uncommitted leftovers → the paths of its run files
    (one per input file, under the part's tmp dir)."""
    runs_dir = os.path.join(index_dir, "runs")
    tmp = os.path.join(runs_dir, "_tmp_" + _part_name(k))
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(os.path.join(runs_dir, _part_name(k)), ignore_errors=True)
    os.makedirs(tmp)
    return [os.path.join(tmp, f"run-{i:05d}.parquet") for i in range(n_files)]


def _tokenize_file(path: str, base: int, cfg: IndexConfig,
                   run_path: str | None = None,
                   keep: list[pa.Table] | None = None
                   ) -> tuple[dict[str, np.ndarray], int]:
    """Phase 1 for one input file → (its docmap rows as numpy columns,
    its run row count).

    With ``run_path`` (the distributed build) it streams the file's
    chunks, cast to ``RUN_SCHEMA``, into that run file (one row group
    per ``run_row_group_size`` rows of a chunk: each chunk is sorted by
    shard, so the row groups stay shard-clustered and phase 2 prunes to
    its shards via the ``shard`` statistics, the only column that gets
    them). ``keep`` (the inline build) collects each chunk's posting
    rows, term column still dictionary-typed, for an in-memory phase 2.
    Either way the chunks' docmap rows (``shard == -1``, the leading
    rows of each chunk) are kept in memory, so a run file is never read
    back. The docmap leaves the task as numpy columns: a returned Arrow
    table would make Ray's serializer import ``ray.data`` in the worker.
    A retry rewrites the same file."""
    run_rows = 0
    docmap = [DOCMAP_SCHEMA.empty_table()]
    items = pa.table({"path": [path], "base": [base]})
    with (pq.ParquetWriter(run_path, RUN_SCHEMA, compression="zstd",
                           write_statistics=["shard"])
          if run_path else contextlib.nullcontext()) as w:
        for chunk in TokenizeFilePostings(cfg)(items):
            if w is not None:
                w.write_table(chunk.cast(RUN_SCHEMA),
                              row_group_size=cfg.run_row_group_size)
            run_rows += chunk.num_rows
            n_docs = int(np.searchsorted(chunk["shard"].to_numpy(),
                                         DOCMAP_SHARD, side="right"))
            t = chunk.slice(0, n_docs)
            docmap.append(pa.table(
                {"ord": t["ord"], "doc_id": t["doc_id"],
                 "doclen": t["tf"].cast(pa.int64()), "lang": t["lang"]},
                schema=DOCMAP_SCHEMA))
            if keep is not None:
                keep.append(chunk.slice(n_docs).select(PHASE2_COLUMNS))
    dm = pa.concat_tables(docmap)
    return {c: dm[c].to_numpy() for c in DOCMAP_SCHEMA.names}, run_rows


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _tokenize_file_task(path: str, base: int, run_path: str,
                        cfg: IndexConfig) -> tuple[dict[str, np.ndarray], int]:
    return _tokenize_file(path, base, cfg, run_path=run_path)


def _close_part(index_dir: str, k: int, files_k: list[str],
                outs: list[tuple[dict[str, np.ndarray], int]],
                t0: float, with_runs: bool = True) -> dict:
    """Commit part K's run files (tmp-dir rename) when ``with_runs``,
    write ``docmap/part-K.parquet`` from its files' docmap columns
    (``outs`` in file order) → the ``runs-part-K`` manifest payload (the
    caller commits it). Its ``outputs`` name the run dir only when the
    part has one: phase 1 re-runs a part committed without it."""
    outputs = []
    if with_runs:
        runs_dir = os.path.join(index_dir, "runs")
        final = os.path.join(runs_dir, _part_name(k))
        # runs are shuffle intermediates: recompute-on-loss, not fsync
        mf.commit_dir_rename(os.path.join(runs_dir, "_tmp_" + _part_name(k)),
                             final, durable=False)
        outputs.append(os.path.relpath(final, index_dir))
    # files follow ordinal order and each chunk's docmap rows have
    # strictly increasing ords, so the docmap is already ord-sorted
    dm = pa.table({c: np.concatenate([d[c] for d, _ in outs])
                   for c in DOCMAP_SCHEMA.names}, schema=DOCMAP_SCHEMA)
    run_rows = sum(n for _, n in outs)
    dm_dir = os.path.join(index_dir, "docmap")
    os.makedirs(dm_dir, exist_ok=True)
    dm_out = os.path.join(dm_dir, f"part-{k:04d}.parquet")
    pq.write_table(dm, dm_out + ".tmp", compression="zstd")
    os.replace(dm_out + ".tmp", dm_out)
    outputs.append(os.path.relpath(dm_out, index_dir))
    return {
        "part": k,
        "stage": "runs",
        "format": RUN_FORMAT,
        "input_files": [os.path.basename(f) for f in files_k],
        "row_count": dm.num_rows,
        "counters": {"docs": dm.num_rows,
                     "tokens": int(pc.sum(dm["doclen"]).as_py() or 0),
                     "postings": run_rows - dm.num_rows},
        "outputs": outputs,
        "durable": False,          # shuffle intermediate (rerun part)
        "wall_s": round(time.time() - t0, 3),
    }


def _run_outputs(m: dict) -> list[str]:
    """The run dirs a ``runs-part`` manifest declares (none for a part
    the inline build committed)."""
    return [rel for rel in m.get("outputs", [])
            if rel.split(os.sep)[0] == "runs"]


def _check_resumable_parts(man_dir: str, parts: list[list[str]]) -> None:
    """Resume safety: a committed part written under a different run
    format or file grouping must not be silently skipped — it would
    splice old-layout postings into a new build. Refuse loudly."""
    expected = {k: [os.path.basename(f) for f in files_k]
                for k, files_k in enumerate(parts)}
    for name, m in mf.load_all(man_dir, prefix="runs-part-").items():
        if (m.get("format") != RUN_FORMAT
                or m.get("input_files") != expected.get(m.get("part"))):
            raise RuntimeError(
                f"{name}: committed under run format "
                f"{m.get('format')!r} / grouping {m.get('input_files')!r}, "
                f"but this build uses format {RUN_FORMAT} / grouping "
                f"{expected.get(m.get('part'))!r}. Resuming would mix "
                "incompatible parts — delete the index dir's manifests/"
                "runs-part-*.json, runs/ and docmap/ (and any segment "
                "manifests) to rebuild, or rerun with the original "
                "num_parts/input set.")


def build_runs(doc_files: list[str], index_dir: str, cfg: IndexConfig,
               num_parts: int | None = None,
               counts: list[int] | None = None) -> None:
    """Phase 1. Parts are the RESUME granularity, files the parallelism
    unit: one Ray task per input file of every part not yet committed
    with its run files, and a part's manifest commits as soon as its
    last file task finishes. ``counts``: the files' footer row counts,
    when the caller has read them.
    ``cfg.build_concurrency`` (when set) caps the tasks in flight. With
    the fail_after_parts test hook the tasks run one at a time so the
    commit count at failure is deterministic."""
    man_dir = os.path.join(index_dir, "manifests")
    os.makedirs(os.path.join(index_dir, "runs"), exist_ok=True)
    bases = _ordinal_bases(doc_files, counts if counts is not None
                           else _footer_counts(doc_files))
    parts = _plan_parts(doc_files, num_parts)
    _check_resumable_parts(man_dir, parts)
    # a part the inline build committed has a docmap but no run files:
    # run it again, or phase 2 would encode the other parts' rows only
    done = {m["part"] for m in mf.load_all(man_dir, prefix="runs-part-").values()
            if _run_outputs(m)}
    todo = {k: files_k for k, files_k in enumerate(parts) if k not in done}
    queue = [(k, i) for k, files_k in todo.items()
             for i in range(len(files_k))][::-1]
    cap = 1 if cfg.fail_after_parts is not None else \
        (cfg.build_concurrency or len(queue))
    run_paths: dict[int, list[str]] = {}
    outs = {k: [None] * len(files_k) for k, files_k in todo.items()}
    left = {k: len(files_k) for k, files_k in todo.items()}
    started: dict[int, float] = {}
    pending: dict[ray.ObjectRef, tuple[int, int]] = {}
    committed, error = 0, None
    while queue or pending:
        while queue and len(pending) < cap:
            k, i = queue.pop()
            if k not in run_paths:
                started[k] = time.time()
                run_paths[k] = _open_part(index_dir, k, len(todo[k]))
            f = todo[k][i]
            pending[_tokenize_file_task.remote(
                f, bases[f], run_paths[k][i], cfg)] = (k, i)
        [ref], _ = ray.wait(list(pending), num_returns=1)
        k, i = pending.pop(ref)
        try:
            outs[k][i] = ray.get(ref)
            left[k] -= 1
            if left[k] == 0:
                mf.commit(man_dir, f"runs-part-{k:04d}", _close_part(
                    index_dir, k, todo[k], outs.pop(k), started[k]))
                committed += 1
        except Exception as e:
            # submit no more tasks, but let the running ones finish and
            # commit their parts so a resume redoes as little as possible
            error, queue = error or e, []
            continue
        if committed == cfg.fail_after_parts:     # cap 1: nothing in flight
            raise SimulatedFailure(f"injected failure after {committed} run parts")
    if error is not None:
        raise error


# --------------------------------------------------------------------------
# phase 2: segments (one Ray task per shard group — the exchange
# already happened via the shard-clustered run files, so this is a
# parallel map)
# --------------------------------------------------------------------------

def load_docmap(index_dir: str):
    """Load ``docmap/part-*.parquet`` → (doc_ids, doclens) numpy arrays
    INDEXED BY ORDINAL (dense 0..n-1; parts are contiguous ordinal
    ranges, concatenated in part order).

    ~24 B/doc total: a single-node reader loads it whole; a 10^12-doc
    deployment doc-partitions readers on these same ordinal-range
    parts, each opening only its own files.
    """
    files = sorted(glob.glob(os.path.join(index_dir, "docmap", "part-*.parquet")))
    if not files:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t = pq.read_table(files, columns=["ord", "doc_id", "doclen"])
    ords = t["ord"].to_numpy()
    doc_ids = t["doc_id"].to_numpy()
    lens = t["doclen"].to_numpy()
    if len(ords) and not (ords[0] == 0 and ords[-1] == len(ords) - 1):
        order = np.argsort(ords, kind="stable")   # non-contiguous parts
        doc_ids, lens = doc_ids[order], lens[order]
    return np.ascontiguousarray(doc_ids), np.ascontiguousarray(lens)


def load_docvalues(index_dir: str, column: str = "lang"):
    """Load one docmap doc-value column indexed by ordinal (ES
    doc_values: columnar per-doc metadata served by ordinal gather —
    facets never re-read the corpus). → numpy object array, or None if
    the column is all-null (input had no such field)."""
    files = sorted(glob.glob(os.path.join(index_dir, "docmap", "part-*.parquet")))
    if not files:
        return None
    t = pq.read_table(files, columns=["ord", column])
    if t[column].null_count == t.num_rows:
        return None
    ords = t["ord"].to_numpy()
    vals = np.asarray(t[column].to_pylist(), dtype=object)
    if len(ords) and not (ords[0] == 0 and ords[-1] == len(ords) - 1):
        vals = vals[np.argsort(ords, kind="stable")]
    return vals


def _write_segment(seg: pa.Table, index_dir: str, shard: int,
                   input_files: list[str]) -> dict:
    """Write ``segments/shard-<s>.parquet`` (tmp + rename) → its
    ``segment-shard`` manifest payload (the caller commits it;
    ``input_files`` is recorded as given)."""
    seg_dir = os.path.join(index_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    out = os.path.join(seg_dir, f"shard-{shard:04d}.parquet")
    tmp = out + ".tmp"

    def _write() -> None:
        # transient I/O retried with the reference's bounded budget
        # (5 × 1 s, reference.conf:31-36); deterministic failures
        # raise immediately (W2 permanent/transient split)
        pq.write_table(seg, tmp, compression="zstd")
        os.replace(tmp, out)

    with_retries(_write, delay_s=0.2)
    return {
        "part": shard,
        "stage": "segments",
        "input_files": input_files,
        "counters": {
            "terms": int(seg.num_rows),
            "postings": int(pc.sum(seg["df"]).as_py() or 0),
            "bytes_written": os.path.getsize(out),
        },
        "outputs": [os.path.relpath(out, index_dir)],
        "content_hash": mf.content_hash([out]),
    }


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _encode_shard_group(index_dir: str, shards: list[int],
                        block_size: int) -> list[dict]:
    """Segment encode for a CONTIGUOUS group of shards in one task.

    Transient I/O errors re-execute via Ray task retry (the reference's
    bounded transient-retry, W3); deterministic errors (ValueError etc.)
    fail the job loudly — the permanent/transient split of
    ElasticsearchSink.scala:145-198.

    Grouping amortizes the per-task scan setup — opening every run
    file, footer/row-group-stat pruning, and the boundary row groups a
    single-shard filter decompresses twice (a 16k-row group straddling
    two shards is read by both their tasks; a range filter reads it
    once). The encode is one pass over the whole group
    (``encode_shard_tables``: one dictionary unification, one
    vocabulary sort and one stable argsort by (shard, term), then each
    shard's slice through ``codec.encode_postings_batch``), so at small
    corpora the scan setup is most of the task;
    ``_plan_shard_groups`` gives each task about
    ``PHASE2_GROUP_POSTINGS`` estimated postings, which is one task for
    a small corpus and one shard per task once a shard alone holds that
    many. Idempotent per shard
    (tmp+rename writes, manifests committed by the caller), so a retry
    mid-group re-writes at most already-written files."""
    import pyarrow.dataset as pads

    # Threading note (measured, BASELINE.md round-2): capping the Arrow
    # CPU pool per task (pa.set_cpu_count(1)) was tried against an
    # apparent 3x phase-2 degradation at 32 concurrent tasks; the
    # degradation turned out to be shared-VM noise (controlled A/B shows
    # 8-vs-32-concurrent parity), and the cap is PROCESS-wide — it leaks
    # into reused Ray workers and slows every later pyarrow scan there
    # (10x on the small follow-up build). So: no per-task thread capping;
    # ARROW_IO_THREADS=2 in the environment (bench.py) remains the one
    # honest-accounting knob for scaling comparisons.

    # test hook (resilience tests): a `_faults/shard-<k>.once` file makes
    # this task fail transiently exactly once; Ray's task retry
    # (max_retries default) then recomputes it — the W3 transient path
    for shard in shards:
        fault = os.path.join(index_dir, "_faults", f"shard-{shard:04d}.once")
        if os.path.exists(fault):
            os.remove(fault)
            raise OSError(f"injected transient failure for shard {shard}")

    files = _run_files(index_dir)
    lo, hi = min(shards), max(shards)
    if files:
        # one row-group-pruned read for the whole contiguous shard
        # range: each run file is shard-sorted, so the filter touches
        # only the groups whose stats overlap [lo, hi]. Terms come back
        # dictionary-encoded (parquet dictionary pages) so no
        # per-posting string is materialized.
        fmt = pads.ParquetFileFormat(read_options={"dictionary_columns": ["term"]})
        flt = (pads.field("shard") >= lo) & (pads.field("shard") <= hi)
        runs = pads.dataset(files, format=fmt).to_table(
            columns=PHASE2_COLUMNS, filter=flt)
    else:
        runs = None

    segs = (encode_shard_tables(runs, shards, block_size) if runs is not None
            else [SEGMENT_SCHEMA.empty_table() for _ in shards])
    inputs = [os.path.relpath(f, index_dir) for f in files]
    return [_write_segment(seg, index_dir, shard, inputs)
            for shard, seg in zip(shards, segs)]


#: phase-2 task size, in estimated postings (the run-manifest counter
#: spread evenly over the shards). Each task pays a fixed set-up — task
#: dispatch, opening and footer-pruning every run file — of about 3 ms,
#: then reads, encodes and writes about 5 M postings/s on one CPU
#: (BASELINE.md "Phase-2 tasks sized by postings"), so a 2^20-posting
#: task (~190 ms, ~16 MiB of term-dict/ord/tf rows) spends under 2% of
#: its wall on set-up.
#: The layout depends only on the corpus, never on the cluster size, so
#: an N-vs-4N scaling comparison runs the identical job at both levels.
PHASE2_GROUP_POSTINGS = 1 << 20


def _plan_shard_groups(missing: list[int], num_shards: int,
                       est_total_postings: int) -> list[list[int]]:
    """Contiguous groups of missing shards for phase-2 tasks, each of
    about ``PHASE2_GROUP_POSTINGS`` estimated postings: a corpus under
    the target is one task, a shard over it is a task of its own.
    Groups never span a gap in ``missing`` — the range filter must not
    re-read committed shards' row groups."""
    per_shard = max(1, est_total_postings // max(1, num_shards))
    size = max(1, PHASE2_GROUP_POSTINGS // per_shard)
    groups: list[list[int]] = []
    cur: list[int] = []
    for s in missing:
        if cur and (s != cur[-1] + 1 or len(cur) >= size):
            groups.append(cur)
            cur = []
        cur.append(s)
    if cur:
        groups.append(cur)
    return groups


def build_segments(index_dir: str, cfg: IndexConfig) -> None:
    man_dir = os.path.join(index_dir, "manifests")
    missing = [s for s in range(cfg.num_term_shards)
               if not mf.is_committed(man_dir, f"segment-shard-{s:04d}")]
    if not missing:
        return
    run_manifests = mf.load_all(man_dir, prefix="runs-part-")
    for name, m in sorted(run_manifests.items()):
        if not all(os.path.exists(os.path.join(index_dir, rel))
                   for rel in _run_outputs(m)):
            # runs were GC'd after the index committed: re-encoding would
            # silently drop this part's postings — fail loudly with the
            # recovery path instead
            raise RuntimeError(
                f"{name}: runs/ was garbage-collected; to re-encode, rerun "
                "phase 1 first (delete the runs-part-* manifests and call "
                "build_index again)")
    est = sum(m["counters"].get("postings", 0) for m in run_manifests.values())
    groups = _plan_shard_groups(missing, cfg.num_term_shards, est)
    refs = [_encode_shard_group.remote(index_dir, g, cfg.block_size)
            for g in groups]
    for g, payloads in zip(groups, ray.get(refs)):
        for s, payload in zip(g, payloads):
            mf.commit(man_dir, f"segment-shard-{s:04d}", payload)


# --------------------------------------------------------------------------
# inline fast path (delta-sized corpora)
# --------------------------------------------------------------------------

def _build_index_inline(files: list[str], counts: list[int],
                        index_dir: str, cfg: IndexConfig) -> None:
    """Both phases in the calling process, for corpora at or below
    ``cfg.inline_build_max_docs`` (an NRT delta generation, a unit-test
    fixture). The point is latency: a refresh-interval delta is a few
    thousand docs, and scheduling even a handful of Ray tasks per stage
    would dominate the stream→searchable SLO
    (``ElasticsearchSink.scala:81-198`` loads a micro-batch
    synchronously for the same reason; Lucene's refresh flushes the
    in-memory segment in-process).

    The exchange stays in memory: each file goes through the distributed
    path's phase-1 kernel (``_tokenize_file``) without a run file, and
    phase 2 encodes the kept chunks, their term columns still
    dictionary-typed, with the same one-sort kernel as a phase-2 task.
    Under the default per-file grouping, the docmap parts and segments
    are EXACTLY the distributed path's, and the manifests differ only in
    naming no run files (nothing is written under ``runs/``). Resume
    works across the two paths: this path
    re-tokenizes every part in memory (deterministic, well under a
    second at this size) and commits only the parts not yet committed;
    the distributed phase 1 re-runs any part committed without run
    files before its phase 2 reads them."""
    man_dir = os.path.join(index_dir, "manifests")
    bases = _ordinal_bases(files, counts)
    parts = _plan_parts(files, None)       # per-file: the distributed default
    _check_resumable_parts(man_dir, parts)

    chunks: list[pa.Table] = [CHUNK_SCHEMA.empty_table().select(PHASE2_COLUMNS)]
    for k, files_k in enumerate(parts):
        t0 = time.time()
        outs = [_tokenize_file(f, bases[f], cfg, keep=chunks) for f in files_k]
        if not mf.is_committed(man_dir, f"runs-part-{k:04d}"):
            mf.commit(man_dir, f"runs-part-{k:04d}", _close_part(
                index_dir, k, files_k, outs, t0, with_runs=False))

    missing = [s for s in range(cfg.num_term_shards)
               if not mf.is_committed(man_dir, f"segment-shard-{s:04d}")]
    segs = encode_shard_tables(pa.concat_tables(chunks), missing,
                               cfg.block_size)
    inputs = [os.path.basename(f) for f in files]
    for shard, seg in zip(missing, segs):
        mf.commit(man_dir, f"segment-shard-{shard:04d}",
                  _write_segment(seg, index_dir, shard, inputs))


# --------------------------------------------------------------------------
# finalize + top-level driver
# --------------------------------------------------------------------------

def finalize(index_dir: str, cfg: IndexConfig, wall_s: float,
             phase_walls: dict | None = None) -> dict:
    man_dir = os.path.join(index_dir, "manifests")
    seg_manifests = mf.load_all(man_dir, prefix="segment-shard-")
    run_manifests = mf.load_all(man_dir, prefix="runs-part-")
    n_docs = sum(m["counters"]["docs"] for m in run_manifests.values())
    total_tokens = sum(m["counters"]["tokens"] for m in run_manifests.values())
    stats = {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "num_term_shards": cfg.num_term_shards,
        "block_size": cfg.block_size,
        "k1": cfg.k1,
        "b": cfg.b,
    }
    metrics = {
        "docs": n_docs,
        "tokens": total_tokens,
        "postings": sum(m["counters"]["postings"] for m in seg_manifests.values()),
        "terms": sum(m["counters"]["terms"] for m in seg_manifests.values()),
        "bytes_written": sum(m["counters"]["bytes_written"] for m in seg_manifests.values()),
        "run_parts": len(run_manifests),
        "segment_shards": len(seg_manifests),
        "wall_s": round(wall_s, 3),
    }
    for k, v in (phase_walls or {}).items():
        metrics[k] = round(v, 3)
    mf.commit(man_dir, "stats", {"stage": "stats", "stats": stats})
    mf.commit(man_dir, "metrics", {"stage": "metrics", "metrics": metrics})
    mf.commit(man_dir, "index", {"stage": "index", "complete": True})
    return stats


def build_index(docs: str | list[str], index_dir: str,
                cfg: IndexConfig = DEFAULT_CONFIG,
                num_parts: int | None = None) -> dict:
    """Build (or resume) the full index over a document table.

    ``docs``: parquet file(s)/dir with at least (doc_id: int64,
    text: string). Returns the corpus stats dict.
    """
    t0 = time.time()
    os.makedirs(index_dir, exist_ok=True)
    man_dir = os.path.join(index_dir, "manifests")
    if mf.is_committed(man_dir, "index"):
        return mf.load(man_dir, "stats")["stats"]
    files = _input_files(docs)
    # fault-injection hooks exercise Ray task retry / per-part resume —
    # they only fire on the distributed path, so their presence opts out
    # of the inline one
    inline_ok = (num_parts is None and cfg.inline_build_max_docs
                 and cfg.fail_after_parts is None
                 and not os.path.isdir(os.path.join(index_dir, "_faults")))
    phase_walls: dict[str, float] = {}
    counts = _footer_counts(files)
    if inline_ok and sum(counts) <= cfg.inline_build_max_docs:
        _build_index_inline(files, counts, index_dir, cfg)
    else:
        t1 = time.time()
        build_runs(files, index_dir, cfg, num_parts, counts)
        phase_walls["phase1_runs_s"] = time.time() - t1
        t2 = time.time()
        build_segments(index_dir, cfg)
        phase_walls["phase2_segments_s"] = time.time() - t2
    return finalize(index_dir, cfg, time.time() - t0, phase_walls)


def gc_runs(index_dir: str) -> int:
    """Reclaim the materialized exchange after the index commits.

    ``runs/`` is a shuffle intermediate kept for per-shard re-encode
    resume; once the ``index`` manifest is committed it is pure storage
    overhead (~10-40× the compressed segments — at 100 TB input that is
    the dominant scratch footprint). Returns bytes freed. After GC, a
    deleted segment manifest can no longer re-encode from runs — the
    recovery path is rerunning phase 1 (delete the ``runs-part-*``
    manifests too; ``_encode_shard_group`` fails loudly on the half-state).
    """
    man_dir = os.path.join(index_dir, "manifests")
    if not mf.is_committed(man_dir, "index"):
        raise ValueError("refusing to GC runs: index manifest not committed")
    runs_dir = os.path.join(index_dir, "runs")
    freed = sum(os.path.getsize(os.path.join(r, f))
                for r, _d, fs in os.walk(runs_dir) for f in fs)
    shutil.rmtree(runs_dir, ignore_errors=True)
    return freed


def index_metrics(index_dir: str) -> dict:
    return mf.load(os.path.join(index_dir, "manifests"), "metrics")["metrics"]


def index_stats(index_dir: str) -> dict:
    return mf.load(os.path.join(index_dir, "manifests"), "stats")["stats"]
