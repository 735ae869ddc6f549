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
   file's position in input order; good docs in lz4, since the build
   reads them and they are re-derivable; the dead-letter sink in
   zstd): good docs and dead-letter rows land
   in separate directories from a single pass (the reference's
   good-sink/bad-sink split, ``Processing.scala:209-267``, without
   reading the corpus twice). Docs files are named in input order, so
   the doc ordinals below (sorted file order) do not depend on the
   cluster. Note ``text`` is NOT read — the engine re-derives it from
   ``html`` (byte-identity invariant).

2. **phase 1 — runs**: one task per input file tokenizes it
   (``TokenizeFilePostings`` — each doc gets its dense corpus ORDINAL,
   see stages/postings.py), streams the (shard, term)-sorted chunks'
   posting rows into a run file under its resume part's tmp dir, and
   returns the chunks' docmap rows held in memory. The run file is an
   Arrow IPC file with lz4 buffers (written once, read once, removed
   by ``gc_runs``): each chunk is exactly ``num_term_shards`` record
   batches, batch ``i`` holding shard ``i % S``, and the term column is
   a dictionary over one vocabulary per file that each chunk extends
   as a dictionary delta, so no per-posting string is cast on either
   side. An input file whose vocabulary outgrows
   ``RUN_VOCAB_MAX_TERMS`` continues in a further run file, which
   keeps each chunk's vocabulary lookup bounded. Parts (contiguous
   slices of the sorted doc files) are the resume unit, files the
   parallelism unit: when a part's last file task finishes, the driver
   renames its tmp dir, writes ``docmap/part-K.parquet`` (ord → doc_id,
   doclen, lang; a contiguous ordinal range per part) and commits the
   part's manifest, which records the run format and
   ``num_term_shards`` (a resume under another shard count is
   refused). The per-(chunk, shard) batch layout
   IS the term-shard exchange, materialized to storage instead of held
   in the object store: at 100 TB the shuffle spills by construction, a
   killed job resumes at partition granularity (the KCL-checkpoint
   analogue, SURVEY.md C1), and the file count grows with the input
   files and their vocabularies, not with files × shards.

3. **phase 2 — segments**: one Ray task per contiguous shard group —
   groups sized by the run manifests' postings estimate
   (``PHASE2_GROUP_POSTINGS``, independent of the cluster size) —
   memory-maps the run files, in ordinal order, and reads exactly the
   group's batches of each chunk (``_read_runs``; the term column comes
   back as one dictionary array per file), orders all the
   group's rows by (shard, term) with ONE stable sort (ords already
   arrive ascending within a term, and each chunk already in (shard,
   term) order, so the sort merges presorted runs), cuts each shard's
   lists out of that order, delta/FOR-encodes posting blocks with
   block-max metadata and writes ``segments/shard-j.parquet``; the
   driver commits each task's segment manifests as one batch
   (``manifest.commit_many``, one fsync round). Ordinal keys make
   the average delta gap n_docs/df (vs 2^63/n for raw 64-bit id
   hashes), so postings land at ~1-2 B each instead of ~9.
   Embarrassingly parallel — the all-to-all already happened in
   phase 1. Head-term skew: a single term's postings are inherently one
   list, but shards hold many terms and ``num_term_shards`` spreads the
   heavy ones (SURVEY.md §4 "Skew").

4. **finalize**: N / avgdl / counters roll up from manifests (the
   running-counter analogue of ``Processing.scala:237-249``) into
   ``stats.json`` + ``metrics.json`` (one commit batch), then the
   ``index`` manifest on its own, last.

**Inline fast path** (``_build_index_inline``, corpora at or below
``cfg.inline_build_max_docs``): phases 1 and 2 run in the calling
process over the same kernels, and the exchange never leaves memory —
the phase-1 chunks, term column dictionary-typed as in a run file, go
straight to the phase-2 encode, and each phase's manifests commit as
one batch.
Its docmap parts and segments match the distributed
path's byte for byte, and so do its manifests, except that they name no
run files: nothing is written under ``runs/``, a ``runs-part`` manifest
declares only its docmap file, and a segment manifest lists the input
doc files.
Resume crosses the paths: the inline build re-tokenizes committed parts
in memory, and the distributed phase 1 re-runs any part committed
without run files, so phase 2 never encodes a subset of the parts.
"""

from __future__ import annotations

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
from ..stages.postings import CHUNK_SCHEMA, TokenizeFilePostings
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
                    # good docs are re-derivable from the pages and
                    # read by the build (phase 1, the positions build):
                    # the cheaper codec; the dead-letter sink keeps zstd
                    writers[status] = pq.ParquetWriter(
                        os.path.join(d, f"part-{k:05d}.parquet"),
                        part.schema,
                        compression="lz4" if status == "good" else "zstd")
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
#: written through an order-free block write). 4 = an input file's run
#: files are Arrow IPC files of posting rows only, ``num_term_shards``
#: record batches per chunk (see ``_run_batches``), a further file per
#: ``RUN_VOCAB_MAX_TERMS`` of vocabulary. Bump whenever the part
#: layout or row schema changes: resume compares it (and the exact file
#: grouping and shard count) against committed manifests and REFUSES a
#: mixed index instead of silently skipping old-format parts.
RUN_FORMAT = 4

#: the run columns phase 2 encodes from
PHASE2_COLUMNS = ["shard", "term", "ord", "tf"]

#: a run file's rows: the chunks' posting rows, the term column a
#: dictionary over one vocabulary per file
RUN_FILE_SCHEMA = pa.schema([CHUNK_SCHEMA.field(c) for c in PHASE2_COLUMNS])

#: run files are written once and read once, by phase 2, then removed
#: by ``gc_runs``: lz4 buffers, and each chunk's new terms go out as a
#: dictionary delta of the file's vocabulary
RUN_IPC_OPTIONS = pa.ipc.IpcWriteOptions(compression="lz4",
                                         emit_dictionary_deltas=True)

#: a run file's vocabulary cap, in terms. Each chunk after a file's
#: first re-points its terms at the file's vocabulary (``pc.index_in``),
#: which hashes the whole vocabulary again, about 0.12 us per term on
#: one CPU, so an uncapped file's per-chunk cost grows with its chunk
#: count (uncapped, about 15 ms for the first 2k-doc chunk of
#: ``scripts/write_path_timing.py --path run-chunks``' file and over
#: 50 ms for its 12th). A
#: chunk that leaves the vocabulary at this size closes the file, and
#: the next chunk starts a new one with its own vocabulary.
RUN_VOCAB_MAX_TERMS = 1 << 16


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
    files = glob.glob(os.path.join(runs_dir, "part=*", "*.arrow"))
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
    return [os.path.join(tmp, f"run-{i:05d}.arrow") for i in range(n_files)]


def _run_file_path(run_path: str, j: int) -> str:
    """The ``j``-th run file of the input file whose first run file is
    ``run_path``: ``run-<i>.arrow``, then ``run-<i>.<j>.arrow``, which
    ``_run_files``' numeric sort keeps in chunk order."""
    return run_path if j == 0 else f"{run_path[:-len('.arrow')]}.{j}.arrow"


def _run_batches(postings: pa.Table, shard: np.ndarray,
                 vocab: pa.Array | None, num_shards: int
                 ) -> tuple[list[pa.RecordBatch], pa.Array]:
    """One chunk's posting rows (sorted by shard; ``shard`` is their
    shard column) → its ``num_shards`` run-file batches, batch ``i``
    holding shard ``i`` (empty ones included), and the file's
    vocabulary after the chunk. The first chunk's dictionary becomes
    the vocabulary; a later chunk's terms are re-pointed at it, and its
    new terms appended, which the IPC writer emits as a dictionary
    delta. No per-posting string is made."""
    term = postings["term"].chunk(0)
    if vocab is None:
        vocab = term.dictionary
    else:
        local = term.dictionary
        pos = pc.fill_null(pc.index_in(local, value_set=vocab), -1
                           ).to_numpy(zero_copy_only=False, writable=True)
        new = np.flatnonzero(pos < 0)
        if len(new):
            pos[new] = np.arange(len(vocab), len(vocab) + len(new))
            vocab = pa.concat_arrays([vocab, local.take(new)])
        term = pa.DictionaryArray.from_arrays(
            pa.array(pos[term.indices.to_numpy()]), vocab)
    batch = pa.record_batch(
        [postings["shard"].chunk(0), term, postings["ord"].chunk(0),
         postings["tf"].chunk(0)], schema=RUN_FILE_SCHEMA)
    bounds = np.searchsorted(shard, np.arange(num_shards + 1)).tolist()
    return [batch.slice(lo, hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:])], vocab


def _read_runs(files: list[str], lo: int, hi: int,
               num_shards: int) -> pa.Table:
    """Shards ``lo..hi`` of every run file → one table per file,
    concatenated in file order (chunk order, then shard order within a
    file). Each file is memory-mapped and only the range's batches are
    read (``get_batch``): chunk ``c``'s shard ``s`` is batch
    ``c * num_shards + s``. A file's term column becomes ONE dictionary
    array (every batch reads back with the file's whole, delta-extended
    vocabulary), cut down to the terms the range uses when it is not
    every shard, so the phase-2 unification merges one dictionary per
    file, not one per batch, and its string work scales with the
    range's terms, not the files'."""
    tables = [RUN_FILE_SCHEMA.empty_table()]
    for f in files:
        with pa.memory_map(f) as src:
            reader = pa.ipc.open_file(src)
            n = reader.num_record_batches
            if n % num_shards:
                raise ValueError(f"{f}: {n} record batches, not a multiple "
                                 f"of {num_shards} term shards")
            batches = [reader.get_batch(c + s) for c in range(0, n, num_shards)
                       for s in range(lo, hi + 1)]
        if not batches:
            continue
        cols = {c: pa.chunked_array([b.column(i) for b in batches])
                for i, c in enumerate(PHASE2_COLUMNS)}
        idx = pa.concat_arrays([t.indices for t in cols["term"].chunks])
        vocab = batches[-1].column(1).dictionary
        if hi - lo + 1 < num_shards:     # a part of the shards: cut
            ix = idx.to_numpy()
            used = np.zeros(len(vocab), dtype=bool)
            used[ix] = True
            idx = pa.array((np.cumsum(used, dtype=np.int32) - 1)[ix])
            vocab = vocab.take(np.flatnonzero(used))
        cols["term"] = pa.DictionaryArray.from_arrays(idx, vocab)
        tables.append(pa.table(cols, schema=RUN_FILE_SCHEMA))
    return pa.concat_tables(tables)


def _tokenize_file(path: str, base: int, cfg: IndexConfig,
                   run_path: str | None = None,
                   keep: list[pa.Table] | None = None
                   ) -> tuple[dict[str, np.ndarray], int]:
    """Phase 1 for one input file → (its docmap rows as numpy columns,
    its run row count).

    With ``run_path`` (the distributed build) it streams the file's
    chunks' posting rows into that run file, an Arrow IPC file of
    ``cfg.num_term_shards`` record batches per chunk
    (``_run_batches``), so phase 2 reads exactly its shards' batches.
    Once a file's vocabulary reaches ``RUN_VOCAB_MAX_TERMS`` the file
    is closed and the next chunk starts another (``_run_file_path``).
    ``keep`` (the inline build) collects each chunk's posting rows,
    term column still dictionary-typed, for an in-memory phase 2.
    Either way the chunks' docmap rows (``shard == -1``, the leading
    rows of each chunk) are kept in memory, so a run file is never read
    back. The docmap leaves the task as numpy columns: a returned Arrow
    table would make Ray's serializer import ``ray.data`` in the worker.
    A retry rewrites the same files."""
    run_rows = 0
    docmap = [DOCMAP_SCHEMA.empty_table()]
    items = pa.table({"path": [path], "base": [base]})
    w, vocab, n_run_files = None, None, 0
    try:
        for chunk in TokenizeFilePostings(cfg)(items):
            run_rows += chunk.num_rows
            shard = chunk["shard"].to_numpy()
            n_docs = int(np.searchsorted(shard, DOCMAP_SHARD, side="right"))
            t = chunk.slice(0, n_docs)
            docmap.append(pa.table(
                {"ord": t["ord"], "doc_id": t["doc_id"],
                 "doclen": t["tf"].cast(pa.int64()), "lang": t["lang"]},
                schema=DOCMAP_SCHEMA))
            postings = chunk.slice(n_docs).select(PHASE2_COLUMNS)
            if run_path:
                if w is None:
                    w = pa.ipc.new_file(_run_file_path(run_path, n_run_files),
                                        RUN_FILE_SCHEMA, options=RUN_IPC_OPTIONS)
                    n_run_files += 1
                batches, vocab = _run_batches(postings, shard[n_docs:], vocab,
                                              cfg.num_term_shards)
                for b in batches:
                    w.write_batch(b)
                if len(vocab) >= RUN_VOCAB_MAX_TERMS:
                    w.close()
                    w, vocab = None, None
            if keep is not None:
                keep.append(postings)
    finally:
        if w is not None:
            w.close()
    dm = pa.concat_tables(docmap)
    return {c: dm[c].to_numpy() for c in DOCMAP_SCHEMA.names}, run_rows


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _tokenize_file_task(path: str, base: int, run_path: str,
                        cfg: IndexConfig) -> tuple[dict[str, np.ndarray], int]:
    return _tokenize_file(path, base, cfg, run_path=run_path)


def _close_part(index_dir: str, k: int, files_k: list[str],
                outs: list[tuple[dict[str, np.ndarray], int]],
                t0: float, num_shards: int, with_runs: bool = True) -> dict:
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
        "num_term_shards": num_shards,
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


def _check_resumable_parts(man_dir: str, parts: list[list[str]],
                           num_shards: int) -> None:
    """Resume safety: a committed part written under a different run
    format, file grouping or term-shard count must not be silently
    skipped — it would splice old-layout postings into a new build (a
    run file's batches are per shard). Refuse loudly."""
    expected = {k: [os.path.basename(f) for f in files_k]
                for k, files_k in enumerate(parts)}
    for name, m in mf.load_all(man_dir, prefix="runs-part-").items():
        if (m.get("format") != RUN_FORMAT
                or m.get("input_files") != expected.get(m.get("part"))
                or m.get("num_term_shards") != num_shards):
            raise RuntimeError(
                f"{name}: committed under run format "
                f"{m.get('format')!r} / grouping {m.get('input_files')!r} / "
                f"num_term_shards {m.get('num_term_shards')!r}, but this "
                f"build uses format {RUN_FORMAT} / grouping "
                f"{expected.get(m.get('part'))!r} / num_term_shards "
                f"{num_shards}. Resuming would mix "
                "incompatible parts — delete the index dir's manifests/"
                "runs-part-*.json, runs/ and docmap/ (and any segment "
                "manifests) to rebuild, or rerun with the original "
                "num_parts/num_term_shards/input set.")


def _check_resumable_segments(man_dir: str, num_shards: int) -> None:
    """Resume safety for phase 2: a segment committed under another
    ``num_term_shards`` holds the terms that hash there modulo the old
    count, so the readers' routing would miss them. Refuse loudly."""
    for name, m in mf.load_all(man_dir, prefix="segment-shard-").items():
        if m.get("num_term_shards") != num_shards:
            raise RuntimeError(
                f"{name}: committed under num_term_shards "
                f"{m.get('num_term_shards')!r}, but this build uses "
                f"{num_shards}. Resuming would route terms to the wrong "
                "segments — delete the index dir's manifests/, runs/, "
                "docmap/ and segments/ to rebuild, or rerun with the "
                "original num_term_shards.")


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
    _check_resumable_parts(man_dir, parts, cfg.num_term_shards)
    _check_resumable_segments(man_dir, cfg.num_term_shards)   # before any work
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
                    index_dir, k, todo[k], outs.pop(k), started[k],
                    cfg.num_term_shards))
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
                   input_files: list[str], num_shards: int) -> dict:
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
        "num_term_shards": num_shards,
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
def _encode_shard_group(index_dir: str, shards: list[int], block_size: int,
                        num_shards: int) -> list[dict]:
    """Segment encode for a CONTIGUOUS group of shards in one task.

    Transient I/O errors re-execute via Ray task retry (the reference's
    bounded transient-retry, W3); deterministic errors (ValueError etc.)
    fail the job loudly — the permanent/transient split of
    ElasticsearchSink.scala:145-198.

    Grouping amortizes the per-task set-up — dispatch, and opening and
    memory-mapping every run file — over the group's shards; the read
    itself is exact (``_read_runs``: only the group's batches of each
    chunk). The encode is one pass over the whole group
    (``encode_shard_tables``: one dictionary unification, one
    vocabulary sort and one stable argsort by (shard, term), then each
    shard's slice through ``codec.encode_postings_batch``), so at small
    corpora the set-up is most of the task;
    ``_plan_shard_groups`` gives each task about
    ``PHASE2_GROUP_POSTINGS`` estimated postings, which is one task for
    a small corpus and one shard per task once a shard alone holds that
    many. Idempotent per shard
    (tmp+rename writes, manifests committed by the caller), so a retry
    mid-group re-writes at most already-written files."""
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
    runs = _read_runs(files, min(shards), max(shards), num_shards)
    segs = encode_shard_tables(runs, shards, block_size)
    del runs                   # drop the batches before the writes
    inputs = [os.path.relpath(f, index_dir) for f in files]
    return [_write_segment(seg, index_dir, shard, inputs, num_shards)
            for shard, seg in zip(shards, segs)]


#: phase-2 task size, in estimated postings (the run-manifest counter
#: spread evenly over the shards). Each task pays a fixed set-up — task
#: dispatch, opening every run file — of about 3 ms,
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
    Groups never span a gap in ``missing`` — the range read must not
    re-read committed shards' batches."""
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
    _check_resumable_segments(man_dir, cfg.num_term_shards)
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
    refs = [_encode_shard_group.remote(index_dir, g, cfg.block_size,
                                       cfg.num_term_shards)
            for g in groups]
    for g, payloads in zip(groups, ray.get(refs)):
        mf.commit_many(man_dir, [(f"segment-shard-{s:04d}", payload)
                                 for s, payload in zip(g, payloads)])


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
    _check_resumable_parts(man_dir, parts, cfg.num_term_shards)
    _check_resumable_segments(man_dir, cfg.num_term_shards)

    chunks: list[pa.Table] = [RUN_FILE_SCHEMA.empty_table()]
    part_manifests = []
    for k, files_k in enumerate(parts):
        t0 = time.time()
        outs = [_tokenize_file(f, bases[f], cfg, keep=chunks) for f in files_k]
        if not mf.is_committed(man_dir, f"runs-part-{k:04d}"):
            part_manifests.append((f"runs-part-{k:04d}", _close_part(
                index_dir, k, files_k, outs, t0, cfg.num_term_shards,
                with_runs=False)))
    mf.commit_many(man_dir, part_manifests)

    missing = [s for s in range(cfg.num_term_shards)
               if not mf.is_committed(man_dir, f"segment-shard-{s:04d}")]
    segs = encode_shard_tables(pa.concat_tables(chunks), missing,
                               cfg.block_size)
    inputs = [os.path.basename(f) for f in files]
    mf.commit_many(man_dir, [
        (f"segment-shard-{shard:04d}", _write_segment(
            seg, index_dir, shard, inputs, cfg.num_term_shards))
        for shard, seg in zip(missing, segs)])


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
    mf.commit_many(man_dir, [("stats", {"stage": "stats", "stats": stats}),
                             ("metrics", {"stage": "metrics", "metrics": metrics})])
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
    overhead (lz4 Arrow IPC, 3-4× the compressed segments: 1.96 MB
    against 0.66 MB on a 2.5k-page synthetic corpus at 16 shards — at
    100 TB input that is the dominant scratch footprint). Returns bytes
    freed. After GC, a deleted segment manifest can no longer re-encode
    from runs — the recovery path is rerunning phase 1 (delete the
    ``runs-part-*`` manifests too; ``_encode_shard_group`` fails loudly
    on the half-state).
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
