"""Index build: ingest → SPIMI runs → per-shard segment encode.

Physical plan (SURVEY.md §7.3), all stages streaming Ray Data unless
noted:

1. **ingest_pages** (optional, for raw page corpora):
   ``read_parquet(pages, columns=[url, warc_ts, html, lang])`` →
   ``map_batches(ExtractTransform)`` → one ``write_parquet`` partitioned
   by ``status``: good docs and dead-letter rows land in separate
   directories from a single pass (the reference's good-sink/bad-sink
   split, ``Processing.scala:209-267``, without reading the corpus
   twice). Note ``text`` is NOT read — the engine re-derives it from
   ``html`` (byte-identity invariant).

2. **phase 1 — runs**: per input partition, one task per input file
   (``map_batches(TokenizeFilePostings)`` over (path, ordinal-base)
   items — each doc gets its dense corpus ORDINAL, see
   stages/postings.py) → shard-sorted parquet with small row groups →
   atomic rename → ``docmap/part-K.parquet`` (ord → doc_id, doclen;
   a contiguous ordinal range per part) → manifest commit. The
   shard-clustered row-group layout IS the term-shard exchange,
   materialized to storage instead of held in the object store: at
   100 TB the shuffle spills by construction, a killed job resumes at
   partition granularity (the KCL-checkpoint analogue, SURVEY.md C1),
   and the file count stays at one per output block (not blocks ×
   shards).

3. **phase 2 — segments**: one Ray task per shard reads
   ``runs/part=*/*.parquet`` with a ``shard == j`` filter (row-group
   statistics prune to ~1/num_shards of each file), sorts by
   (term, ord), delta/FOR-encodes posting blocks with block-max
   metadata and commits ``segments/shard-j.parquet`` + manifest.
   Ordinal keys make the average delta gap n_docs/df (vs 2^63/n for
   raw 64-bit id hashes), so postings land at ~1-2 B each instead
   of ~9. Embarrassingly parallel — the all-to-all already happened in
   phase 1. Head-term skew: a single term's postings are inherently one
   list, but shards hold many terms and ``num_term_shards`` spreads the
   heavy ones (SURVEY.md §4 "Skew").

4. **finalize**: N / avgdl / counters roll up from manifests (the
   running-counter analogue of ``Processing.scala:237-249``) into
   ``stats.json`` + ``metrics.json`` + an ``index`` manifest.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray

# Ray's path resolution probes `fsspec.implementations.http` on every
# read/write call; without aiohttp that import raises, and when two
# threads race the probe the half-initialized module surfaces as a bare
# ImportError that Ray's ModuleNotFoundError handler misses. Wrap the
# probe so concurrently-driven pipelines (threaded phase-1 parts) are
# safe: no-http-filesystem is the correct answer either way.
from ray.data.datasource import path_util as _ray_path_util

_orig_is_http = _ray_path_util._is_http_filesystem


def _is_http_filesystem_safe(fs):  # pragma: no cover - exercised via threads
    try:
        return _orig_is_http(fs)
    except ImportError:
        return False


_ray_path_util._is_http_filesystem = _is_http_filesystem_safe

from ..config import IndexConfig, DEFAULT_CONFIG, DOCMAP_SHARD
from ..stages.extract import ExtractTransform
from ..stages.postings import TokenizeFilePostings
from ..stages.segment import encode_shard_table, SEGMENT_SCHEMA
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

def ingest_pages(pages: str | list[str], out_dir: str,
                 cfg: IndexConfig = DEFAULT_CONFIG) -> dict:
    """Extract text from raw pages; returns the ingest counter dict.

    Output layout: ``out_dir/docs/status=good/*.parquet`` (document
    table) and ``status=<error_type>/`` (dead letters), one streaming
    pass, committed via manifest.
    """
    files = _input_files(pages)
    man_dir = os.path.join(out_dir, "manifests")
    docs_dir = os.path.join(out_dir, "docs")
    if mf.is_committed(man_dir, "ingest"):
        return mf.load(man_dir, "ingest")["counters"]

    tmp = os.path.join(out_dir, "_tmp_docs")
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.time()
    # one block per input file + block-aligned batches: map stages see
    # whole zero-copy blocks instead of re-sliced seams across blocks
    ds = ray.data.read_parquet(files, columns=["url", "warc_ts", "html", "lang"],
                               override_num_blocks=len(files))
    ds = ds.map_batches(ExtractTransform(cfg), batch_format="pyarrow",
                        batch_size=cfg.batch_size)
    ds.write_parquet(tmp, partition_cols=["status"], compression="zstd")
    if os.path.exists(docs_dir):
        shutil.rmtree(docs_dir)
    # docs are a lineage-recoverable intermediate (re-derivable from the
    # pages by rerunning ingest) — no per-file fsync
    mf.commit_dir_rename(tmp, docs_dir, durable=False)

    # per-status counts from parquet footers only (no data scan): the
    # hive layout keys each status to a directory, so footer row counts
    # are exact — at 100 TB this is a metadata listing, not a read
    counters: dict[str, int] = {}
    error_samples: dict[str, list[str]] = {}
    for d in sorted(glob.glob(os.path.join(docs_dir, "status=*"))):
        status = os.path.basename(d).split("=", 1)[1]
        part_files = glob.glob(os.path.join(d, "*.parquet"))
        counters[status] = _footer_rows(part_files)
        if status != "good" and part_files:
            error_samples[status] = _sample_errors(part_files[0])
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
#: docmap extraction + CONTIGUOUS _plan_parts grouping. Bump whenever
#: the part layout or row schema changes: resume compares it (and the
#: exact file grouping) against committed manifests and REFUSES a mixed
#: index instead of silently skipping old-format parts.
RUN_FORMAT = 2


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


def _footer_rows(files: list[str]) -> int:
    """Exact row count from parquet footers (metadata only, no scan)."""
    if len(files) > 8:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=16) as pool:
            return sum(pool.map(lambda f: pq.ParquetFile(f).metadata.num_rows, files))
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


DOCMAP_SCHEMA = pa.schema([
    ("ord", pa.int64()),
    ("doc_id", pa.int64()),
    ("doclen", pa.int64()),
    ("lang", pa.string()),          # doc-value (null if the input had none)
])


def _write_part_docmap(part_dir: str, index_dir: str, k: int) -> tuple[str, dict]:
    """Extract a part's docmap rows (shard == -1, row-group pruned) into
    ``docmap/part-K.parquet`` sorted by ordinal; → (path, counters).

    Called in-process by the inline fast path; the distributed path runs
    it as a Ray task (``_write_part_docmap_task``) so the scan+sort+write
    lands on a cluster slot — on the driver it would be free hidden
    parallelism that neither scales with the cluster nor survives a
    10^12-doc part count."""
    import pyarrow.dataset as pads

    dm_dir = os.path.join(index_dir, "docmap")
    os.makedirs(dm_dir, exist_ok=True)
    t = pads.dataset(sorted(glob.glob(os.path.join(part_dir, "*.parquet")))) \
        .to_table(columns=["ord", "doc_id", "tf", "lang"],
                  filter=pads.field("shard") == DOCMAP_SHARD)
    order = pa.compute.sort_indices(t["ord"])
    dm = pa.table({
        "ord": t["ord"].take(order),
        "doc_id": t["doc_id"].take(order),
        "doclen": t["tf"].take(order).cast(pa.int64()),
        "lang": t["lang"].take(order),
    }, schema=DOCMAP_SCHEMA)
    out = os.path.join(dm_dir, f"part-{k:04d}.parquet")
    tmp = out + ".tmp"
    pq.write_table(dm, tmp, compression="zstd")
    os.replace(tmp, out)
    tokens = int(pa.compute.sum(dm["doclen"]).as_py() or 0)
    return out, {"docs": dm.num_rows, "tokens": tokens}


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _write_part_docmap_task(part_dir: str, index_dir: str, k: int) -> tuple[str, dict]:
    return _write_part_docmap(part_dir, index_dir, k)


def _build_one_part(k: int, files_k: list[str], bases_k: list[int],
                    index_dir: str, cfg: IndexConfig) -> None:
    man_dir = os.path.join(index_dir, "manifests")
    runs_dir = os.path.join(index_dir, "runs")
    t0 = time.time()
    final = os.path.join(runs_dir, f"part={k:04d}")
    tmp = os.path.join(runs_dir, f"_tmp_part={k:04d}")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)  # uncommitted leftovers

    items = [{"path": p, "base": b} for p, b in zip(files_k, bases_k)]
    ds = ray.data.from_items(items, override_num_blocks=len(items))
    ds = ds.map_batches(TokenizeFilePostings(cfg), batch_format="pyarrow",
                        batch_size=None,
                        concurrency=cfg.build_concurrency)
    # One file per output block with shard-clustered row groups (the
    # chunk is sorted by shard): phase 2 then prunes to its shard via
    # row-group statistics. This replaces a hive write of blocks ×
    # shards tiny files — at 100 TB that's the difference between ~10^4
    # and ~10^6 exchange files per partition.
    ds.write_parquet(tmp, row_group_size=cfg.run_row_group_size,
                     compression="zstd")
    # runs are shuffle intermediates: recompute-on-loss, not fsync
    mf.commit_dir_rename(tmp, final, durable=False)
    dm_out, counters = ray.get(
        _write_part_docmap_task.remote(final, index_dir, k))
    run_rows = _footer_rows(glob.glob(os.path.join(final, "*.parquet")))
    counters["postings"] = int(run_rows - counters["docs"])
    mf.commit(man_dir, f"runs-part-{k:04d}", {
        "part": k,
        "stage": "runs",
        "format": RUN_FORMAT,
        "input_files": [os.path.basename(f) for f in files_k],
        "row_count": counters["docs"],
        "counters": counters,
        "outputs": [os.path.relpath(final, index_dir),
                    os.path.relpath(dm_out, index_dir)],
        "durable": False,          # shuffle intermediate (rerun part)
        "wall_s": round(time.time() - t0, 3),
    })


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
               num_parts: int | None = None) -> None:
    """Phase 1. Parts are the RESUME granularity, not the parallelism
    unit: uncommitted parts run as concurrently-driven Ray Data
    pipelines (each streams its own blocks across the cluster), so a
    fine checkpoint grain doesn't serialize the build. With the
    fail_after_parts test hook the loop runs sequentially so the commit
    count at failure is deterministic."""
    man_dir = os.path.join(index_dir, "manifests")
    os.makedirs(os.path.join(index_dir, "runs"), exist_ok=True)
    # doc ordinals: base offset per input file from footer row counts
    # (metadata only), cumulative over the SORTED global file list —
    # deterministic across resumes, independent of part grouping
    rows_per_file = [pq.ParquetFile(f).metadata.num_rows for f in doc_files]
    bases: dict[str, int] = {}
    at = 0
    for f, n in zip(doc_files, rows_per_file):
        bases[f] = at
        at += n
    parts = _plan_parts(doc_files, num_parts)
    _check_resumable_parts(man_dir, parts)
    todo = [(k, files_k) for k, files_k in enumerate(parts)
            if not mf.is_committed(man_dir, f"runs-part-{k:04d}")]
    if cfg.fail_after_parts is not None:
        for done, (k, files_k) in enumerate(todo, start=1):
            _build_one_part(k, files_k, [bases[f] for f in files_k], index_dir, cfg)
            if done >= cfg.fail_after_parts:
                raise SimulatedFailure(f"injected failure after {done} run parts")
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(4, max(1, len(todo)))) as pool:
        futs = [pool.submit(_build_one_part, k, files_k,
                            [bases[f] for f in files_k], index_dir, cfg)
                for k, files_k in todo]
        for f in futs:
            f.result()


# --------------------------------------------------------------------------
# phase 2: segments (one Ray task per shard — the exchange already
# happened via the partitioned run write, so this is a parallel map)
# --------------------------------------------------------------------------

def load_docmap(index_dir: str):
    """Load ``docmap/part-*.parquet`` → (doc_ids, doclens) numpy arrays
    INDEXED BY ORDINAL (dense 0..n-1; parts are contiguous ordinal
    ranges, concatenated in part order).

    ~24 B/doc total: a single-node reader loads it whole; a 10^12-doc
    deployment doc-partitions readers on these same ordinal-range
    parts, each opening only its own files.
    """
    import numpy as np

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
    import numpy as np

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
    once). The encode itself is one batched pass per shard
    (``codec.encode_postings_batch``: a few ms for a 25k-posting
    shard), so at small corpora this setup is most of the task; at
    10^12 docs each shard is huge and ``build_segments`` sizes groups
    back down to 1 via the run-manifest postings estimate. Idempotent per shard
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

    import pyarrow.compute as pc

    # test hook (resilience tests): a `_faults/shard-<k>.once` file makes
    # this task fail transiently exactly once; Ray's task retry
    # (max_retries default) then recomputes it — the W3 transient path
    for shard in shards:
        fault = os.path.join(index_dir, "_faults", f"shard-{shard:04d}.once")
        if os.path.exists(fault):
            os.remove(fault)
            raise OSError(f"injected transient failure for shard {shard}")

    runs_dir = os.path.join(index_dir, "runs")
    seg_dir = os.path.join(index_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    files = sorted(glob.glob(os.path.join(runs_dir, "part=*", "*.parquet")))
    if not files and mf.load_all(os.path.join(index_dir, "manifests"),
                                 prefix="runs-part-"):
        # committed run parts but no run files: runs were GC'd after the
        # index committed. Re-encoding would silently produce an empty
        # segment — fail loudly with the recovery path instead.
        raise RuntimeError(
            "runs/ was garbage-collected; to re-encode this shard, rerun "
            "phase 1 first (delete the runs-part-* manifests and call "
            "build_index again)")
    lo, hi = min(shards), max(shards)
    if files:
        # one row-group-pruned read for the whole contiguous shard
        # range: each run file is shard-sorted, so the filter touches
        # only the groups whose stats overlap [lo, hi]. Terms come back
        # dictionary-encoded (parquet dictionary pages) so no
        # per-posting string is materialized.
        fmt = pads.ParquetFileFormat(read_options={"dictionary_columns": ["term"]})
        cols = ["term", "ord", "tf"] if len(shards) == 1 else \
               ["shard", "term", "ord", "tf"]
        flt = (pads.field("shard") == lo if len(shards) == 1 else
               (pads.field("shard") >= lo) & (pads.field("shard") <= hi))
        runs = pads.dataset(files, format=fmt).to_table(columns=cols,
                                                        filter=flt)
    else:
        runs = None

    payloads: list[dict] = []
    for shard in shards:
        if runs is None:
            seg = SEGMENT_SCHEMA.empty_table()
        elif len(shards) == 1:
            seg = encode_shard_table(runs, block_size=block_size)
        else:
            sub = runs.filter(pc.equal(runs["shard"], shard)) \
                      .select(["term", "ord", "tf"])
            seg = encode_shard_table(sub, block_size=block_size)
        out = os.path.join(seg_dir, f"shard-{shard:04d}.parquet")
        tmp = out + ".tmp"

        def _write() -> None:
            # transient I/O retried with the reference's bounded budget
            # (5 × 1 s, reference.conf:31-36); deterministic failures
            # raise immediately (W2 permanent/transient split)
            pq.write_table(seg, tmp, compression="zstd")
            os.replace(tmp, out)

        with_retries(_write, delay_s=0.2)

        payloads.append({
            "part": shard,
            "stage": "segments",
            "input_files": [os.path.relpath(f, index_dir) for f in files],
            "counters": {
                "terms": int(seg.num_rows),
                "postings": int(pa.compute.sum(seg["df"]).as_py() or 0),
                "bytes_written": os.path.getsize(out),
            },
            "outputs": [os.path.relpath(out, index_dir)],
            "content_hash": mf.content_hash([out]),
        })
    return payloads


#: cap on one phase-2 group's estimated in-memory posting rows (~16 B
#: per row across the term-dict/ord/tf columns → ~1 GiB at the cap).
#: At 10^12-doc scale the per-shard estimate alone exceeds this and
#: groups degenerate to single shards (the round-2 behavior).
GROUP_MAX_ROWS = 64_000_000

#: floor on the phase-2 task count. Below this many CPU slots the task
#: layout is CLUSTER-SIZE-INDEPENDENT: the N-vs-4N scaling comparison
#: must run the IDENTICAL job at both parallelism levels, and a
#: slot-derived group size would hand the narrow leg a cheaper job
#: (more setup amortization per task) and corrupt the measured
#: efficiency — observed as a systematic ~0.74 ratio when the 2-CPU
#: leg ran 4 tasks against the 8-CPU leg's 16. It also keeps resume
#: granularity and straggler balance reasonable on small clusters.
MIN_PHASE2_TASKS = 16


def _plan_shard_groups(missing: list[int], num_shards: int,
                       est_total_postings: int, cpu_slots: int) -> list[list[int]]:
    """Contiguous groups of missing shards for phase-2 tasks.

    Targets max(MIN_PHASE2_TASKS, 2 × cpu_slots) tasks so the per-task
    scan setup amortizes at small corpora without creating stragglers
    (and without depending on cluster size below 8 slots — see
    MIN_PHASE2_TASKS), bounded by GROUP_MAX_ROWS via the run-manifest
    postings estimate. Groups never span a gap in ``missing`` — the
    range filter must not re-read committed shards' row groups."""
    per_shard = max(1, est_total_postings // max(1, num_shards))
    max_group = max(1, min(len(missing), GROUP_MAX_ROWS // per_shard))
    target_tasks = max(MIN_PHASE2_TASKS, 2 * cpu_slots)
    size = max(1, min(max_group, (len(missing) + target_tasks - 1) // target_tasks))
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
    est = sum(m["counters"].get("postings", 0)
              for m in mf.load_all(man_dir, prefix="runs-part-").values())
    cpu_slots = int(ray.cluster_resources().get("CPU", 1))
    groups = _plan_shard_groups(missing, cfg.num_term_shards, est, cpu_slots)
    refs = [_encode_shard_group.remote(index_dir, g, cfg.block_size)
            for g in groups]
    for g, payloads in zip(groups, ray.get(refs)):
        for s, payload in zip(g, payloads):
            mf.commit(man_dir, f"segment-shard-{s:04d}", payload)


# --------------------------------------------------------------------------
# inline fast path (delta-sized corpora)
# --------------------------------------------------------------------------

def _build_index_inline(files: list[str], index_dir: str,
                        cfg: IndexConfig) -> None:
    """Both phases in the calling process, for corpora at or below
    ``cfg.inline_build_max_docs`` (an NRT delta generation, a unit-test
    fixture). Emits the EXACT artifacts of the distributed path — run
    parts under the default per-file grouping, docmap parts, segment
    shards, the same manifest payloads — so a build that crashes here
    resumes under either path and vice versa. The point is latency:
    a refresh-interval delta is a few thousand docs, and the
    distributed build's per-stage Ray Data pipelines carry seconds of
    fixed scheduling overhead that would dominate the
    stream→searchable SLO (``ElasticsearchSink.scala:81-198`` loads a
    micro-batch synchronously for the same reason; Lucene's refresh
    flushes the in-memory segment in-process)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    man_dir = os.path.join(index_dir, "manifests")
    runs_dir = os.path.join(index_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    bases: dict[str, int] = {}
    at = 0
    for f in files:
        bases[f] = at
        at += pq.ParquetFile(f).metadata.num_rows
    parts = _plan_parts(files, None)       # per-file: the distributed default
    _check_resumable_parts(man_dir, parts)

    tok = TokenizeFilePostings(cfg)
    part_tables: list[pa.Table | None] = []
    for k, files_k in enumerate(parts):
        final = os.path.join(runs_dir, f"part={k:04d}")
        if mf.is_committed(man_dir, f"runs-part-{k:04d}"):
            part_tables.append(None)       # committed by a prior run; read back
            continue
        t0 = time.time()
        tmp = os.path.join(runs_dir, f"_tmp_part={k:04d}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        os.makedirs(tmp)
        items = pa.table({"path": files_k,
                          "base": [bases[f] for f in files_k]})
        run = pa.concat_tables(list(tok(items)))
        pq.write_table(run, os.path.join(tmp, "run-00000.parquet"),
                       row_group_size=cfg.run_row_group_size,
                       compression="zstd")
        mf.commit_dir_rename(tmp, final, durable=False)
        dm_out, counters = _write_part_docmap(final, index_dir, k)
        counters["postings"] = int(run.num_rows - counters["docs"])
        mf.commit(man_dir, f"runs-part-{k:04d}", {
            "part": k,
            "stage": "runs",
            "format": RUN_FORMAT,
            "input_files": [os.path.basename(f) for f in files_k],
            "row_count": counters["docs"],
            "counters": counters,
            "outputs": [os.path.relpath(final, index_dir),
                        os.path.relpath(dm_out, index_dir)],
            "durable": False,
            "wall_s": round(time.time() - t0, 3),
        })
        part_tables.append(run)

    # phase 2 over the in-memory rows (resumed parts read back once —
    # plain string terms so all parts concat under one schema; the
    # encode dictionary-encodes per shard anyway)
    for k, t in enumerate(part_tables):
        if t is None:
            fs = sorted(glob.glob(os.path.join(runs_dir, f"part={k:04d}",
                                               "*.parquet")))
            if not fs:
                # same recovery contract as _encode_shard: committed part
                # manifest but no run files means runs/ was reclaimed
                raise RuntimeError(
                    "runs/ was garbage-collected; to re-encode, rerun "
                    "phase 1 first (delete the runs-part-* manifests and "
                    "call build_index again)")
            part_tables[k] = pads.dataset(fs).to_table(
                columns=["shard", "term", "ord", "tf"])
    full = pa.concat_tables(
        [t.select(["shard", "term", "ord", "tf"]) for t in part_tables])
    run_files = sorted(glob.glob(os.path.join(runs_dir, "part=*",
                                              "*.parquet")))
    seg_dir = os.path.join(index_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    shard_col = full["shard"]
    for shard in range(cfg.num_term_shards):
        if mf.is_committed(man_dir, f"segment-shard-{shard:04d}"):
            continue
        sub = full.filter(pc.equal(shard_col, shard)) \
                  .select(["term", "ord", "tf"])
        seg = encode_shard_table(sub, block_size=cfg.block_size)
        out = os.path.join(seg_dir, f"shard-{shard:04d}.parquet")
        pq.write_table(seg, out + ".tmp", compression="zstd")
        os.replace(out + ".tmp", out)
        mf.commit(man_dir, f"segment-shard-{shard:04d}", {
            "part": shard,
            "stage": "segments",
            "input_files": [os.path.relpath(f, index_dir)
                            for f in run_files],
            "counters": {
                "terms": int(seg.num_rows),
                "postings": int(pa.compute.sum(seg["df"]).as_py() or 0),
                "bytes_written": os.path.getsize(out),
            },
            "outputs": [os.path.relpath(out, index_dir)],
            "content_hash": mf.content_hash([out]),
        })


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
    if inline_ok and _footer_rows(files) <= cfg.inline_build_max_docs:
        _build_index_inline(files, index_dir, cfg)
    else:
        t1 = time.time()
        build_runs(files, index_dir, cfg, num_parts)
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
    manifests too; ``_encode_shard`` fails loudly on the half-state).
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
