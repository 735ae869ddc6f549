"""Index merging: N committed indexes → one, with upsert-by-doc_id.

The incremental-indexing surface. The reference gets document-level
idempotency from Elasticsearch upsert-by-id (``ElasticsearchSink.scala:92``,
SURVEY.md W5): re-indexing a url replaces the previous document. Here
the same contract holds across whole index generations — merging
``[old, new]`` keeps the NEW posting for any doc_id present in both, so
"re-crawl a slice, build a small delta index, merge" is the engine's
re-index path (no full rebuild).

Ordinal spaces: each input index keys its postings on its OWN dense doc
ordinals (stages/postings.py). The merge therefore remaps: the driver
loads every input's docmap, computes survivors (docs not re-indexed by
a newer input, by external doc_id), assigns the MERGED ordinal space
(input-age order, then input ordinal — deterministic), and broadcasts
one ``old ordinal → new ordinal or -1 (superseded)`` int64 array per
input via ``ray.put``. Shard tasks then decode, gather-remap, drop
killed postings and re-encode — no per-posting search.

Physical plan: inputs are already term-sharded with the same shard
function, so the merge is embarrassingly parallel — one Ray task per
shard reads that shard's segment from every input, merges posting lists
term-by-term (ordinal-ascending order restored, newest-wins on
re-indexed docs), re-encodes, and commits the output segment +
manifest. No shuffle: the expensive all-to-all happened when each input
was built.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..codec import PostingList
from ..config import IndexConfig, DEFAULT_CONFIG
from ..stages.segment import SEGMENT_SCHEMA, segment_table
from ..state import manifest as mf
from .build import (DOCMAP_SCHEMA, finalize, index_stats, load_docmap,
                    load_docvalues)


def _merge_lists(entries: list[tuple[int, bytes]], remaps: list[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Merge posting-list buffers tagged with their input index.

    → (docs, tfs) in merged-ordinal order, or None if every posting was
    deleted. Upsert semantics (the document-replacement contract):
    ``remaps[i]`` maps input ``i``'s ordinals to merged ordinals, with
    -1 for docs superseded by a NEWER input — dropping those removes
    stale terms that the new version of the document no longer
    contains (a plain last-wins dedupe would leak them).
    """
    docs_parts: list[np.ndarray] = []
    tfs_parts: list[np.ndarray] = []
    for i, buf in entries:
        d, t = PostingList(buf).decode_all()
        nd = remaps[i][d]
        live = nd >= 0
        if live.any():
            docs_parts.append(nd[live])
            tfs_parts.append(t[live])
    if not docs_parts:
        return None
    docs = np.concatenate(docs_parts)
    tfs = np.concatenate(tfs_parts)
    order = np.argsort(docs, kind="stable")
    # survivors are disjoint across inputs post-remap (each merged
    # ordinal belongs to exactly one input generation)
    return docs[order], tfs[order]


@ray.remote(num_cpus=1)
def _merge_shard(input_dirs: list[str], out_dir: str, shard: int,
                 block_size: int, remaps: list[np.ndarray]) -> dict:
    # remaps arrives as an ObjectRef argument (one ray.put on the
    # driver); Ray resolves it from the shared object store per node —
    # broadcast, not per-task pickling
    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    name = f"shard-{shard:04d}.parquet"

    from ..codec import binary_views

    by_term: dict[str, list[tuple[int, bytes]]] = {}
    tables = []                               # keep buffers alive for views
    for i, d in enumerate(input_dirs):        # input order = age order
        path = os.path.join(d, "segments", name)
        if not os.path.exists(path):
            continue
        t = pq.read_table(path)
        tables.append(t)
        for term, buf in zip(t["term"].to_pylist(), binary_views(t["postings"])):
            by_term.setdefault(term, []).append((i, buf))

    out_terms: list[str] = []
    docs_parts: list[np.ndarray] = []
    tfs_parts: list[np.ndarray] = []
    for term in sorted(by_term):
        merged = _merge_lists(by_term[term], remaps)
        if merged is None:
            continue                           # all postings superseded
        out_terms.append(term)
        docs_parts.append(merged[0])
        tfs_parts.append(merged[1])
    if out_terms:
        ends = np.cumsum([len(d) for d in docs_parts])
        starts = np.concatenate(([0], ends[:-1]))
        seg = segment_table(out_terms, np.concatenate(docs_parts),
                            np.concatenate(tfs_parts), starts, ends,
                            block_size)
    else:
        seg = SEGMENT_SCHEMA.empty_table()

    out = os.path.join(seg_dir, name)
    tmp = out + ".tmp"
    pq.write_table(seg, tmp, compression="zstd")
    os.replace(tmp, out)

    return {
        "part": shard,
        "stage": "segments",
        "input_files": [os.path.join(d, "segments", name) for d in input_dirs],
        "counters": {
            "terms": int(seg.num_rows),
            "postings": int(pa.compute.sum(seg["df"]).as_py() or 0),
            "bytes_written": os.path.getsize(out),
        },
        "outputs": [os.path.relpath(out, out_dir)],
        "content_hash": mf.content_hash([out]),
    }


def merge_indexes(input_dirs: list[str], out_dir: str,
                  cfg: IndexConfig = DEFAULT_CONFIG,
                  deleted_per_input: list[np.ndarray] | None = None) -> dict:
    """Merge committed indexes (oldest first) into ``out_dir``; returns stats.

    All inputs must have the same ``num_term_shards`` (same shard
    function — checked). Resumable per shard via the same manifest
    machinery as the build; the merge PLAN (input list + delete sets)
    is fingerprinted into every part manifest, and resuming with a
    different plan refuses instead of splicing stale shards. The
    per-input ordinal remap arrays are computed once from the inputs'
    docmaps and broadcast via ``ray.put`` — sized by each input's
    corpus, so the intended usage is base-plus-deltas (re-crawl
    slices); merging many full-size generations means corpus-sized
    broadcasts and deserves a rebuild instead.

    ``deleted_per_input[i]`` (optional) is an int64 array of EXTERNAL
    doc_ids to drop from input ``i`` regardless of newer generations —
    the delete-by-query reclamation path (a delete tombstone applies to
    the generations it postdates; a doc re-indexed after the delete
    lives in a later input and is NOT in its delete set).
    """
    t0 = time.time()
    shards = {index_stats(d)["num_term_shards"] for d in input_dirs}
    if len(shards) != 1:
        raise ValueError(f"inputs disagree on num_term_shards: {sorted(shards)}")
    n_shards = shards.pop()
    os.makedirs(out_dir, exist_ok=True)
    man_dir = os.path.join(out_dir, "manifests")

    if deleted_per_input is not None:
        if len(deleted_per_input) != len(input_dirs):
            raise ValueError("deleted_per_input must align with input_dirs")
        deleted_per_input = [np.unique(np.asarray(d, dtype=np.int64))
                             for d in deleted_per_input]

    # plan fingerprint: re-invoking on an out_dir whose committed
    # contents came from a DIFFERENT plan (inputs/deletes changed) must
    # refuse, not silently mix remap spaces — and on a FULLY committed
    # out_dir it must refuse rather than hand back the stale cached
    # stats as if they were this plan's result
    import hashlib as _hl
    h = _hl.sha256("|".join(os.path.abspath(d) for d in input_dirs).encode())
    for d in (deleted_per_input or []):
        h.update(d.tobytes())
    plan_key = h.hexdigest()[:16]

    if mf.is_committed(man_dir, "index"):
        committed_plans = {m.get("plan") for m in
                           mf.load_all(man_dir, prefix="segment-shard-").values()}
        if committed_plans - {plan_key}:
            raise ValueError(
                "merge refused: out_dir holds a COMMITTED merge of a "
                "different plan (inputs/deletes changed); use a fresh "
                "out_dir instead of reusing its cached stats")
        return mf.load(man_dir, "stats")["stats"]

    for name_, m in mf.load_all(man_dir, prefix="segment-shard-").items():
        if m.get("plan") != plan_key:
            raise ValueError(
                f"merge resume refused: committed part {name_} was written "
                f"under a different merge plan (inputs/deletes changed); "
                f"use a fresh out_dir")

    # survivors per input (newest wins by external doc_id), merged
    # ordinal assignment in (input age, input ordinal) order
    docmaps = [load_docmap(d) for d in input_dirs]
    newer: np.ndarray = np.empty(0, np.int64)     # ext ids seen in newer inputs
    live_masks: list[np.ndarray] = [None] * len(input_dirs)
    for i in range(len(input_dirs) - 1, -1, -1):
        ext = docmaps[i][0]
        if len(newer):
            pos = np.searchsorted(newer, ext)
            pos[pos == len(newer)] = 0
            killed = (newer[pos] == ext) if len(newer) else np.zeros(len(ext), bool)
        else:
            killed = np.zeros(len(ext), bool)
        dpi = deleted_per_input[i] if deleted_per_input else None
        if dpi is not None and len(dpi):
            pos = np.searchsorted(dpi, ext)
            pos[pos == len(dpi)] = 0
            killed |= dpi[pos] == ext
        live_masks[i] = ~killed
        if i:
            newer = np.union1d(newer, ext)

    langmaps = [load_docvalues(d) for d in input_dirs]
    remaps: list[np.ndarray] = []
    merged_ext: list[np.ndarray] = []
    merged_len: list[np.ndarray] = []
    merged_lang: list[np.ndarray] = []
    at = 0
    for (ext, lens), lg, live in zip(docmaps, langmaps, live_masks):
        remap = np.full(len(ext), -1, dtype=np.int64)
        n_live = int(live.sum())
        remap[live] = at + np.arange(n_live, dtype=np.int64)
        at += n_live
        remaps.append(remap)
        merged_ext.append(ext[live])
        merged_len.append(lens[live])
        merged_lang.append(lg[live] if lg is not None
                           else np.full(n_live, None, dtype=object))
    remap_ref = ray.put(remaps)

    # merged docmap: one ordinal-range part (the merged corpus)
    dm_dir = os.path.join(out_dir, "docmap")
    os.makedirs(dm_dir, exist_ok=True)
    ext_all = np.concatenate(merged_ext) if merged_ext else np.empty(0, np.int64)
    len_all = np.concatenate(merged_len) if merged_len else np.empty(0, np.int64)
    lang_all = (np.concatenate(merged_lang) if merged_lang
                else np.empty(0, object))
    dm = pa.table({
        "ord": pa.array(np.arange(len(ext_all), dtype=np.int64)),
        "doc_id": pa.array(ext_all),
        "doclen": pa.array(len_all.astype(np.int64)),
        "lang": pa.array(lang_all.tolist(), pa.string()),
    }, schema=DOCMAP_SCHEMA)
    dm_out = os.path.join(dm_dir, "part-0000.parquet")
    pq.write_table(dm, dm_out + ".tmp", compression="zstd")
    os.replace(dm_out + ".tmp", dm_out)
    if not mf.is_committed(man_dir, "runs-part-0000"):
        mf.commit(man_dir, "runs-part-0000", {
            "part": 0,
            "stage": "runs",
            "input_files": [os.path.relpath(d, out_dir) for d in input_dirs],
            "row_count": int(len(ext_all)),
            "counters": {"docs": int(len(ext_all)),
                         "tokens": int(len_all.sum()),
                         "postings": 0},
            "outputs": [os.path.relpath(dm_out, out_dir)],
        })

    missing = [s for s in range(n_shards)
               if not mf.is_committed(man_dir, f"segment-shard-{s:04d}")]
    refs = [_merge_shard.remote(input_dirs, out_dir, s, cfg.block_size, remap_ref)
            for s in missing]
    for s, payload in zip(missing, ray.get(refs)):
        payload["plan"] = plan_key
        mf.commit(man_dir, f"segment-shard-{s:04d}", payload)
    merged_cfg = IndexConfig(num_term_shards=n_shards, block_size=cfg.block_size,
                             k1=cfg.k1, b=cfg.b)
    return finalize(out_dir, merged_cfg, time.time() - t0)


# --------------------------------------------------------------------------
# Resharding (ES `_split` / `_shrink`): same corpus, different term-shard
# count. Reference context: ES resize APIs rewrite every shard's data
# under a new routing factor; here the analogue re-buckets committed
# term shards under hash(term) % new_shards.
# --------------------------------------------------------------------------

@ray.remote(num_cpus=1)
def _reshard_scatter(in_dir: str, out_dir: str, in_shard: int,
                     new_shards: int) -> dict:
    """Read one input segment shard and split its term rows by the NEW
    shard function into per-(in, out) parquet parts — the scatter half
    of the exchange. Posting buffers are copied verbatim (the ordinal
    space is unchanged), so no decode/re-encode happens anywhere."""
    from ..tokenizer import term_shards

    name = f"shard-{in_shard:04d}.parquet"
    path = os.path.join(in_dir, "segments", name)
    rs_dir = os.path.join(out_dir, "reshard")
    os.makedirs(rs_dir, exist_ok=True)
    outputs: list[str] = []
    n_terms = 0
    if os.path.exists(path):
        t = pq.read_table(path)
        n_terms = t.num_rows
        if t.num_rows:
            # a segment holds each term once: hash the column as is
            tgt = term_shards(t["term"], new_shards)
            for s in np.unique(tgt):
                part = t.filter(pa.array(tgt == s))
                out = os.path.join(
                    rs_dir, f"in{in_shard:04d}-out{int(s):04d}.parquet")
                pq.write_table(part, out + ".tmp", compression="zstd")
                os.replace(out + ".tmp", out)
                outputs.append(os.path.relpath(out, out_dir))
    return {
        "part": in_shard,
        "stage": "reshard-scatter",
        "input_files": [path],
        "counters": {"terms": int(n_terms)},
        "outputs": outputs,
    }


@ray.remote(num_cpus=1)
def _reshard_gather(out_dir: str, shard: int, part_rels: list[str]) -> dict:
    """Concatenate one output shard's scattered parts (term-sorted) and
    commit its segment — the gather half. ``part_rels`` are the scatter
    MANIFESTS' committed outputs for this shard: a missing file is a
    hard error (a silently absent part would become a silently empty
    shard), and the driver re-scatters before retrying."""
    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    parts = []
    for rel in part_rels:
        p = os.path.join(out_dir, rel)
        if not os.path.exists(p):
            raise RuntimeError(
                f"reshard gather: committed scatter output {rel!r} is "
                f"absent from disk — re-scatter before gathering")
        parts.append(pq.read_table(p))
    if parts:
        seg = pa.concat_tables(parts)
        seg = seg.take(pa.compute.sort_indices(seg["term"]))
        seg = seg.cast(SEGMENT_SCHEMA)
    else:
        seg = SEGMENT_SCHEMA.empty_table()
    out = os.path.join(seg_dir, f"shard-{shard:04d}.parquet")
    pq.write_table(seg, out + ".tmp", compression="zstd")
    os.replace(out + ".tmp", out)
    return {
        "part": shard,
        "stage": "segments",
        "input_files": sorted(part_rels),
        "counters": {
            "terms": int(seg.num_rows),
            "postings": int(pa.compute.sum(seg["df"]).as_py() or 0),
            "bytes_written": os.path.getsize(out),
        },
        "outputs": [os.path.relpath(out, out_dir)],
        "content_hash": mf.content_hash([out]),
    }


def reshard_index(in_dir: str, out_dir: str, new_shards: int,
                  cfg: IndexConfig = DEFAULT_CONFIG) -> dict:
    """ES ``_split`` / ``_shrink``: rewrite a committed index under a
    different ``num_term_shards`` — the serving-parallelism lifecycle
    op (grow shards when a corpus outgrows its layout, shrink when a
    merged-down index over-parallelizes reads).

    Pure re-bucketing exchange: scatter tasks split each input shard's
    term rows by the new shard hash; gather tasks concatenate + sort
    each output shard. Posting-list BYTES are untouched — the docmap
    (ordinal space) is copied verbatim — so term stats and query
    results are bit-identical to the input index (pinned in
    tests/test_merge.py). Resumable per scatter/gather part through the
    same manifest machinery as build/merge, with a plan fingerprint
    (input path + shard count): resuming or re-invoking a committed
    out_dir under a different plan refuses."""
    import hashlib as _hl
    import shutil as _sh

    t0 = time.time()
    if new_shards < 1:
        raise ValueError(f"new_shards must be >= 1, got {new_shards}")
    st = index_stats(in_dir)
    n_in = st["num_term_shards"]
    os.makedirs(out_dir, exist_ok=True)
    man_dir = os.path.join(out_dir, "manifests")
    plan_key = _hl.sha256(
        f"{os.path.abspath(in_dir)}|{new_shards}".encode()).hexdigest()[:16]

    def _plan_of(prefix: str) -> set:
        return {m.get("plan")
                for m in mf.load_all(man_dir, prefix=prefix).values()}

    if mf.is_committed(man_dir, "index"):
        if (_plan_of("segment-shard-") | _plan_of("reshard-scatter-")
                | _plan_of("reshard-plan")) - {plan_key}:
            raise ValueError(
                "reshard refused: out_dir holds a COMMITTED reshard of a "
                "different plan (input/shard count changed); use a fresh "
                "out_dir")
        return mf.load(man_dir, "stats")["stats"]
    for prefix in ("segment-shard-", "reshard-scatter-", "reshard-plan",
                   "runs-part-"):
        for name_, m in mf.load_all(man_dir, prefix=prefix).items():
            if m.get("plan") != plan_key:
                raise ValueError(
                    f"reshard resume refused: committed part {name_} was "
                    f"written under a different plan; use a fresh out_dir")
    # the plan manifest commits BEFORE any file lands in out_dir (the
    # docmap copy is the first write): a crash anywhere after it leaves
    # a recorded plan, so a re-invocation with a different in_dir can
    # never silently mix the old input's docmap with new postings
    if not mf.is_committed(man_dir, "reshard-plan"):
        mf.commit(man_dir, "reshard-plan", {
            "part": 0, "stage": "plan",
            "input_files": [os.path.relpath(in_dir, out_dir)],
            "counters": {"new_shards": int(new_shards)},
            "outputs": [], "plan": plan_key,
        })

    # docmap copy (ordinal space unchanged)
    dm_in = os.path.join(in_dir, "docmap")
    dm_out = os.path.join(out_dir, "docmap")
    os.makedirs(dm_out, exist_ok=True)
    for f in sorted(os.listdir(dm_in)):
        dst = os.path.join(dm_out, f)
        if not os.path.exists(dst):
            _sh.copy2(os.path.join(dm_in, f), dst + ".tmp")
            os.replace(dst + ".tmp", dst)
    if not mf.is_committed(man_dir, "runs-part-0000"):
        mf.commit(man_dir, "runs-part-0000", {
            "part": 0,
            "stage": "runs",
            "input_files": [os.path.relpath(in_dir, out_dir)],
            "row_count": int(st["n_docs"]),
            "counters": {"docs": int(st["n_docs"]),
                         "tokens": int(st["total_tokens"]),
                         "postings": 0},
            "outputs": [os.path.relpath(os.path.join(dm_out, f), out_dir)
                        for f in sorted(os.listdir(dm_out))],
            "plan": plan_key,
        })

    missing = [j for j in range(n_in)
               if not mf.is_committed(man_dir, f"reshard-scatter-{j:04d}")]
    # self-heal: a committed scatter whose outputs vanished (the
    # exchange is GC'd at index commit; a crash between gather loss and
    # full commit leaves manifests pointing at deleted files) must
    # re-scatter before any remaining gather reads it
    missing_g = [s for s in range(new_shards)
                 if not mf.is_committed(man_dir, f"segment-shard-{s:04d}")]
    if missing_g:
        for m in mf.load_all(man_dir, prefix="reshard-scatter-").values():
            if any(not os.path.exists(os.path.join(out_dir, rel))
                   for rel in m["outputs"]):
                missing.append(int(m["part"]))
    refs = [_reshard_scatter.remote(in_dir, out_dir, j, new_shards)
            for j in missing]
    for j, payload in zip(missing, ray.get(refs)):
        payload["plan"] = plan_key
        mf.commit(man_dir, f"reshard-scatter-{j:04d}", payload)

    # each gather reads EXACTLY its committed scatter outputs (absent
    # file = hard error in the task, never a silently empty shard)
    by_shard: dict[int, list[str]] = {}
    for m in mf.load_all(man_dir, prefix="reshard-scatter-").values():
        for rel in m["outputs"]:
            s = int(rel.rsplit("-out", 1)[1].split(".")[0])
            by_shard.setdefault(s, []).append(rel)
    refs = [_reshard_gather.remote(out_dir, s, sorted(by_shard.get(s, [])))
            for s in missing_g]
    for s, payload in zip(missing_g, ray.get(refs)):
        payload["plan"] = plan_key
        mf.commit(man_dir, f"segment-shard-{s:04d}", payload)

    out_cfg = IndexConfig(num_term_shards=new_shards,
                          block_size=st["block_size"],
                          k1=st["k1"], b=st["b"])
    stats = finalize(out_dir, out_cfg, time.time() - t0)
    _sh.rmtree(os.path.join(out_dir, "reshard"), ignore_errors=True)
    return stats
