"""sha1 of every index artifact the write path produces, for a
before/after identity check of a write-path change.

Run: python scripts/artifact_sha1.py <package-root> <out-dir>

``<package-root>`` is the checkout whose package is imported (the
directory that holds ``snowplow_elasticsearch_loader_ray/``), so the
same script drives a parent copy and the working tree. ``<out-dir>``
must be absent or empty; every artifact family is built under it:

- ``dist``: distributed ``build_index`` (default phase-2 grouping);
- ``dist_parts3``: distributed ``build_index`` with ``num_parts=3``;
- ``inline``: the in-process build (``inline_build_max_docs``);
- ``live``: ``LiveIndex.bootstrap``, one delta ``refresh``,
  ``compact(force=True)`` and one ``update_by_query``;
- ``merge``: ``merge_indexes`` of ``dist`` and an upsert delta index;
- ``reshard``: ``reshard_index`` of ``dist`` to 8 shards;
- ``positions``: ``build_positions``.

Prints one JSON object, ``{"<family>/<path>": sha1}``, for every file
under a ``segments/``, ``docmap/`` or ``positions/`` directory (manifests
and ``runs/`` carry wall times and intermediates, so they are left out),
and one entry per live generation's ``_delta_docs`` (the stored source):
the sha1 of its rows sorted by doc_id, so the hash does not depend on
how the rows are split into files or what the files are called.
Two checkouts produce the same artifacts when their outputs are equal:

    diff <(python scripts/artifact_sha1.py $PARENT /tmp/a) \\
         <(python scripts/artifact_sha1.py . /tmp/b)

The corpus is 2,400 synthetic pages in 6 files, read in 256-row chunks,
so each run file holds several chunks and every chunk after the first
extends its file's vocabulary with a dictionary delta; the 4,096-row
``run_row_group_size`` shapes the positions build's run files, whose row
groups straddle shards. About ten seconds on one CPU.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

FAMILY_DIRS = {"segments", "docmap", "positions"}
SKIP_DIRS = {"runs", "manifests"}


def artifact_hashes(root: str) -> dict[str, str]:
    """``{relpath: sha1}`` of every file under a ``FAMILY_DIRS``
    directory below ``root``."""
    out = {}
    for d, subdirs, files in os.walk(root):
        subdirs[:] = sorted(s for s in subdirs if s not in SKIP_DIRS
                            and not s.startswith("_tmp"))
        rel = os.path.relpath(d, root)
        if not FAMILY_DIRS & set(rel.split(os.sep)):
            continue
        for f in sorted(files):
            if f.endswith(".tmp"):
                continue
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.join(rel, f)] = hashlib.sha1(fh.read()).hexdigest()
    return out


def delta_docs_hashes(root: str) -> dict[str, str]:
    """``{<gen>/_delta_docs: sha1}`` of each generation's stored-source
    rows (doc_id, text, lang) below a live index ``root``, sorted by
    doc_id."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = {}
    for gen in sorted(os.listdir(root)):
        d = os.path.join(root, gen, "_delta_docs")
        if not os.path.isdir(d):
            continue
        t = pa.concat_tables(
            pq.read_table(os.path.join(d, f), columns=["doc_id", "text", "lang"])
            .cast(pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                             ("lang", pa.string())]))
            for f in sorted(os.listdir(d)) if f.endswith(".parquet"))
        t = t.sort_by("doc_id")
        rows = json.dumps([t[c].to_pylist() for c in t.column_names])
        out[os.path.join(gen, "_delta_docs")] = hashlib.sha1(
            rows.encode()).hexdigest()
    return out


def live_family_hashes(root: str) -> dict[str, str]:
    """Index artifacts and stored-source rows of a live index's current
    generations (generation names are never reused)."""
    return {**artifact_hashes(root), **delta_docs_hashes(root)}


def main(package_root: str, out: str) -> None:
    root = os.path.abspath(package_root)
    out = os.path.abspath(out)
    sys.path.insert(0, root)
    # Ray workers import the package too: they inherit this environment,
    # and put the driver's working directory first on their path, so the
    # driver runs from the package root (from another checkout's root,
    # the workers would import that checkout's package)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.chdir(root)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import build as B
    from snowplow_elasticsearch_loader_ray.pipelines.live import LiveIndex
    from snowplow_elasticsearch_loader_ray.pipelines.merge import (
        merge_indexes, reshard_index)
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        build_positions)
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest
    from snowplow_elasticsearch_loader_ray.sources.synth import generate_pages

    if os.path.exists(out) and os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
    cfg = IndexConfig(batch_size=256, run_row_group_size=4096)
    dist_cfg = IndexConfig(batch_size=256, run_row_group_size=4096,
                           inline_build_max_docs=0)
    try:
        generate_pages(f"{out}/pages", n_rows=2400, n_parts=6)
        B.ingest_pages(f"{out}/pages", f"{out}/ingest", cfg)
        docs = B.good_docs_dir(f"{out}/ingest")
        B.build_index(docs, f"{out}/dist", dist_cfg)
        B.build_index(docs, f"{out}/dist_parts3", dist_cfg, num_parts=3)
        B.build_index(docs, f"{out}/inline", cfg)
        build_positions(docs, f"{out}/positions", cfg)
        reshard_index(f"{out}/dist", f"{out}/reshard", 8, cfg)

        # an upsert delta: 200 re-sent ids with reversed text, 100 new ids
        first = pq.read_table(os.path.join(docs, sorted(os.listdir(docs))[0]),
                              columns=["doc_id", "text"])
        ids = first["doc_id"].to_numpy()[:200]
        texts = [" ".join(t.split()[::-1])
                 for t in first["text"].to_pylist()[:200]]
        new_ids = np.arange(10**15, 10**15 + 100, dtype=np.int64)
        new_texts = [f"fresh delta document {i} merge stream"
                     for i in range(100)]
        os.makedirs(f"{out}/delta_docs")
        pq.write_table(pa.table({
            "doc_id": pa.array(np.concatenate([ids, new_ids]), pa.int64()),
            "text": pa.array(texts + new_texts, pa.string())}),
            f"{out}/delta_docs/part-0000.parquet")
        B.build_index(f"{out}/delta_docs", f"{out}/delta", cfg)
        merge_indexes([f"{out}/dist", f"{out}/delta"], f"{out}/merge", cfg)

        live = LiveIndex(f"{out}/live", cfg)
        live.bootstrap(docs)
        stream_ingest(iter(
            json.dumps({"doc_id": int(i), "text": t}).encode()
            for i, t in zip(np.concatenate([ids, new_ids]).tolist(),
                            texts + new_texts)),
            f"{out}/stream", purpose="json", cfg=cfg)
        live.refresh(f"{out}/stream")
        # compaction deletes the generations it merges: hash them first
        live_hashes = live_family_hashes(f"{out}/live")
        live.compact(force=True)
        live.update_by_query("babahe bagaso", lambda t: t + " updated")
        live_hashes.update(live_family_hashes(f"{out}/live"))
    finally:
        ray.shutdown()

    hashes = {f"live/{rel}": h for rel, h in live_hashes.items()}
    for family in ("dist", "dist_parts3", "inline", "merge", "reshard",
                   "positions"):
        for rel, h in artifact_hashes(os.path.join(out, family)).items():
            hashes[f"{family}/{rel}"] = h
    print(json.dumps(hashes, indent=1, sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
