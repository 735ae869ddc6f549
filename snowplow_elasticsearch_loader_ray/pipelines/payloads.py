"""Raw-payload ingest: the reference's Json / Bad purposes end-to-end.

The loader's non-enriched purposes consume opaque payload bytes from the
stream and either validate-and-pass-through JSON (``transformJson``,
``Processing.scala:118-132``) or normalize bad-row self-describing JSON
(``transformBadRow`` + ``BadRowTransformer``, ``Processing.scala:134-150``).
The file-based analogue here reads newline-delimited JSON (one payload
per line — the Kinesis-record stand-in), optionally decompresses
gzip/zstd payload columns, dispatches per the configured purpose, and
lands good records / dead letters in one partitioned write, committed
through the same manifest machinery as the page ingest.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import ray

from .. import _raydata  # noqa: F401 (thread-safe path probe)
from ..config import IndexConfig, DEFAULT_CONFIG
from ..stages.transforms import DecompressPayloads, PurposeTransform
from ..state import manifest as mf
from .build import _footer_rows


def read_jsonl_payloads(paths: str | list[str]) -> ray.data.Dataset:
    """Payload source → Dataset with a ``payload: binary`` column.

    NDJSON files yield one payload per line (the Kinesis-record
    stand-in); ``.parquet`` inputs are read directly and must already
    carry a ``payload: binary`` column (e.g. compressed payloads).
    """
    if isinstance(paths, str) and os.path.isdir(paths):
        paths = sorted(glob.glob(os.path.join(paths, "*")))
    first = paths if isinstance(paths, str) else paths[0]
    if str(first).endswith(".parquet"):
        return ray.data.read_parquet(paths, columns=["payload"])
    ds = ray.data.read_text(paths)

    def to_payload(batch: pa.Table) -> pa.Table:
        return pa.table({
            "payload": pa.compute.cast(batch["text"], pa.binary()),
        })

    return ds.map_batches(to_payload, batch_format="pyarrow")


def ingest_payloads(paths: str | list[str], out_dir: str, purpose: str = "json",
                    cfg: IndexConfig = DEFAULT_CONFIG,
                    decompress: bool = False) -> dict:
    """payloads → good records / dead letters, one pass; returns counters.

    Layout mirrors ``ingest_pages``: ``out_dir/records/status=good``
    holds ``(record: string)``; error statuses hold the error + base64
    payload. ``decompress=True`` inserts the magic-byte decompression
    stage first (S2); its failures land as ``status=decompress_error``.
    """
    man_dir = os.path.join(out_dir, "manifests")
    rec_dir = os.path.join(out_dir, "records")
    if mf.is_committed(man_dir, "ingest"):
        return mf.load(man_dir, "ingest")["counters"]
    t0 = time.time()
    ds = read_jsonl_payloads(paths)
    if decompress:
        ds = ds.map_batches(DecompressPayloads(max_bytes=cfg.max_record_bytes),
                            batch_format="pyarrow")

        def route(batch: pa.Table) -> pa.Table:
            good = batch.filter(pa.compute.equal(batch["status"], "good"))
            bad = batch.filter(pa.compute.not_equal(batch["status"], "good"))
            out = PurposeTransform(purpose)(good)
            if bad.num_rows:
                import base64

                bad_rows = pa.table({
                    "status": bad["status"],
                    "record": pa.nulls(bad.num_rows, pa.string()),
                    "error": bad["error"],
                    "payload_b64": pa.array(
                        [base64.b64encode(p or b"").decode("ascii")
                         for p in bad["payload"].to_pylist()], pa.string()),
                }, schema=out.schema)
                out = pa.concat_tables([out, bad_rows])
            return out

        ds = ds.map_batches(route, batch_format="pyarrow")
    else:
        ds = ds.map_batches(PurposeTransform(purpose), batch_format="pyarrow")

    tmp = os.path.join(out_dir, "_tmp_records")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp, partition_cols=["status"])
    if os.path.exists(rec_dir):
        shutil.rmtree(rec_dir)
    mf.commit_dir_rename(tmp, rec_dir)

    counters: dict[str, int] = {}
    for d in sorted(glob.glob(os.path.join(rec_dir, "status=*"))):
        status = os.path.basename(d).split("=", 1)[1]
        counters[status] = _footer_rows(glob.glob(os.path.join(d, "*.parquet")))
    counters.setdefault("good", 0)
    mf.commit(man_dir, "ingest", {
        "stage": "ingest",
        "purpose": purpose,
        "counters": counters,
        "wall_s": round(time.time() - t0, 3),
    })
    return counters
