"""HTML→text extraction with a dead-letter channel.

The engine analogue of the reference's per-record transform dispatcher +
enriched-event transform (``parseAndTransform`` / ``transformEnrichedEvent``,
``modules/core/src/main/scala/.../Processing.scala:86-116,152-182``): each
input row independently becomes either a good document record or a bad
row — never a task failure (a poisoned row must never fail a task; the
reference's permanent-vs-transient split, ``ElasticsearchSink.scala:145-198``).

Output is a single tagged table (``status`` = ``good`` | error type)
so one streaming pass feeds both sinks; the ingest pipeline writes it
``partition_cols=["status"]`` which lands good docs and dead letters in
separate directories without a second pass over the corpus.

Extraction is vectorized over the whole column: tag-block stripping runs
as pyarrow re2 kernels, and content capture ("the first ``<p>``, then
the first ``</p>`` after it") as two literal ``split_pattern`` kernels
with ``max_splits=1`` — no regex engine. The only per-row Python work
is UTF-8 validation (C-speed ``bytes.decode``) and doc_id hashing.

Byte-identity invariant: for every good row, ``extract(html) == text``
byte-for-byte (the analogue of the reference's lossy-JSON golden
fidelity, ``TransformEnrichedEventSpec.scala:41-95``).
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig, DEFAULT_CONFIG
from ..sources.synth import hash_url64

#: boilerplate blocks dropped before content capture (re2 has no
#: backreferences, so one pattern per tag)
_STRIP_TAGS = ("script", "style", "nav", "footer")

GOOD = "good"
E_EXTRACT = "extract_error"
E_SIZE = "size_violation"
E_SCHEMA = "schema_violation"

OUT_SCHEMA = pa.schema(
    [
        ("status", pa.string()),
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("lang", pa.string()),
        ("text", pa.string()),
        ("doclen_bytes", pa.int64()),
        # dead-letter columns (null on good rows) — fixed Arrow schema is
        # the engine's answer to the reference's type-conflict
        # normalization (BadRowTransformer.scala:28-72)
        ("error", pa.string()),
        ("payload_b64", pa.string()),
    ]
)


def _split_once(strings: pa.Array, sep: str, keep: int) -> pa.Array:
    """Part ``keep`` (0 = before, 1 = after) of each string split at the
    first ``sep``; null where ``sep`` does not occur (or the input is
    null)."""
    parts = pc.split_pattern(strings, pattern=sep, max_splits=1)
    lens = pc.fill_null(pc.list_value_length(parts), 0).to_numpy(
        zero_copy_only=False)
    starts = np.cumsum(lens) - lens
    pick = pa.array(starts + keep, mask=lens != 2)
    return pc.take(pc.list_flatten(parts), pick)


def capture_content(html: pa.Array) -> pa.Array:
    r"""Text between the first ``<p>`` and the first ``</p>`` after it;
    null where there is no such pair. Same output as
    ``extract_regex(r"<p>(?P<text>[\s\S]*?)</p>")``: the leftmost
    ``<p>`` has a ``</p>`` after it whenever any ``<p>`` does."""
    return _split_once(_split_once(html, "<p>", 1), "</p>", 0)


class ExtractTransform:
    """Actor-pool/ task ``map_batches`` stage: pages → tagged doc rows."""

    def __init__(self, cfg: IndexConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        html = batch["html"].combine_chunks() if isinstance(batch["html"], pa.ChunkedArray) else batch["html"]

        # 1. UTF-8 validation (the decompress/parse failure channel,
        #    Processing.scala:125-131): per-row C-speed decode.
        decoded: list[str | None] = [None] * n
        valid = np.zeros(n, dtype=bool)
        buf = html.to_pylist()
        for j, b in enumerate(buf):
            if b is None:
                continue
            try:
                decoded[j] = b.decode("utf-8", errors="strict")
                valid[j] = True
            except UnicodeDecodeError:
                pass

        # 2. vectorized extraction over the valid rows
        html_str = pa.array([d if d is not None else "" for d in decoded], type=pa.string())
        for tag in _STRIP_TAGS:
            html_str = pc.replace_substring_regex(
                html_str, pattern=rf"<{tag}[\s\S]*?</{tag}>", replacement=""
            )
        content = capture_content(html_str)
        content = pc.replace_substring(content, pattern="&lt;", replacement="<")
        content = pc.replace_substring(content, pattern="&gt;", replacement=">")
        content = pc.replace_substring(content, pattern="&amp;", replacement="&")
        has_content = pc.is_valid(content).to_numpy(zero_copy_only=False) & valid
        text_bytes = pc.binary_length(pc.cast(
            pc.fill_null(content, ""), pa.binary())).to_numpy(zero_copy_only=False)

        # 3. classification — precedence: malformed > oversized > schema
        #    (D1 size guard: Processing.scala:251-267, BadRowsSerializer.scala:24-44;
        #    schema check plays the type-incompatible IT case, EnrichedSpec.scala:97-104)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        ts_valid = pc.is_valid(batch["warc_ts"]).to_numpy(zero_copy_only=False)
        status = np.full(n, GOOD, dtype=object)
        status[~has_content] = E_EXTRACT
        over = has_content & (text_bytes > self.cfg.max_record_bytes)
        status[over] = E_SIZE
        schema_bad = has_content & ~over & (
            ~ts_valid | (lang == "") | np.array([v is None for v in lang])
        )
        status[schema_bad] = E_SCHEMA

        good = status == GOOD
        urls = batch["url"].to_pylist()
        doc_ids = np.fromiter((hash_url64(u) for u in urls), dtype=np.int64, count=n)

        # 4. dead-letter payloads: base64 of the (truncated) original
        #    payload, mirroring Processing.scala:206-207 + the
        #    maxRecordSize truncation
        errors: list[str | None] = [None] * n
        payloads: list[str | None] = [None] * n
        cap = self.cfg.max_record_bytes
        for j in np.nonzero(~good)[0]:
            s = status[j]
            if s == E_EXTRACT:
                errors[j] = "invalid utf-8 or no extractable content"
            elif s == E_SIZE:
                errors[j] = f"extracted text {text_bytes[j]} B exceeds max_record_bytes {cap}"
            else:
                errors[j] = "null warc_ts or empty lang"
            raw = buf[j] if buf[j] is not None else b""
            payloads[j] = base64.b64encode(raw[:1024]).decode("ascii")

        text_out = pc.if_else(pa.array(good), pc.fill_null(content, ""), pa.scalar(None, pa.string()))
        return pa.table(
            {
                "status": pa.array(status, type=pa.string()),
                "doc_id": pa.array(doc_ids),
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "lang": batch["lang"],
                "text": text_out,
                "doclen_bytes": pa.array(text_bytes, type=pa.int64()),
                "error": pa.array(errors, type=pa.string()),
                "payload_b64": pa.array(payloads, type=pa.string()),
            },
            schema=OUT_SCHEMA,
        )
