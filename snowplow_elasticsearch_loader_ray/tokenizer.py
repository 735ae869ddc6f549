"""Vectorized tokenization over Arrow batches.

This is the engine's hot per-record transform — the analogue of the
reference's ``transformEnrichedEvent`` parse step
(``modules/core/src/main/scala/.../Processing.scala:152-182``), which is
per-record and embarrassingly parallel. Here the whole batch is
processed with pyarrow C++ kernels and one numpy byte-table lookup
(``utf8_lower`` → byte table over the data buffer →
``ascii_split_whitespace`` → ``list_flatten`` + ``list_parent_indices``
→ ``Table.group_by``): no Python loop over rows or tokens, and no
regex engine.

Tokenization rule (fixed; the DuckDB oracle mirrors it exactly as
``list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')``):
lowercase, split on runs of anything outside ``[a-z0-9]``, drop empties.

The byte table is exact for that rule: after lowercasing, every byte of
a multibyte UTF-8 character is >= 0x80, so testing each *byte* against
``[a-z0-9]`` gives the same answer as testing each *character*. Mapping
every other byte to a space keeps the buffer valid UTF-8 (a multibyte
character becomes as many spaces as it had bytes), and the offsets and
validity are reused, so row boundaries are untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: byte → itself for ``[a-z0-9]``, → space for every other byte
_TOKEN_BYTES = np.full(256, ord(" "), dtype=np.uint8)
for _c in b"abcdefghijklmnopqrstuvwxyz0123456789":
    _TOKEN_BYTES[_c] = _c


def term_shard_one(term: str, num_shards: int) -> int:
    """Deterministic shard for a term: blake2b-64(term) % num_shards.

    Used by both the build shuffle key and the query-time segment lookup;
    plays the ES index-routing role (``ElasticsearchSink.scala:90-94``).
    """
    h = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "little") % num_shards


def doc_shard(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Balanced shard for per-doc payloads (doclen pseudo-postings).

    Splitmix64-style integer mix so dense doc_ids don't all collide into
    ``doc_id % num_shards`` striping artifacts.
    """
    x = doc_ids.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(num_shards)).astype(np.int32)


def term_shards(terms: pa.Array | pa.ChunkedArray, num_shards: int) -> np.ndarray:
    """``term_shard_one`` for every entry of a (large_)string array.

    Hashes ``bytes`` slices of the Arrow data buffer at the array's
    offsets, so no Python ``str`` is made per term; the digests are
    joined and reduced in numpy. Callers pass a vocabulary (unique
    terms): the cost is one blake2b call per entry."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    _validity, offsets, data = terms.buffers()
    width = np.int64 if pa.types.is_large_string(terms.type) else np.int32
    offs = np.frombuffer(offsets, dtype=width)[
        terms.offset:terms.offset + len(terms) + 1].tolist()
    buf = memoryview(data) if data is not None else b""
    blake2b = hashlib.blake2b
    digests = b"".join([blake2b(buf[s:e], digest_size=8).digest()
                        for s, e in zip(offs[:-1], offs[1:])])
    h = np.frombuffer(digests, dtype="<u8")
    return (h % np.uint64(num_shards)).astype(np.int32)


def _blank_separators(lowered: pa.Array) -> pa.Array:
    """Map every byte of a string array's data buffer through
    ``_TOKEN_BYTES``; validity, offsets and array offset are reused."""
    validity, offsets, data = lowered.buffers()
    if data is None or data.size == 0:
        return lowered
    mapped = _TOKEN_BYTES[np.frombuffer(data, dtype=np.uint8)]
    return pa.Array.from_buffers(
        lowered.type, len(lowered),
        [validity, offsets, pa.py_buffer(mapped)],
        null_count=lowered.null_count, offset=lowered.offset)


def tokenize_to_terms(texts: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, pa.Array]:
    """texts → (flat term array, parent row index array), empties dropped."""
    lowered = pc.utf8_lower(texts)
    if isinstance(lowered, pa.ChunkedArray):
        blanked = pa.chunked_array(
            [_blank_separators(c) for c in lowered.chunks], lowered.type)
    else:
        blanked = _blank_separators(lowered)
    toks = pc.ascii_split_whitespace(blanked)
    flat = pc.list_flatten(toks)
    idx = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), idx.filter(mask)


def doc_term_frequencies(
    doc_ids: np.ndarray, texts: pa.Array | pa.ChunkedArray
) -> tuple[pa.Table, np.ndarray]:
    """One batch of docs → (tf table, doclen array).

    Returns a table ``(term: string, doc_id: int64, tf: int32)`` with one
    row per distinct (doc, term), and an int32 ``doclen`` per input row
    (0 for token-less docs — they still count toward N / avgdl).
    """
    n_docs = len(doc_ids)
    flat, idx = tokenize_to_terms(texts)
    idx_np = idx.to_numpy(zero_copy_only=False)
    doclen = np.bincount(idx_np, minlength=n_docs).astype(np.int32)

    pairs = pa.table({"i": idx, "term": flat})
    tf = pairs.group_by(["i", "term"]).aggregate([("term", "count")])
    i_np = tf["i"].to_numpy(zero_copy_only=False)
    out = pa.table(
        {
            "term": tf["term"],
            "doc_id": pa.array(doc_ids[i_np], type=pa.int64()),
            "tf": pc.cast(tf["term_count"], pa.int32()),
        }
    )
    return out, doclen


def token_counts(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row token count (the ``doclen`` scalar), vectorized — one
    rule, shared with every other tokenizing path (the tokenization
    rule is the engine's oracle-mirrored invariant)."""
    _flat, idx = tokenize_to_terms(texts)
    idx_np = idx.to_numpy(zero_copy_only=False)
    return np.bincount(idx_np, minlength=len(texts)).astype(np.int64)
