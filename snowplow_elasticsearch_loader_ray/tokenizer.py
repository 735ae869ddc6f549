"""Vectorized tokenization over Arrow batches.

This is the engine's hot per-record transform — the analogue of the
reference's ``transformEnrichedEvent`` parse step
(``modules/core/src/main/scala/.../Processing.scala:152-182``), which is
per-record and embarrassingly parallel. Here the whole batch is
processed with pyarrow C++ kernels and one byte-table translate
(byte table over the data buffer → ``ascii_trim_whitespace`` →
``ascii_split_whitespace`` → ``list_flatten`` + ``list_parent_indices``
→ ``Table.group_by``): no Python loop over rows or tokens, and no regex
engine.

Tokenization rule (fixed; the DuckDB oracle mirrors it exactly as
``list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')``):
lowercase, split on runs of anything outside ``[a-z0-9]``, drop empties.

One byte table does the lowercasing and the split: ``[a-z0-9]`` stays,
``[A-Z]`` becomes its lowercase letter, and every other byte becomes a
space. This is exact for that rule, with Arrow's ``utf8_lower`` as the
lowercase:

- every byte of a multibyte UTF-8 character is >= 0x80, so testing each
  *byte* against ``[a-z0-9A-Z]`` gives the same answer as testing each
  *character*;
- ``utf8_lower`` maps a non-ASCII character to ASCII for only two code
  points: U+0130 → ``i`` and U+212A → ``k`` (checked over every code
  point; ``tests/test_tokenizer.py`` fails loudly if a pyarrow release
  changes that). A buffer holding either one's bytes (``C4 B0``,
  ``E2 84 AA``) is lowered by ``utf8_lower`` first, found by a
  ``memchr`` probe for each lead byte and, only when one occurs, a
  numpy check of the bytes after it. So the cost follows the text:
  without a ``C4`` or ``E2`` byte the probe is two ``memchr`` scans;
  ``E2``-led punctuation (’ “ — …) adds the numpy check, about a fifth
  of the ``utf8_lower`` pass it replaces; a buffer that holds U+0130 or
  U+212A pays for that pass plus the probe, a little more than
  lowercasing every buffer did;
- invalid UTF-8 raises ``ArrowInvalid`` as ``utf8_lower`` would
  (``Array.validate(full=True)``), since the table would otherwise turn
  it into valid spaces.

Mapping every other byte to a space keeps the buffer valid UTF-8 (a
multibyte character becomes as many spaces as it had bytes), and the
offsets and validity are reused, so row boundaries are untouched. A
slice is first copied out of the buffer it shares (a Ray Data batch is
a slice of its block), so the table runs over its own bytes only.
"""

from __future__ import annotations

import hashlib
import string

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: ``bytes.translate`` table: byte → itself for ``[a-z0-9]``, → its
#: lowercase letter for ``[A-Z]``, → space for every other byte
_TOKEN_BYTES = bytes(ord(chr(c).lower()) if chr(c) in string.ascii_letters
                     + string.digits else ord(" ") for c in range(256))


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


def _lowers_to_ascii(data: bytes) -> bool:
    """Whether UTF-8 ``data`` holds U+0130 (``C4 B0``) or U+212A
    (``E2 84 AA``), the two code points ``utf8_lower`` maps to ASCII.
    A ``memchr`` scan for each lead byte settles the common case; only a
    lead byte that occurs gets the numpy check of the bytes after it."""
    b = np.frombuffer(data, dtype=np.uint8)
    if data.find(b"\xc4") >= 0:
        c4 = np.flatnonzero(b[:-1] == 0xC4)
        if (b[c4 + 1] == 0xB0).any():
            return True
    if data.find(b"\xe2") >= 0:
        e2 = np.flatnonzero(b[:-2] == 0xE2)
        return bool(((b[e2 + 1] == 0x84) & (b[e2 + 2] == 0xAA)).any())
    return False


def _blank_separators(texts: pa.Array) -> pa.Array:
    """Lowercase a string array and blank its separators: every byte of
    its data buffer goes through ``_TOKEN_BYTES``; validity, offsets and
    array offset are reused. Raises ``ArrowInvalid`` on invalid UTF-8."""
    if not (pa.types.is_string(texts.type)
            or pa.types.is_large_string(texts.type)):
        texts = pc.utf8_lower(texts)    # raises for types it has no kernel for
    validity, offsets, data = texts.buffers()
    if data is None or data.size == 0:
        return texts
    width = np.int64 if pa.types.is_large_string(texts.type) else np.int32
    offs = np.frombuffer(offsets, dtype=width)
    if (offs[texts.offset] != 0
            or offs[texts.offset + len(texts)] != data.size):
        # a slice (say a Ray Data batch of a larger block) shares the
        # block's data buffer: copy out its own bytes, or every batch
        # would translate the whole block
        texts = pa.concat_arrays([texts])
        validity, offsets, data = texts.buffers()
        if data is None or data.size == 0:
            return texts
    raw = data.to_pybytes()
    if _lowers_to_ascii(raw):
        texts = pc.utf8_lower(texts)
        validity, offsets, data = texts.buffers()
        raw = data.to_pybytes()
    else:
        texts.validate(full=True)
    return pa.Array.from_buffers(
        texts.type, len(texts),
        [validity, offsets, pa.py_buffer(raw.translate(_TOKEN_BYTES))],
        null_count=texts.null_count, offset=texts.offset)


def tokenize_to_terms(texts: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, pa.Array]:
    """texts → (flat term array, parent row index array), empties dropped."""
    if isinstance(texts, pa.ChunkedArray):
        blanked = pa.chunked_array(
            [_blank_separators(c) for c in texts.chunks], texts.type)
    else:
        blanked = _blank_separators(texts)
    # after the table every separator is a space: a trimmed row splits
    # into no empty token unless nothing is left of it
    trimmed = pc.ascii_trim_whitespace(blanked)
    toks = pc.ascii_split_whitespace(trimmed)
    flat = pc.list_flatten(toks)
    idx = pc.list_parent_indices(toks)
    if pc.any(pc.equal(pc.binary_length(trimmed), 0)).as_py():
        mask = pc.not_equal(flat, "")
        flat, idx = flat.filter(mask), idx.filter(mask)
    return flat, idx


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
