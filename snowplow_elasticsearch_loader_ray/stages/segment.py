"""Per-shard segment encoding: sorted runs → compressed posting lists.

The from-scratch replacement for what the reference delegates to
Elasticsearch's bulk-index write (``ElasticsearchSink.scala:45-109``,
SURVEY.md W1): all run rows of one term shard are merged, sorted by
(term, doc_id) and encoded into delta/frame-of-reference posting blocks
with block-max metadata (codec.py). df and cf per term are the grouped
aggregates the reference's operator inventory calls out as engine-added
(SURVEY.md §2 notes).

Runs on one shard's data at a time — the shard exchange already
happened via the hive-partitioned run write, so this is an
embarrassingly parallel per-shard map (no second all-to-all).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codec import encode_postings_batch

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("postings", pa.binary()),
    ]
)


def encode_shard_table(runs: pa.Table, block_size: int = 128) -> pa.Table:
    """All run rows of one shard → one segment table (term, df, cf, postings).

    Posting lists key on the dense doc ORDINAL (the docBase design —
    see stages/postings.py): delta gaps average n_docs/df instead of
    2^63/n, so the codec's byte-width classes actually engage.
    Requires globally-unique (term, ord) pairs, which the build
    guarantees: every doc is tokenized in exactly one batch and the
    per-batch combiner already collapsed duplicates.

    The (term, doc_id) sort runs on integer keys: the term column is
    dictionary-encoded once and rows are ordered by (term rank, ord)
    with ``np.lexsort`` — the vocabulary is tiny next to the posting
    count, so ranking ~10^2..10^5 strings then radix-sorting ~10^6..10^8
    ints beats a full string sort of every run row. The output term
    order is byte-ascending, identical to the previous arrow string
    sort (tokens are [a-z0-9], and UTF-8 byte order equals code-point
    order regardless).
    """
    if runs.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    term_col = runs["term"]
    if isinstance(term_col, pa.ChunkedArray):
        term_col = term_col.combine_chunks()
    # the build reads the term column dictionary-encoded straight from
    # parquet (dictionary pages), so this is usually a no-op view
    enc = (term_col if pa.types.is_dictionary(term_col.type)
           else term_col.dictionary_encode())
    vocab = enc.dictionary.to_numpy(zero_copy_only=False)
    dict_idx = enc.indices.to_numpy(zero_copy_only=False)
    doc_ids = runs["ord"].to_numpy(zero_copy_only=False)
    tfs = runs["tf"].to_numpy(zero_copy_only=False)

    vocab_order = np.argsort(vocab)                 # term-string rank, small
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[vocab_order] = np.arange(len(vocab))
    kd = rank[dict_idx]
    order = np.lexsort((doc_ids, kd))               # integer-key row sort
    keys = kd[order]
    doc_ids = np.ascontiguousarray(doc_ids[order])
    tfs = np.ascontiguousarray(tfs[order])

    change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(keys)]))
    sorted_vocab = vocab[vocab_order]

    return segment_table(sorted_vocab[keys[starts]], doc_ids, tfs, starts,
                         ends, block_size)


def segment_table(terms, doc_ids: np.ndarray, tfs: np.ndarray,
                  starts: np.ndarray, ends: np.ndarray,
                  block_size: int) -> pa.Table:
    """Segment rows over back-to-back posting lists: ``terms[i]`` owns
    ``doc_ids[starts[i]:ends[i]]`` and its tfs. The whole shard encodes
    in one batched pass (``codec.encode_postings_batch``)."""
    tfs = np.asarray(tfs, dtype=np.int64)
    return pa.table({
        "term": pa.array(terms, type=pa.string()),
        "df": pa.array(ends - starts, type=pa.int64()),
        "cf": pa.array(np.add.reduceat(tfs, starts), type=pa.int64()),
        "postings": _postings_column(
            *encode_postings_batch(doc_ids, tfs, starts, ends, block_size)),
    }, schema=SEGMENT_SCHEMA)


def _postings_column(buf: np.ndarray, offsets: np.ndarray) -> pa.ChunkedArray:
    """The ``postings`` column over one batched-encode output, zero-copy:
    ``buf`` becomes the Arrow data buffer and ``offsets`` its value
    offsets. ``pa.binary()`` offsets are int32, so a shard past 2 GiB
    of postings splits into several chunks."""
    chunks = []
    lo = 0
    while lo < len(offsets) - 1:
        hi = int(np.searchsorted(offsets, offsets[lo] + (1 << 31) - 1,
                                 side="right")) - 1
        hi = max(hi, lo + 1)
        base = int(offsets[lo])
        if int(offsets[hi]) - base >= 1 << 31:
            raise ValueError("one posting list exceeds 2 GiB; increase "
                             "num_term_shards for this corpus")
        offs = (offsets[lo:hi + 1] - base).astype(np.int32)
        chunks.append(pa.Array.from_buffers(
            pa.binary(), hi - lo,
            [None, pa.py_buffer(offs), pa.py_buffer(buf[base:int(offsets[hi])])]))
        lo = hi
    return pa.chunked_array(chunks, type=pa.binary())
