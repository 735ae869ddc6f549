"""Per-shard segment encoding: sorted runs → compressed posting lists.

The from-scratch replacement for what the reference delegates to
Elasticsearch's bulk-index write (``ElasticsearchSink.scala:45-109``,
SURVEY.md W1): all run rows of one term shard are merged, sorted by
(term, doc ordinal) and encoded into delta/frame-of-reference posting blocks
with block-max metadata (codec.py). df and cf per term are the grouped
aggregates the reference's operator inventory calls out as engine-added
(SURVEY.md §2 notes).

One call encodes a whole group of shards (one phase-2 task's share)
with one sort: the shard exchange already happened via the
shard-clustered run files, so groups are an embarrassingly parallel
map (no second all-to-all).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import encode_postings_batch

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("postings", pa.binary()),
    ]
)


def encode_shard_tables(runs: pa.Table, shards: list[int],
                        block_size: int = 128) -> list[pa.Table]:
    """Run rows of several shards → one segment table (term, df, cf,
    postings) per entry of ``shards``, in one pass over ``runs``.

    ``runs`` holds (shard, term, ord, tf) rows; without a ``shard``
    column every row belongs to the one shard asked for. Rows of shards
    not asked for (the docmap rows, shard -1, and the inline build's
    already committed shards) are sorted with the rest but never cut.

    Posting lists key on the dense doc ORDINAL (the docBase design —
    see stages/postings.py): delta gaps average n_docs/df instead of
    2^63/n, so the codec's byte-width classes actually engage.
    Requires globally-unique (term, ord) pairs, which the build
    guarantees: every doc is tokenized in exactly one batch and the
    per-batch combiner already collapsed duplicates.

    Rows must arrive with ords increasing within each (shard, term).
    The build delivers them that way: each chunk's postings are ordered
    by ord within a term, chunks follow ordinal order inside a run
    file, run files are contiguous ordinal ranges scanned in ordinal
    order (integer part number, then file index), and filters keep row
    order. So only the keys need ordering: the term column is
    dictionary-encoded once (chunk dictionaries unified), the
    vocabulary ranked by ``pc.sort_indices`` (UTF-8 byte order, which
    equals code-point order), and the rows put in ``shard * n_vocab +
    rank`` order by ONE stable integer argsort that keeps the arrival
    (= ord) order inside each term. Each shard's lists are then the
    slice between its two ``searchsorted`` bounds. A broken arrival
    order is not silently re-sorted: the codec's strictly-increasing
    check raises ``ValueError``.

    Each ``postings_chunk`` output already arrives in that key order
    (shard, then term bytes), so the argsort only merges presorted
    runs, one per chunk: numpy's stable sort of int64 keys is timsort,
    which finds the runs and merges them. Rows in any other order (a
    run file written before chunks were term-ordered) still sort
    correctly, only slower.
    """
    has_shard = "shard" in runs.column_names
    if not has_shard and len(shards) != 1:
        raise ValueError("rows without a shard column encode one shard")
    if runs.num_rows == 0 or not shards:
        return [SEGMENT_SCHEMA.empty_table() for _ in shards]
    term_col = runs["term"]
    if isinstance(term_col, pa.ChunkedArray):
        term_col = term_col.combine_chunks()   # unifies chunk dictionaries
    # the build reads the term column dictionary-encoded straight from
    # parquet (dictionary pages), so this is usually a no-op view
    enc = (term_col if pa.types.is_dictionary(term_col.type)
           else term_col.dictionary_encode())
    vocab_order = pc.sort_indices(enc.dictionary).to_numpy()
    n_vocab = len(vocab_order)
    rank = np.empty(n_vocab, dtype=np.int64)
    rank[vocab_order] = np.arange(n_vocab)
    keys = rank[enc.indices.to_numpy(zero_copy_only=False)]
    if has_shard:
        keys += runs["shard"].to_numpy().astype(np.int64) * n_vocab
        bases = np.asarray(shards, dtype=np.int64) * n_vocab
    else:
        bases = np.zeros(1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    los = np.searchsorted(keys, bases)
    his = np.searchsorted(keys, bases + n_vocab)
    ords = runs["ord"].to_numpy()
    tfs = runs["tf"].to_numpy()

    out = []
    for base, lo, hi in zip(bases.tolist(), los.tolist(), his.tolist()):
        if lo == hi:
            out.append(SEGMENT_SCHEMA.empty_table())
            continue
        k, rows = keys[lo:hi], order[lo:hi]
        change = np.nonzero(k[1:] != k[:-1])[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(k)]))
        terms = enc.dictionary.take(vocab_order[k[starts] - base])
        out.append(segment_table(terms, ords[rows], tfs[rows], starts, ends,
                                 block_size))
    return out


def encode_shard_table(runs: pa.Table, block_size: int = 128) -> pa.Table:
    """All run rows (term, ord, tf) of one shard → its segment table:
    ``encode_shard_tables`` for a single shard."""
    return encode_shard_tables(runs.select(["term", "ord", "tf"]), [0],
                               block_size)[0]


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
