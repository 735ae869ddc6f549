"""SPIMI posting construction over ordinal doc keys.

One chunk of documents in → one sorted run of partial postings out:
``(shard: int32, term: dictionary<string>, ord: int64, tf: int32,
doc_id: int64|null, lang: string|null)``. This is the per-batch combiner (SURVEY.md §7
stage 4): term frequencies are already aggregated per (doc, term)
inside the chunk, so the downstream shard exchange moves one row per
distinct (doc, term) — not one row per token.

**Ordinal doc keys** (the docBase design, Lucene-style): posting lists
store the document's dense corpus ordinal — its position in the global
input-file order (``base_of_file + row_in_file``) — NOT the external
64-bit ``doc_id`` hash. Sorted random 64-bit ids defeat delta coding
(the average gap is ~2^63/n and every delta costs 8 bytes); dense
ordinals make the average gap ``n_docs/df``, so head terms compress to
~1 byte per posting and the whole index shrinks ~4x. The
``ord → (doc_id, doclen)`` mapping rides along as tagged docmap rows
(``shard = -1``) that phase 1 extracts into ``docmap/part-K.parquet``;
readers map ordinals back to external ids at result time, and the
dense ordinal doubles as the score-accumulator position (no binary
search per posting at query time).

Hot-path design (this stage dominates build CPU — see BASELINE.md):
after tokenization the chunk works entirely on integers — terms are
dictionary-encoded once, each vocabulary entry is hashed to its shard
straight from the dictionary's Arrow offsets and data buffers
(``tokenizer.term_shards``: blake2b over ``bytes`` slices), the
vocabulary is ranked by (shard, term bytes) with one
``pc.sort_indices`` and one stable argsort over vocabulary-sized keys,
and one ``np.unique`` over ``rank*n_docs + row`` composite keys (32-bit
whenever ``vocab * n_docs < 2**32``, which halves the sort's traffic)
both counts tf and emits the postings in output order (ordinals
increase with the row, so row order is ord order). No Python string is
made per vocabulary term, and no per-posting string is hashed or
sorted: the term column is a ``DictionaryArray`` over that same Arrow
dictionary (plus the docmap rows' empty placeholder), and the chunk
leaves the kernel with it (``CHUNK_SCHEMA``). The in-process build
keeps those chunks for its phase 2, which only unifies their
dictionaries. The distributed build casts each chunk to ``RUN_SCHEMA``
(plain strings, one per posting) as it writes the run file: writing
the dictionary-typed column there was measured slower (50 → 75 ms per
build round).

The chunk output is ordered by (shard, term bytes, ord) — docmap rows
(shard = -1) lead — which is the order a segment is cut in: every chunk,
and so every run-file row group, reaches phase 2 as one presorted run,
and ``segment.encode_shard_tables``' stable sort only merges the runs
(operators hand over their output in the order the next one consumes
it — the Velox pipeline design, PAPERS.md). Phase 2 does not depend on
it: rows in any order within a (shard, term), ords ascending, encode to
the same bytes, so run files written before this order (first
occurrence of the term in the chunk) resume under the same
``RUN_FORMAT``. The shard order keeps the run files shard-clustered per
row group for the phase-2 pruned read and the parquet encodings tight.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import IndexConfig, DEFAULT_CONFIG, DOCMAP_SHARD
from ..tokenizer import term_shards, tokenize_to_terms

RUN_SCHEMA = pa.schema(
    [
        ("shard", pa.int32()),
        ("term", pa.string()),
        ("ord", pa.int64()),
        ("tf", pa.int32()),
        ("doc_id", pa.int64()),       # populated on docmap rows only
        ("lang", pa.string()),        # doc-value, docmap rows only
    ]
)

#: what ``postings_chunk`` returns: ``RUN_SCHEMA`` with the term column
#: still dictionary-encoded over the chunk's vocabulary
CHUNK_SCHEMA = RUN_SCHEMA.set(
    1, pa.field("term", pa.dictionary(pa.int32(), pa.string())))


def postings_chunk(doc_ids: np.ndarray, ords: np.ndarray,
                   texts: pa.Array | pa.ChunkedArray,
                   cfg: IndexConfig,
                   langs: pa.Array | None = None) -> pa.Table:
    """One chunk of documents → sorted run rows (postings + docmap),
    ``CHUNK_SCHEMA``-typed.

    ``langs`` (optional) is the per-doc ``lang`` doc-value: it rides the
    docmap rows into ``docmap/part-K.parquet`` so facet queries gather
    metadata by ordinal instead of re-reading the corpus (the ES
    doc_values design).

    ``ords`` must increase with the row: the (term, ord) order of the
    postings then falls out of the (term, row) order of one
    ``np.unique``."""
    n_docs = len(doc_ids)
    if not np.all(np.diff(ords) > 0):
        raise ValueError("postings_chunk: ords must be strictly increasing")
    flat, idx = tokenize_to_terms(texts)
    idx_np = idx.to_numpy(zero_copy_only=False)
    doclen = np.bincount(idx_np, minlength=n_docs).astype(np.int32)

    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    enc = flat.dictionary_encode()
    vocab = enc.dictionary
    didx = enc.indices.to_numpy(zero_copy_only=False)

    # shard per unique term, once (vocab is tiny vs postings); rank the
    # vocabulary by (shard, term bytes), the order segments are cut in
    # (composite keys below are 32-bit when they fit)
    n_rows = max(n_docs, 1)
    key_type = np.uint32 if len(vocab) * n_rows < 1 << 32 else np.int64
    shard_lut = term_shards(vocab, cfg.num_term_shards)
    by_term = pc.sort_indices(vocab).to_numpy()
    by_rank = by_term[np.argsort(shard_lut[by_term], kind="stable")]
    rank = np.empty(len(vocab), dtype=key_type)
    rank[by_rank] = np.arange(len(vocab), dtype=key_type)

    # tf per (doc, term), sorted by (rank, row) = (shard, term, ord):
    # one sort of composite integer keys
    uniq, counts = np.unique(
        rank[didx] * key_type(n_rows) + idx_np.astype(key_type),
        return_counts=True)
    row_doc = uniq % n_rows                   # chunk row index
    row_tidx = by_rank[uniq // n_rows]        # vocab index
    n_post = len(uniq)

    # docmap rows lead (shard = -1, vocab index V as the placeholder)
    term_col = pa.DictionaryArray.from_arrays(
        pa.array(np.concatenate(
            [np.full(n_docs, len(vocab)), row_tidx]).astype(np.int32)),
        pa.concat_arrays([vocab, pa.array([""], vocab.type)]),
    )
    if langs is not None:
        lang_col = pa.concat_arrays(
            [langs.cast(pa.string()), pa.nulls(n_post, pa.string())])
    else:
        lang_col = pa.nulls(n_docs + n_post, pa.string())
    return pa.table(
        {
            "shard": pa.array(np.concatenate(
                [np.full(n_docs, DOCMAP_SHARD, dtype=np.int32),
                 shard_lut[row_tidx]])),
            "term": term_col,
            "ord": pa.array(np.concatenate([ords, ords[row_doc]])),
            "tf": pa.array(np.concatenate([doclen, counts.astype(np.int32)])),
            "doc_id": pa.concat_arrays(
                [pa.array(doc_ids, type=pa.int64()),
                 pa.nulls(n_post, pa.int64())]),
            "lang": lang_col,
        },
        schema=CHUNK_SCHEMA,
    )


class TokenizeFilePostings:
    """``(path, base)`` items → run-row chunks, one whole input file per
    item, streamed in row-chunks (a generator ``map_batches`` stage, so
    a large file never materializes its postings at once).

    The task reads its file directly (the same parquet scan
    ``ray.data.read_parquet`` would issue) because ordinal assignment
    needs the row's position WITHIN its file — ``base + row_index`` —
    which a block-level dataset read does not expose.
    """

    def __init__(self, cfg: IndexConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table):
        for path, base in zip(batch["path"].to_pylist(),
                              batch["base"].to_pylist()):
            pf = pq.ParquetFile(path)
            cols = ["doc_id", "text"]
            has_lang = "lang" in pf.schema_arrow.names
            if has_lang:
                cols.append("lang")
            off = 0
            for chunk in pf.iter_batches(batch_size=self.cfg.batch_size,
                                         columns=cols):
                t = pa.Table.from_batches([chunk])
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                ords = base + off + np.arange(len(ids), dtype=np.int64)
                off += len(ids)
                yield postings_chunk(
                    ids, ords, t["text"], self.cfg,
                    langs=t["lang"].combine_chunks() if has_lang else None)
