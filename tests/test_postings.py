"""SPIMI run rows: ``postings_chunk`` output order and its ord contract."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from snowplow_elasticsearch_loader_ray.config import DOCMAP_SHARD, IndexConfig
from snowplow_elasticsearch_loader_ray.sources import synth
from snowplow_elasticsearch_loader_ray.stages.extract import ExtractTransform
from snowplow_elasticsearch_loader_ray.stages.postings import (
    CHUNK_SCHEMA, RUN_SCHEMA, postings_chunk)
from snowplow_elasticsearch_loader_ray.tokenizer import (
    term_shard_one, tokenize_to_terms)


def _lexsort_reference(doc_ids, ords, texts, cfg, langs=None):
    """Run rows ordered by one ``np.lexsort`` over (shard, vocab index,
    ord) — the layout the phase-2 reader relies on, spelled out."""
    n_docs = len(doc_ids)
    flat, idx = tokenize_to_terms(texts)
    idx_np = idx.to_numpy(zero_copy_only=False)
    doclen = np.bincount(idx_np, minlength=n_docs).astype(np.int32)
    enc = flat.dictionary_encode()
    vocab = enc.dictionary.to_pylist()
    didx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    V = max(len(vocab), 1)
    uniq, counts = np.unique(idx_np.astype(np.int64) * V + didx,
                             return_counts=True)
    row_doc, row_tidx = uniq // V, uniq % V
    shard_lut = np.array([term_shard_one(t, cfg.num_term_shards)
                          for t in vocab], dtype=np.int32)
    all_shard = np.concatenate([shard_lut[row_tidx],
                                np.full(n_docs, DOCMAP_SHARD, np.int32)])
    all_tidx = np.concatenate([row_tidx, np.full(n_docs, len(vocab))])
    all_ord = np.concatenate([ords[row_doc], ords])
    all_tf = np.concatenate([counts.astype(np.int32), doclen])
    all_doc = np.concatenate([np.zeros(len(row_doc), np.int64), doc_ids])
    is_post = np.concatenate([np.ones(len(row_doc), bool),
                              np.zeros(n_docs, bool)])
    order = np.lexsort((all_ord, all_tidx, all_shard))
    lang = ([None] * len(row_doc) + (langs.to_pylist() if langs is not None
                                     else [None] * n_docs))
    terms = vocab + [""]
    return pa.table({
        "shard": pa.array(all_shard[order]),
        "term": pa.array([terms[t] for t in all_tidx[order]], pa.string()),
        "ord": pa.array(all_ord[order]),
        "tf": pa.array(all_tf[order]),
        "doc_id": pa.array(all_doc[order], pa.int64(), mask=is_post[order]),
        "lang": pa.array([lang[j] for j in order], pa.string()),
    }, schema=RUN_SCHEMA)


@pytest.mark.parametrize("shards", [1, 4, 16])
def test_postings_chunk_matches_lexsort_reference(shards):
    cfg = IndexConfig(num_term_shards=shards, max_record_bytes=100_000)
    out = ExtractTransform(cfg)(synth.generate_part(300, 700))
    good = out.filter(pc.equal(out["status"], "good"))
    texts = pa.concat_arrays(
        [good["text"].combine_chunks(), pa.array(["", None, "!! ??"])])
    langs = pa.concat_arrays(
        [good["lang"].combine_chunks(), pa.array(["en", None, "de"])])
    ids = np.arange(len(texts), dtype=np.int64) * 7 + 3
    ords = 1000 + np.cumsum(np.arange(len(texts)) % 3 + 1).astype(np.int64)
    # the chunk's term column stays dictionary-typed; the run file holds
    # its plain-string cast
    for lg in (langs, None):
        got = postings_chunk(ids, ords, texts, cfg, langs=lg)
        want = _lexsort_reference(ids, ords, texts, cfg, langs=lg)
        assert got.schema == CHUNK_SCHEMA
        assert got.cast(RUN_SCHEMA).equals(want)
    empty = pa.array([], pa.string())
    got = postings_chunk(np.array([], np.int64), np.array([], np.int64),
                         empty, cfg)
    assert got.schema == CHUNK_SCHEMA
    assert got.cast(RUN_SCHEMA).equals(
        _lexsort_reference(np.array([], np.int64), np.array([], np.int64),
                           empty, cfg))


@pytest.mark.parametrize("ords", [[0, 2, 1], [5, 5, 6], [3, 2, 1]])
def test_postings_chunk_rejects_non_increasing_ords(ords):
    with pytest.raises(ValueError):
        postings_chunk(np.arange(3, dtype=np.int64),
                       np.array(ords, dtype=np.int64),
                       pa.array(["a b", "b c", "c a"]), IndexConfig())
