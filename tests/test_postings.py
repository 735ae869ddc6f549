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
from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one


def _reference_tokens(texts) -> list[list[str]]:
    """The tokenization rule spelled as an RE2 split, per row:
    lowercase, split on ``[^a-z0-9]+``, drop empties."""
    rows = pc.split_pattern_regex(pc.utf8_lower(texts),
                                  pattern="[^a-z0-9]+").to_pylist()
    return [[t for t in row if t] if row else [] for row in rows]


def _lexsort_reference(doc_ids, ords, texts, cfg, langs=None):
    """Run rows sorted by (shard, term bytes, ord) — the layout phase 2
    cuts segments in, spelled out: docmap rows (shard -1, term ``""``)
    lead, then every (doc, term) posting with its tf."""
    lang = langs.to_pylist() if langs is not None else [None] * len(doc_ids)
    rows = []
    for r, toks in enumerate(_reference_tokens(texts)):
        rows.append((DOCMAP_SHARD, b"", int(ords[r]), len(toks),
                     int(doc_ids[r]), lang[r]))
        for term in set(toks):
            rows.append((term_shard_one(term, cfg.num_term_shards),
                         term.encode(), int(ords[r]), toks.count(term),
                         None, None))
    rows.sort(key=lambda row: row[:3])
    cols = list(zip(*rows)) or [()] * 6
    return pa.table({
        "shard": pa.array(cols[0], pa.int32()),
        "term": pa.array([t.decode() for t in cols[1]], pa.string()),
        "ord": pa.array(cols[2], pa.int64()),
        "tf": pa.array(cols[3], pa.int32()),
        "doc_id": pa.array(cols[4], pa.int64()),
        "lang": pa.array(cols[5], pa.string()),
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
