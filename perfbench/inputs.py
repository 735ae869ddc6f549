"""Seeded workload inputs.

Everything here is a pure function of ``(seed, workload)``: the corpus row
slice handed to ``sources.synth.generate_part``, the query pools and their
popularity, the warm-up stream, the msearch batches and the NRT
upsert/delete schedule. The program under test only ever sees the
generated files and strings.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from snowplow_elasticsearch_loader_ray.sources import synth

#: corpus rows a seed can start at: slices are 10k-row aligned inside the
#: first 10^9 rows, so two seeds almost never share a row
_SLICE_GRAIN = 10_000
_SLICE_CHOICES = 100_000

#: query terms are drawn from the synth vocabulary by rank with
#: P(rank) ~ 1 / (rank + 1) ** QUERY_ZIPF_S: flatter than the corpus Zipf,
#: so a query mixes head (long postings) and mid/tail (short) terms
QUERY_ZIPF_S = 0.9


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, named stream)."""
    return np.random.default_rng([seed & 0xFFFF_FFFF, zlib.crc32(stream.encode())])


def slice_start(seed: int, stream: str) -> int:
    return _SLICE_GRAIN * int(rng_for(seed, stream).integers(_SLICE_CHOICES))


def bad_masks(lo: int, hi: int) -> dict[str, np.ndarray]:
    """Dead-letter masks of rows [lo, hi) from synth's modular rules, with
    the extract stage's precedence (malformed > oversized > schema)."""
    i = np.arange(lo, hi, dtype=np.int64)
    malformed = (i % synth.MALFORMED_MOD) == synth.MALFORMED_REM
    oversized = ((i % synth.OVERSIZED_MOD) == synth.OVERSIZED_REM) & ~malformed
    schema = (((i % synth.BADLANG_MOD) == synth.BADLANG_REM)
              | ((i % synth.BADTS_MOD) == synth.BADTS_REM)) & ~malformed & ~oversized
    return {"extract_error": malformed, "size_violation": oversized,
            "schema_violation": schema}


def expected_counters(lo: int, hi: int) -> dict[str, int]:
    """Exact ingest counters for the page slice [lo, hi)."""
    masks = bad_masks(lo, hi)
    out = {k: int(m.sum()) for k, m in masks.items() if m.any()}
    out["good"] = (hi - lo) - sum(out.values())
    return out


def good_docs(lo: int, hi: int) -> pa.Table:
    """(doc_id, text, lang) of the rows in [lo, hi) that ingest keeps —
    the document table ``ingest_pages`` would produce, in row order."""
    t = synth.generate_part(lo, hi)
    masks = bad_masks(lo, hi)
    good = ~(masks["extract_error"] | masks["size_violation"]
             | masks["schema_violation"])
    t = t.filter(pa.array(good))
    ids = [synth.hash_url64(u) for u in t["url"].to_pylist()]
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": t["text"],
                     "lang": t["lang"]})


def write_pages(out_dir: str, lo: int, hi: int, n_parts: int) -> None:
    """Page corpus rows [lo, hi) as ``part-K.parquet`` files."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(lo, hi, n_parts + 1).astype(int)
    for k in range(n_parts):
        pq.write_table(synth.generate_part(int(bounds[k]), int(bounds[k + 1]), 100_000),
                       os.path.join(out_dir, f"part-{k:04d}.parquet"),
                       compression="zstd")


def write_docs(out_dir: str, docs: pa.Table, n_parts: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, docs.num_rows, n_parts + 1).astype(int)
    for k in range(n_parts):
        pq.write_table(docs.slice(int(bounds[k]), int(bounds[k + 1] - bounds[k])),
                       os.path.join(out_dir, f"part-{k:04d}.parquet"))


_VOCAB = synth.build_vocab()
_TERM_CUM = np.cumsum(1.0 / np.arange(1, synth.VOCAB_SIZE + 1) ** QUERY_ZIPF_S)
_TERM_CUM /= _TERM_CUM[-1]


def queries(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` queries of 1-5 Zipf-drawn vocabulary terms, each length on a
    fifth of them in random order. A query's cost grows in steps with its
    length, so a median over freely drawn lengths would move with the
    seed's length mix."""
    out = []
    lengths = rng.permutation(np.resize(np.arange(1, 6), n))
    for m in lengths:
        ranks = np.searchsorted(_TERM_CUM, rng.random(int(m)))
        out.append(" ".join(_VOCAB[int(r)] for r in ranks))
    return out


def request_key(q: str) -> str:
    """The request identity a request cache can key on: sorted unique
    tokens (the engine's query normalization)."""
    return " ".join(sorted(set(q.split())))


def zipf_stream(rng: np.random.Generator, pool: list[str], n: int,
                s: float) -> list[str]:
    """``n`` requests drawn from ``pool`` with Zipf(s) popularity by pool
    position, so a share of requests repeat earlier ones."""
    w = 1.0 / np.arange(1, len(pool) + 1) ** s
    idx = rng.choice(len(pool), size=n, p=w / w.sum())
    return [pool[int(i)] for i in idx]


def fresh_batch(rng: np.random.Generator, seen: set[str], size: int) -> list[str]:
    """``size`` queries whose request keys are not in ``seen`` (nor
    repeated within the batch); their keys are added to ``seen``."""
    batch: list[str] = []
    while len(batch) < size:
        q = queries(rng, 1)[0]
        if request_key(q) not in seen:
            seen.add(request_key(q))
            batch.append(q)
    return batch


def nrt_schedule(seed: int, base: pa.Table, rounds: int, delta_docs: int,
                 upsert_share: float, deletes_per_round: int) -> list[dict]:
    """Per round: JSON payloads for ``stream_ingest`` and the doc_ids to
    delete at the start of the round.

    New docs come from a fresh corpus slice; upserts rewrite a random
    already-indexed id (base, an earlier delta, or a deleted id, which
    re-indexing brings back) with text taken from yet another slice;
    deletes pick ids that are live when the round starts.
    """
    rng = rng_for(seed, "nrt-schedule")
    n_up = int(round(delta_docs * upsert_share))
    n_new = delta_docs - n_up
    fresh = good_docs(slice_start(seed, "nrt-new"),
                      slice_start(seed, "nrt-new") + 2 * rounds * delta_docs)
    rewrite = good_docs(slice_start(seed, "nrt-rewrite"),
                        slice_start(seed, "nrt-rewrite") + 2 * rounds * delta_docs)
    known = base["doc_id"].to_numpy().tolist()
    live = dict.fromkeys(known)
    out = []
    f_at = r_at = 0
    for _ in range(rounds):
        dels = rng.choice(np.array(list(live), dtype=np.int64),
                          size=deletes_per_round, replace=False)
        for d in dels.tolist():
            live.pop(d, None)
        new_ids = fresh["doc_id"][f_at:f_at + n_new].to_pylist()
        new_txt = fresh["text"][f_at:f_at + n_new].to_pylist()
        f_at += n_new
        up_ids = [known[int(i)] for i in rng.integers(len(known), size=n_up)]
        up_txt = rewrite["text"][r_at:r_at + n_up].to_pylist()
        r_at += n_up
        docs = list(zip(new_ids + up_ids, new_txt + up_txt))
        order = rng.permutation(len(docs))
        payloads = [json.dumps({"doc_id": docs[i][0], "text": docs[i][1],
                                "lang": "en"}).encode() for i in order]
        known.extend(new_ids)
        for d in new_ids + up_ids:
            live[d] = None
        out.append({"deletes": dels, "payloads": payloads})
    return out
