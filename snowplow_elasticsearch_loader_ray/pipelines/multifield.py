"""Multi-field retrieval: per-field inverted indexes + ES ``multi_match``.

The reference's documents are many-field JSON and its ``_search``
verification reads several fields per doc (TestHelpers.scala:157-201,
EnrichedSpec.scala:28-79); the most common real-ES query shape is
``{"multi_match": {"query": ..., "fields": ["title^2", "body"]}}``.
Elasticsearch keeps one inverted index and its OWN length norms per
field, and multi_match combines per-field BM25 scores — best_fields is
a dis_max over the per-field match queries (max + tie_breaker × rest),
most_fields sums them.

Here a field IS an index: each field's corpus view is derived by a
vectorized Ray Data ``map_batches`` stage (Arrow kernels only) and
built by the SAME resumable build pipeline into ``root/<field>/`` — so
per-field df / avgdl / doclen are exactly ES's per-field norms, and
every serving plane (single reader, sharded, grid, NRT) works per field
unchanged. ``multi_match`` runs each field's TAAT scorer and combines
on external doc_id in the declared field order (deterministic float
summation — the bit-identity contract of the rest of the engine).

Scale shape: deriving a field is one streaming map over the corpus; a
field index costs what the body index costs scaled by the field's token
share (a title/url field is ~1-5% of body postings). Queries fan out
per (field × term-shard) exactly like single-field serving.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import bm25
from ..config import DEFAULT_CONFIG, IndexConfig
from ..tokenizer import tokenize_to_terms
from .build import build_index
from .query import IndexReader, _taat_scores


#: field derivations: column + optional token-prefix truncation.
#: "title" = first N body tokens (the classic short-field/long-field
#: norm split); "url" = the url column tokenized whole (domain/path
#: terms); "body" = the text column as-is.
class FieldSpec:
    def __init__(self, column: str = "text", first_tokens: int | None = None):
        self.column = column
        self.first_tokens = first_tokens


def _derive_batch(batch, column: str, first_tokens: int | None):
    """(doc_id, <column>) → (doc_id, text) with the field's view of the
    token stream — pure Arrow kernels, zero Python per row."""
    texts = batch[column]
    if first_tokens is not None:
        # the index tokenizer's own token stream, regrouped per row
        # (null rows stay null, token-less rows become "")
        flat, idx = tokenize_to_terms(texts)
        if isinstance(flat, pa.ChunkedArray):
            flat, idx = flat.combine_chunks(), idx.combine_chunks()
        counts = np.bincount(idx.to_numpy(zero_copy_only=False),
                             minlength=len(texts))
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        toks = pa.ListArray.from_arrays(
            pa.array(offsets), flat,
            mask=pa.array(pc.is_null(texts).to_numpy(zero_copy_only=False)))
        texts = pc.binary_join(pc.list_slice(toks, 0, first_tokens), " ")
    return batch.select(["doc_id"]).append_column("text", texts)


def derive_field_docs(docs: str | list[str], out_dir: str,
                      spec: FieldSpec) -> str:
    """Materialize one field's (doc_id, text) corpus view as parquet.

    Skipped when already written (the build pipeline's own manifests
    make the downstream index build resumable; the derived view is
    deterministic, so re-derivation is only a wasted write)."""
    done = os.path.join(out_dir, "_derived.done")
    if os.path.exists(done):
        return out_dir
    if os.path.isdir(out_dir):
        # a prior run died mid-write (no done marker): Ray's writer
        # would ADD uniquely-named parts next to the stale ones, and a
        # doubled corpus silently doubles df/tf — start clean instead
        import shutil

        shutil.rmtree(out_dir)
    from .. import _raydata  # noqa: F401 (thread-safe path probe)

    (ray.data.read_parquet(docs, columns=["doc_id", spec.column])
        .map_batches(_derive_batch, batch_format="pyarrow",
                     fn_kwargs={"column": spec.column,
                                "first_tokens": spec.first_tokens})
        .write_parquet(out_dir))
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def build_field_indexes(docs: str | list[str], root: str,
                        fields: dict[str, FieldSpec],
                        cfg: IndexConfig = DEFAULT_CONFIG) -> dict[str, dict]:
    """Build one index per field under ``root/<field>/``; returns each
    field's corpus stats. The identity field (text column, no
    truncation) indexes the input directly — no derived copy."""
    stats = {}
    for name, spec in fields.items():
        if spec.column == "text" and spec.first_tokens is None:
            src: str | list[str] = docs
        else:
            src = derive_field_docs(
                docs, os.path.join(root, "_fields", name), spec)
        stats[name] = build_index(src, os.path.join(root, name), cfg)
    return stats


def parse_field_boosts(fields: list[str]) -> list[tuple[str, float]]:
    """ES field syntax: ``"title^2"`` → ("title", 2.0); bare → boost 1."""
    out = []
    for f in fields:
        name, sep, boost = f.partition("^")
        out.append((name, float(boost) if sep else 1.0))
    return out


def multi_match_scores(readers: dict[str, IndexReader], query: str,
                       fields: list[tuple[str, float]],
                       mm_type: str = "best_fields",
                       tie_breaker: float = 0.0,
                       scores_of=None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """All matching (external doc_ids, combined scores) for an ES
    ``multi_match``.

    best_fields: max over fields of (boost × field BM25 sum), plus
    tie_breaker × (sum of the rest) — ES's dis_max semantics.
    most_fields: sum over fields in DECLARED field order (each doc
    appears at most once per field, so the per-doc float addition order
    is the field order — deterministic, SQL-replayable).

    ``scores_of(name) -> (ids, raw scores)`` overrides the per-field
    scorer — the distributed engines plug their scatter-gather here
    (bit-identical partial sums, so the combine is plane-independent).
    """
    if mm_type not in ("best_fields", "most_fields"):
        raise ValueError(f"unsupported multi_match type {mm_type!r}")
    if scores_of is None:
        def scores_of(name: str):
            return _taat_scores(readers[name], query)
    per = []
    for name, boost in fields:
        if name not in readers:
            raise ValueError(f"unknown field {name!r}")
        ids, scores = scores_of(name)
        if len(ids):
            per.append((ids, boost * scores))
    if not per:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    uniq = np.unique(np.concatenate([ids for ids, _s in per]))
    sums = np.zeros(len(uniq), dtype=np.float64)
    maxs = np.zeros(len(uniq), dtype=np.float64)
    for ids, sc in per:                      # declared field order
        j = np.searchsorted(uniq, ids)
        sums[j] += sc
        np.maximum.at(maxs, j, sc)
    if mm_type == "most_fields":
        return uniq, sums
    return uniq, maxs + tie_breaker * (sums - maxs)


def combined_fields_scores(readers: dict[str, IndexReader], query: str,
                           fields: list[tuple[str, float]],
                           ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``combined_fields`` (the principled BM25F): score as if the
    fields were ONE field — per-doc term frequency Σ boost_f × tf_f,
    document length Σ boost_f × dl_f, avgdl over the combined lengths,
    df = docs containing the term in ANY field — then plain BM25 over
    those combined statistics (one idf per term, one saturation).

    Exactness: with integer boosts every pre-idf quantity (combined tf,
    combined dl, their corpus sum) is integer-valued in float64, so
    sums are order-free and the SQL oracle replays them bit-for-bit;
    per-term score contributions then add in sorted-term order (the
    TAAT determinism contract). Two dense n_docs accumulators — the
    same memory shape as single-field TAAT.
    """
    from .query import tokenize_query

    if not fields:
        raise ValueError("combined_fields needs at least one field")
    for name, _b in fields:
        if name not in readers:
            raise ValueError(f"unknown field {name!r}")
    r0 = readers[fields[0][0]]
    n_docs = r0.n_docs
    key = tuple(fields)
    cache = getattr(r0, "_cf_cache", None)
    if cache is None or cache[0] != key:
        # combined doclens on the FIRST field's ordinal axis: every
        # field indexes the same corpus view (same docs, same order),
        # asserted on external ids
        dlc = np.zeros(n_docs, dtype=np.float64)
        for name, boost in fields:
            r = readers[name]
            if r.n_docs != n_docs or not np.array_equal(
                    r.dl_doc_ids, r0.dl_doc_ids):
                raise ValueError(
                    f"field {name!r} indexes a different corpus")
            dlc += boost * r.dl_lens.astype(np.float64)
        avgdlc = float(dlc.sum()) / n_docs if n_docs else 1.0
        cache = r0._cf_cache = (key, dlc, avgdlc)
    _key, dlc, avgdlc = cache

    score_acc = np.zeros(n_docs, dtype=np.float64)
    matched = False
    for t in tokenize_query(query):            # sorted, deduped
        tfc = np.zeros(n_docs, dtype=np.float64)
        hit = False
        for name, boost in fields:             # declared field order
            r = readers[name]
            pl = r.postings(t)
            if pl is None:
                continue
            docs, tfs = pl.decode_all()
            tfc[docs] += boost * tfs
            hit = True
        if not hit:
            continue
        matched = True
        nz = np.nonzero(tfc)[0]
        w = bm25.idf(n_docs, len(nz))          # df over ANY field
        score_acc[nz] += w * bm25.tf_weight(tfc[nz], dlc[nz], avgdlc)
    if not matched:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    cand = np.nonzero(score_acc)[0]
    return r0.dl_doc_ids[cand], score_acc[cand]


class MultiFieldEngine:
    """Per-field readers + multi_match top-k over ``root/<field>/``
    indexes (loaded once — the stateful-stage pattern)."""

    def __init__(self, root: str, fields: list[str]):
        self.readers = {f: IndexReader(os.path.join(root, f))
                        for f in fields}

    def multi_match(self, query: str, fields: list[str],
                    mm_type: str = "best_fields", tie_breaker: float = 0.0,
                    k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        ids, scores = multi_match_scores(
            self.readers, query, parse_field_boosts(fields),
            mm_type=mm_type, tie_breaker=tie_breaker)
        return bm25.rank_topk(ids, scores, k)

    def combined_fields(self, query: str, fields: list[str],
                        k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        ids, scores = combined_fields_scores(
            self.readers, query, parse_field_boosts(fields))
        return bm25.rank_topk(ids, scores, k)


class MultiFieldShardedEngine:
    """multi_match over per-field SHARDED planes: one scatter-gather
    engine per field (``root/<field>/``), per-field match scores
    bit-identical to the single reader (the sharded combine contract),
    so the cross-field combine — shared with ``MultiFieldEngine`` —
    lands the exact same arrays.

    Actor sizing: the per-field pools split the cluster's CPU budget
    (fields × ``reader_pool`` actors total) so two field engines never
    over-subscribe — on a small ``num_cpus`` two independently-sized
    pools would deadlock waiting for reservations."""

    def __init__(self, root: str, fields: list[str]):
        import ray

        from .servecache import reader_cpus, reader_pool
        from .sharded_query import ShardedQueryEngine

        avail = ray.cluster_resources().get("CPU", 1.0)
        self.engines: dict[str, ShardedQueryEngine] = {}
        for f in fields:
            d = os.path.join(root, f)
            from .build import index_stats

            shards = int(index_stats(d)["num_term_shards"])
            pool = len(reader_pool(shards, avail)[0])
            cpus = reader_cpus(len(fields) * pool, avail)
            self.engines[f] = ShardedQueryEngine(d, cpus_per_reader=cpus)

    def multi_match(self, query: str, fields: list[str],
                    mm_type: str = "best_fields", tie_breaker: float = 0.0,
                    k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        ids, scores = multi_match_scores(
            self.engines, query, parse_field_boosts(fields),
            mm_type=mm_type, tie_breaker=tie_breaker,
            scores_of=lambda n: self.engines[n].match_scores(query))
        return bm25.rank_topk(ids, scores, k)

    def combined_fields(self, query: str, fields: list[str],
                        k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """BM25F over the scatter planes: per-field RAW tf partials
        (``ShardReader.tf_partials`` — weighting must wait for the
        COMBINED statistics), dense tf combine per term in declared
        field order, idf/saturation over combined dl/avgdl on the
        coordinator — identical arithmetic to the single-process
        ``combined_fields_scores``."""
        from .query import tokenize_query

        fb = parse_field_boosts(fields)
        if not fb:
            raise ValueError("combined_fields needs at least one field")
        for name, _b in fb:
            if name not in self.engines:
                raise ValueError(f"unknown field {name!r}")
        e0 = self.engines[fb[0][0]]
        n_docs = e0.n_docs
        key = tuple(fb)
        cache = getattr(e0, "_cf_cache", None)
        if cache is None or cache[0] != key:
            dlc = np.zeros(n_docs, dtype=np.float64)
            for name, boost in fb:
                e = self.engines[name]
                if e.n_docs != n_docs or not np.array_equal(
                        e._doc_ids, e0._doc_ids):
                    raise ValueError(
                        f"field {name!r} indexes a different corpus")
                dlc += boost * e._dl_lens.astype(np.float64)
            avgdlc = float(dlc.sum()) / n_docs if n_docs else 1.0
            cache = e0._cf_cache = (key, dlc, avgdlc)
        _key, dlc, avgdlc = cache

        terms = tokenize_query(query)
        per_field: dict[str, dict] = {}
        for name, _b in fb:                    # one scatter per field
            per_field[name] = self.engines[name]._scatter_raw(
                "tf_partials", terms)

        score_acc = np.zeros(n_docs, dtype=np.float64)
        matched = False
        for t in terms:                        # sorted, deduped
            tfc = np.zeros(n_docs, dtype=np.float64)
            hit = False
            for name, boost in fb:             # declared field order
                for docs, tfs in per_field[name].get(t, ()):
                    tfc[docs] += boost * tfs   # doc-disjoint stripes
                    hit = True
            if not hit:
                continue
            matched = True
            nz = np.nonzero(tfc)[0]
            w = bm25.idf(n_docs, len(nz))
            score_acc[nz] += w * bm25.tf_weight(tfc[nz], dlc[nz], avgdlc)
        if not matched:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        cand = np.nonzero(score_acc)[0]
        return bm25.rank_topk(e0._doc_ids, score_acc[cand], k, ords=cand)

    def shutdown(self) -> None:
        for e in self.engines.values():
            e.shutdown()
        self.engines = {}
