"""Percolate: match streaming documents against a registered query set
(the ES percolator, `_percolate` — reverse search).

Reference context: the loader ships documents INTO Elasticsearch, where
percolator queries registered in the index fire on each arriving doc
(alerting / routing). Re-expressed Ray-Data-first: the query set is the
small side — compiled ONCE into an inverted term→query table and
broadcast via ``ray.put`` — and the 100-TB document stream flows
through a stateless vectorized ``map_batches`` with NO shuffle.

Matching semantics: each registered query is a conjunction of distinct
terms (the ES percolator's `match` query with `operator: and`); a doc
matches iff every query term occurs in it. The kernel is the classic
counting percolator: distinct (doc, term) incidences scatter-add into a
dense (doc × query) counter via one flat ``bincount``, and a query
fires where its counter equals its term count — vectorized over the
whole batch, no per-row or per-query-per-doc Python.

Scale note: the dense per-batch counter is n_docs_in_batch × n_queries
int64 — right while the registered set is ≤ ~10^5 queries (ES practice);
beyond that, shard the query set across percolate stages (union of
independent passes, same results) rather than growing the matrix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .. import _raydata  # noqa: F401 (thread-safe path probe)
from .analysis import _hash_tokens
from ..tokenizer import tokenize_to_terms


def compile_queries(queries: list[tuple[int, list[str]]]):
    """(qid, terms)[] → broadcastable inverted table.

    Returns (sorted unique term hashes, CSR term→qids flat/offsets,
    qid array, per-query distinct-term counts).
    """
    qids = np.array([q for q, _ in queries], dtype=np.int64)
    pairs = sorted({(t, i) for i, (_, terms) in enumerate(queries)
                    for t in terms})
    terms = pa.array([t for t, _ in pairs], pa.string())
    th = _hash_tokens(terms) if len(pairs) else np.empty(0, np.uint64)
    qpos = np.array([i for _, i in pairs], dtype=np.int64)
    # group by unique term hash (pairs are term-sorted; equal terms are
    # adjacent, and distinct terms hash distinctly)
    uterms = np.unique(th)
    order = np.argsort(th, kind="stable")
    th_sorted = th[order]
    q_sorted = qpos[order]
    offsets = np.searchsorted(th_sorted, uterms)
    offsets = np.concatenate((offsets, [len(th_sorted)]))
    n_terms = np.zeros(len(queries), dtype=np.int64)
    np.add.at(n_terms, qpos, 1)
    return uterms, q_sorted, offsets, qids, n_terms


class Percolator:
    """Stateless vectorized doc→matching-queries stage."""

    def __init__(self, compiled_ref):
        (self.uterms, self.q_flat, self.q_off,
         self.qids, self.n_terms) = ray.get(compiled_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        n_q = len(self.qids)
        empty = pa.table({"qid": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64())})
        if n_docs == 0 or n_q == 0 or len(self.uterms) == 0:
            return empty
        flat, idx_arr = tokenize_to_terms(batch["text"])
        if len(flat) == 0:
            return empty
        idx = idx_arr.to_numpy(zero_copy_only=False)
        h = _hash_tokens(flat)
        # distinct (doc, token) incidences
        order = np.lexsort((h, idx))
        h, idx = h[order], idx[order]
        keep = np.concatenate(([True], (h[1:] != h[:-1]) | (idx[1:] != idx[:-1])))
        h, idx = h[keep], idx[keep]
        # membership against the registered term universe
        pos = np.searchsorted(self.uterms, h)
        pos = np.minimum(pos, len(self.uterms) - 1)
        hit = self.uterms[pos] == h
        upos, docs = pos[hit], idx[hit]
        # CSR expand: every (doc, term) incidence fans out to the
        # queries containing that term
        starts = self.q_off[upos]
        counts = self.q_off[upos + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return empty
        flat_i = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(counts) - counts, counts)
                  + np.repeat(starts, counts))
        q_of = self.q_flat[flat_i]
        d_of = np.repeat(docs, counts)
        # one flat bincount = the (doc × query) matched-term counter
        cnt = np.bincount(d_of * n_q + q_of,
                          minlength=n_docs * n_q).reshape(n_docs, n_q)
        dd, qq = np.nonzero(cnt == self.n_terms[None, :])
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({"qid": pa.array(self.qids[qq]),
                         "doc_id": pa.array(doc_ids[dd])})


def percolate(
    ds: ray.data.Dataset,
    queries: list[tuple[int, list[str]]],
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """(qid, doc_id) for every registered query that matches each doc."""
    compiled_ref = ray.put(compile_queries(queries))
    return ds.map_batches(
        Percolator,
        fn_constructor_args=(compiled_ref,),
        batch_format="pyarrow",
        concurrency=concurrency or 2,
    )
