"""Grid-sharded BM25 serving: (term shard × doc partition) reader cells.

The 10^12-doc layout the term-sharded engine's docstring commits to
(``sharded_query.py``): one actor per (term shard, doc partition) cell,
each holding ONLY its shard's postings restricted to its doc partition
plus that partition's doc lengths — so per-actor memory is
``postings / (S × P)`` and doclens ``/ P``, both independent of corpus
size once the grid is sized. A query scatters each term to the P cells
of its term shard; every cell returns partial per-doc scores for its
(term, partition) slice; the driver concatenates per term (partitions
are doc-disjoint) and combines in GLOBAL sorted-term order — the same
float-summation order as the single-process reader, so scores are
bit-identical, not merely rank-identical.

Partitioning assumptions (custom-op rule):
- terms route by ``term_shard_one`` (identical at build/query time);
- docs route by ORDINAL STRIPE (``ord % n_doc_parts``) — any modulus
  works because cells filter at load time, and a production grid would
  instead use the docmap parts' contiguous ordinal RANGES so each cell
  reads only its range's docmap files;
- BM25 idf uses the GLOBAL df (the segment's df column), not the
  partition-local posting count — cells store it per term.

Cells hold decoded (ord, tf) arrays for their slice (12 B/posting);
a production cell at the memory margin would re-encode its slice with
the block codec — the load path below is where that swap goes.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import ray

from .. import bm25
from ..codec import decode_postings_batch
from ..config import DOCLEN_TERM
from ..tokenizer import term_shard_one
from .build import index_stats, load_docmap
from .servecache import (
    CappedLRU,
    RequestCache,
    champion_topk,
    dense_combine,
    fused_combine_rank,
    env_cap,
    reader_cpus,
    scores_at,
)
from .query import tokenize_query


# max_restarts/max_task_retries: a crashed reader actor restarts and
# reloads its shard from the committed index, and the in-flight method
# call re-executes transparently — the serving-layer analogue of the
# reference's ES-client reconnect (readers are stateless views over
# durable segments, so restart = reread).
@ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
class GridCellReader:
    """One (term shard, doc partition) cell."""

    def __init__(self, index_dir: str, shard: int, doc_part: int,
                 n_doc_parts: int):
        st = index_stats(index_dir)
        self.n_docs = int(st["n_docs"])
        self.avgdl = float(st["avgdl"]) if st["avgdl"] else 1.0
        self.doc_part = doc_part
        self.n_doc_parts = n_doc_parts
        self.terms: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        t = pq.read_table(os.path.join(index_dir, "segments",
                                       f"shard-{shard:04d}.parquet"))
        # the whole shard in one batched decode, then this stripe's rows:
        # list i keeps rows [kept[starts[i]], kept[starts[i + 1]])
        starts, docs, tfs = decode_postings_batch(
            t["postings"], np.arange(t.num_rows))
        mask = docs % n_doc_parts == doc_part
        kept = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        docs, tfs = docs[mask], tfs[mask]
        bounds = kept[starts].tolist()
        for i, (term, df) in enumerate(zip(t["term"].to_pylist(),
                                           t["df"].to_pylist())):
            lo, hi = bounds[i], bounds[i + 1]
            if term != DOCLEN_TERM and hi > lo:
                # global df rides along: idf must see the whole corpus
                self.terms[term] = (int(df), docs[lo:hi], tfs[lo:hi])
        _doc_ids, lens = load_docmap(index_dir)
        # own stripe only: ordinal p, p+P, p+2P, ... → dense local index
        self.dl_lens = lens[doc_part::n_doc_parts].astype(np.float64)
        self.doc_ids = _doc_ids[doc_part::n_doc_parts]
        # per-term stripe scores cache (deterministic per corpus; see
        # ShardReader._scored) — skips the per-query tf_weight over a
        # head term's stripe. LRU capped by cached score count.
        self._scores: CappedLRU = CappedLRU(
            env_cap("GRAFT_CELL_HOT_SCORES", 8_000_000),  # ≈64 MB per cell
            size_of=len)
        # champion lists for this cell's stripe (lazy impact ordering —
        # see servecache.champion_topk): a head term's stripe ranks once
        self._champ: CappedLRU = CappedLRU(
            env_cap("GRAFT_CELL_CHAMP_ROWS", 1_000_000),
            size_of=lambda v: max(1, len(v[0])))

    def _scored(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        hit = self.terms.get(term)
        if hit is None:
            return None
        df, docs, tfs = hit
        scores = self._scores.get(term)
        if scores is None:
            w = bm25.idf(self.n_docs, df)
            dls = self.dl_lens[docs // self.n_doc_parts]
            scores = self._scores.put(
                term, w * bm25.tf_weight(tfs, dls, self.avgdl))
        return docs, scores

    def topk_single(self, term: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Single-term top-k over THIS cell's doc stripe, ranked in the
        cell — per-doc scores are independent, so the global top-k is
        contained in the union of the stripes' top-ks and the driver
        merges P×k rows instead of a full head-term partial."""
        scored = self._scored(term)
        if scored is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs, scores = scored
        return champion_topk(
            self._champ, term, k,
            lambda kk: bm25.rank_topk(self.doc_ids, scores, kk,
                                      ords=docs // self.n_doc_parts))

    def topk_single_many(self, terms: list[str], k: int,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Batched ``topk_single`` over this cell's stripe (champion-
        cached) — k rows per term, the msearch fan-in path."""
        return {t: self.topk_single(t, k) for t in terms}

    def partial_scores(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for t in terms:
            scored = self._scored(t)
            if scored is not None:
                out[t] = scored
        return out

    def term_meta(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """term → (global df, CELL-local max tf); the driver maxes the
        local maxima across a shard's cells into the global bound."""
        out: dict[str, tuple[int, int]] = {}
        for t in terms:
            hit = self.terms.get(t)
            if hit is not None:
                df, _docs, tfs = hit
                out[t] = (int(df), int(tfs.max()) if len(tfs) else 0)
        return out

    def candidate_scores(self, terms: list[str], cand: np.ndarray,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term → (candidate ordinals hit, partials) for THIS cell's
        slice — sorted-array intersection against the decoded postings
        (cand sorted ascending)."""
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for t in terms:
            hit = self.terms.get(t)
            if hit is None:
                continue
            df, docs, tfs = hit
            docs, tfs = scores_at(docs, tfs, cand)
            if len(docs):
                w = bm25.idf(self.n_docs, df)
                dls = self.dl_lens[docs // self.n_doc_parts]
                out[t] = (docs, w * bm25.tf_weight(tfs, dls, self.avgdl))
        return out


class GridQueryEngine:
    """Scatter-gather top-k over the (shard × partition) cell grid."""

    def __init__(self, index_dir: str, n_doc_parts: int = 2,
                 cpus_per_reader: float | None = None):
        st = index_stats(index_dir)
        self.num_shards = int(st["num_term_shards"])
        self.n_docs = int(st["n_docs"])
        self.avgdl = float(st["avgdl"]) if st["avgdl"] else 1.0
        # ordinal → external id for the final rank (see ShardedQueryEngine)
        self._doc_ids, _lens = load_docmap(index_dir)
        self._dl_min = float(_lens.min()) if len(_lens) else 1.0
        # term → (df, max tf, MaxScore bound), or None for an unknown term
        self._meta_cache: dict[str, tuple[int, int, float] | None] = {}
        self._partials: CappedLRU = CappedLRU(
            env_cap("GRAFT_COORD_HOT_POSTINGS", 16_000_000),  # ≈256 MB
            size_of=lambda v: sum(len(d) for d, _s in v))
        # ES shard-request-cache role (see servecache.RequestCache)
        self._requests = RequestCache(env_cap("GRAFT_REQ_CACHE_ROWS",
                                              4_000_000))
        #: benches flip this off to expose the distinct-query steady state
        self.request_cache_enabled = True
        self.n_doc_parts = n_doc_parts
        n_cells = self.num_shards * n_doc_parts
        if cpus_per_reader is None:
            cpus_per_reader = reader_cpus(
                n_cells, ray.cluster_resources().get("CPU", 1.0))
        self.cells = {
            (s, p): GridCellReader.options(num_cpus=cpus_per_reader).remote(
                index_dir, s, p, n_doc_parts)
            for s in range(self.num_shards) for p in range(n_doc_parts)
        }

    def _scatter(self, method: str, terms: list[str], *args
                 ) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
        if method == "partial_scores":
            # coordinator-side hot-partial cache (see ShardedQueryEngine
            # ._scatter): deterministic per corpus, LRU postings-capped
            out: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
            missing = []
            for t in terms:
                hit = self._partials.get(t)
                if hit is not None:
                    out[t] = hit
                else:
                    missing.append(t)
            if missing:
                for t, slices in self._scatter_raw(method, missing,
                                                   *args).items():
                    out[t] = self._partials.put(t, slices)
            return out
        return self._scatter_raw(method, terms, *args)

    def _scatter_raw(self, method: str, terms: list[str], *args
                     ) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
        by_shard: dict[int, list[str]] = {}
        for t in terms:
            by_shard.setdefault(term_shard_one(t, self.num_shards), []).append(t)
        refs = [getattr(self.cells[s, p], method).remote(ts, *args)
                for s, ts in sorted(by_shard.items())
                for p in range(self.n_doc_parts)]
        out: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        for part in ray.get(refs):
            for t, ds in part.items():
                out.setdefault(t, []).append(ds)
        return out

    def _metas(self, terms: list[str]) -> dict[str, tuple[int, int, float]]:
        """(df, max_tf maxed over a shard's cells, MaxScore bound) per
        term, cached across queries (see ``ShardedQueryEngine._metas``)."""
        unknown = [t for t in terms if t not in self._meta_cache]
        if unknown:
            fetched: dict[str, tuple[int, int]] = {}
            by_shard: dict[int, list[str]] = {}
            for t in unknown:
                by_shard.setdefault(term_shard_one(t, self.num_shards), []).append(t)
            refs = [self.cells[s, p].term_meta.remote(ts)
                    for s, ts in sorted(by_shard.items())
                    for p in range(self.n_doc_parts)]
            for part in ray.get(refs):
                for t, (df, mtf) in part.items():
                    prev = fetched.get(t)
                    fetched[t] = (df, max(mtf, prev[1]) if prev else mtf)
            for t in unknown:
                m = fetched.get(t)
                self._meta_cache[t] = None if m is None else (
                    *m, bm25.term_bound(self.n_docs, m[0], m[1],
                                        self._dl_min, self.avgdl))
        return {t: m for t in terms if (m := self._meta_cache[t]) is not None}

    def _combine(self, terms: list[str],
                 by_term: dict[str, list[tuple[np.ndarray, np.ndarray]]],
                 ) -> tuple[np.ndarray, np.ndarray]:
        # identical combine to ShardedQueryEngine, via the shared dense
        # kernel: a doc appears in exactly one stripe per term, so the
        # per-doc addition order IS term order — bit-identical scores
        return dense_combine(self, self.n_docs, terms,
                             lambda t: by_term.get(t, ()))

    def topk(self, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Distributed MaxScore over the cell grid — the same two-phase
        plan as ``ShardedQueryEngine.topk`` (essential scatter →
        candidate-only tail), with per-term bounds maxed across a
        shard's cells. Bit-identical to the single reader on every
        path."""
        terms = tokenize_query(query)
        metas = self._metas(terms)
        live = [t for t in terms if t in metas]
        if not live:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if not self.request_cache_enabled:
            return self._topk_impl(live, metas, k)
        key = RequestCache.key(live, k)
        if (hit := self._requests.get(key)) is not None:
            return hit[0].copy(), hit[1].copy()   # k rows; copy guards callers
        ids, scores = self._topk_impl(live, metas, k)
        self._requests.put(key, (ids.copy(), scores.copy()))
        return ids, scores

    def _topk_impl(self, live: list[str], metas: dict, k: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
        if len(live) == 1:
            # one term → each stripe ranks locally, the driver merges
            # P×k pre-ranked rows (re-ranking rounded scores is
            # idempotent, so the merge is exact)
            t = live[0]
            s = term_shard_one(t, self.num_shards)
            parts = ray.get([self.cells[s, p].topk_single.remote(t, k)
                             for p in range(self.n_doc_parts)])
            ids = np.concatenate([p[0] for p in parts])
            scores = np.concatenate([p[1] for p in parts])
            return bm25.rank_topk(ids, scores, k)
        ubs = {t: metas[t][2] for t in live}
        by_ub = sorted(live, key=lambda t: (-ubs[t], t))
        essential = [t for t in by_ub if ubs[t] > 0.25 * ubs[by_ub[0]]]
        tail = [t for t in by_ub if ubs[t] <= 0.25 * ubs[by_ub[0]]]

        if not tail:
            uniq, sums = self._combine(live, self._scatter("partial_scores", live))
            return bm25.rank_topk(self._doc_ids, sums, k, ords=uniq)

        ess_parts = self._scatter("partial_scores", essential)
        uniq, sums = self._combine(essential, ess_parts)
        tail_ub = float(sum(ubs[t] for t in tail))
        margin = 1e-6
        kth = (float(np.partition(sums, len(sums) - k)[len(sums) - k])
               if len(uniq) >= k else 0.0)
        cand = uniq[sums + tail_ub >= kth - margin] if kth > 0.0 else uniq
        if kth <= 0.0 or tail_ub >= kth - margin or len(cand) > max(64, 8 * k):
            by_term = {**ess_parts, **self._scatter("partial_scores", tail)}
            uniq, sums = self._combine(live, by_term)
            return bm25.rank_topk(self._doc_ids, sums, k, ords=uniq)

        tail_parts = self._scatter("candidate_scores", tail, cand)
        cand_scores = np.zeros(len(cand), dtype=np.float64)
        for t in live:                          # sorted-term order
            slices = ess_parts.get(t) if t in essential else tail_parts.get(t)
            if not slices:
                continue
            for docs, scores in slices:         # doc-disjoint slices
                if t in essential:
                    docs, scores = scores_at(docs, scores, cand)
                j = np.searchsorted(cand, docs)
                cand_scores[j] += scores
        return bm25.rank_topk(self._doc_ids, cand_scores, k, ords=cand)

    def msearch(self, queries: list[str], k: int = 10,
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """ES ``_msearch`` over the cell grid — one fused partial
        scatter for the union of terms, per-query combine + rank; see
        ``ShardedQueryEngine.msearch`` for the bit-identity argument."""
        toks = [tokenize_query(q) for q in queries]
        all_terms = sorted({t for ts in toks for t in ts})
        metas = self._metas(all_terms)
        lives = [[t for t in ts if t in metas] for ts in toks]
        out: list = [None] * len(queries)
        need: list[int] = []
        for i, live in enumerate(lives):
            if not live:
                out[i] = (np.empty(0, np.int64), np.empty(0, np.float64))
            elif self.request_cache_enabled and (
                    hit := self._requests.get(RequestCache.key(live, k))
                  ) is not None:               # request-cache hit: O(k)
                out[i] = (hit[0].copy(), hit[1].copy())
            else:
                need.append(i)
        # single-term queries rank on their stripes (champion-cached,
        # one batched RPC per cell); the driver merges P×k pre-ranked
        # rows per term — re-ranking rounded scores is idempotent
        singles = sorted({lives[i][0] for i in need if len(lives[i]) == 1})
        single_res: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        if singles:
            by_shard: dict[int, list[str]] = {}
            for t in singles:
                by_shard.setdefault(
                    term_shard_one(t, self.num_shards), []).append(t)
            refs = [self.cells[s, p].topk_single_many.remote(ts, k)
                    for s, ts in sorted(by_shard.items())
                    for p in range(self.n_doc_parts)]
            for part in ray.get(refs):
                for t, ds in part.items():
                    single_res.setdefault(t, []).append(ds)
        union = sorted({t for i in need if len(lives[i]) > 1
                        for t in lives[i]})
        by_term = self._scatter("partial_scores", union) if union else {}
        jobs: list[tuple[int, list[str]]] = []
        for i in need:
            if len(lives[i]) == 1:
                live = lives[i]
                parts = single_res.get(live[0], [])
                if parts:
                    ids = np.concatenate([p[0] for p in parts])
                    scores = np.concatenate([p[1] for p in parts])
                    res = bm25.rank_topk(ids, scores, k)
                else:
                    res = (np.empty(0, np.int64), np.empty(0, np.float64))
                self._requests.put(RequestCache.key(live, k),
                                   (res[0].copy(), res[1].copy()))
                out[i] = res
                continue
            live = [t for t in lives[i] if t in by_term]
            if not live:
                out[i] = (np.empty(0, np.int64), np.empty(0, np.float64))
            else:
                jobs.append((i, live))
        # per-query combine + rank on the coordinator combine pool —
        # see ShardedQueryEngine.msearch / servecache.fused_combine_rank
        for i, live, res in fused_combine_rank(
                self, self.n_docs, jobs, lambda t: by_term.get(t, ()),
                k, self._doc_ids):
            self._requests.put(RequestCache.key(live, k),
                               (res[0].copy(), res[1].copy()))
            out[i] = res
        return out

    def shutdown(self) -> None:
        for c in self.cells.values():
            ray.kill(c)
        self.cells = {}
