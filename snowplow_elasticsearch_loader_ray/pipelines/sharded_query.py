"""Scatter-gather BM25 serving over pools of reader actors.

The scale path for query serving. The corpus is cut two ways: terms
into the index's term shards, docs into ``n_doc_parts`` ordinal
stripes. Each stripe has its own pool of reader actors, one per CPU
and at most one per shard (``servecache.reader_pool``): actor ``a`` of
``n`` owns term shards ``a, a+n, …`` restricted to its stripe. A
reader actor (``ShardReader``) is the single-process ``IndexReader``
in an actor, built over just those shards and that stripe: it loads
ONLY those postings plus the (small relative to postings) global
doclen/stats tables, once, and scores them the way the single reader
does. A query's terms scatter to the actors that own them in every
stripe (``servecache.group_by_reader``: the build's
shard routing, then shard → actor), one RPC per actor touched; each
actor returns its stripe's slice of partial per-doc scores for its
terms, and the coordinator combines the slices and ranks. With one
stripe (the default) this is the plain term-sharded plane; with P
stripes each actor holds about ``1/P`` of its shards' postings.

Scores are bit-identical to the single reader, not merely
rank-identical: each term's partial is computed with the same floats,
partials are summed in sorted-term order (stripes are doc-disjoint, so
a doc gets at most one slice per term and its addition order IS term
order), and the rank uses the same ``(round(score, 7) desc, doc_id
asc)`` rule.

Partitioning assumptions (documented per SURVEY.md custom-op rule):
- terms route by ``term_shard_one(term) % num_term_shards`` — identical
  at build and query time — and shards map to actors by ``shard % n``;
  term sets are disjoint across shards, so an actor keys the postings
  of all its shards by term in one dict;
- docs route by ORDINAL STRIPE (``ord % n_doc_parts``). Any modulus
  works, because a reader restricts its shards at load
  (``query._stripe``): one batched decode per shard, masked to the
  stripe and re-encoded with the segment writer's kernel, so a reader
  holds its stripe encoded (2.7 B/posting at P = 3 on a 55k-doc
  synthetic index, where decoded arrays take 12). With one stripe the
  segments load as written. A production layout would instead use the
  docmap parts' contiguous ordinal RANGES, so each reader opened only
  its range's docmap files;
- BM25 idf uses the GLOBAL df (the segment's ``df`` column), never a
  stripe's list length, and a term's MaxScore bound uses the largest
  of its stripes' max tfs;
- every reader actor holds the full ordinal-indexed doclen array (the
  ``docmap/`` tables, ~24 B/doc total) so partial scoring is a direct
  gather by global ordinal;
- partials are keyed by doc ORDINAL; the driver combines on ordinals
  and maps the (pre-cut, ~k-sized) survivors to external doc_ids via
  the docmap at ranking time.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import ray

from .. import bm25
from .build import index_stats, load_docmap
from .query import IndexReader, isin_sorted, score_generation, tokenize_query
from .servecache import (
    CappedLRU,
    RequestCache,
    champion_topk,
    dense_combine,
    fused_combine_rank,
    env_cap,
    group_by_reader,
    reader_cpus,
    reader_pool,
    scored_lru,
    scores_at,
    stop_actors,
)


# max_restarts/max_task_retries: a crashed reader actor restarts and
# reloads its shards from the committed index, and the in-flight method
# call re-executes transparently — the serving-layer analogue of the
# reference's ES-client reconnect (readers are stateless views over
# durable segments, so restart = reread).
@ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
class ShardReader:
    """An ``IndexReader`` over some term shards (default: every shard)
    in one doc stripe, served as an actor: ``self.r = IndexReader(
    index_dir, shards, doc_part, n_doc_parts)``. Scored lists, bounds
    and candidate rescores are the reader's; only two caches that serve
    remote callers live here: the champion lists of single-term top-k
    (``servecache.champion_topk``) and the raw-tf lists of cross-field
    scoring (``tf_partials``). The live chain's sharded searcher runs
    one over every shard of each generation (``doc_ids``, ``dfs``,
    ``score_generation`` and ``live_count``)."""

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 doc_part: int = 0, n_doc_parts: int = 1):
        self.r = IndexReader(index_dir, shards, doc_part, n_doc_parts)
        n = len(self.r.segments)
        # champion lists (lazy impact ordering): per-term ranked
        # top-CHAMP_K prefix — a head term's single-term top-k ranks
        # its df-sized list ONCE, then serves O(k). See
        # servecache.champion_topk for the exactness argument.
        self._champ: CappedLRU = CappedLRU(
            n * env_cap("GRAFT_SHARD_CHAMP_ROWS", 1_000_000),
            size_of=lambda v: max(1, len(v[0])))
        self._hot_tf: CappedLRU = scored_lru(n)

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return self.r.cache_stats()

    def topk_single(self, term: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Single-term top-k over this stripe, ranked ON the shard —
        ships k rows instead of a full head-term partial (df×16 B; the
        p99 driver at 10^6+ docs was exactly this ship + driver-side
        combine). Identical floats and rank rule to the driver path:
        the combine of one term is the identity."""
        scored = self.r.scored(term)
        if scored is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs, scores = scored
        return champion_topk(
            self._champ, term, k,
            lambda kk: bm25.rank_topk(self.r.dl_doc_ids, scores, kk,
                                      ords=docs))

    def topk_single_many(self, terms: list[str], k: int,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Batched ``topk_single`` — one RPC ranks every requested term
        on its owning shard (champion-cached), shipping k rows per term
        instead of df-sized partials."""
        return {t: self.topk_single(t, k) for t in terms}

    def tf_partials(self, terms: list[str]
                    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term → (doc ordinals, RAW tf values) — the un-weighted
        postings a cross-field scorer (combined_fields/BM25F) combines
        BEFORE any idf/saturation, since those apply to the combined
        statistics, not per field. LRU-cached like the scored lists."""
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for t in terms:
            hit = self._hot_tf.get(t)
            if hit is None:
                if (pl := self.r.postings(t)) is None:
                    continue
                docs, tfs = pl.decode_all()
                hit = self._hot_tf.put(t, (docs, tfs.astype(np.float64)))
            out[t] = hit
        return out

    def partial_scores(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term → (doc ordinals, per-doc partial scores) for this
        actor's terms (``IndexReader.scored``)."""
        return {t: s for t in terms if (s := self.r.scored(t)) is not None}

    def term_meta(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """term → (index-wide df, this stripe's max tf) for the driver's
        MaxScore upper bounds — block-max metadata only, no posting
        decode."""
        return {t: (self.r.df(t), int(pl.max_tf.max()) if pl.n_blocks else 0)
                for t in terms if (pl := self.r.postings(t)) is not None}

    def candidate_scores(self, terms: list[str], cand: np.ndarray,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term → (candidate ordinals hit, partial scores)
        (``IndexReader.partials_at``) — the distributed tail-term
        rescore of the driver-side MaxScore plan. ``cand`` sorted
        ascending."""
        return {t: hit for t in terms
                if (hit := self.r.partials_at(t, cand)) is not None
                and len(hit[0])}

    def doc_ids(self) -> np.ndarray:
        return self.r.dl_doc_ids

    def dfs(self, terms: list[str]) -> list[int]:
        return [self.r.df(t) for t in terms]

    def score_generation(self, live: list[str], dfs: dict[str, int],
                         n_docs: int, avgdl: float, sup: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        return score_generation(self.r, live, dfs, n_docs, avgdl, sup)

    def live_count(self, sup: np.ndarray) -> int:
        return int((~isin_sorted(sup, self.r.dl_doc_ids)).sum())


def _merge_ranked(parts: list[tuple[np.ndarray, np.ndarray]], k: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One term's top k from its stripes' pre-ranked top ks: per-doc
    scores are independent, so the global top k lies in their union,
    and re-ranking rounded scores is idempotent."""
    return bm25.rank_topk(np.concatenate([p[0] for p in parts]),
                          np.concatenate([p[1] for p in parts]), k)


class ShardedQueryEngine:
    """Scatter-gather top-k over ``n_doc_parts`` doc stripes, each
    served by a pool of ShardReader actors (one per CPU, at most one
    per term shard; see ``servecache.reader_pool``)."""

    def __init__(self, index_dir: str, n_doc_parts: int = 1,
                 cpus_per_reader: float | None = None):
        if n_doc_parts < 1:
            raise ValueError(f"n_doc_parts must be >= 1, got {n_doc_parts}")
        st = index_stats(index_dir)
        self.num_shards = int(st["num_term_shards"])
        self.n_docs = int(st["n_docs"])
        self.avgdl = float(st["avgdl"]) if st["avgdl"] else 1.0
        self.n_doc_parts = n_doc_parts
        # ordinal → external id for the final (pre-cut, ~k-sized) rank;
        # held whole here (8 B/doc) — a 10^12-doc deployment keeps this
        # doc-partitioned and fetches survivors' ids from the owning
        # partition instead
        self.index_dir = index_dir
        self._doc_ids, self._dl_lens = load_docmap(index_dir)
        _lens = self._dl_lens
        self._dl_min = float(_lens.min()) if len(_lens) else 1.0
        # bounded term-meta cache (LRU): at web vocab an unbounded dict
        # grows with every distinct query term ever seen
        # term → (df, max tf, MaxScore bound), or None for an unknown term
        self._meta_cache: "OrderedDict[str, tuple[int, int, float] | None]" = \
            OrderedDict()
        self._meta_cache_cap = 200_000
        # hot-partial cache (see _scatter): zero-copy plasma-backed
        # arrays, postings-capped
        self._partials: CappedLRU = CappedLRU(
            env_cap("GRAFT_COORD_HOT_POSTINGS", 16_000_000),  # ≈256 MB
            size_of=lambda v: sum(len(d) for d, _s in v))
        # ES shard-request-cache role: final (ids, rounded scores) per
        # normalized (live terms, k) — sound because this engine serves
        # one committed immutable index dir (see servecache.RequestCache)
        self._requests = RequestCache(env_cap("GRAFT_REQ_CACHE_ROWS",
                                              4_000_000))
        #: benches flip this off to expose the distinct-query (champion
        #: list / dense-combine) steady state under repeated traffic
        self.request_cache_enabled = True
        # one pool per stripe, fitted into the current cluster (a reader
        # is mostly waiting between queries; on a real cluster size
        # this to cores/shards-per-node); the reader of stripe p and
        # pool slot a is readers[p * pool + a]
        cpus = ray.cluster_resources().get("CPU", 1.0)
        groups = reader_pool(self.num_shards, cpus)[0]
        self._pool = len(groups)
        if cpus_per_reader is None:
            cpus_per_reader = reader_cpus(n_doc_parts * self._pool, cpus)
        self.readers = [
            ShardReader.options(num_cpus=cpus_per_reader).remote(
                index_dir, shards, p, n_doc_parts)
            for p in range(n_doc_parts) for shards in groups
        ]

    def _scatter(self, method: str, terms: list[str], *args
                 ) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
        if method == "partial_scores":
            # coordinator-side hot-partial cache: a term's (ordinals,
            # partial scores) is deterministic per corpus, so re-fetching
            # a head term's df-sized partial every query only re-ships
            # the same 16 B/posting over the object store. LRU capped by
            # postings, same policy as the shard-side cache — the ES
            # query-node cache role.
            out = {}
            missing = []
            for t in terms:
                hit = self._partials.get(t)
                if hit is not None:
                    out[t] = hit
                else:
                    missing.append(t)
            if missing:
                for t, ds in self._scatter_raw(method, missing, *args).items():
                    out[t] = self._partials.put(t, ds)
            return out
        return self._scatter_raw(method, terms, *args)

    def _scatter_raw(self, method: str, terms: list[str], *args
                     ) -> dict[str, list]:
        """term → its answers from the stripes that hold it, in stripe
        order (for ``partial_scores``: doc-disjoint slices)."""
        n = self._pool
        refs = [getattr(self.readers[p * n + a], method).remote(ts, *args)
                for a, ts in group_by_reader(terms, self.num_shards, n)
                for p in range(self.n_doc_parts)]
        out: dict[str, list] = {}
        for part in ray.get(refs):
            for t, v in part.items():
                out.setdefault(t, []).append(v)
        return out

    def _metas(self, terms: list[str]) -> dict[str, tuple[int, int, float]]:
        """(df, max_tf over the stripes, MaxScore bound) per term,
        cached across queries (metadata-only shard round for terms not
        yet seen; the bound is ``bm25.term_bound``, the single reader's
        ``IndexReader.bound``)."""
        unknown = [t for t in terms if t not in self._meta_cache]
        if unknown:
            fetched = self._scatter("term_meta", unknown)
            for t in unknown:
                m = fetched.get(t)
                if m is None:
                    self._meta_cache[t] = None
                    continue
                df, mtf = m[0][0], max(x[1] for x in m)
                self._meta_cache[t] = (df, mtf, bm25.term_bound(
                    self.n_docs, df, mtf, self._dl_min, self.avgdl))
        out = {}
        for t in terms:
            self._meta_cache.move_to_end(t)          # LRU touch
            if (m := self._meta_cache[t]) is not None:
                out[t] = m
        while len(self._meta_cache) > self._meta_cache_cap:
            self._meta_cache.popitem(last=False)
        return out

    def _combine(self, terms: list[str],
                 by_term: dict[str, list[tuple[np.ndarray, np.ndarray]]],
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Per-doc sums in GLOBAL sorted-term order via the shared
        dense-accumulator kernel (``servecache.dense_combine``) —
        bit-identical float summation order to the single reader."""
        return dense_combine(self, self.n_docs, terms,
                             lambda t: by_term.get(t, ()))

    def _topk_singles(self, terms: list[str], k: int,
                      ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Single-term top-k per term: each stripe ranks on the actor
        that owns the term (champion-cached, k rows shipped per term,
        one batched RPC per actor), and the coordinator merges the
        stripes' rows (``_merge_ranked``)."""
        return {t: _merge_ranked(parts, k) for t, parts in
                self._scatter("topk_single_many", terms, k).items()}

    def topk(self, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Distributed MaxScore: the driver splits terms into essential
        (high upper bound) and tail (head/stopword) sets using cached
        per-term (df, max_tf) metadata; phase 1 scatters only the
        essential terms, and if the tail's summed upper bound cannot
        disturb the essential kth (rounding-safe margin), phase 2 asks
        the tail terms' shards for CANDIDATE-ONLY contributions
        (block-pruned decode) instead of full postings — the stopword
        decode never happens. Falls back to the full one-phase scatter
        whenever pruning cannot pay. Scores are bit-identical to the
        single reader either way (same per-doc float summation order,
        same margins as ``query.score_maxscore``)."""
        terms = tokenize_query(query)         # sorted, deduped
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
            return self._topk_singles(live, k)[live[0]]
        ubs = {t: metas[t][2] for t in live}
        by_ub = sorted(live, key=lambda t: (-ubs[t], t))
        max_ub = ubs[by_ub[0]]
        essential = [t for t in by_ub if ubs[t] > 0.25 * max_ub]
        tail = [t for t in by_ub if ubs[t] <= 0.25 * max_ub]

        if not tail:                           # comparable impacts: full path
            by_term = self._scatter("partial_scores", live)
            uniq, sums = self._combine(live, by_term)
            return bm25.rank_topk(self._doc_ids, sums, k, ords=uniq)

        ess_parts = self._scatter("partial_scores", essential)
        uniq, sums = self._combine(essential, ess_parts)
        tail_ub = float(sum(ubs[t] for t in tail))
        margin = 1e-6
        if len(uniq) >= k:
            kth = float(np.partition(sums, len(sums) - k)[len(sums) - k])
        else:
            kth = 0.0
        cand = uniq[sums + tail_ub >= kth - margin] if kth > 0.0 else uniq
        if kth <= 0.0 or tail_ub >= kth - margin or len(cand) > max(64, 8 * k):
            # pruning cannot pay (or isn't safe): fetch the tail fully
            tail_parts = self._scatter("partial_scores", tail)
            by_term = {**ess_parts, **tail_parts}
            uniq, sums = self._combine(live, by_term)
            return bm25.rank_topk(self._doc_ids, sums, k, ords=uniq)

        # phase 2: candidate-only tail contributions, block-pruned
        tail_parts = self._scatter("candidate_scores", tail, cand)
        # final rescore in sorted-term order over the candidate set:
        # essential arrays filter to candidates, tails are already
        # candidate-only — identical float order to the single reader
        cand_scores = np.zeros(len(cand), dtype=np.float64)
        for t in live:                         # sorted-term order
            is_ess = t in essential
            for docs, scores in (ess_parts if is_ess else tail_parts).get(t, ()):
                if is_ess:
                    docs, scores = scores_at(docs, scores, cand)
                cand_scores[np.searchsorted(cand, docs)] += scores
        return bm25.rank_topk(self._doc_ids, cand_scores, k, ords=cand)

    def match_scores(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """All matching (external doc_ids, raw BM25 sums) — the full
        TAAT result through the scatter plane (bit-identical to the
        single reader's ``_taat_scores``: same partials, same
        sorted-term dense combine). The multi-field engine's per-field
        scorer."""
        terms = tokenize_query(query)
        by_term = self._scatter("partial_scores", terms)
        live = [t for t in terms if t in by_term]
        if not live:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        uniq, sums = self._combine(live, by_term)
        return self._doc_ids[uniq], sums

    def _match_ords(self, query: str) -> np.ndarray:
        """Full match-set ordinals (postings union across the owning
        shards and stripes) — the aggregation input. Rides the
        coordinator's hot partial cache, so a facet after a topk on the
        same terms ships nothing."""
        terms = sorted(set(tokenize_query(query)))
        by_term = self._scatter("partial_scores", terms)
        hits = [d for slices in by_term.values() for d, _s in slices
                if len(d)]
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hits))

    def facet_lang_counts(self, query: str) -> dict[str, int]:
        """Distributed ES ``terms`` aggregation on the ``lang``
        doc-value: matched ordinals scatter-gathered from the term
        shards, lang keys by coordinator-side ordinal gather —
        bit-identical to the single reader's facet (pinned in
        tests/test_sharded_query.py)."""
        langs = getattr(self, "_dl_langs", None)
        if langs is None:
            from .build import load_docvalues

            langs = load_docvalues(self.index_dir, "lang")
            if langs is None:
                raise ValueError("index has no 'lang' doc-value")
            self._dl_langs = langs
        ords = self._match_ords(query)
        if not len(ords):
            return {}
        vals = langs[ords]
        vals = vals[vals != None]  # noqa: E711 — ES terms aggs skip
        u, c = np.unique(vals, return_counts=True)  # missing-field docs
        return dict(zip(u.tolist(), c.tolist()))

    def facet_doclen_stats(self, query: str) -> dict:
        """Distributed ES ``stats`` aggregation on doclen over the full
        match set — same contract as the single reader's. Lens come
        from the docmap already loaded at construction (no second
        corpus-sized read)."""
        lens = self._dl_lens
        ords = self._match_ords(query)
        if not len(ords):
            return {"n_docs": 0, "min_dl": 0, "max_dl": 0, "sum_dl": 0,
                    "avg_dl": 0.0}
        dl = lens[ords].astype(np.int64)
        return {
            "n_docs": int(len(ords)),
            "min_dl": int(dl.min()),
            "max_dl": int(dl.max()),
            "sum_dl": int(dl.sum()),
            "avg_dl": float(dl.sum()) / float(len(ords)),
        }

    def msearch(self, queries: list[str], k: int = 10,
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """ES ``_msearch``: N queries through ONE metadata round and
        ONE partial scatter for the union of their (uncached) terms,
        then per-query combine + rank on the coordinator — the
        round-trip count no longer scales with the query count.
        Results are bit-identical to per-query ``topk``: same partials,
        same sorted-term summation order (and topk's two-phase plan is
        itself pinned bit-identical to this full path)."""
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
        # single-term queries rank on their owning actors — never a
        # df-sized partial for a fused head-term lookup
        singles = sorted({lives[i][0] for i in need if len(lives[i]) == 1})
        single_res = self._topk_singles(singles, k) if singles else {}
        union = sorted({t for i in need if len(lives[i]) > 1
                        for t in lives[i]})
        by_term = self._scatter("partial_scores", union) if union else {}
        jobs: list[tuple[int, list[str]]] = []
        for i in need:
            if len(lives[i]) == 1:             # pre-ranked on the shards
                live = lives[i]
                res = single_res.get(live[0], (np.empty(0, np.int64),
                                               np.empty(0, np.float64)))
                self._requests.put(RequestCache.key(live, k),
                                   (res[0].copy(), res[1].copy()))
                out[i] = res
                continue
            live = [t for t in lives[i] if t in by_term]
            if not live:
                out[i] = (np.empty(0, np.int64), np.empty(0, np.float64))
            else:
                jobs.append((i, live))
        # multi-term combines + ranks run on the coordinator's combine
        # thread pool (GIL-releasing numpy; per-thread accumulators;
        # bit-identical per query) — cache puts stay on this thread
        for i, live, res in fused_combine_rank(
                self, self.n_docs, jobs, lambda t: by_term.get(t, ()),
                k, self._doc_ids):
            self._requests.put(RequestCache.key(live, k),
                               (res[0].copy(), res[1].copy()))
            out[i] = res
        return out

    def shutdown(self) -> None:
        stop_actors(self.readers)
        self.readers = []
