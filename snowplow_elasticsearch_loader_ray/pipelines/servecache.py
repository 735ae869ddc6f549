"""Bounded serving-side caches shared by the query planes.

A term's decoded postings / partial scores are deterministic per
(term, corpus), so caching them can never change a score bit — the
only question is the memory bound. ``CappedLRU`` caps by a caller-
supplied SIZE of each value (postings count here: decoded docs +
float64 partials cost 16 B/posting) and evicts least-recently-USED,
not first-inserted: under a Zipf query mix the hot head term must
survive a stream of cold one-off terms.

A reader (``query.IndexReader``, in-process or inside a reader actor)
finds a term's scored list in three layers: the short table
(``ShortLists``: every one-block list, decoded and weighed in one
batched pass on the reader's first lookup, so a cold tail term costs
a lookup), then the LRU of longer lists (``scored_lru``), then a
decode + weigh that fills the LRU (``scored_list``). Every layer computes the same floats
(``bm25_partials``'s operations).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Generic, TypeVar

from ..tokenizer import term_shard_one

V = TypeVar("V")


class CappedLRU(Generic[V]):
    """LRU keyed by term, capped by the SUM of per-value sizes; counts
    its hits, misses and evictions (``stats()``)."""

    def __init__(self, cap: int, size_of: Callable[[V], int]):
        self._d: "OrderedDict[str, V]" = OrderedDict()
        self._cap = cap
        self._size_of = size_of
        self._total = 0
        self.hits = self.misses = self.evictions = 0

    def get(self, key: str) -> V | None:
        hit = self._d.get(key)
        if hit is not None:
            self._d.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def put(self, key: str, value: V) -> V:
        old = self._d.pop(key, None)
        if old is not None:
            self._total -= self._size_of(old)
        self._d[key] = value
        self._total += self._size_of(value)
        while self._total > self._cap and len(self._d) > 1:
            _, v = self._d.popitem(last=False)
            self._total -= self._size_of(v)
            self.evictions += 1
        return value

    def __len__(self) -> int:
        return len(self._d)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._d),
                "size": self._total, "cap": self._cap}


def env_cap(var: str, default: int) -> int:
    return int(os.environ.get(var, default))


def scored_lru(n_shards: int) -> CappedLRU:
    """A reader's term → (doc ordinals, per-doc values) cache over
    ``n_shards`` term shards, capped at ``GRAFT_SHARD_HOT_POSTINGS``
    decoded postings per shard (≈128 MB/shard at the default, 16 B
    per posting) — the bound per shard does not depend on how many
    shards one reader holds."""
    return CappedLRU(n_shards * env_cap("GRAFT_SHARD_HOT_POSTINGS",
                                        8_000_000),
                     size_of=lambda v: len(v[0]))


def bm25_partials(reader, df: int, docs, tfs):
    """One term's BM25 partials at ``docs`` (ordinals, with their
    ``tfs``): ``idf(n_docs, df) × tf_weight(tf, doclen, avgdl)`` under
    ``reader``'s ``n_docs``, ``avgdl`` and ordinal-indexed ``dl_lens``.
    The one copy of the formula behind both readers' scored lists and
    their candidate rescores, so every path computes the same floats."""
    from .. import bm25

    return bm25.idf(reader.n_docs, df) * bm25.tf_weight(
        tfs, reader.dl_lens[docs], reader.avgdl)


def scored_list(reader, pl, df: int):
    """A posting list fully decoded and weighted under its term's
    index-wide ``df`` (a doc-stripe reader's list holds fewer
    postings): (ordinals, partials), both read-only — a cache hands the
    same arrays to every caller."""
    docs, tfs = pl.decode_all()
    part = bm25_partials(reader, df, docs, tfs)
    docs.flags.writeable = part.flags.writeable = False
    return docs, part


class ShortLists:
    """Every one-block posting list of a reader's segments, decoded and
    weighed in one pass: term → (ordinals, partials) as two slices of flat,
    read-only arrays, the same floats ``scored_list`` computes.

    ``reader`` is the ``query.IndexReader`` that builds the table on its
    first lookup, and ``segments`` yields ``(terms, dfs, postings)`` per
    segment file it loaded: its term strings, their index-wide dfs (a
    doc-stripe reader's lists are shorter than their df) and its
    ``postings`` column. One ``decode_postings_batch`` per segment
    decodes the rows ``codec.one_block_rows`` picks, and one pass weighs
    them all: each distinct df gets its idf from the scalar ``bm25.idf``
    (in a whole index a one-block list's df is its length, so at most
    ``block_size`` values), and the partials are then
    ``idf × tf_weight`` over the flat arrays, the same IEEE operations
    per posting as ``bm25_partials``. Memory is 16 B per posting, at
    most ``16 × block_size`` B per term.
    """

    def __init__(self, reader, segments):
        import numpy as np

        from .. import bm25
        from ..codec import decode_postings_batch, one_block_rows
        from ..config import DOCLEN_TERM

        names: list[str] = []
        lens, docs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        tfs, row_dfs = [np.empty(0, np.int32)], [np.empty(0, np.int64)]
        for terms, dfs, postings in segments:
            rows = [r for r in one_block_rows(postings).tolist()
                    if terms[r] != DOCLEN_TERM]
            starts, d, t = decode_postings_batch(postings, rows)
            names += [terms[r] for r in rows]
            lens.append(np.diff(starts))
            row_dfs.append(dfs[rows])
            docs.append(d)
            tfs.append(t)
        n = np.concatenate(lens)
        # list i is rows [_starts[i], _starts[i + 1]); plain ints slice
        # faster than numpy scalars
        self._starts = [0] + np.cumsum(n).tolist()
        self._row = dict(zip(names, range(len(names))))
        self.docs = np.concatenate(docs)
        tfs = np.concatenate(tfs)
        dfs, inv = np.unique(np.concatenate(row_dfs), return_inverse=True)
        idf = np.array([bm25.idf(reader.n_docs, int(df)) for df in dfs],
                       dtype=np.float64)
        self.partials = np.repeat(idf[inv], n) * bm25.tf_weight(
            tfs, reader.dl_lens[self.docs], reader.avgdl)
        self.docs.flags.writeable = self.partials.flags.writeable = False

    def get(self, term: str):
        """The term's (ordinals, partials) if its list is one block, else
        None — two slices, no decode."""
        i = self._row.get(term)
        if i is None:
            return None
        lo, hi = self._starts[i], self._starts[i + 1]
        return self.docs[lo:hi], self.partials[lo:hi]

    def stats(self) -> dict[str, int]:
        return {"terms": len(self._row), "postings": len(self.docs),
                "bytes": self.docs.nbytes + self.partials.nbytes}


def scores_at(docs, values, cand):
    """The rows of a per-doc list (``docs`` ascending, ``values``:
    partials or tfs) whose doc is in ``cand`` (ascending, unique): one
    ``searchsorted`` probe per candidate — the candidate intersect of
    every MaxScore rescore. Returns (docs, values), ascending."""
    import numpy as np

    pos = np.searchsorted(docs, cand)
    sel = pos < len(docs)
    sel[sel] = docs[pos[sel]] == cand[sel]
    j = pos[sel]
    return docs[j], values[j]


def reader_cpus(n_readers: int, cluster_cpus: float) -> float:
    """CPU reservation of one serving actor in a pool of ``n_readers``:
    80% of the cluster's CPUs shared out, at most one each. A reader
    mostly waits between queries, so a small share is fine; a floor
    above ``0.8 × CPUs / readers`` is not — the actors past the
    cluster's CPUs would never schedule and their queries would hang."""
    return min(1.0, 0.8 * max(1.0, cluster_cpus) / max(1, n_readers))


def reader_pool(num_shards: int, cluster_cpus: float
                ) -> tuple[list[list[int]], float]:
    """Shard groups and per-actor CPU share of a term-shard reader pool.

    One actor per CPU, never more than one per shard: ``n = min(shards,
    CPUs)`` actors, actor ``a`` owning shards ``a, a+n, …`` — so shard
    ``s`` (and every term routed to it) lives on actor ``s % n``. A
    reader actor costs a worker process start (an interpreter plus the
    package import, and Ray starts them one at a time) while loading a
    shard costs milliseconds, so on a cluster smaller than the shard
    count one process serves several shards. With CPUs ≥ shards this is
    one actor per shard."""
    n = max(1, min(num_shards, int(cluster_cpus)))
    return ([list(range(a, num_shards, n)) for a in range(n)],
            reader_cpus(n, cluster_cpus))


def stop_actors(actors) -> None:
    """End serving actors for good. ``ray.kill`` alone races the
    caller's next call: one sent right after it can still run on the
    actor. A termination task queues behind every call already sent,
    so no later call can run; the kill then ends an actor stuck in a
    call."""
    import ray

    for a in actors:
        a.__ray_terminate__.remote()
        ray.kill(a)


def group_by_reader(terms, num_shards: int, n_readers: int
                    ) -> list[tuple[int, list[str]]]:
    """Terms grouped by the ``reader_pool`` actor that owns them (term
    shard ``s`` lives on actor ``s % n_readers``), in actor order — one
    RPC per actor a request touches."""
    by: dict[int, list[str]] = {}
    for t in terms:
        by.setdefault(term_shard_one(t, num_shards) % n_readers,
                      []).append(t)
    return sorted(by.items())


def dense_combine_into(acc, terms, slices_by_term):
    """Core of ``dense_combine`` over a caller-supplied zeroed buffer —
    the per-query work is pure GIL-releasing numpy, so ``msearch`` runs
    one of these per thread (see ``fused_combine_rank``)."""
    import numpy as np

    hit = False
    for t in terms:
        for docs, scores in slices_by_term(t):
            acc[docs] += scores
            hit = True
    if not hit:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    uniq = np.nonzero(acc)[0]
    sums = acc[uniq].copy()
    acc[uniq] = 0.0
    return uniq, sums


def dense_combine(owner, n_docs: int, terms, slices_by_term):
    """Per-doc partial sums through a dense ordinal accumulator cached
    on ``owner`` (the scatter-gather coordinator, ``ShardedQueryEngine``).

    One scatter-add per (term, doc-disjoint stripe slice), in sorted-term
    order; a doc appears at most once per term, so the per-doc addition
    order IS term order — the single reader's float summation order,
    bit-identical scores. Partials are strictly positive (idf > 0,
    tf_weight > 0), so the touched slots are exactly the nonzero slots:
    no argsort over concatenated partials (the former multi-head-term
    latency driver at 10^6 docs), one linear scan, and a slot-wise
    reset that leaves the buffer zeroed for the next query.
    """
    import numpy as np

    acc = getattr(owner, "_acc", None)
    if acc is None or len(acc) != n_docs:
        acc = owner._acc = np.zeros(n_docs, dtype=np.float64)
    return dense_combine_into(acc, terms, slices_by_term)


#: coordinator-side msearch combine threads: the per-query dense
#: combine + rank is scatter-add / nonzero / partition — all numpy
#: kernels that release the GIL — so the fused path runs the queries of
#: one wave on a small thread pool. Accumulators are per-thread, so the
#: buffer-pool memory is threads × n_docs × 8 B; the thread count is
#: clamped so that pool stays under GRAFT_MSEARCH_POOL_MB (a 10^8-doc
#: coordinator runs 1-2 combine threads and scales horizontally
#: instead, exactly like extra ES coordinating nodes).
MSEARCH_THREADS = env_cap("GRAFT_MSEARCH_THREADS",
                          min(8, os.cpu_count() or 1))
MSEARCH_POOL_MB = env_cap("GRAFT_MSEARCH_POOL_MB", 512)


def fused_combine_rank(owner, n_docs: int, jobs, slices_by_term, k: int,
                       doc_ids):
    """Combine + rank the multi-term queries of one msearch wave in
    parallel on the coordinator.

    ``jobs`` is ``[(i, live_terms), ...]``; returns ``[(i, live,
    (ids, scores)), ...]`` in job order. Bit-identity: each query's
    combine is the unchanged ``dense_combine_into`` (same sorted-term
    summation order) over its own zeroed buffer, and queries are
    independent — threading changes wall-clock, never a float. The
    sequential path (single job / single thread budget) reuses the
    owner's cached accumulator exactly as before.
    """
    import numpy as np

    from .. import bm25

    def run_with(acc, live):
        uniq, sums = dense_combine_into(acc, live, slices_by_term)
        return bm25.rank_topk(doc_ids, sums, k, ords=uniq)

    budget_bytes = MSEARCH_POOL_MB * (1 << 20)
    max_threads = max(1, min(MSEARCH_THREADS, len(jobs),
                             budget_bytes // max(1, n_docs * 8)))
    if max_threads <= 1:
        acc = getattr(owner, "_acc", None)
        if acc is None or len(acc) != n_docs:
            acc = owner._acc = np.zeros(n_docs, dtype=np.float64)
        out = []
        for i, live in jobs:
            try:
                out.append((i, live, run_with(acc, live)))
            except BaseException:
                # a mid-combine failure leaves scatter-adds in the
                # shared buffer — drop it rather than poison the next
                # query's sums
                owner._acc = None
                raise
        return out

    import queue
    from concurrent.futures import ThreadPoolExecutor

    pool = getattr(owner, "_acc_pool", None)
    if pool is None or getattr(owner, "_acc_pool_ndocs", 0) != n_docs:
        pool = owner._acc_pool = queue.SimpleQueue()
        owner._acc_pool_ndocs = n_docs

    def run(job):
        i, live = job
        try:
            acc = pool.get_nowait()
        except queue.Empty:
            acc = np.zeros(n_docs, dtype=np.float64)
        res = run_with(acc, live)   # on failure the dirty acc is DROPPED
        pool.put(acc)               # (returned to the pool only clean)
        return i, live, res

    ex = getattr(owner, "_msearch_pool", None)
    if ex is None or ex._max_workers < max_threads:
        if ex is not None:
            ex.shutdown(wait=False)
        ex = owner._msearch_pool = ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="msearch-combine")
    return list(ex.map(run, jobs))


#: champion-list depth: single-term top-k requests with k <= this are
#: served from a lazily ranked per-term prefix (see ``champion_topk``)
CHAMP_K = 128


def champion_topk(cache: CappedLRU, term: str, k: int, rank_full):
    """Single-term top-k through a lazy CHAMPION LIST (impact ordering
    realized as a serving cache).

    Why not block-max skipping here: single-term top-k over a
    DOCUMENT-ORDERED posting list cannot skip blocks when impact is
    uncorrelated with doc order — measured on the 960k-doc bench corpus,
    every head-term block's upper bound (block max_tf + block min
    doclen) exceeds the true kth score, so 0% of 7225 blocks prune
    (BASELINE.md round-5 note). The classic IR answer is IMPACT
    ordering: rank once, keep the top prefix. This realizes it lazily —
    the first query on a term pays the one full rank (the cold-path
    cost, reported separately in the bench), and every later single-term
    query is O(k). Exactness: ``rank_topk`` is a fixed total order
    ((rounded score desc, doc_id asc)), so its top-``CHAMP_K`` prefix
    sliced to ``k <= CHAMP_K`` IS ``rank_topk(..., k)`` — bit-identical,
    not approximate. ``rank_full(k)`` computes the rank at depth k;
    requests deeper than ``CHAMP_K`` bypass the cache.
    """
    if k > CHAMP_K:
        return rank_full(k)
    hit = cache.get(term)
    if hit is None:
        hit = cache.put(term, rank_full(CHAMP_K))
    return hit[0][:k], hit[1][:k]


class RequestCache:
    """The ES shard-request-cache role for the distributed coordinators:
    final (doc_ids, rounded scores) per normalized request key.

    Soundness: a coordinator instance serves ONE committed, immutable
    index directory — every mutating pipeline (upsert merge, reshard,
    snapshot restore) commits a NEW directory, and the NRT plane builds
    a fresh searcher per refresh generation — so a cached result can
    never go stale within an engine's lifetime (the same invariant the
    hot-partials caches already rely on). Cached values are exactly the
    arrays the full path computed: bit-identity is unchanged, repeats
    are O(1). Bounded by total cached result rows, LRU.
    """

    def __init__(self, cap_rows: int):
        self._lru: CappedLRU = CappedLRU(
            cap_rows, size_of=lambda v: max(1, len(v[0])))

    @staticmethod
    def key(terms: list[str], k: int) -> str:
        return f"{k}:{' '.join(terms)}"

    def get(self, key: str):
        return self._lru.get(key)

    def put(self, key: str, value):
        return self._lru.put(key, value)

    def stats(self) -> dict[str, int]:
        return self._lru.stats()
