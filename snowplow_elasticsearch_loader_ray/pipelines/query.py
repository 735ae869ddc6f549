"""BM25 top-k query serving over merged segments.

The analogue of the reference IT harness's only query surface —
polling ES ``_search`` and reading ranked hits
(``TestHelpers.scala:157-201``, SURVEY.md Q1) — except the relevance
engine ES provided is implemented here from scratch.

Two execution strategies over the same segments, tested
bit-identical:

- ``score_maxscore`` (the serving default): vectorized MaxScore. Each
  term has an upper bound on its partials, ``idf × tf_weight`` at its
  largest block-max tf and the corpus's smallest doclen
  (``bm25.term_bound``), computed once per index and kept in the term's
  entry (``IndexReader.bound``). Terms accumulate in bound-descending
  order until the remaining terms' bound sum cannot lift a doc outside
  the accumulator into the top k; the few candidates left are then
  rescored exactly, and the pruned head terms are never fully decoded.
- ``score_taat``: term-at-a-time scoring with numpy over fully decoded
  posting lists — what MaxScore falls back to when no term can bound
  the others out.

Determinism: terms are summed in sorted order on every path, so
per-doc float summation order is identical; ranking is by
``(round(score, 7) desc, doc_id asc)`` (bm25.py), and the rank cuts to
the rows near the k-th raw score before it rounds or gathers external
ids (``bm25.rank_topk``).

One segment reader: ``IndexReader`` is the only code that turns
segment files into a term → (df, postings) map and scored lists. The
single-process engine holds one over the whole index; each reader
actor of the sharded plane holds one over some term shards and one
ordinal stripe (``shards``, ``doc_part``/``n_doc_parts``), and so does
each generation actor of the live chain's sharded searcher.

Scored lists: BM25 scorers (TAAT, MaxScore, dis_max) take each term's
(ordinals, partials) from ``IndexReader.scored``, which looks in three
layers: the short table, where every one-block list (most of a vocabulary) is
decoded and weighed in one batched pass on the reader's first lookup
(``servecache.ShortLists``); then the bounded LRU of longer lists
(``servecache.scored_lru``); then a decode + weigh that fills the LRU
(``servecache.scored_list``). A term's partials are deterministic per
index and every layer computes the same floats, so a table or cache
hit is bit-identical to a fresh decode; a tail term's first use and a
repeated head term both cost a lookup.

The ``QueryEngine`` actor holds the loaded index (term dict, doclen
arrays, stats) — built once in ``__init__``, the stateful-actor-pool
pattern the loader uses for its sink clients
(``ElasticsearchSink.scala:45-109``: one http client per pipe, reused).
"""

from __future__ import annotations

import functools
import glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import bm25
from ..codec import PostingList, binary_views, decode_postings_batch
from ..config import DOCLEN_TERM
from ..pipelines.build import index_stats
from ..stages.segment import segment_table
from .servecache import (
    ShortLists, bm25_partials, scored_list, scored_lru, scores_at)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize_query(q: str) -> list[str]:
    """Unique query terms, sorted (fixed scoring order; duplicates dropped)."""
    return sorted(set(_TOKEN_RE.findall(q.lower())))


def _stripe(seg: pa.Table, doc_part: int, n_doc_parts: int,
            block_size: int) -> pa.Table:
    """A segment's rows restricted to the docs with ``ord % n_doc_parts
    == doc_part``: the whole shard in one batched decode, masked, and
    re-encoded by ``segment.segment_table``. Terms with no posting in
    the stripe drop out; ``df`` stays the index-wide column."""
    starts, docs, tfs = decode_postings_batch(seg["postings"],
                                              np.arange(seg.num_rows))
    mask = docs % n_doc_parts == doc_part
    kept = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    lo, hi = kept[starts[:-1]], kept[starts[1:]]
    rows = np.flatnonzero(hi > lo)
    names = seg["term"].to_pylist()
    out = segment_table([names[r] for r in rows], docs[mask], tfs[mask],
                        lo[rows], hi[rows], block_size)
    return out.set_column(1, "df", seg["df"].take(rows))


class IndexReader:
    """In-memory view over an index directory's segments + docmap: the
    one segment reader under every plane. ``QueryEngine`` holds one over
    the whole index, and each reader actor of the sharded plane and of
    the live chain's sharded searcher holds one over its part
    (``sharded_query.ShardReader``).

    Postings decode to dense doc ORDINALS (see stages/postings.py): the
    ordinal IS the score-accumulator position, so scoring does no
    binary search, and ``dl_doc_ids[ord]`` / ``dl_lens[ord]`` give the
    external doc_id / doclen directly.

    ``shards`` restricts the reader to those term shards' segment files
    (default: every segment file), and ``doc_part`` of ``n_doc_parts``
    to the docs with ``ord % n_doc_parts == doc_part``: each shard is
    decoded once at load, masked to the stripe and re-encoded
    (``_stripe``). The docmap, the stats and each term's ``df`` stay
    index-wide, so a stripe's partials are the whole reader's partials
    at the stripe's docs, bit for bit; ``cf`` is the stripe's.

    It scores lists (``scored``: term → ordinals + BM25 partials under
    this index's stats) from two places: every one-block list, scored
    in one batched pass on the first lookup (``servecache.ShortLists``),
    and an LRU of longer lists, bounded at ``GRAFT_SHARD_HOT_POSTINGS``
    decoded postings per segment file.

    ``terms`` maps a term to ``(df, cf, postings, bound)``; the bound
    field is None until ``bound(term)`` first computes it.
    """

    def __init__(self, index_dir: str, shards: list[int] | None = None,
                 doc_part: int = 0, n_doc_parts: int = 1):
        self.index_dir = index_dir
        st = index_stats(index_dir)
        self.n_docs = int(st["n_docs"])
        self.avgdl = float(st["avgdl"]) if st["avgdl"] else 1.0
        self.terms: dict[str, tuple[int, int, bytes, float | None]] = {}
        seg_dir = os.path.join(index_dir, "segments")
        self.segments = (
            sorted(glob.glob(os.path.join(seg_dir, "*.parquet")))
            if shards is None else
            [os.path.join(seg_dir, f"shard-{s:04d}.parquet") for s in shards])
        self._columns = []               # (terms, dfs, postings) per segment
        for f in self.segments:
            t = pq.read_table(f)
            if n_doc_parts > 1:
                t = _stripe(t, doc_part, n_doc_parts, int(st["block_size"]))
            names = t["term"].to_pylist()
            self._columns.append((names, t["df"].to_numpy(), t["postings"]))
            # postings stay zero-copy views over the Arrow data buffer
            # (one buffer per segment file) — warm-up copies nothing
            views = binary_views(t["postings"])
            for term, df, cf, buf in zip(
                names, t["df"].to_pylist(), t["cf"].to_pylist(), views,
            ):
                if term != DOCLEN_TERM:          # legacy pseudo-term guard
                    self.terms[term] = (df, cf, buf, None)
        from .build import load_docmap

        # indexed by ordinal: external id + doclen per doc
        self.dl_doc_ids, lens = load_docmap(index_dir)
        self.dl_lens = lens.astype(np.float64)
        self.dl_min = float(self.dl_lens.min()) if len(self.dl_lens) else 1.0
        self._ext_sorted: np.ndarray | None = None
        self._ext_order: np.ndarray | None = None
        # the per-query score accumulator (``acc_buffer``); untouched
        # zero pages cost no memory in a reader that never accumulates
        self._acc = np.zeros(len(self.dl_doc_ids), dtype=np.float64)
        # scored-list cache for the lists of several blocks: term →
        # (ordinals, BM25 partials) under THIS index's stats, capped
        # per segment file
        self._scored = scored_lru(len(self.segments))

    @functools.cached_property
    def _short(self) -> ShortLists:
        """Every one-block list (most of a vocabulary) scored in one
        batched pass, on the first lookup rather than at load: readers
        that only decode postings under other stats (the live chain's
        generations, reopened on every refresh) never pay for it."""
        return ShortLists(self, self._columns)

    def scored(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's (ascending ordinals, BM25 partials) under this
        index's stats; None for an unknown term. A one-block list comes
        from the short table (``_short``), a longer one from the LRU
        (``servecache.scored_lru``), decoded on a miss. Partials are
        deterministic per (term, index), so either is bit-identical to
        a fresh decode. Scorers that use other stats (the live chain's
        summed n_docs/avgdl) must decode ``postings`` instead."""
        hit = self._short.get(term)
        if hit is not None:
            return hit
        hit = self._scored.get(term)
        if hit is not None:
            return hit
        if (e := self.terms.get(term)) is None:
            return None
        return self._scored.put(term, scored_list(self, PostingList(e[2]),
                                                  e[0]))

    def bound(self, term: str) -> float:
        """The term's MaxScore bound (``bm25.term_bound`` at its
        index-wide df, its largest block-max tf here and the index's
        smallest doclen), ≥ each of its partials. Computed on first use
        and kept in the term's entry: it never changes for an index.
        ``term`` must be in ``terms``."""
        e = self.terms[term]
        if e[3] is None:
            pl = PostingList(e[2])
            max_tf = int(pl.max_tf.max()) if pl.n_blocks else 0
            e = self.terms[term] = e[:3] + (bm25.term_bound(
                self.n_docs, e[0], max_tf, self.dl_min, self.avgdl),)
        return e[3]

    def cached(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``scored(term)`` if it is scored already, else None — no decode."""
        return self._short.get(term) or self._scored.get(term)

    def partials_at(self, term: str, cand: np.ndarray,
                    scored: tuple[np.ndarray, np.ndarray] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's (ordinals, partials) at the candidates ``cand``
        (ascending) — a MaxScore rescore. A scored list at hand
        (``scored``, or one this reader caches) gives them by
        intersect; otherwise only the posting blocks that hold
        candidates decode (``PostingList.decode_for``). None for an
        unknown term."""
        hit = scored or self.cached(term)
        if hit is not None:
            return scores_at(*hit, cand)
        if (e := self.terms.get(term)) is None:
            return None
        docs, tfs = PostingList(e[2]).decode_for(cand)
        return docs, bm25_partials(self, e[0], docs, tfs)

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """The one-block table's terms, postings and bytes, and the
        scored-list LRU's hits, misses, evictions and size."""
        return {"short_lists": self._short.stats(),
                "scored_lists": self._scored.stats()}

    def ordinals_of(self, doc_ids: np.ndarray,
                    missing: str = "raise") -> np.ndarray:
        """Ordinals by EXTERNAL doc_id (lazy sorted lookup).
        ``missing="raise"``: unknown ids raise ``KeyError`` — a silent
        wrong-neighbor gather would serve another doc's data.
        ``missing="drop"``: unknown ids are omitted (the _explain /
        "not found" convention)."""
        if self._ext_sorted is None:
            self._ext_order = np.argsort(self.dl_doc_ids, kind="stable")
            self._ext_sorted = self.dl_doc_ids[self._ext_order]
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if not len(doc_ids):
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(self._ext_sorted, doc_ids)
        pos_c = np.minimum(pos, max(len(self._ext_sorted) - 1, 0))
        ok = (self._ext_sorted[pos_c] == doc_ids) \
            if len(self._ext_sorted) else np.zeros(len(doc_ids), bool)
        if missing == "drop":
            return self._ext_order[pos_c[ok]]
        if not ok.all():
            raise KeyError(
                f"doc_id(s) not in the index docmap, e.g. "
                f"{doc_ids[~ok][:3].tolist()}")
        return self._ext_order[pos_c]

    def doclen_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Doc lengths by EXTERNAL doc_id (lazy sorted lookup — result
        paths that already hold ordinals index ``dl_lens`` directly).
        Unknown ids raise (see ``ordinals_of``)."""
        return self.dl_lens[self.ordinals_of(doc_ids)]

    def acc_buffer(self) -> np.ndarray:
        """Zeroed per-partition score accumulator (reused across queries)."""
        self._acc.fill(0.0)
        return self._acc

    def postings(self, term: str) -> PostingList | None:
        e = self.terms.get(term)
        return PostingList(e[2]) if e else None

    def df(self, term: str) -> int:
        e = self.terms.get(term)
        return e[0] if e else 0

    def doc_lengths_table(self) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(self.dl_doc_ids),
            "doclen": pa.array(self.dl_lens.astype(np.int64)),
        })

    def term_stats_table(self) -> pa.Table:
        items = sorted(self.terms.items())
        return pa.table({
            "term": pa.array([t for t, _ in items], type=pa.string()),
            "df": pa.array([e[0] for _, e in items], type=pa.int64()),
            "cf": pa.array([e[1] for _, e in items], type=pa.int64()),
        })


def score_generation(r: IndexReader, live: list[str], dfs: dict[str, int],
                     n_docs: int, avgdl: float, sup: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One live-chain generation's (external ids, summed BM25 scores)
    under the CHAIN's stats, without the ids in ``sup`` (sorted: the
    NRT suppression set) — the one scoring kernel of ``LiveSearcher``
    and of ``ShardedLiveSearcher``'s generation actors (bit-identity by
    construction). Lists decode from ``postings``: ``scored`` holds
    partials under the generation's own stats."""
    docs_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    for t in live:                         # sorted-term float order
        pl = r.postings(t)
        if pl is None:
            continue
        ords, tfs = pl.decode_all()
        w = bm25.idf(n_docs, dfs[t])
        score_parts.append(w * bm25.tf_weight(tfs, r.dl_lens[ords], avgdl))
        docs_parts.append(ords)
    if not docs_parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    docs = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    order = np.argsort(docs, kind="stable")
    docs_s, scores_s = docs[order], scores[order]
    bounds = np.concatenate(
        ([0], np.nonzero(docs_s[1:] != docs_s[:-1])[0] + 1))
    sums = np.add.reduceat(scores_s, bounds)
    ext = r.dl_doc_ids[docs_s[bounds]]
    keep = ~isin_sorted(sup, ext)          # NRT suppression
    return ext[keep], sums[keep]


# --------------------------------------------------------------------------
# term-at-a-time (vectorized numpy)
# --------------------------------------------------------------------------

def score_taat(reader: IndexReader, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (doc_ids, rounded scores) by exhaustive term-at-a-time BM25.

    Uses a dense per-partition accumulator indexed by the reader's
    sorted-doc position (the classic TAAT score-array design): each
    term's postings scatter-add in sorted-term order, so per-doc float
    summation order is fixed (determinism contract). The accumulator is
    one float64 per doc in THIS reader's partition — at 10^12 docs the
    corpus is doc-partitioned across query shards (see ``IndexReader``),
    each holding ~10^7-10^8 docs, so the array stays ~100 MB-scale.
    """
    return _taat_topk(reader, tokenize_query(query), k)


def _taat_topk(reader: IndexReader, terms: list[str], k: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``score_taat`` over already tokenized ``terms`` (sorted): the
    rank cuts to the rows near the k-th score before it rounds or
    gathers external ids (``bm25.rank_topk``'s ``ords``)."""
    ords, scores = _taat_ords(reader, terms)
    return bm25.rank_topk(reader.dl_doc_ids, scores, k, ords=ords)


def _taat_scores(reader: IndexReader, query: str) -> tuple[np.ndarray, np.ndarray]:
    """All matching (external doc_ids, raw scores) by TAAT accumulation
    — the shared core of ``score_taat`` / ``score_taat_after``."""
    ords, scores = _taat_scores_ords(reader, query)
    return reader.dl_doc_ids[ords] if len(ords) else ords, scores


def _taat_scores_ords(reader: IndexReader, query: str) -> tuple[np.ndarray, np.ndarray]:
    """All matching (ordinals, raw scores) — result surfaces that need
    doc-values gather by ordinal consume this directly."""
    return _taat_ords(reader, tokenize_query(query))


def _taat_ords(reader: IndexReader, terms: list[str]
               ) -> tuple[np.ndarray, np.ndarray]:
    """``_taat_scores_ords`` over already tokenized ``terms``, summed
    in their (sorted) order."""
    acc = reader.acc_buffer()
    matched = False
    for t in terms:
        hit = reader.scored(t)
        if hit is None:
            continue
        docs, part = hit
        if matched:
            acc[docs] += part
        else:
            acc[docs] = part     # zeroed buffer: += without its gather
        matched = True
    if not matched:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # BM25 partial scores are strictly positive, so nonzero == matched
    cand = np.flatnonzero(acc)
    return cand, acc[cand]


def score_dismax(reader: IndexReader, query: str, k: int,
                 tie_breaker: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """ES ``dis_max`` over the query's terms: a doc scores
    max(term BM25 partials) + tie_breaker × (sum − max) — the
    best-field disjunction shape, degenerating to plain TAAT at
    tie_breaker=1. Two dense accumulators (sum via scatter-add, max via
    ``np.maximum.at``) in one postings pass; ranking/tie rules are the
    BM25 contract (round 7, doc_id asc)."""
    terms = tokenize_query(query)
    acc_sum = reader.acc_buffer()
    acc_max = np.zeros_like(acc_sum)
    matched = False
    for t in terms:
        hit = reader.scored(t)
        if hit is None:
            continue
        matched = True
        docs, s = hit
        acc_sum[docs] += s
        np.maximum.at(acc_max, docs, s)
    if not matched:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cand = np.flatnonzero(acc_sum)
    score = acc_max[cand] + tie_breaker * (acc_sum[cand] - acc_max[cand])
    return bm25.rank_topk(reader.dl_doc_ids, score, k, ords=cand)


def score_text_expansion(reader: IndexReader, weights: dict[str, int],
                         k: int) -> tuple[np.ndarray, np.ndarray]:
    """ES ``text_expansion`` / ``sparse_vector`` query (the ELSER
    learned-sparse shape): the query is a (token, weight) bag produced
    upstream by a model; a doc scores Σ weight(t) · tf(t, doc) over the
    expansion tokens. Document-side activations are the index's term
    frequencies, so scoring is one integer scatter-add pass over the
    expansion tokens' posting lists — EXACT (no floats anywhere), which
    is what makes this surface fully value-oracle-able. Ranking ties
    break by doc_id ascending (the BM25 contract)."""
    acc = np.zeros(len(reader.dl_doc_ids), dtype=np.int64)
    matched = False
    for t in sorted(weights):
        pl = reader.postings(t)
        if pl is None:
            continue
        matched = True
        docs, tfs = pl.decode_all()
        acc[docs] += int(weights[t]) * tfs.astype(np.int64)
    if not matched:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    cand = np.nonzero(acc)[0]
    d, s = bm25.rank_topk(reader.dl_doc_ids[cand],
                          acc[cand].astype(np.float64), k)
    return d, s.astype(np.int64)


def score_boosting(reader: IndexReader, positive: str, negative: str,
                   k: int, negative_boost: float = 0.5
                   ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``boosting`` query: rank by the positive query's BM25, but
    multiply the score by ``negative_boost`` for any doc matching ANY
    of the negative query's terms (demotion, not exclusion — the
    Lucene BoostingQuery contract). One TAAT pass for the positive
    side plus one sorted-membership probe per negative term."""
    ords, scores = _taat_scores_ords(reader, positive)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    demoted = np.zeros(len(ords), dtype=bool)
    for t in sorted(set(tokenize_query(negative))):
        pl = reader.postings(t)
        if pl is None:
            continue
        demoted |= isin_sorted(pl.decode_all()[0], ords)
    scores = np.where(demoted, scores * negative_boost, scores)
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores, k)


def isin_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in an ascending ``sorted_arr`` via one
    searchsorted probe (the clip keeps past-the-end probes in bounds);
    empty haystack -> all False."""
    if not len(sorted_arr):
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_arr, values),
                     len(sorted_arr) - 1)
    return sorted_arr[pos] == values


#: safety margin over the 1e-7 score-rounding granularity: pruning only
#: discards docs whose reachable score is below the kth lower bound by
#: MORE than this, so rounding ties can never be lost
_PRUNE_MARGIN = 1e-6


def score_maxscore(reader: IndexReader, query: str, k: int = 10,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k BM25 via vectorized MaxScore: bit-identical to
    ``score_taat`` by construction, but head (low-idf) terms whose
    summed upper bounds cannot disturb top-k membership are never fully
    decoded.

    Plan: (1) accumulate terms in upper-bound-descending order until
    the remaining terms' UB sum drops below the current kth partial
    score minus a rounding-safe margin — every doc outside the
    accumulator is then provably outside the top-k; (2) shrink to the
    candidate set (docs whose partial + remaining UB can still reach
    the kth bound); (3) recompute the candidates' scores from scratch
    in SORTED-TERM order — the same float summation order as
    ``score_taat``, so scores are bit-identical — by intersect with the
    term's scored list where one is at hand (processed in (1), or in
    the reader's scored-list cache), else decoding only the posting
    blocks that contain candidates (``PostingList.decode_for``,
    block-max skip metadata as a read pruner). Skipped work is the full
    decode + weight of every pruned head term: exactly the stopword
    lists that dominate TAAT latency at 10^6+ docs.

    Per-query set-up is lookups: each term's upper bound is computed
    once per index and kept in its term entry (``IndexReader.bound``).
    """
    terms = [t for t in tokenize_query(query) if reader.df(t)]
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(terms) == 1:
        # one term: no accumulator, no nonzero scan, no upper bound —
        # the scored list ranks as is. Identical floats to score_taat
        # (the accumulator would hold exactly these partials at exactly
        # these docs).
        docs, part = reader.scored(terms[0])
        return bm25.rank_topk(reader.dl_doc_ids, part, k, ords=docs)
    if min(reader.df(t) for t in terms) > reader.n_docs // 4:
        # every term is a head term: no selective term can bound the
        # kth above the tail's reach, so pruning cannot pay — take the
        # plain vectorized path with zero bookkeeping overhead
        return _taat_topk(reader, terms, k)
    by_ub = sorted(((reader.bound(t), t) for t in terms),
                   key=lambda e: (-e[0], e[1]))          # UB desc, term asc
    if by_ub[-1][0] > 0.25 * by_ub[0][0]:
        # all terms have comparable max impact: no term can bound the
        # others out, pruning cannot pay — plain path, zero bookkeeping
        return _taat_topk(reader, terms, k)
    # suffix[i]: bound sum of the terms from i on (plain floats: a
    # few terms, so numpy's per-call cost would exceed the sums)
    suffix = [0.0] * (len(by_ub) + 1)
    for i in range(len(by_ub) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + by_ub[i][0]

    acc = reader.acc_buffer()
    # kth lower bound, maintained cheaply: the kth largest of the
    # partials at each processed term's OWN posting positions is the
    # kth largest of a subset of all partials, hence ≤ the true kth —
    # a valid (and O(df)-cheap) prune bound without scanning `acc`
    kth_lb = 0.0
    cand_cap = max(64, 8 * k)
    pool: list[np.ndarray] = []
    attempts = 2          # failed prune attempts allowed before giving up
    cand = None
    lists: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # phase-1 scored
    for i, (_ub, t) in enumerate(by_ub):
        if (attempts and i >= 1 and kth_lb > 0.0
                and suffix[i] < kth_lb - _PRUNE_MARGIN):
            # one pass: the threshold is > 0 here, so it also drops
            # every unmatched (zero) slot
            maybe = np.flatnonzero(acc >= kth_lb - _PRUNE_MARGIN - suffix[i])
            if len(maybe) <= cand_cap:   # prune pays only when selective
                cand = maybe
                break
            # dense score boundary: many docs sit within the tail's
            # reach of the kth — pruning cannot pay, stop trying soon
            attempts -= 1
        docs, scores = lists[t] = reader.scored(t)
        if i:
            acc[docs] += scores
        else:
            acc[docs] = scores   # zeroed buffer: += without its gather
        # tighten the bound only when it could still unlock a prune
        # (there ARE cheaper terms left, and the current bound is too
        # weak to prune them); partials are pooled across processed
        # terms so even tiny-df terms contribute, and the pool is
        # stride-capped — the kth of any subset of partials is a valid
        # lower bound of the true kth
        if (attempts and i + 1 < len(by_ub)
                and kth_lb - _PRUNE_MARGIN < suffix[i + 1]):
            pool.append(docs[:: max(1, len(docs) // 50_000)])
            # dedupe: a doc pooled twice would repeat its partial and
            # could inflate the kth above the true distinct-doc kth
            pooled = np.unique(np.concatenate(pool)) if len(pool) > 1 else pool[0]
            if len(pooled) >= k:
                part = acc[pooled]
                kth_lb = max(kth_lb, float(
                    np.partition(part, len(part) - k)[len(part) - k]))
    if cand is None:                                 # nothing pruned
        cand = np.flatnonzero(acc)
        return bm25.rank_topk(reader.dl_doc_ids, acc[cand], k, ords=cand)

    # exact rescore in sorted-term order (score_taat's summation order):
    # a list scored in phase 1 or still cached gives the candidates'
    # partials by intersect; only a cold pruned term decodes, and only
    # its blocks that hold candidates
    cand_scores = np.zeros(len(cand), dtype=np.float64)
    for t in terms:
        docs, part = reader.partials_at(t, cand, lists.get(t))
        if not len(docs):
            continue
        cand_scores[np.searchsorted(cand, docs)] += part
    keep = cand_scores > 0.0
    return bm25.rank_topk(reader.dl_doc_ids, cand_scores[keep], k,
                          ords=cand[keep])


def score_taat_after(reader: IndexReader, query: str, k: int = 10,
                     after: tuple[float, int] | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``search_after`` pagination: the next ``k`` results strictly
    AFTER the cursor in the engine's total order (rounded score desc,
    doc_id asc). The cursor is the last hit of the previous page as
    ``(rounded_score, doc_id)`` — exactly the sort values ES asks
    clients to replay, so deep pagination never re-ships earlier pages
    and is stable under concurrent upserts before the cursor.
    """
    cand_ids, cand_scores = _taat_scores(reader, query)
    if after is not None and len(cand_ids):
        r = np.round(cand_scores, bm25.SCORE_ROUND)
        a_score, a_doc = np.round(after[0], bm25.SCORE_ROUND), after[1]
        keep = (r < a_score) | ((r == a_score) & (cand_ids > a_doc))
        cand_ids, cand_scores = cand_ids[keep], cand_scores[keep]
    return bm25.rank_topk(cand_ids, cand_scores, k)


def expand_prefix(reader: IndexReader, prefix: str) -> list[str]:
    """Vocabulary terms starting with ``prefix`` (ES ``prefix`` query
    expansion), term-ascending. At 10^12-doc scale the vocabulary is
    term-shard-partitioned; a prefix scan runs per shard and the
    expansions union — same shape as this single-shard scan."""
    return sorted(t for t in reader.terms if t.startswith(prefix))


def prefix_match(reader: IndexReader, prefix: str) -> tuple[int, np.ndarray]:
    """ES ``prefix`` query: (number of expanded terms, ascending
    doc_ids containing ANY expanded term — constant-score semantics,
    like ES's default rewrite)."""
    terms = expand_prefix(reader, prefix)
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return 0, np.empty(0, dtype=np.int64)
    uniq = np.unique(np.concatenate(hits))
    # ordinals are input-file order, not external-id order — sort so
    # the documented ascending-doc_ids contract holds on ANY corpus
    return len(terms), np.sort(reader.dl_doc_ids[uniq].astype(np.int64))


def expand_regexp(reader: IndexReader, pattern: str) -> list[str]:
    """ES ``regexp`` query expansion: vocabulary terms whose WHOLE text
    matches ``pattern`` (Lucene regexps are implicitly anchored).

    The scan runs through pyarrow's RE2 kernel — the same regex engine
    DuckDB uses — so the oracle's ``regexp_matches(term, '^(?:p)$')``
    agrees exactly. Shards scan their own dictionary slice at web
    vocab, same shape as ``expand_prefix``."""
    import pyarrow.compute as pc

    terms = sorted(reader.terms)
    m = pc.match_substring_regex(pa.array(terms, pa.string()),
                                 f"^(?:{pattern})$")
    return [t for t, ok in zip(terms, m.to_pylist()) if ok]


def wildcard_to_regexp(pattern: str) -> str:
    """ES ``wildcard`` → regexp: ``*`` = any run, ``?`` = any char,
    everything else literal."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _docs_of_terms(reader: IndexReader, terms: list[str]) -> pa.Table:
    """Constant-score union of the terms' postings: (doc_id, number of
    distinct matching terms) via one bincount over ordinals."""
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_matched_terms": pa.array([], pa.int64())})
    ords = np.concatenate(hits)
    cnt = np.bincount(ords, minlength=len(reader.dl_doc_ids))
    nz = np.flatnonzero(cnt)
    return pa.table({
        "doc_id": pa.array(reader.dl_doc_ids[nz].astype(np.int64)),
        "n_matched_terms": pa.array(cnt[nz].astype(np.int64)),
    })


def regexp_search(reader: IndexReader, pattern: str) -> pa.Table:
    """ES ``regexp`` query (constant-score rewrite): docs containing
    ANY matching term, with the count of distinct matching terms each
    doc contains. One postings decode per expanded term, one bincount
    over ordinals — no corpus scan."""
    return _docs_of_terms(reader, expand_regexp(reader, pattern))


def _trigram_index(reader: IndexReader):
    """Trigram → owning-term index over the vocabulary (the structure
    behind the ES ``wildcard`` field type): two SORTED int64 arrays
    (trigram hash → vocab ordinal, deduped pairs) built with the same
    Arrow slice-explode pass as the fuzzy delete-1 index — one kernel
    call per slice POSITION, no per-term Python. ~16 B per (term ×
    distinct position) entry; at web vocab it shards with the term
    dictionary. Hash collisions only over-generate candidates, which
    the substring verification removes."""
    idx = getattr(reader, "_tri_index", None)
    if idx is None:
        import pyarrow.compute as pc

        vocab = np.asarray(sorted(reader.terms), dtype=object)
        va = pa.array(vocab, type=pa.string())
        lens = pc.utf8_length(va).to_numpy()
        ids = np.arange(len(vocab), dtype=np.int64)
        tri_chunks, owner_chunks = [], []
        maxlen = int(lens.max()) if len(lens) else 0
        for p in range(max(0, maxlen - 2)):
            mask = lens >= p + 3
            sub = va.filter(pa.array(mask)) if not mask.all() else va
            tri = pc.utf8_slice_codeunits(sub, p, p + 3)
            tri_chunks.append(tri.to_numpy(zero_copy_only=False))
            owner_chunks.append(ids[mask])
        if tri_chunks:
            h = _hash_prefix64(np.concatenate(tri_chunks))
            o = np.concatenate(owner_chunks)
            order = np.lexsort((o, h))
            h, o = h[order], o[order]
            keep = np.concatenate(
                ([True], (h[1:] != h[:-1]) | (o[1:] != o[:-1])))
            h, o = h[keep], o[keep]
        else:
            h = np.empty(0, np.int64)
            o = np.empty(0, np.int64)
        reader._tri_index = idx = (h, o, vocab)
    return idx


def infix_expand(reader: IndexReader, infix: str) -> list[str]:
    """Vocabulary terms CONTAINING ``infix`` via the trigram index:
    intersect the owner sets of every trigram of the infix, then
    verify candidates by exact substring — identical results to the
    RE2 vocabulary scan (``expand_regexp('.*infix.*')``), but the work
    is proportional to the rarest trigram's owner list, not the vocab.
    Infixes shorter than 3 chars have no trigram and fall back to the
    scan (the ES wildcard field does the same)."""
    import pyarrow.compute as pc

    if len(infix) < 3:
        return expand_regexp(reader, f".*{re.escape(infix)}.*")
    h, o, vocab = _trigram_index(reader)
    cand = None
    for i in range(len(infix) - 2):
        gh = _hash_prefix64(np.asarray([infix[i:i + 3]], dtype=object))
        lo = np.searchsorted(h, gh[0], "left")
        hi = np.searchsorted(h, gh[0], "right")
        owners = o[lo:hi]
        cand = owners if cand is None else \
            np.intersect1d(cand, owners, assume_unique=True)
        if not len(cand):
            return []
    terms = vocab[cand]
    ok = pc.match_substring(pa.array(terms, pa.string()), infix) \
        .to_numpy(zero_copy_only=False)
    return sorted(terms[ok].tolist())


def infix_search(reader: IndexReader, infix: str) -> pa.Table:
    """ES ``wildcard`` FIELD infix query (``*infix*``): trigram-index
    expansion + constant-score union — rank/result-identical to
    routing the same pattern through the RE2 wildcard scan."""
    return _docs_of_terms(reader, infix_expand(reader, infix))


def _deletes1(term: str) -> set[str]:
    return {term[:i] + term[i + 1:] for i in range(len(term))}


def _lev_le1(a: str, b: str) -> bool:
    """Exact Levenshtein distance <= 1 (no transpositions)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:                         # exactly one substitution
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0                                # one insertion into the shorter
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


#: del-1 variant hash width: tokens are [a-z0-9] (tokenizer.py), so a
#: zero-padded 32-byte prefix uniquely encodes every variant <= 32 chars;
#: longer variants sharing a prefix merely collide, which only ADDS
#: candidates that exact Levenshtein verification removes.
_DEL1_HASH_BYTES = 32


def _hash_prefix64(strs: np.ndarray) -> np.ndarray:
    """Vectorized deterministic 64-bit hash of ASCII strings: a
    polynomial (mod 2^64) over the zero-padded first 32 bytes. One
    numpy matmul-shaped pass instead of a per-string digest call —
    both the index build and the probe use this same function, so
    candidate generation is exact up to collisions (verified away)."""
    b = np.asarray(strs, dtype=f"S{_DEL1_HASH_BYTES}")
    m = b.view(np.uint8).reshape(len(b), _DEL1_HASH_BYTES).astype(np.uint64)
    mult = np.empty(_DEL1_HASH_BYTES, np.uint64)
    acc = 1
    for i in range(_DEL1_HASH_BYTES):             # Python ints: mod 2^64
        mult[i] = acc
        acc = (acc * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return (m * mult).sum(axis=1, dtype=np.uint64).view(np.int64)


def fuzzy_expand(reader: IndexReader, query_term: str) -> list[str]:
    """ES ``fuzzy`` query expansion at edit distance <= 1: candidates
    via a SymSpell-style delete-1 neighborhood over the vocabulary,
    then exact Levenshtein verification — the delete intersection
    over-generates (e.g. transposed bigrams), so every candidate is
    checked. Term-ascending for determinism.

    The neighborhood index is two SORTED int64 arrays (variant hash →
    owning vocab ordinal), built once per reader: ~16 B per
    (term × variant) entry instead of a Python dict of strings-to-lists
    (an order of magnitude smaller at web vocab, and the probe is a
    batched searchsorted, not per-variant dict lookups). Hash
    collisions only add candidates, which exact verification removes —
    results are identical to the dict formulation. At 10^9-term vocab
    this index shards with the term dictionary (same routing), each
    shard answering its own candidates."""
    import pyarrow.compute as pc

    idx = getattr(reader, "_del1_index", None)
    if idx is None:
        # vectorized variant explode (the completion_suggest pattern):
        # one Arrow slice+join kernel pass per DELETE POSITION — a loop
        # over max term length, not over the vocabulary — then one
        # vectorized hash of every variant. No per-term Python.
        vocab = np.asarray(sorted(reader.terms), dtype=object)
        va = pa.array(vocab, type=pa.string())
        lens = pc.utf8_length(va).to_numpy()
        ids = np.arange(len(vocab), dtype=np.int64)
        var_chunks, owner_chunks = [vocab], [ids]      # the term itself
        for p in range(int(lens.max()) if len(lens) else 0):
            mask = lens > p
            sub = va.filter(pa.array(mask)) if not mask.all() else va
            pre = pc.utf8_slice_codeunits(sub, 0, p)
            post = pc.utf8_slice_codeunits(sub, p + 1, 1 << 30)
            var = pc.binary_join_element_wise(pre, post, "")
            var_chunks.append(var.to_numpy(zero_copy_only=False))
            owner_chunks.append(ids[mask])
        h = _hash_prefix64(np.concatenate(var_chunks))
        o = np.concatenate(owner_chunks)
        order = np.argsort(h, kind="stable")
        reader._del1_index = idx = (h[order], o[order], vocab)
    hs, owners, vocab = idx
    probe = _deletes1(query_term)
    probe.add(query_term)
    ph = _hash_prefix64(np.asarray(sorted(probe), dtype=object))
    lo = np.searchsorted(hs, ph, "left")
    hi = np.searchsorted(hs, ph, "right")
    spans = [owners[a:b] for a, b in zip(lo, hi) if b > a]
    if not spans:
        return []
    cand_idx = np.unique(np.concatenate(spans))
    return sorted(t for t in vocab[cand_idx].tolist()
                  if _lev_le1(query_term, t))


def more_like_this(reader: IndexReader, doc_id: int, text: str,
                   max_terms: int = 10, k: int = 10,
                   ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """ES ``more_like_this``: select the source document's top
    ``max_terms`` terms by tf x idf (ties broken by term ascending —
    deterministic), then rank the corpus by disjunctive BM25 over the
    selected terms with the source document excluded. Term statistics
    come from the index (df per term), the source text from the doc
    store — the same two lookups ES's MLT performs.

    Returns (selected_terms, doc_ids, rounded_scores).
    """
    import collections
    import re

    tf = collections.Counter(re.findall(r"[a-z0-9]+", text.lower()))
    weighted = []
    for t, f in tf.items():
        df_t = reader.df(t)
        if df_t == 0:
            continue
        weighted.append((-f * bm25.idf(reader.n_docs, df_t), t))
    weighted.sort()
    sel = [t for _w, t in weighted[:max_terms]]
    cand_ids, cand_scores = _taat_scores(reader, " ".join(sel))
    keep = cand_ids != doc_id
    docs, scores = bm25.rank_topk(cand_ids[keep], cand_scores[keep], k)
    return sel, docs, scores


def lang_docvalues(reader: IndexReader) -> np.ndarray:
    """The per-ordinal ``lang`` doc-value column, loaded once per
    reader (ES keyword doc_values: columnar per-doc metadata — facets
    and keyword term filters gather by ordinal, never re-reading the
    corpus)."""
    langs = getattr(reader, "_dl_langs", None)
    if langs is None:
        from .build import load_docvalues

        langs = load_docvalues(reader.index_dir, "lang")
        if langs is None:
            raise ValueError("index has no 'lang' doc-value")
        reader._dl_langs = langs
    return langs


def facet_lang_counts(reader: IndexReader, query: str) -> dict[str, int]:
    """ES ``terms`` aggregation on the ``lang`` doc-value over the full
    match set: matched ordinals from the postings union, lang keys by
    ordinal gather from the docmap's doc-value column — no corpus read,
    no match-set broadcast. A doc-partitioned reader computes its
    partition's counts the same way and partial counts sum (tiny:
    langs × partitions rows)."""
    langs = lang_docvalues(reader)
    terms = tokenize_query(query)
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return {}
    ords = np.unique(np.concatenate(hits))
    vals = langs[ords]
    # ES terms aggs SKIP missing-field docs: drop nulls (an
    # object-array unique over None raises) instead of crashing the
    # whole aggregation when one input file lacked the column
    vals = vals[vals != None]  # noqa: E711  (elementwise on object arr)
    u, c = np.unique(vals, return_counts=True)
    return dict(zip(u.tolist(), c.tolist()))


def facet_doclen_stats(reader: IndexReader, query: str) -> dict:
    """ES ``stats`` aggregation over the full match set (docs containing
    ANY query term — aggregations see every hit, not the top-k page):
    count/min/max/sum/avg of document length, straight off the index's
    doclen table (no document fetch)."""
    ords = boolean_or_ords(reader, query)
    docs = ords
    if not len(docs):
        return {"n_docs": 0, "min_dl": 0, "max_dl": 0, "sum_dl": 0,
                "avg_dl": 0.0}
    dl = reader.dl_lens[ords].astype(np.int64)
    return {
        "n_docs": int(len(docs)),
        "min_dl": int(dl.min()),
        "max_dl": int(dl.max()),
        "sum_dl": int(dl.sum()),
        "avg_dl": float(dl.sum()) / float(len(docs)),
    }


def facet_doclen_extended_stats(reader: IndexReader, query: str) -> dict:
    """ES ``extended_stats`` aggregation over the full match set: the
    ``stats`` fields plus sum_of_squares, variance (population —
    sos/n − mean², the ES formula) and std_deviation. Both sums are
    exact int64, so the derived floats are identical regardless of
    accumulation order — the oracle recomputes them from the same
    integer sums."""
    import math

    ords = boolean_or_ords(reader, query)
    docs = ords
    if not len(docs):
        return {"n_docs": 0, "min_dl": 0, "max_dl": 0, "sum_dl": 0,
                "sum_squares": 0, "avg_dl": 0.0, "variance": 0.0,
                "std_dev": 0.0}
    dl = reader.dl_lens[ords].astype(np.int64)
    n = len(docs)
    s = int(dl.sum())
    sos = int((dl * dl).sum())
    avg = float(s) / float(n)
    var = max(float(sos) / float(n) - avg * avg, 0.0)
    return {
        "n_docs": int(n),
        "min_dl": int(dl.min()),
        "max_dl": int(dl.max()),
        "sum_dl": s,
        "sum_squares": sos,
        "avg_dl": avg,
        "variance": var,
        "std_dev": math.sqrt(var),
    }


def score_taat_filtered(reader: IndexReader, query: str, filter_term: str,
                        k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Top-k BM25 restricted to docs containing ``filter_term`` — the ES
    bool-query ``filter`` (non-scoring) + ``must`` (scoring) pattern.

    Accumulation is identical to ``score_taat`` (same sorted-term float
    order → same scores for surviving docs); the filter applies to the
    CANDIDATE set before ranking, so no scoring doc is lost to top-k
    truncation. The filter list rides the postings-position cache.
    """
    terms = tokenize_query(query)
    fpl = reader.postings(filter_term)
    if fpl is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    acc = reader.acc_buffer()
    matched = False
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            continue
        matched = True
        docs, tfs = pl.decode_all()
        w = bm25.idf(reader.n_docs, len(docs))
        acc[docs] += w * bm25.tf_weight(tfs, reader.dl_lens[docs],
                                        reader.avgdl)
    if not matched:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    fdocs = fpl.decode_all()[0]
    cand = fdocs[acc[fdocs] != 0.0]
    return bm25.rank_topk(reader.dl_doc_ids[cand], acc[cand], k)


# --------------------------------------------------------------------------
# boolean retrieval (the ES bool-query analogue of the IT harness's
# _search surface, SURVEY.md Q1 — conjunctive/disjunctive over postings)
# --------------------------------------------------------------------------

def boolean_and(reader: IndexReader, query: str) -> np.ndarray:
    """External doc_ids containing EVERY query term (ordinal order).

    Intersects posting lists smallest-df-first so the candidate set
    shrinks fastest; lists are ordinal-ascending by codec invariant, so
    each step is one sorted-array intersection; ordinals map to
    external ids once at the end.
    """
    terms = tokenize_query(query)
    if not terms:
        return np.empty(0, dtype=np.int64)
    pls = []
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            return np.empty(0, dtype=np.int64)
        pls.append(pl)
    lists = sorted((pl.decode_all()[0] for pl in pls), key=len)
    cur = lists[0]
    for d in lists[1:]:
        cur = np.intersect1d(cur, d, assume_unique=True)
        if not len(cur):
            break
    return reader.dl_doc_ids[cur].astype(np.int64)


def boolean_and_not(reader: IndexReader, query: str,
                    exclude_query: str) -> np.ndarray:
    """ES bool ``must`` + ``must_not``: external doc_ids containing
    EVERY ``query`` term and NONE of ``exclude_query``'s terms.

    The exclusion is a sorted-array difference per excluded term
    against the shrinking conjunctive set — the must_not postings are
    decoded once and never scored (non-scoring clause, as in ES)."""
    terms = tokenize_query(query)
    if not terms:
        return np.empty(0, dtype=np.int64)
    pls = []
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            return np.empty(0, dtype=np.int64)
        pls.append(pl)
    lists = sorted((pl.decode_all()[0] for pl in pls), key=len)
    cur = lists[0]
    for d in lists[1:]:
        cur = np.intersect1d(cur, d, assume_unique=True)
        if not len(cur):
            return np.empty(0, dtype=np.int64)
    for t in sorted(set(tokenize_query(exclude_query))):
        if not len(cur):
            break
        pl = reader.postings(t)
        if pl is None:
            continue
        ex = pl.decode_all()[0]
        if len(ex):
            pos = np.minimum(np.searchsorted(ex, cur), len(ex) - 1)
            cur = cur[ex[pos] != cur]
    return reader.dl_doc_ids[cur].astype(np.int64)


def score_taat_range(reader: IndexReader, query: str, dl_lo: int, dl_hi: int,
                     k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Top-k BM25 restricted to docs whose doclen doc-value lies in
    [dl_lo, dl_hi] — the ES numeric ``range`` filter (non-scoring) +
    ``must`` (scoring) bool shape. Accumulation is score_taat's exact
    float order; the range applies to the full candidate set before
    ranking (no scoring doc lost to top-k truncation), served from the
    in-memory doclen doc-values by ordinal gather — no corpus read."""
    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    dl = reader.dl_lens[ords]
    keep = (dl >= dl_lo) & (dl <= dl_hi)
    return bm25.rank_topk(reader.dl_doc_ids[ords[keep]], scores[keep], k)


def score_function_gauss(reader: IndexReader, query: str, k: int = 10, *,
                         origin: float, scale: float, decay: float = 0.5
                         ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``function_score`` with a ``gauss`` decay on the doclen
    doc-value, multiplied into the BM25 query score (the
    ``boost_mode: multiply`` default): score(d) = bm25(q, d) ×
    exp(-(doclen(d) − origin)² / 2σ²) with σ² = scale² / (−2 ln decay),
    so a doc at distance ``scale`` from ``origin`` keeps ``decay`` of
    its relevance — Elasticsearch's decay parameterization exactly.

    The decay rescores the FULL match set (not a top-k reranking — a
    decayed tail doc can still beat an off-origin head doc), served by
    ordinal gather from the in-memory doclen doc-values; accumulation
    keeps score_taat's float order, so results are deterministic and
    oracle-replicable. Doc-value decays are the scale path ES itself
    uses: no stored field, no corpus read, one multiply per candidate.
    """
    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    sigma2 = (scale * scale) / (-2.0 * np.log(decay))
    dl = reader.dl_lens[ords].astype(np.float64)
    mult = np.exp(-np.square(dl - origin) / (2.0 * sigma2))
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores * mult, k)


def score_field_value_factor(reader: IndexReader, query: str, k: int = 10,
                             *, factor: float = 1.0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``function_score`` ``field_value_factor`` on the doclen
    doc-value with the ``ln1p`` modifier: score(d) = bm25(q, d) ×
    ln(1 + factor · doclen(d)) — the "boost by a numeric field"
    primitive (popularity, length, click count). Same full-match-set
    rescore + doc-value-gather plan as ``score_function_gauss``.

    Computed as np.log(1.0 + factor·dl), NOT np.log1p: the DuckDB
    oracle only has ln(1 + x), and the two differ in the last ulp for
    small x — the engine replays the oracle's exact float path.
    """
    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    dl = reader.dl_lens[ords].astype(np.float64)
    mult = np.log(1.0 + factor * dl)
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores * mult, k)


def score_function_exp(reader: IndexReader, query: str, k: int = 10, *,
                       origin: float, scale: float, decay: float = 0.5
                       ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``function_score`` with an ``exp`` decay on the doclen
    doc-value (``boost_mode: multiply``): score(d) = bm25(q, d) ×
    exp(λ·|doclen(d) − origin|) with λ = ln(decay)/scale, so a doc at
    distance ``scale`` keeps exactly ``decay`` of its relevance —
    Elasticsearch's exp parameterization. λ is precomputed in Python
    float64 so the SQL oracle replays the identical float path. Same
    full-match-set rescore + doc-value gather plan as gauss."""
    import math

    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    lam = math.log(decay) / scale
    dl = reader.dl_lens[ords].astype(np.float64)
    mult = np.exp(lam * np.abs(dl - origin))
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores * mult, k)


def score_function_linear(reader: IndexReader, query: str, k: int = 10, *,
                          origin: float, scale: float, decay: float = 0.5
                          ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``function_score`` with a ``linear`` decay on doclen:
    score(d) = bm25(q, d) × max(0, (s − |doclen(d) − origin|)/s) with
    s = scale/(1 − decay) — relevance falls linearly and hits ZERO at
    distance s (ES keeps the doc in the hit set with score 0, as does
    the engine: zero-score docs rank after every positive score, ties
    by doc_id)."""
    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    s = scale / (1.0 - decay)
    dl = reader.dl_lens[ords].astype(np.float64)
    mult = np.maximum(0.0, (s - np.abs(dl - origin)) / s)
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores * mult, k)


def score_rank_feature(reader: IndexReader, query: str, k: int = 10, *,
                       pivot: float, boost: float = 1.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``rank_feature`` query (saturation function) in a bool
    ``should`` beside the scoring match — the static-signal boost
    (pagerank, popularity; here the doclen doc-value): score(d) =
    bm25(q, d) + boost × dl/(dl + pivot). A doc at dl = pivot gets
    exactly boost/2; the additive ES ``should`` combination means the
    signal can promote but never veto. One doc-value gather + one
    fused multiply-add over the match set — the same O(match set)
    plan ES runs its rank_feature scorer with."""
    ords, scores = _taat_scores_ords(reader, query)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    dl = reader.dl_lens[ords].astype(np.float64)
    sat = dl / (dl + pivot)
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores + boost * sat, k)


def facet_doclen_ranges(reader: IndexReader, query: str,
                        ranges: list[tuple[int | None, int | None]]
                        ) -> list[int]:
    """ES ``range`` aggregation over the full match set on the doclen
    doc-value: per bucket, the count of matched docs with
    from ≤ doclen < to (ES's inclusive-from / exclusive-to rule; None
    = open end). Buckets may overlap or leave gaps — each is counted
    independently, exactly as ES does. Vectorized comparisons over the
    gathered doc-values; a doc-partitioned reader sums partial counts
    (n_buckets × partitions rows)."""
    ords = boolean_or_ords(reader, query)
    if not len(ords):
        return [0] * len(ranges)
    dl = reader.dl_lens[ords].astype(np.int64)
    out = []
    for lo, hi in ranges:
        m = np.ones(len(dl), dtype=bool)
        if lo is not None:
            m &= dl >= lo
        if hi is not None:
            m &= dl < hi
        out.append(int(m.sum()))
    return out


def explain_score(reader: IndexReader, query: str, doc_ids: np.ndarray
                  ) -> list[tuple[int, str, int, float]]:
    """ES ``_explain`` analogue: the per-term BM25 breakdown for given
    EXTERNAL doc_ids — rows (doc_id, term, tf, contribution) for each
    query term present in the doc, contribution = idf(t) ×
    tf_weight(tf, doclen, avgdl), exactly the summand ``score_taat``
    accumulates (so sum(contribution) per doc == the ranked score).
    Each term costs one posting decode + one searchsorted into the
    requested ordinal set — no accumulator, no corpus read."""
    targets = np.asarray(doc_ids, dtype=np.int64)
    # ordinals via the reader's cached ext->ord lookup; _explain on an
    # unknown id is "not found" (no rows), not an error
    tgt_sorted = np.sort(reader.ordinals_of(targets, missing="drop"))
    out: list[tuple[int, str, int, float]] = []
    for t in sorted(set(tokenize_query(query))):
        pl = reader.postings(t)
        if pl is None:
            continue
        docs, tfs = pl.decode_all()
        hit = np.searchsorted(docs, tgt_sorted)
        hit = np.minimum(hit, len(docs) - 1)
        m = docs[hit] == tgt_sorted
        if not m.any():
            continue
        ords = tgt_sorted[m]
        tf = tfs[hit[m]].astype(np.float64)
        w = bm25.idf(reader.n_docs, len(docs))
        contrib = w * bm25.tf_weight(tf, reader.dl_lens[ords], reader.avgdl)
        ext = reader.dl_doc_ids[ords]
        out.extend(zip(ext.tolist(), [t] * len(ext),
                       tf.astype(np.int64).tolist(), contrib.tolist()))
    return out


def sort_by_doclen(reader: IndexReader, query: str, k: int = 10
                   ) -> tuple[np.ndarray, np.ndarray]:
    """ES sort-by-field: the conjunctive match set ordered by the
    doclen doc-value (desc, doc_id asc tiebreak — deterministic),
    top-k. No scoring: postings intersect, doc-values gather, one
    partial sort. Returns (external doc_ids, doclens)."""
    terms = tokenize_query(query)
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pls = []
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pls.append(pl)
    lists = sorted((pl.decode_all()[0] for pl in pls), key=len)
    cur = lists[0]
    for d in lists[1:]:
        cur = np.intersect1d(cur, d, assume_unique=True)
        if not len(cur):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.dl_doc_ids[cur].astype(np.int64)
    dl = reader.dl_lens[cur].astype(np.int64)
    order = np.lexsort((ext, -dl))[:k]
    return ext[order], dl[order]


#: function_score random_score constants: a seeded LCG over the id
#: doc-value (ES hashes _seq_no/_id with murmur; the graft pins an
#: explicit LCG so oracles replay it as pure int64 math — both factors
#: stay < 2^31, so every product fits int64)
RANDOM_PRIME = 2147483629
RANDOM_MUL = 1103515245
RANDOM_ADD = 12345


def score_random(reader: IndexReader, query: str, k: int = 10
                 ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``function_score`` + ``random_score`` (seeded, field=doc_id):
    rank the match set (bool-should union over the query terms) by the
    deterministic per-doc hash desc, ties to the smaller id. Scores are
    the raw hash values as float64 (ES maps them into [0,1) — a
    monotone transform, so rank order is the hash order). O(df) over
    the posting lists; never a corpus scan."""
    terms = tokenize_query(query)
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ords = np.unique(np.concatenate(hits))
    ids = reader.dl_doc_ids[ords].astype(np.int64)
    h = ((ids % RANDOM_PRIME) * RANDOM_MUL + RANDOM_ADD) % RANDOM_PRIME
    top = np.lexsort((ids, -h))[:k]
    return ids[top], h[top].astype(np.float64)


def boolean_or_ords(reader: IndexReader, query: str) -> np.ndarray:
    """Matched ORDINALS (postings union) — the aggregation input; the
    doclen facets gather ``reader.dl_lens[ords]`` directly instead of
    round-tripping external ids through the docmap lookup."""
    terms = tokenize_query(query)
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(hits))


def boolean_or(reader: IndexReader, query: str) -> tuple[np.ndarray, np.ndarray]:
    """(external doc_ids in ordinal order, distinct query terms matched)."""
    terms = tokenize_query(query)
    hits = [pl.decode_all()[0] for t in terms
            if (pl := reader.postings(t)) is not None]
    if not hits:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(np.concatenate(hits), return_counts=True)
    return reader.dl_doc_ids[uniq].astype(np.int64), counts.astype(np.int64)


def score_min_should_match(reader: IndexReader, query: str, m: int,
                           k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """ES bool ``should`` + ``minimum_should_match``: BM25 top-k over
    docs matching at least ``m`` DISTINCT query terms, scoring only the
    matched clauses (each distinct term is one should clause — ES
    semantics). Accumulation runs in sorted-distinct-term order (fixed
    float order, the determinism contract); the clause counter is a
    dense per-partition int16 beside the score accumulator, so the
    pass stays one scatter-add per term with no candidate re-walk."""
    terms = sorted(set(tokenize_query(query)))
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    acc = reader.acc_buffer()
    cnt = np.zeros(len(acc), dtype=np.int16)
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            continue
        docs, tfs = pl.decode_all()
        w = bm25.idf(reader.n_docs, len(docs))
        acc[docs] += w * bm25.tf_weight(tfs, reader.dl_lens[docs],
                                        reader.avgdl)
        cnt[docs] += 1
    cand = np.nonzero(cnt >= m)[0]
    if not len(cand):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return bm25.rank_topk(reader.dl_doc_ids[cand], acc[cand], k)


def score_terms_set(reader: IndexReader, query: str, k: int = 10,
                    m_div: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """ES ``terms_set`` with ``minimum_should_match_field``: the
    required distinct-term count is PER-DOC, derived from a numeric
    doc-value — here ``required(doc) = min(n_terms, 1 + doclen //
    m_div)`` (longer docs must match more terms; the engine's numeric
    field is doclen). Same one-pass dense counter as
    ``score_min_should_match``; only the threshold comparison gathers
    the doc-value."""
    terms = sorted(set(tokenize_query(query)))
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    acc = reader.acc_buffer()
    cnt = np.zeros(len(acc), dtype=np.int16)
    for t in terms:
        pl = reader.postings(t)
        if pl is None:
            continue
        docs, tfs = pl.decode_all()
        w = bm25.idf(reader.n_docs, len(docs))
        acc[docs] += w * bm25.tf_weight(tfs, reader.dl_lens[docs],
                                        reader.avgdl)
        cnt[docs] += 1
    need = np.minimum(len(terms),
                      1 + reader.dl_lens.astype(np.int64) // m_div)
    cand = np.nonzero(cnt >= need)[0]
    if not len(cand):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return bm25.rank_topk(reader.dl_doc_ids[cand], acc[cand], k)


def rescore_topk(reader: IndexReader, pos_reader, query: str,
                 window: int = 50, k: int = 10, boost: float = 5.0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``rescore`` (query rescorer with ``window_size``): rank the
    BM25 top-``window`` candidates, add ``boost`` to every candidate
    containing the query's LEADING BIGRAM as an exact phrase (verified
    against the positional index — no text re-read), re-rank, return
    top-k. Window cut and final order both use ``rank_topk``'s rounded
    (score desc, doc_id asc) rule, so the whole op is deterministic.

    ``pos_reader`` is a ``PositionalReader`` or
    ``ShardedPositionalEngine`` (anything ``phrase_search`` accepts);
    at scale the window is k-bounded per shard, the phrase set resolves
    inside the positional shards, and only window-sized id arrays meet
    on the coordinator."""
    from .positions import phrase_search

    win_ids, win_scores = score_taat(reader, query, window)
    if not len(win_ids):
        return win_ids, win_scores
    # leading bigram in QUERY-TEXT order (tokenize_query sorts/dedupes,
    # which would scramble the phrase)
    terms = _TOKEN_RE.findall(query.lower())
    phrase = " ".join(terms[:2]) if len(terms) >= 2 else (
        terms[0] if terms else "")
    phrase_ids = phrase_search(pos_reader, phrase)
    final = win_scores + np.where(np.isin(win_ids, phrase_ids), boost, 0.0)
    return bm25.rank_topk(win_ids, final, k)


# --------------------------------------------------------------------------
# batch query surface
# --------------------------------------------------------------------------

class QueryEngine:
    """Stateful query server: index loaded once, queries served per call.

    Usable directly or as a ``map_batches`` actor class over a query
    dataset (``concurrency=N`` replicates the reader, the query-side
    actor-pool analogue of ``uploadParallelism``).
    """

    _STRATEGIES = {"taat": score_taat, "maxscore": score_maxscore}

    def __init__(self, index_dir: str, strategy: str = "maxscore"):
        from ..health import HealthMonitor

        if strategy not in self._STRATEGIES:
            # a typo must not silently serve another strategy
            raise ValueError(
                f"unknown strategy {strategy!r} — one of "
                f"{sorted(self._STRATEGIES)}")
        self.reader = IndexReader(index_dir)
        self.strategy = strategy
        # H1: the probe the serving layer polls (RuntimeService analogue;
        # unhealthyLatency default per reference.conf:49-52)
        self.health = HealthMonitor()

    def topk(self, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        fn = self._STRATEGIES[self.strategy]
        op = self.health.begin("query")
        try:
            out = fn(self.reader, query, k)
        except Exception as e:
            self.health.end(op, ok=False, error=str(e))
            raise
        self.health.end(op, ok=True)
        return out

    def msearch(self, queries: list[str], k: int = 10,
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """ES ``_msearch`` — in-process there is no round trip to fuse,
        so this is the API-parity loop (the distributed planes fuse the
        scatter; see ``ShardedQueryEngine.msearch``)."""
        return [self.topk(q, k) for q in queries]

    def healthy(self) -> bool:
        return self.health.healthy()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters per serving cache (``IndexReader.cache_stats``)."""
        return self.reader.cache_stats()

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids: list[int] = []
        ranks: list[int] = []
        docs: list[int] = []
        scores: list[float] = []
        ks = batch["k"].to_pylist() if "k" in batch.column_names else [10] * batch.num_rows
        for qid, q, k in zip(batch["qid"].to_pylist(), batch["query"].to_pylist(), ks):
            d, s = self.topk(q, int(k))
            for r in range(len(d)):
                qids.append(int(qid))
                ranks.append(r + 1)
                docs.append(int(d[r]))
                scores.append(float(s[r]))
        return pa.table({
            "qid": pa.array(qids, type=pa.int32()),
            "rank": pa.array(ranks, type=pa.int32()),
            "doc_id": pa.array(docs, type=pa.int64()),
            "score": pa.array(scores, type=pa.float64()),
        })
