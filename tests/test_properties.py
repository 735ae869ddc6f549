"""Property-based checks (hypothesis) for the session's pure kernels:
no Ray needed — these exercise the numpy primitives the distributed
ops are built from."""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snowplow_elasticsearch_loader_ray.pipelines.query import isin_sorted


@given(st.lists(st.integers(-10**9, 10**9), max_size=60),
       st.lists(st.integers(-10**9, 10**9), max_size=60))
@settings(max_examples=200, deadline=None)
def test_isin_sorted_matches_python_membership(hay, needles):
    hs = np.array(sorted(set(hay)), dtype=np.int64)
    vals = np.array(needles, dtype=np.int64)
    got = isin_sorted(hs, vals)
    want = np.array([v in set(hay) for v in needles], dtype=bool)
    assert np.array_equal(got, want)


@given(st.integers(1, 400))
@settings(max_examples=100, deadline=None)
def test_chunk_spans_tile_the_document(n_tokens):
    """Every token is covered, chunks are CHUNK_LEN except a clipped
    tail, starts step by CHUNK_STRIDE, and the chunk count matches the
    closed-form both engine and oracle use."""
    from snowplow_elasticsearch_loader_ray.driver_queries import (
        CHUNK_LEN, CHUNK_STRIDE)

    if n_tokens <= CHUNK_LEN:
        n_chunks = 1
    else:
        n_chunks = (n_tokens - CHUNK_LEN + CHUNK_STRIDE - 1) \
            // CHUNK_STRIDE + 1
    starts = [i * CHUNK_STRIDE for i in range(n_chunks)]
    ends = [min(s + CHUNK_LEN, n_tokens) for s in starts]
    assert starts[0] == 0 and ends[-1] == n_tokens
    covered = set()
    for s, e in zip(starts, ends):
        assert s < e
        covered |= set(range(s, e))
    assert covered == set(range(n_tokens))
    # one more window would start past the end of useful coverage
    assert n_chunks == 1 or starts[-1] < n_tokens - CHUNK_LEN + CHUNK_STRIDE


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=80),
       st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_winnowing_selection_invariants(hashes, w):
    """Reference (brute-force) winnowing vs the vectorized selection:
    identical for any hash sequence and window size, selections are
    window-dense (every full window contains a selected position), and
    adding a suffix never changes selections w windows earlier."""
    from numpy.lib.stride_tricks import sliding_window_view

    g = np.array(hashes, dtype=np.uint64)

    def brute(g):
        sel = set()
        if len(g) < w:
            seg = g
            sel.add(len(seg) - 1 - int(np.argmin(seg[::-1])))
            return sel
        for j in range(len(g) - w + 1):
            win = g[j: j + w]
            m = win.min()
            sel.add(j + max(i for i in range(w) if win[i] == m))
        return sel

    def vectorized(g):
        sel = np.zeros(len(g), dtype=bool)
        if len(g) >= w:
            W = sliding_window_view(g, w)
            rarg = w - 1 - np.argmin(W[:, ::-1], axis=1)
            starts = np.arange(len(W))
            sel[starts + rarg] = True
        else:
            sel[len(g) - 1 - int(np.argmin(g[::-1]))] = True
        return set(np.nonzero(sel)[0].tolist())

    got = vectorized(g)
    assert got == brute(g)
    # density: every full window holds >= 1 selection
    if len(g) >= w:
        for j in range(len(g) - w + 1):
            assert any(j <= p <= j + w - 1 for p in got)


@given(st.lists(st.floats(-1.0, 1.0, width=32),
                min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_quantize_positive_and_monotone(vals):
    from snowplow_elasticsearch_loader_ray.pipelines.cluster import (
        KM_OFFSET, KM_SCALE, quantize)

    e = np.array(vals, dtype=np.float32).reshape(1, -1)
    q = quantize(e)
    assert (q >= 0).all()
    # quantization preserves order within resolution
    back = (q[0] - KM_OFFSET).astype(np.float64) / KM_SCALE
    # floor quantization: back in (e - 1/SCALE, e]; a tiny-negative
    # input lands exactly at distance 1/SCALE, hence the closed bound
    assert np.all(np.abs(back - e[0].astype(np.float64)) <= 1.0 / KM_SCALE)


def _random_index(root: str, seed: int, block_size: int = 128) -> str:
    """A small random corpus built in process: ``head`` in every doc, a
    few mid terms and a Zipf tail of rare terms, so head+tail queries
    reach MaxScore's prune path. ``block_size`` changes only the block
    layout of the postings. Returns the index dir."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.build import build_index

    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 160))
    texts = []
    for _ in range(n):
        words = ["head"] * int(rng.integers(1, 4))
        words += [f"mid{m}" for m in range(5) if rng.random() < 0.4]
        words += [f"t{int(z)}" for z in rng.zipf(1.4, int(rng.integers(0, 6)))
                  if z < 60]
        rng.shuffle(words)
        texts.append(" ".join(words))
    ids = rng.choice(10**9, size=n, replace=False).astype(np.int64)
    pq.write_table(pa.table({"doc_id": pa.array(ids), "text": texts}),
                   os.path.join(root, "docs.parquet"))
    idx = os.path.join(root, "index")
    build_index(os.path.join(root, "docs.parquet"), idx,
                IndexConfig(num_term_shards=int(rng.integers(1, 4)),
                            block_size=block_size))
    return idx


def _query_stream(seed: int, terms: list[str]) -> list[tuple[str, int]]:
    """(query, k) requests with repeats: single terms, head + tail and
    tail-only mixes, and an unknown term."""
    rng = np.random.default_rng(seed + 1)
    out: list[tuple[str, int]] = []
    for _ in range(24):
        if out and rng.random() < 0.3:
            out.append(out[int(rng.integers(len(out)))])   # a repeat
            continue
        m = int(rng.integers(1, 6))
        q = [f"mid{int(rng.integers(5))}" if rng.random() < 0.5
             else str(rng.choice(terms)) for _ in range(m)]
        if rng.random() < 0.6:
            q.append("head")
        if rng.random() < 0.1:
            q.append("nosuchterm")
        out.append((" ".join(q), int(rng.choice([1, 2, 3, 10]))))
    return out


def _reference_partials(reader, query: str):
    """Cache-free TAAT written from ``decode_all``: per-doc partial
    lists in sorted-term order (the engine's summation order)."""
    from snowplow_elasticsearch_loader_ray import bm25
    from snowplow_elasticsearch_loader_ray.codec import PostingList
    from snowplow_elasticsearch_loader_ray.pipelines.query import tokenize_query

    by_doc: dict[int, list[float]] = {}
    for t in tokenize_query(query):
        e = reader.terms.get(t)
        if e is None:
            continue
        docs, tfs = PostingList(e[2]).decode_all()
        part = bm25.idf(reader.n_docs, len(docs)) * bm25.tf_weight(
            tfs, reader.dl_lens[docs], reader.avgdl)
        for d, p in zip(docs.tolist(), part.tolist()):
            by_doc.setdefault(d, []).append(p)
    return by_doc


def _reference_scores(reader, query: str, tie_breaker=None):
    """(ordinals ascending, unrounded scores) of the cache-free TAAT."""
    by_doc = _reference_partials(reader, query)
    ords = np.array(sorted(by_doc), dtype=np.int64)
    scores = []
    for d in ords.tolist():
        total = 0.0
        for p in by_doc[d]:
            total += p
        if tie_breaker is not None:
            best = max(by_doc[d])
            total = best + tie_breaker * (total - best)
        scores.append(total)
    return ords, np.array(scores, dtype=np.float64)


def _reference_topk(reader, query: str, k: int, tie_breaker=None):
    from snowplow_elasticsearch_loader_ray import bm25

    ords, scores = _reference_scores(reader, query, tie_breaker)
    return bm25.rank_topk(reader.dl_doc_ids[ords], scores, k)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_scored_list_cache_bit_identical_to_cache_free_taat(seed):
    """``score_taat``, ``score_maxscore`` and ``score_dismax`` through the
    reader's scored-list cache equal a cache-free TAAT bit for bit — on a
    cold reader, on the same reader warm after the whole stream, and on
    a reader whose 1-posting-per-shard cap evicts on every put. One-block
    lists serve from the short table, never the LRU, so the evicting
    reader reads the same corpus in blocks of 8 postings: its lists of
    several blocks go through the LRU. Each term's MaxScore bound, computed on
    first use and kept in its term entry, is >= every partial of the
    term."""
    import tempfile

    import pytest

    from snowplow_elasticsearch_loader_ray.codec import PostingList
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, _taat_scores_ords, score_dismax, score_maxscore,
        score_taat)

    with tempfile.TemporaryDirectory() as root:
        idx = _random_index(root, seed)
        reader = IndexReader(idx)
        assert all(e[3] is None for e in reader.terms.values())
        os.mkdir(b8 := os.path.join(root, "b8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GRAFT_SHARD_HOT_POSTINGS", "1")
            evicting = IndexReader(_random_index(b8, seed, block_size=8))
        assert sorted(evicting.terms) == sorted(reader.terms)
        stream = _query_stream(seed, sorted(reader.terms))
        for r in (reader, reader, evicting):    # cold, warm, evicting
            for q, k in stream:
                ords, raw = _taat_scores_ords(r, q)     # unrounded sums
                want_ords, want_raw = _reference_scores(r, q)
                assert ords.tolist() == want_ords.tolist(), q
                assert raw.tolist() == want_raw.tolist(), q
                want = _reference_topk(r, q, k)
                for fn in (score_maxscore, score_taat):
                    d, s = fn(r, q, k)
                    assert d.tolist() == want[0].tolist(), (fn.__name__, q)
                    assert s.tolist() == want[1].tolist(), (fn.__name__, q)
                d, s = score_dismax(r, q, k, tie_breaker=0.3)
                want = _reference_topk(r, q, k, tie_breaker=0.3)
                assert d.tolist() == want[0].tolist(), q
                assert s.tolist() == want[1].tolist(), q
        for r in (reader, evicting):
            short = sum(PostingList(e[2]).n_blocks == 1
                        for e in r.terms.values())
            assert r.cache_stats()["short_lists"]["terms"] == short > 0
        # "head" is in every doc (>= 20): several blocks of 8
        assert evicting.cache_stats()["scored_lists"]["evictions"] > 0
        for t in sorted(reader.terms):
            ub = reader.bound(t)
            assert reader.terms[t][3] == ub      # kept in the entry
            part = [p for ps in _reference_partials(reader, t).values()
                    for p in ps]
            assert max(part) <= ub, t


def test_maxscore_rescore_reads_scored_lists(tmp_path, monkeypatch):
    """A pruned head term decodes only its candidate blocks while its
    list is cold; once its scored list is cached, the rescore takes the
    candidates' partials from it and decodes nothing — same answer."""
    from snowplow_elasticsearch_loader_ray.codec import PostingList
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, score_maxscore, score_taat)

    idx = _random_index(str(tmp_path), 7)
    reader = IndexReader(idx)
    rare = min(reader.terms, key=lambda t: (reader.terms[t][0], t))
    q = f"head {rare}"
    real = PostingList.decode_for
    calls = []

    def counting(self, cand):
        calls.append(len(cand))
        return real(self, cand)

    monkeypatch.setattr(PostingList, "decode_for", counting)
    cold = score_maxscore(reader, q, 1)
    assert calls, "the head term was not pruned"
    score_taat(reader, "head")              # caches head's scored list
    calls.clear()
    warm = score_maxscore(reader, q, 1)
    assert not calls
    want = _reference_topk(IndexReader(idx), q, 1)
    for got in (cold, warm):
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


def _winners_by_dict(ids, prec):
    """Reference last-wins: per id, the row with the largest precedence,
    the later row on a tie."""
    best: dict[int, tuple[int, int]] = {}
    for row, (d, p) in enumerate(zip(ids, prec)):
        if d not in best or p >= best[d][0]:
            best[d] = (p, row)
    return [best[d][1] for d in sorted(best)]


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 3)),
                max_size=60),
       st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_last_wins_matches_dict_reference(rows, n_parts):
    """The live chain's kernel keeps, per doc_id, the largest precedence
    and the later row on a tie (duplicate ids and equal precedence are
    drawn on purpose), in doc_id order; run per ``doc_shard`` partition
    and concatenated, it keeps the same rows."""
    from snowplow_elasticsearch_loader_ray.pipelines.live import (
        _partition, last_wins)

    ids = np.array([d for d, _ in rows], dtype=np.int64)
    prec = np.array([p for _, p in rows], dtype=np.int64)
    win = last_wins(ids, prec)
    assert win.tolist() == _winners_by_dict(ids.tolist(), prec.tolist())
    parts = _partition(ids, n_parts)
    assert sorted(np.concatenate(parts).tolist()) == list(range(len(ids)))
    split = np.concatenate([ix[last_wins(ids[ix], prec[ix])] for ix in parts])
    assert split[np.argsort(ids[split])].tolist() == win.tolist()


@given(st.lists(st.one_of(
    st.tuples(st.just("write"),
              st.lists(st.integers(0, 9), max_size=8)),
    st.tuples(st.just("delete"),
              st.lists(st.integers(0, 9), max_size=4))), max_size=8))
@settings(max_examples=300, deadline=None)
def test_compaction_rule_matches_event_replay(events):
    """Compaction's encoding — drop each generation's rows that a later
    tombstone deletes, precedence = generation order — keeps exactly the
    docs (and versions) a replay of the writes and deletes in event
    order leaves live."""
    from snowplow_elasticsearch_loader_ray.pipelines.live import last_wins

    live: dict[int, tuple[int, int]] = {}
    for ev, (kind, ids) in enumerate(events):
        for row, d in enumerate(ids):
            if kind == "write":
                live[d] = (ev, row)
            else:
                live.pop(d, None)
    rows = []                                  # (doc_id, prec, version)
    gens = [ev for ev, (kind, _) in enumerate(events) if kind == "write"]
    for prec, ev in enumerate(gens):
        dead = {d for later, (kind, ids) in enumerate(events)
                if kind == "delete" and later > ev for d in ids}
        rows += [(d, prec, (ev, row))
                 for row, d in enumerate(events[ev][1]) if d not in dead]
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    win = last_wins(ids, np.array([r[1] for r in rows], dtype=np.int64))
    assert [(rows[i][0], rows[i][2]) for i in win] == sorted(live.items())
