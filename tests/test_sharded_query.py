"""Scatter-gather sharded query serving ≡ single-process reader."""

import numpy as np
import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine
from snowplow_elasticsearch_loader_ray.pipelines.sharded_query import ShardedQueryEngine

QUERIES = [
    "the", "data", "merge sort", "customer order line value",
    "the data table scan filter", "no such termxyz",
]


def test_sharded_equals_single_reader(ray_session, tmp_path):
    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "idx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    sharded = ShardedQueryEngine(idx)
    try:
        for q in QUERIES:
            d1, s1 = single.topk(q, 10)
            d2, s2 = sharded.topk(q, 10)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)  # bit-identical
    finally:
        sharded.shutdown()


def test_grid_engine_bit_identical(ray_session, tmp_path):
    """(term shard x doc partition) grid scores must be BIT-identical to
    the single-process reader, for a partition count that does not
    divide the shard count."""
    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "gidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    grid = ShardedQueryEngine(idx, n_doc_parts=3)
    try:
        for q in QUERIES:
            d1, s1 = single.topk(q, 10)
            d2, s2 = grid.topk(q, 10)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)
    finally:
        grid.shutdown()


def test_doc_parts_match_scores_and_tf_partials(ray_session, idx16):
    """With three doc partitions, the full match set (``match_scores``,
    the multi-field engine's per-field scorer) equals the single
    reader's TAAT sums bit for bit, and each term's raw tf slices
    (``tf_partials``, the BM25F input) are doc-disjoint and together
    equal its decoded posting list."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, _taat_scores)

    r = IndexReader(idx16)
    eng = ShardedQueryEngine(idx16, n_doc_parts=3)
    try:
        assert len(eng.readers) == 3 * 4         # 3 stripes x 4 CPUs
        for q in QUERIES + [" ".join(_words_per_shard(16))]:
            i1, m1 = _taat_scores(r, q)
            i2, m2 = eng.match_scores(q)
            np.testing.assert_array_equal(i1, i2, err_msg=q)
            np.testing.assert_array_equal(m1, m2, err_msg=q)
        terms = sorted(r.terms)
        got = eng._scatter_raw("tf_partials", terms)
        assert sorted(got) == terms
        for t, slices in got.items():
            assert 1 <= len(slices) <= 3, t
            docs = np.concatenate([d for d, _ in slices])
            tfs = np.concatenate([f for _, f in slices])
            order = np.argsort(docs)
            want_d, want_f = r.postings(t).decode_all()
            np.testing.assert_array_equal(docs[order], want_d, err_msg=t)
            np.testing.assert_array_equal(tfs[order], want_f, err_msg=t)
    finally:
        eng.shutdown()


@pytest.mark.parametrize("n_doc_parts", [1, 3])
def test_sharded_reader_survives_actor_kill(ray_session, tmp_path,
                                            n_doc_parts):
    """Serving-layer fault tolerance: kill a reader actor mid-service;
    Ray restarts it (reloading its shard, or its doc stripe of it, from
    the committed index) and the next query returns identical
    results."""
    import ray

    cfg = IndexConfig(num_term_shards=8)
    index_dir = str(tmp_path / "idx_kill")
    B.build_index("/root/testdata/sf0.001/documents.parquet", index_dir, cfg)
    eng = ShardedQueryEngine(index_dir, n_doc_parts=n_doc_parts)
    try:
        before_d, before_s = eng.topk("the data", 10)
        ray.kill(eng.readers[0], no_restart=False)
        after_d, after_s = eng.topk("the data", 10)
        assert before_d.tolist() == after_d.tolist()
        assert before_s.tolist() == after_s.tolist()
    finally:
        eng.shutdown()


def test_msearch_bit_identical_to_per_query_topk(ray_session, tmp_path):
    """_msearch fuses the scatter; results must equal per-query topk
    bit-for-bit in-process and on the distributed plane with one and
    with three doc partitions."""
    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "midx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    want = [single.topk(q, 10) for q in QUERIES]
    assert [w[0].tolist() for w in single.msearch(QUERIES, 10)] == \
        [w[0].tolist() for w in want]
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: ShardedQueryEngine(idx, n_doc_parts=3)):
        eng = mk()
        try:
            got = eng.msearch(QUERIES, 10)
            for q, (d1, s1), (d2, s2) in zip(QUERIES, want, got):
                np.testing.assert_array_equal(d1, d2, err_msg=q)
                np.testing.assert_array_equal(s1, s2, err_msg=q)
            # repeat: fused path must also serve from warm caches
            got2 = eng.msearch(QUERIES, 10)
            for (d1, _), (d2, _) in zip(got, got2):
                np.testing.assert_array_equal(d1, d2)
        finally:
            eng.shutdown()


def test_short_lists_equal_scored_list(ray_session, tmp_path):
    """Every one-block list, scored at load in one batched pass, equals
    ``servecache.scored_list`` (decode_all + bm25_partials) byte for
    byte — in the single reader and in a ShardReader actor — and serves
    without touching the scored-list LRU; lists of several blocks still
    go through the LRU."""
    import ray

    from snowplow_elasticsearch_loader_ray.codec import PostingList
    from snowplow_elasticsearch_loader_ray.pipelines.query import IndexReader
    from snowplow_elasticsearch_loader_ray.pipelines.servecache import (
        scored_list)
    from snowplow_elasticsearch_loader_ray.pipelines.sharded_query import (
        ShardReader)
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    import pyarrow as pa
    import pyarrow.parquet as pq

    # "head" in all 300 docs (three blocks), mid terms in about half,
    # a tail of rare terms in a few
    rng = np.random.default_rng(3)
    texts = [" ".join(["head"] + [f"mid{m}" for m in range(8)
                                  if rng.random() < 0.5]
                      + [f"t{int(z)}" for z in rng.zipf(1.3, 4) if z < 400])
             for _ in range(300)]
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(300) * 7 + 1),
                             "text": texts}), str(tmp_path / "docs.parquet"))
    idx = str(tmp_path / "sidx")
    B.build_index(str(tmp_path / "docs.parquet"), idx,
                  IndexConfig(num_term_shards=4))
    reader = IndexReader(idx)
    want = {t: scored_list(reader, PostingList(e[2]), e[0])
            for t, e in reader.terms.items()}
    short = sorted(t for t, e in reader.terms.items()
                   if PostingList(e[2]).n_blocks == 1)
    assert 0 < len(short) < len(want)          # both kinds of list occur

    def same(got, t):
        return all(g.tobytes() == w.tobytes() and g.dtype == w.dtype
                   for g, w in zip(got, want[t]))

    for t in short:
        got = reader.scored(t)
        assert same(got, t), t
        assert not (got[0].flags.writeable or got[1].flags.writeable)
        assert reader.cached(t) is not None
    stats = reader.cache_stats()
    assert stats["short_lists"] == {
        "terms": len(short),
        "postings": sum(len(want[t][0]) for t in short),
        "bytes": 16 * sum(len(want[t][0]) for t in short)}
    assert stats["scored_lists"]["misses"] == 0
    long = sorted(set(want) - set(short))
    for t in long:
        assert same(reader.scored(t), t), t
    assert reader.cache_stats()["scored_lists"]["entries"] == len(long)

    actor = ShardReader.options(num_cpus=0.1).remote(idx, [1, 3])
    try:
        own = [t for t in want if term_shard_one(t, 4) in (1, 3)]
        assert any(t in short for t in own) and any(t not in short
                                                    for t in own)
        got = ray.get(actor.partial_scores.remote(
            [t for t in own if t in short]))
        assert sorted(got) == sorted(t for t in own if t in short)
        for t, hit in got.items():
            assert same(hit, t), t
        stats = ray.get(actor.cache_stats.remote())
        assert stats["short_lists"]["terms"] == len(got)
        assert stats["scored_lists"]["misses"] == 0
        got = ray.get(actor.partial_scores.remote(own))
        assert sorted(got) == sorted(own)
        for t, hit in got.items():
            assert same(hit, t), t
        stats = ray.get(actor.cache_stats.remote())["scored_lists"]
        assert stats["entries"] == len([t for t in own if t not in short])
    finally:
        ray.kill(actor)


def test_serving_caches_bit_identical(ray_session, tmp_path):
    """Champion lists + request cache: warm repeats, varied k order and
    deep-k champion bypass all return the single reader's exact arrays,
    and a caller mutating a returned array cannot corrupt the cache."""
    from snowplow_elasticsearch_loader_ray.pipelines.servecache import CHAMP_K

    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "cidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: ShardedQueryEngine(idx, n_doc_parts=3)):
        eng = mk()
        try:
            # k descending then ascending: champion prefix slices and
            # distinct request-cache keys must each match the reference
            for q in ("the", "data", "the data table scan filter"):
                for k in (10, 5, 10, CHAMP_K, CHAMP_K + 50, 3):
                    d1, s1 = single.topk(q, k)
                    d2, s2 = eng.topk(q, k)
                    np.testing.assert_array_equal(d1, d2, err_msg=f"{q} k={k}")
                    np.testing.assert_array_equal(s1, s2, err_msg=f"{q} k={k}")
            d, s = eng.topk("the", 10)
            d[:] = -1                     # hostile caller mutates its copy
            s[:] = 0.0
            d2, s2 = eng.topk("the", 10)  # cache must be unaffected
            w1, w2 = single.topk("the", 10)
            np.testing.assert_array_equal(d2, w1)
            np.testing.assert_array_equal(s2, w2)
        finally:
            eng.shutdown()


@pytest.mark.parametrize("n_doc_parts", [1, 3])
def test_sharded_facets_bit_identical_to_single_reader(ray_session, tmp_path,
                                                       n_doc_parts):
    """Distributed aggregations: the sharded plane's lang terms facet
    and doclen stats facet equal the single reader's exactly, with one
    doc partition or several, and the facet after a topk rides the
    coordinator's partial cache; a ``_search`` body with ``terms`` and
    ``stats`` aggs runs through the distributed planner."""
    from snowplow_elasticsearch_loader_ray.pipelines import query_dsl as DSL
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, facet_doclen_stats, facet_lang_counts)

    cfg = IndexConfig(num_term_shards=8)
    index_dir = str(tmp_path / "idx_facet")
    B.build_index("/root/testdata/sf0.001/documents.parquet", index_dir, cfg)
    r = IndexReader(index_dir)
    eng = ShardedQueryEngine(index_dir, n_doc_parts=n_doc_parts)
    try:
        for q in ["data stream", "slow query table", "zzznoterm"]:
            assert eng.facet_lang_counts(q) == facet_lang_counts(r, q)
            assert eng.facet_doclen_stats(q) == facet_doclen_stats(r, q)
        # warm path: same facet twice (cache-hit) stays identical
        a = eng.facet_lang_counts("data stream")
        assert a == eng.facet_lang_counts("data stream")
        body = {"query": {"match": {"text": "data stream"}},
                "size": 7, "from": 3,
                "aggs": {"langs": {"terms": {"field": "lang"}},
                         "dl": {"stats": {"field": "doclen"}}}}
        d, s, aggs = DSL.execute_distributed(eng, body)
        sd, ss, saggs = DSL.execute_with_aggs(r, body)
        np.testing.assert_array_equal(d, sd)
        np.testing.assert_array_equal(s, ss)
        assert aggs == saggs and aggs["langs"] and aggs["dl"]["n_docs"]
    finally:
        eng.shutdown()


def test_doc_parts_must_be_positive(tmp_path):
    """Zero doc partitions would start no reader and answer every query
    with nothing; the engine refuses before it reads the index."""
    for bad in (0, -2):
        with pytest.raises(ValueError, match="n_doc_parts"):
            ShardedQueryEngine(str(tmp_path / "no_index"), n_doc_parts=bad)


def test_meta_cache_stays_bounded_with_doc_parts(ray_session, idx16):
    """The coordinator's term-meta LRU keeps its cap with several doc
    partitions: capped at 4 entries, ten distinct one- and two-term
    queries leave at most 4 entries and every answer still equals the
    single reader's (evicted terms are fetched again)."""
    single = QueryEngine(idx16)
    terms = sorted(single.reader.terms)[:10]
    assert len(terms) == 10
    eng = ShardedQueryEngine(idx16, n_doc_parts=3)
    try:
        eng._meta_cache_cap = 4
        for rep in range(2):
            for i, t in enumerate(terms):
                q = t if rep == 0 else f"{t} {terms[i - 1]}"
                d1, s1 = single.topk(q, 10)
                d2, s2 = eng.topk(q, 10)
                assert len(d1), q
                np.testing.assert_array_equal(d1, d2, err_msg=q)
                np.testing.assert_array_equal(s1, s2, err_msg=q)
                assert len(eng._meta_cache) <= 4
        assert set(eng._meta_cache) <= set(terms)
    finally:
        eng.shutdown()


def test_msearch_threaded_combine_bit_identical(ray_session, tmp_path):
    """A wave of 24 distinct multi-term queries (request cache OFF)
    exercises the coordinator's combine THREAD POOL
    (servecache.fused_combine_rank) — every result must still equal
    the per-query topk bit-for-bit, with one and with three doc
    partitions."""
    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "tidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    vocab = sorted(single.reader.terms)[:48]
    wave = [f"{a} {b}" for a, b in zip(vocab[:24], vocab[24:])] + \
        ["the data table", "merge sort value"]
    want = [single.topk(q, 10) for q in wave]
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: ShardedQueryEngine(idx, n_doc_parts=3)):
        eng = mk()
        try:
            eng.request_cache_enabled = False
            for rep in range(2):   # second wave rides warm hot caches
                got = eng.msearch(wave, 10)
                for q, (d1, s1), (d2, s2) in zip(wave, want, got):
                    np.testing.assert_array_equal(d1, d2, err_msg=q)
                    np.testing.assert_array_equal(s1, s2, err_msg=q)
        finally:
            eng.shutdown()


def test_reader_cpus_fit_every_reader_in_the_cluster():
    """Reader pools size so that ALL their actors schedule: with the
    old 0.1-CPU floor, 16 shard readers on a 1-CPU session reserved
    1.6 CPUs and six of them never started (their queries hung)."""
    from snowplow_elasticsearch_loader_ray.pipelines.servecache import (
        reader_cpus)

    assert reader_cpus(8, 1.0) == pytest.approx(0.1)   # 8 shards, 1 CPU
    assert reader_cpus(16, 1.0) == pytest.approx(0.05)
    assert reader_cpus(2, 32.0) == 1.0                 # at most one CPU
    for cpus in (1.0, 2.0, 4.0, 32.0):
        for n in (1, 3, 8, 16, 32, 64, 500):
            share = reader_cpus(n, cpus)
            assert 0 < share <= 1.0
            assert n * share <= 0.8 * cpus + 1e-9


def _words_per_shard(num_shards: int) -> list[str]:
    """One made-up word routed to each term shard, in shard order."""
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    by_shard: dict[int, str] = {}
    for i in range(40 * num_shards):
        by_shard.setdefault(term_shard_one(f"w{i}", num_shards), f"w{i}")
    return [by_shard[s] for s in range(num_shards)]


@pytest.fixture(scope="module")
def idx16(tmp_path_factory):
    """A 16-term-shard index, more shards than the test session's 4
    CPUs: 400 docs over a small common vocabulary, each with two words
    from a set that covers all 16 shards, and a lang doc-value with
    nulls."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(16)
    common = ("the data table scan filter merge sort customer order line "
              "value stream slow query").split()
    words = _words_per_shard(16)
    texts = [" ".join(rng.choice(common, size=4 + d % 7).tolist()
                      + [words[d % 16], words[d * 7 % 16]])
             for d in range(400)]
    d = tmp_path_factory.mktemp("pool")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(1000, 1400), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([("en", "de", "fr", None)[i % 4]
                          for i in range(400)], pa.string()),
    }), str(d / "docs.parquet"))
    idx = str(d / "idx16")
    B.build_index(str(d / "docs.parquet"), idx, IndexConfig(num_term_shards=16))
    return idx


def test_reader_pool_groups_shards_per_cpu():
    """One actor per CPU, at most one per shard; actor a of n owns
    shards a, a+n, …; every shard is owned exactly once, and terms
    group onto the actor that owns their shard."""
    from snowplow_elasticsearch_loader_ray.pipelines.servecache import (
        group_by_reader, reader_cpus, reader_pool)
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    assert reader_pool(16, 4.0) == ([[0, 4, 8, 12], [1, 5, 9, 13],
                                     [2, 6, 10, 14], [3, 7, 11, 15]],
                                    reader_cpus(4, 4.0))
    assert reader_pool(8, 32.0) == ([[s] for s in range(8)],
                                    reader_cpus(8, 32.0))
    assert reader_pool(16, 1.0) == ([list(range(16))], reader_cpus(1, 1.0))
    for shards in (1, 3, 8, 16):
        for cpus in (0.5, 1.0, 2.5, 4.0, 64.0):
            groups, share = reader_pool(shards, cpus)
            assert len(groups) == max(1, min(shards, int(cpus)))
            assert sorted(s for g in groups for s in g) == list(range(shards))
            for a, g in enumerate(groups):
                assert all(s % len(groups) == a for s in g)
            assert len(groups) * share <= 0.8 * max(1.0, cpus) + 1e-9
            terms = [f"t{i}" for i in range(50)]
            routed = group_by_reader(terms, shards, len(groups))
            assert [a for a, _ in routed] == sorted({a for a, _ in routed})
            assert sorted(t for _, ts in routed for t in ts) == sorted(terms)
            for a, ts in routed:
                assert all(term_shard_one(t, shards) in groups[a]
                           for t in ts)


@pytest.mark.parametrize("n_doc_parts", [1, 3])
def test_stripe_reader_is_the_whole_reader_masked(ray_session, idx16,
                                                  n_doc_parts):
    """``IndexReader`` over some term shards and one ordinal stripe:
    every term's scored list is the whole reader's list masked to those
    shards and that stripe, byte for byte; ``df`` is the index-wide df;
    and ``bound`` is ``bm25.term_bound`` at the global df and the
    stripe's max tf — ≥ every partial of the term, and at its largest
    over the stripes the bound the sharded coordinator computes
    (``ShardedQueryEngine._metas``) and the whole reader's."""
    from snowplow_elasticsearch_loader_ray import bm25
    from snowplow_elasticsearch_loader_ray.pipelines.query import IndexReader
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    whole = IndexReader(idx16)
    shards = [1, 5, 9, 13]
    own = sorted(t for t in whole.terms if term_shard_one(t, 16) in shards)
    assert own
    parts = [IndexReader(idx16, shards, p, n_doc_parts)
             for p in range(n_doc_parts)]

    def term_bound(df, max_tf):
        return bm25.term_bound(whole.n_docs, df, max_tf, whole.dl_min,
                               whole.avgdl)

    max_tf: dict[str, int] = {}
    for p, r in enumerate(parts):
        assert set(r.terms) <= set(own)
        for t in own:
            docs, part = whole.scored(t)
            m = docs % n_doc_parts == p
            if not m.any():
                assert t not in r.terms, t
                continue
            got = r.scored(t)
            assert got[0].tobytes() == docs[m].tobytes(), t
            assert got[1].tobytes() == part[m].tobytes(), t
            assert r.df(t) == whole.df(t) == len(docs), t
            mtf = int(r.postings(t).max_tf.max())
            max_tf[t] = max(max_tf.get(t, 0), mtf)
            assert r.bound(t) == term_bound(whole.df(t), mtf), t
            assert r.bound(t) >= got[1].max(), t
    assert sorted(max_tf) == own
    for t in own:
        want = term_bound(whole.df(t), max_tf[t])
        assert max(r.bound(t) for r in parts if t in r.terms) == want, t
        assert whole.bound(t) == want, t


def test_reader_pool_sixteen_shards_bit_identical(ray_session, idx16):
    """16 shards on the 4-CPU session start 4 reader actors; a term of
    every shard, topk, msearch, match_scores and both facets all equal
    the single reader's answers bit for bit."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, _taat_scores, facet_doclen_stats, facet_lang_counts)

    single = QueryEngine(idx16)
    eng = ShardedQueryEngine(idx16)
    try:
        assert len(eng.readers) == 4
        per_shard = _words_per_shard(16)
        for q in per_shard + QUERIES + [" ".join(per_shard[:6])]:
            d1, s1 = single.topk(q, 10)
            d2, s2 = eng.topk(q, 10)
            assert len(d1) or q in QUERIES, q
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)
        wave = per_shard[8:] + QUERIES + [" ".join(per_shard[::3])]
        for q, (d1, s1), (d2, s2) in zip(
                wave, [single.topk(q, 10) for q in wave],
                eng.msearch(wave, 10)):
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)
        r = IndexReader(idx16)
        for q in ["the data table", " ".join(per_shard), "zzznoterm"]:
            i1, m1 = _taat_scores(r, q)
            i2, m2 = eng.match_scores(q)
            np.testing.assert_array_equal(i1, i2, err_msg=q)
            np.testing.assert_array_equal(m1, m2, err_msg=q)
            assert eng.facet_lang_counts(q) == facet_lang_counts(r, q)
            assert eng.facet_doclen_stats(q) == facet_doclen_stats(r, q)
    finally:
        eng.shutdown()


def test_reader_pool_actor_kill_serves_all_its_shards(ray_session, idx16):
    """Killing one multi-shard actor restarts it with all its shards: a
    term of each shard it owns still answers identically."""
    import ray

    single = QueryEngine(idx16)
    eng = ShardedQueryEngine(idx16)
    try:
        eng.request_cache_enabled = False    # every query reaches an actor
        per_shard = _words_per_shard(16)
        owned = per_shard[1::4]              # shards 1, 5, 9, 13 → actor 1
        before = [eng.topk(t, 10) for t in owned]
        ray.kill(eng.readers[1], no_restart=False)
        for t, (d1, s1) in zip(owned, before):
            d2, s2 = eng.topk(t, 10)
            assert len(d1), t
            np.testing.assert_array_equal(d1, d2, err_msg=t)
            np.testing.assert_array_equal(s1, s2, err_msg=t)
            np.testing.assert_array_equal(d1, single.topk(t, 10)[0], err_msg=t)
    finally:
        eng.shutdown()


def test_reader_pool_shutdown_ends_every_actor(ray_session, idx16):
    """shutdown() kills each pool actor for good: a call on any former
    reader raises RayActorError instead of restarting it."""
    import ray

    eng = ShardedQueryEngine(idx16)
    handles = list(eng.readers)
    assert ray.get([h.term_meta.remote(["the"]) for h in handles])
    eng.shutdown()
    assert eng.readers == []
    for h in handles:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.term_meta.remote(["the"]), timeout=120)
