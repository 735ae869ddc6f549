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
    from snowplow_elasticsearch_loader_ray.pipelines.grid_query import (
        GridQueryEngine)

    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "gidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    grid = GridQueryEngine(idx, n_doc_parts=3)
    try:
        for q in QUERIES:
            d1, s1 = single.topk(q, 10)
            d2, s2 = grid.topk(q, 10)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)
    finally:
        grid.shutdown()


def test_sharded_reader_survives_actor_kill(ray_session, tmp_path):
    """Serving-layer fault tolerance: kill a reader actor mid-service;
    Ray restarts it (reloading its shard from the committed index) and
    the next query returns identical results."""
    import ray

    cfg = IndexConfig(num_term_shards=8)
    index_dir = str(tmp_path / "idx_kill")
    B.build_index("/root/testdata/sf0.001/documents.parquet", index_dir, cfg)
    eng = ShardedQueryEngine(index_dir)
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
    bit-for-bit on both distributed planes and in-process."""
    from snowplow_elasticsearch_loader_ray.pipelines.grid_query import (
        GridQueryEngine)

    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "midx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    want = [single.topk(q, 10) for q in QUERIES]
    assert [w[0].tolist() for w in single.msearch(QUERIES, 10)] == \
        [w[0].tolist() for w in want]
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: GridQueryEngine(idx, n_doc_parts=3)):
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


def test_serving_caches_bit_identical(ray_session, tmp_path):
    """Champion lists + request cache: warm repeats, varied k order and
    deep-k champion bypass all return the single reader's exact arrays,
    and a caller mutating a returned array cannot corrupt the cache."""
    from snowplow_elasticsearch_loader_ray.pipelines.grid_query import (
        GridQueryEngine)
    from snowplow_elasticsearch_loader_ray.pipelines.servecache import CHAMP_K

    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "cidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: GridQueryEngine(idx, n_doc_parts=3)):
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


def test_sharded_facets_bit_identical_to_single_reader(ray_session, tmp_path):
    """Distributed aggregations: the sharded plane's lang terms facet
    and doclen stats facet equal the single reader's exactly, and the
    facet after a topk rides the coordinator's partial cache."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, facet_doclen_stats, facet_lang_counts)

    cfg = IndexConfig(num_term_shards=8)
    index_dir = str(tmp_path / "idx_facet")
    B.build_index("/root/testdata/sf0.001/documents.parquet", index_dir, cfg)
    r = IndexReader(index_dir)
    eng = ShardedQueryEngine(index_dir)
    try:
        for q in ["data stream", "slow query table", "zzznoterm"]:
            assert eng.facet_lang_counts(q) == facet_lang_counts(r, q)
            assert eng.facet_doclen_stats(q) == facet_doclen_stats(r, q)
        # warm path: same facet twice (cache-hit) stays identical
        a = eng.facet_lang_counts("data stream")
        assert a == eng.facet_lang_counts("data stream")
    finally:
        eng.shutdown()


def test_msearch_threaded_combine_bit_identical(ray_session, tmp_path):
    """A wave of 24 distinct multi-term queries (request cache OFF)
    exercises the coordinator's combine THREAD POOL
    (servecache.fused_combine_rank) — every result must still equal
    the per-query topk bit-for-bit, on both distributed planes."""
    from snowplow_elasticsearch_loader_ray.pipelines.grid_query import (
        GridQueryEngine)

    cfg = IndexConfig(num_term_shards=8)
    idx = str(tmp_path / "tidx")
    B.build_index("/root/testdata/sf0.001/documents.parquet", idx, cfg)
    single = QueryEngine(idx)
    vocab = sorted(single.reader.terms)[:48]
    wave = [f"{a} {b}" for a, b in zip(vocab[:24], vocab[24:])] + \
        ["the data table", "merge sort value"]
    want = [single.topk(q, 10) for q in wave]
    for mk in (lambda: ShardedQueryEngine(idx),
               lambda: GridQueryEngine(idx, n_doc_parts=3)):
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
