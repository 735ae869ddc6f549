"""Index aliases: atomic re-point, swap refusal, rollback, and the
alias:// query path through the CLI surface."""

import json
import os

import pytest

from snowplow_elasticsearch_loader_ray.pipelines import alias as AL


def _fake_index(tmp_path, name):
    d = tmp_path / name
    os.makedirs(d / "manifests")
    return str(d)


def test_set_resolve_swap_rollback(tmp_path):
    root = str(tmp_path / "reg")
    a = _fake_index(tmp_path, "index-v1")
    b = _fake_index(tmp_path, "index-v2")
    doc = AL.set_alias(root, "docs-write", a)
    assert doc["gen"] == 1 and doc["prev"] is None
    assert AL.resolve(root, "docs-write") == a
    # swap to v2 keeps v1 as rollback target
    doc = AL.swap(root, "docs-write", b)
    assert doc["gen"] == 2 and doc["prev"] == a
    assert AL.resolve(root, "docs-write") == b
    # no-op swap refuses (deploy-script guard)
    with pytest.raises(AL.AliasError):
        AL.swap(root, "docs-write", b)
    # rollback returns to v1
    AL.rollback(root, "docs-write")
    assert AL.resolve(root, "docs-write") == a
    assert [r["name"] for r in AL.list_aliases(root)] == ["docs-write"]


def test_guards(tmp_path):
    root = str(tmp_path / "reg")
    with pytest.raises(AL.AliasError):
        AL.resolve(root, "nope")
    with pytest.raises(AL.AliasError):
        AL.set_alias(root, "x", str(tmp_path / "not-an-index"))
    with pytest.raises(AL.AliasError):
        AL.set_alias(root, "../evil", _fake_index(tmp_path, "i"))
    a = _fake_index(tmp_path, "only")
    AL.set_alias(root, "one", a)
    with pytest.raises(AL.AliasError):
        AL.rollback(root, "one")   # no previous target yet


def test_atomic_file_state(tmp_path):
    """The registry file is valid JSON at every step (atomic replace,
    no torn state on disk)."""
    root = str(tmp_path / "reg")
    a = _fake_index(tmp_path, "v1")
    b = _fake_index(tmp_path, "v2")
    AL.set_alias(root, "w", a)
    AL.swap(root, "w", b)
    p = os.path.join(root, "aliases", "w.json")
    doc = json.load(open(p))
    assert doc["target"] == b and doc["prev"] == a
    assert not [f for f in os.listdir(os.path.dirname(p)) if ".tmp." in f]


def test_query_through_alias_cli(ray_session, tmp_path):
    """End to end: build a tiny index, alias it, query via alias://."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray import __main__ as CLI
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import build as B

    docs = tmp_path / "docs"
    os.makedirs(docs)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["data stream fast", "slow table scan",
                          "data table merge"]),
    }), docs / "part-0.parquet")
    idx = str(tmp_path / "index")
    B.build_index(str(docs), idx, IndexConfig(num_term_shards=4))
    root = str(tmp_path / "reg")
    AL.set_alias(root, "docs-read", idx)
    rc = CLI.main(["query", "--index", f"alias://{root}/docs-read",
                   "--query", "data", "-k", "2"])
    assert rc == 0


def _bump(args):
    root, idx, i = args
    from snowplow_elasticsearch_loader_ray.pipelines import alias as AL2
    AL2.set_alias(root, "w", idx)
    return i


def test_concurrent_writers_keep_gen_monotonic(tmp_path):
    """The writer lock: N concurrent re-points must not lose updates —
    the generation counter ends at exactly N (unlocked RMW would lose
    increments)."""
    import multiprocessing as mp

    root = str(tmp_path / "reg")
    a = _fake_index(tmp_path, "v1")
    n = 12
    with mp.get_context("spawn").Pool(4) as pool:
        pool.map(_bump, [(root, a, i) for i in range(n)])
    doc = json.load(open(os.path.join(root, "aliases", "w.json")))
    assert doc["gen"] == n


def test_reads_do_not_create_registry(tmp_path):
    root = str(tmp_path / "nothere")
    with pytest.raises(AL.AliasError):
        AL.resolve(root, "x")
    assert AL.list_aliases(root) == []
    assert not os.path.exists(os.path.join(root, "aliases"))


def test_rollover_lifecycle(ray_session, tmp_path):
    """Rollover semantics: the condition check runs after each append
    (one-batch overshoot, like ES ILM), sealed generations are real
    searchable indexes, and the write alias always resolves to the
    newest generation."""
    import pyarrow as pa

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import rollover as RO
    from snowplow_elasticsearch_loader_ray.pipelines.alias import resolve
    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    root = str(tmp_path / "ro")
    w = RO.RolloverWriter(root, max_docs=5, cfg=IndexConfig())
    # batches of 3: gen rolls after the 2nd append (6 >= 5) — overshoot 1
    for i in range(4):
        w.append(pa.table({
            "doc_id": pa.array([i * 3, i * 3 + 1, i * 3 + 2], pa.int64()),
            "text": pa.array([f"alpha beta doc{j}" for j in
                              range(i * 3, i * 3 + 3)], pa.string()),
        }))
    gens = w.finish()
    assert [g["n_docs"] for g in gens] == [6, 6]
    assert [g["sealed"] for g in gens] == [True, True]
    assert resolve(root, "docs-write") == gens[-1]["index_dir"]
    # every generation is a real index serving its own docs
    for g, lo in zip(gens, (0, 6)):
        d, s = QueryEngine(g["index_dir"]).topk("alpha", 10)
        assert sorted(d.tolist()) == list(range(lo, lo + 6))
        assert (s > 0).all()


def test_rollover_tail_unsealed(ray_session, tmp_path):
    import pyarrow as pa

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import rollover as RO

    root = str(tmp_path / "ro2")
    w = RO.RolloverWriter(root, max_docs=5, cfg=IndexConfig())
    w.append(pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                       "text": pa.array(["a b", "b c"], pa.string())}))
    gens = w.finish()
    assert [(g["n_docs"], g["sealed"]) for g in gens] == [(2, False)]


def test_filtered_alias_merges_filter(ray_session, tmp_path):
    import numpy as np

    from snowplow_elasticsearch_loader_ray.pipelines import query_dsl as DSL
    from snowplow_elasticsearch_loader_ray.pipelines.alias import (
        AliasError, resolve_with_filter, search_alias, set_alias)
    from snowplow_elasticsearch_loader_ray.pipelines.query import IndexReader
    import snowplow_elasticsearch_loader_ray.driver_queries as DQ

    idx = DQ._ensure_index("/root/testdata/sf0.001")
    root = str(tmp_path)
    set_alias(root, "en-only", idx, filter={"term": {"lang": "en"}})
    assert resolve_with_filter(root, "en-only")[1] == \
        {"term": {"lang": "en"}}
    r = IndexReader(idx)
    d1, s1 = search_alias(root, "en-only", r,
                          {"query": {"match": {"text": "data"}},
                           "size": 10})
    d2, s2 = DSL.execute(r, {"query": {"bool": {
        "must": [{"match": {"text": "data"}}],
        "filter": [{"term": {"lang": "en"}}]}}, "size": 10})
    assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
    # an already-bool query gains the alias filter on top of its own
    d3, _ = search_alias(root, "en-only", r, {"query": {"bool": {
        "must": [{"match": {"text": "data"}}]}}, "size": 10})
    assert d3.tolist() == d1.tolist()
    # unfiltered alias passes through untouched
    set_alias(root, "all", idx)
    d4, _ = search_alias(root, "all", r,
                         {"query": {"match": {"text": "data"}},
                          "size": 10})
    d5, _ = DSL.execute(r, {"query": {"match": {"text": "data"}},
                            "size": 10})
    assert d4.tolist() == d5.tolist()
    with np.testing.assert_raises(AliasError):
        set_alias(root, "bad", idx, filter="lang:en")


def test_filtered_alias_rejects_bad_match_all_body(tmp_path):
    """A match_all body through a filtered alias gets the DSL's own
    check: a dict with at most a ``boost`` key, else UnsupportedDSL
    (a null body used to raise AttributeError, unknown keys were
    silently dropped). The check runs before any index read."""
    from snowplow_elasticsearch_loader_ray.pipelines.query_dsl import (
        UnsupportedDSL)

    root = str(tmp_path / "reg")
    AL.set_alias(root, "en-only", _fake_index(tmp_path, "idx"),
                 filter={"term": {"lang": "en"}})
    for body in (None, [], {"boost": 2.0, "_name": "x"}):
        with pytest.raises(UnsupportedDSL):
            AL.search_alias(root, "en-only", None,
                            {"query": {"match_all": body}})


def test_rollover_writer_resumes_counter_over_existing_root(
        ray_session, tmp_path):
    """A new RolloverWriter over a root with prior generations
    CONTINUES the counter (docs-000002, ...) — restarting at 0 would
    hit build_index's committed-manifest early-return and silently
    serve the previous run's index for this run's docs."""
    import pyarrow as pa

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import rollover as RO
    from snowplow_elasticsearch_loader_ray.pipelines.alias import resolve
    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    root = str(tmp_path / "ro3")
    w1 = RO.RolloverWriter(root, max_docs=5, cfg=IndexConfig())
    w1.append(pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(["alpha run one"] * 6, pa.string())}))
    g1 = w1.finish()
    assert [g["name"] for g in g1] == ["docs-000001"]

    w2 = RO.RolloverWriter(root, max_docs=5, cfg=IndexConfig())
    w2.append(pa.table({
        "doc_id": pa.array(list(range(100, 106)), pa.int64()),
        "text": pa.array(["gamma run two"] * 6, pa.string())}))
    g2 = w2.finish()
    assert [g["name"] for g in g2] == ["docs-000002"]
    assert resolve(root, "docs-write") == g2[-1]["index_dir"]
    # the new generation serves the NEW docs, not run one's
    d, _ = QueryEngine(g2[-1]["index_dir"]).topk("gamma", 10)
    assert sorted(d.tolist()) == list(range(100, 106))
    d, _ = QueryEngine(g1[-1]["index_dir"]).topk("alpha", 10)
    assert sorted(d.tolist()) == list(range(6))
