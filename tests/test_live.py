"""Near-real-time indexing: stream → refresh → NRT search → compact."""

import json
import os

import numpy as np
import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines.live import LiveIndex
from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

CFG = IndexConfig(num_term_shards=4, flush_max_bytes=200,
                  flush_max_delay_s=1e9)

DOCS_A = [(1, "ray data streams blocks"), (2, "arrow batches stream fast"),
          (3, "the quick brown fox"), (4, "data pipelines shuffle blocks")]
DOCS_B = [(5, "brown data bears"), (6, "streams of arrow blocks"),
          (7, "quick shuffle service")]


def _payloads(docs):
    return [json.dumps({"doc_id": d, "text": t}).encode() for d, t in docs]


def _stream(tmp_path, name, docs):
    out = str(tmp_path / name)
    stream_ingest(iter(_payloads(docs)), out, purpose="json", cfg=CFG)
    return out


def test_refresh_and_append_only_score_identity(tmp_path):
    """Two refreshes over disjoint doc sets serve top-k SCORE-identical
    to a single index built over the union (append-only ⇒ chain stats
    are exact)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.pipelines.build import build_index
    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    live = LiveIndex(str(tmp_path / "live"), CFG)
    r1 = live.refresh(_stream(tmp_path, "s1", DOCS_A))
    assert r1["refreshed"] and r1["n_docs"] == 4
    r2 = live.refresh(_stream(tmp_path, "s2", DOCS_B))
    assert r2["refreshed"] and r2["n_docs"] == 3
    assert len(live.generations()) == 2

    union = DOCS_A + DOCS_B
    ref = str(tmp_path / "union.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in union], pa.int64()),
        "text": pa.array([t for _, t in union], pa.string()),
    }), ref)
    build_index(ref, str(tmp_path / "merged"), CFG)
    eng = QueryEngine(str(tmp_path / "merged"))
    s = live.searcher()
    assert s.live_doc_count() == 7
    for q in ["data blocks", "quick brown", "arrow streams", "shuffle",
              "absent"]:
        d1, sc1 = s.topk(q, 5)
        d2, sc2 = eng.topk(q, 5)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(sc1, sc2)


def test_live_search_ignores_generation_scored_lists(tmp_path):
    """A generation's ``IndexReader`` caches partials under ITS OWN
    stats; the live chain scores under the chain's summed stats, so
    after the same terms were queried through a single reader on each
    generation, ``LiveSearcher.topk`` must still equal the union index."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.pipelines.build import build_index
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        QueryEngine, score_maxscore, score_taat, tokenize_query)

    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    live.refresh(_stream(tmp_path, "s2", DOCS_B))
    union = DOCS_A + DOCS_B
    ref = str(tmp_path / "union.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in union], pa.int64()),
        "text": pa.array([t for _, t in union], pa.string()),
    }), ref)
    build_index(ref, str(tmp_path / "merged"), CFG)
    eng = QueryEngine(str(tmp_path / "merged"))
    s = live.searcher()
    queries = ["data blocks", "quick brown", "arrow streams", "shuffle"]
    for r in s.readers:
        for q in queries:
            score_taat(r, q, 5)
            score_maxscore(r, q, 5)
        # the reader holds scored lists under its own stats for the
        # queried terms: its short table (every list here is one block)
        assert r.cache_stats()["short_lists"]["terms"] > 0
        assert any(r.cached(t) is not None
                   for q in queries for t in tokenize_query(q))
    for q in queries:
        d1, sc1 = s.topk(q, 5)
        d2, sc2 = eng.topk(q, 5)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(sc1, sc2)


def test_refresh_consumes_each_batch_once(tmp_path):
    live = LiveIndex(str(tmp_path / "live"), CFG)
    sdir = _stream(tmp_path, "s1", DOCS_A)
    assert live.refresh(sdir)["refreshed"]
    again = live.refresh(sdir)
    assert not again["refreshed"]            # nothing new committed
    # stream 3 more docs into the same dir (fresh sequence numbers past
    # the checkpoint — bare bytes would auto-seq from 0 and be skipped
    # as a replay, which is exactly the cursor contract)
    recs = [(100 + i, 0.0, p) for i, p in enumerate(_payloads(DOCS_B))]
    stream_ingest(iter(recs), sdir, purpose="json", cfg=CFG)
    r = live.refresh(sdir)
    assert r["refreshed"] and r["n_docs"] == 3


def test_nrt_upsert_suppression_and_compaction(tmp_path):
    """A re-sent doc's OLD version is suppressed from results while the
    old copy still inflates df (Lucene deleted-docs-in-stats), and
    compaction reclaims it (stats drop to the merged truth)."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    # doc 3 is re-sent WITHOUT 'fox'; doc 8 is new
    live.refresh(_stream(tmp_path, "s2", [
        (3, "the slow green turtle"), (8, "fox dens and foxes")]))
    s = live.searcher()
    assert s.live_doc_count() == 5
    d, _sc = s.topk("fox", 10)
    assert d.tolist() == [8]                  # old doc-3 'fox' suppressed
    assert s.df("fox") == 2                   # ...but stale copy in stats
    d, _sc = s.topk("turtle", 10)
    assert d.tolist() == [3]

    stats = live.compact(force=True)
    assert stats["n_docs"] == 5
    assert len(live.generations()) == 1
    s2 = live.searcher()
    assert s2.df("fox") == 1                  # stale copy reclaimed
    assert s2.topk("fox", 10)[0].tolist() == [8]
    assert s2.topk("turtle", 10)[0].tolist() == [3]
    # retired generation dirs are gone
    assert not any(g.endswith(("gen-00000", "gen-00001"))
                   for g in live.generations())


def test_compact_policy_threshold(tmp_path):
    """Tiered policy: no compaction until the chain exceeds
    merge_factor generations."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    for i, name in enumerate(["a", "b", "c"]):
        live.refresh(_stream(tmp_path, name, [(100 + i, f"doc number {i}")]))
    assert live.compact(merge_factor=4) is None
    assert len(live.generations()) == 3
    assert live.compact(merge_factor=2)["n_docs"] == 3
    assert len(live.generations()) == 1


def test_bad_records_counted_not_indexed(tmp_path):
    """Records missing the doc contract (doc_id+text) count as bad and
    are skipped; in-refresh re-sends dedupe to the last occurrence."""
    payloads = [json.dumps({"doc_id": 1, "text": "first version"}).encode(),
                json.dumps({"no_doc_id": True}).encode(),
                json.dumps({"doc_id": 2, "text": 7}).encode(),
                json.dumps({"doc_id": 1, "text": "second version"}).encode()]
    out = str(tmp_path / "s")
    stream_ingest(iter(payloads), out, purpose="json", cfg=CFG)
    live = LiveIndex(str(tmp_path / "live"), CFG)
    r = live.refresh(out)
    assert r["n_docs"] == 1 and r["n_bad"] == 2
    s = live.searcher()
    assert s.topk("second", 5)[0].tolist() == [1]
    assert len(s.topk("first", 5)[0]) == 0


def test_delete_by_query_nrt_then_compaction_reclaims(tmp_path):
    """delete_by_query tombstones the conjunctive match set: matches
    vanish from results at once (df unchanged — Lucene deleted-docs),
    a doc re-indexed AFTER the delete is live again, and compaction
    physically reclaims the tombstoned postings."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))   # 'blocks' in docs 1, 4
    r = live.delete_by_query("blocks")
    assert r["n_ids"] == 2
    s = live.searcher()
    assert s.live_doc_count() == 2
    assert s.topk("blocks", 10)[0].tolist() == []
    assert s.topk("data", 10)[0].tolist() == []     # only docs 1,4 had it
    assert s.df("blocks") == 2                      # stats until compact

    # re-index doc 1 after the delete: tombstone must not reach forward
    live.refresh(_stream(tmp_path, "s2", [(1, "ray data streams blocks")]))
    d, _sc = live.searcher().topk("blocks", 10)
    assert d.tolist() == [1]

    stats = live.compact(force=True)
    assert stats["n_docs"] == 3                     # 2, 3 + re-sent 1
    s2 = live.searcher()
    assert s2.df("blocks") == 1
    assert s2.topk("blocks", 10)[0].tolist() == [1]
    assert s2.topk("fox", 10)[0].tolist() == [3]


def test_delete_by_query_no_match_is_noop(tmp_path):
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    assert live.delete_by_query("absentterm")["n_ids"] == 0
    assert live.searcher().live_doc_count() == 4


def test_empty_refresh_consumes_batches(tmp_path):
    """A refresh whose batches hold no good docs still consumes them
    (no generation created, no retry loop)."""
    out = str(tmp_path / "s")
    stream_ingest(iter([b"{broken"]), out, purpose="json", cfg=CFG)
    live = LiveIndex(str(tmp_path / "live"), CFG)
    r = live.refresh(out)
    assert r["refreshed"] and r["gen"] is None
    assert not live.refresh(out)["refreshed"]
    with pytest.raises(ValueError):
        live.searcher()


def test_sharded_live_searcher_bit_identity(tmp_path):
    """ShardedLiveSearcher (one reader actor per generation) returns
    BIT-identical topk/df/live_doc_count to the local LiveSearcher on
    a chain with upserts AND delete tombstones."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    live.refresh(_stream(tmp_path, "s2", [
        (3, "the slow green turtle"), (8, "fox dens and foxes")] + DOCS_B))
    live.delete_by_query("shuffle")           # tombstones docs 4, 7
    live.refresh(_stream(tmp_path, "s3", [(4, "data pipelines reborn")]))

    s = live.searcher()
    sh = live.sharded_searcher()
    try:
        assert sh.live_doc_count() == s.live_doc_count()
        for t in ["fox", "blocks", "shuffle", "turtle", "absent"]:
            assert sh.df(t) == s.df(t)
        for q in ["fox", "data blocks", "quick brown turtle", "shuffle",
                  "arrow streams fast", "reborn pipelines", "absent"]:
            d1, sc1 = s.topk(q, 5)
            d2, sc2 = sh.topk(q, 5)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(sc1, sc2)
    finally:
        sh.shutdown()


def test_bootstrap_base_generation(tmp_path):
    """bootstrap() bulk-builds gen-0 through the resumable build
    pipeline; a stream refresh layers on top and the chain serves
    score-identical to one union index. Re-running bootstrap on a live
    chain refuses; a run that died between the index commit and the
    live event commit re-commits without rebuilding."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.pipelines.build import build_index
    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    bulk = str(tmp_path / "bulk.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in DOCS_A], pa.int64()),
        "text": pa.array([t for _, t in DOCS_A], pa.string()),
    }), bulk)

    live = LiveIndex(str(tmp_path / "live"), CFG)
    b = live.bootstrap(bulk)
    assert b["gen"] == "gen-00000" and b["n_docs"] == 4
    live.refresh(_stream(tmp_path, "s1", DOCS_B))
    assert len(live.generations()) == 2

    union = DOCS_A + DOCS_B
    ref = str(tmp_path / "union.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in union], pa.int64()),
        "text": pa.array([t for _, t in union], pa.string()),
    }), ref)
    build_index(ref, str(tmp_path / "merged"), CFG)
    eng = QueryEngine(str(tmp_path / "merged"))
    s = live.searcher()
    assert s.live_doc_count() == 7
    for q in ["data blocks", "quick brown", "arrow streams", "absent"]:
        d1, sc1 = s.topk(q, 5)
        d2, sc2 = eng.topk(q, 5)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(sc1, sc2)

    with pytest.raises(ValueError, match="empty live index"):
        live.bootstrap(bulk)

    # crash between index commit and event commit: event manifest gone,
    # committed gen-0 build present -> bootstrap re-commits, fast path
    live2 = LiveIndex(str(tmp_path / "live2"), CFG)
    build_index(bulk, str(tmp_path / "live2" / "gen-00000"), CFG)
    b2 = live2.bootstrap(bulk)
    assert b2["n_docs"] == 4 and len(live2.generations()) == 1


def test_same_basename_streams_do_not_collide(tmp_path):
    """Two stream dirs sharing a BASENAME under different parents must
    both feed one live index — the consumed-batch key is the recorded
    stream identity (abspath-hashed), not the basename."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    s1 = _stream(tmp_path / "a", "shard", DOCS_A)
    s2 = _stream(tmp_path / "b", "shard", DOCS_B)
    r1 = live.refresh(s1)
    assert r1["refreshed"] and r1["n_docs"] == len(DOCS_A)
    r2 = live.refresh(s2)
    assert r2["refreshed"] and r2["n_docs"] == len(DOCS_B), \
        "second stream's batches were skipped (basename collision)"
    assert live.searcher().live_doc_count() == len(DOCS_A) + len(DOCS_B)


def test_stream_identity_stable_and_recorded(tmp_path):
    from snowplow_elasticsearch_loader_ray.sources.stream import (
        stream_identity)

    s1 = _stream(tmp_path, "s1", DOCS_A)
    sid = stream_identity(s1)
    assert sid == stream_identity(s1)          # stable across calls
    # recorded in the stream's manifests at first ingest
    assert os.path.exists(os.path.join(s1, "manifests", "stream-id.json"))
    # distinct dirs -> distinct identities even with equal basenames
    (tmp_path / "x").mkdir()
    s2 = _stream(tmp_path / "x", "s1", DOCS_B)
    assert stream_identity(s2) != sid


def test_update_by_query_rewrites_and_supersedes(ray_session, tmp_path):
    """ES _update_by_query: matched docs are fetched from the stored
    source, transformed, and re-indexed as a superseding generation."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    r = live.update_by_query("blocks", lambda t: t + " zzupdated")
    assert r["n_docs"] == 2                            # docs 1 and 4
    s = live.searcher()
    assert sorted(s.topk("zzupdated", 10)[0].tolist()) == [1, 4]
    # the rewritten docs keep their other terms (supersede, not append)
    assert sorted(s.topk("blocks", 10)[0].tolist()) == [1, 4]
    d, _sc = s.topk("ray", 10)
    assert d.tolist() == [1]
    assert s.live_doc_count() == 4                     # no new identities

    # compaction reclaims the stale versions and keeps stored source
    stats = live.compact(force=True)
    assert stats["n_docs"] == 4
    s2 = live.searcher()
    assert sorted(s2.topk("zzupdated", 10)[0].tolist()) == [1, 4]
    assert s2.df("zzupdated") == 2

    # update AFTER compaction: the merged generation's stored source
    # (materialized at compact) still serves the fetch
    r2 = live.update_by_query("zzupdated", lambda t: t + " zzagain")
    assert r2["n_docs"] == 2
    s3 = live.searcher()
    assert sorted(s3.topk("zzagain", 10)[0].tolist()) == [1, 4]


def test_update_by_query_no_match_noop(ray_session, tmp_path):
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    r = live.update_by_query("nosuchtermxyz", lambda t: t)
    assert r == {"event": None, "gen": None, "n_docs": 0}


def test_update_by_query_respects_deletes(ray_session, tmp_path):
    """A tombstoned doc must not be resurrected by update_by_query."""
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    live.delete_by_query("fox")                        # kills doc 3
    r = live.update_by_query("quick", lambda t: t + " zzu")
    # only doc 7? DOCS_A has 'quick' in doc 3 (deleted); doc 7 is in
    # DOCS_B (not streamed) — so the only match would be doc 3: noop
    assert r["n_docs"] == 0
    s = live.searcher()
    assert s.topk("zzu", 10)[0].tolist() == []


def test_bootstrap_then_update_by_query(ray_session, tmp_path):
    """Bootstrap records the bulk corpus as a stored-source pointer;
    update_by_query fetches through it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([11, 12], pa.int64()),
        "text": ["alpha beta", "beta gamma"],
        "lang": ["en", "en"],
    }), str(docs_dir / "part-0.parquet"))
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.bootstrap(str(docs_dir))
    r = live.update_by_query("beta", lambda t: t.replace("beta", "delta"))
    assert r["n_docs"] == 2
    s = live.searcher()
    assert sorted(s.topk("delta", 10)[0].tolist()) == [11, 12]
    assert s.topk("beta", 10)[0].tolist() == []        # superseded away


def test_update_by_query_missing_stored_source_fails_loudly(ray_session, tmp_path):
    import shutil as _sh

    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.refresh(_stream(tmp_path, "s1", DOCS_A))
    gen = live.generations()[0]
    _sh.rmtree(os.path.join(gen, "_delta_docs"))
    with pytest.raises(RuntimeError, match="stored source"):
        live.update_by_query("blocks", lambda t: t)


def test_bootstrap_without_lang_column_update_ok(ray_session, tmp_path):
    """bootstrap accepts (doc_id, text)-only corpora; the stored-source
    reads must fill lang instead of crashing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([21, 22], pa.int64()),
        "text": ["red green", "green blue"],
    }), str(d / "part-0.parquet"))
    live = LiveIndex(str(tmp_path / "live"), CFG)
    live.bootstrap(str(d))
    r = live.update_by_query("green", lambda t: t + " teal")
    assert r["n_docs"] == 2
    assert sorted(live.searcher().topk("teal", 10)[0].tolist()) == [21, 22]
