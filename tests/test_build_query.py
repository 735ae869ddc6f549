"""End-to-end: ingest → index build → BM25 rank-identity vs the oracle.

The analogue of the reference's ProcessingSpec end-to-end traces +
the IT harness's ranked `_search` verification.
"""

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.oracle import OracleIndex
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.pipelines.query import (
    IndexReader, QueryEngine, score_taat,
)
from snowplow_elasticsearch_loader_ray.sources import synth

CFG = IndexConfig(max_record_bytes=100_000, num_term_shards=8, batch_size=500)


@pytest.fixture(scope="module")
def built(tiny_pages, tmp_path_factory):
    pages_dir, _paths = tiny_pages
    out = tmp_path_factory.mktemp("index_tiny")
    ingest_dir = str(out / "ingest")
    index_dir = str(out / "index")
    counters = B.ingest_pages(pages_dir, ingest_dir, CFG)
    stats = B.build_index(B.good_docs_dir(ingest_dir), index_dir, CFG)
    return ingest_dir, index_dir, counters, stats


@pytest.fixture(scope="module")
def oracle(built):
    ingest_dir = built[0]
    docs = pq.read_table(B.good_docs_dir(ingest_dir), columns=["doc_id", "text"])
    return OracleIndex(dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())))


def test_ingest_counters(built):
    counters = built[2]
    expected = synth.expected_bad_counts(1000)
    assert counters["good"] == expected["good"]
    assert counters.get("extract_error", 0) == expected["extract_error"]
    assert counters.get("size_violation", 0) == expected["size_violation"]
    assert counters.get("schema_violation", 0) == expected["schema_violation"]


def test_stats_match_oracle(built, oracle):
    stats = built[3]
    assert stats["n_docs"] == oracle.n_docs
    assert stats["total_tokens"] == oracle.total_tokens
    assert stats["avgdl"] == pytest.approx(oracle.avgdl, rel=1e-12)


def test_term_stats_match_oracle(built, oracle):
    reader = IndexReader(built[1])
    engine = {r["term"]: (r["df"], r["cf"]) for r in reader.term_stats_table().to_pylist()}
    assert engine == oracle.term_stats()


def test_doclens_match_oracle(built, oracle):
    reader = IndexReader(built[1])
    got = dict(zip(reader.dl_doc_ids.tolist(), reader.dl_lens.astype(int).tolist()))
    assert got == oracle.doclen


def test_postings_doc_id_ascending(built):
    from snowplow_elasticsearch_loader_ray.codec import PostingList
    from snowplow_elasticsearch_loader_ray.config import DOCLEN_TERM

    for f in glob.glob(os.path.join(built[1], "segments", "*.parquet")):
        t = pq.read_table(f)
        for term, buf in zip(t["term"].to_pylist(), t["postings"].to_pylist()):
            docs, tfs = PostingList(buf).decode_all()
            if len(docs) > 1:
                assert (np.diff(docs) > 0).all(), term
            if term != DOCLEN_TERM:
                assert (tfs >= 1).all()


def test_bm25_rank_identity_vs_oracle(built, oracle):
    reader = IndexReader(built[1])
    for qid, q, k in synth.generate_queries():
        want = oracle.topk(q, k)
        docs, scores = score_taat(reader, q, k)
        got = list(zip(docs.tolist(), scores.tolist()))
        assert got == want, f"qid={qid} q={q!r}"


def test_maxscore_matches_taat_bitwise(built):
    """MaxScore must be BIT-identical to TAAT (same docs, same float
    scores) — its candidate rescore replays the sorted-term summation
    order. Mixed head+tail queries force the pruning path."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import score_maxscore

    reader = IndexReader(built[1])
    head = sorted(reader.terms, key=lambda t: -reader.terms[t][0])[:3]
    tail = sorted(reader.terms, key=lambda t: reader.terms[t][0])[:3]
    queries = [q for _qid, q, _k in synth.generate_queries()]
    queries += [" ".join(head), " ".join(head + tail), " ".join(tail),
                head[0], "nosuchterm", ""]
    for q in queries:
        d1, s1 = score_taat(reader, q, 10)
        d2, s2 = score_maxscore(reader, q, 10)
        assert d1.tolist() == d2.tolist(), q
        assert s1.tolist() == s2.tolist(), q


def test_search_after_pages_partition_the_ranking(built):
    """page1 ++ search_after(page1 cursor) == one top-2k request, for
    every query — the ES cursor-pagination contract."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import score_taat_after

    reader = IndexReader(built[1])
    for qid, q, k in synth.generate_queries():
        d_all, s_all = score_taat(reader, q, 2 * k)
        d1, s1 = score_taat(reader, q, k)
        if len(d1) < k:
            assert len(d_all) == len(d1)
            continue
        d2, s2 = score_taat_after(reader, q, k,
                                  after=(float(s1[-1]), int(d1[-1])))
        assert d1.tolist() + d2.tolist() == d_all.tolist(), f"qid={qid}"
        assert s1.tolist() + s2.tolist() == s_all.tolist(), f"qid={qid}"


def _lev(a, b):
    """Reference DP Levenshtein (insert/delete/substitute)."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_lang_docvalue_facet_matches_bruteforce(built):
    """The docmap lang doc-value serves terms-agg counts identical to a
    direct scan of the ingested docs (full match set per query)."""
    import collections
    import re

    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        boolean_or, facet_lang_counts,
    )

    reader = IndexReader(built[1])
    docs = pq.read_table(B.good_docs_dir(built[0]),
                         columns=["doc_id", "lang"])
    lang_of = dict(zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist()))
    for _qid, q, _k in synth.generate_queries()[:6]:
        matched, _ = boolean_or(reader, q)
        want = collections.Counter(lang_of[d] for d in matched.tolist())
        assert facet_lang_counts(reader, q) == dict(want), q


def test_ordinal_postings_compress(built):
    """The docBase win: ordinal delta gaps keep the synth corpus's
    postings under 3 B each (raw 64-bit id hashes cost ~9 B)."""
    from snowplow_elasticsearch_loader_ray.pipelines.build import index_metrics

    m = index_metrics(built[1])
    assert m["postings"] > 0
    assert m["bytes_written"] / m["postings"] < 3.0


def test_fuzzy_expand_equals_bruteforce(built):
    from snowplow_elasticsearch_loader_ray.pipelines.query import fuzzy_expand

    reader = IndexReader(built[1])
    vocab = sorted(reader.terms)
    # mutations of real vocabulary terms + a non-word + an exact word
    probes = [vocab[3][:-1], vocab[10] + "x", "q" + vocab[20][1:],
              vocab[40], "zzzzzz"]
    for q in probes:
        brute = sorted(t for t in vocab if _lev(q, t) <= 1)
        assert fuzzy_expand(reader, q) == brute, q


def test_query_engine_batch_surface(built):
    import pyarrow as pa

    eng = QueryEngine(built[1])
    batch = pa.table({"qid": [0, 1], "query": ["bababa", "nosuchterm"], "k": [5, 5]})
    out = eng(batch)
    assert out.num_rows <= 10
    assert set(out["qid"].to_pylist()) <= {0, 1}
    ranks = [r for q, r in zip(out["qid"].to_pylist(), out["rank"].to_pylist()) if q == 0]
    assert ranks == sorted(ranks)


def test_build_is_idempotent(built):
    # second call sees the committed index manifest and returns stats
    stats2 = B.build_index("unused", built[1], CFG)
    assert stats2["n_docs"] == built[3]["n_docs"]


def test_actor_pool_build_identical(ray_session, built, tmp_path):
    """Stateful actor-pool build path (concurrency=N) produces the exact
    same segments as the task path (the SURVEY.md §7 stage-4 contract)."""
    import glob
    import os

    from snowplow_elasticsearch_loader_ray.state import manifest as mf

    _ingest_dir, index_dir, _counters, stats = built
    cfg2 = IndexConfig(max_record_bytes=100_000, num_term_shards=CFG.num_term_shards,
                       batch_size=CFG.batch_size, build_concurrency=2)
    idx2 = str(tmp_path / "idx_actor")
    docs = B.good_docs_dir(_ingest_dir)
    stats2 = B.build_index(docs, idx2, cfg2)
    assert stats2 == stats
    a = sorted(glob.glob(os.path.join(index_dir, "segments", "*.parquet")))
    b = sorted(glob.glob(os.path.join(idx2, "segments", "*.parquet")))
    assert mf.content_hash(a) == mf.content_hash(b)


def test_term_shard_balance():
    """hash(term) spreads the Zipf vocabulary: no shard holds more than
    ~3x its fair share of terms (the W4 skew contract)."""
    import numpy as np

    from snowplow_elasticsearch_loader_ray.sources.synth import build_vocab
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    shards = np.array([term_shard_one(t, 16) for t in build_vocab()])
    counts = np.bincount(shards, minlength=16)
    fair = len(shards) / 16
    assert counts.max() < 1.5 * fair and counts.min() > 0.5 * fair


def test_min_should_match_semantics(built):
    """m=1 over distinct terms ≡ plain TAAT; each m+1 result set is a
    subset of m's candidates; survivors all match ≥ m distinct terms
    (verified against boolean_or's per-doc match counts)."""
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        boolean_or, score_min_should_match)

    reader = IndexReader(built[1])
    head = sorted(reader.terms, key=lambda t: -reader.terms[t][0])[:4]
    q = " ".join(head)
    d1, s1 = score_taat(reader, q, 10)
    dm, sm = score_min_should_match(reader, q, 1, 10)
    assert d1.tolist() == dm.tolist() and s1.tolist() == sm.tolist()
    or_ids, or_counts = boolean_or(reader, q)
    counts = dict(zip(or_ids.tolist(), or_counts.tolist()))
    for m in (2, 3, 4):
        dk, _sk = score_min_should_match(reader, q, m, 50)
        assert all(counts[d] >= m for d in dk.tolist()), m
    # m above the clause count matches nothing
    d0, _ = score_min_should_match(reader, q, len(head) + 1, 10)
    assert len(d0) == 0


def test_rescore_phrase_boost(built, tmp_path_factory):
    """boost=0 ≡ plain top-k; with a large boost every phrase-matching
    window candidate outranks every non-matching one."""
    import numpy as np

    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, phrase_search)
    from snowplow_elasticsearch_loader_ray.pipelines.query import rescore_topk

    reader = IndexReader(built[1])
    pos_dir = str(tmp_path_factory.mktemp("pos_rescore") / "positions")
    build_positions(B.good_docs_dir(built[0]), pos_dir, CFG)
    pr = PositionalReader(pos_dir)
    queries = [q for _qid, q, _k in synth.generate_queries() if " " in q][:4]
    for q in queries:
        d0, s0 = score_taat(reader, q, 10)
        d1, s1 = rescore_topk(reader, pr, q, window=50, k=10, boost=0.0)
        assert d0.tolist() == d1.tolist() and s0.tolist() == s1.tolist(), q
        d2, s2 = rescore_topk(reader, pr, q, window=50, k=10, boost=1e6)
        toks = q.lower().split()
        pids = set(phrase_search(pr, " ".join(toks[:2])).tolist())
        flags = [d in pids for d in d2.tolist()]
        # all phrase hits first, then the rest — no interleaving
        assert flags == sorted(flags, reverse=True), q


def test_wildcard_to_regexp_translation():
    from snowplow_elasticsearch_loader_ray.pipelines.query import wildcard_to_regexp

    assert wildcard_to_regexp("b*h") == "b.*h"
    assert wildcard_to_regexp("sc?n") == "sc.n"
    assert wildcard_to_regexp("a.b") == "a\\.b"   # dot is literal in wildcards


def test_regexp_search_counts_distinct_terms(built):
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, expand_regexp, regexp_search)

    r = IndexReader(built[1])
    terms = expand_regexp(r, "s.*")
    assert terms and all(t.startswith("s") for t in terms)
    t = regexp_search(r, "s.*")
    assert t.num_rows > 0
    assert t["n_matched_terms"].to_numpy().max() <= len(terms)
    # no-match pattern -> empty, not error
    assert regexp_search(r, "zzzqqq.*").num_rows == 0


def test_dismax_tiebreaker_one_equals_taat(built):
    import numpy as np

    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, score_dismax, score_taat)

    r = IndexReader(built[1])
    vocab = sorted(r.terms)
    queries = [f"{vocab[1]} {vocab[7]}", f"{vocab[3]} nosuchterm",
               " ".join(vocab[10:13]), "nosuchterm"]
    for q in queries:
        d1, s1 = score_dismax(r, q, 10, tie_breaker=1.0)
        d2, s2 = score_taat(r, q, 10)
        assert np.array_equal(d1, d2) and np.allclose(s1, s2), q
        # tb=0 scores are the max partial: never above the sum
        d0, s0 = score_dismax(r, q, 10, tie_breaker=0.0)
        if len(s2):
            assert (s0 <= s2.max() + 1e-9).all(), q
        else:
            assert len(s0) == 0, q


def test_plan_shard_groups():
    import inspect
    plan, target = B._plan_shard_groups, B.PHASE2_GROUP_POSTINGS
    # the layout depends on the corpus only: no cluster input, so an
    # N-vs-4N scaling comparison runs the identical job at both levels
    assert list(inspect.signature(plan).parameters) == [
        "missing", "num_shards", "est_total_postings"]
    assert "cluster_resources" not in inspect.getsource(B.build_segments)
    # an estimate under the target is one task
    assert plan(list(range(32)), 32, est_total_postings=32_000) == [
        list(range(32))]
    assert plan(list(range(32)), 32, target - 1) == [list(range(32))]
    # groups hold about `target` estimated postings, contiguously
    g = plan(list(range(32)), 32, est_total_postings=8 * target)
    assert [s for grp in g for s in grp] == list(range(32))
    assert all(grp == list(range(grp[0], grp[0] + len(grp))) for grp in g)
    assert len(g) == 8 and all(len(grp) == 4 for grp in g)
    # a shard whose estimate exceeds the target is a group of its own
    g = plan(list(range(32)), 32, est_total_postings=32 * (target + 1))
    assert g == [[s] for s in range(32)]
    # gaps in the missing list (resume) never fall inside one group:
    # the range filter must not re-read committed shards' row groups
    missing = [0, 1, 2, 5, 6, 9]
    g = plan(missing, 32, est_total_postings=1000)
    assert g == [[0, 1, 2], [5, 6], [9]]
    g = plan(missing, 32, est_total_postings=16 * target)
    assert [s for grp in g for s in grp] == missing
    assert all(grp == list(range(grp[0], grp[0] + len(grp))) for grp in g)
    assert all(len(grp) <= 2 for grp in g)


def test_grouped_encode_matches_single_shard(built, tmp_path):
    """Segment bytes are identical whether phase 2 ran grouped or
    per-shard: re-encode one group of shards of a distributed build (the
    inline one writes no runs) and compare with the fixture's."""
    import dataclasses

    import pyarrow.parquet as _pq
    import ray as _ray

    index_dir = str(tmp_path / "dist")
    B.build_index(B.good_docs_dir(built[0]), index_dir,
                  dataclasses.replace(CFG, inline_build_max_docs=0))
    shards = [0, 1, 2]
    want = {s: _pq.read_table(
        os.path.join(built[1], "segments", f"shard-{s:04d}.parquet"))
        for s in shards}
    payloads = _ray.get(B._encode_shard_group.remote(
        index_dir, shards, 128, CFG.num_term_shards))
    assert [p["part"] for p in payloads] == shards
    for s in shards:
        got = _pq.read_table(
            os.path.join(index_dir, "segments", f"shard-{s:04d}.parquet"))
        assert got.equals(want[s]), f"shard {s} changed under grouped encode"


def _artifact_sha1(index_dir):
    import hashlib

    return {os.path.relpath(f, index_dir):
            hashlib.sha1(open(f, "rb").read()).hexdigest()
            for sub in ("segments", "docmap")
            for f in sorted(glob.glob(os.path.join(index_dir, sub, "*")))}


def test_build_paths_and_resumes_write_identical_artifacts(
        built, tmp_path, monkeypatch):
    """The inline build, the distributed build under the default phase-2
    grouping and under groups of one or two shards, both paths over
    64-doc chunks (several chunk dictionaries per file for the inline
    phase 2 to unify), and a resume of shards {1, 4, 5} on both paths
    (a gap inside a group's range) write the same bytes to every
    segments/ and docmap/ file. The inline build writes no runs/."""
    import dataclasses

    from snowplow_elasticsearch_loader_ray.state import manifest as mf

    docs = B.good_docs_dir(built[0])
    dist_cfg = dataclasses.replace(CFG, inline_build_max_docs=0)
    n = CFG.num_term_shards

    def build(name, cfg):
        B.build_index(docs, str(tmp_path / name), cfg)
        return _artifact_sha1(str(tmp_path / name))

    def resume(name, cfg):
        """Drop shards 1, 4 and 5 (segment files and manifests) and the
        index manifest, then build again."""
        man = str(tmp_path / name / "manifests")
        for s in (1, 4, 5):
            os.remove(str(tmp_path / name / "segments" / f"shard-{s:04d}.parquet"))
            os.remove(mf.manifest_path(man, f"segment-shard-{s:04d}"))
        os.remove(mf.manifest_path(man, "index"))
        return build(name, cfg)

    want = build("inline", CFG)
    assert "phase2_segments_s" not in B.index_metrics(str(tmp_path / "inline"))
    assert not os.path.exists(str(tmp_path / "inline" / "runs"))
    assert len(want) == n + len(glob.glob(os.path.join(docs, "*.parquet")))
    assert build("dist", dist_cfg) == want
    small = dataclasses.replace(CFG, batch_size=64)
    assert build("inline_small_chunks", small) == want
    assert build("dist_small_chunks", dataclasses.replace(
        small, inline_build_max_docs=0)) == want
    est = B.index_metrics(str(tmp_path / "dist"))["postings"]
    monkeypatch.setattr(B, "PHASE2_GROUP_POSTINGS", 2 * (est // n))
    groups = B._plan_shard_groups(list(range(n)), n, est)
    assert {len(g) for g in groups} == {2}
    assert B._plan_shard_groups([1, 4, 5], n, est) == [[1], [4, 5]]
    assert build("dist_small_groups", dist_cfg) == want
    assert resume("inline", CFG) == want
    assert resume("dist_small_groups", dist_cfg) == want


def test_rank_eval_single_term_queries_perfect(ray_session):
    """For single-term queries every BM25 hit contains the term, so
    hits == min(n_rel, k), precision is hits/k and NDCG is perfect."""
    from snowplow_elasticsearch_loader_ray.driver_queries import (
        DOC_QUERIES, TOPK, rank_eval_metrics)

    out = rank_eval_metrics("/root/testdata/sf0.001").to_pandas() \
        .set_index("qid")
    single = [qid for qid, q in DOC_QUERIES if " " not in q]
    for qid in single:
        row = out.loc[qid]
        assert row["hits"] == min(row["n_rel"], TOPK)
        assert row["prec_micro"] == row["hits"] * 1_000_000 // TOPK
        if row["hits"]:
            assert row["ndcg_micro"] == 1_000_000
            assert row["rr_micro"] == 1_000_000


def test_infix_expand_identical_to_regexp_scan(built):
    import re as _re

    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, expand_regexp, infix_expand, infix_search,
        regexp_search)

    r = IndexReader(built[1])
    for s in ["ata", "ust", "rea", "ab", "zzq", "merge", "a"]:
        want = expand_regexp(r, f".*{_re.escape(s)}.*")
        got = infix_expand(r, s)
        assert got == want, s
        t = infix_search(r, s)
        w = regexp_search(r, f".*{_re.escape(s)}.*")
        assert t.equals(w), s


def test_doclen_of_unknown_id_raises(ray_session, built):
    """doclen_of/ordinals_of on an id not in the docmap must raise, not
    silently gather a neighbor doc's length."""
    import numpy as np
    import pytest

    from snowplow_elasticsearch_loader_ray.pipelines.query import IndexReader

    r = IndexReader(built[1])
    known = r.dl_doc_ids[:2]
    assert np.array_equal(r.dl_lens[r.ordinals_of(known)],
                          r.doclen_of(known))
    absent = np.array([int(r.dl_doc_ids.max()) + 12345], dtype=np.int64)
    with pytest.raises(KeyError):
        r.doclen_of(absent)
    # drop mode: unknown ids are omitted (the _explain convention)
    got = r.ordinals_of(np.concatenate([known, absent]), missing="drop")
    assert len(got) == 2


def test_query_engine_unknown_strategy_refuses(ray_session, built):
    import pytest

    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    with pytest.raises(ValueError, match="unknown strategy"):
        QueryEngine(built[1], strategy="max_score")
    d, s = QueryEngine(built[1], strategy="maxscore").topk("the data", 5)
    d2, s2 = QueryEngine(built[1], strategy="taat").topk("the data", 5)
    import numpy as np
    assert np.array_equal(d, d2) and np.array_equal(s, s2)


def test_facet_lang_counts_skips_null_docvalues(ray_session, tmp_path):
    """A corpus slice without the lang column yields null doc-values;
    the terms agg must SKIP those docs (ES missing-field semantics),
    not crash in np.unique."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import build as B
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        IndexReader, facet_lang_counts)

    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha beta", "alpha gamma"], pa.string()),
        "lang": pa.array(["en", "de"], pa.string())}),
        d / "a.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([3], pa.int64()),
        "text": pa.array(["alpha delta"], pa.string())}),
        d / "b.parquet")   # no lang column -> null doc-value
    idx = str(tmp_path / "idx")
    B.build_index(str(d), idx, IndexConfig(num_term_shards=2))
    got = facet_lang_counts(IndexReader(idx), "alpha")
    assert got == {"en": 1, "de": 1}
