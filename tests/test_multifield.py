"""Multi-field indexes + ES multi_match (best_fields / most_fields)."""

import numpy as np
import pytest

from snowplow_elasticsearch_loader_ray import bm25
from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import query_dsl as DSL
from snowplow_elasticsearch_loader_ray.pipelines.multifield import (
    FieldSpec,
    MultiFieldEngine,
    build_field_indexes,
    multi_match_scores,
    parse_field_boosts,
)
from snowplow_elasticsearch_loader_ray.pipelines.query import (
    IndexReader,
    _taat_scores,
)

DOCS = "/root/testdata/sf0.001/documents.parquet"
QUERIES = ["the", "data stream", "merge sort join", "no such termxyz"]


@pytest.fixture(scope="module")
def mf_root(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mf"))
    stats = build_field_indexes(
        DOCS, root,
        {"title": FieldSpec("text", first_tokens=8), "body": FieldSpec()},
        IndexConfig(num_term_shards=4))
    assert stats["body"]["n_docs"] == stats["title"]["n_docs"]
    # the short field must have genuinely different norms
    assert stats["title"]["avgdl"] < stats["body"]["avgdl"]
    assert stats["title"]["avgdl"] <= 8.0
    return root


def _brute(readers, q, fields, mm_type, tb=0.0):
    """Dict-based reference combine over the same per-field TAAT runs."""
    per = {}
    for name, boost in fields:
        ids, sc = _taat_scores(readers[name], q)
        for d, s in zip(ids.tolist(), (boost * sc).tolist()):
            per.setdefault(d, []).append(s)
    out = {}
    for d, ss in per.items():
        out[d] = (sum(ss) if mm_type == "most_fields"
                  else max(ss) + tb * (sum(ss) - max(ss)))
    return out


def test_multi_match_combines_match_brute_force(mf_root):
    eng = MultiFieldEngine(mf_root, ["title", "body"])
    for q in QUERIES:
        for mm_type, tb in (("best_fields", 0.0), ("best_fields", 0.3),
                            ("most_fields", 0.0)):
            fields = [("title", 2.0), ("body", 1.0)]
            ids, sc = multi_match_scores(eng.readers, q, fields,
                                         mm_type=mm_type, tie_breaker=tb)
            want = _brute(eng.readers, q, fields, mm_type, tb)
            assert dict(zip(ids.tolist(), sc.tolist())) == pytest.approx(want)
            # ranked surface = same arrays through the BM25 rank contract
            d, s = eng.multi_match(q, ["title^2", "body"], mm_type=mm_type,
                                   tie_breaker=tb, k=10)
            wd, ws = bm25.rank_topk(ids, sc, 10)
            np.testing.assert_array_equal(d, wd)
            np.testing.assert_array_equal(s, ws)


def test_single_field_multi_match_degenerates_to_match(mf_root):
    """fields=["body"] must equal the plain single-index match ranking."""
    eng = MultiFieldEngine(mf_root, ["body"])
    for q in QUERIES:
        ids, sc = _taat_scores(eng.readers["body"], q)
        wd, ws = bm25.rank_topk(ids, sc, 10)
        d, s = eng.multi_match(q, ["body"], k=10)
        np.testing.assert_array_equal(d, wd)
        np.testing.assert_array_equal(s, ws)


def test_title_boost_promotes_title_hits(mf_root):
    """A term in a doc's first-8-token prefix must outrank (under
    title^2 best_fields) the same-body-score doc without a title hit
    whenever the title partial dominates — spot check the top hit."""
    eng = MultiFieldEngine(mf_root, ["title", "body"])
    ids, sc = multi_match_scores(eng.readers, "data",
                                 [("title", 2.0), ("body", 1.0)])
    t_ids, t_sc = _taat_scores(eng.readers["title"], "data")
    assert len(t_ids)                      # fixture has title hits
    top = ids[np.argmax(sc)]
    assert top in set(t_ids.tolist())      # winner has a title hit


def test_dsl_route_and_refusals(mf_root):
    body_reader = IndexReader(f"{mf_root}/body")
    eng = MultiFieldEngine(mf_root, ["title", "body"])
    req = {"query": {"multi_match": {
        "query": "data stream", "fields": ["title^2", "body"]}}, "size": 10}
    d, s = DSL.execute(body_reader, req, field_readers=eng.readers)
    wd, ws = eng.multi_match("data stream", ["title^2", "body"], k=10)
    np.testing.assert_array_equal(d, wd)
    np.testing.assert_array_equal(s, ws)
    with pytest.raises(DSL.UnsupportedDSL):    # no field readers wired
        DSL.execute(body_reader, req)
    for bad in (
        {"multi_match": {"query": "x", "fields": ["title"],
                         "type": "cross_fields"}},
        {"multi_match": {"query": "x", "fields": ["nope"]}},
        {"multi_match": {"query": "x", "fields": []}},
        {"multi_match": {"query": "x", "fields": ["title"],
                         "type": "most_fields", "tie_breaker": 0.5}},
        {"multi_match": {"query": "x", "fields": ["title"], "boost": 2}},
    ):
        with pytest.raises(DSL.UnsupportedDSL):
            DSL.execute(body_reader, {"query": bad},
                        field_readers=eng.readers)


def test_combined_fields_matches_brute(mf_root):
    """BM25F: combined tf / combined dl / any-field df — dict-based
    brute reference vs the dense-accumulator engine path."""
    from snowplow_elasticsearch_loader_ray.pipelines.multifield import (
        combined_fields_scores,
    )
    from snowplow_elasticsearch_loader_ray.pipelines.query import (
        tokenize_query,
    )

    eng = MultiFieldEngine(mf_root, ["title", "body"])
    fields = [("title", 2.0), ("body", 1.0)]
    r0 = eng.readers["title"]
    n = r0.n_docs
    dlc = np.zeros(n)
    for f, bst in fields:
        dlc += bst * eng.readers[f].dl_lens.astype(np.float64)
    avg = float(dlc.sum()) / n
    for q in QUERIES:
        want: dict[int, float] = {}
        for t in tokenize_query(q):
            tf: dict[int, float] = {}
            for f, bst in fields:
                pl = eng.readers[f].postings(t)
                if pl is None:
                    continue
                docs, tfs = pl.decode_all()
                for o, v in zip(docs.tolist(), tfs.tolist()):
                    tf[o] = tf.get(o, 0.0) + bst * v
            if not tf:
                continue
            w = bm25.idf(n, len(tf))
            for o, v in tf.items():
                c = w * float(bm25.tf_weight(np.float64(v),
                                             np.float64(dlc[o]), avg))
                did = int(r0.dl_doc_ids[o])
                want[did] = want.get(did, 0.0) + c
        ids, sc = combined_fields_scores(eng.readers, q, fields)
        assert dict(zip(ids.tolist(), sc.tolist())) == pytest.approx(want)
    # combined_fields genuinely differs from best_fields on this corpus
    d_cf, _ = eng.combined_fields("the data", ["title^2", "body"], k=10)
    d_bf, _ = eng.multi_match("the data", ["title^2", "body"], k=10)
    assert len(d_cf) and len(d_bf)


def test_combined_fields_dsl_route(mf_root):
    body_reader = IndexReader(f"{mf_root}/body")
    eng = MultiFieldEngine(mf_root, ["title", "body"])
    req = {"query": {"combined_fields": {
        "query": "data stream", "fields": ["title^2", "body"]}}, "size": 10}
    d, s = DSL.execute(body_reader, req, field_readers=eng.readers)
    wd, ws = eng.combined_fields("data stream", ["title^2", "body"], k=10)
    np.testing.assert_array_equal(d, wd)
    np.testing.assert_array_equal(s, ws)
    with pytest.raises(DSL.UnsupportedDSL):
        DSL.execute(body_reader, req)          # no field readers wired
    with pytest.raises(DSL.UnsupportedDSL):
        DSL.execute(body_reader, {"query": {"combined_fields": {
            "query": "x", "fields": ["nope"]}}},
            field_readers=eng.readers)


def test_sharded_multifield_bit_identical(mf_root):
    from snowplow_elasticsearch_loader_ray.pipelines.multifield import (
        MultiFieldShardedEngine,
    )

    eng = MultiFieldEngine(mf_root, ["title", "body"])
    sh = MultiFieldShardedEngine(mf_root, ["title", "body"])
    try:
        for q in QUERIES:
            for mm_type in ("best_fields", "most_fields"):
                d1, s1 = eng.multi_match(q, ["title^2", "body"],
                                         mm_type=mm_type, k=10)
                d2, s2 = sh.multi_match(q, ["title^2", "body"],
                                        mm_type=mm_type, k=10)
                np.testing.assert_array_equal(d1, d2, err_msg=q)
                np.testing.assert_array_equal(s1, s2, err_msg=q)
            # BM25F over the scatter planes (raw tf partials + combined
            # stats on the coordinator) — bit-identical too
            d1, s1 = eng.combined_fields(q, ["title^2", "body"], k=10)
            d2, s2 = sh.combined_fields(q, ["title^2", "body"], k=10)
            np.testing.assert_array_equal(d1, d2, err_msg=q)
            np.testing.assert_array_equal(s1, s2, err_msg=q)
    finally:
        sh.shutdown()


def test_parse_field_boosts():
    assert parse_field_boosts(["title^2", "body", "url^0.5"]) == \
        [("title", 2.0), ("body", 1.0), ("url", 0.5)]


def test_url_field_on_pages_corpus(ray_session, tmp_path):
    """The input-schema url column as a second field: domain/path terms
    are searchable, and every hit's url contains the term."""
    import pyarrow.dataset as pads

    from snowplow_elasticsearch_loader_ray.pipelines import build as B
    from snowplow_elasticsearch_loader_ray.sources.synth import generate_pages

    work = str(tmp_path)
    generate_pages(f"{work}/pages", n_rows=800, n_parts=4)
    cfg = IndexConfig(num_term_shards=4)
    B.ingest_pages(f"{work}/pages", f"{work}/ingest", cfg)
    docs = B.good_docs_dir(f"{work}/ingest")
    build_field_indexes(docs, f"{work}/mf",
                        {"url": FieldSpec("url"), "body": FieldSpec()}, cfg)
    eng = MultiFieldEngine(f"{work}/mf", ["url", "body"])
    tbl = pads.dataset(docs).to_table(columns=["doc_id", "url"])
    by_id = dict(zip(tbl["doc_id"].to_pylist(), tbl["url"].to_pylist()))
    # pick a path token present in some url
    tok = next(t for u in by_id.values()
               for t in u.lower().replace("/", " ").replace(".", " ")
               .replace(":", " ").replace("-", " ").split() if len(t) > 3)
    u_ids, _ = _taat_scores(eng.readers["url"], tok)
    assert len(u_ids)
    assert all(tok in by_id[d].lower() for d in u_ids.tolist())
    # multi_match across url+body returns a superset of the url hits
    ids, _ = multi_match_scores(eng.readers, tok,
                                [("url", 2.0), ("body", 1.0)])
    assert set(u_ids.tolist()) <= set(ids.tolist())


def test_derive_field_docs_restarts_clean_after_partial_write(
        ray_session, tmp_path):
    """A derivation dir with parquet parts but NO done marker (a run
    killed mid-write) is rebuilt from scratch — stale partials must not
    double the corpus."""
    import os

    import pyarrow.dataset as pads

    from snowplow_elasticsearch_loader_ray.pipelines.multifield import (
        derive_field_docs)

    out = str(tmp_path / "fld")
    derive_field_docs("/root/testdata/sf0.001/documents.parquet", out,
                      FieldSpec("text", first_tokens=5))
    n = pads.dataset(out).count_rows()
    # simulate the crash: drop the marker, keep the written parts
    os.remove(os.path.join(out, "_derived.done"))
    derive_field_docs("/root/testdata/sf0.001/documents.parquet", out,
                      FieldSpec("text", first_tokens=5))
    assert pads.dataset(out).count_rows() == n
    assert os.path.exists(os.path.join(out, "_derived.done"))


def test_derive_first_tokens_matches_regex_normalization():
    """The ``first_tokens`` view regroups the index tokenizer's stream;
    it must equal the previous RE2 normalize-then-split derivation on
    a synthetic slice (plus null / token-less / punctuation-only rows),
    for every prefix length and across batch chunks."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from snowplow_elasticsearch_loader_ray.pipelines.multifield import (
        _derive_batch)
    from snowplow_elasticsearch_loader_ray.sources import synth
    from snowplow_elasticsearch_loader_ray.stages.extract import (
        ExtractTransform)

    def regex_view(texts, k):
        norm = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            pc.utf8_lower(texts), "[^a-z0-9]+", " "))
        return pc.binary_join(
            pc.list_slice(pc.split_pattern(norm, " "), 0, k), " ")

    out = ExtractTransform(IndexConfig(max_record_bytes=100_000))(
        synth.generate_part(0, 400))
    extra = pa.table({"doc_id": pa.array([-1, -2, -3, -4], pa.int64()),
                      "text": pa.array([None, "", " ¿¡ ", "Ünï K-9"])})
    batch = pa.concat_tables([out.select(["doc_id", "text"]), extra])
    assert batch["text"].num_chunks == 2
    for k in (1, 3, 8, 500):
        got = _derive_batch(batch, "text", k)
        assert got["doc_id"].equals(batch["doc_id"])
        assert got["text"].to_pylist() == \
            regex_view(batch["text"], k).to_pylist()
