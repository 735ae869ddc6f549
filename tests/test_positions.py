"""Positional index: build + phrase adjacency semantics."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines.positions import (
    PositionalReader, TokenizePositions, build_positions, phrase_search)

DOCS = [
    (1, "the quick brown fox jumps over the lazy dog"),
    (2, "quick brown foxes are quick brown"),
    (3, "the the the repeated tokens here"),
    (4, "Punctuation, splits; tokens—brown fox!"),
    (5, ""),
    (6, "brown. fox? BROWN FOX"),
]


def _build(tmp_path):
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
        "text": pa.array([t for _, t in DOCS], pa.string()),
    }), src)
    pos_dir = str(tmp_path / "pos")
    build_positions(src, pos_dir, IndexConfig(num_term_shards=4))
    return PositionalReader(pos_dir)


def test_tokenize_positions_groups():
    out = TokenizePositions(IndexConfig(num_term_shards=4))(pa.table({
        "ord": pa.array([7], pa.int64()),
        "text": pa.array(["a b a c b a"], pa.string()),
    }))
    by_term = {t: p for t, p in zip(out["term"].to_pylist(),
                                    out["positions"].to_pylist())}
    assert by_term == {"a": [0, 2, 5], "b": [1, 4], "c": [3]}


def test_phrase_search_semantics(tmp_path):
    r = _build(tmp_path)
    assert phrase_search(r, "quick brown").tolist() == [1, 2]
    assert phrase_search(r, "brown fox").tolist() == [1, 4, 6]   # across punctuation
    assert phrase_search(r, "the the").tolist() == [3]           # repeated term
    assert phrase_search(r, "the the the").tolist() == [3]
    assert phrase_search(r, "fox jumps over").tolist() == [1]
    assert phrase_search(r, "lazy fox").tolist() == []           # terms present, not adjacent
    assert phrase_search(r, "absent tokens").tolist() == []
    assert phrase_search(r, "").tolist() == []
    # case/punctuation-insensitive tokenizer rule
    assert phrase_search(r, "BROWN, fox!").tolist() == [1, 4, 6]


def test_positions_resume(tmp_path):
    """Second build over a committed positions dir is a no-op resume."""
    import time

    r = _build(tmp_path)
    t0 = time.time()
    build_positions(str(tmp_path / "docs.parquet"), str(tmp_path / "pos"),
                    IndexConfig(num_term_shards=4))
    assert time.time() - t0 < 1.0
    assert phrase_search(r, "quick brown").tolist() == [1, 2]


def test_positions_per_shard_reencode(tmp_path):
    """Deleting one positional shard manifest + file re-encodes ONLY that
    shard on rebuild (the per-partition resume contract)."""
    import os

    r = _build(tmp_path)
    pos = str(tmp_path / "pos")
    # record mtimes, then invalidate shard 2
    seg = os.path.join(pos, "positions", "shard-0002.parquet")
    other = os.path.join(pos, "positions", "shard-0001.parquet")
    m_other = os.path.getmtime(other)
    os.remove(seg)
    os.remove(os.path.join(pos, "manifests", "pos-shard-0002.json"))
    os.remove(os.path.join(pos, "manifests", "positions.json"))
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        build_positions, PositionalReader, phrase_search)

    build_positions(str(tmp_path / "docs.parquet"), pos,
                    IndexConfig(num_term_shards=4))
    assert os.path.exists(seg)
    assert os.path.getmtime(other) == m_other          # untouched
    r2 = PositionalReader(pos)
    assert phrase_search(r2, "quick brown").tolist() == [1, 2]


def test_positions_part_resume(tmp_path):
    """Multi-part positional build: delete one part manifest + the
    positions manifest → rebuild recomputes only that part and phrase
    results are unchanged."""
    import glob as _glob
    import os

    import pyarrow.parquet as _pq

    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader,
    )

    docs = "/root/testdata/sf0.001/documents.parquet"
    # split into 4 files so parts are meaningful
    t = _pq.read_table(docs, columns=["doc_id", "text"])
    srcs = str(tmp_path / "srcs")
    os.makedirs(srcs)
    q = t.num_rows // 4
    for i in range(4):
        _pq.write_table(t.slice(i * q, q if i < 3 else t.num_rows - 3 * q),
                        os.path.join(srcs, f"d{i}.parquet"))
    pos = str(tmp_path / "pos_parts")
    cfg = IndexConfig(num_term_shards=4)
    build_positions(srcs, pos, cfg, num_parts=2)
    r = PositionalReader(pos)
    before = phrase_search(r, "the data").tolist()
    assert len(_glob.glob(os.path.join(pos, "docmap", "part-*.parquet"))) == 2

    os.remove(os.path.join(pos, "manifests", "pos-runs-part-0001.json"))
    os.remove(os.path.join(pos, "manifests", "positions.json"))
    build_positions(srcs, pos, cfg, num_parts=2)
    after = phrase_search(PositionalReader(pos), "the data").tolist()
    assert before == after


def test_sharded_positional_identity(tmp_path):
    """Distributed scatter-gather phrase serving is bit-identical to the
    single-process reader on every phrase shape (shared decode helper),
    and first-position fetches agree element-for-element."""
    import numpy as np

    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        ShardedPositionalEngine)

    r = _build(tmp_path)
    eng = ShardedPositionalEngine(r.pos_dir, cpus_per_reader=0.1)
    try:
        for q in ["quick brown", "brown fox", "the the", "the the the",
                  "fox jumps over", "lazy fox", "absent tokens", "",
                  "BROWN, fox!"]:
            np.testing.assert_array_equal(phrase_search(eng, q),
                                          phrase_search(r, q))
        # raw per-term fetches agree (docs and each position list)
        for t in ["brown", "fox", "the", "quick"]:
            d1, p1 = r.term_positions(t)
            d2, p2 = eng.term_positions(t)
            np.testing.assert_array_equal(d1, d2)
            assert [a.tolist() for a in p1] == [a.tolist() for a in p2]
        # batched fetch round-trips the cache
        many = eng.term_positions_many(["brown", "missingterm"])
        assert len(many["missingterm"][0]) == 0
    finally:
        eng.shutdown()


def test_sharded_positional_pool_routes_every_shard(tmp_path):
    """16 positional shards on the 4-CPU session start 4 reader actors
    (actor a owns shards a, a+4, …); a term of every shard fetches the
    single reader's positions and phrases match; shutdown kills each
    actor once."""
    import numpy as np
    import ray

    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        ShardedPositionalEngine)
    from snowplow_elasticsearch_loader_ray.tokenizer import term_shard_one

    by_shard: dict[int, str] = {}
    for i in range(640):
        by_shard.setdefault(term_shard_one(f"w{i}", 16), f"w{i}")
    words = [by_shard[s] for s in range(16)]
    src = str(tmp_path / "docs.parquet")
    texts = [" ".join(words[j % 16] for j in range(d, d + 2 + d % 5))
             for d in range(24)]
    pq.write_table(pa.table({"doc_id": pa.array(range(100, 124), pa.int64()),
                             "text": pa.array(texts, pa.string())}), src)
    pos_dir = str(tmp_path / "pos16")
    build_positions(src, pos_dir, IndexConfig(num_term_shards=16))
    r = PositionalReader(pos_dir)
    eng = ShardedPositionalEngine(pos_dir)
    handles = list(eng.readers)
    try:
        assert len(handles) == 4
        got = eng.term_positions_many(words)
        for t in words:
            d1, p1 = r.term_positions(t)
            d2, p2 = got[t]
            assert len(d1), t
            np.testing.assert_array_equal(d1, d2, err_msg=t)
            assert [a.tolist() for a in p1] == [a.tolist() for a in p2], t
        for a, b in zip(words, words[1:]):
            np.testing.assert_array_equal(phrase_search(eng, f"{a} {b}"),
                                          phrase_search(r, f"{a} {b}"))
    finally:
        eng.shutdown()
    assert eng.readers == []
    for h in handles:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.term_positions.remote([words[0]]), timeout=120)


def test_proximity_search_span_near(ray_session, tmp_path):
    """span_near semantics: unordered min-gap window, ordered requires
    a before b, gaps count intervening tokens."""
    import numpy as np
    import pytest

    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        proximity_search)

    r = _build(tmp_path)
    # doc 1: "the quick brown fox jumps over the lazy dog"
    #   quick(1) .. fox(3): one intervening token
    # doc 2: "quick brown foxes ..." — no 'fox'
    # doc 4/6: brown fox adjacent (gap 0)
    d, g = proximity_search(r, "quick", "fox", slop=1)
    assert d.tolist() == [1] and g.tolist() == [1]
    d, g = proximity_search(r, "quick", "fox", slop=0)
    assert d.tolist() == []
    d, g = proximity_search(r, "brown", "fox", slop=0)
    assert d.tolist() == [1, 4, 6] and g.tolist() == [0, 0, 0]

    # ordered: 'fox' before 'quick' never happens in doc 1
    d, _g = proximity_search(r, "fox", "quick", slop=9, ordered=True)
    assert d.tolist() == []
    d, g = proximity_search(r, "quick", "fox", slop=9, ordered=True)
    assert d.tolist() == [1] and g.tolist() == [1]
    # unordered is symmetric
    d1, g1 = proximity_search(r, "fox", "quick", slop=9)
    d2, g2 = proximity_search(r, "quick", "fox", slop=9)
    assert d1.tolist() == d2.tolist() and g1.tolist() == g2.tolist()

    with pytest.raises(ValueError, match="distinct"):
        proximity_search(r, "fox", "fox", slop=1)


def test_span_near_chain(ray_session, tmp_path):
    """Ordered N-clause span chains: greedy chained-searchsorted match
    equals brute enumeration; degenerates to proximity_search at n=2."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, proximity_search,
        span_near_chain)

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "a x b y c",            # a..b..c, gaps 1+1 = 2
            "a b c",                # exact chain, gap 0
            "c b a",                # wrong order only
            "a x x x b x x x c a b c",  # long chain AND tight chain
        ]),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    pos_dir = str(tmp_path / "pos")
    build_positions(str(tmp_path / "documents.parquet"), pos_dir,
                    IndexConfig())
    r = PositionalReader(pos_dir)

    d, g = span_near_chain(r, ["a", "b", "c"], slop=0)
    assert d.tolist() == [2, 4] and g.tolist() == [0, 0]
    d, g = span_near_chain(r, ["a", "b", "c"], slop=2)
    assert d.tolist() == [1, 2, 4] and g.tolist() == [2, 0, 0]
    d, _ = span_near_chain(r, ["c", "b", "a"], slop=0)
    assert d.tolist() == [3]
    # n=2 degeneracy: same docs and gaps as ordered proximity_search
    d2, g2 = span_near_chain(r, ["a", "c"], slop=10)
    dp, gp = proximity_search(r, "a", "c", slop=10, ordered=True)
    assert d2.tolist() == dp.tolist() and g2.tolist() == gp.tolist()
    # repeated clause term: strictly increasing over the same list
    d3, g3 = span_near_chain(r, ["a", "a"], slop=10)
    assert d3.tolist() == [4] and g3.tolist() == [8]
    with pytest.raises(ValueError):
        span_near_chain(r, ["a"], slop=1)


def test_span_first_search(ray_session, tmp_path):
    """span_first: 0-based position < end, early-occurrence counts,
    brute-force parity against a direct token scan."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, span_first_search)

    texts = {
        10: "z z z a z a",        # a at 3, 5
        20: "a b a a x",          # a at 0, 2, 3
        30: "b b b b b b b a",    # a at 7 only
        40: "no match here",
    }
    docs = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    pos_dir = str(tmp_path / "pos")
    build_positions(str(tmp_path / "documents.parquet"), pos_dir,
                    IndexConfig())
    r = PositionalReader(pos_dir)

    for end in (1, 3, 4, 6, 8, 100):
        d, c = span_first_search(r, "a", end)
        want = {}
        for doc, t in texts.items():
            n = sum(1 for i, tok in enumerate(re.findall(r"[a-z0-9]+", t))
                    if tok == "a" and i < end)
            if n:
                want[doc] = n
        assert dict(zip(d.tolist(), c.tolist())) == want
        assert d.tolist() == sorted(d.tolist())

    d, c = span_first_search(r, "missingterm", 5)
    assert d.tolist() == [] and c.tolist() == []
    with pytest.raises(ValueError):
        span_first_search(r, "a", 0)


def test_span_containing_search(ray_session, tmp_path):
    """span_containing: unordered (a,b) windows within slop that hold a
    little-span occurrence; brute-force triple-loop parity."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, span_containing_search)

    texts = {
        1: "a c b",            # window [0,2] holds c
        2: "a b c",            # c outside every tight window
        3: "b x c x a",        # window [0,4] (slop>=4) holds c
        4: "a x x x x x b c",  # a..b too far at small slop
        5: "c a b c a c b",    # many windows
        6: "a b",              # no little term
    }
    docs = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    pos_dir = str(tmp_path / "pos")
    build_positions(str(tmp_path / "documents.parquet"), pos_dir,
                    IndexConfig())
    r = PositionalReader(pos_dir)

    def brute(slop):
        want = {}
        for doc, t in texts.items():
            toks = re.findall(r"[a-z0-9]+", t)
            pa_ = [i for i, x in enumerate(toks) if x == "a"]
            pb_ = [i for i, x in enumerate(toks) if x == "b"]
            pc_ = [i for i, x in enumerate(toks) if x == "c"]
            n = sum(1 for i in pa_ for j in pb_
                    if abs(i - j) <= slop
                    and any(min(i, j) <= k <= max(i, j) for k in pc_))
            if n:
                want[doc] = n
        return want

    for slop in (1, 2, 4, 7, 100):
        d, c = span_containing_search(r, "a", "b", "c", slop)
        assert dict(zip(d.tolist(), c.tolist())) == brute(slop), slop
        assert d.tolist() == sorted(d.tolist())

    d, c = span_containing_search(r, "a", "b", "missingterm", 100)
    assert d.tolist() == []
    with pytest.raises(ValueError):
        span_containing_search(r, "a", "a", "c", 2)


def test_span_within_search(ray_session, tmp_path):
    """span_within (the mirror of span_containing): little occurrences
    enclosed by some qualifying big window; brute-force parity."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, span_within_search)

    texts = {
        1: "a c b",
        2: "a b c",
        3: "b x c x a",
        4: "a x x x x x b c",
        5: "c a b c a c b",    # several enclosed c's
        6: "a b",
        7: "a c c c b",        # multiple enclosed little positions
    }
    docs = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    pos_dir = str(tmp_path / "pos")
    build_positions(str(tmp_path / "documents.parquet"), pos_dir,
                    IndexConfig())
    r = PositionalReader(pos_dir)

    def brute(slop):
        want = {}
        for doc, t in texts.items():
            toks = re.findall(r"[a-z0-9]+", t)
            pa_ = [i for i, x in enumerate(toks) if x == "a"]
            pb_ = [i for i, x in enumerate(toks) if x == "b"]
            pc_ = [i for i, x in enumerate(toks) if x == "c"]
            n = sum(1 for k in pc_
                    if any(abs(i - j) <= slop and min(i, j) <= k <= max(i, j)
                           for i in pa_ for j in pb_))
            if n:
                want[doc] = n
        return want

    for slop in (1, 2, 4, 7, 100):
        d, c = span_within_search(r, "c", "a", "b", slop)
        assert dict(zip(d.tolist(), c.tolist())) == brute(slop), slop
        assert d.tolist() == sorted(d.tolist())

    d, c = span_within_search(r, "missingterm", "a", "b", 100)
    assert d.tolist() == []
    with pytest.raises(ValueError):
        span_within_search(r, "c", "a", "a", 2)


def test_span_multi_near_search(ray_session, tmp_path):
    """span_near with a span_multi(prefix) clause: every (expanded
    occurrence, other occurrence) pair within slop; brute parity."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines.positions import (
        PositionalReader, build_positions, span_multi_near_search)

    texts = {
        1: "app apple b",          # two expansions near b
        2: "b x x x apply",        # distance 4
        3: "apricot b app b",      # multiple pairs
        4: "b c d",                # no expansion
        5: "application",          # no b
    }
    docs = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[d] for d in sorted(texts)], pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    pos_dir = str(tmp_path / "pos")
    build_positions(str(tmp_path / "documents.parquet"), pos_dir,
                    IndexConfig())
    r = PositionalReader(pos_dir)
    vocab = sorted({t for s in texts.values()
                    for t in re.findall(r"[a-z0-9]+", s)})

    def brute(prefix, slop):
        want = {}
        for doc, t in texts.items():
            toks = re.findall(r"[a-z0-9]+", t)
            pe = [i for i, x in enumerate(toks) if x.startswith(prefix)]
            pb = [i for i, x in enumerate(toks) if x == "b"]
            n = sum(1 for i in pe for j in pb if abs(i - j) <= slop)
            if n:
                want[doc] = n
        return want

    for slop in (1, 2, 4, 100):
        exp = [t for t in vocab if t.startswith("ap")]
        d, c = span_multi_near_search(r, exp, "b", slop)
        assert dict(zip(d.tolist(), c.tolist())) == brute("ap", slop), slop
    # self-pairing refusal and empty expansion
    with pytest.raises(ValueError):
        span_multi_near_search(r, ["b", "bat"], "b", 2)
    d, c = span_multi_near_search(r, [], "b", 2)
    assert d.tolist() == []
