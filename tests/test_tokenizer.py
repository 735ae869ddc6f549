import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from snowplow_elasticsearch_loader_ray.tokenizer import (
    doc_term_frequencies, term_shard_one, term_shards, token_counts, doc_shard,
    tokenize_to_terms,
)


def test_doc_term_frequencies_basic():
    texts = pa.array(["Hello, World! hello 42", "", "foo-bar FOO foo"])
    doc_ids = np.array([10, 20, 30], dtype=np.int64)
    tf, doclen = doc_term_frequencies(doc_ids, texts)
    np.testing.assert_array_equal(doclen, [4, 0, 4])
    got = {(r["doc_id"], r["term"]): r["tf"] for r in tf.to_pylist()}
    assert got == {
        (10, "hello"): 2, (10, "world"): 1, (10, "42"): 1,
        (30, "foo"): 3, (30, "bar"): 1,
    }


def test_token_counts_matches_python():
    import re
    texts = ["The quick; brown_fox", "über café!", "", "a b  c   d"]
    expected = [len(re.findall(r"[a-z0-9]+", t.lower())) for t in texts]
    np.testing.assert_array_equal(token_counts(pa.array(texts)), expected)


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.text(max_size=12), max_size=20),
       lo=st.integers(0, 6), cut=st.integers(0, 6),
       large=st.booleans(), n=st.integers(1, 64))
def test_term_shards_deterministic_and_matching_scalar(terms, lo, cut, large, n):
    """The buffer-sliced hash equals the scalar hash entry by entry:
    any Unicode (``""`` included), sliced arrays, both offset widths."""
    arr = pa.array(["alpha", "beta", *terms, "alpha", ""],
                   pa.large_string() if large else pa.string())
    arr = arr.slice(min(lo, len(arr)), max(0, len(arr) - lo - cut))
    s = term_shards(arr, n)
    assert s.dtype == np.int32 and len(s) == len(arr)
    assert s.tolist() == [term_shard_one(t, n) for t in arr.to_pylist()]
    assert all(0 <= v < n for v in s)


def test_doc_shard_balanced():
    ids = np.arange(10_000, dtype=np.int64)
    s = doc_shard(ids, 16)
    counts = np.bincount(s, minlength=16)
    assert counts.min() > 400  # roughly uniform, not striped
    # deterministic
    np.testing.assert_array_equal(s, doc_shard(ids, 16))


def test_chunked_input():
    ch = pa.chunked_array([["one two", "three"], ["two two"]])
    doc_ids = np.array([1, 2, 3], dtype=np.int64)
    tf, doclen = doc_term_frequencies(doc_ids, ch)
    np.testing.assert_array_equal(doclen, [2, 1, 2])
    got = {(r["doc_id"], r["term"]): r["tf"] for r in tf.to_pylist()}
    assert got[(3, "two")] == 2


# --- differential property test: byte-table tokenizer vs the RE2 rule ---


def _re2_tokenize(texts):
    """Reference: the tokenization rule spelled as an RE2 split —
    lowercase, split on ``[^a-z0-9]+``, drop empties."""
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), pattern="[^a-z0-9]+")
    flat = pc.list_flatten(toks)
    idx = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), idx.filter(mask)


_CHARS = st.one_of(
    st.sampled_from(list("aZz09 .,;:!?-_/'\"<>&()[]{}#@\t\r\n\x0b\x0c\x00")
                    + ["K", "İ", "ẞ", "é", "É",
                       "ß", "Σ", "ı", " ", "　",
                       "\U0001f600"]),
    st.characters(blacklist_categories=("Cs",)),
)
_ROWS = st.lists(st.one_of(st.none(), st.text(_CHARS, max_size=30)),
                 max_size=12)


def _assert_same(texts):
    got, want = tokenize_to_terms(texts), _re2_tokenize(texts)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g.type == w.type
        assert g.equals(w), (texts, g, w)


@settings(max_examples=150, deadline=None)
@given(rows=_ROWS, lo=st.integers(0, 4), cut=st.integers(0, 12))
def test_tokenize_matches_re2_rule(rows, lo, cut):
    arr = pa.array(rows, type=pa.string())
    _assert_same(arr)
    _assert_same(arr.slice(min(lo, len(rows))))                 # offset > 0
    cut = min(cut, len(rows))
    _assert_same(pa.chunked_array([arr.slice(0, cut), arr.slice(cut)],
                                  type=pa.string()))
    _assert_same(arr.cast(pa.large_string()))


def test_tokenize_case_folding_edges():
    texts = pa.array(["Kelvin İstanbul STRAẞE", None, "",
                      "a\tb\rc\x0bd\x0ce\nf", "été 42x"])
    _assert_same(texts)
    flat, idx = tokenize_to_terms(texts)
    assert flat.to_pylist()[0] == "kelvin"             # K U+212A → k
    assert flat.to_pylist()[-2:] == ["t", "42x"]       # é is a separator
    assert idx.to_pylist()[-2:] == [4, 4]
