import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
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


#: the separator table of the lower-then-blank path: ``[a-z0-9]`` kept,
#: every other byte a space (input already lowered by ``utf8_lower``)
_LOWERED_TABLE = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789"
                       else 32 for c in range(256))


def _lower_then_table(texts):
    """Reference: ``utf8_lower``, then ``_LOWERED_TABLE`` over the lowered
    data buffer, then the whitespace split with empties dropped — the
    tokenizer before its byte table folded the lowercase in."""
    def blank(arr):
        lowered = pc.utf8_lower(arr)
        validity, offsets, data = lowered.buffers()
        if data is None:
            return lowered
        return pa.Array.from_buffers(
            lowered.type, len(lowered),
            [validity, offsets,
             pa.py_buffer(data.to_pybytes().translate(_LOWERED_TABLE))],
            offset=lowered.offset)

    blanked = (pa.chunked_array([blank(c) for c in texts.chunks], texts.type)
               if isinstance(texts, pa.ChunkedArray) else blank(texts))
    toks = pc.ascii_split_whitespace(blanked)
    flat = pc.list_flatten(toks)
    idx = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), idx.filter(mask)


def _assert_same(texts):
    got = tokenize_to_terms(texts)
    for want in (_re2_tokenize(texts), _lower_then_table(texts)):
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


def test_only_two_code_points_lower_to_ascii():
    """The byte table folds ASCII case only, which is exact while
    ``utf8_lower`` maps no non-ASCII code point to ASCII except U+0130
    and U+212A (the two the tokenizer probes for). Every code point from
    U+0080 up, surrogates excluded, is lowered here: a pyarrow release
    that changes the table fails this test."""
    cps = np.concatenate([np.arange(0x80, 0xD800), np.arange(0xE000, 0x110000)])
    chars = cps.astype("<u4").tobytes().decode("utf-32-le")
    lowered = pc.utf8_lower(pa.array(list(chars), pa.string()))
    _, offsets, data = lowered.buffers()
    offs = np.frombuffer(offsets, np.int32)[:len(lowered) + 1]
    ascii_at = np.flatnonzero(np.frombuffer(data, np.uint8)[:offs[-1]] < 0x80)
    rows = np.unique(np.searchsorted(offs, ascii_at, side="right") - 1)
    assert {int(cps[r]): lowered[int(r)].as_py() for r in rows} == {
        0x130: "i", 0x212A: "k"}


_FOLD_CHARS = st.one_of(
    st.sampled_from(["\u0130", "\u212a", "I", "K", "i", "k", "A", "z", "9",
                     " ", "\t", "\n", ".", "-", "_", "'", "\u00e9", "\u00c9",
                     "\u0131", "\u2014", "\u00b0", "\u65e5", "\U0001f600",
                     "\u00c4", "\u2126"]),
    st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(st.none(), st.text(_FOLD_CHARS, max_size=20)),
                     max_size=10),
       lo=st.integers(0, 4), cut=st.integers(0, 10))
def test_tokenize_matches_lower_then_table(rows, lo, cut):
    """The folded byte table against ``utf8_lower`` + a lowered-input
    table: U+0130, U+212A and their lead bytes' neighbours (U+00C4,
    U+2014, U+2126) next to ASCII, punctuation and whitespace, with
    nulls, slices and chunked arrays where only some chunks hold the two
    code points."""
    arr = pa.array(rows, type=pa.string())
    _assert_same(arr)
    _assert_same(arr.slice(min(lo, len(rows))))
    cut = min(cut, len(rows))
    _assert_same(pa.chunked_array([arr.slice(0, cut), arr.slice(cut)],
                                  type=pa.string()))


def _raw_strings(values, valid):
    """A string array over raw bytes, unchecked (invalid UTF-8 allowed)."""
    offsets = np.concatenate([[0], np.cumsum([len(v) for v in values])])
    return pa.Array.from_buffers(pa.string(), len(values), [
        pa.py_buffer(np.packbits(valid, bitorder="little").tobytes()),
        pa.py_buffer(offsets.astype(np.int32).tobytes()),
        pa.py_buffer(b"".join(values))])


@pytest.mark.parametrize("values,valid,raises", [
    ([b"Ab", b"\xff\xfe", b"cd"], [1, 1, 1], True),
    ([b"Ab c\xc3"], [1], True),                          # truncated sequence
    ([b"\xc4\xb0x", b"\x80"], [1, 1], True),            # U+0130 path too
    ([b"Ab", b"\xff\xfe", b"cd"], [1, 0, 1], False),    # under a null
])
def test_invalid_utf8_raises_like_utf8_lower(values, valid, raises):
    """Invalid UTF-8 in a valid slot raises ``ArrowInvalid``, on both
    the byte-table path and the ``utf8_lower`` path, whole or as one
    chunk of several; bytes under a null slot are not read, as
    ``utf8_lower`` does not read them."""
    arr = _raw_strings(values, valid)
    chunked = pa.chunked_array([pa.array(["Ok"]), arr], pa.string())
    for texts in (arr, chunked):
        if raises:
            with pytest.raises(pa.ArrowInvalid):
                pc.utf8_lower(texts)
            with pytest.raises(pa.ArrowInvalid):
                tokenize_to_terms(texts)
        else:
            _assert_same(texts)


def test_slice_blanks_only_its_own_bytes():
    """A slice shares its parent's data buffer (a Ray Data batch is a
    slice of its block): the table runs over the slice's own bytes only,
    or every batch would pay for the whole block. Invalid UTF-8 outside
    the slice does not raise, as ``utf8_lower`` of the slice does not."""
    from snowplow_elasticsearch_loader_ray.tokenizer import _blank_separators

    rows = [f"Row {i} TEXTİ" if i == 7 else f"Row {i} text" for i in range(200)]
    block = pa.array(rows, pa.string())
    for lo, n in [(0, 5), (5, 10), (150, 50), (199, 1), (40, 0)]:
        part = block.slice(lo, n)
        out = _blank_separators(part)
        # (U+0130 lowers to one byte: row 7's slices shrink by one)
        assert out.buffers()[2] is None or out.buffers()[2].size <= sum(
            len(r.encode()) for r in rows[lo:lo + n])
        _assert_same(part)
    bad = _raw_strings([b"Ab", b"\xff\xfe", b"Cd \xc4\xb0"], [1, 1, 1])
    for part in (bad.slice(0, 1), bad.slice(2, 1)):
        pc.utf8_lower(part)
        _assert_same(part)
    with pytest.raises(pa.ArrowInvalid):
        tokenize_to_terms(bad.slice(1, 1))
