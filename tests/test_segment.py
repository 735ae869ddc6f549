"""``encode_shard_table`` against a lexsort reference.

The encode orders rows by term rank only and relies on ords already
increasing within each term (the order the build delivers). The
reference below sorts by (term, ord) explicitly, so any input in build
order must give the identical segment table, and an input that breaks
the order must raise instead of encoding something else."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowplow_elasticsearch_loader_ray.stages.segment import (
    encode_shard_table, segment_table)

#: ASCII, accented, CJK and astral code points: UTF-8 byte order and
#: code-point order must agree on all of them
TERMS = st.text(alphabet="az09éü日本\U0001F600", min_size=1, max_size=4)


def lexsort_reference(runs: pa.Table, block_size: int) -> pa.Table:
    terms = np.array(runs["term"].cast(pa.string()).to_pylist(), dtype=object)
    vocab, term_idx = np.unique(terms, return_inverse=True)   # code-point order
    ords = runs["ord"].to_numpy()
    order = np.lexsort((ords, term_idx))
    keys = term_idx[order]
    change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(keys)]))
    return segment_table(vocab[keys[starts]], ords[order],
                         runs["tf"].to_numpy()[order], starts, ends,
                         block_size)


@st.composite
def shard_runs(draw):
    """One shard's run rows in build order: several parts, each several
    chunks over consecutive ordinal ranges. A chunk groups its rows by
    term (in an arbitrary term order, ords ascending within a term) and
    carries its own dictionary, so the chunks' dictionaries differ in
    content and order."""
    vocab = draw(st.lists(TERMS, min_size=1, max_size=12, unique=True))
    n_parts = draw(st.integers(1, 3))
    chunks, ord_at = [], 0
    for _part in range(n_parts):
        for _chunk in range(draw(st.integers(1, 3))):
            n_docs = draw(st.integers(1, 6))
            postings = {}                      # term -> [(ord, tf)]
            for d in range(n_docs):
                for t in draw(st.sets(st.sampled_from(vocab), max_size=4)):
                    postings.setdefault(t, []).append(
                        (ord_at + d, draw(st.integers(1, 5))))
            ord_at += n_docs
            if not postings:
                continue
            row_terms = draw(st.permutations(sorted(postings)))
            dictionary = draw(st.permutations(row_terms))
            pos = {t: i for i, t in enumerate(dictionary)}
            rows = [(t, o, tf) for t in row_terms for o, tf in postings[t]]
            chunks.append(pa.table({
                "term": pa.DictionaryArray.from_arrays(
                    pa.array([pos[t] for t, _, _ in rows], pa.int32()),
                    pa.array(dictionary, pa.string())),
                "ord": pa.array([o for _, o, _ in rows], pa.int64()),
                "tf": pa.array([tf for _, _, tf in rows], pa.int32()),
            }))
    if not chunks:
        chunks.append(pa.table({
            "term": pa.DictionaryArray.from_arrays(
                pa.array([0], pa.int32()), pa.array([vocab[0]], pa.string())),
            "ord": pa.array([0], pa.int64()),
            "tf": pa.array([1], pa.int32())}))
    return pa.concat_tables(chunks)


@given(shard_runs(), st.sampled_from([1, 2, 128]))
@settings(max_examples=150, deadline=None)
def test_encode_matches_lexsort_reference(runs, block_size):
    got = encode_shard_table(runs, block_size=block_size)
    want = lexsort_reference(runs, block_size)
    assert got.equals(want)
    assert got["term"].to_pylist() == sorted(got["term"].to_pylist())


def test_single_posting_and_plain_string_terms():
    runs = pa.table({"term": pa.array(["zeta", "é", "alpha", "alpha"]),
                     "ord": pa.array([4, 2, 1, 3], pa.int64()),
                     "tf": pa.array([1, 2, 3, 1], pa.int32())})
    seg = encode_shard_table(runs)
    assert seg.equals(lexsort_reference(runs, 128))
    assert seg["term"].to_pylist() == ["alpha", "zeta", "é"]
    assert seg["df"].to_pylist() == [2, 1, 1]


@pytest.mark.parametrize("ords", [[2, 7, 4], [3, 3]])
def test_out_of_order_ords_raise(ords):
    """Rows of one term that do not arrive in strictly increasing ord
    order are refused, not re-sorted into a different segment."""
    runs = pa.table({"term": pa.array(["x"] * len(ords)),
                     "ord": pa.array(ords, pa.int64()),
                     "tf": pa.array([1] * len(ords), pa.int32())})
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_shard_table(runs)


def test_parts_in_wrong_order_raise():
    """Two parts concatenated out of ordinal order break the arrival
    order of a term shared by both."""
    part0 = pa.table({"term": pa.array(["a", "b"]),
                      "ord": pa.array([0, 1], pa.int64()),
                      "tf": pa.array([1, 1], pa.int32())})
    part1 = pa.table({"term": pa.array(["a"]),
                      "ord": pa.array([5], pa.int64()),
                      "tf": pa.array([1], pa.int32())})
    encode_shard_table(pa.concat_tables([part0, part1]))
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_shard_table(pa.concat_tables([part1, part0]))
