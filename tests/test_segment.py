"""``encode_shard_tables`` against a lexsort reference.

The encode orders rows by (shard, term rank) only and relies on ords
already increasing within each term (the order the build delivers).
The reference below sorts one shard's rows by (term, ord) explicitly,
so any input in build order must give the identical segment table for
every shard, and an input that breaks the order must raise instead of
encoding something else."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowplow_elasticsearch_loader_ray.stages.segment import (
    SEGMENT_SCHEMA, encode_shard_table, encode_shard_tables, segment_table)

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


@st.composite
def group_runs(draw):
    """A phase-2 task's run rows in build order: chunks over consecutive
    ordinal ranges, each led by its docmap rows (shard -1, placeholder
    term ""; the inline build's rows have them, a phase-2 read does
    not) and then grouped by (shard, term) with ords ascending
    within a term; terms keep one shard (the build hashes them), and
    each chunk carries its own dictionary. → (rows, the shards asked
    for): a sorted subset of the shards with gaps, shards without rows
    included."""
    n_shards = draw(st.integers(1, 6))
    vocab = draw(st.lists(TERMS, min_size=1, max_size=12, unique=True))
    shard_of = {t: draw(st.integers(0, n_shards - 1)) for t in vocab}
    as_dict, with_docmap = draw(st.booleans()), draw(st.booleans())
    chunks, ord_at = [], 0
    for _chunk in range(draw(st.integers(1, 4))):
        n_docs = draw(st.integers(1, 5))
        postings = {}                          # term -> [(ord, tf)]
        for d in range(n_docs):
            for t in draw(st.sets(st.sampled_from(vocab), max_size=4)):
                postings.setdefault(t, []).append(
                    (ord_at + d, draw(st.integers(1, 5))))
        rows = [(-1, "", ord_at + d, draw(st.integers(0, 9)))
                for d in range(n_docs) if with_docmap]
        ord_at += n_docs
        row_terms = draw(st.permutations(sorted(postings)))
        rows += [(shard_of[t], t, o, tf)
                 for t in sorted(row_terms, key=lambda t: shard_of[t])
                 for o, tf in postings[t]]
        dictionary = draw(st.permutations(sorted({t for _, t, _, _ in rows})))
        pos = {t: i for i, t in enumerate(dictionary)}
        term = (pa.DictionaryArray.from_arrays(
            pa.array([pos[t] for _, t, _, _ in rows], pa.int32()),
            pa.array(dictionary, pa.string())) if as_dict
            else pa.array([t for _, t, _, _ in rows], pa.string()))
        chunks.append(pa.table({
            "shard": pa.array([s for s, _, _, _ in rows], pa.int32()),
            "term": term,
            "ord": pa.array([o for _, _, o, _ in rows], pa.int64()),
            "tf": pa.array([tf for _, _, _, tf in rows], pa.int32()),
        }))
    shards = sorted(draw(st.sets(st.integers(0, n_shards), min_size=1)))
    return pa.concat_tables(chunks), shards


@given(group_runs(), st.sampled_from([1, 2, 128]))
@settings(max_examples=150, deadline=None)
def test_grouped_encode_matches_per_shard_reference(case, block_size):
    """One grouped pass gives every asked-for shard exactly the table a
    lexsort over that shard's rows alone gives; docmap rows and shards
    not asked for never leak into a segment."""
    runs, shards = case
    got = encode_shard_tables(runs, shards, block_size=block_size)
    assert len(got) == len(shards)
    shard_col = runs["shard"].to_numpy()
    for s, seg in zip(shards, got):
        sub = runs.take(np.nonzero(shard_col == s)[0])
        want = (lexsort_reference(sub, block_size) if sub.num_rows
                else SEGMENT_SCHEMA.empty_table())
        assert seg.equals(want), s


def test_grouped_encode_one_shard_without_shard_column():
    """Rows without a shard column are one shard's rows (the
    single-shard phase-2 read); asking for several such shards is an
    error, not a guess."""
    runs = pa.table({"term": pa.array(["b", "a", "b"]),
                     "ord": pa.array([1, 2, 3], pa.int64()),
                     "tf": pa.array([1, 1, 2], pa.int32())})
    [seg] = encode_shard_tables(runs, [7])
    assert seg.equals(encode_shard_table(runs))
    assert seg["term"].to_pylist() == ["a", "b"]
    with pytest.raises(ValueError, match="one shard"):
        encode_shard_tables(runs, [0, 1])
