"""Property-based codec tests (hypothesis): round-trip for arbitrary
sorted posting lists, block skipping consistency, width edge cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from snowplow_elasticsearch_loader_ray.codec import (
    PostingList, encode_postings, encode_postings_batch,
)

gaps_strategy = st.lists(
    st.integers(min_value=1, max_value=1 << 40), min_size=1, max_size=700)
tfs_value = st.integers(min_value=0, max_value=(1 << 31) - 1)


@settings(max_examples=60, deadline=None)
@given(gaps=gaps_strategy, data=st.data(),
       block_size=st.sampled_from([4, 128, 256]),
       start=st.integers(min_value=0, max_value=1 << 60))
def test_roundtrip_arbitrary_lists(gaps, data, block_size, start):
    docs = start + np.cumsum(np.array(gaps, dtype=np.int64))
    tfs = np.array(
        data.draw(st.lists(tfs_value, min_size=len(gaps), max_size=len(gaps))),
        dtype=np.int64)
    buf = encode_postings(docs, tfs, block_size=block_size)
    assert buf == _reference_encode(docs, tfs, block_size)
    pl = PostingList(buf)
    d, t = pl.decode_all()
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(t, tfs)
    # block-max metadata is exact
    for bi in range(pl.n_blocks):
        bd, bt = pl.decode_block(bi)
        assert pl.last_doc[bi] == bd[-1]
        assert pl.max_tf[bi] == bt.max()
    # skip pointers: first_block_geq finds the containing block
    for probe in [int(docs[0]), int(docs[-1]), int(docs[len(docs) // 2])]:
        bi = pl.first_block_geq(probe)
        assert bi < pl.n_blocks and pl.last_doc[bi] >= probe


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=600))
def test_dense_doc_ids_zero_gaps(n):
    """Consecutive doc_ids → gap-1 coding stores zeros (1-byte width)."""
    docs = np.arange(1000, 1000 + n, dtype=np.int64)
    tfs = np.ones(n, dtype=np.int64)
    pl = PostingList(encode_postings(docs, tfs))
    d, t = pl.decode_all()
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(t, tfs)


def test_tf_overflow_rejected():
    import pytest
    with pytest.raises(ValueError, match="int32"):
        encode_postings(np.array([1], dtype=np.int64),
                        np.array([1 << 31], dtype=np.int64))


def _reference_encode(docs, tfs, block_size):
    """The layout in codec.py's docstring, one block at a time."""
    def width(v):
        return next(w for w in (1, 2, 4, 8) if v < 1 << (8 * w))

    last, max_tf, offsets, widths, payload = [], [], [], [], b""
    for lo in range(0, len(docs), block_size):
        d, t = docs[lo:lo + block_size], tfs[lo:lo + block_size]
        gaps = np.diff(d) - 1
        wd, wt = width(int(gaps.max(initial=0))), width(int(t.max()))
        last.append(d[-1])
        max_tf.append(t.max())
        offsets.append(len(payload))
        widths.append(wd | wt << 4)
        payload += (np.int64(d[0]).tobytes() + gaps.astype(f"<u{wd}").tobytes()
                    + t.astype(f"<u{wt}").tobytes())
    return (np.array([len(docs), block_size, len(last)], "<u4").tobytes()
            + np.array(last, "<i8").tobytes() + np.array(max_tf, "<i4").tobytes()
            + np.array(offsets, "<u4").tobytes() + bytes(widths) + payload)


# one list for the batched encoder: gaps up to 2^33 and tfs up to 2^17
# span every byte width; up to 40 postings with block size 8 gives full
# blocks and a short tail; an empty list is always in the batch
batch_list = st.lists(
    st.tuples(st.integers(min_value=1, max_value=1 << 33),
              st.integers(min_value=1, max_value=1 << 17)),
    min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(lists=st.lists(batch_list, min_size=1, max_size=12),
       empty_at=st.integers(min_value=0, max_value=12),
       block_size=st.sampled_from([1, 3, 8]))
def test_batch_encode_many_lists_roundtrip(lists, empty_at, block_size):
    lists = lists[:empty_at] + [[]] + lists[empty_at:]
    docs = [np.cumsum([g for g, _ in li]).astype(np.int64) for li in lists]
    tfs = [np.array([t for _, t in li], dtype=np.int64) for li in lists]
    lens = np.array([len(d) for d in docs], dtype=np.int64)
    ends = np.cumsum(lens)
    buf, offs = encode_postings_batch(
        np.concatenate(docs), np.concatenate(tfs), ends - lens, ends,
        block_size=block_size)
    assert len(offs) == len(lists) + 1 and offs[-1] == len(buf)
    for i, (d, t) in enumerate(zip(docs, tfs)):
        one = buf[offs[i]:offs[i + 1]].tobytes()
        assert one == _reference_encode(d, t, block_size)
        pl = PostingList(one)
        if not len(d):
            assert len(one) == 12 and pl.n == 0
        got_d, got_t = pl.decode_all()
        np.testing.assert_array_equal(got_d, d)
        np.testing.assert_array_equal(got_t, t)
        got_d, got_t = pl.decode_blocks(np.arange(pl.n_blocks)[::-1])
        np.testing.assert_array_equal(got_d, d)
        np.testing.assert_array_equal(got_t, t)


@settings(max_examples=60, deadline=None)
@given(block_size=st.sampled_from([4, 16, 128]), data=st.data(),
       start=st.integers(min_value=0, max_value=1 << 60))
def test_single_block_decode_matches_general_path(block_size, data, start):
    """A list of one block (n = 1..block_size) decodes through one
    ``decode_block`` call; it must equal the general decode: the same
    postings at the head of a longer list (full blocks decode as
    width-class runs), the subset decoder, and ``decode_for`` — same
    values, dtypes, and writable arrays the caller owns."""
    n = data.draw(st.integers(min_value=1, max_value=block_size))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=1 << 34),
                              min_size=n + block_size,
                              max_size=n + block_size))
    all_docs = start + np.cumsum(np.array(gaps, dtype=np.int64))
    all_tfs = np.array(data.draw(st.lists(
        tfs_value, min_size=len(gaps), max_size=len(gaps))), dtype=np.int64)
    docs, tfs = all_docs[:n], all_tfs[:n]
    pl = PostingList(encode_postings(docs, tfs, block_size=block_size))
    assert pl.n_blocks == 1
    d, t = pl.decode_all()
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(t, tfs)
    longer = PostingList(encode_postings(all_docs, all_tfs,
                                         block_size=block_size))
    gd, gt = longer.decode_all()
    assert d.dtype == gd.dtype and t.dtype == gt.dtype
    assert d.tolist() == gd[:n].tolist() and t.tolist() == gt[:n].tolist()
    for sd, st_ in (pl.decode_blocks(np.array([0])), pl.decode_for(docs)):
        assert d.tolist() == sd.tolist() and t.tolist() == st_.tolist()
    assert d.flags.writeable and t.flags.writeable
    assert d.base is None and t.base is None        # not views of the buffer


# byte width → (smallest, largest) value that takes it; a tf is < 2^31
# (the encoder rejects more), so tfs span widths 1, 2 and 4
_WIDTH_RANGES = {1: (0, 255), 2: (256, 65_535), 4: (65_536, (1 << 31) - 1),
                 8: (1 << 32, 1 << 36)}


@st.composite
def _width_list(draw, block_size):
    """One posting list of length 0, 1, B, B + 1 or up to 3B whose gaps
    (minus one) and tfs are drawn per posting from a few byte-width
    classes, so blocks of one list carry different widths."""
    n = draw(st.one_of(
        st.sampled_from([0, 1, block_size, block_size + 1, 3 * block_size]),
        st.integers(0, 3 * block_size)))
    gap_w = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1,
                          max_size=2))
    tf_w = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=2))
    gaps, tfs = [], []
    for _ in range(n):
        lo, hi = _WIDTH_RANGES[draw(st.sampled_from(gap_w))]
        gaps.append(1 + draw(st.integers(lo, hi)))
        lo, hi = _WIDTH_RANGES[draw(st.sampled_from(tf_w))]
        tfs.append(max(1, draw(st.integers(lo, hi))))
    first = draw(st.integers(0, 1 << 40))
    return (first + np.cumsum(np.array(gaps, dtype=np.int64)),
            np.array(tfs, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(block_size=st.sampled_from([1, 3, 8]), data=st.data())
def test_batch_decode_inverts_batch_encode(block_size, data):
    """``decode_postings_batch`` over any subset of a segment's rows (in
    any order, repeats allowed) returns each row's list exactly as it
    was encoded by ``encode_postings_batch`` and as ``decode_all``
    decodes it; ``one_block_rows`` picks the lists of exactly one
    block."""
    import pyarrow as pa

    from snowplow_elasticsearch_loader_ray.codec import (
        decode_postings_batch, one_block_rows)

    lists = data.draw(st.lists(_width_list(block_size), min_size=1,
                               max_size=8))
    lens = np.array([len(d) for d, _ in lists], dtype=np.int64)
    ends = np.cumsum(lens)
    buf, offs = encode_postings_batch(
        np.concatenate([d for d, _ in lists]),
        np.concatenate([t for _, t in lists]), ends - lens, ends,
        block_size=block_size)
    rows_b = [b"junk"] + [buf[offs[i]:offs[i + 1]].tobytes()
                          for i in range(len(lists))]
    column = pa.array(rows_b, pa.binary())[1:]   # a sliced array: offset 1
    rows = data.draw(st.lists(st.integers(0, len(lists) - 1), max_size=12))
    starts, docs, tfs = decode_postings_batch(column, rows)
    assert docs.dtype == np.int64 and tfs.dtype == np.int32
    assert len(starts) == len(rows) + 1 and starts[-1] == len(docs)
    for i, r in enumerate(rows):
        d, t = lists[r]
        got_d = docs[starts[i]:starts[i + 1]]
        got_t = tfs[starts[i]:starts[i + 1]]
        assert got_d.tolist() == d.tolist() and got_t.tolist() == t.tolist()
        want_d, want_t = PostingList(rows_b[r + 1]).decode_all()
        assert got_d.tolist() == want_d.tolist()
        assert got_t.tolist() == want_t.tolist()
    assert one_block_rows(column).tolist() == [
        i for i, n in enumerate(lens) if 0 < n <= block_size]
