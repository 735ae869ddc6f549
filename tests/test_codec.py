import numpy as np
import pytest

from snowplow_elasticsearch_loader_ray.codec import (
    PostingList, decode_postings, encode_postings, encode_postings_batch,
)


def _roundtrip(docs, tfs, block_size=128):
    buf = encode_postings(np.asarray(docs), np.asarray(tfs), block_size=block_size)
    d, t = decode_postings(buf)
    np.testing.assert_array_equal(d, np.asarray(docs, dtype=np.int64))
    np.testing.assert_array_equal(t, np.asarray(tfs, dtype=np.int32))
    return buf


def test_roundtrip_small():
    _roundtrip([1, 2, 3], [1, 1, 2])


def test_roundtrip_single():
    _roundtrip([42], [7])


def test_roundtrip_large_gaps_and_tfs():
    docs = np.cumsum(np.array([10**9, 5, 2**33, 1, 70000, 3], dtype=np.int64))
    tfs = np.array([1, 300, 70000, 2**31 - 1, 2, 1], dtype=np.int64)
    _roundtrip(docs, tfs)


def test_roundtrip_multiblock_random():
    rng = np.random.default_rng(7)
    gaps = rng.integers(1, 10000, size=10_000)
    docs = np.cumsum(gaps)
    tfs = rng.integers(1, 500, size=10_000)
    buf = _roundtrip(docs, tfs, block_size=128)
    pl = PostingList(buf)
    assert pl.n_blocks == (10_000 + 127) // 128
    # block metadata correctness
    for bi in [0, 3, pl.n_blocks - 1]:
        d, t = pl.decode_block(bi)
        assert pl.last_doc[bi] == d[-1]
        assert pl.max_tf[bi] == t.max()
    # compression: delta+FOR beats raw int64+int32 encoding
    assert len(buf) < 10_000 * 12


def test_roundtrip_zero_tf_allowed():
    # doclen pseudo-postings may carry 0 (empty docs)
    _roundtrip([5, 9], [0, 3])


def test_first_block_geq():
    docs = np.arange(0, 1000, 2, dtype=np.int64)  # 500 postings, 4 blocks
    buf = encode_postings(docs, np.ones(500), block_size=128)
    pl = PostingList(buf)
    assert pl.first_block_geq(0) == 0
    assert pl.first_block_geq(int(pl.last_doc[0])) == 0
    assert pl.first_block_geq(int(pl.last_doc[0]) + 1) == 1
    assert pl.first_block_geq(998) == pl.n_blocks - 1
    assert pl.first_block_geq(999) == pl.n_blocks
    assert pl.first_block_geq(10_000) == pl.n_blocks


def test_empty_list():
    buf = encode_postings(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
    d, t = decode_postings(buf)
    assert len(d) == 0 and len(t) == 0


def test_non_increasing_docs_rejected():
    # the build guarantees strict doc_id increase (unique (term, doc_id)
    # pairs); the codec validates rather than silently corrupting deltas
    with pytest.raises(ValueError):
        encode_postings(np.array([5, 5]), np.array([1, 1]))
    with pytest.raises(ValueError):
        encode_postings(np.array([9, 5]), np.array([1, 1]))


def test_golden_bytes_two_block_multi_width():
    """Freeze the on-disk format: block 0 carries 4-byte gaps and
    2-byte tfs, the short block 1 8-byte gaps and 4-byte tfs."""
    docs = np.array([7, 8, 300, 1_000_000, 1_000_001, 5_000_000_000])
    tfs = np.array([1, 2, 300, 1, 70000, 3])
    assert encode_postings(docs, tfs, block_size=4).hex() == (
        "060000000400000002000000"                  # n, B, n_blocks
        "40420f0000000000" "00f2052a01000000"       # last_doc
        "2c010000" "70110100"                       # max_tf
        "00000000" "1c000000"                       # payload offsets
        "24" "48"                                   # widths (tf<<4 | gap)
        "0700000000000000" "00000000" "23010000" "13410f00"
        "0100" "0200" "2c01" "0100"                 # block 0
        "41420f0000000000" "beaff62901000000"
        "70110100" "03000000"                       # block 1
    )


def test_batch_checks_stay_per_list():
    one = np.ones(8, dtype=np.int64)
    # a non-increasing step on a block boundary (index 4, B=4) is
    # rejected like any other step inside a list
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_postings(np.array([1, 2, 3, 9, 9, 10, 11, 12]), one,
                        block_size=4)
    with pytest.raises(ValueError, match="strictly increasing"):
        encode_postings_batch(np.array([1, 2, 3, 9, 5, 10]), one[:6],
                              np.array([0]), np.array([6]), block_size=4)
    # a decrease at a LIST boundary is two lists, not an error
    docs = np.array([1, 2, 3, 9, 5, 10, 11, 12])
    buf, offs = encode_postings_batch(docs, one, np.array([0, 4]),
                                      np.array([4, 8]), block_size=4)
    for i, (lo, hi) in enumerate([(0, 4), (4, 8)]):
        d, _ = decode_postings(buf[offs[i]:offs[i + 1]].tobytes())
        np.testing.assert_array_equal(d, docs[lo:hi])
    # a tf too large for int32 in any list rejects the batch
    with pytest.raises(ValueError, match="int32"):
        encode_postings_batch(docs, np.array([1] * 7 + [1 << 31]),
                              np.array([0, 4]), np.array([4, 8]))
    # empty lists keep the 12-byte header, wherever they sit
    buf, offs = encode_postings_batch(docs[:4], one[:4], np.array([0, 0, 4]),
                                      np.array([0, 4, 4]), block_size=4)
    assert np.diff(offs)[[0, 2]].tolist() == [12, 12]
    assert buf[offs[2]:].tobytes() == encode_postings(docs[:0], one[:0],
                                                      block_size=4)


def test_binary_views_zero_copy_roundtrip():
    import pyarrow as pa
    from snowplow_elasticsearch_loader_ray.codec import binary_views

    bufs = [b"", b"abc", b"x" * 1000, b"\x00\xff" * 7]
    arr = pa.chunked_array([pa.array(bufs[:2], pa.binary()),
                            pa.array(bufs[2:], pa.binary())])
    views = binary_views(arr)
    assert [bytes(v) for v in views] == bufs
    # sliced arrays (nonzero offset) must still map correctly
    sliced = pa.array(bufs, pa.binary()).slice(1, 2)
    assert [bytes(v) for v in binary_views(sliced)] == bufs[1:3]


def test_decode_blocks_subsets():
    rng = np.random.default_rng(11)
    n = 10_000                                   # short tail block (10000 % 128 != 0)
    docs = np.cumsum(rng.integers(1, 9, size=n))
    tfs = rng.integers(1, 2**20, size=n)         # mixed tf widths across blocks
    buf = encode_postings(np.asarray(docs), np.asarray(tfs), block_size=128)
    pl = PostingList(buf)
    all_d, all_t = pl.decode_all()
    B = pl.block_size
    for bidx in (
        np.array([0]),                           # first
        np.array([pl.n_blocks - 1]),             # tail only
        np.array([3, 1, 1, 60]),                 # unsorted + duplicate
        np.arange(pl.n_blocks),                  # everything == decode_all
        rng.permutation(pl.n_blocks)[:17],       # random subset
    ):
        d, t = pl.decode_blocks(bidx)
        want = np.unique(np.asarray(bidx))
        exp_d = np.concatenate([all_d[b * B:(b + 1) * B] for b in want])
        exp_t = np.concatenate([all_t[b * B:(b + 1) * B] for b in want])
        np.testing.assert_array_equal(d, exp_d)
        np.testing.assert_array_equal(t, exp_t)
    # empty selection
    d, t = pl.decode_blocks(np.empty(0, dtype=np.int64))
    assert len(d) == 0 and len(t) == 0


def test_decode_for_matches_bruteforce():
    rng = np.random.default_rng(13)
    docs = np.cumsum(rng.integers(1, 50, size=5_000))
    tfs = rng.integers(1, 9, size=5_000)
    buf = encode_postings(np.asarray(docs), np.asarray(tfs), block_size=64)
    pl = PostingList(buf)
    cand = np.unique(np.concatenate([
        docs[rng.permutation(len(docs))[:200]],      # 200 real hits
        rng.integers(0, docs[-1] + 100, size=200),   # mostly misses
    ]))
    d, t = pl.decode_for(cand)
    mask = np.isin(docs, cand)
    np.testing.assert_array_equal(d, docs[mask])
    np.testing.assert_array_equal(t, tfs[mask])
