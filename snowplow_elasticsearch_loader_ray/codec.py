"""Posting-list block codec: delta + byte-aligned frame-of-reference.

The reference keeps postings inside Elasticsearch; this codec is the
from-scratch replacement (SURVEY.md §7 stage 5). Layout goals: fast
vectorized (numpy) encode/decode, block-granular skipping for the
MaxScore candidate rescore (``decode_for``) and block-max score bounds,
and doc_id-ascending order for delta coding.

Binary layout (little-endian), one buffer per posting list::

    u32 n_postings
    u32 block_size B            (postings per block, last may be short)
    u32 n_blocks
    int64[n_blocks]  last_doc   (block-max skip metadata)
    int32[n_blocks]  max_tf     (block-max score-bound metadata)
    u32[n_blocks]    offset     (byte offset of block payload, relative
                                 to payload start)
    u8[n_blocks]     widths     (low nibble: doc-delta byte width,
                                 high nibble: tf byte width; widths in
                                 {1,2,4,8})
    payload: per block
        int64 first_doc
        uint{w_d}[n_b - 1] doc deltas   (delta-1 coding: gap - 1)
        uint{w_t}[n_b]     tfs

Doc ids MUST be strictly increasing; tfs MUST be >= 1 (doclen
pseudo-postings may carry 0, so tf width covers the actual range).
"""

from __future__ import annotations

import struct

import numpy as np

_HEADER = np.dtype("<u4")

_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}

#: width table: a block maximum ``v`` takes
#: ``_WIDTHS[searchsorted(_WIDTH_BOUNDS, v, "right")]`` bytes
_WIDTH_BOUNDS = np.array([1 << 8, 1 << 16, 1 << 32], dtype=np.int64)
_WIDTHS = np.array([1, 2, 4, 8], dtype=np.int64)


def _scatter(out: np.ndarray, pos: np.ndarray, vals: np.ndarray,
             dtype) -> None:
    """Write ``vals`` as little-endian ``dtype`` at byte offsets ``pos``
    of the u8 buffer ``out`` (one fancy-index store for all values)."""
    if not len(pos):
        return
    raw = np.ascontiguousarray(vals).astype(dtype).view(np.uint8)
    raw = raw.reshape(len(pos), -1)
    if raw.shape[1] == 1:
        out[pos] = raw[:, 0]
    else:
        out[pos[:, None] + np.arange(raw.shape[1])] = raw


def _scatter_ragged(out: np.ndarray, base: np.ndarray, width: np.ndarray,
                    n_b: np.ndarray, vals: np.ndarray) -> None:
    """Write posting ``p`` of block ``b`` at ``base[b] + width[b] * p``
    as a ``width[b]``-byte integer: one scatter per width class."""
    p = np.arange(len(vals))
    classes = np.unique(width)
    if len(classes) == 1:                        # the common case
        w = int(classes[0])
        _scatter(out, np.repeat(base, n_b) + w * p, vals, _DTYPES[w])
        return
    w_p = np.repeat(width, n_b)
    pos = np.repeat(base, n_b) + w_p * p
    for w in classes:
        sel = np.nonzero(w_p == w)[0]
        _scatter(out, pos[sel], vals[sel], _DTYPES[int(w)])


def encode_postings_batch(doc_ids: np.ndarray, tfs: np.ndarray,
                          starts: np.ndarray, ends: np.ndarray,
                          block_size: int = 128
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Encode many posting lists in one vectorized pass.

    List ``i`` is ``doc_ids[starts[i]:ends[i]]`` (doc_id ascending) with
    its tfs; the lists lie back to back (``starts[0] == 0``,
    ``starts[i + 1] == ends[i]``, ``ends[-1] == len(doc_ids)``).
    Returns ``(buf, offsets)``: a u8 buffer and int64 ``offsets`` of
    length ``len(starts) + 1`` such that ``buf[offsets[i]:offsets[i + 1]]``
    is list ``i`` in the layout above, byte-identical to
    ``encode_postings`` on that list alone. A shard's vocabulary is mostly short lists (median df ~10,
    one short block), so a per-list numpy call chain costs far more
    than the postings themselves; here the whole shard runs as

    1. one block table for all lists (owning list, rank in list,
       posting range);
    2. gaps, per-block ``max_gap``/``max_tf`` (``reduceat``), widths
       and byte sizes (``cumsum``) over the whole shard;
    3. headers, block metadata and ``first_doc`` as fixed-width
       scatters, then the ragged gap/tf payloads with one scatter per
       width class.

    No Python loop runs per list or per block.
    """
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    first = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(ends, dtype=np.int64) - first
    L, N, B = len(lens), len(doc_ids), block_size
    # the lists lie back to back and cover both arrays
    assert N == len(tfs) == int(lens.sum())
    assert (first[1:] == first[:-1] + lens[:-1]).all() and (not L or first[0] == 0)

    # 1. block table
    nb = (lens + B - 1) // B                     # blocks per list
    fb = np.zeros(L + 1, dtype=np.int64)         # first block of each list
    np.cumsum(nb, out=fb[1:])
    NB = int(fb[-1])
    blist = np.repeat(np.arange(L), nb)          # owning list per block
    j = np.arange(NB) - fb[blist]                # block rank in its list
    bstart = first[blist] + j * B
    n_b = np.minimum(first[blist] + lens[blist] - bstart, B)

    # 2. gaps, block maxima, widths, sizes
    gaps = np.empty(N, dtype=np.int64)
    if N:
        gaps[0] = 0
        np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
        gaps[1:] -= 1
        # only a list's first posting lacks a predecessor; a step at a
        # block boundary is still checked
        gaps[first[lens > 0]] = 0
        if gaps.min() < 0:
            raise ValueError("doc_ids must be strictly increasing")
        if int(tfs.max()) >= 1 << 31:
            # decode returns int32 tf arrays (a tf is bounded by document
            # length); reject rather than silently wrap
            raise ValueError("tf values must fit int32")
    gaps[bstart] = 0                             # block-first gap isn't encoded
    if NB:
        max_gap = np.maximum.reduceat(gaps, bstart)
        max_tf = np.maximum.reduceat(tfs, bstart)
    else:
        max_gap = max_tf = np.empty(0, dtype=np.int64)
    wd = _WIDTHS[np.searchsorted(_WIDTH_BOUNDS, max_gap, side="right")]
    wt = _WIDTHS[np.searchsorted(_WIDTH_BOUNDS, max_tf, side="right")]
    cb = np.zeros(NB + 1, dtype=np.int64)        # block payload offsets
    np.cumsum(8 + wd * (n_b - 1) + wt * n_b, out=cb[1:])
    payload = cb[fb[1:]] - cb[fb[:-1]]           # payload bytes per list
    if L and int(payload.max()) >= 1 << 32:
        # offsets serialize as u32; a payload past 4 GiB (~5e8 postings)
        # would silently truncate them — fail loudly instead. Lists that
        # big should be split across more term shards.
        raise ValueError("posting-list payload exceeds u32 offset range; "
                         "increase num_term_shards for this corpus")
    offsets = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(12 + 17 * nb + payload, out=offsets[1:])
    out = np.empty(int(offsets[-1]), dtype=np.uint8)

    # 3. scatters: header, block metadata, first_doc, payloads
    hdr = np.empty((L, 3), dtype=_HEADER)
    hdr[:, 0], hdr[:, 1], hdr[:, 2] = lens, B, nb
    _scatter(out, offsets[:-1], hdr, _HEADER)
    meta = offsets[:-1][blist] + 12              # list metadata start
    nbl = nb[blist]
    rel = cb[:-1] - cb[fb[blist]]                # u32 offset field
    _scatter(out, meta + 8 * j, doc_ids[bstart + n_b - 1], "<i8")
    _scatter(out, meta + 8 * nbl + 4 * j, max_tf, "<i4")
    _scatter(out, meta + 12 * nbl + 4 * j, rel, "<u4")
    _scatter(out, meta + 16 * nbl + j, wd | (wt << 4), "<u1")
    pay = meta + 17 * nbl + rel                  # block payload start
    # gap of block rank k >= 1 at pay + 8 + wd*(k-1): the rank-0 gap
    # (zeroed above) lands in the block's first_doc slot, which the
    # first_doc scatter then overwrites — no mask over the postings
    _scatter_ragged(out, pay + 8 - wd * (bstart + 1), wd, n_b, gaps)
    # tf of rank k after the block's gaps
    _scatter_ragged(out, pay + 8 + wd * (n_b - 1) - wt * bstart, wt, n_b, tfs)
    _scatter(out, pay, doc_ids[bstart], "<i8")
    return out, offsets


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray, block_size: int = 128) -> bytes:
    """Encode one posting list (sorted by doc_id ascending): the
    one-list case of ``encode_postings_batch``."""
    n = len(doc_ids)
    buf, _ = encode_postings_batch(doc_ids, tfs, np.zeros(1, dtype=np.int64),
                                   np.full(1, n, dtype=np.int64), block_size)
    return buf.tobytes()


class PostingList:
    """Decoded-on-demand view over an encoded posting list buffer."""

    __slots__ = ("buf", "n", "block_size", "n_blocks", "last_doc", "max_tf",
                 "offsets", "widths", "payload_start")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.n, self.block_size, self.n_blocks = struct.unpack_from("<3I", buf)
        o = 12
        self.last_doc = np.frombuffer(buf, dtype="<i8", count=self.n_blocks, offset=o)
        o += 8 * self.n_blocks
        self.max_tf = np.frombuffer(buf, dtype="<i4", count=self.n_blocks, offset=o)
        o += 4 * self.n_blocks
        self.offsets = np.frombuffer(buf, dtype="<u4", count=self.n_blocks, offset=o)
        o += 4 * self.n_blocks
        self.widths = np.frombuffer(buf, dtype="<u1", count=self.n_blocks, offset=o)
        o += self.n_blocks
        self.payload_start = o

    def decode_block(self, bi: int) -> tuple[np.ndarray, np.ndarray]:
        lo = bi * self.block_size
        n_b = min(self.block_size, self.n - lo)
        w = int(self.widths[bi])
        wd, wt = w & 0xF, w >> 4
        off = self.payload_start + int(self.offsets[bi])
        # [first_doc, gap_1 + 1, ...] summed in place: one cumsum
        docs = np.empty(n_b, dtype=np.int64)
        docs[0] = int.from_bytes(self.buf[off:off + 8], "little", signed=True)
        off += 8
        docs[1:] = np.frombuffer(self.buf, dtype=_DTYPES[wd], count=n_b - 1,
                                 offset=off)
        docs[1:] += 1
        np.cumsum(docs, out=docs)
        off += wd * (n_b - 1)
        tfs = np.frombuffer(self.buf, dtype=_DTYPES[wt], count=n_b, offset=off)
        return docs, tfs.astype(np.int32)

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode the whole list, vectorized across blocks.

        Full blocks sharing a width byte have identical byte size, so
        each width class decodes as one u8 gather → dtype views → one
        2-D cumsum — no per-block Python loop (the query-path hot spot:
        a head term at 10^8 postings is ~10^6 blocks). The (at most
        one) short tail block falls back to ``decode_block``, and so does
        a list of one block. The serving readers never decode one-block
        lists here: they score all of them in one batch with one
        ``decode_postings_batch`` per segment (``servecache.ShortLists``;
        88% of the ``serve`` benchmark index's vocabulary has at most
        128 postings); this path serves every other caller (boolean
        and filter queries, the live chain's scoring, merges, raw-tf
        lists).
        """
        if self.n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        if self.n_blocks == 1:
            return self.decode_block(0)
        docs = np.empty(self.n, dtype=np.int64)
        tfs = np.empty(self.n, dtype=np.int32)
        B = self.block_size
        n_full = self.n // B
        buf8 = np.frombuffer(self.buf, dtype=np.uint8)
        if n_full:
            w = self.widths[:n_full]
            run_starts = np.concatenate(([0], np.nonzero(w[1:] != w[:-1])[0] + 1))
            run_ends = np.concatenate((run_starts[1:], [n_full]))
            for lo, hi in zip(run_starts, run_ends):
                wd, wt = int(w[lo]) & 0xF, int(w[lo]) >> 4
                nbytes = 8 + wd * (B - 1) + wt * B
                # blocks are laid out sequentially, so an equal-width run
                # is one contiguous record array → zero-copy reshape
                base = self.payload_start + int(self.offsets[lo])
                mat = buf8[base : base + (hi - lo) * nbytes].reshape(hi - lo, nbytes)
                first = mat[:, :8].copy().view("<i8").reshape(-1)
                gaps = (
                    mat[:, 8 : 8 + wd * (B - 1)].copy().view(_DTYPES[wd])
                    .reshape(hi - lo, B - 1)
                )
                t = (
                    mat[:, 8 + wd * (B - 1) :].copy().view(_DTYPES[wt])
                    .reshape(hi - lo, B)
                )
                d = docs[lo * B : hi * B].reshape(hi - lo, B)
                d[:, 0] = first
                np.cumsum(gaps, axis=1, dtype=np.int64, out=d[:, 1:])
                d[:, 1:] += first[:, None] + np.arange(1, B, dtype=np.int64)
                tfs[lo * B : hi * B] = t.reshape(-1)
        if n_full < self.n_blocks:
            d, t = self.decode_block(self.n_blocks - 1)
            docs[n_full * B :] = d
            tfs[n_full * B :] = t
        return docs, tfs

    def first_block_geq(self, doc_id: int) -> int:
        """Index of the first block whose last_doc >= doc_id (n_blocks if none)."""
        return int(np.searchsorted(self.last_doc, doc_id, side="left"))

    def decode_blocks(self, bidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode an arbitrary SUBSET of blocks → the union of their
        postings in DOCUMENT order (blocks are doc-ordered, so sorted
        block order IS doc order).

        Full blocks sharing a width byte have identical byte size, so
        each width class decodes as one fancy u8 gather → dtype views →
        one 2-D cumsum, mirroring ``decode_all``'s run decode but
        gathering non-contiguous records — no per-block Python loop
        (the candidate-rescore hot spot: a head term probed for 500
        candidates decodes ≤500 of its 10^6 blocks). The (at most one)
        short tail block falls back to ``decode_block``.
        """
        bidx = np.unique(np.asarray(bidx, dtype=np.int64))
        bidx = bidx[(bidx >= 0) & (bidx < self.n_blocks)]
        if self.n == 0 or not len(bidx):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        B = self.block_size
        n_full_total = self.n // B
        full_sel = bidx[bidx < n_full_total]
        has_tail = n_full_total < self.n_blocks and bidx[-1] == self.n_blocks - 1
        nf = len(full_sel)
        tail_len = (self.n - n_full_total * B) if has_tail else 0
        docs = np.empty(nf * B + tail_len, dtype=np.int64)
        tfs = np.empty(nf * B + tail_len, dtype=np.int32)
        if nf:
            buf8 = np.frombuffer(self.buf, dtype=np.uint8)
            w = self.widths[full_sel]
            d_full = docs[: nf * B].reshape(nf, B)
            t_full = tfs[: nf * B].reshape(nf, B)
            for wv in np.unique(w):
                rows = np.nonzero(w == wv)[0]     # ranks in sorted bidx
                blk = full_sel[rows]
                wd, wt = int(wv) & 0xF, int(wv) >> 4
                nbytes = 8 + wd * (B - 1) + wt * B
                base = self.payload_start + self.offsets[blk].astype(np.int64)
                mat = buf8[base[:, None] + np.arange(nbytes)]
                first = mat[:, :8].copy().view("<i8").reshape(-1)
                gaps = (
                    mat[:, 8 : 8 + wd * (B - 1)].copy().view(_DTYPES[wd])
                    .reshape(len(blk), B - 1)
                )
                t = (
                    mat[:, 8 + wd * (B - 1) :].copy().view(_DTYPES[wt])
                    .reshape(len(blk), B)
                )
                d = np.empty((len(blk), B), dtype=np.int64)
                d[:, 0] = first
                np.cumsum(gaps, axis=1, dtype=np.int64, out=d[:, 1:])
                d[:, 1:] += first[:, None] + np.arange(1, B, dtype=np.int64)
                d_full[rows] = d
                t_full[rows] = t
        if has_tail:
            d, t = self.decode_block(self.n_blocks - 1)
            docs[nf * B :] = d
            tfs[nf * B :] = t
        return docs, tfs

    def decode_for(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(docs ∩ cand, their tfs) decoding ONLY the blocks that can
        contain a candidate — the block-max skip metadata as a read
        pruner. ``cand`` must be sorted ascending. A head term with 10^5
        blocks decodes ≤ |cand| of them; the per-block loop is bounded
        by the candidate count, not the posting count.
        """
        if self.n == 0 or not len(cand):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        if len(cand) > 1 and not (cand[1:] >= cand[:-1]).all():
            # the sorted-ascending contract is load-bearing for the
            # searchsorted intersection below; normalize rather than
            # silently drop hits (cand is candidate-set-sized: cheap)
            cand = np.unique(cand)
        bis = np.unique(np.searchsorted(self.last_doc, cand, side="left"))
        bis = bis[bis < self.n_blocks]
        d, t = self.decode_blocks(bis)           # doc-ordered union
        pos = np.searchsorted(cand, d)
        sel = pos < len(cand)
        sel[sel] = cand[pos[sel]] == d[sel]
        return d[sel], t[sel]


def decode_postings(buf: bytes) -> tuple[np.ndarray, np.ndarray]:
    return PostingList(buf).decode_all()


def _binary_buffers(arr) -> tuple[memoryview, np.ndarray]:
    """(data buffer, row byte offsets) of a Binary/LargeBinary array:
    row ``i`` is ``data[offs[i]:offs[i + 1]]``."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset: arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    return memoryview(data if data is not None else b""), offs


def _read(buf8: np.ndarray, pos: np.ndarray, dtype) -> np.ndarray:
    """The little-endian ``dtype`` integers at byte offsets ``pos`` of
    the u8 buffer ``buf8``: one fancy-index gather from an unaligned
    view whose element ``i`` starts at byte ``i``."""
    dtype = np.dtype(dtype)
    at = np.ndarray((max(0, len(buf8) - dtype.itemsize + 1),), dtype,
                    buffer=buf8, strides=(1,))
    return at[pos]


def _read_ragged(buf8: np.ndarray, base: np.ndarray, width: np.ndarray,
                 n_b: np.ndarray) -> np.ndarray:
    """Read posting ``p`` of block ``b`` at ``base[b] + width[b] * p``
    as a ``width[b]``-byte unsigned integer, widened to int64: one
    gather per width class (the inverse of ``_scatter_ragged``)."""
    p = np.arange(int(n_b.sum()))
    classes = np.unique(width)
    if len(classes) == 1:                        # the common case
        w = int(classes[0])
        return _read(buf8, np.repeat(base, n_b) + w * p,
                     _DTYPES[w]).astype(np.int64)
    w_p = np.repeat(width, n_b)
    pos = np.repeat(base, n_b) + w_p * p
    out = np.empty(len(p), dtype=np.int64)
    for w in classes:
        sel = np.flatnonzero(w_p == w)
        out[sel] = _read(buf8, pos[sel], _DTYPES[int(w)])
    return out


def one_block_rows(postings) -> np.ndarray:
    """Rows of a ``postings`` column (Binary) whose list is exactly one
    block (``0 < n <= block_size``): the lists a reader decodes and
    weighs in one batch. Reads the 12-byte headers only."""
    data, offs = _binary_buffers(postings)
    buf8 = np.frombuffer(data, dtype=np.uint8)
    if not len(offs) or not len(buf8):
        return np.empty(0, dtype=np.int64)
    n_blocks = _read(buf8, offs[:-1].astype(np.int64) + 8, _HEADER)
    return np.flatnonzero(n_blocks == 1)


def decode_postings_batch(postings, rows
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode rows ``rows`` of a segment's ``postings`` column (Binary,
    one list per row, the layout above) in one vectorized pass — the
    inverse of ``encode_postings_batch``.

    Returns CSR arrays ``(starts, docs, tfs)``: the list of
    ``rows[i]`` is ``docs[starts[i]:starts[i + 1]]`` (int64, ascending)
    with ``tfs`` (int32) alongside, equal to ``decode_all`` on that row.
    The plan mirrors the encoder's:

    1. the list headers, then one block table for every selected list
       (owning list, rank in list, payload offset, widths, sizes);
    2. ``first_doc`` per block, then each posting's gap and tf at its
       byte offset with one gather per width class;
    3. one cumsum over all postings, re-based per block.

    Lists of any number of blocks decode; no Python loop runs per list
    or per block.
    """
    data, offs = _binary_buffers(postings)
    buf8 = np.frombuffer(data, dtype=np.uint8)
    rows = np.asarray(rows, dtype=np.int64)
    base = offs[rows].astype(np.int64)           # list start bytes

    # 1. headers and block table
    L = len(rows)
    n = _read(buf8, base, _HEADER).astype(np.int64)
    B = _read(buf8, base + 4, _HEADER).astype(np.int64)
    nb = _read(buf8, base + 8, _HEADER).astype(np.int64)
    starts = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(n, out=starts[1:])
    fb = np.zeros(L + 1, dtype=np.int64)         # first block of each list
    np.cumsum(nb, out=fb[1:])
    NB, N = int(fb[-1]), int(starts[-1])
    blist = np.repeat(np.arange(L), nb)          # owning list per block
    j = np.arange(NB) - fb[blist]                # block rank in its list
    meta = base[blist] + 12                      # list metadata start
    nbl = nb[blist]
    rel = _read(buf8, meta + 12 * nbl + 4 * j, "<u4").astype(np.int64)
    w = _read(buf8, meta + 16 * nbl + j, "<u1").astype(np.int64)
    wd, wt = w & 0xF, w >> 4
    pay = meta + 17 * nbl + rel                  # block payload start
    n_b = np.minimum(n[blist] - j * B[blist], B[blist])

    # 2. first_doc per block; gap (+1) and tf per posting
    first = _read(buf8, pay, "<i8")
    bo = np.zeros(NB + 1, dtype=np.int64)        # block output starts
    np.cumsum(n_b, out=bo[1:])
    bo = bo[:-1]
    # tf of rank k after the block's gaps
    tfs = _read_ragged(buf8, pay + 8 + wd * (n_b - 1) - wt * bo, wt,
                       n_b).astype(np.int32)
    # gap of rank k >= 1 at pay + 8 + wd*(k-1); rank 0 reads bytes of
    # the block's first_doc slot, which the re-base below cancels
    docs = _read_ragged(buf8, pay + 8 - wd * (bo + 1), wd, n_b)
    docs += 1

    # 3. one cumsum (int64 wraps, and the re-base undoes any wrap),
    # re-based so each block starts at its first_doc
    np.cumsum(docs, out=docs)
    docs += np.repeat(first - docs[bo], n_b)
    return starts, docs, tfs


def binary_views(arr) -> list[memoryview]:
    """Zero-copy per-row memoryviews over a Binary/LargeBinary array.

    Reader warm-up path: ``to_pylist()`` copies every posting buffer
    into a Python bytes object; a memoryview slice over the single
    Arrow data buffer shares it instead (``PostingList`` /
    ``np.frombuffer`` accept any buffer protocol object). The returned
    views keep the Arrow buffer alive via their base object.
    """
    data, offs = _binary_buffers(arr)
    return [data[offs[i]:offs[i + 1]] for i in range(len(offs) - 1)]
