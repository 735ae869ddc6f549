"""Deduplication family: exact, exact n-gram Jaccard, MinHash+LSH, SimHash.

Reference context: the loader's only dedup mechanism is ES
upsert-by-id (``ElasticsearchSink.scala:92``, SURVEY.md W5) — keyed
idempotency, realized here as ``exact_dedup``. The near-dup operators
are the training-data-pipeline extensions (SURVEY.md "beyond the
reference").

Scale notes (each documented on the operator):
- shingling / signatures are vectorized per batch (flat arrays +
  ``reduceat`` segment reductions, no per-doc Python loop);
- candidate generation is a ``groupby`` on a small exploded key
  (band hash / shingle hash / simhash chunk), i.e. the shuffle moves
  fixed-size signature rows — never document text;
- pair verification fetches only candidate docs' features.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Min

from .. import _raydata  # noqa: F401 (thread-safe path probe)
from ..config import DedupConfig, DEFAULT_DEDUP
from ..tokenizer import tokenize_to_terms
from .analysis import _hash_tokens

_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_P3 = np.uint64(0x165667B19E3779F9)


# --------------------------------------------------------------------------
# exact dedup (hash-partition + per-group min — the W5 upsert analogue)
# --------------------------------------------------------------------------

def content_hash64(text: str) -> int:
    h = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "little") & 0x7FFF_FFFF_FFFF_FFFF


class AddContentHash:
    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = np.fromiter(
            (content_hash64(t) for t in batch["text"].to_pylist()),
            dtype=np.int64, count=batch.num_rows,
        )
        return pa.table({"doc_id": batch["doc_id"], "content_hash": pa.array(hs)})


def exact_dedup(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Survivors of exact-text dedup: ``(doc_id=min id per text, n_dups)``.

    Pre-hash in map_batches so the groupby shuffles 16-byte rows, not
    document text; the grouped aggregate is Ray's hash shuffle.
    """
    hashed = ds.map_batches(AddContentHash(), batch_format="pyarrow")
    agg = hashed.groupby("content_hash").aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="n_dups"),
    )
    return agg.select_columns(["doc_id", "n_dups"])


# --------------------------------------------------------------------------
# shingling (shared by Jaccard + MinHash)
# --------------------------------------------------------------------------

def _mix(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return x


def _gram_muls(k: int) -> list[np.uint64]:
    """One DISTINCT multiplier per gram position (cycling a short list
    would make grams that permute same-multiplier positions collide —
    e.g. with [i % 3] and k=5, swapping tokens 0 and 3 preserves the
    XOR). Positions 0-2 keep the original constants so k=3 hashes
    (jaccard/minhash/simhash) are unchanged; positions ≥3 get mixed
    per-position odd multipliers."""
    base = [_P1, _P2, _P3]
    return [base[i] if i < 3 else
            np.uint64(_mix(np.array([i + 1], dtype=np.uint64) * _P3)[0] | np.uint64(1))
            for i in range(k)]


def distinct_shingles(texts, k: int = 3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch texts → (flat distinct shingle hashes, doc row index, per-row counts).

    k-token shingles hashed to 64 bits; distinct per doc. Docs with
    fewer than k tokens have zero shingles (excluded from Jaccard — the
    oracle mirrors this).
    """
    flat, idx_arr = tokenize_to_terms(texts)
    idx = idx_arr.to_numpy(zero_copy_only=False)
    n = len(texts)
    h = _hash_tokens(flat) if len(flat) else np.empty(0, dtype=np.uint64)
    if len(h) < k:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64),
                np.zeros(n, dtype=np.int64))
    muls = _gram_muls(k)
    parts = [h[i : len(h) - (k - 1) + i] * muls[i] for i in range(k)]
    sh = _mix(np.bitwise_xor.reduce(parts))
    same_doc = idx[: len(h) - (k - 1)] == idx[k - 1 :]
    sh = sh[same_doc]
    sdoc = idx[: len(h) - (k - 1)][same_doc]
    # distinct per doc: sort by (doc, hash), drop consecutive dups
    order = np.lexsort((sh, sdoc))
    sh, sdoc = sh[order], sdoc[order]
    keep = np.concatenate(([True], (sh[1:] != sh[:-1]) | (sdoc[1:] != sdoc[:-1])))
    sh, sdoc = sh[keep], sdoc[keep]
    counts = np.bincount(sdoc, minlength=n).astype(np.int64)
    return sh, sdoc.astype(np.int64), counts


class ShingleRows:
    """docs → exploded rows (doc_id, shingle, n_shingles) of distinct shingles.

    ``n_shingles`` (the doc's distinct-shingle count, exact — shingling
    is per-doc within the batch) rides on every exploded row so the
    pair plan can compute |A|+|B| without a driver-side size dict or a
    second shuffle: the sizes arrive at the pair groupby as grouped-by
    columns.
    """

    def __init__(self, cfg: DedupConfig = DEFAULT_DEDUP):
        self.k = cfg.shingle_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh, sdoc, counts = distinct_shingles(batch["text"], self.k)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(doc_ids[sdoc], type=pa.int64()),
            "shingle": pa.array(sh.view(np.int64)),
            "n_shingles": pa.array(counts[sdoc], type=pa.int64()),
        })


# --------------------------------------------------------------------------
# exact n-gram Jaccard pairs (oracle-checkable)
# --------------------------------------------------------------------------

def _make_pairs_in_group(max_df: int):
    def _pairs_in_group(g: pa.Table) -> pa.Table:
        """All (a<b) doc pairs sharing this shingle, each carrying both
        docs' set sizes (vectorized). Groups larger than ``max_df`` are
        dropped — the documented boilerplate-shingle cap."""
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64()),
                          "na": pa.array([], type=pa.int64()),
                          "nb": pa.array([], type=pa.int64())})
        m = g.num_rows
        if m < 2 or m > max_df:
            return empty
        order = np.argsort(g["doc_id"].to_numpy(zero_copy_only=False))
        ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
        sizes = g["n_shingles"].to_numpy(zero_copy_only=False)[order]
        ai, bi = np.triu_indices(m, k=1)
        return pa.table({"a": pa.array(ids[ai]), "b": pa.array(ids[bi]),
                         "na": pa.array(sizes[ai]), "nb": pa.array(sizes[bi])})

    return _pairs_in_group


def _pair_jaccard_table(ds: ray.data.Dataset, cfg: DedupConfig,
                        threshold: float | None) -> pa.Table:
    """The shared distributed exact-Jaccard pair plan.

    explode distinct shingles (each row carries its doc's set size) →
    ``groupby(shingle)`` emits co-occurring (a,b,na,nb) pairs →
    ``groupby(pair)`` counts = |A∩B| → jaccard from the riding sizes.
    No driver-side state: sizes travel WITH the pair rows, so the only
    driver materialization is the (small) final pair table. The shuffle
    key is the 8-byte shingle hash. Pair explosion is quadratic only
    within one shingle's group and is bounded by ``cfg.max_shingle_df``
    (a shingle shared by more docs than that is boilerplate, not
    duplication signal — standard MinHash-corpus practice; at the
    sandbox's exactness-checked scale every group is far below the cap,
    so the DuckDB oracle stays exact).

    ``threshold=None`` keeps all co-shingle pairs (the MinHash verify
    path filters to its candidate set instead).
    """
    sh = ds.map_batches(ShingleRows(cfg), batch_format="pyarrow")
    pairs = (
        sh.groupby("shingle")
        .map_groups(_make_pairs_in_group(cfg.max_shingle_df),
                    batch_format="pyarrow")
        .groupby(["a", "b", "na", "nb"])
        .aggregate(Count(alias_name="intersection"))
        .to_pandas()
    )
    if len(pairs) == 0:
        return pa.table({"doc_id_a": pa.array([], pa.int64()),
                         "doc_id_b": pa.array([], pa.int64()),
                         "intersection": pa.array([], pa.int64()),
                         "union": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    a = pairs["a"].to_numpy()
    b = pairs["b"].to_numpy()
    inter = pairs["intersection"].to_numpy().astype(np.int64)
    na = pairs["na"].to_numpy().astype(np.int64)
    nb = pairs["nb"].to_numpy().astype(np.int64)
    union = na + nb - inter
    jac = inter / union
    keep = jac >= threshold if threshold is not None else np.ones(len(jac), bool)
    order = np.lexsort((b[keep], a[keep]))
    return pa.table({
        "doc_id_a": pa.array(a[keep][order], type=pa.int64()),
        "doc_id_b": pa.array(b[keep][order], type=pa.int64()),
        "intersection": pa.array(inter[keep][order]),
        "union": pa.array(union[keep][order]),
        "jaccard": pa.array(jac[keep][order], type=pa.float64()),
    })


def jaccard_dup_pairs(ds: ray.data.Dataset, cfg: DedupConfig = DEFAULT_DEDUP,
                      threshold: float | None = None) -> pa.Table:
    """Exact word-k-gram Jaccard duplicate pairs (jaccard >= threshold).

    See ``_pair_jaccard_table`` for the distributed plan. Returns a
    pyarrow Table (small result): doc_id_a, doc_id_b, intersection,
    union, jaccard.
    """
    t = threshold if threshold is not None else cfg.jaccard_threshold
    return _pair_jaccard_table(ds, cfg, t)


# --------------------------------------------------------------------------
# MinHash + LSH near-dup (approximate candidates, exact verification)
# --------------------------------------------------------------------------

class MinHashBands:
    """docs → LSH band rows (doc_id, band, band_hash).

    num_perm permutations h'_p = a_p*h + b_p over distinct shingle
    hashes (wrapping uint64 universal-ish hashing), min per doc via
    ``minimum.reduceat``; bands of ``num_perm // num_bands`` rows are
    combined into one 64-bit band hash.
    """

    def __init__(self, cfg: DedupConfig = DEFAULT_DEDUP):
        self.cfg = cfg
        rng = np.random.default_rng(42)
        self.a = rng.integers(1, 2**63, size=cfg.num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**63, size=cfg.num_perm, dtype=np.uint64)

    def signatures(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """→ (doc row indices with >=1 shingle, sig matrix [n_docs_kept, num_perm])."""
        sh, sdoc, counts = distinct_shingles(texts, self.cfg.shingle_size)
        kept = np.nonzero(counts > 0)[0]
        if len(kept) == 0:
            return kept, np.empty((0, self.cfg.num_perm), dtype=np.uint64)
        starts = np.concatenate(([0], np.cumsum(counts[kept])[:-1]))
        sig = np.empty((len(kept), self.cfg.num_perm), dtype=np.uint64)
        for p in range(self.cfg.num_perm):
            y = self.a[p] * sh + self.b[p]
            sig[:, p] = np.minimum.reduceat(y, starts)
        return kept, sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        kept, sig = self.signatures(batch["text"])
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[kept]
        nb = self.cfg.num_bands
        rows = self.cfg.num_perm // nb
        bh = np.zeros((len(kept), nb), dtype=np.uint64)
        for r in range(rows):
            bh = _mix(bh ^ (sig[:, np.arange(nb) * rows + r] * _P2))
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, nb), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(nb, dtype=np.int32), len(kept))),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
        })


def _candidate_pairs(g: pa.Table) -> pa.Table:
    ids = np.unique(g["doc_id"].to_numpy(zero_copy_only=False))
    if len(ids) < 2:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    ai, bi = np.triu_indices(len(ids), k=1)
    return pa.table({"a": pa.array(ids[ai]), "b": pa.array(ids[bi])})


def minhash_lsh_pairs(ds: ray.data.Dataset, cfg: DedupConfig = DEFAULT_DEDUP) -> pa.Table:
    """Near-dup pairs: LSH candidates → exact-Jaccard verification.

    Both halves are distributed:
    - candidate generation is a band-hash ``groupby`` over fixed-size
      signature rows (never text);
    - verification restricts the corpus to candidate docs (broadcast
      semi-join filter — candidate docs are rare) and runs the same
      distributed pair-keyed Jaccard plan as ``jaccard_dup_pairs``
      (sizes ride on the pair rows; intersections come from the shingle
      groupby). The only driver-resident tables are the candidate pair
      list and the final verified pairs — both tiny relative to the
      corpus.
    """
    bands = ds.map_batches(MinHashBands(cfg), batch_format="pyarrow")
    cand = (
        bands.groupby(["band", "band_hash"])
        .map_groups(_candidate_pairs, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="n_bands"))
        .to_pandas()
    )
    empty = pa.table({"doc_id_a": pa.array([], pa.int64()),
                      "doc_id_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    if len(cand) == 0:
        return empty
    involved = pa.array(sorted(set(cand["a"]) | set(cand["b"])), type=pa.int64())

    def _only_candidates(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["doc_id"], value_set=involved))

    verified = _pair_jaccard_table(
        ds.map_batches(_only_candidates, batch_format="pyarrow"), cfg,
        cfg.jaccard_threshold)
    if verified.num_rows == 0:
        return empty
    # keep only LSH-candidate pairs (the co-shingle pairs among involved
    # docs are a superset); the candidate key set is driver-small
    cand_keys = set(zip(cand["a"].tolist(), cand["b"].tolist()))
    va = verified["doc_id_a"].to_numpy(zero_copy_only=False)
    vb = verified["doc_id_b"].to_numpy(zero_copy_only=False)
    keep = pa.array([(x, y) in cand_keys for x, y in zip(va, vb)])
    return verified.filter(keep).select(["doc_id_a", "doc_id_b", "jaccard"])


def dedup_survivors(ds: ray.data.Dataset, cfg: DedupConfig = DEFAULT_DEDUP) -> pa.Table:
    """Keep-one-per-near-dup-cluster: the standard training-data pruning.

    MinHash+LSH pairs → union-find connected components (driver-side:
    the pair set is tiny relative to the corpus — near-dup clusters at
    web scale are <<1% of docs; the doc UNIVERSE never leaves the
    cluster) → survivor = min doc_id per cluster. Returns
    ``(doc_id, cluster_root, is_survivor)`` for every doc involved in
    at least one near-dup pair; docs with no pair are implicitly
    survivors.
    """
    pairs = minhash_lsh_pairs(ds, cfg)
    a = pairs["doc_id_a"].to_numpy(zero_copy_only=False)
    b = pairs["doc_id_b"].to_numpy(zero_copy_only=False)
    ids = np.unique(np.concatenate([a, b]))
    parent = dict(zip(ids.tolist(), ids.tolist()))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = np.array([find(int(i)) for i in ids], dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "cluster_root": pa.array(roots),
        "is_survivor": pa.array(ids == roots),
    })


def _canon_edges(t: pa.Table) -> pa.Table:
    """Orient u > v, drop self-loops, dedupe — the star algorithm's
    canonical edge form."""
    u = t["u"].to_numpy(zero_copy_only=False)
    v = t["v"].to_numpy(zero_copy_only=False)
    hi, lo = np.maximum(u, v), np.minimum(u, v)
    keep = hi != lo
    key = np.stack([hi[keep], lo[keep]], axis=1)
    key = np.unique(key, axis=0)
    return pa.table({"u": pa.array(key[:, 0]), "v": pa.array(key[:, 1])})


def _large_star(g: pa.Table) -> pa.Table:
    """Γ(u) → edges (v, m) for v > u, m = min(Γ(u) ∪ {u})."""
    u = int(g["u"][0].as_py())
    nbr = np.unique(g["v"].to_numpy(zero_copy_only=False))
    m = min(u, int(nbr[0]))
    big = nbr[nbr > u]
    return pa.table({"u": pa.array(big, pa.int64()),
                     "v": pa.array(np.full(len(big), m, dtype=np.int64))})


def _small_star(g: pa.Table) -> pa.Table:
    """Edges oriented u > v, grouped by u: connect u and every smaller
    neighbor to m = min(Γ(u))."""
    u = int(g["u"][0].as_py())
    nbr = np.unique(g["v"].to_numpy(zero_copy_only=False))
    m = int(nbr[0])
    out_u = np.concatenate([nbr[nbr != m], [u]]).astype(np.int64)
    return pa.table({"u": pa.array(out_u),
                     "v": pa.array(np.full(len(out_u), m, dtype=np.int64))})


def _edge_fingerprint(ds: ray.data.Dataset) -> tuple[int, int]:
    """(count, order-free hash) of the canonical edge set — the star
    iteration's convergence scalar, computed distributed (one partial
    per block, summed; nothing but two ints reaches the driver)."""
    def part(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = b["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
        # exact mod-2^64 sum per block (uint64 wrap), shipped as two
        # 32-bit halves so the cross-block int64 Sum cannot overflow;
        # the reconstruction below re-mods 2^64, so the fingerprint is
        # independent of how rows split into blocks
        hsum = int(_mix(u * _P1 ^ _mix(v * _P2)).sum())
        return pa.table({"n": pa.array([len(u)], pa.int64()),
                         "hlo": pa.array([hsum & 0xFFFFFFFF], pa.int64()),
                         "hhi": pa.array([hsum >> 32], pa.int64())})

    agg = ds.map_batches(part, batch_format="pyarrow") \
            .sum(["n", "hlo", "hhi"], ignore_nulls=True)
    h = (int(agg["sum(hlo)"]) + (int(agg["sum(hhi)"]) << 32)) % 2**64
    return int(agg["sum(n)"]), h


def connected_components(pairs: pa.Table, max_iters: int = 32) -> pa.Table:
    """Distributed connected components over an undirected pair table →
    ``(doc_id, component)`` with component = min doc_id reachable.

    Alternating large-star / small-star (Kiveris et al., "Connected
    Components in MapReduce and Beyond"): every round is two
    ``groupby(u).map_groups`` shuffles over the EDGE set (never the doc
    universe), converging in O(log n) rounds on adversarial chains and
    1–2 rounds on the near-clique clusters near-dup graphs actually
    produce. This is the scale path for ``dedup_survivors``'s
    driver-side union-find: at 10^12 docs the pair set may itself
    exceed one machine, and here the ITERATION ships only a
    (count, hash) convergence scalar to the driver; the final
    (node, component) table is materialized to match the pa.Table
    API — keep it a Dataset when the node universe is huge.

    Partitioning assumption: edges hash-partition by ``u`` each round;
    a pathological star center (one doc near-duplicated 10^9 times)
    lands one group on one worker — salt such keys upstream by capping
    group size in the pair generator (the LSH banders already cap df).
    """
    a = pairs.column(0).to_numpy(zero_copy_only=False).astype(np.int64)
    b = pairs.column(1).to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    canon = _canon_edges(pa.table({"u": a, "v": b}))
    if not len(nodes) or canon.num_rows == 0:
        # no edges (or self-loops only): every node is its own component
        return pa.table({"doc_id": pa.array(nodes, pa.int64()),
                         "component": pa.array(nodes, pa.int64())})
    edges = ray.data.from_arrow(canon)
    prev = None
    for _ in range(max_iters):
        # large-star input: both orientations of every edge
        def both(t: pa.Table) -> pa.Table:
            u = t["u"].to_numpy(zero_copy_only=False)
            v = t["v"].to_numpy(zero_copy_only=False)
            return pa.table({"u": np.concatenate([u, v]),
                             "v": np.concatenate([v, u])})

        ls = edges.map_batches(both, batch_format="pyarrow") \
                  .groupby("u").map_groups(_large_star, batch_format="pyarrow")
        ss_in = edges.union(ls).map_batches(_canon_edges,
                                            batch_format="pyarrow")
        # the trailing 2-key groupby dedupes GLOBALLY (not just within
        # a block), so the convergence fingerprint sees the distinct
        # edge SET — independent of how rows land in blocks
        edges = ss_in.groupby("u").map_groups(_small_star,
                                              batch_format="pyarrow") \
                     .map_batches(_canon_edges, batch_format="pyarrow") \
                     .groupby(["u", "v"]).count() \
                     .select_columns(["u", "v"]) \
                     .materialize()
        fp = _edge_fingerprint(edges)
        if fp == prev:
            break
        prev = fp
    else:
        raise RuntimeError(f"connected_components: no convergence in "
                           f"{max_iters} rounds")
    # converged: every edge is (node, its component root); roots and
    # singletons label themselves
    star = edges.groupby("u").min("v").to_pandas()
    label = dict(zip(star["u"].astype(np.int64),
                     star["min(v)"].astype(np.int64)))
    comp = np.array([label.get(int(n), int(n)) for n in nodes],
                    dtype=np.int64)
    return pa.table({"doc_id": pa.array(nodes), "component": pa.array(comp)})


# --------------------------------------------------------------------------
# SimHash near-dup
# --------------------------------------------------------------------------

class SimHash:
    """docs → (doc_id, simhash: int64): tf-weighted 64-bit simhash."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, idx_arr = tokenize_to_terms(batch["text"])
        idx = idx_arr.to_numpy(zero_copy_only=False)
        n = batch.num_rows
        fp = np.zeros(n, dtype=np.uint64)
        if len(flat):
            h = _hash_tokens(flat)
            bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            contrib = bits.astype(np.int32) * 2 - 1          # ±1 per bit
            counts = np.bincount(idx, minlength=n)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            nz = counts > 0
            acc = np.add.reduceat(contrib, starts[nz], axis=0)
            sig_bits = (acc > 0).astype(np.uint8)
            packed = np.packbits(sig_bits, axis=1, bitorder="little").copy().view(np.uint64)
            fp[nz] = packed.reshape(-1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "simhash": pa.array(fp.view(np.int64)),
        })


class SimHashChunks:
    """(doc_id, simhash) → 4 exploded rows (chunk, chunk_key, doc_id, simhash).

    The pigeonhole keys: any pair within hamming 3 agrees on at least
    one of the 4 16-bit chunks, so chunk-equality groupby generates a
    complete candidate set — the SimHash analogue of MinHash banding.
    Each exploded row carries the full signature so hamming verifies
    inside the group (no second fetch, no driver state).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = SimHash()(batch)
        ids = sigs["doc_id"].to_numpy(zero_copy_only=False)
        sh = sigs["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        chunks = np.tile(np.arange(4, dtype=np.int32), len(ids))
        rep_sh = np.repeat(sh, 4)
        keys = (rep_sh >> (np.uint64(16) * chunks.astype(np.uint64))) & np.uint64(0xFFFF)
        return pa.table({
            "chunk": pa.array(chunks),
            "chunk_key": pa.array(keys.astype(np.int64)),
            "doc_id": pa.array(np.repeat(ids, 4), type=pa.int64()),
            "simhash": pa.array(rep_sh.view(np.int64)),
        })


def _make_simhash_group_pairs(max_hamming: int, max_group: int):
    def _group_pairs(g: pa.Table) -> pa.Table:
        """(a<b, hamming) for pairs in one chunk bucket with hamming <=
        max_hamming, vectorized XOR-popcount. Buckets larger than
        ``max_group`` (pathological boilerplate signatures) are dropped."""
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int32())})
        m = g.num_rows
        if m < 2 or m > max_group:
            return empty
        order = np.argsort(g["doc_id"].to_numpy(zero_copy_only=False))
        ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
        sh = g["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)[order]
        ai, bi = np.triu_indices(m, k=1)
        x = np.bitwise_xor(sh[ai], sh[bi])
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        keep = ham <= max_hamming
        return pa.table({
            "a": pa.array(ids[ai][keep]),
            "b": pa.array(ids[bi][keep]),
            "hamming": pa.array(ham[keep].astype(np.int32)),
        })

    return _group_pairs


def simhash_pairs(ds: ray.data.Dataset, cfg: DedupConfig = DEFAULT_DEDUP) -> pa.Table:
    """Pairs with hamming(simhash) <= max_hamming via pigeonhole bucketing.

    Fully distributed: signatures are vectorized ``map_batches`` (16
    B/doc), the 4 chunk keys explode in the same pass, candidates +
    hamming verification happen inside ``groupby(chunk, chunk_key)``
    groups (each row carries its signature), and the cross-chunk pair
    dedupe is a second small ``groupby(a, b)`` — the exact MinHash-band
    plan shape, no driver-side signature table or seen-set. Only the
    final (rare) pair table lands on the driver.
    """
    if cfg.simhash_max_hamming > 3:
        # 4 disjoint 16-bit chunks guarantee a shared chunk only up to
        # hamming 3 (pigeonhole); a larger radius needs more/overlapping
        # chunkings — fail loudly rather than silently missing pairs
        raise ValueError("simhash_max_hamming > 3 requires more than 4 "
                         "chunk bucketings; not supported")
    pairs = (
        ds.map_batches(SimHashChunks(), batch_format="pyarrow")
        .groupby(["chunk", "chunk_key"])
        .map_groups(_make_simhash_group_pairs(cfg.simhash_max_hamming,
                                              cfg.simhash_max_group),
                    batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Min("hamming", alias_name="hamming"))
        .to_pandas()
    )
    a = pairs["a"].to_numpy() if len(pairs) else np.empty(0, np.int64)
    b = pairs["b"].to_numpy() if len(pairs) else np.empty(0, np.int64)
    h = pairs["hamming"].to_numpy() if len(pairs) else np.empty(0, np.int32)
    order = np.lexsort((b, a))
    return pa.table({
        "doc_id_a": pa.array(a[order], type=pa.int64()),
        "doc_id_b": pa.array(b[order], type=pa.int64()),
        "hamming": pa.array(h[order].astype(np.int32)),
    })


# --------------------------------------------------------------------------
# exact substring-span dedup (Lee et al. 2021, "Deduplicating Training
# Data Makes Language Models Better" — the ExactSubstr operator)
# --------------------------------------------------------------------------

class WindowRows:
    """docs → one exploded row per w-token window POSITION:
    ``(win, doc_id, pos, n_tokens)``.

    Unlike ``ShingleRows`` the windows are NOT distinct-per-doc — span
    accounting needs every position — and each row carries its 0-based
    token offset so the duplicated-span union can be reconstructed
    after the shuffle. Fully vectorized: one tokenize + one rolling
    polynomial hash per batch; no per-doc Python loop. Shuffle rows
    are 32 bytes regardless of document size (text never leaves this
    stage), so at 100 TB the exchange carries ≈ token-count × 32 B —
    the same asymptotics as the suffix-array pass of Lee et al., with
    the fixed window length w standing in for "duplicate span ≥ w".
    """

    def __init__(self, w: int):
        if w < 2:
            raise ValueError("window size must be ≥ 2")
        self.w = w

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = self.w
        flat, idx_arr = tokenize_to_terms(batch["text"])
        idx = idx_arr.to_numpy(zero_copy_only=False)
        n = batch.num_rows
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        tok_counts = np.bincount(idx, minlength=n).astype(np.int64)
        empty = pa.table({
            "win": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
            "n_tokens": pa.array([], type=pa.int64()),
        })
        h = _hash_tokens(flat) if len(flat) else np.empty(0, dtype=np.uint64)
        if len(h) < w:
            return empty
        muls = _gram_muls(w)
        parts = [h[i: len(h) - (w - 1) + i] * muls[i] for i in range(w)]
        wh = _mix(np.bitwise_xor.reduce(parts))
        same_doc = idx[: len(h) - (w - 1)] == idx[w - 1:]
        wh = wh[same_doc]
        gpos = np.nonzero(same_doc)[0]          # global flat index of window start
        wdoc = idx[gpos]
        doc_start = np.concatenate(([0], np.cumsum(tok_counts)))[:-1]
        pos = gpos - doc_start[wdoc]            # 0-based offset within the doc
        return pa.table({
            "win": pa.array(wh.view(np.int64)),
            "doc_id": pa.array(doc_ids[wdoc], type=pa.int64()),
            "pos": pa.array(pos.astype(np.int64)),
            "n_tokens": pa.array(tok_counts[wdoc], type=pa.int64()),
        })


def _dup_window_members(g: pa.Table) -> pa.Table:
    """Keep a window-hash group only if it occurs more than once in the
    corpus (including repeats inside one document — Lee et al.'s
    'occurs more than once' rule)."""
    if g.num_rows > 1:
        return g.select(["doc_id", "pos", "n_tokens"])
    return pa.table({"doc_id": pa.array([], type=pa.int64()),
                     "pos": pa.array([], type=pa.int64()),
                     "n_tokens": pa.array([], type=pa.int64())})


def _make_span_union(w: int):
    def _span_union(g: pa.Table) -> pa.Table:
        """One doc's duplicated window positions → interval-union span
        stats (vectorized: sort + running max of interval ends)."""
        pos = np.sort(g["pos"].to_numpy(zero_copy_only=False))
        ends = pos + w
        prev_end = np.concatenate(([pos[0]], np.maximum.accumulate(ends)[:-1]))
        covered = np.maximum(0, ends - np.maximum(pos, prev_end)).sum()
        n_tokens = int(g["n_tokens"][0].as_py())
        return pa.table({
            "doc_id": pa.array([int(g["doc_id"][0].as_py())], type=pa.int64()),
            "n_tokens": pa.array([n_tokens], type=pa.int64()),
            "n_windows": pa.array([n_tokens - w + 1], type=pa.int64()),
            "dup_windows": pa.array([g.num_rows], type=pa.int64()),
            "dup_span_tokens": pa.array([int(covered)], type=pa.int64()),
            "retained_tokens": pa.array([n_tokens - int(covered)], type=pa.int64()),
        })

    return _span_union


def substring_dup_spans(ds: ray.data.Dataset, w: int = 8) -> pa.Table:
    """Exact substring-duplicate spans: for every document that shares a
    w-token window with ANY other occurrence in the corpus, the number
    of duplicated window positions and the token length of their
    interval union (= tokens ExactSubstr dedup would cut).

    Plan: windows explode in ``map_batches`` (32-byte rows), a
    ``groupby(win)`` keeps only multi-occurrence groups, and a second
    ``groupby(doc_id)`` unions each survivor doc's intervals — both
    exchanges carry window rows, never text. Lee et al. build a corpus
    suffix array; the fixed-w window-hash formulation finds exactly
    the duplicate spans of length ≥ w with one groupby, which is the
    Ray-Data-native decomposition (SURVEY.md training-data family).

    Returns one row per affected doc, sorted by doc_id.
    """
    per_doc = (
        ds.map_batches(WindowRows(w), batch_format="pyarrow")
        .groupby("win")
        .map_groups(_dup_window_members, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(_make_span_union(w), batch_format="pyarrow")
        .to_pandas()
    )
    per_doc = per_doc.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(per_doc, preserve_index=False)
