"""Similarity search over embedding columns (``list<float>``).

- ``ann_topk``: exact brute-force cosine top-k — the baseline. The
  query matrix is broadcast once (``ray.put``) and every batch does one
  numpy matmul against it; per-batch local top-k candidates are reduced
  on the driver (n_batches × k rows per query — small).
- ``lsh_ann_topk``: the scale path — random-hyperplane LSH buckets
  restrict the matmul to colliding vectors (approximate; recall
  depends on planes/tables, measured in tests against brute force).
- ``embedding_dup_pairs``: exact near-duplicate pairs with cosine >=
  threshold — distributed block-nested-loop over object-store block
  refs (one task per block pair; the driver holds refs, never vectors).
- ``embedding_dup_pairs_lsh``: the 10^12-row near-dup path — multi-table
  hyperplane-LSH candidate buckets, exact in-bucket cosine.

Determinism: cosine is computed in float64 after exact float32→float64
casts; ordering uses (round(cos, 9) desc, vec_id asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .. import _raydata  # noqa: F401 (thread-safe path probe)

SIM_ROUND = 9


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    lists = batch[col]
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.values.to_numpy(zero_copy_only=False).astype(np.float64)
    offs = lists.offsets.to_numpy(zero_copy_only=False)
    dim = int(offs[1] - offs[0]) if len(offs) > 1 else 0
    # the engine assumes fixed-dim embeddings (validated here)
    if dim == 0 or (np.diff(offs) != dim).any():
        raise ValueError("ragged or empty embedding column")
    return flat[offs[0] : offs[-1]].reshape(-1, dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class _TopKPerBatch:
    """Emit each batch's local top-k per query (candidate generation)."""

    def __init__(self, queries_ref, k: int):
        self.q = _normalize(ray.get(queries_ref))        # broadcast, once per actor/task
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        sims = m @ self.q.T                               # [batch, n_queries]
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        k = min(self.k, len(ids))
        out_q, out_id, out_s = [], [], []
        # per-query local top-k: argpartition then exact ordering
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            part = np.argpartition(-s, k - 1)[:k] if len(s) > k else np.arange(len(s))
            out_q.append(np.full(len(part), qi, dtype=np.int64))
            out_id.append(ids[part])
            out_s.append(s[part])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_id), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def _final_topk(cand: pa.Table, k: int) -> pa.Table:
    q = cand["query_id"].to_numpy(zero_copy_only=False)
    v = cand["vec_id"].to_numpy(zero_copy_only=False)
    s = np.round(cand["sim"].to_numpy(zero_copy_only=False), SIM_ROUND)
    out_q, out_r, out_v, out_s = [], [], [], []
    for qi in np.unique(q):
        m = q == qi
        order = np.lexsort((v[m], -s[m]))[:k]
        out_q.extend([int(qi)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_v.extend(v[m][order].tolist())
        out_s.extend(s[m][order].tolist())
    return pa.table({
        "query_id": pa.array(out_q, type=pa.int64()),
        "rank": pa.array(out_r, type=pa.int32()),
        "vec_id": pa.array(out_v, type=pa.int64()),
        "sim": pa.array(out_s, type=pa.float64()),
    })


def ann_topk(ds: ray.data.Dataset, queries: np.ndarray, k: int = 10) -> pa.Table:
    """Exact cosine top-k of ``queries`` (rows = query vectors) over ds."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    cand = ds.map_batches(
        _TopKPerBatch(qref, k), batch_format="pyarrow", batch_size=4096
    )
    return _final_topk(pa.concat_tables(
        list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    ), k)


def ann_topk_filtered(ds: ray.data.Dataset, queries: np.ndarray,
                      filter_col: str, filter_value, k: int = 10) -> pa.Table:
    """ES ``knn`` with ``filter``: exact cosine top-k restricted to the
    vectors whose ``filter_col`` equals ``filter_value`` — PRE-filter
    semantics (candidates that fail the predicate are never scored),
    matching ES's filtered-kNN contract. The predicate applies inside
    each batch before the matmul, so non-matching vectors don't even
    normalize; everything else is the broadcast-query top-k plan."""
    import pyarrow.compute as pc

    def pre(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b[filter_col], filter_value)) \
                .select(["vec_id", "embedding"])

    return ann_topk(ds.map_batches(pre, batch_format="pyarrow"), queries, k)


class _RadiusPerBatch:
    """Emit every (query, vector) pair whose cosine clears the radius
    threshold — no per-query heap, no candidate cap, so the stage is
    embarrassingly parallel and a hot query never concentrates work."""

    def __init__(self, queries_ref, threshold: float):
        self.q = _normalize(ray.get(queries_ref))
        self.threshold = float(threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        sims = np.round(m @ self.q.T, SIM_ROUND)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        rows, cols = np.nonzero(sims >= self.threshold)
        return pa.table({
            "query_id": pa.array(cols.astype(np.int64)),
            "vec_id": pa.array(ids[rows], type=pa.int64()),
            "sim": pa.array(sims[rows, cols], type=pa.float64()),
        })


def ann_radius(ds: ray.data.Dataset, queries: np.ndarray,
               threshold: float) -> pa.Table:
    """ES 8 ``knn`` with a ``similarity`` cutoff (radius search): ALL
    vectors with cosine >= threshold per query, not a fixed k. The
    result size is data-dependent, so unlike top-k there is no local
    reduction — each batch emits its qualifying pairs and the output
    streams; the driver only concatenates the (small) match set."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    cand = ds.map_batches(
        _RadiusPerBatch(qref, threshold), batch_format="pyarrow",
        batch_size=4096,
    )
    t = pa.concat_tables(
        list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    q = t["query_id"].to_numpy(zero_copy_only=False)
    v = t["vec_id"].to_numpy(zero_copy_only=False)
    return t.take(pa.array(np.lexsort((v, q))))


class _HardNegPerBatch:
    """Local top-k per anchor among vectors with a DIFFERENT label (and
    never the anchor row itself): contrastive hard-negative mining.
    The anchor matrix, ids and labels broadcast once per actor; the
    positive mask is one vectorized comparison per batch."""

    def __init__(self, anchors_ref, k: int):
        q, qids, qlabels = ray.get(anchors_ref)
        self.q = _normalize(q)
        self.qids = np.asarray(qids, dtype=np.int64)
        self.qlabels = np.asarray(qlabels)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        sims = m @ self.q.T                               # [batch, n_anchors]
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        labels = batch["label"].to_numpy(zero_copy_only=False)
        # positives (same label) and the anchor itself are not negatives
        mask = (labels[:, None] == self.qlabels[None, :]) \
            | (ids[:, None] == self.qids[None, :])
        sims = np.where(mask, -2.0, sims)
        k = min(self.k, len(ids))
        out_q, out_id, out_s = [], [], []
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            part = np.argpartition(-s, k - 1)[:k] if len(s) > k else np.arange(len(s))
            keep = s[part] > -1.5                         # drop masked rows
            part = part[keep]
            out_q.append(np.full(len(part), qi, dtype=np.int64))
            out_id.append(ids[part])
            out_s.append(s[part])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_id), type=pa.int64()),
            "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def hard_negatives_topk(ds: ray.data.Dataset, queries: np.ndarray,
                        query_ids: np.ndarray, query_labels: np.ndarray,
                        k: int = 10) -> pa.Table:
    """Hard-negative mining for contrastive training: for each anchor,
    the top-k most-similar vectors whose label DIFFERS from the
    anchor's (excluding the anchor row). Same broadcast-matmul +
    local-top-k + driver-reduce plan as ``ann_topk``; the per-anchor
    positive mask rides the broadcast."""
    aref = ray.put((np.asarray(queries, dtype=np.float64),
                    np.asarray(query_ids, dtype=np.int64),
                    np.asarray(query_labels)))
    cand = ds.map_batches(
        _HardNegPerBatch(aref, k), batch_format="pyarrow", batch_size=4096
    )
    return _final_topk(pa.concat_tables(
        list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    ), k)


# --------------------------------------------------------------------------
# LSH-bucketed variant (scale path)
# --------------------------------------------------------------------------

class _HyperplaneBucket:
    def __init__(self, planes_ref):
        self.planes = ray.get(planes_ref)                 # [n_planes, dim]

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        bits = (m @ self.planes.T) > 0
        bucket = np.zeros(len(m), dtype=np.int64)
        for i in range(bits.shape[1]):
            bucket |= bits[:, i].astype(np.int64) << i
        return batch.append_column("bucket", pa.array(bucket))


def lsh_ann_topk(ds: ray.data.Dataset, queries: np.ndarray, k: int = 10,
                 n_planes: int = 6, seed: int = 42,
                 multiprobe: int = 1) -> pa.Table:
    """Approximate cosine top-k: search only LSH-colliding buckets.

    Random-hyperplane signatures; queries and vectors share the plane
    matrix (broadcast). ``multiprobe`` is the standard recall lever: a
    query also probes buckets within that signature hamming radius
    (radius 1 = flip each plane once — the planes most likely to have
    mis-split a true neighbor). Recall < 1 by construction — measured
    against ``ann_topk`` in tests and the ann_recall driver entry.
    """
    queries = np.asarray(queries, dtype=np.float64)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, queries.shape[1]))
    pref = ray.put(planes)
    qb = (_normalize(queries) @ planes.T) > 0
    qbucket = np.zeros(len(queries), dtype=np.int64)
    for i in range(n_planes):
        qbucket |= qb[:, i].astype(np.int64) << i
    probe_sets = []
    for b in qbucket:
        s = {int(b)}
        if multiprobe >= 1:
            s |= {int(b) ^ (1 << i) for i in range(n_planes)}
        probe_sets.append(s)
    wanted = pa.array(np.unique(np.array(sorted(set().union(*probe_sets)),
                                         dtype=np.int64)))

    import pyarrow.compute as pc

    bucketed = ds.map_batches(_HyperplaneBucket(pref), batch_format="pyarrow")
    pruned = bucketed.map_batches(
        lambda b: b.filter(pc.is_in(b["bucket"], value_set=wanted)),
        batch_format="pyarrow",
    )
    # per-bucket exact search over the pruned (much smaller) candidate set
    qref = ray.put(queries)

    # a probe set is exactly "signature hamming distance ≤ radius", so
    # the pair filter is a vectorized XOR-popcount, not set membership
    max_ham = 1 if multiprobe >= 1 else 0
    popcnt = np.array([bin(i).count("1") for i in range(1 << n_planes)],
                      dtype=np.int8)

    class _BucketTopK(_TopKPerBatch):
        def __init__(self):
            super().__init__(qref, k)
            self.qbucket = qbucket

        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            # keep only (query, vec) pairs within the query's probe
            # radius — gather each pair's vec bucket via searchsorted,
            # then one XOR + table-popcount over the whole batch
            vid = batch["vec_id"].to_numpy(zero_copy_only=False)
            vbk = batch["bucket"].to_numpy(zero_copy_only=False)
            order = np.argsort(vid, kind="stable")
            o_vid = out["vec_id"].to_numpy(zero_copy_only=False)
            o_qid = out["query_id"].to_numpy(zero_copy_only=False)
            b = vbk[order[np.searchsorted(vid[order], o_vid)]]
            ham = popcnt[np.bitwise_xor(b, self.qbucket[o_qid])]
            return out.filter(pa.array(ham <= max_ham))

    cand = pruned.map_batches(_BucketTopK(), batch_format="pyarrow", batch_size=4096)
    tables = list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tables:
        return _final_topk(pa.table({"query_id": pa.array([], pa.int64()),
                                     "vec_id": pa.array([], pa.int64()),
                                     "sim": pa.array([], pa.float64())}), k)
    return _final_topk(pa.concat_tables(tables), k)


# --------------------------------------------------------------------------
# IVF (inverted-file) variant: coarse k-means cells, probe nearest lists
# --------------------------------------------------------------------------

def _kmeans_centroids(ds: ray.data.Dataset, k: int, iters: int = 5,
                      seed: int = 42) -> np.ndarray:
    """Deterministic distributed k-means on normalized vectors.

    Init: first k distinct vec_ids (sorted — stable across runs and
    parallelism). Each iteration is one map_batches pass emitting
    per-batch partial sums per cell (the combiner) + a tiny driver
    reduce — no shuffle of the vectors themselves.
    """
    first = pa.concat_tables(list(
        ds.sort("vec_id").limit(k).iter_batches(batch_format="pyarrow",
                                                batch_size=None)))
    cents = _normalize(_batch_matrix(first))

    for _ in range(iters):
        cref = ray.put(cents)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _normalize(_batch_matrix(batch))
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pa.table({
                "cell": pa.array(np.arange(len(c), dtype=np.int64)),
                "vsum": pa.array(list(sums.astype(np.float64))),
                "n": pa.array(counts),
            })

        acc_sum = np.zeros_like(cents)
        acc_n = np.zeros(len(cents), dtype=np.int64)
        for b in ds.map_batches(partials, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
            cell = b["cell"].to_numpy(zero_copy_only=False)
            np.add.at(acc_sum, cell, np.array(b["vsum"].to_pylist()))
            np.add.at(acc_n, cell, b["n"].to_numpy(zero_copy_only=False))
        nz = acc_n > 0
        cents[nz] = _normalize(acc_sum[nz] / acc_n[nz, None])
    return cents


def ivf_ann_topk(ds: ray.data.Dataset, queries: np.ndarray, k: int = 10,
                 n_cells: int = 16, nprobe: int = 4,
                 centroids: np.ndarray | None = None) -> pa.Table:
    """Approximate cosine top-k via IVF: vectors partition into coarse
    k-means cells; each query scans only its ``nprobe`` nearest cells.

    Partitioning assumption (SURVEY custom-op rule): recall depends on
    queries' neighbors living in probed cells — tune n_cells ~ sqrt(N)
    and nprobe for the recall target (measured vs ``ann_topk`` in
    tests). The centroid matrix is tiny and broadcast; the scan is the
    same batched matmul as brute force, restricted to probed cells.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if centroids is None:
        centroids = _kmeans_centroids(ds, n_cells)
    cref = ray.put(centroids)
    qn = _normalize(queries)
    probe = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]  # [nq, nprobe]
    probe_sets = [set(row.tolist()) for row in probe]
    qref = ray.put(queries)

    class _IVFTopK(_TopKPerBatch):
        def __init__(self):
            super().__init__(qref, k)
            self.cents = ray.get(cref)
            self.probe_sets = probe_sets

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _normalize(_batch_matrix(batch))
            cells = np.argmax(m @ self.cents.T, axis=1)
            ids = batch["vec_id"].to_numpy(zero_copy_only=False)
            sims = m @ self.q.T
            out_q, out_id, out_s = [], [], []
            for qi, cells_qi in enumerate(self.probe_sets):
                mask = np.isin(cells, list(cells_qi))
                if not mask.any():
                    continue
                s = sims[mask, qi]
                kk = min(self.k, len(s))
                part = np.argpartition(-s, kk - 1)[:kk] if len(s) > kk else np.arange(len(s))
                out_q.append(np.full(len(part), qi, dtype=np.int64))
                out_id.append(ids[mask][part])
                out_s.append(s[part])
            if not out_q:
                return pa.table({"query_id": pa.array([], pa.int64()),
                                 "vec_id": pa.array([], pa.int64()),
                                 "sim": pa.array([], pa.float64())})
            return pa.table({
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_id), type=pa.int64()),
                "sim": pa.array(np.concatenate(out_s), type=pa.float64()),
            })

    cand = ds.map_batches(_IVFTopK, batch_format="pyarrow", batch_size=4096,
                          concurrency=2)
    tables = list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "sim": pa.array([], pa.float64())})
    return _final_topk(pa.concat_tables(tables) if tables else empty, k)


# --------------------------------------------------------------------------
# exact cosine near-duplicate pairs
# --------------------------------------------------------------------------

@ray.remote(num_cpus=1)
def _block_pair_sweep(ta: pa.Table, tb: pa.Table, threshold: float,
                      same: bool) -> pa.Table:
    """Exact cosine hits between two normalized blocks (one matmul).

    Runs as a Ray task pulling both blocks zero-copy from the object
    store; the driver only ever holds block REFS and the (rare) hit
    pairs. ``same=True`` restricts to the upper triangle.
    """
    ma, ids_a = _batch_matrix(ta), ta["vec_id"].to_numpy(zero_copy_only=False)
    mb, ids_b = _batch_matrix(tb), tb["vec_id"].to_numpy(zero_copy_only=False)
    sims = ma @ mb.T
    ia, ib = np.nonzero(np.triu(sims >= threshold, k=1) if same
                        else sims >= threshold)
    a, b = ids_a[ia], ids_b[ib]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return pa.table({
        "vec_id_a": pa.array(lo, type=pa.int64()),
        "vec_id_b": pa.array(hi, type=pa.int64()),
        "cosine": pa.array(np.round(sims[ia, ib], SIM_ROUND), type=pa.float64()),
    })


def _list_column(m: np.ndarray) -> pa.ListArray:
    """2-D float64 matrix → list<double> column, zero-copy flat values."""
    rows, dim = m.shape
    offsets = pa.array(np.arange(0, (rows + 1) * dim, dim, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(m.reshape(-1)))


class _NormalizeBlock:
    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        return pa.table({
            "vec_id": batch["vec_id"],
            "embedding": _list_column(m),
        })


def embedding_dup_pairs(ds: ray.data.Dataset, threshold: float = 0.95,
                        block_rows: int = 4096) -> pa.Table:
    """Exact pairs with cosine >= threshold (vec_id_a < vec_id_b).

    Distributed block-nested-loop: vectors normalize per batch, the
    normalized dataset materializes into the OBJECT STORE (never the
    driver), and one Ray task per block pair (i <= j) pulls its two
    blocks and does a single matmul. Each unordered pair is examined by
    exactly one task, so the result is exact with no dedupe shuffle.
    Work is inherently O(N^2 / block_rows) — that is what "exact
    all-pairs" costs; at 10^12 rows use ``embedding_dup_pairs_lsh``
    (candidates from hyperplane buckets, same in-bucket kernel), which
    is the standard near-dup trade at the thresholds (~0.95) where
    near-dup mining operates.
    """
    norm = (ds.select_columns(["vec_id", "embedding"])
            .map_batches(_NormalizeBlock(), batch_format="pyarrow",
                         batch_size=block_rows)
            .materialize())
    n = norm.count()
    nblocks = max(1, -(-n // block_rows))
    refs = norm.repartition(nblocks).materialize().to_arrow_refs()
    tasks = [_block_pair_sweep.remote(refs[i], refs[j], threshold, i == j)
             for i in range(len(refs)) for j in range(i, len(refs))]
    empty = pa.table({"vec_id_a": pa.array([], pa.int64()),
                      "vec_id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
    tables = [t for t in ray.get(tasks) if t.num_rows] or [empty]
    out = pa.concat_tables(tables)
    idx = np.lexsort((out["vec_id_b"].to_numpy(zero_copy_only=False),
                      out["vec_id_a"].to_numpy(zero_copy_only=False)))
    return out.take(pa.array(idx))


def semdedup_survivors(ds: ray.data.Dataset, threshold: float = 0.5,
                       exact: bool = True) -> pa.Table:
    """SemDeDup (Abbas et al. 2023): semantic dedup in embedding space.

    Greedy-by-id rule (deterministic + SQL-expressible): a vector
    survives iff NO smaller-id vector lies within cosine ``threshold``
    of it. The eliminated set is therefore exactly the distinct b-side
    of the (a < b) dup-pair relation — no union-find closure needed —
    so survivors fall out of the pair sweep with one np.isin.

    ``exact=True`` uses the block-pair sweep (every pair examined once);
    ``exact=False`` is the SemDeDup-at-scale protocol — LSH-bucketed
    candidates (recall measured in tests), same elimination rule. The
    eliminated-id set is near-dup-sized (small by construction in a
    deduplicated corpus) and is the only thing the driver holds.
    """
    pairs = (embedding_dup_pairs(ds, threshold=threshold) if exact
             else embedding_dup_pairs_lsh(ds, threshold=threshold))
    eliminated = np.unique(pairs["vec_id_b"].to_numpy(zero_copy_only=False))

    def keep(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(~np.isin(ids, eliminated)))

    out = (ds.select_columns(["vec_id"])
           .map_batches(keep, batch_format="pyarrow").to_pandas())
    return pa.table({"vec_id": pa.array(
        np.sort(out["vec_id"].to_numpy(np.int64)))})


def embedding_dup_pairs_lsh(ds: ray.data.Dataset, threshold: float = 0.95,
                            n_planes: int = 8, n_tables: int = 4,
                            seed: int = 42) -> pa.Table:
    """Approximate near-dup pairs: hyperplane-LSH candidates, exact
    in-bucket cosine — the 10^12-row scale path.

    ``n_tables`` independent plane sets each bucket every vector
    (map_batches, 8 B/vector/table output + the vector itself);
    ``groupby(table, bucket)`` co-locates colliding vectors and the
    in-group sweep is the same exact-cosine kernel. A pair colliding in
    several tables dedupes through the final groupby(a, b). Recall < 1
    by construction (measured in tests against the exact operator);
    at cos >= 0.95 two vectors disagree on a random hyperplane with
    p = acos(0.95)/pi ≈ 0.10, so one 8-plane table catches ~43% and 4
    tables ~90%+ of true pairs.
    """
    rng = np.random.default_rng(seed)
    dim = len(ds.take(1)[0]["embedding"])
    planes = [rng.standard_normal((n_planes, dim)) for _ in range(n_tables)]
    pref = ray.put(planes)

    class _MultiBucket:
        def __init__(self):
            self.planes = ray.get(pref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _normalize(_batch_matrix(batch))
            ids = batch["vec_id"].to_numpy(zero_copy_only=False)
            tabs, bucks = [], []
            for ti, pl in enumerate(self.planes):
                bits = (m @ pl.T) > 0
                bucket = np.zeros(len(m), dtype=np.int64)
                for i in range(bits.shape[1]):
                    bucket |= bits[:, i].astype(np.int64) << i
                tabs.append(np.full(len(m), ti, dtype=np.int32))
                bucks.append(bucket)
            reps = len(self.planes)
            return pa.table({
                "table": pa.array(np.concatenate(tabs)),
                "bucket": pa.array(np.concatenate(bucks)),
                "vec_id": pa.array(np.tile(ids, reps), type=pa.int64()),
                "embedding": _list_column(np.tile(m, (reps, 1))),
            })

    def _bucket_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        m = _batch_matrix(g)
        ids = g["vec_id"].to_numpy(zero_copy_only=False)
        sims = m @ m.T
        ia, ib = np.nonzero(np.triu(sims >= threshold, k=1))
        a, b = ids[ia], ids[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": pa.array(lo, type=pa.int64()),
                         "b": pa.array(hi, type=pa.int64()),
                         "cosine": pa.array(np.round(sims[ia, ib], SIM_ROUND),
                                            type=pa.float64())})

    from ray.data.aggregate import Max

    pairs = (ds.select_columns(["vec_id", "embedding"])
             .map_batches(_MultiBucket, batch_format="pyarrow", concurrency=2)
             .groupby(["table", "bucket"])
             .map_groups(_bucket_pairs, batch_format="pyarrow")
             .groupby(["a", "b"])
             .aggregate(Max("cosine", alias_name="cosine"))
             .to_pandas())
    a = pairs["a"].to_numpy() if len(pairs) else np.empty(0, np.int64)
    b = pairs["b"].to_numpy() if len(pairs) else np.empty(0, np.int64)
    c = pairs["cosine"].to_numpy() if len(pairs) else np.empty(0, np.float64)
    order = np.lexsort((b, a))
    return pa.table({
        "vec_id_a": pa.array(a[order], type=pa.int64()),
        "vec_id_b": pa.array(b[order], type=pa.int64()),
        "cosine": pa.array(c[order], type=pa.float64()),
    })


# --------------------------------------------------------------------------
# hybrid linear score fusion (ES knn + query script_score combination)
# --------------------------------------------------------------------------

class _HybridTopKPerBatch:
    """Local top-k of combined = bm25(doc) + alpha·round(cos, 9).

    The lexical score table broadcasts once per actor/task as
    per-query (sorted doc_ids, raw scores) arrays — the BM25 match
    set, index-derived, never a corpus scan — and each batch resolves
    its docs' lexical scores with one ``searchsorted`` per query.
    """

    def __init__(self, queries_ref, lex_ref, alpha: float, k: int):
        self.q = _normalize(ray.get(queries_ref))
        self.lex = ray.get(lex_ref)          # [(ids_sorted, scores), ...]
        self.alpha = alpha
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        sims = np.round(m @ self.q.T, SIM_ROUND)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        k = min(self.k, len(ids))
        out_q, out_id, out_s = [], [], []
        for qi in range(self.q.shape[0]):
            li, ls = self.lex[qi]
            pos = np.searchsorted(li, ids)
            pos_c = np.minimum(pos, max(len(li) - 1, 0))
            hit = (len(li) > 0) & (li[pos_c] == ids)
            b = np.where(hit, ls[pos_c] if len(li) else 0.0, 0.0)
            # fixed operand order (lex + alpha*sim): the oracle's
            # coalesce(score,0) + alpha*sim evaluates the same double
            c = b + self.alpha * sims[:, qi]
            part = np.argpartition(-c, k - 1)[:k] if len(c) > k else np.arange(len(c))
            out_q.append(np.full(len(part), qi, dtype=np.int64))
            out_id.append(ids[part])
            out_s.append(c[part])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_id), type=pa.int64()),
            "comb": pa.array(np.concatenate(out_s), type=pa.float64()),
        })


def hybrid_linear_topk(ds: ray.data.Dataset, queries: np.ndarray,
                       lex: list[tuple[np.ndarray, np.ndarray]],
                       alpha: float, k: int = 10) -> pa.Table:
    """Exact linear hybrid retrieval over the vector corpus: rank by
    round(bm25 + alpha·round(cos, 9), 7) with doc-id tie-break —
    ES's `knn` + lexical `query` additive combination (score fusion;
    `hybrid_rrf_topk` is the rank-fusion sibling). Same broadcast +
    per-block top-k + driver reduce plan as ``ann_topk``."""
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    lex_ref = ray.put([(np.asarray(i, dtype=np.int64),
                        np.asarray(s, dtype=np.float64)) for i, s in lex])
    cand = ds.map_batches(
        _HybridTopKPerBatch(qref, lex_ref, alpha, k),
        batch_format="pyarrow", batch_size=4096,
    )
    t = pa.concat_tables(
        list(cand.iter_batches(batch_format="pyarrow", batch_size=None)))
    q = t["query_id"].to_numpy(zero_copy_only=False)
    v = t["vec_id"].to_numpy(zero_copy_only=False)
    s = np.round(t["comb"].to_numpy(zero_copy_only=False), 7)
    out_q, out_r, out_v = [], [], []
    for qi in np.unique(q):
        m = q == qi
        order = np.lexsort((v[m], -s[m]))[:k]
        out_q.extend([int(qi)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_v.extend(v[m][order].tolist())
    return pa.table({
        "query_id": pa.array(out_q, type=pa.int64()),
        "rank": pa.array(out_r, type=pa.int64()),
        "vec_id": pa.array(out_v, type=pa.int64()),
    })
