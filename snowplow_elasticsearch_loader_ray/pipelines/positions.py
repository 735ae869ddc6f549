"""Positional index: real phrase queries via position-list intersection.

The candidate-then-verify phrase plan (``driver_queries.phrase_match``)
re-reads candidate documents' text; at higher phrase selectivity the
classic fix is a POSITIONAL index — per (term, doc) token positions —
so phrases resolve inside the index with no text fetch. The reference
delegates this to Elasticsearch (index_options=positions is the ES
default for text fields; the IT harness's match_phrase surface rides on
it); this module is the from-scratch Ray Data equivalent.

Physical plan mirrors the main build (SURVEY.md §7.3, same
manifest/resume machinery):

- phase 1: ``map_batches(TokenizePositions)`` emits one row per
  (doc, term) carrying the term's in-doc positions as a ``list<int32>``
  column — fully vectorized (one lexsort + one ListArray construction
  per batch, no per-group Python loop) — written shard-sorted per
  partition;
- phase 2: one task per term shard reads its rows (row-group-statistics
  pruned), sorts by (term, doc_id) and writes
  ``positions/shard-NNNN.parquet`` — term-sorted row groups, so a
  query's per-term read prunes by the parquet term statistics;
- query: for each phrase term fetch (doc_id, positions) from its shard,
  intersect doc sets, then verify adjacency with ``np.intersect1d``
  over offset-shifted position arrays (repeated phrase terms reuse one
  fetch with different offsets).

Partitioning assumption (custom-op rule): same ``term_shard_one``
routing as the main index; a term's full position postings live in one
shard file.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig, DEFAULT_CONFIG
from ..state import manifest as mf
from ..tokenizer import term_shard_one, term_shards, tokenize_to_terms
from .build import _input_files
from .servecache import group_by_reader, reader_pool, stop_actors

POSITIONS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("ord", pa.int64()),
    ("positions", pa.list_(pa.int32())),
])


class TokenizePositions:
    """(ord, text) batches → (shard, term, ord, positions) rows.

    Keys on the dense doc ORDINAL (same docBase scheme as the main
    index, stages/postings.py): the per-term ord column is ascending
    small integers, which parquet delta/dict encodes far better than
    random 64-bit id hashes, and phrase results map back to external
    ids through the positional index's own docmap.

    Vectorized: token stream → in-doc positions by one bincount/cumsum,
    (doc, term) grouping by one integer lexsort, position lists as a
    single zero-copy ``ListArray`` over the sorted position buffer.
    """

    def __init__(self, cfg: IndexConfig = DEFAULT_CONFIG):
        self.num_shards = cfg.num_term_shards

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["ord"].to_numpy(zero_copy_only=False)
        flat, idx = tokenize_to_terms(batch["text"])
        idx_np = idx.to_numpy(zero_copy_only=False)
        n = len(idx_np)
        if n == 0:
            return pa.table({
                "shard": pa.array([], pa.int32()),
                "term": pa.array([], pa.string()),
                "ord": pa.array([], pa.int64()),
                "positions": pa.array([], pa.list_(pa.int32())),
            })
        counts = np.bincount(idx_np, minlength=batch.num_rows)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = (np.arange(n, dtype=np.int64) - starts[idx_np]).astype(np.int32)

        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        tid = d.indices.to_numpy(zero_copy_only=False)
        vocab = d.dictionary

        order = np.lexsort((pos, tid, idx_np))
        sidx, stid, spos = idx_np[order], tid[order], pos[order]
        change = (sidx[1:] != sidx[:-1]) | (stid[1:] != stid[:-1])
        gstarts = np.concatenate(([0], np.nonzero(change)[0] + 1))
        offsets = np.concatenate((gstarts, [n])).astype(np.int32)

        # shard per group: hash each unique term once (small vocab)
        lut = term_shards(vocab, self.num_shards)
        g_tid = stid[gstarts]
        g_shard = lut[g_tid]
        g_doc = doc_ids[sidx[gstarts]]
        positions_col = pa.ListArray.from_arrays(pa.array(offsets),
                                                 pa.array(spos))
        t = pa.table({
            "shard": pa.array(g_shard),
            "term": pa.DictionaryArray.from_arrays(
                pa.array(g_tid.astype(np.int32)), vocab),
            "ord": pa.array(g_doc, type=pa.int64()),
            "positions": positions_col,
        })
        # shard-sorted rows → shard-clustered row groups in the run file
        # (phase 2 prunes by row-group statistics, same as the main build)
        return t.take(pa.array(np.argsort(g_shard, kind="stable")))


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _encode_pos_shard(pos_dir: str, shard: int) -> dict:
    import pyarrow.dataset as pads

    runs_dir = os.path.join(pos_dir, "runs")
    seg_dir = os.path.join(pos_dir, "positions")
    os.makedirs(seg_dir, exist_ok=True)
    files = sorted(glob.glob(os.path.join(runs_dir, "part=*", "*.parquet")))
    if files:
        fmt = pads.ParquetFileFormat(read_options={"dictionary_columns": ["term"]})
        t = pads.dataset(files, format=fmt).to_table(
            columns=["term", "ord", "positions"],
            filter=pads.field("shard") == shard)
        t = pa.table({
            "term": pc.cast(t["term"], pa.string()),
            "ord": t["ord"],
            "positions": t["positions"],
        })
        t = t.take(pc.sort_indices(t, sort_keys=[("term", "ascending"),
                                                 ("ord", "ascending")]))
    else:
        t = POSITIONS_SCHEMA.empty_table()
    out = os.path.join(seg_dir, f"shard-{shard:04d}.parquet")
    tmp = out + ".tmp"
    # small row groups: a query's one-term read prunes to the groups
    # whose [min,max] term stats cover it
    pq.write_table(t, tmp, compression="zstd", row_group_size=4096)
    os.replace(tmp, out)
    return {
        "part": shard,
        "stage": "positions",
        "counters": {"rows": t.num_rows},
        "outputs": [os.path.relpath(out, pos_dir)],
    }


class _TokenizePositionsFiles:
    """(path, base) items → position run rows, one file per item,
    streamed in row-chunks with ordinal assignment (same docBase scheme
    and generator shape as ``stages.postings.TokenizeFilePostings``)."""

    def __init__(self, cfg: IndexConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.inner = TokenizePositions(cfg)

    def __call__(self, batch: pa.Table):
        for path, base in zip(batch["path"].to_pylist(),
                              batch["base"].to_pylist()):
            pf = pq.ParquetFile(path)
            off = 0
            for chunk in pf.iter_batches(batch_size=self.cfg.batch_size,
                                         columns=["doc_id", "text"]):
                t = pa.Table.from_batches([chunk])
                ords = base + off + np.arange(t.num_rows, dtype=np.int64)
                off += t.num_rows
                yield self.inner(pa.table({"ord": pa.array(ords),
                                           "text": t["text"]}))


def build_positions(docs: str | list[str], pos_dir: str,
                    cfg: IndexConfig = DEFAULT_CONFIG,
                    num_parts: int | None = None) -> None:
    """Build (or resume) the positional index over a document table.

    Same resume grain as the main build (SURVEY C1): input files group
    into contiguous parts, each committing its shard-sorted run dir and
    its ordinal-range docmap part before the part manifest — a killed
    build reruns only uncommitted parts.
    """
    from .build import _plan_parts

    os.makedirs(pos_dir, exist_ok=True)
    man_dir = os.path.join(pos_dir, "manifests")
    if mf.is_committed(man_dir, "positions"):
        return
    files = _input_files(docs)
    runs_dir = os.path.join(pos_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    dm_dir = os.path.join(pos_dir, "docmap")
    os.makedirs(dm_dir, exist_ok=True)
    bases: dict[str, int] = {}
    at = 0
    for f in files:
        bases[f] = at
        at += pq.ParquetFile(f).metadata.num_rows
    from .. import _raydata  # noqa: F401 (thread-safe path probe)

    for kpart, files_k in enumerate(_plan_parts(files, num_parts)):
        if mf.is_committed(man_dir, f"pos-runs-part-{kpart:04d}"):
            continue
        t0 = time.time()
        final = os.path.join(runs_dir, f"part={kpart:04d}")
        tmp = os.path.join(runs_dir, f"_tmp_part={kpart:04d}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        items = [{"path": p, "base": bases[p]} for p in files_k]
        ds = ray.data.from_items(items, override_num_blocks=len(items))
        ds = ds.map_batches(_TokenizePositionsFiles(cfg),
                            batch_format="pyarrow", batch_size=None)
        ds.write_parquet(tmp, row_group_size=cfg.run_row_group_size,
                         compression="zstd")
        mf.commit_dir_rename(tmp, final, durable=False)
        # this part's ordinal-range docmap slice (8 B/doc columnar read)
        ids = pq.read_table(files_k, columns=["doc_id"])["doc_id"]
        base0 = bases[files_k[0]]
        dm_out = os.path.join(dm_dir, f"part-{kpart:04d}.parquet")
        pq.write_table(pa.table({
            "ord": pa.array(base0 + np.arange(len(ids), dtype=np.int64)),
            "doc_id": ids,
        }), dm_out + ".tmp", compression="zstd")
        os.replace(dm_out + ".tmp", dm_out)
        mf.commit(man_dir, f"pos-runs-part-{kpart:04d}", {
            "stage": "pos-runs", "part": kpart, "durable": False,
            "input_files": [os.path.basename(f) for f in files_k],
            "outputs": [os.path.relpath(final, pos_dir),
                        os.path.relpath(dm_out, pos_dir)],
            "wall_s": round(time.time() - t0, 3),
        })
    missing = [s for s in range(cfg.num_term_shards)
               if not mf.is_committed(man_dir, f"pos-shard-{s:04d}")]
    refs = [_encode_pos_shard.remote(pos_dir, s) for s in missing]
    for s, payload in zip(missing, ray.get(refs)):
        mf.commit(man_dir, f"pos-shard-{s:04d}", payload)
    mf.commit(man_dir, "positions", {
        "stage": "positions", "complete": True,
        "num_term_shards": cfg.num_term_shards,
    })


# --------------------------------------------------------------------------
# query side
# --------------------------------------------------------------------------

def _read_term_rows(shard_path: str, term: str
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One term's rows from one shard file as compact flat arrays
    ``(docs, offsets, flat_positions)`` — the parquet read is row-group
    pruned by the file's term statistics (rows are term-sorted with
    small row groups). Shared verbatim by the single-process reader and
    the shard actors so both paths decode identically."""
    import pyarrow.dataset as pads

    t = pads.dataset(shard_path).to_table(columns=["ord", "positions"],
                                          filter=pads.field("term") == term)
    docs = t["ord"].to_numpy(zero_copy_only=False)
    plists = t["positions"]
    if isinstance(plists, pa.ChunkedArray):
        plists = plists.combine_chunks()
    flat = plists.values.to_numpy(zero_copy_only=False)
    offs = plists.offsets.to_numpy(zero_copy_only=False)
    return docs, offs, flat


def _split_lists(rows: tuple[np.ndarray, np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, list[np.ndarray]]:
    docs, offs, flat = rows
    return docs, [flat[offs[i]:offs[i + 1]] for i in range(len(docs))]


class PositionalReader:
    """Per-term (ord, positions) fetch from the positional shards.

    ``doc_ids[ord]`` maps ordinals back to external ids (the index's
    own docmap); ``term_positions`` returns ordinals so intersection
    stays on the compressed keys, and result surfaces map at the edge.
    """

    def __init__(self, pos_dir: str):
        man = mf.load(os.path.join(pos_dir, "manifests"), "positions")
        self.pos_dir = pos_dir
        self.num_shards = int(man["num_term_shards"])
        dm = pq.read_table(sorted(glob.glob(
            os.path.join(pos_dir, "docmap", "part-*.parquet"))),
            columns=["doc_id"])
        self.doc_ids = dm["doc_id"].to_numpy()
        self._cache: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}

    def term_positions(self, term: str) -> tuple[np.ndarray, list[np.ndarray]]:
        hit = self._cache.get(term)
        if hit is not None:
            return hit
        shard = term_shard_one(term, self.num_shards)
        f = os.path.join(self.pos_dir, "positions", f"shard-{shard:04d}.parquet")
        out = _split_lists(_read_term_rows(f, term))
        self._cache[term] = out
        return out

    def term_positions_many(self, terms: list[str]
                            ) -> dict[str, tuple[np.ndarray, list[np.ndarray]]]:
        return {t: self.term_positions(t) for t in terms}


# same restart story as the BM25 ShardReader (sharded_query.py): the
# actor is a stateless view over the committed positional shards, so a
# crash restarts it and the in-flight fetch re-executes.
@ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
class PosShardReader:
    """Some positional term shards (``shards`` of ``num_shards``);
    serves batched per-term position fetches as compact flat arrays
    (docs, offsets, flat_positions) — ~12 B/posting on the wire, no
    Python list-of-arrays pickling."""

    def __init__(self, pos_dir: str, shards: list[int], num_shards: int):
        self.num_shards = num_shards
        self.paths = {s: os.path.join(pos_dir, "positions",
                                      f"shard-{s:04d}.parquet")
                      for s in shards}

    def term_positions(self, terms: list[str]
                       ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return {t: _read_term_rows(
                    self.paths[term_shard_one(t, self.num_shards)], t)
                for t in terms}


class ShardedPositionalEngine:
    """Scatter-gather positional serving: the distributed peer of
    ``PositionalReader`` (same ``term_positions`` / ``doc_ids``
    surface, so ``phrase_search`` runs unchanged on either).

    A phrase query's distinct terms scatter in ONE round to the reader
    actors that own them (``term_shard_one`` routing, identical to the
    build, then shard ``s`` → actor ``s % n`` of the
    ``servecache.reader_pool``); each actor returns its terms' (docs,
    offsets, flat) arrays; intersection + adjacency run on the gathered
    arrays exactly as the single reader would — results are
    bit-identical because the decode helper (``_read_term_rows``) is
    the same code in both paths.

    Partitioning assumptions (custom-op rule): a term's full position
    postings live in one shard file; the driver holds the ordinal→id
    docmap (8 B/doc — at 10^12 docs this is doc-partitioned and only
    the ~result-sized survivor set maps through the owning partition).
    """

    def __init__(self, pos_dir: str, cpus_per_reader: float | None = None):
        man = mf.load(os.path.join(pos_dir, "manifests"), "positions")
        self.num_shards = int(man["num_term_shards"])
        dm = pq.read_table(sorted(glob.glob(
            os.path.join(pos_dir, "docmap", "part-*.parquet"))),
            columns=["doc_id"])
        self.doc_ids = dm["doc_id"].to_numpy()
        groups, share = reader_pool(
            self.num_shards, ray.cluster_resources().get("CPU", 1.0))
        if cpus_per_reader is None:
            cpus_per_reader = share
        self.readers = [
            PosShardReader.options(num_cpus=cpus_per_reader).remote(
                pos_dir, shards, self.num_shards)
            for shards in groups
        ]
        self._cache: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}

    def term_positions_many(self, terms: list[str]
                            ) -> dict[str, tuple[np.ndarray, list[np.ndarray]]]:
        unknown = [t for t in terms if t not in self._cache]
        if unknown:
            refs = [self.readers[a].term_positions.remote(ts)
                    for a, ts in group_by_reader(unknown, self.num_shards,
                                                 len(self.readers))]
            for part in ray.get(refs):
                for t, rows in part.items():
                    self._cache[t] = _split_lists(rows)
        return {t: self._cache[t] for t in terms}

    def term_positions(self, term: str) -> tuple[np.ndarray, list[np.ndarray]]:
        return self.term_positions_many([term])[term]

    def shutdown(self) -> None:
        stop_actors(self.readers)
        self.readers = []


def proximity_search(reader, term_a: str, term_b: str, slop: int,
                     ordered: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_near`` for a DISTINCT term pair: docs where some
    occurrence pair sits within ``slop`` intervening tokens — gap =
    pos_b − pos_a − 1 with a before b when ``ordered`` (``in_order:
    true``), min(|Δpos|) − 1 otherwise. Returns (external doc_ids
    ascending, min_gap per doc).

    Per candidate doc the min gap is one merge scan: each b-position
    searchsorted against a's sorted positions and compared to its two
    neighbors — O((n_a+n_b) log n_a), no quadratic pair enumeration
    (the SQL oracle does the quadratic cross join; the engine must not).
    ``reader`` is a ``PositionalReader`` or ``ShardedPositionalEngine``.
    """
    if term_a == term_b:
        raise ValueError("span_near pair must be two distinct terms")
    fetched = reader.term_positions_many(sorted({term_a, term_b}))
    docs_a, pos_a = fetched[term_a]
    docs_b, pos_b = fetched[term_b]
    cand, ia, ib = np.intersect1d(docs_a, docs_b, assume_unique=True,
                                  return_indices=True)
    big = np.iinfo(np.int64).max
    out_docs: list[int] = []
    out_gaps: list[int] = []
    for j in range(len(cand)):
        a = pos_a[ia[j]].astype(np.int64)
        b = pos_b[ib[j]].astype(np.int64)
        k = np.searchsorted(a, b)
        if ordered:
            m = k > 0                       # an a strictly before this b
            if not m.any():
                continue
            gap = int((b[m] - a[k[m] - 1] - 1).min())
        else:
            left = np.where(k > 0, b - a[np.maximum(k - 1, 0)], big)
            right = np.where(k < len(a), a[np.minimum(k, len(a) - 1)] - b,
                             big)
            gap = int(np.minimum(left, right).min()) - 1
        if gap <= slop:
            out_docs.append(int(cand[j]))
            out_gaps.append(gap)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    gaps = np.array(out_gaps, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], gaps[order]


def span_not_search(reader, include: str, exclude: str, slop: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_not`` (pre = post = ``slop``, single-token spans):
    occurrences of ``include`` with NO ``exclude`` occurrence within
    ``slop`` tokens (|Δpos| ≤ slop rejects). Returns (external doc_ids
    ascending, count of CLEAR include positions per doc) for docs
    keeping at least one — a doc without the exclude term keeps all
    its include positions.

    Per shared doc the rejection test is one batched searchsorted of
    the include positions against the exclude positions (nearest
    neighbor on both sides) — O((n_i+n_e) log n_e), no pair
    enumeration; the oracle runs the quadratic NOT EXISTS cross join.
    ``reader`` is a ``PositionalReader`` or ``ShardedPositionalEngine``."""
    if include == exclude:
        raise ValueError("span_not include/exclude must differ")
    fetched = reader.term_positions_many(sorted({include, exclude}))
    docs_i, pos_i = fetched[include]
    docs_e, pos_e = fetched[exclude]
    big = np.iinfo(np.int64).max
    e_at = {int(d): j for j, d in enumerate(docs_e)}
    out_docs: list[int] = []
    out_counts: list[int] = []
    for j in range(len(docs_i)):
        a = pos_i[j].astype(np.int64)
        je = e_at.get(int(docs_i[j]))
        if je is None:
            n_clear = len(a)
        else:
            b = pos_e[je].astype(np.int64)
            k = np.searchsorted(b, a)
            left = np.where(k > 0, a - b[np.maximum(k - 1, 0)], big)
            right = np.where(k < len(b), b[np.minimum(k, len(b) - 1)] - a,
                             big)
            n_clear = int((np.minimum(left, right) > slop).sum())
        if n_clear:
            out_docs.append(int(docs_i[j]))
            out_counts.append(n_clear)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    counts = np.array(out_counts, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], counts[order]


def span_near_chain(reader, terms: list[str], slop: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_near`` with ``in_order: true`` for an N-clause chain
    of span_terms: docs containing occurrences p1 < p2 < … < pn of the
    clause terms in order, with total intervening gap pn − p1 − (n−1)
    ≤ slop; returns (external doc_ids ascending, min total gap per
    doc). Degenerates to ``proximity_search(..., ordered=True)`` at
    n = 2 and to ``phrase_search`` membership at slop = 0 for distinct
    terms.

    Per candidate doc the minimal chain is the greedy one: for every
    start p1, chain each next term to its SMALLEST position after the
    current end (one batched searchsorted per clause — minimizing the
    running end can never hurt later clauses), then min over starts.
    O(Σ n_i log n_i) per doc vs the oracle's quadratic cross join.
    ``reader`` is a ``PositionalReader`` or ``ShardedPositionalEngine``.
    Repeated terms are honored (strictly increasing positions over the
    SAME fetched list)."""
    if len(terms) < 2:
        raise ValueError("span_near needs at least two clauses")
    fetched = reader.term_positions_many(sorted(set(terms)))
    # conjunctive candidate docs across all clause terms
    cand = None
    for t in set(terms):
        docs_t = fetched[t][0]
        cand = docs_t if cand is None else np.intersect1d(
            cand, docs_t, assume_unique=True)
        if not len(cand):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lookups = {t: dict(zip(docs.tolist(), range(len(docs))))
               for t, (docs, _p) in fetched.items()}
    n = len(terms)
    out_docs: list[int] = []
    out_gaps: list[int] = []
    for doc in cand.tolist():
        starts = fetched[terms[0]][1][lookups[terms[0]][doc]] \
            .astype(np.int64)
        cur = starts
        for t in terms[1:]:
            pos_t = fetched[t][1][lookups[t][doc]].astype(np.int64)
            idx = np.searchsorted(pos_t, cur, side="right")
            ok = idx < len(pos_t)
            if not ok.any():
                cur = None
                break
            starts, cur = starts[ok], pos_t[idx[ok]]
        if cur is None:
            continue
        gap = int((cur - starts).min()) - (n - 1)
        if gap <= slop:
            out_docs.append(int(doc))
            out_gaps.append(gap)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    gaps = np.array(out_gaps, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], gaps[order]


def span_first_search(reader, term: str, end: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_first`` for a single-token span: occurrences of
    ``term`` whose 0-based token position is < ``end`` (the span must
    END within the first ``end`` positions; for a one-token span the
    end offset is pos + 1 ≤ end ⇔ pos < end). Returns (external
    doc_ids ascending, count of early occurrences per doc) for docs
    keeping at least one.

    Position lists are stored ascending, so the per-doc count is one
    ``searchsorted(positions, end)`` — O(log n_positions) per
    candidate doc, no position scan. ``reader`` is a
    ``PositionalReader`` or ``ShardedPositionalEngine``."""
    if end <= 0:
        raise ValueError("span_first end must be positive")
    docs, pos = reader.term_positions_many([term])[term]
    counts = np.array([int(np.searchsorted(p, end)) for p in pos],
                      dtype=np.int64)
    keep = counts > 0
    if not keep.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[docs[keep].astype(np.int64)]
    counts = counts[keep]
    order = np.argsort(ext)
    return ext[order], counts[order]


def span_containing_search(reader, big_a: str, big_b: str, little: str,
                           slop: int) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_containing``: matches of the big span that CONTAIN a
    match of the little span. Big spans here are unordered
    (``big_a``, ``big_b``) position pairs with |Δpos| ≤ ``slop``
    (the span_near shape); the little span is the single token
    ``little``; containment means some little position lies inside
    the big span's [min, max] position window (inclusive).

    Returns (external doc_ids ascending, number of DISTINCT containing
    big spans per doc) for docs with at least one. Per candidate doc
    the pair windows come from one broadcasted (n_a × n_b) min/max,
    and containment is two searchsorted probes of the little position
    list against the window bounds — no triple enumeration; the
    oracle runs the quadratic EXISTS cross join."""
    if len({big_a, big_b, little}) != 3:
        raise ValueError("span_containing terms must be distinct")
    fetched = reader.term_positions_many(sorted({big_a, big_b, little}))
    docs_a, pos_a = fetched[big_a]
    docs_b, pos_b = fetched[big_b]
    docs_c, pos_c = fetched[little]
    b_at = {int(d): j for j, d in enumerate(docs_b)}
    c_at = {int(d): j for j, d in enumerate(docs_c)}
    out_docs: list[int] = []
    out_counts: list[int] = []
    for j in range(len(docs_a)):
        doc = int(docs_a[j])
        jb, jc = b_at.get(doc), c_at.get(doc)
        if jb is None or jc is None:
            continue
        a = pos_a[j].astype(np.int64)
        b = pos_b[jb].astype(np.int64)
        c = pos_c[jc].astype(np.int64)
        lo = np.minimum(a[:, None], b[None, :]).ravel()
        hi = np.maximum(a[:, None], b[None, :]).ravel()
        near = hi - lo <= slop
        has_little = (np.searchsorted(c, hi, side="right")
                      - np.searchsorted(c, lo, side="left")) > 0
        n = int((near & has_little).sum())
        if n:
            out_docs.append(doc)
            out_counts.append(n)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    counts = np.array(out_counts, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], counts[order]


def span_within_search(reader, little: str, big_a: str, big_b: str,
                       slop: int) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_within`` — the mirror of ``span_containing``: matches
    of the LITTLE span (the single token ``little``) that lie inside
    some match of the big unordered (``big_a``, ``big_b``) span with
    |Δpos| ≤ ``slop``. Where span_containing counts qualifying BIG
    spans per doc, this counts the ENCLOSED little occurrences.

    Returns (external doc_ids ascending, number of distinct little
    positions contained in ≥ 1 qualifying big span). Per candidate doc
    the big windows come from one broadcast (n_a × n_b) min/max; each
    little position probes the near windows with one (W × m) containment
    mask — the oracle runs the quadratic EXISTS the other way around."""
    if len({big_a, big_b, little}) != 3:
        raise ValueError("span_within terms must be distinct")
    fetched = reader.term_positions_many(sorted({big_a, big_b, little}))
    docs_a, pos_a = fetched[big_a]
    docs_b, pos_b = fetched[big_b]
    docs_c, pos_c = fetched[little]
    b_at = {int(d): j for j, d in enumerate(docs_b)}
    c_at = {int(d): j for j, d in enumerate(docs_c)}
    out_docs: list[int] = []
    out_counts: list[int] = []
    for j in range(len(docs_a)):
        doc = int(docs_a[j])
        jb, jc = b_at.get(doc), c_at.get(doc)
        if jb is None or jc is None:
            continue
        a = pos_a[j].astype(np.int64)
        b = pos_b[jb].astype(np.int64)
        c = pos_c[jc].astype(np.int64)
        lo = np.minimum(a[:, None], b[None, :]).ravel()
        hi = np.maximum(a[:, None], b[None, :]).ravel()
        near = hi - lo <= slop
        if not near.any():
            continue
        lo, hi = lo[near], hi[near]
        contained = ((lo[:, None] <= c[None, :])
                     & (hi[:, None] >= c[None, :])).any(axis=0)
        n = int(contained.sum())
        if n:
            out_docs.append(doc)
            out_counts.append(n)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    counts = np.array(out_counts, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], counts[order]


def span_multi_near_search(reader, expansions: list[str], other: str,
                           slop: int) -> tuple[np.ndarray, np.ndarray]:
    """ES ``span_near(span_multi(prefix), span_term(other))``: the
    multi-term query (already expanded against the index vocabulary —
    the caller's ``expand_prefix``) used as a span clause. Counts
    (expansion occurrence, ``other`` occurrence) position pairs with
    |Δpos| ≤ ``slop`` per doc (unordered, single-token spans).

    ``other`` may not be one of the expansions: a token occurrence
    pairing with itself at Δ=0 has no pinned ES semantics — refused.
    Per doc the expansion positions concatenate into one sorted array
    (positions are unique within a doc, so multiplicity is exact) and
    each ``other`` position counts its window with two searchsorted
    probes; the oracle runs the LIKE-join cross product."""
    if other in set(expansions):
        raise ValueError(
            "span_multi expansion contains the other span term — "
            "self-pairing is not pinned")
    if not expansions:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    fetched = reader.term_positions_many(sorted(set(expansions) | {other}))
    docs_o, pos_o = fetched[other]
    if not len(docs_o):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    o_at = {int(d): j for j, d in enumerate(docs_o)}
    exp_pos: dict[int, list[np.ndarray]] = {}
    for t in expansions:
        docs_t, pos_t = fetched[t]
        for j, d in enumerate(docs_t):
            if int(d) in o_at:          # only docs that can pair
                exp_pos.setdefault(int(d), []).append(
                    pos_t[j].astype(np.int64))
    out_docs: list[int] = []
    out_counts: list[int] = []
    for doc, plists in exp_pos.items():
        e = np.sort(np.concatenate(plists))
        o = pos_o[o_at[doc]].astype(np.int64)
        n = int((np.searchsorted(e, o + slop, side="right")
                 - np.searchsorted(e, o - slop, side="left")).sum())
        if n:
            out_docs.append(doc)
            out_counts.append(n)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ext = reader.doc_ids[np.array(out_docs, dtype=np.int64)]
    counts = np.array(out_counts, dtype=np.int64)
    order = np.argsort(ext)
    return ext[order], counts[order]


def phrase_search(reader, phrase: str) -> np.ndarray:
    """External doc_ids (ascending) containing the exact token sequence.

    ``reader`` is a ``PositionalReader`` or ``ShardedPositionalEngine``
    (duck-typed on ``term_positions_many`` + ``doc_ids``).
    Tokenization matches the engine rule; phrase order and duplicate
    terms are honored (each occurrence adds an offset constraint over
    the SAME fetched position list).
    """
    import re as _re

    terms = _re.findall(r"[a-z0-9]+", phrase.lower())
    if not terms:
        return np.empty(0, dtype=np.int64)
    fetched = reader.term_positions_many(sorted(set(terms)))
    # conjunctive doc intersection, smallest first
    doc_sets = [fetched[t][0] for t in set(terms)]
    cand = sorted(doc_sets, key=len)[0]
    for d in doc_sets:
        cand = np.intersect1d(cand, d, assume_unique=True)
        if not len(cand):
            return np.empty(0, dtype=np.int64)
    out = []
    # per-candidate adjacency check: positions of term i shifted by -i
    # must share at least one start position
    lookups = {t: dict(zip(docs.tolist(), range(len(docs))))
               for t, (docs, _p) in fetched.items()}
    for doc in cand.tolist():
        starts: np.ndarray | None = None
        for i, t in enumerate(terms):
            docs_t, pos_t = fetched[t]
            p = pos_t[lookups[t][doc]].astype(np.int64) - i
            starts = p if starts is None else np.intersect1d(starts, p,
                                                             assume_unique=True)
            if not len(starts):
                break
        if starts is not None and len(starts):
            out.append(doc)
    return np.sort(reader.doc_ids[np.array(out, dtype=np.int64)]) \
        if out else np.empty(0, dtype=np.int64)
