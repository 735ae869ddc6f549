"""Near-real-time indexing: stream micro-batches → searchable index.

The reference's whole job is this loop: an unbounded enriched stream
is transformed and continuously loaded into Elasticsearch
(``Processing.scala:42-49`` → ``ElasticsearchSink.scala:81-198``),
where new documents become searchable at the next index refresh,
re-sent documents replace their previous version (upsert by ``_id``),
and superseded versions are physically reclaimed later by segment
merges. ``LiveIndex`` is the engine-native equivalent of that
ES-side lifecycle:

- ``refresh()`` turns committed-but-unconsumed stream micro-batches
  (``sources/stream.py`` output) into a small DELTA index generation —
  the ES refresh: new docs searchable without touching the base index;
- ``searcher()`` serves BM25 over the whole generation chain with
  Lucene NRT semantics: a superseded doc version is SUPPRESSED from
  results at rank time but still counts in df / n_docs until a merge
  reclaims it — exactly Lucene's deleted-docs-in-stats behavior.
  Corollary (tested): in the append-only case the stats are exact and
  top-k is SCORE-IDENTICAL to one index built over the union;
- ``compact()`` merges the chain through ``merge_indexes`` (newest
  generation wins per doc_id, stale terms dropped) — the ES/Lucene
  segment merge. The policy is Lucene-tiered in spirit: compaction
  triggers when the chain exceeds ``merge_factor`` generations, so
  write amplification stays O(log N) refreshes per doc at a steady
  ingest rate;
- ``delete_by_query()`` / ``delete()`` are the ES ``_delete_by_query``
  analogue: a manifest-committed tombstone event (ids in a parquet
  sidecar). Deleted docs vanish from results immediately but stay in
  df / n_docs until compaction physically reclaims them — and a doc
  re-indexed AFTER the delete is live again (tombstones only reach
  backward in event time).

Scale notes (custom-op rule): a delta generation is sized by the
refresh interval, not the corpus. Refresh and the stored-source half of
compaction are one exchange on plain Ray tasks: one task per stream part
or stored-source file parses its rows and splits them by
``doc_shard(doc_id)``, and one task per doc-id partition keeps each id's
winner (``last_wins``) and writes ``_delta_docs/part-<s>.parquet`` — the
driver sees counters, never rows. A delta's build is the same
shard-parallel plan as the main build, and merge is one task per term
shard with no shuffle (``merge.py``). The searcher holds per-generation
readers; at 10^12 docs the base generation is served by the sharded
readers and deltas stay small, so the chain costs one extra scatter
round, not a second corpus.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .. import bm25
from ..config import IndexConfig, DEFAULT_CONFIG
from ..state import manifest as mf
from ..tokenizer import doc_shard
from .build import _footer_counts, _input_files, build_index, index_stats
from .merge import merge_indexes
from .query import (
    IndexReader, isin_sorted, score_generation, tokenize_query)
from .servecache import reader_cpus, stop_actors
from .sharded_query import ShardReader


#: stored-source exchange size, in rows: refresh and compaction split
#: their rows into ceil(rows / LIVE_PART_ROWS) doc-id partitions (parquet
#: footer counts, an upper bound on docs), one reduce task and one
#: ``_delta_docs`` file each. A partition of about 2^15 rows holds ~64 MiB
#: of text at ~2 KB per doc, so a refresh-interval delta is one sorted
#: file and only a long chain's compaction fans out. Like phase 2's
#: ``PHASE2_GROUP_POSTINGS``, the layout depends only on the data, never
#: on the cluster size.
LIVE_PART_ROWS = 1 << 15

_DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                          ("lang", pa.string())])


def last_wins(doc_ids: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """Row index of each doc_id's winner, in doc_id order: the row with
    the largest ``prec`` (int64), and of rows with equal ``prec`` the
    later one. The live chain's one upsert rule — each caller encodes
    its order in ``prec``: a refresh ``(stream part << 32) | row``, a
    compaction the generation's position in the chain, a fetch minus
    the row's position in newest-first source order."""
    order = np.lexsort((prec, doc_ids))         # stable: ties keep row order
    ids = doc_ids[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    return order[last]


def _partition(doc_ids: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Row indices of each ``doc_shard`` partition, in row order."""
    part = doc_shard(doc_ids, n_parts)
    order = np.argsort(part, kind="stable")
    return np.split(order, np.searchsorted(part[order],
                                           np.arange(1, n_parts)))


def _to_ipc(t: pa.Table) -> bytes:
    """Arrow table → IPC bytes. Tasks exchange tables as bytes: an Arrow
    object passed through Ray makes its serializer import ``ray.data``
    in the receiving process."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _from_ipc(b: bytes) -> pa.Table:
    return pa.ipc.open_stream(b).read_all()


def _parse_stream_part(pk: int, path: str) -> tuple[pa.Table, int]:
    """One stream part → (its good docs with their ``prec``, bad count).
    Contract (the enriched-event analogue): a good record is a JSON
    object with ``doc_id`` (int) and ``text`` (str), optionally
    ``lang``; violations count as bad (the dead-letter split already
    happened at ingest — this is the indexing-side schema check).
    ``prec`` = (part index << 32) | row index: stream order."""
    ids: list[int] = []
    texts: list[str] = []
    langs: list[str] = []
    keys: list[int] = []
    n_bad = 0
    t = pq.read_table(path, columns=["status", "record"])
    for ri, (st, rec) in enumerate(zip(t["status"].to_pylist(),
                                       t["record"].to_pylist())):
        if st != "good":
            continue
        try:
            obj = json.loads(rec)
            doc_id, text = int(obj["doc_id"]), obj["text"]
            if not isinstance(text, str):
                raise TypeError
        except (KeyError, TypeError, ValueError, json.JSONDecodeError):
            n_bad += 1
            continue
        ids.append(doc_id)
        texts.append(text)
        langs.append(str(obj.get("lang", "und")))
        keys.append((pk << 32) | ri)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "prec": pa.array(keys, pa.int64()),
    }), n_bad


def _read_docs(path: str) -> pa.Table:
    """One stored-source file as (doc_id, text, lang), filling ``lang``
    when the source corpus lacks it (bootstrap accepts plain
    (doc_id, text) parquet)."""
    f = pq.ParquetFile(path)
    b = f.read(columns=[c for c in _DOCS_SCHEMA.names
                        if c in f.schema_arrow.names])
    lang = (b["lang"] if "lang" in b.column_names
            else pa.array(["und"] * b.num_rows, pa.string()))
    return pa.table({"doc_id": b["doc_id"], "text": b["text"],
                     "lang": lang}).cast(_DOCS_SCHEMA)


def _read_stored(path: str, dead: np.ndarray, prec: int
                 ) -> tuple[pa.Table, int]:
    """One stored-source file of a retiring generation, minus the ids
    its later tombstones delete, every row at the generation's ``prec``."""
    t = _read_docs(path)
    if len(dead):
        t = t.filter(~np.isin(t["doc_id"].to_numpy(), dead))
    return t.append_column("prec", pa.array(
        np.full(t.num_rows, prec, dtype=np.int64))), 0


@ray.remote(num_cpus=1)
def _split_task(read, args: tuple, n_parts: int) -> list:
    """Map side of the exchange: ``read(*args)`` → its rows cut into
    ``n_parts`` doc-id partitions (IPC bytes each), then its bad count."""
    t, n_bad = read(*args)
    ids = t["doc_id"].to_numpy()
    return [_to_ipc(t.take(ix)) for ix in _partition(ids, n_parts)] + [n_bad]


@ray.remote(num_cpus=1, max_retries=3, retry_exceptions=[OSError])
def _write_part_task(path: str, *pieces: bytes) -> int:
    """Reduce side: one partition's rows from every map task → its
    last-wins winners, sorted by doc_id, written to ``path`` (tmp file,
    then rename; nothing for an empty partition) → the row count."""
    t = pa.concat_tables([_from_ipc(p) for p in pieces])
    win = last_wins(t["doc_id"].to_numpy(), t["prec"].to_numpy())
    docs = t.take(win).select(_DOCS_SCHEMA.names)
    if docs.num_rows:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(docs, path + ".tmp")
        os.replace(path + ".tmp", path)
    return docs.num_rows


def _upsert_docs(read, items: list[tuple], n_rows: int, docs_dir: str
                 ) -> tuple[int, int]:
    """The write path of refresh and compaction: one ``_split_task`` per
    item (a stream part or a stored-source file), one ``_write_part_task``
    per doc-id partition writing ``docs_dir/part-<s>.parquet``, sized by
    ``n_rows`` (footer counts) over ``LIVE_PART_ROWS``. The driver sees
    only the counters → (docs written, bad records)."""
    n_parts = max(1, -(-n_rows // LIVE_PART_ROWS))
    maps = [_split_task.options(num_returns=n_parts + 1).remote(
                read, args, n_parts) for args in items]
    writes = [_write_part_task.remote(
                  os.path.join(docs_dir, f"part-{s:05d}.parquet"),
                  *[m[s] for m in maps])
              for s in range(n_parts)]
    return sum(ray.get(writes)), sum(ray.get([m[-1] for m in maps]))


@ray.remote(num_cpus=1)
def _pick_task(path: str, want: np.ndarray) -> bytes:
    """One stored-source file's rows whose doc_id is in ``want``."""
    t = _read_docs(path)
    return _to_ipc(t.filter(np.isin(t["doc_id"].to_numpy(), want)))


class LiveIndex:
    """Generation-chain index root: ``<root>/gen-K/`` committed indexes
    plus ``<root>/manifests/`` tracking refreshes, consumed stream
    batches, and compactions."""

    def __init__(self, root: str, cfg: IndexConfig = DEFAULT_CONFIG):
        self.root = root
        self.cfg = cfg
        self.man_dir = os.path.join(root, "manifests")
        os.makedirs(self.man_dir, exist_ok=True)

    # -- state ------------------------------------------------------------
    def _events(self) -> list[dict]:
        evs = list(mf.load_all(self.man_dir, prefix="refresh-").values()) \
            + list(mf.load_all(self.man_dir, prefix="compact-").values()) \
            + list(mf.load_all(self.man_dir, prefix="delete-").values())
        return sorted(evs, key=lambda m: int(m["event"]))

    def _next_event(self) -> int:
        evs = self._events()
        return (int(evs[-1]["event"]) + 1) if evs else 0

    def generations(self) -> list[str]:
        """Live generation dirs, oldest → newest (the search chain)."""
        live: list[str] = []
        for m in self._events():
            for g in m.get("retired", []):
                if g in live:
                    live.remove(g)
            if m.get("gen") is not None:
                live.append(m["gen"])
        return [os.path.join(self.root, g) for g in live]

    def consumed_batches(self) -> set[str]:
        out: set[str] = set()
        for m in self._events():
            out.update(m.get("batches", []))
        return out

    # -- bootstrap --------------------------------------------------------
    def bootstrap(self, docs_dir: str, num_parts: int | None = None) -> dict:
        """Build the BASE generation from a bulk docs corpus through the
        full distributed build pipeline (the reference's initial bulk
        load into ES before the stream attaches). Unlike ``refresh()``
        — which discards an uncommitted delta and re-derives it from
        the stream — bootstrap must survive a crash mid-build at
        10^12-doc scale, so it leans on ``build_index``'s own per-part
        resume: a re-run continues from the last committed partition
        manifest, and a run that died between the index commit and the
        live event commit just re-commits the event. Only valid on an
        empty chain (it IS generation zero)."""
        if self._events():
            raise ValueError(
                "bootstrap requires an empty live index — it creates the "
                "base generation; use refresh()/compact() on a live chain")
        t0 = time.time()
        gen_dir = os.path.join(self.root, "gen-00000")
        stats = build_index(docs_dir, gen_dir, self.cfg,
                            num_parts=num_parts)
        mf.commit(self.man_dir, "refresh-00000", {
            "event": 0, "stage": "bootstrap", "gen": "gen-00000",
            "batches": [], "n_docs": int(stats["n_docs"]), "n_bad": 0,
            # stored-source pointer (ES keeps _source IN the segment;
            # for the bulk base we record the immutable corpus path
            # instead of copying ~everything into the generation)
            "doc_ptrs": [os.path.abspath(docs_dir)],
            "wall_s": round(time.time() - t0, 3),
        })
        return {"refreshed": True, "gen": "gen-00000",
                "n_docs": int(stats["n_docs"]), "n_bad": 0, "batches": []}

    # -- refresh ----------------------------------------------------------
    def refresh(self, stream_dir: str) -> dict:
        """Index the stream's committed-but-unconsumed micro-batches as
        a new delta generation. Returns {refreshed, gen, n_docs,
        n_bad, batches}. Only CHECKPOINTED batches are consumed (the
        uncommitted tail replays from the source cursor on crash — the
        same at-least-once grain as the stream writer)."""
        t0 = time.time()
        stream_man = os.path.join(stream_dir, "manifests")
        done = self.consumed_batches()
        # batches are tracked as "<stream id>/<batch name>" so several
        # stream shards (the reference runs one KCL consumer per shard
        # into one ES index) can feed one live index without collision;
        # the id comes from the stream's own manifests (abspath-hashed
        # at creation), so two dirs sharing a BASENAME under different
        # parents cannot collide and silently drop batches
        from ..sources.stream import stream_identity

        sid = stream_identity(stream_dir)
        todo = sorted(f"{sid}/{n}"
                      for n in mf.load_all(stream_man, prefix="batch-")
                      if f"{sid}/{n}" not in done)
        if not todo:
            return {"refreshed": False, "batches": []}
        parts = [os.path.join(stream_dir, "records",
                              f"{n.split('/', 1)[1]}.parquet")
                 for n in todo]
        ev = self._next_event()
        gen_name = f"gen-{ev:05d}"
        gen_dir = os.path.join(self.root, gen_name)
        shutil.rmtree(gen_dir, ignore_errors=True)   # uncommitted leftover
        docs_dir = os.path.join(gen_dir, "_delta_docs")
        n_docs, n_bad = _upsert_docs(
            _parse_stream_part, list(enumerate(parts)),
            sum(_footer_counts(parts)), docs_dir)
        if n_docs == 0:
            # consume the batches but create no generation
            shutil.rmtree(gen_dir, ignore_errors=True)
            mf.commit(self.man_dir, f"refresh-{ev:05d}", {
                "event": ev, "stage": "refresh", "gen": None,
                "batches": todo, "n_docs": 0, "n_bad": n_bad,
            })
            return {"refreshed": True, "gen": None, "n_docs": 0,
                    "n_bad": n_bad, "batches": todo}
        stats = build_index(docs_dir, gen_dir, self.cfg)
        mf.commit(self.man_dir, f"refresh-{ev:05d}", {
            "event": ev, "stage": "refresh", "gen": gen_name,
            "batches": todo, "n_docs": int(stats["n_docs"]),
            "n_bad": n_bad, "wall_s": round(time.time() - t0, 3),
        })
        return {"refreshed": True, "gen": gen_name,
                "n_docs": int(stats["n_docs"]), "n_bad": n_bad,
                "batches": todo}

    # -- deletes ----------------------------------------------------------
    def _delete_events(self) -> list[tuple[int, np.ndarray]]:
        """(event, sorted external doc_ids) per committed delete."""
        out = []
        for m in mf.load_all(self.man_dir, prefix="delete-").values():
            t = pq.read_table(os.path.join(self.root, m["ids_file"]),
                              columns=["doc_id"])
            out.append((int(m["event"]),
                        t["doc_id"].to_numpy(zero_copy_only=False)))
        return out

    def _deleted_after(self, gen_events: list[int]) -> list[np.ndarray]:
        """Per generation: union of delete-event ids POSTDATING it (a
        doc re-indexed after a delete lives in a later generation and
        is untouched — tombstones only reach backward in time)."""
        dels = self._delete_events()
        out = []
        for g in gen_events:
            arrs = [ids for dev, ids in dels if dev > g]
            out.append(np.unique(np.concatenate(arrs)) if arrs
                       else np.empty(0, np.int64))
        return out

    # -- stored source (the ES _source role) -------------------------------
    def _gen_doc_sources(self, gen_basename: str,
                         events: list[dict] | None = None) -> list[str]:
        """Ordered (newest precedence first) document sources for one
        generation: its materialized ``_delta_docs`` (refresh/update/
        compact-merged deltas) followed by any recorded external
        pointers (the immutable bulk corpus of ``bootstrap``).

        ``events``: pass the result of one ``self._events()`` when
        calling per-generation in a loop — each ``_events()`` is a
        manifest-directory scan + JSON parse per event file, O(G·E)
        when re-done per generation on a long-lived chain."""
        out: list[str] = []
        dd = os.path.join(self.root, gen_basename, "_delta_docs")
        if os.path.isdir(dd):
            out.append(dd)
        for m in (self._events() if events is None else events):
            if m.get("gen") == gen_basename:
                out.extend(m.get("doc_ptrs", []))
        return out

    def _fetch_docs(self, doc_ids: np.ndarray) -> pa.Table:
        """(doc_id, text, lang) for the given LIVE external ids, read
        from the chain's stored sources newest generation first (the
        first source that holds an id owns its current text): one
        ``_pick_task`` per source file with the broadcast id set, so the
        immutable base corpus is scanned once, column-pruned, never
        shuffled. A source may itself hold several versions (a
        user-supplied bulk corpus is not guaranteed deduped): the first
        row per id wins, so the chain's one-live-version invariant
        holds. Rows come back in source order."""
        want = np.unique(np.asarray(doc_ids, dtype=np.int64))
        hits: list[pa.Table] = []
        events = self._events()                # one scan for the loop
        for gen in reversed(self.generations()):          # newest first
            for src in self._gen_doc_sources(os.path.basename(gen),
                                             events=events):
                if not len(want):
                    break
                ref = ray.put(want)
                got = [_from_ipc(b) for b in ray.get(
                    [_pick_task.remote(f, ref) for f in _input_files(src)])]
                hits += got
                for t in got:
                    want = want[~np.isin(want, t["doc_id"].to_numpy())]
        if not hits:
            return _DOCS_SCHEMA.empty_table()
        t = pa.concat_tables(hits)
        return t.take(np.sort(last_wins(t["doc_id"].to_numpy(),
                                        -np.arange(t.num_rows))))

    def update_by_query(self, query: str, transform) -> dict:
        """ES ``_update_by_query``: resolve the conjunctive match set
        against the current live view, fetch those docs' stored source,
        apply ``transform(text) -> text``, and index the rewritten docs
        as a new generation — the chain's newest-wins upsert rule makes
        them supersede, exactly like ES's reindex-in-place. Returns
        {event, gen, n_docs}.

        Scale note: the match set is materialized on the driver and the
        transform runs row-at-a-time, sized for query-selective updates
        (ES's own _update_by_query is a scrolled batch loop). A
        corpus-scale rewrite should go through the bulk path instead:
        transform the source with ``map_batches`` and rebuild
        (``reindex_transformed_terms`` is that pipeline)."""
        ids = self.searcher().match_ids(query)
        if not len(ids):
            return {"event": None, "gen": None, "n_docs": 0}
        docs = self._fetch_docs(ids)
        if docs.num_rows != len(np.unique(ids)):
            # a stored-source gap (moved bootstrap corpus, restore
            # missing _delta_docs) must fail loudly — a partial rewrite
            # committed as done would silently leave stale text behind
            raise RuntimeError(
                f"update_by_query: stored source holds {docs.num_rows} of "
                f"{len(np.unique(ids))} matched docs — a generation's "
                "_delta_docs or a bootstrap corpus pointer is missing")
        new_text = pa.array([transform(t) for t in docs["text"].to_pylist()],
                            pa.string())
        docs = docs.set_column(docs.schema.get_field_index("text"),
                               "text", new_text)
        ev = self._next_event()
        gen_name = f"gen-{ev:05d}"
        gen_dir = os.path.join(self.root, gen_name)
        shutil.rmtree(gen_dir, ignore_errors=True)
        docs_dir = os.path.join(gen_dir, "_delta_docs")
        os.makedirs(docs_dir)
        tmp = os.path.join(docs_dir, "delta-00000.parquet.tmp")
        pq.write_table(docs, tmp)
        os.replace(tmp, os.path.join(docs_dir, "delta-00000.parquet"))
        stats = build_index(docs_dir, gen_dir, self.cfg)
        mf.commit(self.man_dir, f"refresh-{ev:05d}", {
            "event": ev, "stage": "update", "gen": gen_name,
            "batches": [], "query": query,
            "n_docs": int(stats["n_docs"]), "n_bad": 0,
        })
        return {"event": ev, "gen": gen_name, "n_docs": int(stats["n_docs"])}

    def delete(self, doc_ids: np.ndarray) -> dict:
        """ES ``_delete_by_query``'s commit half: tombstone the given
        EXTERNAL doc_ids as a manifest event. Like Lucene deletes, the
        docs vanish from results immediately (rank-time suppression)
        but stay in df / n_docs until ``compact()`` reclaims them.
        Ids land in a parquet sidecar (scale: the manifest stays a few
        hundred bytes however large the delete set)."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        ev = self._next_event()
        del_dir = os.path.join(self.root, "deletes")
        os.makedirs(del_dir, exist_ok=True)
        rel = os.path.join("deletes", f"del-{ev:05d}.parquet")
        path = os.path.join(self.root, rel)
        pq.write_table(pa.table({"doc_id": pa.array(ids)}), path + ".tmp")
        os.replace(path + ".tmp", path)
        mf.commit(self.man_dir, f"delete-{ev:05d}", {
            "event": ev, "stage": "delete", "ids_file": rel,
            "n_ids": int(len(ids)),
        })
        return {"event": ev, "n_ids": int(len(ids))}

    def delete_by_query(self, query: str) -> dict:
        """Resolve the conjunctive match set of ``query`` against the
        CURRENT live view (suppression rules applied — already-deleted
        or superseded versions don't re-match) and tombstone it."""
        ids = self.searcher().match_ids(query)
        if not len(ids):
            return {"event": None, "n_ids": 0}
        return self.delete(ids)

    # -- compaction -------------------------------------------------------
    def compact(self, merge_factor: int = 4, force: bool = False
                ) -> dict | None:
        """Merge the generation chain into one (ES force-merge /
        Lucene tiered merge): runs when the chain exceeds
        ``merge_factor`` generations (or ``force`` with ≥ 2). Newest
        generation wins per doc_id; superseded postings, their stats,
        and delete-tombstoned docs are physically reclaimed. Returns
        the merged stats, or None if no compaction was due."""
        gens = self.generations()
        gen_events = [int(os.path.basename(g)[4:]) for g in gens]
        deleted = self._deleted_after(gen_events)
        pending_deletes = any(len(d) for d in deleted)
        # a single generation is still worth compacting when tombstones
        # postdate it (the reclaim half of delete_by_query)
        if len(gens) < (2 if force else merge_factor + 1) \
                and not (force and gens and pending_deletes):
            return None
        ev = self._next_event()
        gen_name = f"gen-{ev:05d}"
        out_dir = os.path.join(self.root, gen_name)
        shutil.rmtree(out_dir, ignore_errors=True)
        stats = merge_indexes(gens, out_dir, self.cfg,
                              deleted_per_input=deleted)
        # stored-source merge (the Lucene stored-fields half of a
        # segment merge): the retired generations' materialized delta
        # docs collapse last-wins (minus each generation's later
        # tombstones) into the new generation's _delta_docs — they are
        # about to be rmtree'd with their gen dirs — while immutable
        # external pointers (the bootstrap corpus) are carried forward
        # as pointers. It is the refresh's exchange with prec =
        # generation order: text moves between tasks because
        # stored-fields merge IS corpus IO, and the driver sees only a
        # row count — the accumulated stored source grows with the
        # stream, never the driver's memory.
        root_abs = os.path.abspath(self.root) + os.sep
        ptrs: list[str] = []
        internal: list[tuple[str, np.ndarray, int]] = []
        events = self._events()
        for prec, (g, dead) in enumerate(zip(gens, deleted)):
            for src in self._gen_doc_sources(os.path.basename(g),
                                             events=events):
                if not (os.path.abspath(src) + os.sep).startswith(root_abs):
                    if src not in ptrs:
                        ptrs.append(src)
                elif os.path.isdir(src):
                    internal += [(f, dead, prec) for f in _input_files(src)]
        if internal:
            _upsert_docs(_read_stored, internal,
                         sum(_footer_counts([f for f, _, _ in internal])),
                         os.path.join(out_dir, "_delta_docs"))
        mf.commit(self.man_dir, f"compact-{ev:05d}", {
            "event": ev, "stage": "compact", "gen": gen_name,
            "retired": [os.path.basename(g) for g in gens],
            "doc_ptrs": ptrs,
            "n_docs": int(stats["n_docs"]),
        })
        for g in gens:                      # reclaim after commit
            shutil.rmtree(g, ignore_errors=True)
        return stats

    def searcher(self) -> "LiveSearcher":
        gens = self.generations()
        if not gens:
            raise ValueError("live index has no generations yet")
        gen_events = [int(os.path.basename(g)[4:]) for g in gens]
        return LiveSearcher(gens, deleted=self._deleted_after(gen_events))

    def sharded_searcher(self) -> "ShardedLiveSearcher":
        """Distributed variant of :meth:`searcher` — one reader actor
        per generation; bit-identical results (see
        ``ShardedLiveSearcher``)."""
        gens = self.generations()
        if not gens:
            raise ValueError("live index has no generations yet")
        gen_events = [int(os.path.basename(g)[4:]) for g in gens]
        return ShardedLiveSearcher(gens,
                                   deleted=self._deleted_after(gen_events))


class LiveSearcher:
    """Multi-generation BM25 with Lucene NRT semantics (see module
    docstring): suppression at rank time, stale copies still in stats
    until compaction. Stats are the chain totals — df(t) = Σ df_g(t),
    n_docs = Σ n_docs_g, avgdl = Σ tokens_g / Σ n_docs_g — so in the
    append-only case scores are bit-identical to the merged index
    (each live doc's postings exist in exactly one generation and the
    per-term float order matches the single reader's)."""

    def __init__(self, gen_dirs: list[str],
                 deleted: list[np.ndarray] | None = None):
        self.readers = [IndexReader(d) for d in gen_dirs]
        stats = [index_stats(d) for d in gen_dirs]
        self.n_docs = int(sum(s["n_docs"] for s in stats))
        tokens = float(sum(s["total_tokens"] for s in stats))
        self.avgdl = (tokens / self.n_docs) if self.n_docs else 1.0
        self._newer_ids = _suppression_sets(
            [r.dl_doc_ids for r in self.readers[1:]], deleted)

    def live_doc_count(self) -> int:
        return sum(int((~isin_sorted(sup, r.dl_doc_ids)).sum())
                   for r, sup in zip(self.readers, self._newer_ids))

    def df(self, term: str) -> int:
        return sum(r.df(term) for r in self.readers)

    def match_ids(self, query: str) -> np.ndarray:
        """Conjunctive (bool-AND) match set over the live view —
        external doc_ids, suppression applied. The resolve half of
        ``delete_by_query``."""
        terms = sorted(set(tokenize_query(query)))
        if not terms:
            return np.empty(0, np.int64)
        parts: list[np.ndarray] = []
        for r, sup in zip(self.readers, self._newer_ids):
            common: np.ndarray | None = None
            for t in terms:
                pl = r.postings(t)
                if pl is None:
                    common = np.empty(0, np.int64)
                    break
                ords, _tfs = pl.decode_all()
                common = ords if common is None else \
                    np.intersect1d(common, ords, assume_unique=True)
                if not len(common):
                    break
            if common is None or not len(common):
                continue
            ext = r.dl_doc_ids[common]
            parts.append(ext[~isin_sorted(sup, ext)])
        return (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, np.int64))

    def topk(self, query: str, k: int = 10
             ) -> tuple[np.ndarray, np.ndarray]:
        terms = tokenize_query(query)
        dfs = {t: self.df(t) for t in terms}
        live = [t for t in terms if dfs[t] > 0]
        if not live:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_ids: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for r, newer in zip(self.readers, self._newer_ids):
            ext, sums = score_generation(r, live, dfs, self.n_docs,
                                         self.avgdl, newer)
            if len(ext):
                all_ids.append(ext)
                all_scores.append(sums)
        if not all_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return bm25.rank_topk(np.concatenate(all_ids),
                              np.concatenate(all_scores), k)


def _suppression_sets(newer_ids: list[np.ndarray],
                      deleted: list[np.ndarray] | None
                      ) -> list[np.ndarray]:
    """Per generation, oldest first, its rank-time suppression set:
    the sorted external ids present in NEWER generations
    (``newer_ids[i]`` holds generation ``i + 1``'s ids) plus the delete
    tombstones POSTDATING it — sized by re-indexed and deleted docs."""
    sups: list[np.ndarray] = []
    newer = np.empty(0, np.int64)
    for i in range(len(newer_ids), -1, -1):
        sup = newer
        if deleted is not None and len(deleted[i]):
            sup = np.union1d(sup, deleted[i])
        sups.append(sup)
        if i:
            newer = np.union1d(newer, newer_ids[i - 1])
    return sups[::-1]


class ShardedLiveSearcher:
    """Distributed NRT serving: ``LiveSearcher`` semantics with one
    reader ACTOR per generation — the sharded plane's
    ``sharded_query.ShardReader`` over every shard of the generation,
    so the same ``IndexReader`` as ``LiveSearcher``'s — scatter the
    chain-stats query, gather per-generation suppressed candidates,
    rank on the coordinator. Results are BIT-identical to
    ``LiveSearcher`` (same per-generation kernel,
    ``query.score_generation``, same gather order).

    Scale shape: the BASE generation is the big one, and its doc-id
    array never leaves its actor — suppression sets contain only
    NEWER-generation ids (delta-sized by the refresh interval) plus
    delete tombstones, so the coordinator pulls O(delta) ids, never
    O(corpus). Stats (n_docs, total tokens) come from the committed
    manifests, not the actors. Each actor reserves
    ``reader_cpus(generations, cluster CPUs)``, so a chain longer than
    the cluster has CPUs still schedules. Call ``shutdown()`` when done."""

    def __init__(self, gen_dirs: list[str],
                 deleted: list[np.ndarray] | None = None):
        cpus = reader_cpus(len(gen_dirs),
                           ray.cluster_resources().get("CPU", 1.0))
        self.actors = [ShardReader.options(num_cpus=cpus).remote(d)
                       for d in gen_dirs]
        stats = [index_stats(d) for d in gen_dirs]
        self.n_docs = int(sum(s["n_docs"] for s in stats))
        tokens = float(sum(s["total_tokens"] for s in stats))
        self.avgdl = (tokens / self.n_docs) if self.n_docs else 1.0
        # ids pulled ONLY for non-oldest generations (the deltas): the
        # base generation's ids never appear in any suppression set
        self._sup = _suppression_sets(
            ray.get([a.doc_ids.remote() for a in self.actors[1:]]), deleted)

    def df(self, term: str) -> int:
        per_gen = ray.get([a.dfs.remote([term]) for a in self.actors])
        return sum(g[0] for g in per_gen)

    def live_doc_count(self) -> int:
        return sum(ray.get([a.live_count.remote(s)
                            for a, s in zip(self.actors, self._sup)]))

    def topk(self, query: str, k: int = 10
             ) -> tuple[np.ndarray, np.ndarray]:
        terms = tokenize_query(query)
        uniq = sorted(set(terms))
        if not uniq:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        per_gen = ray.get([a.dfs.remote(uniq) for a in self.actors])
        dfs = {t: sum(g[j] for g in per_gen) for j, t in enumerate(uniq)}
        live = [t for t in terms if dfs[t] > 0]
        if not live:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        parts = ray.get([a.score_generation.remote(live, dfs, self.n_docs,
                                                   self.avgdl, s)
                         for a, s in zip(self.actors, self._sup)])
        all_ids = [p[0] for p in parts if len(p[0])]
        all_scores = [p[1] for p in parts if len(p[1])]
        if not all_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return bm25.rank_topk(np.concatenate(all_ids),
                              np.concatenate(all_scores), k)

    def shutdown(self) -> None:
        stop_actors(self.actors)
        self.actors = []
