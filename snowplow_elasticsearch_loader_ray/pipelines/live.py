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
refresh interval, not the corpus — its parse is one Ray task per
stream part with a doc_id-keyed groupby for the in-refresh last-wins
dedupe (the driver sees two counters, never rows), its build is the
same shard-parallel plan as the main build, and merge is one task per
term shard with no shuffle (``merge.py``). The searcher holds per-generation readers; at
10^12 docs the base generation is served by the sharded/grid readers
and deltas stay small, so the chain costs one extra scatter round, not
a second corpus.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .. import bm25
from ..config import IndexConfig, DEFAULT_CONFIG
from ..state import manifest as mf
from .build import build_index, index_stats
from .merge import merge_indexes
from .query import IndexReader, tokenize_query


def _parse_stream_parts(batch: pa.Table) -> pa.Table:
    """One task per batch of (pk, path) stream-part items → parsed doc
    rows. Contract (the enriched-event analogue): a good record is a
    JSON object with ``doc_id`` (int) and ``text`` (str), optionally
    ``lang``; violations count as bad (the dead-letter split already
    happened at ingest — this is the indexing-side schema check).
    ``ordkey`` = (part index << 32) | row index is the stream-order
    key the last-wins dedupe reduces on; one summary row per part
    (ordkey = -1) carries the bad count so it rides the same dataset.
    """
    ids: list[int] = []
    texts: list[str] = []
    langs: list[str] = []
    keys: list[int] = []
    bads: list[int] = []
    for pk, path in zip(batch["pk"].to_pylist(), batch["path"].to_pylist()):
        t = pq.read_table(path, columns=["status", "record"])
        n_bad = 0
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
            keys.append((int(pk) << 32) | ri)
            bads.append(0)
        ids.append(0)                          # per-part summary row
        texts.append("")
        langs.append("")
        keys.append(-1)
        bads.append(n_bad)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "ordkey": pa.array(keys, pa.int64()),
        "bad": pa.array(bads, pa.int64()),
    })


def _last_wins(g):
    """Upsert-by-id inside one refresh: keep the stream-latest row."""
    return g.loc[[g["ordkey"].idxmax()]]


_DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                          ("lang", pa.string())])


def _normalize_docs(b: pa.Table) -> pa.Table:
    """Project a stored-source batch to (doc_id, text, lang), filling
    ``lang`` when the source corpus lacks it (bootstrap accepts plain
    (doc_id, text) parquet)."""
    lang = (b["lang"] if "lang" in b.column_names
            else pa.array(["und"] * b.num_rows, pa.string()))
    return pa.table({"doc_id": b["doc_id"], "text": b["text"],
                     "lang": lang}).cast(_DOCS_SCHEMA)


@ray.remote
def _parse_part_remote(pk: int, path: str) -> pa.Table:
    return _parse_stream_parts(pa.table({"pk": [pk], "path": [path]}))


def _extract_stream_docs_small(part_files: list[str], docs_dir: str
                               ) -> tuple[int, int]:
    """Fast path for a refresh-interval-sized delta: one plain Ray task
    per stream part, then a vectorized driver-side last-wins dedupe
    (lexsort by (doc_id, ordkey), keep each id's last) — semantically
    identical to the Dataset groupby but without two materializations
    and a shuffle of a few-thousand-row table, which otherwise dominate
    the stream→searchable refresh latency. The concatenated delta is
    bounded by ``inline_build_max_docs`` rows (the caller checked the
    footers), so holding it in the refresh driver is the same memory
    class as Lucene's in-memory segment buffer."""
    tables = ray.get([_parse_part_remote.remote(i, f)
                      for i, f in enumerate(part_files)])
    t = pa.concat_tables(tables)
    n_bad = int(pc.sum(t["bad"]).as_py() or 0)
    t = t.filter(pc.greater_equal(t["ordkey"], 0))
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    keys = t["ordkey"].to_numpy(zero_copy_only=False)
    order = np.lexsort((keys, ids))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = ids[order[1:]] != ids[order[:-1]]
    docs = t.select(["doc_id", "text", "lang"]).take(pa.array(order[last]))
    if docs.num_rows:
        os.makedirs(docs_dir, exist_ok=True)
        tmp = os.path.join(docs_dir, "delta-00000.parquet.tmp")
        pq.write_table(docs, tmp)
        os.replace(tmp, os.path.join(docs_dir, "delta-00000.parquet"))
    return int(docs.num_rows), n_bad


def _extract_stream_docs(part_files: list[str], docs_dir: str,
                         cfg: IndexConfig = DEFAULT_CONFIG
                         ) -> tuple[int, int]:
    """Distributed stream-parts → deduped documents parquet under
    ``docs_dir``; returns (n_docs, n_bad). One parse task per part,
    a doc_id-keyed groupby for the last-wins dedupe (delta-sized —
    the refresh interval bounds it, never the corpus), partitioned
    write. The driver sees only the two counters. Deltas under
    ``cfg.inline_build_max_docs`` rows (parquet footer count — an
    upper bound on docs) take the no-shuffle fast path above."""
    import ray.data

    from .. import _raydata  # noqa: F401 (thread-safe path probe)

    if cfg.inline_build_max_docs:
        total = sum(pq.ParquetFile(f).metadata.num_rows
                    for f in part_files)
        if total <= cfg.inline_build_max_docs:
            return _extract_stream_docs_small(part_files, docs_dir)

    items = [{"pk": i, "path": f} for i, f in enumerate(part_files)]
    parsed = (ray.data.from_items(items)
              .map_batches(_parse_stream_parts, batch_format="pyarrow")
              .materialize())
    n_bad = int(parsed.sum("bad") or 0)
    docs = (parsed
            .map_batches(lambda b: b.filter(
                pc.greater_equal(b["ordkey"], 0)).drop_columns(["bad"]),
                batch_format="pyarrow")
            .groupby("doc_id").map_groups(_last_wins)
            .map_batches(lambda b: b.drop_columns(["ordkey"]),
                         batch_format="pyarrow")
            .materialize())
    n_docs = int(docs.count())
    if n_docs:
        docs.write_parquet(docs_dir)
    return n_docs, n_bad


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
        n_docs, n_bad = _extract_stream_docs(parts, docs_dir, self.cfg)
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
        first source that holds an id owns its current text). Reads are
        the ``doc_fetch`` pattern — broadcast id set, vectorized
        semi-join filter inside ``map_batches`` — so the immutable base
        corpus is scanned once, column-pruned, never shuffled."""
        import ray.data    # siblings import locally; don't rely on
                           # build.py's module-level import side effect

        from .. import _raydata  # noqa: F401 (thread-safe path probe)

        want = np.unique(np.asarray(doc_ids, dtype=np.int64))
        pieces: list[pa.Table] = []
        events = self._events()                # one scan for the loop
        for gen in reversed(self.generations()):          # newest first
            if not len(want):
                break
            for src in self._gen_doc_sources(os.path.basename(gen),
                                             events=events):
                if not len(want):
                    break
                want_arr = want                            # bind for task

                def pick(b: pa.Table) -> pa.Table:
                    t = _normalize_docs(b)
                    ids = t["doc_id"].to_numpy(zero_copy_only=False)
                    return t.filter(pa.array(np.isin(ids, want_arr)))

                blocks = [b for b in ray.get(
                              ray.data.read_parquet(src)
                              .map_batches(pick, batch_format="pyarrow")
                              .to_arrow_refs())
                          if b.num_rows]
                hit = (pa.concat_tables(blocks) if blocks
                       else _DOCS_SCHEMA.empty_table())
                if hit.num_rows:
                    # a source may itself hold several versions (a
                    # user-supplied bulk corpus is not guaranteed
                    # deduped) — keep the first row per id so the
                    # chain's one-live-version invariant holds
                    found = hit["doc_id"].to_numpy(zero_copy_only=False)
                    uniq, first_idx = np.unique(found, return_index=True)
                    if len(uniq) != len(found):
                        hit = hit.take(pa.array(np.sort(first_idx)))
                        found = uniq
                    pieces.append(hit)
                    want = want[~np.isin(want, found)]
        if not pieces:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string()),
                             "lang": pa.array([], pa.string())})
        return pa.concat_tables(pieces)

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
        # as pointers. The merge is the same distributed last-wins
        # groupby the refresh dedupe uses (precedence = generation
        # order): text rides the shuffle because stored-fields merge IS
        # corpus IO, and the driver sees only a row count — the
        # accumulated stored source grows with the stream, never the
        # driver's memory.
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
                    internal.append((src, dead, prec))
        if internal:
            import ray.data

            from .. import _raydata  # noqa: F401 (thread-safe path probe)

            parts = []
            for src, dead, prec in internal:
                def norm(b: pa.Table, dead=dead, prec=prec) -> pa.Table:
                    t = _normalize_docs(b)
                    if len(dead):
                        ids = t["doc_id"].to_numpy(zero_copy_only=False)
                        t = t.filter(pa.array(~np.isin(ids, dead)))
                    return t.append_column("ordkey", pa.array(
                        np.full(t.num_rows, prec, dtype=np.int64)))

                parts.append(ray.data.read_parquet(src)
                             .map_batches(norm, batch_format="pyarrow"))
            ds = parts[0]
            for p in parts[1:]:
                ds = ds.union(p)
            merged = (ds.groupby("doc_id").map_groups(_last_wins)
                      .map_batches(lambda b: b.drop_columns(["ordkey"]),
                                   batch_format="pyarrow")
                      .materialize())
            if merged.count():
                merged.write_parquet(os.path.join(out_dir, "_delta_docs"))
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
        # per generation: sorted external ids present in NEWER gens,
        # plus delete tombstones POSTDATING the generation — the
        # rank-time suppression set (sized by re-indexed+deleted docs)
        self._newer_ids: list[np.ndarray] = []
        newer = np.empty(0, np.int64)
        for i in range(len(self.readers) - 1, -1, -1):
            sup = newer
            if deleted is not None and len(deleted[i]):
                sup = np.union1d(sup, deleted[i])
            self._newer_ids.append(sup)
            newer = np.union1d(newer, self.readers[i].dl_doc_ids)
        self._newer_ids.reverse()

    def live_doc_count(self) -> int:
        n = 0
        for r, newer in zip(self.readers, self._newer_ids):
            if len(newer):
                pos = np.searchsorted(newer, r.dl_doc_ids)
                pos = np.minimum(pos, len(newer) - 1)
                n += int((newer[pos] != r.dl_doc_ids).sum())
            else:
                n += len(r.dl_doc_ids)
        return n

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
            if len(sup):
                pos = np.minimum(np.searchsorted(sup, ext), len(sup) - 1)
                ext = ext[sup[pos] != ext]
            parts.append(ext)
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
            ext, sums = _score_generation(r, live, dfs, self.n_docs,
                                          self.avgdl, newer)
            if len(ext):
                all_ids.append(ext)
                all_scores.append(sums)
        if not all_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return bm25.rank_topk(np.concatenate(all_ids),
                              np.concatenate(all_scores), k)


def _score_generation(r: IndexReader, live: list[str], dfs: dict[str, int],
                      n_docs: int, avgdl: float, sup: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One generation's (suppressed external ids, summed BM25 scores)
    under CHAIN stats — the shared scoring kernel of ``LiveSearcher``
    and the per-generation actor (bit-identity by construction)."""
    docs_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    for t in live:                         # sorted-term float order
        pl = r.postings(t)
        if pl is None:
            continue
        ords, tfs = pl.decode_all()
        w = bm25.idf(n_docs, dfs[t])
        score_parts.append(w * bm25.tf_weight(tfs, r.dl_lens[ords], avgdl))
        docs_parts.append(ords)
    if not docs_parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    docs = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    order = np.argsort(docs, kind="stable")
    docs_s, scores_s = docs[order], scores[order]
    bounds = np.concatenate(
        ([0], np.nonzero(docs_s[1:] != docs_s[:-1])[0] + 1))
    uniq = docs_s[bounds]
    sums = np.add.reduceat(scores_s, bounds)
    ext = r.dl_doc_ids[uniq]
    if len(sup):                           # NRT suppression
        pos = np.minimum(np.searchsorted(sup, ext), len(sup) - 1)
        keep = sup[pos] != ext
        ext, sums = ext[keep], sums[keep]
    return ext, sums


@ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
class _GenReaderActor:
    """One generation of the live chain, loaded once and served remote —
    the distributed-NRT grain: generations (and their memory) spread
    across the cluster; a crashed actor restarts and reloads its
    generation from the committed index (same fault story as the
    sharded BM25 readers)."""

    def __init__(self, gen_dir: str):
        from .query import IndexReader as _IR

        self.r = _IR(gen_dir)

    def doc_ids(self) -> np.ndarray:
        return self.r.dl_doc_ids

    def dfs(self, terms: list[str]) -> list[int]:
        return [self.r.df(t) for t in terms]

    def score(self, live: list[str], dfs: dict[str, int], n_docs: int,
              avgdl: float, sup: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        return _score_generation(self.r, live, dfs, n_docs, avgdl, sup)

    def live_count(self, sup: np.ndarray) -> int:
        ids = self.r.dl_doc_ids
        if not len(sup):
            return len(ids)
        pos = np.minimum(np.searchsorted(sup, ids), len(sup) - 1)
        return int((sup[pos] != ids).sum())


class ShardedLiveSearcher:
    """Distributed NRT serving: ``LiveSearcher`` semantics with one
    reader ACTOR per generation — scatter the chain-stats query, gather
    per-generation suppressed candidates, rank on the coordinator.
    Results are BIT-identical to ``LiveSearcher`` (same per-generation
    kernel, same gather order).

    Scale shape: the BASE generation is the big one, and its doc-id
    array never leaves its actor — suppression sets contain only
    NEWER-generation ids (delta-sized by the refresh interval) plus
    delete tombstones, so the coordinator pulls O(delta) ids, never
    O(corpus). Stats (n_docs, total tokens) come from the committed
    manifests, not the actors. Call ``shutdown()`` when done."""

    def __init__(self, gen_dirs: list[str],
                 deleted: list[np.ndarray] | None = None):
        self.actors = [_GenReaderActor.remote(d) for d in gen_dirs]
        stats = [index_stats(d) for d in gen_dirs]
        self.n_docs = int(sum(s["n_docs"] for s in stats))
        tokens = float(sum(s["total_tokens"] for s in stats))
        self.avgdl = (tokens / self.n_docs) if self.n_docs else 1.0
        n = len(gen_dirs)
        # ids pulled ONLY for non-oldest generations (the deltas): the
        # base generation's ids never appear in any suppression set
        delta_ids = ray.get([self.actors[i].doc_ids.remote()
                             for i in range(1, n)])
        self._sup: list[np.ndarray] = []
        newer = np.empty(0, np.int64)
        for i in range(n - 1, -1, -1):
            sup = newer
            if deleted is not None and len(deleted[i]):
                sup = np.union1d(sup, deleted[i])
            self._sup.append(sup)
            if i:
                newer = np.union1d(newer, delta_ids[i - 1])
        self._sup.reverse()

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
        parts = ray.get([a.score.remote(live, dfs, self.n_docs, self.avgdl, s)
                         for a, s in zip(self.actors, self._sup)])
        all_ids = [p[0] for p in parts if len(p[0])]
        all_scores = [p[1] for p in parts if len(p[1])]
        if not all_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return bm25.rank_topk(np.concatenate(all_ids),
                              np.concatenate(all_scores), k)

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
