"""CLI job entrypoints — the ``ray job submit`` surface.

The reference ships as a runnable loader app (``Main.scala`` /
``Run.scala``: parse config, run the stream until terminated); the Ray
analogue is a driver script submitted to a cluster:

    ray job submit --working-dir . -- \
        python -m snowplow_elasticsearch_loader_ray ingest --input /data/pages --out /mnt/ingest
    ray job submit --working-dir . -- \
        python -m snowplow_elasticsearch_loader_ray build --docs /mnt/ingest/docs/status=good \
            --out /mnt/index --shards 1024 --parts 64
    ray job submit --working-dir . -- \
        python -m snowplow_elasticsearch_loader_ray query --index /mnt/index --query "data stream" -k 10

Inside a submitted job, bare ``ray.init()`` attaches to the hosting
cluster; standalone it honours ``$RAY_ADDRESS`` (``local`` in this
sandbox). This module is the ONE library surface that owns a Ray
session — the pipelines themselves never call ``ray.init``.

Every command prints exactly one JSON document on stdout (counters,
stats, or hits), so jobs compose in shell pipelines and the job log
doubles as a machine-readable result.
"""

from __future__ import annotations

import argparse
import json
import sys


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snowplow_elasticsearch_loader_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ing = sub.add_parser("ingest", help="pages parquet -> docs + dead letters")
    ing.add_argument("--input", required=True, help="pages parquet file/dir")
    ing.add_argument("--out", required=True)
    ing.add_argument("--max-record-bytes", type=int, default=100_000)

    bld = sub.add_parser("build", help="docs parquet -> inverted index")
    bld.add_argument("--docs", required=True, help="docs parquet file/dir")
    bld.add_argument("--out", required=True)
    bld.add_argument("--shards", type=int, default=32, help="term shards")
    bld.add_argument("--parts", type=int, default=None,
                     help="resume partitions (default: one per input file)")
    bld.add_argument("--gc-runs", action="store_true",
                     help="delete the materialized exchange after the index "
                          "commits (reclaims the dominant scratch footprint; "
                          "re-encode resume then requires rerunning phase 1)")

    qry = sub.add_parser("query", help="BM25 top-k over a built index")
    qry.add_argument("--index", required=True)
    qry.add_argument("--query", required=True)
    qry.add_argument("-k", type=int, default=10)
    qry.add_argument("--strategy", choices=["maxscore", "taat"],
                     default="maxscore")

    mrg = sub.add_parser("merge", help="merge index generations (upsert by doc_id)")
    mrg.add_argument("--inputs", nargs="+", required=True,
                     help="index dirs, oldest first")
    mrg.add_argument("--out", required=True)
    mrg.add_argument("--shards", type=int, default=32)

    rsh = sub.add_parser(
        "reshard", help="rewrite an index under a new term-shard count "
                        "(ES _split/_shrink; bit-identical results)")
    rsh.add_argument("--index", required=True)
    rsh.add_argument("--out", required=True)
    rsh.add_argument("--shards", type=int, required=True)

    stm = sub.add_parser("stream", help="NDJSON payloads on stdin -> micro-batch commits")
    stm.add_argument("--out", required=True)
    stm.add_argument("--purpose", choices=["json", "bad"], default="json")
    stm.add_argument("--max-bytes", type=int, default=10_000_000)
    stm.add_argument("--max-delay-s", type=float, default=1.0)
    stm.add_argument("--tail", action="store_true",
                     help="enforce max-delay flushes in real time while "
                          "stdin blocks (a live tail, not a replay)")

    lv = sub.add_parser(
        "live", help="near-real-time index lifecycle (the reference's loop: "
                     "stream micro-batches -> searchable generations)")
    lv.add_argument("action", choices=["bootstrap", "refresh", "compact",
                                       "delete-by-query", "search", "status"])
    lv.add_argument("--root", required=True, help="live index root dir")
    lv.add_argument("--stream", help="stream dir (refresh)")
    lv.add_argument("--docs", help="bulk docs parquet dir (bootstrap)")
    lv.add_argument("--query", help="query text (search / delete-by-query)")
    lv.add_argument("-k", type=int, default=10)
    lv.add_argument("--sharded", action="store_true",
                    help="serve search through per-generation reader actors")
    lv.add_argument("--merge-factor", type=int, default=4)
    lv.add_argument("--force", action="store_true")
    lv.add_argument("--shards", type=int, default=32)

    cl = sub.add_parser(
        "cluster", help="embedding ops: exact-integer k-means / PQ "
                        "codes over a {vec_id, embedding} parquet table")
    cl.add_argument("action", choices=["kmeans", "pq"])
    cl.add_argument("--embeddings", required=True,
                    help="parquet file/dir with vec_id + embedding")
    cl.add_argument("--out", required=True,
                    help="output dir (assignments / codes parquet)")
    cl.add_argument("--k", type=int, default=8)
    cl.add_argument("--iters", type=int, default=3)
    cl.add_argument("--m", type=int, default=4,
                    help="pq: subspace count (dim must divide)")

    mf = sub.add_parser(
        "mfield", help="multi-field indexes + multi_match/combined_fields "
                       "(a field IS an index: per-field norms)")
    mf.add_argument("action", choices=["build", "search"])
    mf.add_argument("--root", required=True, help="multi-field index root")
    mf.add_argument("--docs", help="docs parquet file/dir (build)")
    mf.add_argument("--fields", nargs="+", default=["title:text:8", "body"],
                    help="build: NAME[:COLUMN[:FIRST_TOKENS]] specs; "
                         "search: NAME[^BOOST] ES field syntax")
    mf.add_argument("--query", help="query text (search)")
    mf.add_argument("--type", dest="mm_type", default="best_fields",
                    choices=["best_fields", "most_fields", "combined_fields"])
    mf.add_argument("--tie-breaker", type=float, default=0.0)
    mf.add_argument("-k", type=int, default=10)
    mf.add_argument("--shards", type=int, default=32)
    mf.add_argument("--sharded", action="store_true",
                    help="serve through per-field scatter-gather planes")

    al = sub.add_parser(
        "alias", help="index aliases (the ES reindex-then-swap deploy "
                      "pattern: atomic re-point, one-level rollback)")
    al.add_argument("action", choices=["set", "swap", "resolve",
                                       "rollback", "list"])
    al.add_argument("--root", required=True, help="alias registry root")
    al.add_argument("--name", help="alias name")
    al.add_argument("--index", help="target index dir (set / swap)")

    sn = sub.add_parser(
        "snapshot", help="incremental snapshot repository (content-"
                         "addressed blobs shared across snapshots)")
    sn.add_argument("action", choices=["create", "create-live", "restore",
                                       "delete", "gc", "list"])
    sn.add_argument("--repo", required=True, help="repository dir")
    sn.add_argument("--name", help="snapshot name")
    sn.add_argument("--index", help="index dir (create) / target (restore)")
    sn.add_argument("--live-root", help="live chain root (create-live)")
    sn.add_argument("--grace-s", type=float, default=15 * 60,
                    help="gc: keep unreferenced blobs younger than this "
                         "(protects in-flight snapshots); 0 = reclaim all")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    import ray

    from . import _raydata  # noqa: F401 (thread-safe path probe)

    if not ray.is_initialized():
        ray.init(ignore_reinit_error=True, include_dashboard=False,
                 logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    from .config import IndexConfig
    from .pipelines import build as B

    if args.cmd == "ingest":
        cfg = IndexConfig(max_record_bytes=args.max_record_bytes)
        out = B.ingest_pages(args.input, args.out, cfg)
    elif args.cmd == "build":
        cfg = IndexConfig(num_term_shards=args.shards)
        out = B.build_index(args.docs, args.out, cfg, num_parts=args.parts)
        if args.gc_runs:
            out = dict(out, runs_bytes_freed=B.gc_runs(args.out))
    elif args.cmd == "query":
        from .pipelines.query import QueryEngine

        index = args.index
        if index.startswith("alias://"):
            from .pipelines import alias as AL

            root, _, name = index[len("alias://"):].rpartition("/")
            index = AL.resolve(root, name)
        eng = QueryEngine(index, strategy=args.strategy)
        docs, scores = eng.topk(args.query, args.k)
        out = {"query": args.query,
               "hits": [{"rank": i + 1, "doc_id": int(d), "score": float(s)}
                        for i, (d, s) in enumerate(zip(docs, scores))]}
    elif args.cmd == "merge":
        from .pipelines.merge import merge_indexes

        cfg = IndexConfig(num_term_shards=args.shards)
        out = merge_indexes(args.inputs, args.out, cfg)
    elif args.cmd == "reshard":
        from .pipelines.merge import reshard_index

        out = reshard_index(args.index, args.out, args.shards)
    elif args.cmd == "stream":
        from .sources.stream import stream_ingest

        cfg = IndexConfig(flush_max_bytes=args.max_bytes,
                          flush_max_delay_s=args.max_delay_s)
        lines = (ln.rstrip("\n").encode() for ln in sys.stdin if ln.strip())
        out = stream_ingest(lines, args.out, purpose=args.purpose,
                            cfg=cfg, tail=args.tail)
    elif args.cmd == "live":
        import os

        from .pipelines.live import LiveIndex

        live = LiveIndex(args.root, IndexConfig(num_term_shards=args.shards))
        if args.action == "bootstrap":
            if not args.docs:
                raise SystemExit("live bootstrap requires --docs")
            out = live.bootstrap(args.docs)
        elif args.action == "refresh":
            if not args.stream:
                raise SystemExit("live refresh requires --stream")
            out = live.refresh(args.stream)
        elif args.action == "compact":
            out = live.compact(merge_factor=args.merge_factor,
                               force=args.force) or {"compacted": False}
        elif args.action == "delete-by-query":
            if not args.query:
                raise SystemExit("live delete-by-query requires --query")
            out = live.delete_by_query(args.query)
        elif args.action == "search":
            if not args.query:
                raise SystemExit("live search requires --query")
            s = live.sharded_searcher() if args.sharded else live.searcher()
            try:
                docs, scores = s.topk(args.query, args.k)
            finally:
                if args.sharded:
                    s.shutdown()
            out = {"query": args.query,
                   "hits": [{"rank": i + 1, "doc_id": int(d),
                             "score": float(sc)}
                            for i, (d, sc) in enumerate(zip(docs, scores))]}
        else:  # status
            gens = live.generations()
            s = live.searcher() if gens else None
            out = {"generations": [os.path.basename(g) for g in gens],
                   "live_docs": s.live_doc_count() if s else 0}
    elif args.cmd == "cluster":
        import pyarrow.parquet as _pq

        from .pipelines import cluster as KM

        ds = ray.data.read_parquet(args.embeddings,
                                   columns=["vec_id", "embedding"])
        first = ds.take(1)
        dim = len(first[0]["embedding"])
        if args.action == "kmeans":
            asg, cent = KM.kmeans(ds, args.k, args.iters)
            asg.write_parquet(args.out)
            out = {"k": args.k, "iters": args.iters, "dim": dim,
                   "out": args.out,
                   "centroid_checksum": int(cent.sum()) & (2**63 - 1)}
        else:
            outs, books = KM.pq_codes(ds, dim, args.m, args.k, args.iters)
            import os as _os
            for sub_i, o in enumerate(outs):
                o.write_parquet(_os.path.join(args.out, f"sub={sub_i}"))
            out = {"m": args.m, "k": args.k, "iters": args.iters,
                   "dim": dim, "out": args.out,
                   "codebook_checksums": [int(b.sum()) & (2**63 - 1)
                                          for b in books]}
    elif args.cmd == "mfield":
        from .pipelines import multifield as MF

        if args.action == "build":
            if not args.docs:
                raise SystemExit("mfield build requires --docs")
            specs = {}
            for f in args.fields:
                parts = f.split(":")
                specs[parts[0]] = MF.FieldSpec(
                    column=parts[1] if len(parts) > 1 else "text",
                    first_tokens=int(parts[2]) if len(parts) > 2 else None)
            cfg = IndexConfig(num_term_shards=args.shards)
            out = MF.build_field_indexes(args.docs, args.root, specs, cfg)
        else:
            if not args.query:
                raise SystemExit("mfield search requires --query")
            names = [MF.parse_field_boosts([f])[0][0] for f in args.fields]
            eng = (MF.MultiFieldShardedEngine(args.root, names)
                   if args.sharded else MF.MultiFieldEngine(args.root, names))
            try:
                if args.mm_type == "combined_fields":
                    docs, scores = eng.combined_fields(args.query,
                                                       args.fields, k=args.k)
                else:
                    docs, scores = eng.multi_match(
                        args.query, args.fields, mm_type=args.mm_type,
                        tie_breaker=args.tie_breaker, k=args.k)
            finally:
                if args.sharded:
                    eng.shutdown()
            out = {"query": args.query, "fields": args.fields,
                   "type": args.mm_type,
                   "hits": [{"rank": i + 1, "doc_id": int(d),
                             "score": float(s)}
                            for i, (d, s) in enumerate(zip(docs, scores))]}
    elif args.cmd == "alias":
        from .pipelines import alias as AL

        need_name = args.action in ("set", "swap", "resolve", "rollback")
        if need_name and not args.name:
            raise SystemExit(f"alias {args.action} requires --name")
        if args.action in ("set", "swap") and not args.index:
            raise SystemExit(f"alias {args.action} requires --index")
        if args.action == "set":
            out = AL.set_alias(args.root, args.name, args.index)
        elif args.action == "swap":
            out = AL.swap(args.root, args.name, args.index)
        elif args.action == "resolve":
            out = {"name": args.name,
                   "target": AL.resolve(args.root, args.name)}
        elif args.action == "rollback":
            out = AL.rollback(args.root, args.name)
        else:
            out = {"aliases": AL.list_aliases(args.root)}
    elif args.cmd == "snapshot":
        from .pipelines import snapshot as S
        from .state import manifest as _mf

        def _need(attr, flag):
            v = getattr(args, attr)
            if not v:
                raise SystemExit(f"snapshot {args.action} requires {flag}")
            return v

        if args.action == "create":
            out = S.snapshot_incremental(_need("index", "--index"),
                                         args.repo, _need("name", "--name"))
        elif args.action == "create-live":
            out = S.snapshot_live_incremental(
                _need("live_root", "--live-root"), args.repo,
                _need("name", "--name"))
        elif args.action == "restore":
            out = S.restore_incremental(args.repo, _need("name", "--name"),
                                        _need("index", "--index"))
        elif args.action == "delete":
            S.delete_snapshot(args.repo, _need("name", "--name"))
            out = {"deleted": args.name}
        elif args.action == "gc":
            out = S.gc_repository(args.repo, grace_s=args.grace_s)
        else:  # list
            import os

            snaps = _mf.load_all(os.path.join(args.repo, "snapshots"))
            out = {"snapshots": [
                {"name": n, "kind": m.get("kind"),
                 "files": len(m.get("files", [])),
                 "bytes_copied": m.get("bytes_copied"),
                 "bytes_reused": m.get("bytes_reused"),
                 "committed_at": m.get("committed_at")}
                for n, m in snaps.items()]}
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)

    json.dump(out, sys.stdout, default=str)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
