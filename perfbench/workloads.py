"""The three workloads: ``build``, ``serve`` and ``nrt_upsert``.

Each is a closed loop with one client and one request in flight. A
workload function sets up, measures, checks its outputs outside the timed
region and returns a ``Result``. ``build`` repeats stateless rounds for
``ctx.seconds``; ``serve`` and ``nrt_upsert`` run a fixed amount of work,
because their caches and chains change state as they go. Every program
call goes through ``ctx.guard`` (deadline + failure count).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.oracle import OracleIndex
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.pipelines import live as L
from snowplow_elasticsearch_loader_ray.pipelines import query as Q
from snowplow_elasticsearch_loader_ray.pipelines import sharded_query as SQ
from snowplow_elasticsearch_loader_ray.sources import stream as S
from snowplow_elasticsearch_loader_ray.state import manifest as mf

from . import inputs
from .measure import FAILED, Guard, median, percentile, tail
from .spans import END, NAME, PARENT, REQ, START, TAGS, Tracer

SETUP_REPS = 3            # set-ups per run; setup_s is their median
GATE_QUERIES = 20

# build: a corpus this small would take the inline fast path, so
# inline_build_max_docs=0 keeps it on the distributed one (Ray Data
# ingest, SPIMI runs, shard-group encode tasks), as a bulk build runs
BUILD_PAGES, BUILD_PARTS, WARM_PAGES = 2_500, 4, 500
MIN_BUILD_ROUNDS = 3

# serve and nrt_upsert: 8 term shards keep every ShardReader schedulable
# on one CPU (0.1 CPU each); the default 16 does not (perfbench/README.md)
TERM_SHARDS = 8
SERVE_PAGES, WARM_REQUESTS = 6_000, 400
# popularity Zipf(0.6) over a 20k-query pool repeats ~30% of requests: the
# sharded p50 then sits in the first-seen (scatter-gather) population, well
# clear of the request-cache hits
SERVE_POOL, SERVE_ZIPF_S = 20_000, 0.6
# a fixed count, not a time: the sharded plane's term caches warm up along
# the stream, so its latency must not depend on how many requests fit
SERVE_REQUESTS = 3_000
MSEARCH_BATCH, MSEARCH_EVERY, MSEARCH_DEADLINE_S = 200, 100, 30.0

# nrt_upsert: bootstrap + MERGE_FACTOR rounds; the compact() after the last
# round is the one that fires (chain > merge_factor). A fixed amount of
# work, like serve's stream: only build fills the run time. It is not a
# workload of BENCHMARK.json (see perfbench/README.md): its layers are
# measured as part of build's traced run.
NRT_PAGES, MERGE_FACTOR, NRT_ROUNDS = 3_000, 3, 3
DELTA_DOCS, UPSERT_SHARE, DELETES_PER_ROUND, QUERIES_PER_ROUND = 300, 0.4, 10, 60

QUERY_DEADLINE_S, BUILD_DEADLINE_S = 10.0, 120.0
BROKEN_AFTER = 3          # consecutive failures that mark a serving plane broken


@dataclass
class Ctx:
    seed: int
    seconds: float
    work: str
    guard: Guard
    start_ray: Callable[[], None]
    stop_ray: Callable[[], None]
    tracer: Tracer | None = None


@dataclass
class Result:
    #: end-to-end slot -> value (see perfbench/README.md for the mapping)
    slots: dict = field(default_factory=dict)
    #: workload metric name -> {"value", "unit", "n"}
    report: dict = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs)
    layers: dict = field(default_factory=dict)
    gate: list = field(default_factory=list)     # failed check descriptions


def _ms(xs):
    return [1000.0 * x for x in xs]


def _put(res: Result, name: str, value: float, unit: str, n: int,
         samples: list[float] | None = None) -> None:
    res.report[name] = {"value": value, "unit": unit, "n": n}
    if samples is not None:
        res.report[name]["samples"] = [round(x, 4) for x in samples]


def _timing(res: Result, prefix: str, secs: list[float], unit: str = "ms",
            pct: float | None = None) -> float:
    """Report ``<prefix>_p50_<unit>`` and a tail: ``<prefix>_p<pct>_<unit>``
    for a fixed percentile, else ``<prefix>_tail_<unit>``, the highest
    percentile with ten samples beyond it. → p50 in milliseconds, for the
    end-to-end slots."""
    v = [(1000.0 if unit == "ms" else 1.0) * x for x in secs]
    if pct is None:
        tl, at = tail(v)
        name = f"{prefix}_tail_{unit}"
    else:
        tl, at = percentile(v, pct), pct
        name = f"{prefix}_p{pct:g}_{unit}"
    _put(res, f"{prefix}_p50_{unit}", median(v), unit, len(v))
    res.report[name] = {"value": tl, "unit": unit, "n": len(v), "percentile": round(at, 2)}
    return (1.0 if unit == "ms" else 1000.0) * median(v)


def _bytes_per_posting(guard: Guard, index_dir: str) -> float | None:
    m = guard.call(B.index_metrics, index_dir)
    if m is FAILED or not m.get("postings"):
        return None
    return m["bytes_written"] / m["postings"]


def _same(a, b) -> bool:
    return (a is not FAILED and b is not FAILED
            and np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))


def _oracle_gate(res: Result, guard: Guard, topk, corpus: dict[int, str],
                 queries: list[str], what: str) -> None:
    oracle = OracleIndex(corpus)
    for q in queries:
        got = guard.call(topk, q, 10, deadline_s=QUERY_DEADLINE_S)
        if got is FAILED:
            res.gate.append(f"{what}: query {q!r} failed")
            continue
        if list(zip(got[0].tolist(), got[1].tolist())) != oracle.topk(q, 10):
            res.gate.append(f"{what}: top-10 for {q!r} differs from the oracle")


def _spans(tracer: Tracer, name: str, kind: str) -> list[list]:
    """Closed spans called ``name`` opened under requests of ``kind``."""
    return [s for s in tracer.closed(name) if s[REQ] is not None and s[REQ][0] == kind]


def _dur(spans) -> list[float]:
    return [s[END] - s[START] for s in spans]


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------

def run_build(ctx: Ctx) -> Result:
    """Ingest then ``build_index`` over a page corpus, repeated. The query
    layers sit idle here, so a query-side change shows no change."""
    g, res, tr = ctx.guard, Result(), ctx.tracer
    cfg = IndexConfig(max_record_bytes=100_000, inline_build_max_docs=0)
    lo = inputs.slice_start(ctx.seed, "build")
    hi = lo + BUILD_PAGES
    pages = os.path.join(ctx.work, "pages")
    inputs.write_pages(pages, lo, hi, BUILD_PARTS)
    warm_lo = inputs.slice_start(ctx.seed, "build-warm")
    warm_pages = os.path.join(ctx.work, "warm_pages")
    inputs.write_pages(warm_pages, warm_lo, warm_lo + WARM_PAGES, 2)
    expected = inputs.expected_counters(lo, hi)

    # set-up: a fresh Ray session plus one small ingest+build pass that
    # starts the worker pool and imports the package in it
    setups = []
    for rep in range(SETUP_REPS):
        ctx.stop_ray()
        if tr:
            tr.req = ("setup", rep)
        wd = os.path.join(ctx.work, f"warm{rep}")
        sec = g.clock.section()
        ctx.start_ray()
        g.call(B.ingest_pages, warm_pages, f"{wd}/ingest", cfg, deadline_s=BUILD_DEADLINE_S)
        g.call(B.build_index, B.good_docs_dir(f"{wd}/ingest"), f"{wd}/index", cfg,
               deadline_s=BUILD_DEADLINE_S)
        setups.append(sec.stop())
        shutil.rmtree(wd, ignore_errors=True)

    ingest_s, build_s, rounds_s, good = [], [], [], []
    end = time.monotonic() + ctx.seconds
    r, last_idx, last_counters = 0, None, {}
    while r < MIN_BUILD_ROUNDS or time.monotonic() < end:
        if tr:
            tr.req = ("round", r)
        rd = os.path.join(ctx.work, f"round{r}")
        counters, t_ing = g.timed(B.ingest_pages, pages, f"{rd}/ingest", cfg,
                                  deadline_s=BUILD_DEADLINE_S)
        if counters is FAILED:
            break
        stats, t_build = g.timed(B.build_index, B.good_docs_dir(f"{rd}/ingest"),
                                 f"{rd}/index", cfg, deadline_s=BUILD_DEADLINE_S)
        if stats is FAILED:
            break
        if counters != expected:
            res.gate.append(f"round {r}: ingest counters {counters} != {expected}")
        ingest_s.append(t_ing)
        build_s.append(t_build)
        rounds_s.append(t_ing + t_build)
        good.append(counters.get("good", 0))
        if last_idx:
            shutil.rmtree(os.path.dirname(last_idx), ignore_errors=True)
        last_idx, last_counters = f"{rd}/index", counters
        r += 1
    bpp = _bytes_per_posting(g, last_idx) if last_idx else None
    if bpp is None:
        res.gate.append("no build round completed")
        return res

    if tr:
        tr.req = ("gate", 0)
    engine = g.call(Q.QueryEngine, last_idx)
    if engine is FAILED:
        res.gate.append("QueryEngine failed to load the built index")
    else:
        docs = inputs.good_docs(lo, hi)
        _oracle_gate(res, g, engine.topk,
                     dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())),
                     inputs.queries(inputs.rng_for(ctx.seed, "build-gate"), GATE_QUERIES),
                     "build")

    dps = [n / t for n, t in zip(good, rounds_s)]
    i50 = _timing(res, "ingest", ingest_s, "s")
    b50 = _timing(res, "build_index", build_s, "s")
    res.slots = {
        "setup_s": median(setups),
        # all rounds' good docs over all rounds' wall: every round counts
        "docs_per_s": sum(good) / sum(rounds_s),
        "bytes_per_posting": bpp,
        "op1_p50_ms": i50,
        "op2_p50_ms": b50,
        "batch_ms": median(_ms(rounds_s)),
    }
    _put(res, "setup_s", median(setups), "s", len(setups), setups)
    _put(res, "build_docs_per_s", res.slots["docs_per_s"], "docs/s", len(dps), dps)
    _put(res, "bytes_per_posting", bpp, "B", 1)
    _put(res, "round_s", median(rounds_s), "s", len(rounds_s), rounds_s)

    if tr:
        n = len(rounds_s)
        per_round = {}
        for key, span in (("ingest_pages_s", "build.ingest_pages"),
                          ("build_runs_s", "build.build_runs"),
                          ("build_segments_s", "build.build_segments"),
                          ("finalize_s", "build.finalize")):
            d = _dur(_spans(tr, span, "round"))
            per_round[key] = d
            res.layers[key] = median(d) if d else 0.0
        # against the spans' own round wall: rounds_s is at reference speed
        covered = sum(sum(d) for d in per_round.values())
        wall = sum(_dur(_spans(tr, "build.ingest_pages", "round"))
                   + _dur(_spans(tr, "build.build_index", "round")))
        res.layers["build_layers_coverage"] = covered / wall if wall else 0.0
        commits = _spans(tr, "manifest.commit", "round")
        res.layers["manifest_commits"] = len(commits) / n
        res.layers["manifest_commit_s"] = sum(_dur(commits)) / n
        res.layers["dead_letter_rows"] = sum(v for k, v in last_counters.items()
                                             if k != "good")
        runs = g.call(mf.load_all, os.path.join(last_idx, "manifests"), "runs-part-")
        if runs is not FAILED:
            res.layers["run_rows"] = sum(m["counters"]["docs"] + m["counters"]["postings"]
                                         for m in runs.values())
        m = g.call(B.index_metrics, last_idx)
        if m is not FAILED:
            res.layers["segment_bytes"] = m["bytes_written"]
            res.layers["postings"] = m["postings"]
        # the NRT path's layers (stream, live, merge) ride on this traced
        # run: one nrt_upsert cycle, its gate included
        nrt = run_nrt_upsert(replace(ctx, work=os.path.join(ctx.work, "nrt")))
        res.gate += nrt.gate
        res.layers.update(nrt.layers)
        res.report.update({f"nrt_{k}": v for k, v in nrt.report.items()})
    return res


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------

class Plane:
    """One serving entry point under the closed loop: records each
    request's answer and wall time (None when it failed). After
    BROKEN_AFTER consecutive failures the plane counts as broken and
    further requests count as failed without being sent."""

    def __init__(self, g: Guard, tr: Tracer | None, kind: str, fn, deadline_s: float):
        self.g, self.tr, self.kind, self.fn, self.deadline_s = g, tr, kind, fn, deadline_s
        self.answers: list = []
        self.walls: list = []
        self.streak = 0

    def send(self, request) -> None:
        if self.streak >= BROKEN_AFTER:
            self.g.attempted += 1
            self.g.failed += 1
            out, t = FAILED, None
        else:
            if self.tr:
                self.tr.req = (self.kind, len(self.answers))
            out, t = self.g.timed(self.fn, request, 10, deadline_s=self.deadline_s)
            self.streak = self.streak + 1 if out is FAILED else 0
        self.answers.append(out)
        self.walls.append(None if out is FAILED else t)

    def ok_walls(self, mask=None) -> list[float]:
        return [t for i, t in enumerate(self.walls)
                if t is not None and (mask is None or mask[i])]


def run_serve(ctx: Ctx) -> Result:
    """Single reader and sharded plane over one index, plus fused msearch.
    Build layers appear only in setup_s."""
    g, res, tr = ctx.guard, Result(), ctx.tracer
    ctx.start_ray()
    cfg = IndexConfig(num_term_shards=TERM_SHARDS)
    lo = inputs.slice_start(ctx.seed, "serve")
    docs = inputs.good_docs(lo, lo + SERVE_PAGES)
    docs_dir = os.path.join(ctx.work, "docs")
    inputs.write_docs(docs_dir, docs, 4)
    pool = inputs.queries(inputs.rng_for(ctx.seed, "serve-pool"), SERVE_POOL)
    warm_pool = inputs.queries(inputs.rng_for(ctx.seed, "serve-warm-pool"), SERVE_POOL)
    warm = inputs.zipf_stream(inputs.rng_for(ctx.seed, "serve-warm"), warm_pool,
                              WARM_REQUESTS, SERVE_ZIPF_S)
    timed_rng = inputs.rng_for(ctx.seed, "serve-timed")
    ms_rng = inputs.rng_for(ctx.seed, "serve-msearch")
    seen = {inputs.request_key(q) for q in warm}

    setups, build_walls, engine_starts = [], [], []
    single = sharded = idx = None
    for rep in range(SETUP_REPS):
        if sharded not in (None, FAILED):
            g.call(sharded.shutdown)
        if idx:
            shutil.rmtree(idx, ignore_errors=True)
        if tr:
            tr.req = ("setup", rep)
        idx = os.path.join(ctx.work, f"index{rep}")
        sec = g.clock.section()
        _, t_build = g.timed(B.build_index, docs_dir, idx, cfg, deadline_s=BUILD_DEADLINE_S)
        single = g.call(Q.QueryEngine, idx)
        if single is not FAILED:
            g.call(single.topk, warm[0], 10, deadline_s=QUERY_DEADLINE_S)
        start = g.clock.section()
        sharded = g.call(SQ.ShardedQueryEngine, idx, deadline_s=BUILD_DEADLINE_S)
        if sharded is not FAILED:
            # the first answer waits on one actor per query term; a batch
            # of warm-up queries waits on every actor, so set-up ends when
            # the whole pool is up, whatever terms the seed drew first
            g.call(sharded.msearch, warm[:MSEARCH_BATCH], 10, deadline_s=BUILD_DEADLINE_S)
        engine_starts.append(start.stop())
        setups.append(sec.stop())
        build_walls.append(t_build)
    if FAILED in (single, sharded):
        res.gate.append("serving engines failed to start")
        return res

    for plane in (Plane(g, tr, "warm", single.topk, QUERY_DEADLINE_S),
                  Plane(g, tr, "warm", sharded.topk, QUERY_DEADLINE_S)):
        for q in warm:
            plane.send(q)

    # timed: each request goes to the single reader, then to the sharded
    # plane; every MSEARCH_EVERY requests one batch of never-sent queries
    # goes to both planes' msearch (the sharded one fuses the scatter).
    # Interleaving makes every metric sample the whole window.
    # (The stream is SERVE_REQUESTS long whatever ctx.seconds says.)
    one = Plane(g, tr, "single", single.topk, QUERY_DEADLINE_S)
    many = Plane(g, tr, "sharded", sharded.topk, QUERY_DEADLINE_S)
    loop = Plane(g, tr, "single-msearch", single.msearch, MSEARCH_DEADLINE_S)
    fused = Plane(g, tr, "msearch", sharded.msearch, MSEARCH_DEADLINE_S)
    repeat, batches = [], []
    for q in inputs.zipf_stream(timed_rng, pool, SERVE_REQUESTS, SERVE_ZIPF_S):
        repeat.append(inputs.request_key(q) in seen)   # sent before, warm-up included
        seen.add(inputs.request_key(q))
        one.send(q)
        many.send(q)
        if len(repeat) % MSEARCH_EVERY == 0:
            batches.append(inputs.fresh_batch(ms_rng, seen, MSEARCH_BATCH))
            loop.send(batches[-1])
            fused.send(batches[-1])
    single_lat, sharded_lat, ms_walls = one.ok_walls(), many.ok_walls(), fused.ok_walls()
    single_first_lat, loop_walls = one.ok_walls([not r for r in repeat]), loop.ok_walls()
    first_lat = many.ok_walls([not r for r in repeat])
    repeat_lat = many.ok_walls(repeat)

    # gate: every sharded and msearch answer bit-identical to the single
    # reader's answer for the same query
    if tr:
        tr.req = ("gate", 0)
    mismatched = sum(1 for a, b in zip(one.answers, many.answers)
                     if a is not FAILED and b is not FAILED and not _same(a, b))
    for want, outs in zip(loop.answers, fused.answers):
        if want is FAILED or outs is FAILED:
            continue
        mismatched += sum(1 for a, b in zip(want, outs) if not _same(a, b))
    if mismatched:
        res.gate.append(f"{mismatched} sharded/msearch answers differ from the single reader")
    bpp = _bytes_per_posting(g, idx)
    g.call(sharded.shutdown)
    if not (single_lat and single_first_lat and sharded_lat and loop_walls and ms_walls):
        res.gate.append("a serving plane answered no request")
        return res

    qps = [MSEARCH_BATCH / t for t in ms_walls]
    n_docs = docs.num_rows
    p50 = _timing(res, "query", single_lat, pct=99)
    _timing(res, "sharded_query", sharded_lat, pct=99)
    res.slots = {
        "setup_s": median(setups),
        # all set-up builds' docs over their total wall
        "docs_per_s": n_docs * len(build_walls) / sum(build_walls),
        "bytes_per_posting": bpp,
        "op1_p50_ms": p50,
        # the sharded plane's figures are on the report line only: their
        # speed follows other tenants' load on the CPUs its actor processes
        # spread over, which the probes do not see (perfbench/README.md)
        "op2_p50_ms": median(_ms(single_first_lat)),
        "batch_ms": median(_ms(loop_walls)),
    }
    _put(res, "setup_s", median(setups), "s", len(setups), setups)
    _put(res, "msearch_qps", median(qps), "q/s", len(qps))
    _put(res, "msearch_batch_ms", median(_ms(ms_walls)), "ms", len(ms_walls))
    _put(res, "query_first_seen_p50_ms", res.slots["op2_p50_ms"], "ms", len(single_first_lat))
    _put(res, "single_msearch_batch_ms", res.slots["batch_ms"], "ms", len(loop_walls))
    _put(res, "index_docs_per_s", res.slots["docs_per_s"], "docs/s", len(build_walls),
         [n_docs / t for t in build_walls])
    _put(res, "engine_start_s", median(engine_starts), "s", len(engine_starts), engine_starts)
    _put(res, "bytes_per_posting", bpp, "B", 1)
    _put(res, "repeat_share", sum(repeat) / len(repeat), "ratio", len(repeat))

    res.layers["repeat_share"] = sum(repeat) / len(repeat)
    res.layers["first_query_p50_ms"] = median(_ms(first_lat)) if first_lat else 0.0
    res.layers["repeat_query_p50_ms"] = median(_ms(repeat_lat)) if repeat_lat else 0.0
    res.layers["engine_start_s"] = median(engine_starts)
    if tr:
        n_single, n_sharded = len(single_lat), len(sharded_lat)
        loads = _dur(_spans(tr, "query.IndexReader.load", "setup"))
        res.layers["reader_load_s"] = median(loads) if loads else 0.0
        decode_all = _spans(tr, "codec.decode_all", "single")
        res.layers["decode_all_ms"] = 1000 * sum(_dur(decode_all)) / n_single
        res.layers["decode_all_postings"] = sum(
            s[TAGS]["postings"] for s in decode_all) / n_single
        decode_for = _spans(tr, "codec.decode_for", "single")
        res.layers["decode_for_ms"] = 1000 * sum(_dur(decode_for)) / n_single
        for_ids = {id(s) for s in decode_for}
        res.layers["decode_for_postings"] = sum(
            s[TAGS]["postings"] for s in _spans(tr, "codec.decode_blocks", "single")
            if s[PARENT] >= 0 and id(tr.spans[s[PARENT]]) in for_ids) / n_single
        kids = tr.children()
        multi = [i for i, s in enumerate(tr.spans)
                 if s[NAME] == "query.score_maxscore" and s[END] is not None
                 and s[REQ] is not None and s[REQ][0] == "single" and s[TAGS]["terms"] > 1]
        rescored = sum(1 for i in multi
                       if any(tr.spans[c][NAME] == "codec.decode_for" for c in kids.get(i, ())))
        res.layers["maxscore_pruned_share"] = rescored / len(multi) if multi else 0.0
        res.layers["rank_topk_ms"] = 1000 * sum(
            _dur(_spans(tr, "bm25.rank_topk", "single"))) / n_single
        gets = _spans(tr, "sharded.ray_get", "sharded")
        res.layers["scatter_wait_ms"] = 1000 * sum(_dur(gets)) / n_sharded
        res.layers["shipped_postings_per_query"] = sum(s[TAGS]["rows"] for s in gets) / n_sharded
        res.layers["shard_calls_per_query"] = sum(s[TAGS]["calls"] for s in gets) / n_sharded
        combine = (_spans(tr, "sharded.combine", "msearch")
                   + _spans(tr, "sharded.fused_combine_rank", "msearch"))
        res.layers["combine_ms"] = 1000 * sum(_dur(combine)) / len(ms_walls)
    return res


# --------------------------------------------------------------------------
# nrt_upsert
# --------------------------------------------------------------------------

def run_nrt_upsert(ctx: Ctx) -> Result:
    """Stream deltas of new docs, upserts and deletes into a LiveIndex,
    refresh, search the chain, and compact when the chain is long."""
    g, res, tr = ctx.guard, Result(), ctx.tracer
    ctx.start_ray()
    cfg = IndexConfig(num_term_shards=TERM_SHARDS)
    lo = inputs.slice_start(ctx.seed, "nrt-base")
    base = inputs.good_docs(lo, lo + NRT_PAGES)
    base_dir = os.path.join(ctx.work, "base")
    inputs.write_docs(base_dir, base, 2)
    schedule = inputs.nrt_schedule(ctx.seed, base, NRT_ROUNDS, DELTA_DOCS,
                                   UPSERT_SHARE, DELETES_PER_ROUND)
    qrng = inputs.rng_for(ctx.seed, "nrt-queries")
    round_queries = [inputs.queries(qrng, QUERIES_PER_ROUND) for _ in schedule]
    gate_queries = inputs.queries(inputs.rng_for(ctx.seed, "nrt-gate"), GATE_QUERIES)

    # the live corpus the final chain must serve: last write wins, deletes
    # reach back only to writes before them
    corpus = dict(zip(base["doc_id"].to_pylist(), base["text"].to_pylist()))
    for rd in schedule:
        for d in rd["deletes"].tolist():
            corpus.pop(d, None)
        for p in rd["payloads"]:
            obj = json.loads(p)
            corpus[obj["doc_id"]] = obj["text"]

    setups: list[float] = []

    def bootstrap(name: str):
        if tr:
            tr.req = ("nrt-setup", len(setups))
        live = g.call(L.LiveIndex, os.path.join(ctx.work, name), cfg)
        if live is FAILED:
            return FAILED
        out, t = g.timed(live.bootstrap, base_dir, deadline_s=BUILD_DEADLINE_S)
        setups.append(t)
        return FAILED if out is FAILED else live

    for rep in range(SETUP_REPS - 1):
        live = bootstrap(f"setup{rep}")
        if rep == 0 and live is not FAILED:
            # one small refresh so the stream-parse task workers are up
            # before the timed rounds
            g.call(S.stream_ingest, schedule[0]["payloads"][:20],
                   os.path.join(ctx.work, "warm_stream"), "json", cfg)
            g.call(live.refresh, os.path.join(ctx.work, "warm_stream"))
        shutil.rmtree(os.path.join(ctx.work, f"setup{rep}"), ignore_errors=True)

    ingest_s, refresh_s, open_s, push_s, dps = [], [], [], [], []
    query_s, chain, compact_s = [], [], []
    live = bootstrap("live")
    stream_dir = os.path.join(ctx.work, "stream")
    refresh_bytes = compact_bytes = 0
    for r, rd in enumerate(schedule if live is not FAILED else []):
        if tr:
            tr.req = ("nrt-round", r)
        g.call(live.delete, rd["deletes"])
        _, t_in = g.timed(S.stream_ingest, rd["payloads"], stream_dir, "json", cfg)
        out, t_ref = g.timed(live.refresh, stream_dir, deadline_s=BUILD_DEADLINE_S)
        searcher, t_open = g.timed(live.searcher)
        if searcher is FAILED or out is FAILED:
            continue
        m = g.call(B.index_metrics, os.path.join(live.root, out["gen"]))
        refresh_bytes += 0 if m is FAILED else m["bytes_written"]
        ingest_s.append(t_in)
        refresh_s.append(t_ref)
        open_s.append(t_open)
        push_s.append(t_in + t_ref + t_open)
        dps.append(len(rd["payloads"]) / push_s[-1])
        for i, q in enumerate(round_queries[r]):
            if tr:
                tr.req = ("nrt-live", r * QUERIES_PER_ROUND + i)
            hit, t = g.timed(searcher.topk, q, 10, deadline_s=QUERY_DEADLINE_S)
            if hit is not FAILED:
                query_s.append(t)
                chain.append(len(searcher.readers))
        if tr:
            tr.req = ("nrt-compact", r)
        stats, t = g.timed(live.compact, MERGE_FACTOR, deadline_s=BUILD_DEADLINE_S)
        if stats is not None and stats is not FAILED:
            compact_s.append(t)
            m = g.call(B.index_metrics, live.generations()[-1])
            compact_bytes += 0 if m is FAILED else m["bytes_written"]

    if tr:
        tr.req = ("nrt-gate", 0)
    final = g.call(live.searcher) if live is not FAILED else FAILED
    if final is FAILED:
        res.gate.append("no searcher over the final chain")
    else:
        if len(final.readers) != 1:
            res.gate.append(f"final chain has {len(final.readers)} generations, expected 1")
        n_live = g.call(final.live_doc_count)
        if n_live != len(corpus):
            res.gate.append(f"live_doc_count {n_live} != {len(corpus)}")
        _oracle_gate(res, g, final.topk, corpus, gate_queries, "nrt_upsert")
    bpp = _bytes_per_posting(g, live.generations()[-1]) if live is not FAILED else None
    if not (push_s and query_s and compact_s):
        res.gate.append("no complete refresh/query/compaction")
        return res

    r50 = _timing(res, "refresh", push_s, "s")
    q50 = _timing(res, "live_query", query_s, pct=90)
    res.slots = {
        "setup_s": median(setups),
        # all refreshed docs over all refreshes' wall
        "docs_per_s": sum(d * t for d, t in zip(dps, push_s)) / sum(push_s),
        "bytes_per_posting": bpp,
        "op1_p50_ms": r50,
        "op2_p50_ms": q50,
        "batch_ms": median(_ms(compact_s)),
    }
    _put(res, "setup_s", median(setups), "s", len(setups), setups)
    _put(res, "compact_s", median(compact_s), "s", len(compact_s), compact_s)
    _put(res, "refresh_docs_per_s", res.slots["docs_per_s"], "docs/s", len(dps), dps)
    _put(res, "bytes_per_posting", bpp, "B", 1)

    res.layers["stream_ingest_s"] = median(ingest_s)
    res.layers["refresh_s"] = median(refresh_s)
    res.layers["searcher_open_s"] = median(open_s)
    res.layers["chain_length"] = median(chain)
    res.layers["compact_write_amp"] = compact_bytes / refresh_bytes if refresh_bytes else 0.0
    if tr:
        refreshes = {id(s) for s in _spans(tr, "live.refresh", "nrt-round")}
        builds = [s for s in _spans(tr, "live.build_index", "nrt-round")
                  if s[PARENT] >= 0 and id(tr.spans[s[PARENT]]) in refreshes]
        res.layers["refresh_build_s"] = median(_dur(builds)) if builds else 0.0
        merges = _dur(_spans(tr, "live.merge_indexes", "nrt-compact"))
        res.layers["merge_indexes_s"] = median(merges) if merges else 0.0
        loads = _dur(_spans(tr, "query.IndexReader.load", "nrt-round"))
        res.layers["reader_load_s"] = median(loads) if loads else 0.0
    return res


WORKLOADS = {"build": run_build, "serve": run_serve, "nrt_upsert": run_nrt_upsert}


def _postings(out, _args):
    return {"postings": len(out[0])}


def _terms(_out, args):
    return {"terms": len(Q.tokenize_query(args[1]))}


#: (target, span name, tagger) — the public functions a traced run times
TRACE_TARGETS = [
    ("pipelines.build:ingest_pages", "build.ingest_pages", None),
    ("pipelines.build:build_index", "build.build_index", None),
    ("pipelines.build:build_runs", "build.build_runs", None),
    ("pipelines.build:build_segments", "build.build_segments", None),
    ("pipelines.build:finalize", "build.finalize", None),
    ("state.manifest:commit", "manifest.commit", None),
    ("pipelines.query:IndexReader.__init__", "query.IndexReader.load", None),
    ("pipelines.query:QueryEngine.topk", "query.QueryEngine.topk", None),
    ("pipelines.query:QueryEngine._STRATEGIES[maxscore]", "query.score_maxscore", _terms),
    ("pipelines.query:score_taat", "query.score_taat", None),
    ("codec:PostingList.decode_all", "codec.decode_all", _postings),
    ("codec:PostingList.decode_for", "codec.decode_for", None),
    ("codec:PostingList.decode_blocks", "codec.decode_blocks", _postings),
    ("bm25:rank_topk", "bm25.rank_topk", None),
    ("pipelines.sharded_query:ShardedQueryEngine.__init__", "sharded.init", None),
    ("pipelines.sharded_query:ShardedQueryEngine.topk", "sharded.topk", None),
    ("pipelines.sharded_query:ShardedQueryEngine.msearch", "sharded.msearch", None),
    ("pipelines.sharded_query:dense_combine", "sharded.combine", None),
    ("pipelines.sharded_query:fused_combine_rank", "sharded.fused_combine_rank", None),
    ("sources.stream:stream_ingest", "stream.stream_ingest", None),
    ("pipelines.live:LiveIndex.bootstrap", "live.bootstrap", None),
    ("pipelines.live:LiveIndex.refresh", "live.refresh", None),
    ("pipelines.live:build_index", "live.build_index", None),
    ("pipelines.live:LiveIndex.delete", "live.delete", None),
    ("pipelines.live:LiveIndex.searcher", "live.searcher", None),
    ("pipelines.live:LiveSearcher.topk", "live.LiveSearcher.topk", None),
    ("pipelines.live:LiveIndex.compact", "live.compact", None),
    ("pipelines.live:merge_indexes", "live.merge_indexes", None),
]


def install_tracing(tracer: Tracer) -> None:
    for target, name, tag in TRACE_TARGETS:
        tracer.wrap(target, name, tag)
    tracer.wrap_ray_get("pipelines.sharded_query", "sharded.ray_get")
