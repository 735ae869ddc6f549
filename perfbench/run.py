"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,serve,nrt_upsert} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is a report with every workload metric
under its own name, unit and sample count, the correctness-gate findings
and the host facts. The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "snowplow_elasticsearch_loader_ray"

#: hard cap on one run: every program call's deadline is clipped to it
RUN_LIMIT_S = 170.0
OBJECT_STORE_BYTES = 300 << 20
#: AF_UNIX socket paths are capped at 107 bytes; Ray's session and socket
#: names add up to about 70 bytes to its temp dir
RAY_SOCKET_SLACK = 70
#: idle task workers stay up for the whole run: Ray's default kills them
#: after 1 s idle, so whether a refresh or compaction pays a worker start
#: (an interpreter plus the package import) would hang on how long the
#: benchmark paused before it
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}

END_TO_END = {
    "setup_s": "s", "docs_per_s": "docs/s", "bytes_per_posting": "B",
    "op1_p50_ms": "ms", "op2_p50_ms": "ms", "batch_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ingest_pages_s": "s", "dead_letter_rows": "count", "build_runs_s": "s",
    "run_rows": "count", "build_segments_s": "s", "finalize_s": "s",
    "segment_bytes": "B", "postings": "count", "build_layers_coverage": "ratio",
    "manifest_commits": "count", "manifest_commit_s": "s",
    "reader_load_s": "s", "engine_start_s": "s",
    "decode_all_ms": "ms", "decode_all_postings": "count",
    "decode_for_ms": "ms", "decode_for_postings": "count",
    "maxscore_pruned_share": "ratio", "rank_topk_ms": "ms",
    "scatter_wait_ms": "ms", "shipped_postings_per_query": "count",
    "shard_calls_per_query": "count", "combine_ms": "ms",
    "repeat_share": "ratio", "first_query_p50_ms": "ms", "repeat_query_p50_ms": "ms",
    "stream_ingest_s": "s", "refresh_s": "s", "refresh_build_s": "s",
    "searcher_open_s": "s", "chain_length": "count",
    "merge_indexes_s": "s", "compact_write_amp": "ratio",
    "trace_overhead_pct": "%", "spans": "count",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "serve", "nrt_upsert"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: no {PACKAGE}/ next to perfbench/ in {ROOT}", file=sys.stderr)
        return 2
    sys.path[0] = ROOT          # the repo root, not perfbench/
    # Ray workers inherit the environment at ray.init: they import the
    # package from this checkout and use the same Arrow I/O pool
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.setdefault("ARROW_IO_THREADS", "2")

    import ray

    from perfbench import measure
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Ctx, install_tracing

    state_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state_dir, f"work-{os.getpid()}")
    ray_tmp = os.path.join(state_dir, "ray")
    ray_tmp_in_checkout = len(ray_tmp) + RAY_SOCKET_SLACK <= 107
    cpus = measure.nproc()
    host = {"nproc": cpus, "ray_cpus": cpus,
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "arrow_io_threads": os.environ["ARROW_IO_THREADS"],
            "loadavg_before": measure.loadavg(),
            "ray_temp_in_checkout": ray_tmp_in_checkout}

    def start_ray() -> None:
        if ray.is_initialized():
            return
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=ray_tmp if ray_tmp_in_checkout else None,
                 _system_config=RAY_SYSTEM_CONFIG)
        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop_ray() -> None:
        if ray.is_initialized():
            ray.shutdown()

    guard = measure.Guard(time.monotonic() + RUN_LIMIT_S)
    run = WORKLOADS[args.workload]
    tracer = None
    shutil.rmtree(work, ignore_errors=True)
    try:
        with measure.RssSampler() as rss:
            ctx = Ctx(args.seed, args.seconds, os.path.join(work, "pass0"), guard,
                      start_ray, stop_ray)
            res = run(ctx)
            if args.trace:
                # same inputs again, wrappers on; the difference to the
                # untraced pass above is the tracing overhead
                tracer = Tracer()
                install_tracing(tracer)
                ctx.work, ctx.tracer = os.path.join(work, "pass1"), tracer
                untraced, res = res, run(ctx)
                tracer.restore()
                res.gate = untraced.gate + res.gate
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    host["loadavg_after"] = measure.loadavg()
    # host speed as the probes saw it; every timing is scaled by
    # REF_PROBE_S / (median of the probes around it)
    probes = guard.clock.probes
    host["probes"] = len(probes)
    host["probe_p50_ms"] = 1000.0 * measure.median(probes) if probes else None
    host["probe_wall_p50_ms"] = (1000.0 * measure.median(guard.clock.walls)
                                 if probes else None)
    host["ref_probe_ms"] = 1000.0 * measure.REF_PROBE_S

    slots = dict(res.slots, peak_rss_mb=rss.peak_bytes / 2**20)
    correct = (not res.gate and all(slots.get(k) is not None for k in END_TO_END))
    report = dict(res.report)
    report["peak_rss_mb"] = {"value": slots["peak_rss_mb"], "unit": "MB", "n": 1}
    report["error_rate"] = {"value": guard.failed / max(1, guard.attempted),
                            "unit": "ratio", "n": guard.attempted}
    line = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "host": host, "metrics": report, "gate_failures": res.gate,
            "errors": guard.errors}
    if tracer is not None:
        layers = dict(res.layers)
        base = untraced.slots.get("op1_p50_ms")
        if base and slots.get("op1_p50_ms"):
            layers["trace_overhead_pct"] = 100.0 * (slots["op1_p50_ms"] - base) / base
        layers["spans"] = len(tracer.spans)
        line["absent"] = tracer.absent
        line["self_s"] = {k: round(v, 4) for k, v in sorted(
            tracer.self_times().items(), key=lambda kv: -kv[1])}
        line["trace_overhead_pct"] = {
            k: 100.0 * (slots[k] - v) / v for k, v in untraced.slots.items()
            if v and slots.get(k) is not None}
        os.makedirs(os.path.join(state_dir, "traces"), exist_ok=True)
        tracer.dump(os.path.join(state_dir, "traces",
                                 f"{args.workload}-seed{args.seed}.json"))
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(slots[k]), "unit": u}
                   for k, u in END_TO_END.items() if slots.get(k) is not None}
    print(json.dumps(line))
    print(json.dumps({"correct": correct, "attempted": guard.attempted,
                      "failed": guard.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
