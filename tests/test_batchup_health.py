"""A1 size+time batching + H1 health probe semantics (fake clocks).

Mirrors the reference's BatchUp.withTimeout contract
(Processing.scala:80, reference.conf:27-30) and the health probe's
failure / unhealthy-latency rules (RuntimeService.scala,
reference.conf:49-52) deterministically — no sleeps.
"""

import os

import pytest

from snowplow_elasticsearch_loader_ray.config import (
    IndexConfig, ShardSuffixConfig)
from snowplow_elasticsearch_loader_ray.health import HealthMonitor
from snowplow_elasticsearch_loader_ray.stages.batchup import BatchUp


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_batchup_flushes_on_size():
    clk = FakeClock()
    b = BatchUp(max_bytes=10, max_delay_s=100.0, clock=clk)
    assert b.add("a", 4) is None
    assert b.add("b", 4) is None
    out = b.add("c", 4)              # 12 >= 10: flush INCLUDING the tripper
    assert out is not None and out.items == ["a", "b", "c"]
    assert out.reason == "size" and out.n_bytes == 12
    assert b.close() is None         # nothing left


def test_batchup_flushes_on_delay():
    clk = FakeClock()
    b = BatchUp(max_bytes=1_000, max_delay_s=1.0, clock=clk)
    assert b.add("a", 1) is None
    clk.t = 0.5
    assert b.poll() is None          # not old enough
    clk.t = 1.0
    out = b.poll()                   # age == maxDelay: flush partial
    assert out is not None and out.items == ["a"] and out.reason == "delay"
    assert b.poll() is None          # empty batcher never times out
    clk.t = 50.0
    assert b.poll() is None


def test_batchup_age_starts_at_first_item():
    clk = FakeClock()
    b = BatchUp(max_bytes=1_000, max_delay_s=1.0, clock=clk)
    clk.t = 10.0
    b.add("a", 1)
    clk.t = 10.9
    assert b.poll() is None
    clk.t = 11.0
    assert b.poll().items == ["a"]


def test_batchup_oversized_single_item_flushes_alone():
    b = BatchUp(max_bytes=10, max_delay_s=100.0, clock=FakeClock())
    out = b.add("huge", 50)
    assert out.items == ["huge"] and out.reason == "size"


def test_batchup_feed_and_close():
    clk = FakeClock()
    b = BatchUp(max_bytes=8, max_delay_s=100.0, clock=clk)
    batches = list(b.feed((c, 4) for c in "abcde"))
    assert [x.items for x in batches] == [["a", "b"], ["c", "d"], ["e"]]
    assert [x.reason for x in batches] == ["size", "size", "close"]


def test_stream_ingest_micro_batches(tmp_path):
    """The unbounded-source surface: size-flushed micro-batches each
    commit a parquet part + manifest; counters add up."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    payloads = [b'{"n":%d}' % i for i in range(10)] + [b"{bad"]
    cfg = IndexConfig(flush_max_bytes=30, flush_max_delay_s=100.0)
    out = str(tmp_path / "stream")
    counters = stream_ingest(iter(payloads), out, purpose="json", cfg=cfg,
                             clock=FakeClock())
    assert counters["good"] == 10 and counters["parse_error"] == 1
    assert counters["batches"] == counters["flush_size"] + 1  # + close tail
    parts = sorted(os.listdir(os.path.join(out, "records")))
    assert len(parts) == counters["batches"]
    mans = os.listdir(os.path.join(out, "manifests"))
    # + stream rollup + stream identity + the durable subscription position
    assert len(mans) == counters["batches"] + 3


def test_stream_checkpoint_debounce(tmp_path):
    """debounceCheckpoints (config.aws.reference.hocon:55): manifests
    commit at most every debounce interval (data parts still land per
    micro-batch); the end-of-stream flush commits the tail, so every
    batch is checkpointed by close."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    clk = FakeClock()
    sizes_times = [(b'{"n":%d}' % i, t)
                   for i, t in enumerate([0, 1, 2, 11, 12, 23, 24, 25])]

    def gen():
        for p, t in sizes_times:
            clk.t = float(t)
            yield p

    # every payload size-flushes its own batch (max_bytes tiny)
    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1000.0,
                      checkpoint_debounce_s=10.0)
    out = str(tmp_path / "debounce")
    counters = stream_ingest(gen(), out, purpose="json", cfg=cfg, clock=clk)
    assert counters["batches"] == 8
    # flushes: first batch (t=0, since -inf), t=11, t=23, + close tail
    assert counters["checkpoints"] == 4
    mans = [m for m in os.listdir(os.path.join(out, "manifests"))
            if m.startswith("batch-")]
    assert len(mans) == 8                     # close flush checkpointed all


def test_health_probe_failure_and_recovery():
    clk = FakeClock()
    h = HealthMonitor(unhealthy_latency_s=120.0, clock=clk)
    assert h.healthy()
    h.report_failure("bad-sink", "boom")
    assert not h.healthy()
    h.report_success("bad-sink")                  # same service recovers
    assert h.healthy()


def test_health_probe_unhealthy_latency():
    clk = FakeClock()
    h = HealthMonitor(unhealthy_latency_s=120.0, clock=clk)
    op = h.begin("index-write")
    clk.t = 119.0
    assert h.healthy()
    clk.t = 121.0
    assert not h.healthy()                        # stuck op > unhealthyLatency
    h.end(op, ok=True)
    assert h.healthy()                            # finished: healthy again
    assert h.status()["success"] == 1


def test_query_engine_health_wiring():
    """QueryEngine exposes the probe and stays healthy through queries."""
    import ray
    from snowplow_elasticsearch_loader_ray.driver_queries import _ensure_index
    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    eng = QueryEngine(_ensure_index("/root/testdata/sf0.001"))
    eng.topk("data", 5)
    assert eng.healthy()
    assert eng.health.status()["success"] == 1


def test_shard_suffix_config_whitelist():
    ShardSuffixConfig(field_name="warc_ts", date_format="-%Y-%m")
    with pytest.raises(ValueError):
        ShardSuffixConfig(field_name="url")


def test_stream_initial_position(tmp_path):
    """input.initialPosition parity (config.aws.reference.hocon:16-23):
    LATEST skips the pre-subscription backlog, AT_TIMESTAMP starts at
    the given arrival ts, TRIM_HORIZON takes everything."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    # (seq, arrival_ts, payload): seqs 0-9 arrive at ts 0,10,...,90
    recs = [(i, 10.0 * i, b'{"n":%d}' % i) for i in range(10)]
    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1e9)

    c = stream_ingest(iter(recs), str(tmp_path / "th"), cfg=cfg,
                      clock=FakeClock(), initial_position="TRIM_HORIZON")
    assert c["good"] == 10 and c["skipped_position"] == 0

    clk = FakeClock(); clk.t = 45.0            # subscribe mid-stream
    c = stream_ingest(iter(recs), str(tmp_path / "latest"), cfg=cfg,
                      clock=clk, initial_position="LATEST")
    assert c["good"] == 5 and c["skipped_position"] == 5   # ts 50..90

    c = stream_ingest(iter(recs), str(tmp_path / "at"), cfg=cfg,
                      clock=FakeClock(),
                      initial_position=("AT_TIMESTAMP", 70.0))
    assert c["good"] == 3 and c["skipped_position"] == 7   # ts 70,80,90


def test_stream_resume_from_checkpoint(tmp_path):
    """On subsequent runs the loader always resumes from the last
    checkpointed sequence, regardless of initialPosition (the hocon's
    documented rule); replayed records are skipped, new ones land in
    fresh batch parts."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest
    from snowplow_elasticsearch_loader_ray.state import manifest as mf

    recs = [(i, 0.0, b'{"n":%d}' % i) for i in range(12)]
    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1e9)
    out = str(tmp_path / "stream")

    c1 = stream_ingest(iter(recs[:7]), out, cfg=cfg, clock=FakeClock())
    assert c1["good"] == 7
    # full replay + 5 new records: the 7 checkpointed seqs are skipped
    # even under LATEST (resume beats initial position on rerun)
    clk = FakeClock(); clk.t = 1e9
    c2 = stream_ingest(iter(recs), out, cfg=cfg, clock=clk,
                       initial_position="LATEST")
    assert c2["skipped_resume"] == 7 and c2["good"] == 5
    assert c2["skipped_position"] == 0
    mans = mf.load_all(os.path.join(out, "manifests"), prefix="batch-")
    assert len(mans) == 12                     # 7 + 5, no index collisions
    assert max(m["last_seq"] for m in mans.values()) == 11


def test_stream_tail_mode_flushes_partial_batch_by_delay(tmp_path):
    """tail=True: a partial batch flushes within max_delay_s even while
    the payload iterator BLOCKS (the reference's real maxDelay
    contract); the pull mode would withhold it until the next item."""
    import threading
    import time as _time

    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    first_flushed = threading.Event()

    def gen():
        yield b'{"n":0}'
        # block well past max_delay; the delay flush must land BEFORE
        # this returns
        _time.sleep(0.6)
        yield b'{"n":1}'

    cfg = IndexConfig(flush_max_bytes=10_000, flush_max_delay_s=0.1,
                      checkpoint_debounce_s=0.0)
    out = str(tmp_path / "tailmode")

    done = {}

    def run():
        done["counters"] = stream_ingest(gen(), out, purpose="json",
                                         cfg=cfg, tail=True)

    t = threading.Thread(target=run)
    t.start()
    deadline = _time.monotonic() + 0.5
    rec_dir = os.path.join(out, "records")
    while _time.monotonic() < deadline:
        if os.path.isdir(rec_dir) and os.listdir(rec_dir):
            first_flushed.set()
            break
        _time.sleep(0.02)
    t.join(timeout=10)
    assert first_flushed.is_set(), \
        "delay flush did not land while the source was blocking"
    c = done["counters"]
    assert c["good"] == 2 and c["flush_delay"] >= 1


def test_stream_bare_bytes_resume_ingests_new_records(tmp_path):
    """A resumed bare-bytes stream (a tail) must INGEST newly delivered
    lines — the auto-sequence continues past the checkpoint instead of
    restarting at 0 and dropping everything as already-seen."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1e9)
    out = str(tmp_path / "bare")
    c1 = stream_ingest(iter([b'{"n":0}', b'{"n":1}']), out, cfg=cfg,
                       clock=FakeClock())
    assert c1["good"] == 2 and c1["skipped_resume"] == 0
    c2 = stream_ingest(iter([b'{"n":2}', b'{"n":3}', b'{"n":4}']), out,
                       cfg=cfg, clock=FakeClock())
    assert c2["good"] == 3 and c2["skipped_resume"] == 0


def test_stream_position_is_durable_across_zero_batch_runs(tmp_path):
    """The subscription instant commits on FIRST subscription: a LATEST
    run that admits nothing must not re-subscribe 'now' on the next
    run — records that arrived between the runs are ingested."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1e9)
    out = str(tmp_path / "durpos")
    clk = FakeClock(); clk.t = 100.0
    # run 1: whole backlog predates the subscription instant (t=100)
    c1 = stream_ingest(iter([(i, 10.0 * i, b'{"n":%d}' % i)
                             for i in range(5)]), out, cfg=cfg,
                       clock=clk, initial_position="LATEST")
    assert c1["good"] == 0 and c1["skipped_position"] == 5
    # run 2 at a LATER clock: records arrived at ts 150 (after the
    # original subscription) must be ingested, not re-filtered by a
    # fresh clock() = 500
    clk.t = 500.0
    c2 = stream_ingest(iter([(9, 150.0, b'{"n":9}')]), out, cfg=cfg,
                       clock=clk, initial_position="LATEST")
    assert c2["good"] == 1 and c2["skipped_position"] == 0


def test_stream_legacy_dir_without_position_resumes_from_checkpoint(tmp_path):
    """A dir with checkpoints but no ``position`` manifest (written
    before the manifest existed) has subscribed already: a LATEST rerun
    resumes from its checkpoint alone instead of re-subscribing 'now'
    and position-skipping records that arrived between the runs."""
    from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest
    from snowplow_elasticsearch_loader_ray.state import manifest as mf

    cfg = IndexConfig(flush_max_bytes=1, flush_max_delay_s=1e9)
    out = str(tmp_path / "legacy")
    man_dir = os.path.join(out, "manifests")
    clk = FakeClock()
    c1 = stream_ingest(iter([(i, 10.0 * i, b'{"n":%d}' % i)
                             for i in range(5)]), out, cfg=cfg,
                       clock=clk, initial_position="LATEST")
    assert c1["good"] == 5
    os.remove(mf.manifest_path(man_dir, "position"))     # legacy layout
    clk.t = 500.0
    c2 = stream_ingest(iter([(i, 10.0 * i, b'{"n":%d}' % i)
                             for i in range(5)] + [(9, 150.0, b'{"n":9}')]),
                       out, cfg=cfg, clock=clk, initial_position="LATEST")
    assert c2["good"] == 1 and c2["skipped_position"] == 0
    assert c2["skipped_resume"] == 5
    # the resume-only position is now durable for later runs
    assert mf.load(man_dir, "position")["min_ts"] is None
