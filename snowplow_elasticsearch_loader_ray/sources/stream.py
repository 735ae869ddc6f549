"""Streaming micro-batch ingest: the unbounded-source surface (S1+A1).

The reference consumes an unbounded Kinesis stream and flushes
super-batches on size OR age (``BatchUp.withTimeout``,
``Processing.scala:80``). The bounded-corpus pipelines in
``pipelines/`` cover the size half via Ray Data block/batch sizing;
this surface covers the TIME half for a tailing source: a payload
iterator drives ``stages.batchup.BatchUp`` and every flushed
micro-batch runs the purpose transform and commits its own parquet
part + manifest (checkpoint per micro-batch — the KCL-checkpoint
grain, C1).

The source loop is driver-side BY NATURE (a stream tail is a single
cursor — same as the reference's one consumer per shard); the
per-batch transform work is the same vectorized ``PurposeTransform``
the batch pipelines use, and on a real deployment each Kinesis shard
runs one such loop (shard-parallel, like KCL workers).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig, DEFAULT_CONFIG
from ..stages.batchup import BatchUp
from ..stages.transforms import PurposeTransform
from ..state import manifest as mf


def _resume_cursor(man_dir: str) -> tuple[int, int]:
    """(next batch index, last checkpointed sequence number) from the
    committed batch manifests — the KCL lease-table read at startup."""
    k0, last_seq = 0, -1
    for name, m in mf.load_all(man_dir, prefix="batch-").items():
        k0 = max(k0, int(m["batch"]) + 1)
        last_seq = max(last_seq, int(m.get("last_seq", -1)))
    return k0, last_seq


def stream_identity(stream_dir: str) -> str:
    """Stable identity of a stream directory (the KCL stream-name
    analogue). Consumers key checkpoint state by it, so it must be
    unique across streams feeding one index: basename alone collides
    for same-named dirs under different parents, so the identity is
    ``<basename>-<hash of the creation-time abspath>``, recorded in the
    stream's manifests on first ingest — a recorded id survives the
    directory being moved; unrecorded (pre-upgrade) streams fall back
    to computing it from the current abspath."""
    import hashlib

    man_dir = os.path.join(stream_dir, "manifests")
    if mf.is_committed(man_dir, "stream-id"):
        return mf.load(man_dir, "stream-id")["id"]
    ap = os.path.abspath(os.path.normpath(stream_dir))
    tag = hashlib.blake2b(ap.encode(), digest_size=4).hexdigest()
    return f"{os.path.basename(ap)}-{tag}"


def _ensure_stream_id(out_dir: str) -> None:
    man_dir = os.path.join(out_dir, "manifests")
    if not mf.is_committed(man_dir, "stream-id"):
        mf.commit(man_dir, "stream-id",
                  {"stage": "stream-id", "id": stream_identity(out_dir)})


def stream_ingest(payloads: Iterable, out_dir: str,
                  purpose: str = "json",
                  cfg: IndexConfig = DEFAULT_CONFIG,
                  clock: Callable[[], float] = time.monotonic,
                  initial_position: str | tuple[str, float] = "TRIM_HORIZON",
                  tail: bool = False,
                  ) -> dict:
    """Consume a payload iterator into micro-batch-committed records.

    ``payloads`` yields raw ``bytes`` or ``(seq, ts, bytes)`` records
    (a Kinesis shard's sequence number + approximateArrivalTimestamp);
    bare bytes are auto-sequenced CONTINUING past the checkpointed
    sequence (a bare-bytes source is a tail — each run is assumed to
    deliver only new records, like ``tail -f``; it has no durable
    sequence for replay dedup) and stamped with ``clock()`` as their
    arrival ts. Record ``ts`` values and ``clock`` must share a time
    base (epoch records → pass ``clock=time.time``).

    ``initial_position`` mirrors ``input.initialPosition``
    (``config.aws.reference.hocon:16-23``): where to start **the first
    time the loader subscribes** —

    - ``"TRIM_HORIZON"`` — oldest available record (default);
    - ``"LATEST"`` — only records arriving from now on: records whose
      arrival ts predates the subscription instant (``clock()`` at
      first startup) are skipped;
    - ``("AT_TIMESTAMP", ts)`` — records with arrival ts >= ``ts``.

    The resolved position commits to a ``position`` manifest on first
    subscription, so a rerun after a crash (or after a first run that
    flushed zero batches) applies the SAME subscription instant instead
    of silently taking a new one. On SUBSEQUENT runs the loader always
    resumes from where it last checkpointed (the hocon's documented
    rule): records at or before the max committed sequence number are
    skipped regardless of ``initial_position``, and uncommitted tail
    parts are overwritten — the at-least-once KCL grain.

    ``tail=True`` enforces the maxDelay flush in real time while the
    payload iterator blocks (a reader thread + timed queue reads —
    requires a wall clock; see ``BatchUp.feed``). The default
    pull-driven mode is deterministic for bounded replays and
    scripted-clock tests.

    Returns counters {good, <error statuses>, batches, flush_size,
    flush_delay, checkpoints, skipped_resume, skipped_position}.
    """
    rec_dir = os.path.join(out_dir, "records")
    man_dir = os.path.join(out_dir, "manifests")
    os.makedirs(rec_dir, exist_ok=True)
    _ensure_stream_id(out_dir)
    transform = PurposeTransform(purpose)
    batcher = BatchUp(cfg.flush_max_bytes, cfg.flush_max_delay_s, clock)
    counters: dict[str, int] = {"batches": 0, "flush_size": 0, "flush_delay": 0,
                                "checkpoints": 0, "skipped_resume": 0,
                                "skipped_position": 0}

    k0, last_committed_seq = _resume_cursor(man_dir)
    if mf.is_committed(man_dir, "position"):
        # the subscription instant is durable: reruns (including after
        # a zero-batch first run) keep the original position instead of
        # silently re-subscribing "now"
        stored = mf.load(man_dir, "position")["min_ts"]
        min_ts = -float("inf") if stored is None else float(stored)
    else:
        if k0 > 0:
            # checkpoints without a position manifest: a dir written
            # before the manifest existed. It has subscribed already, so
            # it resumes from its checkpoint alone (resume-only)
            # instead of re-resolving the position to a new "now"
            min_ts = -float("inf")
        elif initial_position == "LATEST":
            min_ts = clock()
        elif (isinstance(initial_position, tuple)
              and initial_position[0] == "AT_TIMESTAMP"):
            min_ts = float(initial_position[1])
        elif initial_position == "TRIM_HORIZON":
            min_ts = -float("inf")
        else:
            raise ValueError(
                f"unknown initialPosition {initial_position!r}")
        mf.commit(man_dir, "position", {
            "stage": "stream-position",
            "min_ts": None if min_ts == -float("inf") else min_ts,
            "initial_position": (list(initial_position)
                                 if isinstance(initial_position, tuple)
                                 else initial_position)})

    def _cursor_filter():
        """Normalize records and apply cursor semantics: resume beats
        initial position. Yields ((seq, payload), n_bytes) so each
        flushed batch carries its own exact last sequence —
        checkpointing a batch can never cover a record that only sits
        in the batcher (at-least-once)."""
        auto_seq = last_committed_seq     # bare bytes: continue past
        for item in payloads:             # the checkpoint, never replay
            if isinstance(item, bytes):
                auto_seq += 1
                seq, ts, payload = auto_seq, clock(), item
            else:
                seq, ts, payload = int(item[0]), float(item[1]), item[2]
            if seq <= last_committed_seq:
                counters["skipped_resume"] += 1
                continue
            if ts < min_ts:
                counters["skipped_position"] += 1
                continue
            yield (seq, payload), len(payload)

    # checkpoint debounce (``debounceCheckpoints`` 10 s,
    # config.aws.reference.hocon:55): parquet parts land per micro-batch
    # (data is never withheld) but their MANIFESTS commit at most every
    # ``checkpoint_debounce_s`` — a crash replays the uncommitted tail
    # from the source cursor (the reference's at-least-once KCL grain).
    pending: list[tuple[str, dict]] = []
    last_ckpt = [-float("inf")]

    def _flush_checkpoints() -> None:
        for name, payload in pending:
            mf.commit(man_dir, name, payload)
        if pending:
            counters["checkpoints"] += 1
            pending.clear()
        last_ckpt[0] = clock()

    for k, batch in enumerate(batcher.feed(_cursor_filter(), timely=tail),
                              start=k0):
        out = transform(pa.table({
            "payload": pa.array([p for _s, p in batch.items], pa.binary())}))
        part = os.path.join(rec_dir, f"batch-{k:06d}.parquet")
        tmp = part + ".tmp"
        pq.write_table(out, tmp)
        os.replace(tmp, part)
        for status in out["status"].to_pylist():
            counters[status] = counters.get(status, 0) + 1
        counters["batches"] += 1
        if batch.reason in ("size", "delay"):
            counters[f"flush_{batch.reason}"] += 1
        pending.append((f"batch-{k:06d}", {
            "stage": "stream-ingest",
            "batch": k,
            "rows": out.num_rows,
            "n_bytes": batch.n_bytes,
            "flush_reason": batch.reason,
            "last_seq": max(s for s, _p in batch.items),
            "outputs": [os.path.relpath(part, out_dir)],
        }))
        if clock() - last_ckpt[0] >= cfg.checkpoint_debounce_s:
            _flush_checkpoints()
    _flush_checkpoints()                     # end of stream: commit the tail
    counters.setdefault("good", 0)
    mf.commit(man_dir, "stream", {"stage": "stream-ingest", "counters": counters})
    return counters
