"""Serving engines leave no process behind once they and Ray shut down.

A child interpreter in its own session starts a local Ray session,
builds a small index and positional index, queries a
``ShardedQueryEngine`` and a ``ShardedPositionalEngine``, shuts both
down, shuts Ray down and exits. Every process it started (raylet, GCS,
workers, reader actors) carries the child's session id, so any process
still in that session afterwards outlived ``shutdown()`` and
``ray.shutdown()``.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=80 << 20)
ray.data.DataContext.get_current().enable_progress_bars = False

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.pipelines.positions import (
    ShardedPositionalEngine, build_positions, phrase_search)
from snowplow_elasticsearch_loader_ray.pipelines.sharded_query import (
    ShardedQueryEngine)

work = sys.argv[1]
words = "the quick brown fox data table scan merge sort stream".split()
rng = np.random.default_rng(7)
docs = f"{work}/docs.parquet"
pq.write_table(pa.table({
    "doc_id": pa.array(range(200), pa.int64()),
    "text": pa.array([" ".join(rng.choice(words, 8)) for _ in range(200)]),
}), docs)
cfg = IndexConfig(num_term_shards=8)
B.build_index(docs, f"{work}/idx", cfg)
build_positions(docs, f"{work}/pos", cfg)
# both pools live at once: each takes 0.8 of the 2 CPUs (2 actors x
# 0.4); an engine's default share alone is 0.8 of the whole cluster
sq = ShardedQueryEngine(f"{work}/idx", cpus_per_reader=0.4)
sp = ShardedPositionalEngine(f"{work}/pos", cpus_per_reader=0.4)
assert len(sq.readers) == len(sp.readers) == 2
assert len(sq.topk("quick fox", 5)[0]) == 5
assert [len(d) for d, _ in sq.msearch(["data", "sort scan"], 5)] == [5, 5]
assert len(phrase_search(sp, "quick brown")) > 0
sq.shutdown()
sp.shutdown()
ray.shutdown()
print("child done")
"""


def _stat(pid: str) -> tuple[str, int] | None:
    """(state, session id) of a live process, from ``/proc/<pid>/stat``;
    fields after the parenthesized command are state, ppid, pgrp,
    session."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
        return rest[0], int(rest[3])
    except (OSError, IndexError, ValueError):
        return None


def _in_session(sid: int) -> dict[int, str]:
    """pid → command line of every non-zombie process in session ``sid``."""
    out = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        st = _stat(p)
        if st is None or st[1] != sid or st[0] == "Z":
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                out[int(p)] = f.read().replace(b"\0", b" ").decode()[:120]
        except OSError:
            pass
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_engines_and_ray_shutdown_leave_no_process(tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # output goes to a file, not a pipe: a leftover process holding the
    # pipe open would make the wait below outlast it
    log = tmp_path / "child.log"
    with open(log, "w") as f:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path)], env=env,
            cwd=str(tmp_path), start_new_session=True,
            stdout=f, stderr=subprocess.STDOUT)
    sid = child.pid            # a new session's id is its leader's pid
    left: dict[int, str] = {}
    try:
        try:
            child.wait(timeout=180)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        deadline = time.monotonic() + 10.0
        left = _in_session(sid)
        while left and time.monotonic() < deadline:
            time.sleep(0.25)
            left = _in_session(sid)
    finally:
        for pid in _in_session(sid):   # never leak them past the test
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    out = log.read_text()
    assert child.returncode == 0 and "child done" in out, out[-3000:]
    assert not left, f"processes left 10 s after ray.shutdown(): {left}"
