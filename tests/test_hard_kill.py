"""Hard-kill recovery: SIGKILL a real build process mid-flight, resume
in a fresh session, and end with an index identical to a clean run —
the strongest form of the C1 exactly-once-output contract (the
simulated-failure path is covered in test_resume.py)."""

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.state import manifest as mf

CFG = IndexConfig(max_record_bytes=100_000, num_term_shards=8, batch_size=200)

BUILD_SCRIPT = """
import ray, sys
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})
from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8, batch_size=200)
B.build_index({docs!r}, {idx!r}, cfg, num_parts=6)
"""


# the mark needs pytest-timeout; without it, the subprocess phases are
# still bounded by their own waits: 120 s for the first run commit and
# 30 s for the killed process group to exit
@pytest.mark.timeout(300)
def test_sigkill_mid_build_then_resume(ray_session, tiny_pages, tmp_path):
    pages_dir, _ = tiny_pages
    B.ingest_pages(pages_dir, str(tmp_path / "ingest"), CFG)
    docs = B.good_docs_dir(str(tmp_path / "ingest"))
    idx = str(tmp_path / "idx")
    clean = str(tmp_path / "clean")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    script = BUILD_SCRIPT.format(repo=repo, docs=docs, idx=idx)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    man_dir = os.path.join(idx, "manifests")
    # wait for at least one committed run part, then SIGKILL the whole
    # process group (driver + its private ray cluster)
    deadline = time.time() + 120
    while time.time() < deadline:
        if glob.glob(os.path.join(man_dir, "runs-part-*.json")):
            break
        if proc.poll() is not None:
            break
        # poll fast: the first run commit precedes the index commit by
        # only ~0.2 s on a small build, and a kill that misses the
        # window skips the test
        time.sleep(0.01)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    committed_before = sorted(os.path.basename(p)
                              for p in glob.glob(os.path.join(man_dir, "*.json")))
    if mf.is_committed(man_dir, "index"):
        pytest.skip("subprocess finished before the kill landed (timing)")
    assert committed_before, "kill came too early (nothing committed)"

    # resume in THIS session → completes; clean run elsewhere → identical
    stats = B.build_index(docs, idx, CFG, num_parts=6)
    stats_clean = B.build_index(docs, clean, CFG, num_parts=6)
    assert stats == stats_clean
    a = sorted(glob.glob(os.path.join(idx, "segments", "*.parquet")))
    b = sorted(glob.glob(os.path.join(clean, "segments", "*.parquet")))
    assert mf.content_hash(a) == mf.content_hash(b)
