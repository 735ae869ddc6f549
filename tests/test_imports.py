"""The index build and query serving modules do not import Ray Data.

Importing ``ray.data`` (which pulls in pandas) costs about 0.3 s and
44 MB of RSS in every process that imports the package, each reader actor
of a serving engine included. Only the modules that run Ray Data pipelines
import it, through ``_raydata``, which also makes its path probe
thread-safe.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_build_and_serving_leave_ray_data_unimported():
    code = (
        "import sys\n"
        "import ray, pyarrow\n"
        "import snowplow_elasticsearch_loader_ray\n"
        "from snowplow_elasticsearch_loader_ray.pipelines import (\n"
        "    build, query, sharded_query)\n"
        "print(sorted(m for m in ('ray.data', 'pandas') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_raydata_wraps_the_http_probe():
    """Importing ``_raydata`` installs the probe wrapper, and the wrapper
    answers "not an http filesystem" when the probe's import fails."""
    from ray.data.datasource import path_util

    from snowplow_elasticsearch_loader_ray import _raydata

    assert path_util._is_http_filesystem is _raydata._is_http_filesystem_safe

    def failing(fs):
        raise ImportError("fsspec.implementations.http")

    orig = _raydata._orig_is_http
    _raydata._orig_is_http = failing
    try:
        assert _raydata._is_http_filesystem_safe(object()) is False
    finally:
        _raydata._orig_is_http = orig


#: imported by every Python process of the child's Ray session (it
#: rides PYTHONPATH): leaves a ``<pid>`` file in ``$IMPORT_MARKS_DIR``
#: when that process imports ``ray.data``
SITECUSTOMIZE = """
import os
import sys


class _MarkRayData:
    def find_spec(self, name, path=None, target=None):
        if name == "ray.data":
            open(os.path.join(os.environ["IMPORT_MARKS_DIR"],
                              str(os.getpid())), "w").close()
        return None


sys.meta_path.insert(0, _MarkRayData())
"""

BUILD_CHILD = r"""
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=80 << 20)
from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B

work = sys.argv[1]
os.makedirs(f"{work}/docs")
words = "the quick brown fox data table scan merge sort stream".split()
for k in range(3):
    pq.write_table(pa.table({
        "doc_id": pa.array(range(100 * k, 100 * k + 100), pa.int64()),
        "text": [" ".join(words[(i + j) % 10] for j in range(6))
                 for i in range(100)],
        "lang": ["en"] * 100,
    }), f"{work}/docs/part-{k}.parquet")
stats = B.build_index(f"{work}/docs", f"{work}/idx",
                      IndexConfig(num_term_shards=4, inline_build_max_docs=0))
assert stats["n_docs"] == 300
ray.shutdown()
print(os.getpid())
"""


def test_build_workers_leave_ray_data_unimported(tmp_path):
    """The distributed build's tasks return plain Python and numpy
    values, so no worker of a fresh session imports ``ray.data`` (a
    returned Arrow table would: Ray's Arrow serializer registers its
    tensor extension types, about 87 ms per fresh worker)."""
    hook, marks = tmp_path / "hook", tmp_path / "marks"
    hook.mkdir()
    marks.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), ROOT]),
               IMPORT_MARKS_DIR=str(marks))
    out = subprocess.run([sys.executable, "-c", BUILD_CHILD, str(tmp_path)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    driver = out.stdout.strip().splitlines()[-1]
    assert sorted(os.listdir(marks)) in ([], [driver]), \
        "a build worker imported ray.data"


LIVE_CHILD = r"""
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=80 << 20)
from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines.live import LiveIndex
from snowplow_elasticsearch_loader_ray.sources.stream import stream_ingest

work = sys.argv[1]
words = "the quick brown fox data table scan merge sort stream".split()
text = lambda i: " ".join(words[(i + j) % 10] for j in range(6))
os.makedirs(f"{work}/docs")
pq.write_table(pa.table({"doc_id": pa.array(range(100), pa.int64()),
                         "text": [text(i) for i in range(100)]}),
               f"{work}/docs/part-0.parquet")
cfg = IndexConfig(num_term_shards=4, flush_max_bytes=2000,
                  flush_max_delay_s=1e9)
live = LiveIndex(f"{work}/live", cfg)
live.bootstrap(f"{work}/docs")
stream_ingest(iter(json.dumps({"doc_id": i, "text": text(i + 3)}).encode()
                   for i in range(50, 150)), f"{work}/stream",
              purpose="json", cfg=cfg)
assert live.refresh(f"{work}/stream")["n_docs"] == 100
assert live.delete_by_query("quick brown")["n_ids"] > 0
assert live.compact(force=True)["n_docs"] > 0
assert live.update_by_query("data table", lambda t: t + " zz")["n_docs"] > 0
assert len(live.searcher().topk("zz", 5)[0]) == 5
ray.shutdown()
print(sorted(m for m in ("ray.data",) if m in sys.modules))
print(os.getpid())
"""


def test_live_chain_leaves_ray_data_unimported(tmp_path):
    """Refresh, delete, compaction and update_by_query run on plain
    tasks that exchange Arrow tables as IPC bytes, so neither the driver
    nor any worker of a fresh session imports ``ray.data``."""
    hook, marks = tmp_path / "hook", tmp_path / "marks"
    hook.mkdir()
    marks.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), ROOT]),
               IMPORT_MARKS_DIR=str(marks))
    out = subprocess.run([sys.executable, "-c", LIVE_CHILD, str(tmp_path)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    imported, driver = out.stdout.strip().splitlines()[-2:]
    assert imported == "[]", "the live chain's driver imported ray.data"
    assert sorted(os.listdir(marks)) in ([], [driver]), \
        "a live-chain worker imported ray.data"
