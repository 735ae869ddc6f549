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
        "    build, grid_query, query, sharded_query)\n"
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
