"""``ray.data`` for the modules that run Ray Data pipelines, with its
path probe made thread-safe.

Ray Data's path resolution probes ``fsspec.implementations.http`` on
every read/write call; without aiohttp that import raises, and when two
threads race the probe the half-initialized module surfaces as a bare
ImportError that Ray's ModuleNotFoundError handler misses. A caller may
drive several pipelines from threads at once, so the probe is wrapped:
no-http-filesystem is the correct answer either way.

Importing ``ray.data`` costs about 0.3 s and 44 MB of RSS (it pulls in
pandas), so the package root, the index build and the query serving
modules never import it: only the modules that run Ray Data pipelines
import this one (``from .. import _raydata``), before their first read
or write.
"""

import ray.data  # noqa: F401
from ray.data.datasource import path_util as _path_util

_orig_is_http = _path_util._is_http_filesystem


def _is_http_filesystem_safe(fs):
    try:
        return _orig_is_http(fs)
    except ImportError:
        return False


_path_util._is_http_filesystem = _is_http_filesystem_safe
