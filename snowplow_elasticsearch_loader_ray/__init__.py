"""Ray-Data-native fulltext indexing + BM25 query engine.

Plays the document-indexing role of the Snowplow→Elasticsearch loader
(reference: /root/reference, surveyed in SURVEY.md) re-expressed
Ray-Data-first: ``ray.data.Dataset`` pipelines of ``map_batches`` over
zero-copy Arrow batches build a compressed inverted index (SPIMI runs →
materialized shard-clustered exchange → delta/FOR-encoded posting
segments with block-max metadata) and serve BM25 top-k via
term-at-a-time numpy scoring or block-max WAND.

Package layout
--------------
- ``tokenizer``   Arrow-kernel tokenization (the P2-analogue hot path)
- ``codec``       posting-list block codec (delta + frame-of-reference)
- ``bm25``        the one shared BM25 formula (engine + oracle use it)
- ``sources/``    parquet readers + the deterministic corpus generator
- ``stages/``     map_batches stages: extract, postings, segment encode
- ``state/``      per-partition manifests (exactly-once commit), metrics
- ``pipelines/``  build_index, query engine, dedup, ANN, text analysis
"""

__version__ = "0.1.0"

# Ray Data's path resolution probes `fsspec.implementations.http` on
# every read/write call; without aiohttp that import raises, and when
# two threads race the probe the half-initialized module surfaces as a
# bare ImportError that Ray's ModuleNotFoundError handler misses. The
# pipelines call read_parquet/write_parquet, and a caller may drive
# several of them from threads at once. Wrap the probe so that is safe:
# no-http-filesystem is the correct answer either way.
from ray.data.datasource import path_util as _ray_path_util  # noqa: E402

_orig_is_http = _ray_path_util._is_http_filesystem


def _is_http_filesystem_safe(fs):  # pragma: no cover - exercised via threads
    try:
        return _orig_is_http(fs)
    except ImportError:
        return False


_ray_path_util._is_http_filesystem = _is_http_filesystem_safe

from .config import DedupConfig, IndexConfig  # noqa: E402,F401
from .pipelines.build import (  # noqa: E402,F401
    build_index, index_metrics, index_stats, ingest_pages,
)
from .pipelines.merge import merge_indexes  # noqa: E402,F401
from .pipelines.query import IndexReader, QueryEngine  # noqa: E402,F401

__all__ = [
    "IndexConfig", "DedupConfig", "build_index", "ingest_pages",
    "index_stats", "index_metrics", "merge_indexes", "IndexReader",
    "QueryEngine",
]
