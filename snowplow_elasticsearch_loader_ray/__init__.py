"""Fulltext indexing + BM25 query engine on Ray.

Plays the document-indexing role of the Snowplow→Elasticsearch loader
(its reference implementation is surveyed in SURVEY.md). The bulk build runs
as plain Ray tasks over zero-copy Arrow tables: ingest and SPIMI runs
per input file, then a shard-clustered exchange encoded into
delta/FOR posting segments with block-max metadata. Queries are served
by vectorized MaxScore over cached per-term scored lists, from one
in-process reader or a pool of term-shard reader actors. Ray Data runs
the payload, near-real-time and corpus-analysis pipelines (dedup, ANN,
ES|QL, ...), not the bulk build or the query path.

Package layout
--------------
- ``tokenizer``   Arrow-kernel tokenization (the P2-analogue hot path)
- ``codec``       posting-list block codec (delta + frame-of-reference)
- ``bm25``        the one shared BM25 formula (engine + oracle use it)
- ``sources/``    parquet readers + the deterministic corpus generator
- ``stages/``     build stages: extract, postings, segment encode
- ``state/``      per-partition manifests (exactly-once commit), metrics
- ``pipelines/``  build_index, query engine, dedup, ANN, text analysis

Importing the package does not import ``ray.data`` (see ``_raydata``).
"""

__version__ = "0.1.0"

from .config import DedupConfig, IndexConfig  # noqa: F401
from .pipelines.build import (  # noqa: F401
    build_index, index_metrics, index_stats, ingest_pages,
)
from .pipelines.merge import merge_indexes  # noqa: F401
from .pipelines.query import IndexReader, QueryEngine  # noqa: F401

__all__ = [
    "IndexConfig", "DedupConfig", "build_index", "ingest_pages",
    "index_stats", "index_metrics", "merge_indexes", "IndexReader",
    "QueryEngine",
]
