"""Engine configuration.

The reference decodes a HOCON ``Config`` (reference
``modules/core/src/main/scala/.../Config.scala:26-110``) with batching,
retry, parallelism and dead-letter knobs; this dataclass carries the
engine-side equivalents (SURVEY.md §2 C-row "Config").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for the index build + query pipelines.

    Reference analogues (file:line in /root/reference):
    - ``flush_max_bytes``  ← ``batching.maxBytes`` 10 MB
      (``modules/core/src/main/resources/reference.conf:28``): the SPIMI
      run/flush threshold plays the loader's size-based batch flush.
    - ``max_record_bytes`` ← ``output.bad.maxRecordSize`` 1,000,000 B
      (``config/config.aws.reference.hocon:120``): oversized docs go to
      the dead-letter table with a truncated payload.
    - ``transient_retries`` ← 5 × 1 s retry budget
      (``reference.conf:31-36``): transient failures retry; permanent
      (per-row deterministic) failures become bad rows, never retries.
    - ``num_term_shards`` plays the ES index-sharding role
      (``ElasticsearchSink.scala:90-94``): hash(term) % shards routes a
      posting to its segment partition.
    """

    # --- index layout ---
    num_term_shards: int = 16          # segment partitions; scale ~2-4x cluster cores
    block_size: int = 128              # postings per compressed block (block-max granularity)
    run_row_group_size: int = 16_384   # rows per run-file row group (phase-2 shard pruning grain)

    # --- BM25 (fixed; oracle and engine share these) ---
    k1: float = 1.2
    b: float = 0.75
    score_round: int = 7               # ranking uses round(score, 7) then doc_id asc

    # --- batching / flush (A1 analogue) ---
    # docs per map_batches call. Measured optimum ~2000 on 2 KB docs:
    # token intermediates of a larger batch fall out of per-core cache
    # and per-doc cost doubles (see BASELINE.md). Batches slice
    # zero-copy WITHIN a block (reads use one block per file, which
    # fuses read->map->write into one task); only the block seam would
    # copy, and there is none at this alignment.
    batch_size: int | None = 2000
    flush_max_bytes: int = 10_000_000
    # A1 time half: a partial micro-batch older than this flushes anyway
    # (``batching.maxDelay`` "1 second", reference.conf:29; used by the
    # streaming-ingest surface, sources/stream.py — bounded-corpus
    # pipelines flush by size/block boundaries alone)
    flush_max_delay_s: float = 1.0
    # C1 checkpoint throttling: commit stream-ingest manifests at most
    # this often (``debounceCheckpoints`` "10 seconds",
    # config.aws.reference.hocon:55). Data parts always land; only the
    # CHECKPOINT lags, so a crash replays the uncommitted tail from the
    # source — the reference's at-least-once KCL semantics. 0 = commit
    # every micro-batch.
    checkpoint_debounce_s: float = 0.0

    # --- dead letter (D1 analogue) ---
    max_record_bytes: int = 1_000_000

    # --- retries (W3 analogue) ---
    transient_retries: int = 5

    # --- parallelism (Environment.scala:85-96 analogue) ---
    build_concurrency: int | None = None   # None → let Ray size the task pool
    query_concurrency: int = 2

    # --- NRT / small-build fast path ---
    # A corpus at or below this many docs (parquet footer count) builds
    # inline in the calling process, emitting the exact same docmap
    # parts, segment shards and manifests as the distributed path
    # (resume-compatible with it) but keeping the run exchange in
    # memory: it writes no runs/ files. A refresh-interval delta is
    # sized by the stream rate, not the corpus, and the distributed
    # build's per-stage task scheduling carries fixed overhead that
    # would dominate the stream→searchable latency (the reference's
    # actual SLO); Lucene flushes such segments in-process for the same
    # reason. 0 disables the fast path.
    inline_build_max_docs: int = 20_000

    # test hook: fail the build after N committed partitions (resume tests)
    fail_after_parts: int | None = None


@dataclass(frozen=True)
class ShardSuffixConfig:
    """P5 shard-suffix derivation knobs (Config.scala:130-145: the
    reference whitelists which timestamp field drives the suffix and
    takes a DateTimeFormatter pattern from config; loader-sharding
    example '-yyyy-MM-dd').

    ``field`` must be one of ``ALLOWED_FIELDS`` (the reference rejects
    non-timestamp fields at config decode time); ``date_format`` is a
    strftime pattern (the DateTimeFormatter analogue).
    """

    ALLOWED_FIELDS = ("ts", "warc_ts", "collector_tstamp")

    field_name: str = "ts"
    date_format: str = "-%Y-%m-%d"

    def __post_init__(self):
        if self.field_name not in self.ALLOWED_FIELDS:
            raise ValueError(
                f"shard suffix field {self.field_name!r} not in whitelist "
                f"{self.ALLOWED_FIELDS}")


DEFAULT_SHARD_SUFFIX = ShardSuffixConfig()


#: reserved pseudo-term. Retained for reading legacy (pre-docmap)
#: segments, where doc lengths were stored as this pseudo-term's
#: posting list; current builds keep doc lengths in ``docmap/`` tables.
DOCLEN_TERM = ""

#: run-row shard tag for docmap rows (ord → doc_id, doclen); phase 2's
#: per-shard reads filter ``shard == j`` with j >= 0, so docmap rows
#: prune away by row-group statistics like any other shard's.
DOCMAP_SHARD = -1


DEFAULT_CONFIG = IndexConfig()


@dataclass(frozen=True)
class DedupConfig:
    """Knobs for the dedup family (SURVEY.md "beyond the reference")."""

    shingle_size: int = 3
    num_perm: int = 64            # minhash permutations
    num_bands: int = 16           # LSH bands (rows = num_perm // num_bands)
    jaccard_threshold: float = 0.8
    simhash_bits: int = 64
    simhash_max_hamming: int = 3
    cosine_threshold: float = 0.95
    # boilerplate caps: a shingle / simhash-chunk key shared by more
    # docs than this is dropped from pair generation (it is boilerplate,
    # not duplication signal — the standard web-corpus df cut). The
    # defaults sit far above anything the sandbox corpora produce, so
    # oracle-checked results stay exact; a 10^12-doc run sets these to
    # O(10^2-10^3).
    max_shingle_df: int = 65_536
    simhash_max_group: int = 65_536


DEFAULT_DEDUP = DedupConfig()
