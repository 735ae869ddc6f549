"""Kill-mid-build → resume: exactly-once segment commits (SURVEY.md C1).

The engine's version of the reference's checkpoint-after-everything
ordering (Processing.scala:269-272, ProcessingSpec.scala:59-80): a
partition's manifest commits only after its outputs are durable; on
restart, committed partitions are skipped byte-untouched and the final
index equals a clean run's.
"""

import glob
import os

import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.state import manifest as mf

CFG = IndexConfig(max_record_bytes=100_000, num_term_shards=8, batch_size=200)


@pytest.fixture(scope="module")
def docs_dir(tiny_pages, tmp_path_factory):
    pages_dir, _ = tiny_pages
    out = tmp_path_factory.mktemp("resume")
    B.ingest_pages(pages_dir, str(out / "ingest"), CFG)
    d = B.good_docs_dir(str(out / "ingest"))
    assert len(glob.glob(os.path.join(d, "*.parquet"))) >= 3, "need >=3 parts to test resume"
    return d


def _snapshot(index_dir):
    files = sorted(glob.glob(os.path.join(index_dir, "runs", "part=*", "*.parquet")))
    return {f: (os.path.getmtime(f), os.path.getsize(f)) for f in files}


def test_kill_and_resume_equals_clean_run(docs_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("idx")
    resumed_dir = str(out / "resumed")
    clean_dir = str(out / "clean")

    # 1. killed run: fails after 2 committed run parts
    fail_cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                           batch_size=200, fail_after_parts=2)
    with pytest.raises(B.SimulatedFailure):
        B.build_index(docs_dir, resumed_dir, fail_cfg)
    man_dir = os.path.join(resumed_dir, "manifests")
    committed = [n for n in mf.load_all(man_dir) if n.startswith("runs-part-")]
    assert len(committed) == 2
    snap_before = _snapshot(resumed_dir)
    assert snap_before, "committed run parts must exist on disk"

    # 2. resume: completes; committed parts byte-untouched
    stats_resumed = B.build_index(docs_dir, resumed_dir, CFG)
    snap_after = _snapshot(resumed_dir)
    for f, (mtime, size) in snap_before.items():
        assert snap_after[f] == (mtime, size), f"committed file rewritten: {f}"

    # 3. clean run elsewhere: identical stats and identical segment content
    stats_clean = B.build_index(docs_dir, clean_dir, CFG)
    assert stats_resumed == stats_clean
    seg_r = {n: m["content_hash"] for n, m in mf.load_all(
        os.path.join(resumed_dir, "manifests"), "segment-shard-").items()}
    seg_c = {n: m["content_hash"] for n, m in mf.load_all(
        os.path.join(clean_dir, "manifests"), "segment-shard-").items()}
    assert seg_r == seg_c, "resumed and clean segments must be byte-identical"


def test_resume_refuses_older_run_format(docs_dir, tmp_path_factory):
    """A part committed under an older run format (format 2 wrote its
    rows through an order-free block write, so phase 2 cannot rely on
    their ordinal order) is refused on resume, not spliced in."""
    idx = str(tmp_path_factory.mktemp("fmt") / "idx")
    fail_cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                           batch_size=200, fail_after_parts=1)
    with pytest.raises(B.SimulatedFailure):
        B.build_index(docs_dir, idx, fail_cfg)
    man_dir = os.path.join(idx, "manifests")
    old = mf.load(man_dir, "runs-part-0000")
    mf.commit(man_dir, "runs-part-0000", {**old, "format": 2})
    with pytest.raises(RuntimeError, match="run format 2"):
        B.build_index(docs_dir, idx, CFG)


def _segment_hashes(index_dir):
    return {n: m["content_hash"] for n, m in mf.load_all(
        os.path.join(index_dir, "manifests"), "segment-shard-").items()}


def test_multi_file_parts_run_per_file_and_resume(docs_dir, tmp_path_factory):
    """Parts of several files: one run file per input file, the killed
    build commits exactly the parts it reported, and the resumed index
    equals the per-file-grouped default build (segments and docmap)."""
    import numpy as np

    out = tmp_path_factory.mktemp("multi")
    n_files = len(glob.glob(os.path.join(docs_dir, "*.parquet")))
    idx, clean = str(out / "idx"), str(out / "clean")
    fail_cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                           batch_size=200, fail_after_parts=1)
    with pytest.raises(B.SimulatedFailure):
        B.build_index(docs_dir, idx, fail_cfg, num_parts=2)
    man_dir = os.path.join(idx, "manifests")
    assert list(mf.load_all(man_dir, "runs-part-")) == ["runs-part-0000"]
    B.build_index(docs_dir, idx, CFG, num_parts=2)
    runs = [os.path.relpath(f, os.path.join(idx, "runs")) for f in B._run_files(idx)]
    assert len(runs) == n_files
    assert runs[:2] == ["part=0000/run-00000.parquet", "part=0000/run-00001.parquet"]

    B.build_index(docs_dir, clean, CFG)
    assert _segment_hashes(idx) == _segment_hashes(clean)
    for a, b in zip(B.load_docmap(idx), B.load_docmap(clean)):
        np.testing.assert_array_equal(a, b)


def test_run_files_sort_by_part_number(tmp_path):
    runs = tmp_path / "runs"
    names = ["part=10000/run-00000.parquet", "part=9999/run-00001.parquet",
             "part=9999/run-00000.parquet", "part=0002/run-00000.parquet"]
    for rel in names:
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        (runs / rel).touch()
    got = [os.path.relpath(f, runs) for f in B._run_files(str(tmp_path))]
    assert got == ["part=0002/run-00000.parquet", "part=9999/run-00000.parquet",
                   "part=9999/run-00001.parquet", "part=10000/run-00000.parquet"]


def test_part_names_out_of_string_order(docs_dir, tmp_path_factory, monkeypatch):
    """Phase 2 needs the run files in ordinal order. Part names whose
    string order differs from their number order (part=9 sorts after
    part=18, as part=10000 sorts before part=9999) still build the clean
    index instead of feeding the codec decreasing ords."""
    out = tmp_path_factory.mktemp("names")
    idx, clean = str(out / "idx"), str(out / "clean")
    B.build_index(docs_dir, clean, CFG)
    monkeypatch.setattr(B, "_part_name", lambda k: f"part={9 * k}")
    n_files = len(glob.glob(os.path.join(docs_dir, "*.parquet")))
    B.build_index(docs_dir, idx, CFG, num_parts=n_files)
    assert os.path.isdir(os.path.join(idx, "runs", "part=18"))
    assert _segment_hashes(idx) == _segment_hashes(clean)


def test_partial_segment_resume(docs_dir, tmp_path_factory):
    # delete one committed segment manifest → only that shard re-encodes
    out = tmp_path_factory.mktemp("idx2")
    index_dir = str(out / "idx")
    B.build_index(docs_dir, index_dir, CFG)
    man_dir = os.path.join(index_dir, "manifests")
    victim = "segment-shard-0003"
    old_hash = mf.load(man_dir, victim)["content_hash"]
    os.remove(mf.manifest_path(man_dir, victim))
    os.remove(mf.manifest_path(man_dir, "index"))

    other = "segment-shard-0001"
    other_mtime = os.path.getmtime(os.path.join(index_dir, "segments", "shard-0001.parquet"))
    B.build_index(docs_dir, index_dir, CFG)
    assert mf.load(man_dir, victim)["content_hash"] == old_hash  # deterministic re-encode
    assert os.path.getmtime(os.path.join(index_dir, "segments", "shard-0001.parquet")) == other_mtime
    assert mf.is_committed(man_dir, "index")


def test_transient_segment_failure_retried(docs_dir, tmp_path_factory):
    """A transiently failing shard task is retried by Ray and the build
    completes with a correct index (W3: transient -> retry, never a
    dead letter and never a failed build)."""
    out = tmp_path_factory.mktemp("flaky")
    idx = str(out / "idx")
    os.makedirs(os.path.join(idx, "_faults"), exist_ok=True)
    open(os.path.join(idx, "_faults", "shard-0003.once"), "w").close()
    stats = B.build_index(docs_dir, idx, CFG)
    assert stats["n_docs"] > 0
    # the fault file was consumed (the failure actually fired)
    assert not os.path.exists(os.path.join(idx, "_faults", "shard-0003.once"))
    # clean-run comparison: same index content
    clean = str(out / "clean")
    stats2 = B.build_index(docs_dir, clean, CFG)
    assert stats == stats2


def test_gc_runs_reclaims_exchange(ray_session, tmp_path):
    """gc_runs deletes the materialized exchange after index commit;
    queries still serve, premature GC refuses, and a post-GC re-encode
    attempt fails loudly instead of writing an empty segment."""
    import pytest

    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    docs = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "gc_idx")
    cfg = IndexConfig(num_term_shards=4)
    with pytest.raises(ValueError):
        B.build_runs([docs], idx, cfg), B.gc_runs(idx)   # not committed yet
    import shutil as _sh
    _sh.rmtree(idx, ignore_errors=True)
    B.build_index(docs, idx, cfg)
    freed = B.gc_runs(idx)
    assert freed > 0 and not os.path.exists(os.path.join(idx, "runs"))
    d, s = QueryEngine(idx).topk("data", 5)              # index still serves
    assert len(d) > 0
    os.remove(os.path.join(idx, "manifests", "segment-shard-0000.json"))
    os.remove(os.path.join(idx, "manifests", "index.json"))
    with pytest.raises(Exception, match="garbage-collected"):
        B.build_index(docs, idx, cfg)
