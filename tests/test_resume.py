"""Kill-mid-build → resume: exactly-once segment commits (SURVEY.md C1).

The engine's version of the reference's checkpoint-after-everything
ordering (Processing.scala:269-272, ProcessingSpec.scala:59-80): a
partition's manifest commits only after its outputs are durable; on
restart, committed partitions are skipped byte-untouched and the final
index equals a clean run's.
"""

import dataclasses
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
    files = sorted(glob.glob(os.path.join(index_dir, "runs", "part=*", "*.arrow")))
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
    """A part committed under an older run format is refused on resume,
    not spliced in: format 2 wrote its rows through an order-free block
    write, so phase 2 cannot rely on their ordinal order, and format 3
    wrote parquet run files, which the phase-2 batch read cannot open.
    Both paths refuse it."""
    idx = str(tmp_path_factory.mktemp("fmt") / "idx")
    fail_cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                           batch_size=200, fail_after_parts=1)
    with pytest.raises(B.SimulatedFailure):
        B.build_index(docs_dir, idx, fail_cfg)
    man_dir = os.path.join(idx, "manifests")
    old = mf.load(man_dir, "runs-part-0000")
    assert old["format"] == B.RUN_FORMAT == 4
    for fmt in (2, 3):
        mf.commit(man_dir, "runs-part-0000", {**old, "format": fmt})
        for cfg in (CFG, dataclasses.replace(CFG, inline_build_max_docs=0)):
            with pytest.raises(RuntimeError, match=f"run format {fmt}"):
                B.build_index(docs_dir, idx, cfg)


@pytest.mark.parametrize("inline", [True, False])
def test_resume_refuses_changed_num_term_shards(docs_dir, tmp_path_factory,
                                                inline):
    """A run file holds one batch per (chunk, shard) and a segment the
    terms that hash to it modulo the shard count, so a build resumed
    under another ``num_term_shards`` is refused, on both paths: with
    committed run parts (a killed phase 1), and with committed segments
    only (a killed phase 2 whose run-part manifests were dropped)."""
    out = tmp_path_factory.mktemp("nshards")
    idx = str(out / "idx")
    fail_cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                           batch_size=200, fail_after_parts=2)
    with pytest.raises(B.SimulatedFailure):
        B.build_index(docs_dir, idx, fail_cfg)
    man_dir = os.path.join(idx, "manifests")
    assert {m["num_term_shards"] for m in mf.load_all(
        man_dir, "runs-part-").values()} == {8}
    cfg16 = dataclasses.replace(CFG, num_term_shards=16,
                                inline_build_max_docs=CFG.inline_build_max_docs
                                if inline else 0)
    with pytest.raises(RuntimeError, match="num_term_shards 8.*16"):
        B.build_index(docs_dir, idx, cfg16)

    # a complete build whose run-part and index manifests are dropped,
    # as after a phase-2 kill: its segment manifests still refuse
    B.build_index(docs_dir, idx, CFG if inline else
                  dataclasses.replace(CFG, inline_build_max_docs=0))
    assert {m["num_term_shards"] for m in mf.load_all(
        man_dir, "segment-shard-").values()} == {8}
    for name in [*mf.load_all(man_dir, "runs-part-"), "index"]:
        os.remove(mf.manifest_path(man_dir, name))
    with pytest.raises(RuntimeError, match="segment-shard-.*num_term_shards 8"):
        B.build_index(docs_dir, idx, cfg16)
    assert not mf.load_all(man_dir, "runs-part-"), "refused before phase 1"


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
    assert runs[:2] == ["part=0000/run-00000.arrow", "part=0000/run-00001.arrow"]

    B.build_index(docs_dir, clean, CFG)
    assert _segment_hashes(idx) == _segment_hashes(clean)
    for a, b in zip(B.load_docmap(idx), B.load_docmap(clean)):
        np.testing.assert_array_equal(a, b)


def test_run_files_sort_by_part_number(tmp_path):
    runs = tmp_path / "runs"
    names = ["part=10000/run-00000.arrow", "part=9999/run-00001.arrow",
             "part=9999/run-00000.arrow", "part=0002/run-00000.arrow"]
    for rel in names:
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        (runs / rel).touch()
    got = [os.path.relpath(f, runs) for f in B._run_files(str(tmp_path))]
    assert got == ["part=0002/run-00000.arrow", "part=9999/run-00000.arrow",
                   "part=9999/run-00001.arrow", "part=10000/run-00000.arrow"]


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
    """gc_runs deletes the materialized exchange of a distributed build
    after index commit; queries still serve, premature GC refuses, and a
    post-GC re-encode attempt fails loudly instead of writing a segment
    without the reclaimed parts' postings."""
    import pytest

    from snowplow_elasticsearch_loader_ray.pipelines.query import QueryEngine

    docs = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "gc_idx")
    cfg = IndexConfig(num_term_shards=4, inline_build_max_docs=0)
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


def test_gc_runs_on_inline_index(tmp_path):
    """The inline build keeps its exchange in memory: no runs/ to
    reclaim, and a dropped segment re-encodes from the docs to the same
    bytes."""
    docs = "/root/testdata/sf0.001/documents.parquet"
    idx = str(tmp_path / "inline_idx")
    cfg = IndexConfig(num_term_shards=4)
    B.build_index(docs, idx, cfg)
    assert not os.path.exists(os.path.join(idx, "runs"))
    assert B.gc_runs(idx) == 0
    man_dir = os.path.join(idx, "manifests")
    old_hash = mf.load(man_dir, "segment-shard-0000")["content_hash"]
    os.remove(mf.manifest_path(man_dir, "segment-shard-0000"))
    os.remove(mf.manifest_path(man_dir, "index"))
    B.build_index(docs, idx, cfg)
    assert mf.load(man_dir, "segment-shard-0000")["content_hash"] == old_hash


def _artifact_sha1(index_dir):
    import hashlib

    return {os.path.relpath(f, index_dir):
            hashlib.sha1(open(f, "rb").read()).hexdigest()
            for sub in ("segments", "docmap")
            for f in sorted(glob.glob(os.path.join(index_dir, sub, "*")))}


def test_distributed_resume_reruns_parts_committed_inline(
        ray_session, docs_dir, tmp_path_factory):
    """Inline-committed parts have no run files. A distributed resume
    re-runs them instead of encoding segments from the other parts'
    runs only: keep part 0 committed inline, drop every other part's
    manifest and docmap plus all segment manifests and the index
    manifest, resume with inline_build_max_docs=0, and the segments and
    docmap equal a clean build's."""
    out = tmp_path_factory.mktemp("mixed")
    idx, clean = str(out / "idx"), str(out / "clean")
    B.build_index(docs_dir, clean, CFG)
    B.build_index(docs_dir, idx, CFG)
    assert not os.path.exists(os.path.join(idx, "runs"))
    man_dir = os.path.join(idx, "manifests")
    for name, m in mf.load_all(man_dir, prefix="runs-part-").items():
        if m["part"] != 0:
            os.remove(mf.manifest_path(man_dir, name))
            os.remove(os.path.join(idx, "docmap", f"part-{m['part']:04d}.parquet"))
    for name in mf.load_all(man_dir, prefix="segment-shard-"):
        os.remove(mf.manifest_path(man_dir, name))
    os.remove(mf.manifest_path(man_dir, "index"))
    B.build_index(docs_dir, idx,
                  dataclasses.replace(CFG, inline_build_max_docs=0))
    assert _artifact_sha1(idx) == _artifact_sha1(clean)
    assert B._run_outputs(mf.load(man_dir, "runs-part-0000"))


def _fail_rename_of(monkeypatch, man_dir, name):
    """Make ``os.replace`` raise when it publishes manifest ``name``."""
    real = os.replace
    target = os.path.join(man_dir, f"{name}.json")

    def replace(src, dst):
        if os.path.abspath(dst) == os.path.abspath(target):
            raise OSError(f"injected rename failure for {name}")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _whole_manifests(man_dir):
    """Every manifest file parses; no tmp file is left behind."""
    names = sorted(os.listdir(man_dir))
    assert not [n for n in names if ".tmp" in n], names
    return {n[:-len(".json")]: mf.load(man_dir, n[:-len(".json")])
            for n in names}


@pytest.mark.parametrize("j", range(5))
def test_commit_many_failed_rename_leaves_whole_manifests(tmp_path,
                                                          monkeypatch, j):
    """The j-th rename of a batch fails: the manifests renamed before it
    are committed whole, the rest keep their previous state (absent, or
    the old whole file), the tmp files are gone and the error surfaces.
    A batch that succeeds leaves no tmp file either."""
    man_dir = str(tmp_path / "manifests")
    mf.commit(man_dir, "m-3", {"v": "old"})
    items = [(f"m-{i}", {"v": i, "outputs": [f"f{i}"]}) for i in range(5)]
    _fail_rename_of(monkeypatch, man_dir, f"m-{j}")
    with pytest.raises(OSError, match="injected"):
        mf.commit_many(man_dir, items)
    got = _whole_manifests(man_dir)
    for i in range(5):
        if i < j:
            assert got[f"m-{i}"]["v"] == i
        elif i == 3:
            assert got["m-3"]["v"] == "old"
        else:
            assert f"m-{i}" not in got
    monkeypatch.undo()
    written = mf.commit_many(man_dir, items)
    assert _whole_manifests(man_dir) == {
        name: p for (name, _), p in zip(items, written)}
    assert [p["v"] for p in written] == list(range(5))


@pytest.fixture(scope="module")
def clean_index(docs_dir, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("clean_commit") / "idx")
    stats = B.build_index(docs_dir, idx, CFG)
    return stats, _artifact_sha1(idx)


@pytest.mark.parametrize("name,inline", [
    ("runs-part-0001", True), ("segment-shard-0000", True),
    ("segment-shard-0005", True), ("stats", True), ("metrics", True),
    ("index", True), ("segment-shard-0003", False)])
def test_build_resumes_after_failed_manifest_rename(
        docs_dir, clean_index, tmp_path, monkeypatch, name, inline):
    """A manifest rename that fails mid-batch leaves only whole
    manifests; ``build_index`` then resumes to the clean build's
    ``segments/`` and ``docmap/`` bytes (inline and distributed)."""
    cfg = CFG if inline else dataclasses.replace(CFG, inline_build_max_docs=0)
    idx = str(tmp_path / "idx")
    man_dir = os.path.join(idx, "manifests")
    _fail_rename_of(monkeypatch, man_dir, name)
    with pytest.raises(OSError, match="injected"):
        B.build_index(docs_dir, idx, cfg)
    monkeypatch.undo()
    got = _whole_manifests(man_dir)
    assert name not in got and "index" not in got
    assert B.build_index(docs_dir, idx, cfg) == clean_index[0]
    assert _artifact_sha1(idx) == clean_index[1]
