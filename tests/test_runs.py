"""Phase 1's run files (Arrow IPC, one record batch per (chunk, shard))
and phase 2's range read of them.

A run file holds only posting rows ``(shard, term, ord, tf)``; each
chunk writes exactly ``num_term_shards`` batches, so batch ``i`` holds
shard ``i % S``, and its term column is a dictionary over one
vocabulary per file that each chunk extends as a dictionary delta,
up to ``RUN_VOCAB_MAX_TERMS`` terms, past which the input file
continues in another run file.
"""

import dataclasses
import glob
import hashlib
import os
import re
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, given, settings, strategies as st

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B

WORDS = ["alpha", "beta", "gamma", "delta", "straße", "ünï", "x1", "zz"]

_word = st.one_of(st.sampled_from(WORDS),
                  st.text(alphabet="abcxyz019", min_size=1, max_size=4))
_text = st.lists(_word, max_size=8).map(" ".join)
#: one to three docs files; an empty list is a zero-row file
_files = st.lists(st.lists(_text, max_size=9), min_size=1, max_size=3)


def _write_docs(d: str, files: list[list[str]]) -> list[str]:
    paths, next_id = [], 0
    for k, texts in enumerate(files):
        path = os.path.join(d, f"part-{k:04d}.parquet")
        ids = np.arange(next_id, next_id + len(texts), dtype=np.int64) * 7919
        next_id += len(texts)
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": pa.array(texts, pa.string())}), path)
        paths.append(path)
    return paths


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t[c].to_pylist() for c in B.PHASE2_COLUMNS)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(files=_files, batch_size=st.integers(1, 4),
       num_shards=st.integers(1, 6),
       vocab_cap=st.sampled_from([1, 4, 9, 1 << 16]), data=st.data())
def test_run_file_round_trip(files, batch_size, num_shards, vocab_cap, data):
    """Multi-chunk files whose chunks add terms (dictionary deltas),
    input files split over several run files by the vocabulary cap,
    shards with no rows, a zero-row docs file: phase 2's read of any
    contiguous shard range returns exactly those shards' chunk rows, in
    arrival order (file, chunk, then the chunk's own order)."""
    cfg = IndexConfig(num_term_shards=num_shards, batch_size=batch_size)
    cap, B.RUN_VOCAB_MAX_TERMS = B.RUN_VOCAB_MAX_TERMS, vocab_cap
    try:
        _round_trip(files, cfg, data)
    finally:
        B.RUN_VOCAB_MAX_TERMS = cap


def _round_trip(files, cfg, data):
    num_shards = cfg.num_term_shards
    with tempfile.TemporaryDirectory() as d:
        docs = _write_docs(d, files)
        runs, want = [], []          # want[f][c]: chunk c's posting rows
        base = 0
        for i, path in enumerate(docs):
            chunks: list[pa.Table] = []
            run = os.path.join(d, f"run-{i:05d}.arrow")
            B._tokenize_file(path, base, cfg, run_path=run, keep=chunks)
            base += len(files[i])
            want.append([_rows(c) for c in chunks])

            mine = []
            while os.path.exists(B._run_file_path(run, len(mine))):
                mine.append(B._run_file_path(run, len(mine)))
            n_batches = 0
            for j, f in enumerate(mine):
                reader = pa.ipc.open_file(f)
                assert reader.schema == B.RUN_FILE_SCHEMA
                n = reader.num_record_batches
                assert n and n % num_shards == 0
                for b in range(n):
                    shards = reader.get_batch(b).column(0).to_pylist()
                    assert set(shards) <= {b % num_shards}
                if j < len(mine) - 1:      # only a full vocabulary rolls
                    assert (len(reader.get_batch(0).column(1).dictionary)
                            >= B.RUN_VOCAB_MAX_TERMS)
                n_batches += n
            assert n_batches == len(chunks) * num_shards
            assert sorted(mine, key=lambda f: [
                int(x) for x in re.findall(r"\d+", f[len(d):])]) == mine
            runs += mine

        lo = data.draw(st.integers(0, num_shards - 1), label="lo")
        hi = data.draw(st.integers(lo, num_shards - 1), label="hi")
        got = B._read_runs(runs, lo, hi, num_shards)
        assert got.schema == B.RUN_FILE_SCHEMA
        assert _rows(got) == [r for per_file in want for chunk in per_file
                              for r in chunk if lo <= r[0] <= hi]
        if hi - lo + 1 < num_shards:     # each file's vocabulary, cut
            for t in got["term"].chunks:
                assert len(set(t.indices.to_pylist())) == len(t.dictionary)


def test_run_file_extends_one_vocabulary_per_file(tmp_path):
    """Each later chunk sends only its new terms, as a dictionary delta;
    every batch reads back with the file's whole vocabulary."""
    docs = _write_docs(str(tmp_path), [["alpha beta", "beta gamma",
                                        "delta alpha", "zz"]])
    run = str(tmp_path / "run-00000.arrow")
    cfg = IndexConfig(num_term_shards=3, batch_size=1)
    B._tokenize_file(docs[0], 0, cfg, run_path=run)
    reader = pa.ipc.open_file(run)
    vocab = reader.get_batch(0).column(1).dictionary
    for j in range(reader.num_record_batches):
        assert reader.get_batch(j).column(1).dictionary.equals(vocab)
    # the first chunk's dictionary carries postings_chunk's docmap
    # placeholder; each term appears in the vocabulary once
    assert sorted(t for t in vocab.to_pylist() if t) == [
        "alpha", "beta", "delta", "gamma", "zz"]
    assert len(set(vocab.to_pylist())) == len(vocab)
    assert reader.stats.num_dictionary_deltas == 3


def _artifact_sha1(index_dir):
    return {os.path.relpath(f, index_dir):
            hashlib.sha1(open(f, "rb").read()).hexdigest()
            for sub in ("segments", "docmap")
            for f in sorted(glob.glob(os.path.join(index_dir, sub, "*")))}


def test_distributed_build_matches_inline(ray_session, tiny_pages,
                                          tmp_path, monkeypatch):
    """Distributed and inline builds write the same ``segments/`` and
    ``docmap/`` bytes when phase 2 runs as several shard groups over
    run files of many chunks (dictionary deltas); with multi-file parts
    the docmap is cut per part, and the segments stay the same."""
    cfg = IndexConfig(max_record_bytes=100_000, num_term_shards=8,
                      batch_size=64)
    B.ingest_pages(tiny_pages[0], str(tmp_path / "ingest"), cfg)
    docs = B.good_docs_dir(str(tmp_path / "ingest"))
    B.build_index(docs, str(tmp_path / "inline"), cfg)
    want = _artifact_sha1(str(tmp_path / "inline"))

    est = B.index_metrics(str(tmp_path / "inline"))["postings"]
    monkeypatch.setattr(B, "PHASE2_GROUP_POSTINGS", 3 * est // 8)
    groups = B._plan_shard_groups(list(range(8)), 8, est)
    assert len(groups) == 3, groups
    dist = dataclasses.replace(cfg, inline_build_max_docs=0)
    for name, parts in (("dist", None), ("dist_parts2", 2)):
        idx = str(tmp_path / name)
        B.build_index(docs, idx, dist, num_parts=parts)
        got = _artifact_sha1(idx)
        if parts:
            got = {k: v for k, v in got.items() if k.startswith("segments")}
        assert got == {k: want[k] for k in got} and len(got) >= 8, name
        runs = B._run_files(idx)
        assert runs and all(r.endswith(".arrow") for r in runs)
        assert max(pa.ipc.open_file(r).num_record_batches
                   for r in runs) > 8          # several chunks per file


def test_rolled_run_files_encode_like_inline(tmp_path, monkeypatch):
    """Input files split over several run files by the vocabulary cap
    encode, through phase 2's per-group task body, to the inline
    build's segment bytes, one shard group or one group per shard."""
    from snowplow_elasticsearch_loader_ray.sources.synth import generate_part
    text = generate_part(0, 400)["text"]
    d = tmp_path / "docs"
    d.mkdir()
    docs = []
    for k in range(2):
        docs.append(str(d / f"part-{k:04d}.parquet"))
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(200 * k, 200 * k + 200) * 7919),
            "text": text.slice(200 * k, 200)}), docs[-1])
    cfg = IndexConfig(num_term_shards=4, batch_size=32)
    B.build_index(str(d), str(tmp_path / "inline"), cfg)
    want = _artifact_sha1(str(tmp_path / "inline"))

    monkeypatch.setattr(B, "RUN_VOCAB_MAX_TERMS", 1500)
    idx = str(tmp_path / "dist")
    bases = B._ordinal_bases(docs, B._footer_counts(docs))
    runs_dir = os.path.join(idx, "runs")
    for k, f in enumerate(docs):
        [run] = B._open_part(idx, k, 1)
        B._tokenize_file(f, bases[f], cfg, run_path=run)
        os.rename(os.path.join(runs_dir, "_tmp_" + B._part_name(k)),
                  os.path.join(runs_dir, B._part_name(k)))
    runs = B._run_files(idx)
    assert len(runs) > 2 * len(docs)                 # rolled
    assert [os.path.basename(r) for r in runs[:3]] == [
        "run-00000.arrow", "run-00000.1.arrow", "run-00000.2.arrow"]
    encode = B._encode_shard_group._function
    for groups in ([[0, 1, 2, 3]], [[0], [1], [2], [3]]):
        for g in groups:
            encode(idx, g, cfg.block_size, cfg.num_term_shards)
        got = _artifact_sha1(idx)
        assert got == {k: v for k, v in want.items()
                       if k.startswith("segments")}
