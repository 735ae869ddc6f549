"""Per-piece timing of the index build's write path, in process.

Run: python scripts/write_path_timing.py [<package-root> ...]
         [--path inline|distributed|run-chunks] [--seed N] [--reps N]
         [--text synth|web-punct|dotted-i] [--per-shard]

Each ``<package-root>`` is a checkout whose package is imported (the
directory that holds ``snowplow_elasticsearch_loader_ray/``; default:
this script's checkout), so the same script times a parent copy and the
working tree. Given several roots, it loads each package under its own
module name and alternates them rep by rep (A B, then B A, ...), so
they share one window of host load; it prints one JSON line per root.
No Ray session is started: everything runs in this process.

``--path inline`` (the default) times the in-process build of a corpus
shaped like perfbench's ``serve`` index: 6,000 seeded synthetic pages
(``sources.synth``) through the ingest kernel (``ExtractTransform``),
about 5.9k good docs in 4 files, 8 term shards, default ``IndexConfig``
otherwise. ``--text`` rewrites punctuation to time the tokenizer's
text-dependent paths: ``web-punct`` replaces every ``,`` ``;`` ``:``
with U+2019, U+2014, U+201C (the ``E2``-led punctuation of web text,
which the lowercase probe must look past); ``dotted-i`` replaces every
``&`` with U+0130, so every chunk takes the ``utf8_lower`` path. Each
rep builds a fresh index directory with ``build_index`` and sums, per
build, the wall time spent in:

- ``postings_chunk``: phase 1's tokenize-and-rank kernel;
- ``encode_shard_tables``: phase 2's sort and encode of every shard;
- ``commits``: the manifest commits (``commit`` and, where the package
  has it, ``commit_many``), with their count;
- ``build``: the whole ``build_index`` call.

``--path distributed`` times the pieces of one perfbench ``build``
round (2,500 seeded pages in 4 files, 16 term shards, the workload's
``IndexConfig``) by calling the distributed path's task functions
directly, one after another:

- ``ingest``: every page file's ``_ingest_file``; ``docs_write`` is
  the part of it spent in the ``ParquetWriter`` of ``docs/``;
- ``docs_read``: reading the good docs files as phase 1 does;
- ``phase1``: ``_tokenize_file`` of every docs file without a run file,
  ``postings_chunk`` the kernel inside it, and ``run_write`` what the
  run file adds (the same calls with a run file, minus ``phase1``);
- ``phase2``: the ``_encode_shard_group`` tasks of the default shard
  grouping, ``encode_shard_tables`` and ``segment_writes``
  (``_write_segment``) inside them, and ``run_read`` the rest;
- ``docs_bytes`` / ``runs_bytes``: the size of ``docs/`` and ``runs/``.

``--per-shard`` runs phase 2 as one task per shard instead (the
grouping of a corpus whose shards each hold ``PHASE2_GROUP_POSTINGS``
postings), so every task reads every run file for its one shard.

``--path run-chunks`` times phase 1's run write chunk by chunk on one
docs file of many chunks whose vocabulary keeps growing, as web text's
does: ``CHUNK_DOCS`` seeded synthetic docs, each given ``RARE_WORDS``
random words besides its text (the synthetic vocabulary alone stops at
10k terms), read in the default ``batch_size`` chunks. Each rep runs
``_tokenize_file`` on it without, then with, a run file; the loop
body's time per chunk (everything between two chunks of the kernel)
differs by what the run file adds. It reports ``run_write`` (the sum),
``run_write_chunk_<c>`` per chunk ``c`` and ``run_files`` /
``runs_bytes``.

Prints per measurement the median, the quartiles and the IQR in ms over
the reps (the first, warm-up rep is dropped).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

PAGES, FILES, TERM_SHARDS = 6_000, 4, 8
#: perfbench ``build``: pages per round, page files, term shards
BUILD_PAGES, BUILD_FILES, BUILD_SHARDS = 2_500, 4, 16
PACKAGE = "snowplow_elasticsearch_loader_ray"
#: ``--path run-chunks``: docs in the one file, random words per doc
CHUNK_DOCS, RARE_WORDS = 24_000, 10


#: ``--text`` variants: (pattern, replacement) pairs applied to the text
TEXT_VARIANTS = {
    "synth": [],
    "web-punct": [(",", "\u2019"), (";", "\u2014"), (":", "\u201c")],
    "dotted-i": [("&", "\u0130")],
}


def _load(root: str, alias: str):
    """Import the package under ``root`` as module ``alias`` (so two
    checkouts load side by side) → a namespace of the modules used."""
    pkg = os.path.join(os.path.abspath(root), PACKAGE)
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[alias] = mod
    spec.loader.exec_module(mod)
    sub = lambda name: importlib.import_module(f"{alias}.{name}")  # noqa: E731
    return argparse.Namespace(
        root=os.path.abspath(root), B=sub("pipelines.build"),
        config=sub("config"), postings=sub("stages.postings"),
        extract=sub("stages.extract"), synth=sub("sources.synth"),
        mf=sub("state.manifest"))


def _corpus(P, docs_dir: str, seed: int, text: str = "synth") -> int:
    """Write the seeded good-doc table as ``FILES`` parquet files → its
    row count."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo = 10_000 * int(np.random.default_rng(seed).integers(100_000))
    out = P.extract.ExtractTransform(P.config.IndexConfig())(
        P.synth.generate_part(lo, lo + PAGES))
    good = out.filter(pc.equal(out["status"], "good"))
    texts = good["text"]
    for pattern, replacement in TEXT_VARIANTS[text]:
        texts = pc.replace_substring(texts, pattern, replacement)
    docs = pa.table({"doc_id": good["doc_id"], "text": texts,
                     "lang": good["lang"]})
    os.makedirs(docs_dir)
    bounds = np.linspace(0, docs.num_rows, FILES + 1).astype(int)
    for k in range(FILES):
        pq.write_table(docs.slice(int(bounds[k]), int(bounds[k + 1] - bounds[k])),
                       os.path.join(docs_dir, f"part-{k:04d}.parquet"))
    return docs.num_rows


def _pages(P, pages_dir: str, seed: int) -> None:
    """Write ``BUILD_PAGES`` seeded synthetic pages as ``BUILD_FILES``
    page files, as perfbench ``build`` does."""
    import pyarrow.parquet as pq

    lo = 10_000 * int(np.random.default_rng(seed).integers(100_000))
    os.makedirs(pages_dir)
    bounds = np.linspace(lo, lo + BUILD_PAGES, BUILD_FILES + 1).astype(int)
    for k in range(BUILD_FILES):
        pq.write_table(P.synth.generate_part(int(bounds[k]), int(bounds[k + 1])),
                       os.path.join(pages_dir, f"part-{k:04d}.parquet"),
                       compression="zstd")


class _Timers:
    """Wraps module attributes so every call adds its wall time (and a
    count) to ``self.acc[name]``; a call made inside another call of the
    same name (``commit`` → ``commit_many``) is not counted again.
    ``restore`` undoes the wrapping."""

    def __init__(self):
        self.acc: dict[str, list[float]] = {}
        self._active: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        acc = self.acc.setdefault(name, [0.0, 0])
        active = self._active

        def timed(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += time.perf_counter() - t0
                acc[1] += 1
                active.discard(name)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, timed)

    def timed_writer(self, cls, name: str):
        """A subclass of writer class ``cls`` whose construction,
        ``write_table`` and ``close`` add to ``self.acc[name]``."""
        acc = self.acc.setdefault(name, [0.0, 0])

        def add(t0: float) -> None:
            acc[0] += time.perf_counter() - t0
            acc[1] += 1

        class Timed(cls):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                add(t0)

            def write_table(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().write_table(*args, **kwargs)
                add(t0)

            def close(self):
                t0 = time.perf_counter()
                super().close()
                add(t0)

        return Timed

    def reset(self) -> None:
        for v in self.acc.values():
            v[0], v[1] = 0.0, 0

    def secs(self, name: str) -> float:
        return self.acc.get(name, [0.0])[0]

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _summary(xs: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median_ms": round(1e3 * med, 2), "q1_ms": round(1e3 * q1, 2),
            "q3_ms": round(1e3 * q3, 2), "iqr_ms": round(1e3 * (q3 - q1), 2)}


def _du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _d, fs in os.walk(path) for f in fs)


class _Inline:
    """One package's inline build of the ``serve``-shaped corpus."""

    def __init__(self, P, work: str, args):
        self.P, self.work = P, work
        self.cfg = P.config.IndexConfig(num_term_shards=TERM_SHARDS)
        self.docs = os.path.join(work, "docs")
        self.n_docs = _corpus(P, self.docs, args.seed, args.text)
        self.timers = t = _Timers()
        t.wrap(P.postings, "postings_chunk", "postings_chunk")
        t.wrap(P.B, "encode_shard_tables", "encode_shard_tables")
        t.wrap(P.mf, "commit", "commits")
        t.wrap(P.mf, "commit_many", "commits")
        t.wrap(P.B, "build_index", "build")
        self.info = {"docs": self.n_docs}

    def rep(self, i: int) -> dict[str, float]:
        idx = os.path.join(self.work, f"index{i}")
        self.timers.reset()
        self.P.B.build_index(self.docs, idx, self.cfg)
        shutil.rmtree(idx)
        self.info["commit_calls_per_build"] = self.timers.acc["commits"][1]
        return {name: secs for name, (secs, _n) in self.timers.acc.items()}


class _Distributed:
    """One package's perfbench ``build`` round, task function by task
    function, without Ray."""

    def __init__(self, P, work: str, args):
        self.P, self.work = P, work
        self.cfg = P.config.IndexConfig(max_record_bytes=100_000,
                                        inline_build_max_docs=0)
        assert self.cfg.num_term_shards == BUILD_SHARDS
        self.per_shard = args.per_shard
        self.pages = os.path.join(work, "pages")
        _pages(P, self.pages, args.seed)
        self.timers = t = _Timers()
        t.wrap(P.postings, "postings_chunk", "postings_chunk")
        t.wrap(P.B, "encode_shard_tables", "encode_shard_tables")
        t.wrap(P.B, "_write_segment", "segment_writes")
        self.encode = P.B._encode_shard_group._function
        self.encode_takes_shards = len(
            inspect.signature(self.encode).parameters) > 3
        self.info = {}

    def rep(self, i: int) -> dict[str, float]:
        import pyarrow.parquet as pq

        B, cfg, t = self.P.B, self.cfg, self.timers
        rd = os.path.join(self.work, f"round{i}")
        pages = sorted(os.path.join(self.pages, f) for f in os.listdir(self.pages))
        out: dict[str, float] = {}
        t.reset()

        # ingest, with the docs/ ParquetWriter timed
        real_writer = B.pq.ParquetWriter
        B.pq.ParquetWriter = t.timed_writer(real_writer, "docs_write")
        t0 = time.perf_counter()
        try:
            tmp = os.path.join(rd, "docs")
            for k, f in enumerate(pages):
                B._ingest_file._function(f, k, tmp, cfg)
        finally:
            B.pq.ParquetWriter = real_writer
        out["ingest"] = time.perf_counter() - t0
        out["docs_write"] = t.secs("docs_write")
        docs_dir = os.path.join(tmp, "status=good")
        docs = sorted(os.path.join(docs_dir, f) for f in os.listdir(docs_dir))

        t0 = time.perf_counter()
        for f in docs:
            pf = pq.ParquetFile(f)
            cols = [c for c in ("doc_id", "text", "lang")
                    if c in pf.schema_arrow.names]
            for _b in pf.iter_batches(batch_size=cfg.batch_size, columns=cols):
                pass
        out["docs_read"] = time.perf_counter() - t0

        # phase 1 without, then with, a run file (one part per file)
        idx = os.path.join(rd, "index")
        bases = B._ordinal_bases(docs, B._footer_counts(docs))
        kernel0 = t.secs("postings_chunk")
        t0 = time.perf_counter()
        for f in docs:
            B._tokenize_file(f, bases[f], cfg)
        out["phase1"] = time.perf_counter() - t0
        out["postings_chunk"] = t.secs("postings_chunk") - kernel0
        run_rows = 0
        t0 = time.perf_counter()
        for k, f in enumerate(docs):
            [path] = B._open_part(idx, k, 1)
            run_rows += B._tokenize_file(f, bases[f], cfg, run_path=path)[1]
        out["run_write"] = time.perf_counter() - t0 - out["phase1"]
        runs_dir = os.path.join(idx, "runs")
        for k in range(len(docs)):
            os.rename(os.path.join(runs_dir, "_tmp_" + B._part_name(k)),
                      os.path.join(runs_dir, B._part_name(k)))

        # phase 2: the default grouping's tasks, or one task per shard
        n = cfg.num_term_shards
        est = run_rows - sum(B._footer_counts(docs))
        groups = ([[s] for s in range(n)] if self.per_shard
                  else B._plan_shard_groups(list(range(n)), n, est))
        t.reset()
        t0 = time.perf_counter()
        for g in groups:
            if self.encode_takes_shards:
                self.encode(idx, g, cfg.block_size, n)
            else:
                self.encode(idx, g, cfg.block_size)
        out["phase2"] = time.perf_counter() - t0
        out["encode_shard_tables"] = t.secs("encode_shard_tables")
        out["segment_writes"] = t.secs("segment_writes")
        out["run_read"] = (out["phase2"] - out["encode_shard_tables"]
                           - out["segment_writes"])
        self.info = {"docs": sum(B._footer_counts(docs)),
                     "docs_bytes": _du(tmp), "runs_bytes": _du(runs_dir)}
        shutil.rmtree(rd)
        return out


class _RunChunks:
    """One package's phase-1 run write, chunk by chunk, over one docs
    file of ``CHUNK_DOCS`` docs whose vocabulary keeps growing."""

    def __init__(self, P, work: str, args):
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        self.P, self.work = P, work
        self.cfg = P.config.IndexConfig()
        rng = np.random.default_rng(args.seed)
        lo = 10_000 * int(rng.integers(100_000))
        pages = P.synth.generate_part(lo, lo + CHUNK_DOCS)
        rare = rng.integers(36 ** 6, 36 ** 9, size=(CHUNK_DOCS, RARE_WORDS))
        extra = pa.array([" ".join(np.base_repr(int(x), 36).lower()
                                   for x in row) for row in rare])
        self.docs = os.path.join(work, "part-0000.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(CHUNK_DOCS, dtype=np.int64) * 7919),
            "text": pc.binary_join_element_wise(pages["text"], extra, " ")}),
            self.docs)
        self.timers = _Timers()          # nothing wrapped: the kernel is
        self.body: list[float] = []      # timed by the generator below
        real = P.B.TokenizeFilePostings
        body = self.body

        class Timed:
            def __init__(self, cfg):
                self.kernel = real(cfg)

            def __call__(self, items):
                for chunk in self.kernel(items):
                    t0 = time.perf_counter()
                    yield chunk
                    body.append(time.perf_counter() - t0)

        self._undo = (P.B, real)
        P.B.TokenizeFilePostings = Timed
        self.info = {"docs": CHUNK_DOCS}

    def rep(self, i: int) -> dict[str, float]:
        B = self.P.B
        self.body.clear()
        B._tokenize_file(self.docs, 0, self.cfg)
        plain = list(self.body)
        self.body.clear()
        rd = os.path.join(self.work, f"runs{i}")
        os.makedirs(rd)
        B._tokenize_file(self.docs, 0, self.cfg,
                         run_path=os.path.join(rd, "run-00000" + (
                             ".arrow" if hasattr(B, "RUN_FILE_SCHEMA")
                             else ".parquet")))
        extra = [a - b for a, b in zip(self.body, plain)]
        self.info.update(chunks=len(extra), run_files=len(os.listdir(rd)),
                         runs_bytes=_du(rd))
        shutil.rmtree(rd)
        return {"run_write": sum(extra),
                **{f"run_write_chunk_{c:02d}": x for c, x in enumerate(extra)}}

    def restore(self) -> None:
        owner, real = self._undo
        owner.TokenizeFilePostings = real


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package_roots", nargs="*",
                    default=[os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__)))])
    ap.add_argument("--path", choices=["inline", "distributed", "run-chunks"],
                    default="inline")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--text", choices=sorted(TEXT_VARIANTS), default="synth")
    ap.add_argument("--per-shard", action="store_true",
                    help="--path distributed: one phase-2 task per shard")
    args = ap.parse_args()

    kind = {"inline": _Inline, "distributed": _Distributed,
            "run-chunks": _RunChunks}[args.path]
    work = tempfile.mkdtemp(prefix="write_path_timing_")
    runs = []
    try:
        for i, root in enumerate(args.package_roots):
            d = os.path.join(work, f"pkg{i}")
            os.makedirs(d)
            runs.append(kind(_load(root, f"_wpt_pkg{i}"), d, args))
        per: list[dict[str, list[float]]] = [{} for _ in runs]
        for rep in range(args.reps + 1):
            order = list(range(len(runs)))
            for j in (order if rep % 2 == 0 else order[::-1]):
                got = runs[j].rep(rep)
                if rep == 0:
                    continue              # warm-up
                for name, secs in got.items():
                    per[j].setdefault(name, []).append(secs)
    finally:
        for r in runs:
            r.timers.restore()
            if hasattr(r, "restore"):
                r.restore()
        shutil.rmtree(work, ignore_errors=True)
    for r, p in zip(runs, per):
        print(json.dumps({
            "package_root": r.P.root, "path": args.path,
            "seed": args.seed, "reps": args.reps, "text": args.text,
            "per_shard": args.per_shard,
            **r.info,
            **{name: _summary(xs) for name, xs in p.items()},
        }))


if __name__ == "__main__":
    main()
