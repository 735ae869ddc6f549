"""Per-kernel timing of the in-process (inline) index build.

Run: python scripts/write_path_timing.py [<package-root>] [--seed N] [--reps N]
         [--text synth|web-punct|dotted-i]

``<package-root>`` is the checkout whose package is imported (the
directory that holds ``snowplow_elasticsearch_loader_ray/``; default:
this script's checkout), so the same script times a parent copy and the
working tree. No Ray session is started: the inline build runs in this
process.

The corpus is shaped like perfbench's ``serve`` index: 6,000 seeded
synthetic pages (``sources.synth``) through the ingest kernel
(``ExtractTransform``), about 5.9k good docs in 4 files, 8 term shards,
default ``IndexConfig`` otherwise. ``--text`` rewrites punctuation to
time the tokenizer's text-dependent paths: ``web-punct`` replaces every
``,`` ``;`` ``:`` with U+2019, U+2014, U+201C (the ``E2``-led
punctuation of web text, which the lowercase probe must look past);
``dotted-i`` replaces every ``&`` with U+0130, so every chunk takes the
``utf8_lower`` path. Each rep builds a fresh index directory with
``build_index`` and sums, per build, the wall time spent in:

- ``postings_chunk``: phase 1's tokenize-and-rank kernel;
- ``encode_shard_tables``: phase 2's sort and encode of every shard;
- ``commits``: the manifest commits (``commit`` and, where the package
  has it, ``commit_many``), with their count;
- ``build``: the whole ``build_index`` call.

Prints one JSON object: per measurement the median, the quartiles and
the IQR in ms over the reps (the first, warm-up build is dropped).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

PAGES, FILES, TERM_SHARDS = 6_000, 4, 8


#: ``--text`` variants: (pattern, replacement) pairs applied to the text
TEXT_VARIANTS = {
    "synth": [],
    "web-punct": [(",", "\u2019"), (";", "\u2014"), (":", "\u201c")],
    "dotted-i": [("&", "\u0130")],
}


def _corpus(docs_dir: str, seed: int, text: str = "synth") -> int:
    """Write the seeded good-doc table as ``FILES`` parquet files → its
    row count."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.sources import synth
    from snowplow_elasticsearch_loader_ray.stages.extract import ExtractTransform

    lo = 10_000 * int(np.random.default_rng(seed).integers(100_000))
    out = ExtractTransform(IndexConfig())(synth.generate_part(lo, lo + PAGES))
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

    def reset(self) -> None:
        for v in self.acc.values():
            v[0], v[1] = 0.0, 0

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _summary(xs: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median_ms": round(1e3 * med, 2), "q1_ms": round(1e3 * q1, 2),
            "q3_ms": round(1e3 * q3, 2), "iqr_ms": round(1e3 * (q3 - q1), 2)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package_root", nargs="?",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--text", choices=sorted(TEXT_VARIANTS), default="synth")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.package_root))

    from snowplow_elasticsearch_loader_ray.config import IndexConfig
    from snowplow_elasticsearch_loader_ray.pipelines import build as B
    from snowplow_elasticsearch_loader_ray.stages import postings
    from snowplow_elasticsearch_loader_ray.state import manifest as mf

    cfg = IndexConfig(num_term_shards=TERM_SHARDS)
    work = tempfile.mkdtemp(prefix="write_path_timing_")
    timers = _Timers()
    try:
        n_docs = _corpus(os.path.join(work, "docs"), args.seed, args.text)
        timers.wrap(postings, "postings_chunk", "postings_chunk")
        timers.wrap(B, "encode_shard_tables", "encode_shard_tables")
        timers.wrap(mf, "commit", "commits")
        timers.wrap(mf, "commit_many", "commits")
        timers.wrap(B, "build_index", "build")
        per: dict[str, list[float]] = {}
        n_commits = 0
        for rep in range(args.reps + 1):
            idx = os.path.join(work, f"index{rep}")
            timers.reset()
            B.build_index(os.path.join(work, "docs"), idx, cfg)
            shutil.rmtree(idx)
            if rep == 0:
                continue
            for name, (secs, _calls) in timers.acc.items():
                per.setdefault(name, []).append(secs)
            n_commits = timers.acc["commits"][1]
    finally:
        timers.restore()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "package_root": os.path.abspath(args.package_root),
        "seed": args.seed, "reps": args.reps, "text": args.text,
        "docs": n_docs,
        "commit_calls_per_build": n_commits,
        **{name: _summary(xs) for name, xs in per.items()},
    }))


if __name__ == "__main__":
    main()
