"""End-to-end web-corpus cleaning — the composed training-data prep
pipeline (quality gate → exact dedup → per-language accounting) as ONE
streaming Dataset chain.

This is the canonical LLM-corpus flow the individual operators exist
for: `quality_stats`-style gating (too-short and no-stopword/gibberish
docs dropped), exact duplicate removal (first-doc-wins), and the
per-language token accounting a training-mix budget needs. The
reference's analogue is the good-stream filter before the ES load
(``Processing.scala:42-49`` routes only transformable events to the
sink); the dedup-by-id role is ES upsert (``ElasticsearchSink.scala``).

Scale shape (100 TB honest): the quality stage filters INSIDE
map_batches, so dropped docs never leave the reading task; the rows
that reach the dedup shuffle are 32 B fixed-width (hash, packed
id+lang, n_tokens) — never text; the dedup is one hash groupby whose
output is survivor-per-text; and the final per-language rollup
aggregates a 3-column table down to n_langs rows. Driver sees only the
summary. Survivor attribution (which duplicate's lang counts) rides the
groupby as a packed integer min — ``min(doc_id * K + lang_idx)`` picks
the smallest doc_id's row without a second shuffle or an arg-min UDF;
K = n_langs rounded up, so the pack is exact while
doc_id < 2^63 / K (~10^17 for a dozen languages).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min, Sum

from .. import _raydata  # noqa: F401 (thread-safe path probe)
from .analysis import STOPWORDS
from .dedup import content_hash64
from ..tokenizer import tokenize_to_terms

#: quality gate (tuned against the synthetic webtext corpus: both
#: clauses drop real documents — see BASELINE.md / driver entry)
MIN_TOKENS = 25
MIN_STOPWORD_RATIO = 0.02


class QualityGate:
    """Per-doc quality stats + filter + 16-byte dedup rows, one stage.

    Emits only PASSING docs as (content_hash, packed, n_tokens) where
    ``packed = doc_id * pack_k + lang_idx`` — fixed-width rows for the
    dedup shuffle; text never leaves this stage."""

    def __init__(self, langs: list[str],
                 min_tokens: int = MIN_TOKENS,
                 min_stopword_ratio: float = MIN_STOPWORD_RATIO):
        self.lang_idx = {l: i for i, l in enumerate(langs)}
        self.pack_k = len(langs) + 1          # idx len(langs) = unknown
        self.min_tokens = min_tokens
        self.min_ratio = min_stopword_ratio
        self.stop = frozenset(STOPWORDS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, idx = tokenize_to_terms(batch["text"])
        idx_np = idx.to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(idx_np, minlength=n).astype(np.int64)
        is_stop = pc.is_in(flat, value_set=pa.array(sorted(self.stop))) \
            .to_numpy(zero_copy_only=False)
        n_stop = np.bincount(idx_np[is_stop], minlength=n).astype(np.int64)
        ratio = np.divide(n_stop, n_tokens,
                          out=np.zeros(n, dtype=np.float64),
                          where=n_tokens > 0)
        keep = (n_tokens >= self.min_tokens) & (ratio >= self.min_ratio)
        kept = batch.filter(pa.array(keep))
        hs = np.fromiter(
            (content_hash64(t) for t in kept["text"].to_pylist()),
            dtype=np.int64, count=kept.num_rows)
        ids = kept["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lidx = np.fromiter(
            (self.lang_idx.get(l, len(self.lang_idx))
             for l in kept["lang"].to_pylist()),
            dtype=np.int64, count=kept.num_rows)
        return pa.table({
            "content_hash": pa.array(hs),
            "packed": pa.array(ids * self.pack_k + lidx),
            "n_tokens": pa.array(n_tokens[keep]),
        })


def corpus_clean_summary(ds: ray.data.Dataset,
                         min_tokens: int = MIN_TOKENS,
                         min_stopword_ratio: float = MIN_STOPWORD_RATIO
                         ) -> tuple[pa.Table, list[str]]:
    """Quality-gate → exact-dedup → per-language rollup; returns
    (summary table (lang, n_docs, total_tokens), langs). ``ds`` must
    expose (doc_id, text, lang)."""
    # distinct langs first (a tiny distributed unique — the pack
    # dictionary; at 100 TB this is one shuffle of ~n_langs rows)
    langs = sorted(ds.unique("lang"))
    gate = QualityGate(list(langs), min_tokens, min_stopword_ratio)
    pack_k = gate.pack_k
    survivors = (ds.map_batches(gate, batch_format="pyarrow")
                 .groupby("content_hash")
                 .aggregate(Min("packed", alias_name="packed"),
                            Min("n_tokens", alias_name="n_tokens")))

    def _unpack(b: pa.Table) -> pa.Table:
        packed = b["packed"].to_numpy(zero_copy_only=False)
        li = (packed % pack_k).astype(np.int64)
        return pa.table({
            "lang": pa.array([langs[i] if i < len(langs) else "und"
                              for i in li.tolist()], pa.string()),
            "n_tokens": b["n_tokens"],
        })

    summary = (survivors
               .map_batches(_unpack, batch_format="pyarrow")
               .groupby("lang")
               .aggregate(Count(alias_name="n_docs"),
                          Sum("n_tokens", alias_name="total_tokens"))
               .sort("lang")
               .take_all())
    out = pa.table({
        "lang": pa.array([r["lang"] for r in summary], pa.string()),
        "n_docs": pa.array([int(r["n_docs"]) for r in summary], pa.int64()),
        "total_tokens": pa.array([int(r["total_tokens"]) for r in summary],
                                 pa.int64()),
    })
    return out, list(langs)
