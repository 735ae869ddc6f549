"""The one BM25 formula, shared by the engine, the oracle and the bench.

Fixed parameters k1=1.2, b=0.75 (SURVEY.md §7.4 "BM25 reproducibility").
Lucene-style idf (always positive)::

    idf(t)       = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(t, d)  = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl))

Ranking is by ``round(score, SCORE_ROUND)`` descending, then doc_id
ascending — the documented deterministic tie-break that makes
"rank-identical" well-defined across float summation orders
(engine numpy vs DuckDB oracle).
"""

from __future__ import annotations

import math

import numpy as np

K1 = 1.2
B = 0.75
SCORE_ROUND = 7


def idf(n_docs: float, df: float) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def _tf_part(tf, doclen, avgdl: float, k1: float, b: float):
    """The tf part's arithmetic, on float64 arrays or Python floats:
    the same IEEE operations either way."""
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * doclen / avgdl))


def tf_weight(tf: np.ndarray, doclen: np.ndarray, avgdl: float,
              k1: float = K1, b: float = B) -> np.ndarray:
    """Vectorized tf part; tf/doclen may be numpy arrays or scalars."""
    return _tf_part(np.asarray(tf, dtype=np.float64),
                    np.asarray(doclen, dtype=np.float64), avgdl, k1, b)


def term_bound(n_docs: float, df: float, max_tf: float, dl_min: float,
               avgdl: float, k1: float = K1, b: float = B) -> float:
    """MaxScore bound of one term: ``idf × tf_weight`` at the term's
    largest tf (block-max metadata) and the corpus's smallest doclen.
    ``tf_weight`` rises with tf and falls with doclen, so no partial of
    the term exceeds it. ``tf_weight``'s arithmetic on Python floats:
    a serve stream meets new terms all the time, and numpy's per-call
    set-up would cost each one a few µs."""
    return idf(n_docs, df) * _tf_part(float(max_tf), float(dl_min),
                                      avgdl, k1, b)


def _round1(x: float, score_round: int) -> float:
    """``np.round(x, score_round)`` of one float without numpy's
    per-call cost: for ``score_round >= 0`` numpy multiplies by
    10^score_round, rounds half to even (``rint``) and divides — the
    same IEEE operations as below (Python's ``round`` is half-to-even
    and exact). Where the product overflows, numpy's answer is ±inf."""
    f = 10.0 ** score_round
    y = x * f
    if score_round < 0 or not math.isfinite(y):
        return float(np.round(x, score_round))
    return round(y) / f


def _below_round_class(x: float, score_round: int) -> float:
    """A threshold ``lo`` under which every score rounds strictly below
    ``round(x)`` (finite). ``np.round`` never reverses an order, so a
    score under ``lo`` rounds to at most ``round(prev(lo))``. ``lo``
    starts two rounding steps below ``x``, or four float spacings where
    those are wider (from about 1e9 up a spacing exceeds a 1e-7 step,
    and around 1e12 two neighbouring floats can round alike), and
    widens until ``round(prev(lo)) < round(x)``."""
    r_x = _round1(x, score_round)
    margin = 2.0 * max(10.0 ** -score_round, 4.0 * math.ulp(x))
    while _round1(math.nextafter(x - margin, -math.inf),
                  score_round) >= r_x:
        margin *= 2.0
    return x - margin


def _near_kth(scores: np.ndarray, k: int,
              score_round: int) -> np.ndarray | None:
    """Positions of the raw ``scores`` that can round to at least the
    k-th largest rounded score, found before any rounding; None when no
    cut pays (at most ``4k + 64`` rows, or every row survives) or
    applies (integer scores, or a k-th score that is not finite or
    rounds to ±inf).

    The k-th largest rounded score is ``round(kth)`` for the k-th
    largest raw score ``kth`` (rounding never reverses an order), so
    the rows at or above ``_below_round_class(kth)`` are all a top-k can
    hold, ties included. None too when a score is NaN: ``np.partition``
    ranks NaN highest, so the k-th largest would sit one row too low
    (the check reads only the partition's top-k slice)."""
    n = len(scores)
    if n <= 4 * k + 64 or scores.dtype.kind != "f":
        return None
    top = np.partition(scores, n - k)[n - k:]
    kth = float(top[0])
    if np.isnan(top).any() or not math.isfinite(_round1(kth, score_round)):
        return None
    keep = np.flatnonzero(scores >= _below_round_class(kth, score_round))
    return None if len(keep) == n else keep


def rank_topk(doc_ids: np.ndarray, scores: np.ndarray, k: int,
              score_round: int = SCORE_ROUND, ords: np.ndarray | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (round(score) desc, doc_id asc); returns (doc_ids, rounded scores).

    With ``ords``, row i is the doc with ordinal ``ords[i]`` and
    ``doc_ids`` maps ordinal → external id: only the rows that survive
    the cut before rounding gather their ids."""
    if k <= 0:
        # size=0 is a legal ES request (aggs-only search): no hits
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    near = _near_kth(scores, k, score_round)
    if near is not None:                 # round only the rows that can rank
        scores = scores[near]
        if ords is None:
            doc_ids = doc_ids[near]
        else:
            ords = ords[near]
    if ords is not None:
        doc_ids = doc_ids[ords]
    r = np.round(scores, score_round)
    if len(r) > 4 * k + 64:
        # the rows near the k-th score can still be a huge tie class
        # (10^5+ docs when a saturating head term rounds to few distinct
        # values): everything STRICTLY above the k-th rounded score
        # survives (< k rows by construction), and the k-th-score
        # boundary class contributes only its m smallest doc_ids via
        # argpartition — never a sort over the tie class. Identical
        # result to lexsorting all candidates. A NaN in the top-k slice
        # (np.partition ranks it highest) skips the cut: the lexsort
        # below ranks NaN last.
        top = np.partition(r, len(r) - k)[len(r) - k:]
        if not np.isnan(top).any():
            kth = top[0]
            above = np.nonzero(r > kth)[0]
            bnd = np.nonzero(r == kth)[0]
            m = k - len(above)
            if m > 0 and len(bnd) > m:
                bnd = bnd[np.argpartition(doc_ids[bnd], m - 1)[:m]]
            sel = np.concatenate((above, bnd))
            doc_ids, r = doc_ids[sel], r[sel]
    order = np.lexsort((doc_ids, -r))
    top = order[:k]
    return doc_ids[top], r[top]
