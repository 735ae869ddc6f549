"""rank_topk selection pre-cut ≡ brute-force lexsort, incl. huge tie classes."""

import numpy as np

from snowplow_elasticsearch_loader_ray.bm25 import rank_topk


def _brute(doc_ids, scores, k, score_round=7):
    r = np.round(scores, score_round)
    order = np.lexsort((doc_ids, -r))[:k]
    return doc_ids[order], r[order]


def _check(doc_ids, scores, k):
    d1, s1 = rank_topk(doc_ids, scores, k)
    d2, s2 = _brute(doc_ids, scores, k)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)


def test_rank_topk_massive_boundary_ties():
    # saturating head term: 100k docs round to 3 distinct values, the
    # k-th class holds ~all of them → tie-break is doc_id asc
    rng = np.random.default_rng(5)
    n = 100_000
    scores = rng.choice([2.0e-6, 2.1e-6, 2.2e-6], size=n)
    doc_ids = rng.permutation(n).astype(np.int64)
    for k in (1, 10, 100):
        _check(doc_ids, scores, k)


def test_rank_topk_all_one_class():
    doc_ids = np.arange(5_000, 0, -1, dtype=np.int64)
    scores = np.full(5_000, 0.123456789)
    d, s = rank_topk(doc_ids, scores, 10)
    np.testing.assert_array_equal(d, np.arange(1, 11))


def test_rank_topk_nan_score_keeps_k_hits():
    # np.partition ranks NaN highest: without the NaN check both cuts
    # took the k-th score one row too low and returned 9 hits
    scores = np.append(np.linspace(1, 2, 200), np.nan)
    doc_ids = np.arange(len(scores), dtype=np.int64)
    _check(doc_ids, scores, 10)
    d, _ = rank_topk(doc_ids, scores, 10)
    assert len(d) == 10
    # the NaN in the middle of the rows, and a tie class past 4k + 64
    _check(doc_ids[::-1].copy(), scores, 10)
    ties = np.append(np.full(300, 0.5), [np.nan, 2.0])
    _check(np.arange(len(ties), dtype=np.int64)[::-1].copy(), ties, 10)


def test_rank_topk_random_matches_brute():
    rng = np.random.default_rng(17)
    for n in (3, 50, 700, 20_000):
        scores = rng.random(n)
        # force rounding collisions on part of the range
        scores[: n // 2] = np.round(scores[: n // 2], 2)
        doc_ids = rng.integers(0, 2**62, size=n)
        for k in (1, 7, 10, min(n, 64)):
            _check(doc_ids, scores, k)


def test_rank_topk_k_exceeds_n():
    doc_ids = np.array([5, 3, 9], dtype=np.int64)
    scores = np.array([1.0, 1.0, 2.0])
    d, s = rank_topk(doc_ids, scores, 10)
    np.testing.assert_array_equal(d, [9, 3, 5])


# --------------------------------------------------------------------------
# the cut before rounding (bm25._near_kth) and the ordinal-side rank
# --------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from snowplow_elasticsearch_loader_ray.bm25 import (  # noqa: E402
    _near_kth, _round1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(-1e13, 1e13),
                 st.floats(-1.7e308, 1.7e308, allow_infinity=False)),
       st.sampled_from([0, 2, 7]))
def test_scalar_round_is_numpy_round(x, score_round):
    """The cut's thresholds round one float at a time in plain Python;
    that must be ``np.round`` exactly, rounding midpoints included, and
    ±inf where numpy's scaling by 10^score_round overflows."""
    for v in (x, float(np.round(x, score_round)) + 0.5 * 10.0 ** -score_round):
        assert _round1(v, score_round) == float(np.round(v, score_round))


@st.composite
def _rows(draw):
    """(scores, k) whose k-th score sits in a crowd: rows within a few
    1e-7 rounding steps (or, from 1e9 up, a few float spacings) of a
    rounding midpoint, boundary classes far larger than k, plain spread
    rows, k = 0 and k >= n. Sizes straddle the no-cut limit (4k + 64
    rows)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 5, 70, 300, 2_000, 5_000, 9_000]))
    k = draw(st.one_of(st.integers(0, 40), st.sampled_from([n, n + 3])))
    scale = draw(st.sampled_from([1.0, 40.0, 1e9, 1e12]))
    # a rounding midpoint (x.xxxxxxx5) near which rows crowd
    mid = float(np.round(scale * (1 + rng.random()), 7)) + 0.5e-7
    step = max(2.5e-8, float(np.spacing(mid)))
    crowd = mid + rng.integers(-12, 13, n) * step
    spread = scale * (1 + rng.random(n))
    kind = draw(st.sampled_from(["crowd", "ties", "spread", "mixed"]))
    if kind == "crowd":
        scores = crowd
    elif kind == "ties":                     # a few values, huge classes
        scores = rng.choice(crowd[:3], n) if n >= 3 else crowd
    elif kind == "spread":
        scores = spread
    else:
        scores = np.where(rng.random(n) < 0.3, crowd, spread)
    return np.asarray(scores, dtype=np.float64), k, rng


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_cut_rank_matches_full_lexsort(case):
    scores, k, rng = case
    n = len(scores)
    doc_ids = rng.choice(10**12, size=n, replace=False).astype(np.int64)
    want = _brute(doc_ids, scores, max(k, 0))
    got = rank_topk(doc_ids, scores, k)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    # ordinal side: rows keyed by ordinals into an id table
    table = rng.permutation(np.arange(n + 7, dtype=np.int64) * 3)
    ords = np.sort(rng.choice(n + 7, size=n, replace=False))
    want = _brute(table[ords], scores, max(k, 0))
    got = rank_topk(table, scores, k, ords=ords)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    # the cut keeps every row that rounds into the top k's classes
    if k > 0 and (rows := _near_kth(scores, k, 7)) is not None:
        r = np.round(scores, 7)
        kth = np.sort(r)[n - k]
        assert set(np.flatnonzero(r >= kth).tolist()) <= set(rows.tolist())


def test_cut_margin_follows_float_spacing():
    """Around 1e12 a float spacing is 1.2e-4 and two neighbouring floats
    can round to one 7-decimal value: a fixed two-step (2e-7) margin
    would cut rows of the k-th rounding class. Every row of that class
    must survive, and the rank must equal the full sort."""
    base = 1e12 + 0.123
    sp = float(np.spacing(base))
    scores = np.concatenate((base + np.arange(-40, 41) * sp,
                             np.linspace(1.0, 5.0, 5_000)))
    doc_ids = np.arange(len(scores), dtype=np.int64)[::-1].copy()
    for k in (1, 10, 40, 81):
        _check(doc_ids, scores, k)
        r = np.round(scores, 7)
        kth = np.sort(r)[len(r) - k]
        rows = _near_kth(scores, k, 7)
        assert set(np.flatnonzero(r >= kth).tolist()) <= set(rows.tolist())


def test_cut_rank_at_huge_magnitudes():
    """Scores near 1e300 still take the cut; from about 1.8e301 up numpy's
    rounding overflows to inf (a DSL boost of 1e302 scores there), where
    no cut applies and the rank must neither raise nor differ from the
    full sort. Negative extremes round to -inf."""
    rng = np.random.default_rng(11)
    doc_ids = rng.permutation(6_000).astype(np.int64)
    table = np.arange(6_000, dtype=np.int64)[::-1].copy()
    for scale in (1e300, 1e302, 1.7e308, -1.7e308):
        spread = scale * (1 - rng.random(6_000) / 8)
        ties = np.full(6_000, scale)
        for scores in (spread, ties, np.where(rng.random(6_000) < 0.5, spread, 1.0)):
            for k in (1, 10, 40):
                _check(doc_ids, scores, k)
                want = _brute(table[doc_ids], scores, k)
                got = rank_topk(table, scores, k, ords=doc_ids)
                assert got[0].tolist() == want[0].tolist()
                assert got[1].tolist() == want[1].tolist()
