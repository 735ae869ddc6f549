"""ES ``_search`` request-body planner: execute a (subset of the) ES
query DSL against the engine's index reader, dispatching to the
existing scoring/boolean primitives so every DSL shape is BIT-identical
to its direct-call sibling (pinned in tests/test_query_dsl.py).

Reference context: the loader's consumers query the indexed documents
through ES's ``_search`` JSON API (SURVEY.md Q1); this module is the
"switch from the reference" surface — an ES user's request body runs
unchanged. Supported grammar (the subset the engine serves):

    {"query": <q>, "size": k, "from": o}
    <q> := {"match": {"text": "w1 w2"}}
         | {"match": {"text": {"query": "...",
                               "minimum_should_match": m}}}
         | {"bool": {"must": [<match>],
                     "filter": [{"term": {"text": t}}
                                | {"range": {"doclen": {"gte": lo,
                                                        "lte": hi}}}
                                | {"match_phrase": {"text": "a b"}}],
                     "must_not": [<match>],
                     "should": [{"rank_feature":
                                 {"field": "doclen",
                                  "saturation": {"pivot": p},
                                  "boost": b}}]}}
         | {"dis_max": {"queries": [<match>...],
                        "tie_breaker": tb}}
         | {"boosting": {"positive": <match>, "negative": <match>,
                         "negative_boost": nb}}
         | {"simple_query_string": {"query": 'a +b -c "d e"',
                                    "fields": ["text"]}}
         | {"constant_score": {"filter": {"term": {"text": t}},
                               "boost": b}}
         | {"function_score": {"query": <match>,
                               "gauss"|"exp"|"linear": {"doclen": {...}}
                               | "field_value_factor": {...}
                               | "random_score": {...}}}
         | {"pinned": {"ids": [...], "organic": <match>}}
         | {"terms_set": {"text": {"terms": [...],
                                   "minimum_should_match_field":
                                   "doclen"}}}
         | {"intervals": {"text": {"match": {"query": "a b",
                                             "max_gaps": g,
                                             "ordered": bool}}}}

Pagination is the ES coordinator rule: rank (from+size), return the
[from:] slice. Unsupported constructs raise ``UnsupportedDSL`` loudly
(never a silent wrong answer).
"""

from __future__ import annotations

import re

import numpy as np

from .. import bm25
from .query import (
    IndexReader,
    _taat_scores_ords,
    isin_sorted,
    score_boosting,
    score_field_value_factor,
    score_function_exp,
    score_function_gauss,
    score_function_linear,
    score_min_should_match,
    score_random,
    score_terms_set,
    tokenize_query,
)

#: synthetic score of the first pinned doc; each further pinned slot
#: steps down by 1 — far above any BM25 sum, mirroring ES's ~1.7e38
#: pinned-score ramp while staying exactly representable in float64
PINNED_SCORE_BASE = 1e12


class UnsupportedDSL(ValueError):
    pass


def _match_text(q: dict) -> tuple[str, int | None]:
    """Pull (query string, minimum_should_match|None) from a match node."""
    if set(q) != {"match"} or set(q["match"]) != {"text"}:
        raise UnsupportedDSL(f"expected a match-on-text clause, got {q!r}")
    v = q["match"]["text"]
    if isinstance(v, str):
        return v, None
    if isinstance(v, dict):
        extra = set(v) - {"query", "minimum_should_match"}
        if extra or "query" not in v:
            raise UnsupportedDSL(f"unsupported match options {extra or v!r}")
        return v["query"], v.get("minimum_should_match")
    raise UnsupportedDSL(f"bad match value {v!r}")


def _term_ords(reader: IndexReader, term: str) -> np.ndarray:
    """Sorted ordinal positions of docs containing ``term``."""
    pl = reader.postings(term)
    if pl is None:
        return np.empty(0, dtype=np.int64)
    docs = pl.decode_all()[0]
    return np.sort(docs)


def _rank_feature_params(clause: dict) -> tuple[float, float]:
    """Validate one ``rank_feature`` should-clause -> (pivot, boost)."""
    if set(clause) != {"rank_feature"}:
        raise UnsupportedDSL(
            f"bool.should supports rank_feature clauses only, "
            f"got {clause!r}")
    rf = clause["rank_feature"]
    extra = set(rf) - {"field", "saturation", "boost"}
    if extra or rf.get("field", "doclen") != "doclen":
        raise UnsupportedDSL(f"unsupported rank_feature {rf!r}")
    sat = rf.get("saturation", {})
    if set(sat) - {"pivot"}:
        raise UnsupportedDSL(f"rank_feature saturation {sat!r}")
    if "pivot" not in sat:
        raise UnsupportedDSL("rank_feature needs saturation.pivot "
                             "(the index has no default pivot)")
    return float(sat["pivot"]), float(rf.get("boost", 1.0))


def _exec_bool(reader: IndexReader, node: dict, k: int,
               pos_reader=None) -> tuple[np.ndarray, np.ndarray]:
    extra = set(node) - {"must", "filter", "must_not", "should"}
    if extra:
        raise UnsupportedDSL(f"unsupported bool clauses {extra}")
    should = node.get("should", [])
    if isinstance(should, dict):
        should = [should]
    # validate up front (the raise-before-early-exit rule)
    rank_features = [_rank_feature_params(c) for c in should]
    must = node.get("must", [])
    if isinstance(must, dict):
        must = [must]
    if len(must) != 1:
        raise UnsupportedDSL("bool.must needs exactly one scoring match")
    q, msm = _match_text(must[0])
    if msm is not None:
        raise UnsupportedDSL("minimum_should_match inside bool is unsupported")

    filters = node.get("filter", [])
    if isinstance(filters, dict):
        filters = [filters]
    # validate EVERY clause fully (outer kind, inner field, option
    # keys, positional-index availability) BEFORE scoring, so an
    # unsupported shape raises even when the match clause hits zero
    # docs or an earlier filter empties the candidate set
    for f in filters:
        if set(f) == {"term"}:
            if set(f["term"]) not in ({"text"}, {"lang"}):
                raise UnsupportedDSL(f"term filter on {set(f['term'])}")
            if "lang" in f["term"] and not isinstance(f["term"]["lang"],
                                                      str):
                raise UnsupportedDSL(f"bad lang value {f['term']!r}")
        elif set(f) == {"match_phrase"}:
            if set(f["match_phrase"]) != {"text"}:
                raise UnsupportedDSL(
                    f"match_phrase on {set(f['match_phrase'])}")
            if pos_reader is None:
                raise UnsupportedDSL(
                    "match_phrase filter needs a positional index "
                    "(pass pos_reader)")
        elif set(f) == {"range"}:
            if set(f["range"]) != {"doclen"}:
                raise UnsupportedDSL(f"range filter on {set(f['range'])}")
            bad = set(f["range"]["doclen"]) - {"gte", "lte"}
            if bad:
                raise UnsupportedDSL(f"range bounds {bad}")
        else:
            raise UnsupportedDSL(f"unsupported filter {f!r}")
    for mn in node.get("must_not", []):
        if _match_text(mn)[1] is not None:
            raise UnsupportedDSL(
                "minimum_should_match inside must_not is unsupported")

    ords, scores = _taat_scores_ords(reader, q)
    if not len(ords):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    if rank_features:
        # additive should (the ES contract): each rank_feature clause
        # adds boost x dl/(dl + pivot) — promote, never veto
        dl = reader.dl_lens[ords].astype(np.float64)
        scores = scores.copy()
        for pivot, boost in rank_features:
            scores += boost * (dl / (dl + pivot))

    for f in filters:
        if set(f) == {"term"}:
            if "lang" in f["term"]:
                # keyword-field term filter: one doc-value gather (ES
                # serves keyword terms from doc_values the same way)
                from .query import lang_docvalues

                keep = lang_docvalues(reader)[ords] == f["term"]["lang"]
            else:
                fp = _term_ords(reader, f["term"]["text"])
                keep = isin_sorted(fp, ords)
        elif set(f) == {"match_phrase"}:
            from .positions import phrase_search

            # phrase_search returns EXTERNAL doc ids; map candidates'
            # ords to external ids for the membership test
            ph = np.sort(np.asarray(
                phrase_search(pos_reader, f["match_phrase"]["text"]),
                dtype=np.int64))
            keep = isin_sorted(ph, reader.dl_doc_ids[ords])
        else:
            r = f["range"]["doclen"]
            dl = reader.dl_lens[ords]
            keep = np.ones(len(ords), dtype=bool)
            if "gte" in r:
                keep &= dl >= r["gte"]
            if "lte" in r:
                keep &= dl <= r["lte"]
        ords, scores = ords[keep], scores[keep]
        if not len(ords):
            break

    for mn in node.get("must_not", []):
        if not len(ords):
            break
        nq, _ = _match_text(mn)
        for t in sorted(set(tokenize_query(nq))):
            ex = _term_ords(reader, t)
            if not len(ords):
                break
            keep = ~isin_sorted(ex, ords)
            ords, scores = ords[keep], scores[keep]

    return bm25.rank_topk(reader.dl_doc_ids[ords], scores, k)


#: simple_query_string lexemes: quoted phrase | signed bare term
_QS_TOKEN = re.compile(r'"([^"]*)"|([+-]?)([A-Za-z0-9]+)')


def parse_simple_query_string(s: str
                              ) -> tuple[list[str], list[str], list[str]]:
    """ES ``simple_query_string`` mini-grammar -> (phrases, required,
    prohibited). Bare terms and ``+terms`` both score; ``+`` adds a
    membership requirement, ``-`` excludes, ``"..."`` requires the
    exact phrase (whose terms also score — the Lucene behavior)."""
    phrases, plus, minus = [], [], []
    for m in _QS_TOKEN.finditer(s):
        if m.group(1) is not None:
            p = m.group(1).lower().strip()
            if p:
                phrases.append(p)
        elif m.group(2) == "-":
            minus.append(m.group(3).lower())
        elif m.group(2) == "+":
            plus.append(m.group(3).lower())
    return phrases, plus, minus


def simple_query_string(reader: IndexReader, s: str, k: int,
                        pos_reader=None) -> tuple[np.ndarray, np.ndarray]:
    """Execute one ``simple_query_string`` expression: BM25 over the
    unique positive terms (bare + ``+`` + phrase terms), then the
    ``+``/phrase membership filters and ``-`` exclusions — the same
    plan ``_exec_bool`` runs for the equivalent hand-built bool body."""
    phrases, plus, minus = parse_simple_query_string(s)
    scoring = sorted(set(
        t for t in re.findall(r"[a-z0-9]+", s.lower())
        if t not in set(minus)))
    if not scoring:
        raise UnsupportedDSL(f"no positive terms in {s!r}")
    bool_node = {"must": [{"match": {"text": " ".join(scoring)}}]}
    filters = [{"term": {"text": t}} for t in plus]
    filters += [{"match_phrase": {"text": p}} for p in phrases]
    if filters:
        bool_node["filter"] = filters
    if minus:
        bool_node["must_not"] = [{"match": {"text": t}} for t in minus]
    return _exec_bool(reader, bool_node, k, pos_reader=pos_reader)


def execute_with_aggs(reader: IndexReader, body: dict, pos_reader=None
                      ) -> tuple[np.ndarray, np.ndarray, dict]:
    """``execute`` plus the request's ``aggs`` section: aggregations
    run over the FULL match set of the query (every hit, not the
    returned page — the ES contract), served from the doc-value
    columns. Supported: ``terms``/``cardinality`` on ``lang`` and
    ``stats``/``extended_stats``/``range`` on ``doclen``."""
    from .query import (facet_doclen_extended_stats, facet_doclen_ranges,
                        facet_doclen_stats, facet_lang_counts)

    aggs = body.get("aggs", {})
    node = body.get("query", {})
    if aggs and set(node) != {"match"}:
        raise UnsupportedDSL("aggs are supported on match queries only")

    def _ranges_of(spec: dict) -> list[tuple[int | None, int | None]]:
        rs = spec.get("ranges")
        if (not isinstance(rs, list) or not rs
                or any(set(b) - {"from", "to"} or not b for b in rs)):
            raise UnsupportedDSL(f"bad range buckets {rs!r}")
        return [(b.get("from"), b.get("to")) for b in rs]

    for name, spec in aggs.items():
        if set(spec) == {"terms"}:
            if spec["terms"].get("field") != "lang":
                raise UnsupportedDSL(f"terms agg on {spec['terms']!r}")
        elif set(spec) == {"cardinality"}:
            if spec["cardinality"].get("field") != "lang":
                raise UnsupportedDSL(
                    f"cardinality agg on {spec['cardinality']!r}")
        elif set(spec) == {"stats"}:
            if spec["stats"].get("field") != "doclen":
                raise UnsupportedDSL(f"stats agg on {spec['stats']!r}")
        elif set(spec) == {"extended_stats"}:
            if spec["extended_stats"].get("field") != "doclen":
                raise UnsupportedDSL(
                    f"extended_stats agg on {spec['extended_stats']!r}")
        elif set(spec) == {"range"}:
            if spec["range"].get("field") != "doclen":
                raise UnsupportedDSL(f"range agg on {spec['range']!r}")
            if set(spec["range"]) - {"field", "ranges"}:
                raise UnsupportedDSL(f"range agg keys {spec['range']!r}")
            _ranges_of(spec["range"])       # validate before execution
        else:
            raise UnsupportedDSL(f"unsupported agg {name}: {spec!r}")
    inner = {k: v for k, v in body.items() if k != "aggs"}
    d, s = execute(reader, inner, pos_reader=pos_reader)
    out: dict = {}
    if aggs:
        q, msm = _match_text(node)
        if msm is not None:
            raise UnsupportedDSL(
                "aggs with minimum_should_match would diverge: hits "
                "honor msm but aggregations run over the ANY-term "
                "match set — refused rather than silently wrong")
        for name, spec in aggs.items():
            if "terms" in spec:
                out[name] = facet_lang_counts(reader, q)
            elif "cardinality" in spec:
                out[name] = len(facet_lang_counts(reader, q))
            elif "extended_stats" in spec:
                out[name] = facet_doclen_extended_stats(reader, q)
            elif "range" in spec:
                ranges = _ranges_of(spec["range"])
                counts = facet_doclen_ranges(reader, q, ranges)
                out[name] = [{"from": lo, "to": hi, "doc_count": c}
                             for (lo, hi), c in zip(ranges, counts)]
            else:
                out[name] = facet_doclen_stats(reader, q)
    return d, s, out


def execute_distributed(engine, body: dict
                        ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run a ``_search`` request body on the DISTRIBUTED serving plane
    (``ShardedQueryEngine`` with any ``n_doc_parts`` — scatter-gather
    over term-shard actors in each doc stripe): the coordinator-side
    subset is ``match`` + from/size paging + ``terms``/``stats`` aggs,
    each dispatched to the engine's distributed primitive and therefore
    bit-identical to the single-reader ``execute``/``execute_with_aggs``
    (the engine pins score identity at every stripe count). Returns
    (doc_ids, scores, aggs)."""
    extra = set(body) - {"query", "size", "from", "aggs"}
    if extra:
        raise UnsupportedDSL(f"unsupported distributed keys {extra}")
    node = body.get("query")
    if not isinstance(node, dict) or set(node) != {"match"}:
        raise UnsupportedDSL(
            "the distributed planner serves match queries only")
    q, msm = _match_text(node)
    if msm is not None:
        raise UnsupportedDSL(
            "minimum_should_match is unsupported on the distributed plane")
    size = body.get("size", 10)
    offset = body.get("from", 0)
    if size < 0 or offset < 0:
        raise UnsupportedDSL("size/from must be non-negative")
    aggs = body.get("aggs", {})
    for name, spec in aggs.items():
        if set(spec) == {"terms"}:
            if spec["terms"].get("field") != "lang":
                raise UnsupportedDSL(f"terms agg on {spec['terms']!r}")
        elif set(spec) == {"stats"}:
            if spec["stats"].get("field") != "doclen":
                raise UnsupportedDSL(f"stats agg on {spec['stats']!r}")
        else:
            raise UnsupportedDSL(f"unsupported agg {name}: {spec!r}")
    if size + offset > 0:
        d, s = engine.topk(q, size + offset)
        d, s = d[offset:], s[offset:]
    else:
        d = np.empty(0, dtype=np.int64)
        s = np.empty(0, dtype=np.float64)
    out: dict = {}
    for name, spec in aggs.items():
        if "terms" in spec:
            out[name] = engine.facet_lang_counts(q)
        else:
            out[name] = engine.facet_doclen_stats(q)
    return d, s, out


def execute_retriever(reader: IndexReader, body: dict, pos_reader=None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """ES 8.16 ``retriever`` tree: a top-level ``rrf`` retriever fusing
    N ``standard`` sub-retrievers (each an ordinary ``query`` run at
    ``rank_window_size``) by reciprocal rank — score = Σ 1/(rc+rank)
    summed in retriever LIST order (fixed float operand order, the
    oracle contract), ties doc_id asc. Each leg reuses the planner
    unchanged; fusion is rank-list-sized."""
    node = body.get("retriever")
    if not isinstance(node, dict) or set(node) != {"rrf"}:
        raise UnsupportedDSL(f"unsupported retriever {node!r}")
    spec = node["rrf"]
    extra = set(spec) - {"retrievers", "rank_constant", "rank_window_size"}
    if extra:
        raise UnsupportedDSL(f"unsupported rrf keys {extra}")
    rc = float(spec.get("rank_constant", 60))
    window = int(spec.get("rank_window_size", 10))
    legs = spec.get("retrievers")
    if not isinstance(legs, list) or not legs:
        raise UnsupportedDSL("rrf needs a non-empty retrievers list")
    scores: dict[int, float] = {}
    for leg in legs:
        if not isinstance(leg, dict) or set(leg) != {"standard"}:
            raise UnsupportedDSL(f"unsupported sub-retriever {leg!r}")
        d, _s = execute(reader, {"query": leg["standard"]["query"],
                                 "size": window}, pos_reader)
        for rank, doc in enumerate(d.tolist(), start=1):
            scores[doc] = scores.get(doc, 0.0) + 1.0 / (rc + rank)
    if not scores:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    docs = np.fromiter(scores, dtype=np.int64, count=len(scores))
    vals = np.fromiter(scores.values(), dtype=np.float64,
                       count=len(scores))
    order = np.lexsort((docs, -vals))[:body.get("size", 10)]
    return docs[order], vals[order]


def render_template(node, params: dict):
    """ES ``_search/template`` (mustache-lite): substitute ``{{name}}``
    placeholders into a request-body template. A string that IS a
    placeholder (``"{{size}}"``) is replaced by the param value with
    its native type (the ES number-parameter behavior); a string that
    CONTAINS placeholders gets string substitution. Unknown
    placeholders are a refusal, not a silent empty string — a template
    bug must not execute a different query."""
    if isinstance(node, dict):
        return {k: render_template(v, params) for k, v in node.items()}
    if isinstance(node, list):
        return [render_template(v, params) for v in node]
    if isinstance(node, str):
        import re as _re

        names = _re.findall(r"\{\{(\w+)\}\}", node)
        missing = [n for n in names if n not in params]
        if missing:
            raise UnsupportedDSL(f"unbound template params {missing}")
        if len(names) == 1 and node == "{{" + names[0] + "}}":
            return params[names[0]]
        out = node
        for n in names:
            out = out.replace("{{" + n + "}}", str(params[n]))
        return out
    return node


def execute(reader: IndexReader, body: dict, pos_reader=None,
            field_readers: dict | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Run one ES ``_search`` request body; returns (doc_ids, scores)
    of the requested page, ranked by the engine's BM25 contract.

    ``field_readers``: name → IndexReader over per-field indexes
    (``pipelines.multifield.build_field_indexes``) — required for
    ``multi_match``; every other query shape scores ``reader``."""
    extra = set(body) - {"query", "size", "from", "search_after",
                         "min_score"}
    if extra:
        raise UnsupportedDSL(f"unsupported top-level keys {extra}")
    min_score = body.get("min_score")
    if min_score is not None:
        if not isinstance(min_score, (int, float)) \
                or isinstance(min_score, bool):
            raise UnsupportedDSL(f"bad min_score {min_score!r}")
        if "search_after" in body:
            raise UnsupportedDSL(
                "min_score with search_after is unsupported")
        # ES applies min_score BEFORE pagination: rank the full page
        # window, drop sub-threshold hits, then slice
        inner = {k: v for k, v in body.items() if k != "min_score"}
        d, s = execute(reader, inner, pos_reader=pos_reader,
                       field_readers=field_readers)
        # the inner call already sliced [from:]; min_score only ever
        # removes a SUFFIX of a descending-ranked page, so filtering
        # after the slice equals ES's filter-then-paginate when the
        # page head is full — refuse offsets to keep it exact
        if body.get("from", 0):
            raise UnsupportedDSL(
                "min_score with from-offset pagination is unsupported "
                "(dropped hits shift page boundaries)")
        keep = s >= float(min_score)
        return d[keep], s[keep]
    if "search_after" in body:
        from .query import score_taat_after

        if "from" in body:
            raise UnsupportedDSL("search_after and from are exclusive")
        if body.get("size", 10) < 0:
            raise UnsupportedDSL("size must be non-negative")
        node = body.get("query")
        if not isinstance(node, dict) or set(node) != {"match"}:
            raise UnsupportedDSL(
                "search_after is supported on match queries only")
        cur = body["search_after"]
        if not (isinstance(cur, (list, tuple)) and len(cur) == 2):
            raise UnsupportedDSL(f"bad search_after cursor {cur!r}")
        q, msm = _match_text(node)
        if msm is not None:
            raise UnsupportedDSL(
                "minimum_should_match with search_after is unsupported")
        return score_taat_after(reader, q, body.get("size", 10),
                                after=(float(cur[0]), int(cur[1])))
    size = body.get("size", 10)
    offset = body.get("from", 0)
    if size < 0 or offset < 0:
        raise UnsupportedDSL("size/from must be non-negative")
    k = size + offset
    node = body.get("query")
    if not isinstance(node, dict) or len(node) != 1:
        raise UnsupportedDSL(f"bad query node {node!r}")
    kind = next(iter(node))
    if kind == "wrapper":
        # ES `wrapper` query: a base64-encoded JSON query node (the
        # escape hatch clients use to smuggle queries through systems
        # that mangle JSON) — decode and re-dispatch
        import base64
        import json as _json

        w = node["wrapper"]
        if set(w) != {"query"} or not isinstance(w["query"], str):
            raise UnsupportedDSL(f"unsupported wrapper {w!r}")
        try:
            decoded = _json.loads(
                base64.b64decode(w["query"], validate=True))
        except Exception:
            raise UnsupportedDSL(
                "wrapper.query is not base64-encoded JSON") from None
        return execute(reader, {**body, "query": decoded},
                       pos_reader=pos_reader, field_readers=field_readers)
    if kind == "match_all":
        # every doc, constant score boost (ES default 1.0); ties break
        # by doc_id asc — the deterministic "list everything" page
        ma = node["match_all"]
        if not isinstance(ma, dict) or set(ma) - {"boost"}:
            raise UnsupportedDSL(f"unsupported match_all body {ma!r}")
        boost = float(ma.get("boost", 1.0))
        d, s = bm25.rank_topk(
            reader.dl_doc_ids,
            np.full(len(reader.dl_doc_ids), boost, dtype=np.float64), k)
    elif kind == "match":
        q, msm = _match_text(node)
        if msm is not None:
            d, s = score_min_should_match(reader, q, msm, k)
        else:
            ords, scores = _taat_scores_ords(reader, q)
            d, s = bm25.rank_topk(reader.dl_doc_ids[ords], scores, k)
    elif kind == "bool":
        d, s = _exec_bool(reader, node["bool"], k, pos_reader=pos_reader)
    elif kind == "dis_max":
        dm = node["dis_max"]
        extra = set(dm) - {"queries", "tie_breaker"}
        if extra or not dm.get("queries"):
            raise UnsupportedDSL(f"unsupported dis_max keys {dm!r}")
        # per-CLAUSE max (the ES contract): each clause scores as its
        # own BM25 sum; a doc's dis_max is max over clause sums plus
        # tie_breaker x (total - max). Degenerates bit-identically to
        # the per-term score_dismax when every clause is single-term.
        clauses = []
        for sq in dm["queries"]:
            cq, msm = _match_text(sq)
            if msm is not None:
                raise UnsupportedDSL(
                    "minimum_should_match inside dis_max is unsupported")
            clauses.append(cq)
        tb = dm.get("tie_breaker", 0.0)
        # own allocations: reader.acc_buffer() is the SHARED scratch
        # that _taat_scores_ords zero-fills per clause call
        acc_sum = np.zeros(len(reader.dl_doc_ids), dtype=np.float64)
        acc_max = np.zeros_like(acc_sum)
        matched = False
        for cq in clauses:
            ords, scores = _taat_scores_ords(reader, cq)
            if not len(ords):
                continue
            matched = True
            acc_sum[ords] += scores
            np.maximum.at(acc_max, ords, scores)
        if not matched:
            d = np.empty(0, dtype=np.int64)
            s = np.empty(0, dtype=np.float64)
        else:
            cand = np.nonzero(acc_sum)[0]
            sc = acc_max[cand] + tb * (acc_sum[cand] - acc_max[cand])
            d, s = bm25.rank_topk(reader.dl_doc_ids[cand], sc, k)
    elif kind == "constant_score":
        cs = node["constant_score"]
        extra = set(cs) - {"filter", "boost"}
        if extra or "filter" not in cs:
            raise UnsupportedDSL(f"unsupported constant_score keys {cs!r}")
        f = cs["filter"]
        if set(f) != {"term"} or set(f["term"]) != {"text"}:
            raise UnsupportedDSL(f"constant_score filter {f!r}")
        boost = float(cs.get("boost", 1.0))
        ords = _term_ords(reader, f["term"]["text"])
        d, s = bm25.rank_topk(reader.dl_doc_ids[ords],
                              np.full(len(ords), boost), k)
    elif kind == "multi_match":
        mm = node["multi_match"]
        extra = set(mm) - {"query", "fields", "type", "tie_breaker"}
        if extra or not isinstance(mm.get("query"), str) \
                or not isinstance(mm.get("fields"), list) or not mm["fields"]:
            raise UnsupportedDSL(f"unsupported multi_match {mm!r}")
        mm_type = mm.get("type", "best_fields")
        if mm_type not in ("best_fields", "most_fields"):
            raise UnsupportedDSL(f"multi_match type {mm_type!r}")
        if mm_type == "most_fields" and "tie_breaker" in mm:
            raise UnsupportedDSL("tie_breaker applies to best_fields only")
        if field_readers is None:
            raise UnsupportedDSL(
                "multi_match requires per-field indexes (pass "
                "field_readers built by multifield.build_field_indexes)")
        from .multifield import multi_match_scores, parse_field_boosts

        try:
            fb = parse_field_boosts(mm["fields"])
        except (ValueError, AttributeError, TypeError) as e:
            raise UnsupportedDSL(f"bad multi_match fields: {e}") from e
        try:
            ids, scores = multi_match_scores(
                field_readers, mm["query"], fb, mm_type=mm_type,
                tie_breaker=float(mm.get("tie_breaker", 0.0)))
        except ValueError as e:                    # unknown field name
            raise UnsupportedDSL(str(e)) from e
        d, s = bm25.rank_topk(ids, scores, k)
    elif kind == "combined_fields":
        cf = node["combined_fields"]
        extra = set(cf) - {"query", "fields"}
        if extra or not isinstance(cf.get("query"), str) \
                or not isinstance(cf.get("fields"), list) or not cf["fields"]:
            raise UnsupportedDSL(f"unsupported combined_fields {cf!r}")
        if field_readers is None:
            raise UnsupportedDSL(
                "combined_fields requires per-field indexes (pass "
                "field_readers built by multifield.build_field_indexes)")
        from .multifield import combined_fields_scores, parse_field_boosts

        try:
            fb = parse_field_boosts(cf["fields"])
        except (ValueError, AttributeError, TypeError) as e:
            raise UnsupportedDSL(f"bad combined_fields fields: {e}") from e
        try:
            ids, scores = combined_fields_scores(field_readers,
                                                 cf["query"], fb)
        except ValueError as e:                    # unknown field name
            raise UnsupportedDSL(str(e)) from e
        d, s = bm25.rank_topk(ids, scores, k)
    elif kind == "simple_query_string":
        sq = node["simple_query_string"]
        extra = set(sq) - {"query", "fields"}
        if extra or "query" not in sq:
            raise UnsupportedDSL(f"unsupported simple_query_string {sq!r}")
        if sq.get("fields", ["text"]) != ["text"]:
            raise UnsupportedDSL(f"fields {sq.get('fields')!r} != ['text']")
        d, s = simple_query_string(reader, sq["query"], k,
                                   pos_reader=pos_reader)
    elif kind == "boosting":
        bq = node["boosting"]
        extra = set(bq) - {"positive", "negative", "negative_boost"}
        if extra or "positive" not in bq or "negative" not in bq:
            raise UnsupportedDSL(f"unsupported boosting keys {bq!r}")
        pos_q, pos_msm = _match_text(bq["positive"])
        neg_q, neg_msm = _match_text(bq["negative"])
        if pos_msm is not None or neg_msm is not None:
            raise UnsupportedDSL(
                "minimum_should_match inside boosting is unsupported")
        d, s = score_boosting(reader, pos_q, neg_q, k,
                              negative_boost=bq.get("negative_boost", 0.5))
    elif kind in ("prefix", "wildcard", "regexp", "fuzzy"):
        p = node[kind]
        if set(p) != {"text"}:
            raise UnsupportedDSL(f"{kind} on {set(p)}")
        v = p["text"]
        if isinstance(v, str):
            v = {"value": v}
        allowed = {"value", "fuzziness"} if kind == "fuzzy" else {"value"}
        if (not isinstance(v, dict) or set(v) - allowed
                or not isinstance(v.get("value"), str)):
            raise UnsupportedDSL(f"unsupported {kind} params {v!r}")
        if kind == "fuzzy" and v.get("fuzziness", 1) not in (1, "AUTO"):
            raise UnsupportedDSL(
                f"fuzziness {v['fuzziness']!r}: only edit distance 1 "
                f"(the SymSpell delete-1 index) is served")
        # multi-term expansion queries use ES's constant_score rewrite:
        # every doc containing ANY expanded term scores 1.0, all-ties
        # rank = doc_id ascending
        if kind == "prefix":
            from .query import prefix_match

            _n, docs = prefix_match(reader, v["value"])
        elif kind == "fuzzy":
            from .query import fuzzy_expand

            hits = [pl.decode_all()[0] for t in fuzzy_expand(reader,
                                                             v["value"])
                    if (pl := reader.postings(t)) is not None]
            docs = (reader.dl_doc_ids[np.unique(np.concatenate(hits))]
                    .astype(np.int64) if hits
                    else np.empty(0, dtype=np.int64))
        else:
            from .query import regexp_search, wildcard_to_regexp

            pat = (wildcard_to_regexp(v["value"]) if kind == "wildcard"
                   else v["value"])
            docs = regexp_search(reader, pat).column("doc_id") \
                .to_numpy(zero_copy_only=False)
        d, s = bm25.rank_topk(np.asarray(docs, dtype=np.int64),
                              np.ones(len(docs)), k)
    elif kind == "ids":
        iq = node["ids"]
        if set(iq) != {"values"} or not isinstance(iq["values"], list) \
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for i in iq["values"]):
            raise UnsupportedDSL(f"unsupported ids query {iq!r}")
        vals = np.unique(np.asarray(iq["values"], dtype=np.int64)) \
            if iq["values"] else np.empty(0, dtype=np.int64)
        docs = vals[np.isin(vals, reader.dl_doc_ids)]
        d, s = bm25.rank_topk(docs, np.ones(len(docs)), k)
    elif kind == "match_phrase":
        # top-level scoring match_phrase: BM25 over the phrase's terms,
        # candidates restricted to exact phrase matches — the same plan
        # as bool{must: match, filter: match_phrase}
        mp = node["match_phrase"]
        if set(mp) != {"text"} or not isinstance(mp["text"], str):
            raise UnsupportedDSL(f"unsupported match_phrase {mp!r}")
        d, s = _exec_bool(reader, {
            "must": [{"match": {"text": mp["text"]}}],
            "filter": [{"match_phrase": {"text": mp["text"]}}]},
            k, pos_reader=pos_reader)
    elif kind == "span_near":
        sn = node["span_near"]
        extra = set(sn) - {"clauses", "slop", "in_order"}
        if extra or "clauses" not in sn or "slop" not in sn:
            raise UnsupportedDSL(f"unsupported span_near keys {sn!r}")
        if sn.get("in_order", False) is not True:
            raise UnsupportedDSL(
                "only in_order: true span chains are served (unordered "
                "PAIRS go through proximity_search directly)")
        cl = sn["clauses"]
        if (not isinstance(cl, list) or len(cl) < 2
                or any(set(c) != {"span_term"}
                       or set(c["span_term"]) != {"text"}
                       or not isinstance(c["span_term"]["text"], str)
                       for c in cl)):
            raise UnsupportedDSL(f"bad span_near clauses {cl!r}")
        if pos_reader is None:
            raise UnsupportedDSL(
                "span_near needs a positional index (pass pos_reader)")
        from .positions import span_near_chain

        # constant-score rewrite: matching docs at 1.0, ties doc_id asc
        docs, _gaps = span_near_chain(
            pos_reader, [c["span_term"]["text"] for c in cl], sn["slop"])
        d, s = bm25.rank_topk(docs, np.ones(len(docs)), k)
    elif kind == "intervals":
        # ES intervals query, `match` rule: all the rule's terms inside
        # one interval with ≤ max_gaps intervening tokens, ordered or
        # not (Intervals.match / IntervalsSource semantics). Routed to
        # the positional kernels: ordered pairs/chains via the greedy
        # chained-searchsorted span matcher, unordered pairs via the
        # two-pointer proximity merge. Constant-score rewrite (docs at
        # 1.0, ties doc_id ascending) like the other multi-position
        # rewrites this planner serves.
        iv = node["intervals"]
        if set(iv) != {"text"}:
            raise UnsupportedDSL(f"intervals on {set(iv)}")
        rule = iv["text"]
        if not isinstance(rule, dict) or set(rule) != {"match"}:
            raise UnsupportedDSL(
                f"intervals supports the match rule only, got {rule!r}")
        m = rule["match"]
        bad = set(m) - {"query", "max_gaps", "ordered"}
        if bad or not isinstance(m.get("query"), str):
            raise UnsupportedDSL(f"unsupported intervals.match {m!r}")
        gaps = m.get("max_gaps", -1)
        if not isinstance(gaps, int) or isinstance(gaps, bool) \
                or gaps < -1:
            raise UnsupportedDSL(f"bad max_gaps {gaps!r}")
        ordered = m.get("ordered", False)
        if not isinstance(ordered, bool):
            raise UnsupportedDSL(f"bad ordered {ordered!r}")
        # ORDER-PRESERVING tokenization (tokenize_query sorts — fine
        # for bag-of-words scoring, fatal for ordered intervals)
        from .query import _TOKEN_RE

        terms = _TOKEN_RE.findall(m["query"].lower())
        if len(terms) < 2 or len(set(terms)) != len(terms):
            raise UnsupportedDSL(
                "intervals.match needs ≥2 distinct terms (single-term "
                "match degenerates to a term query — use match)")
        if len(terms) > 2 and not ordered:
            raise UnsupportedDSL(
                "unordered intervals over >2 terms are not served "
                "(no minimal-interval kernel for that shape)")
        if pos_reader is None:
            raise UnsupportedDSL(
                "intervals needs a positional index (pass pos_reader)")
        # max_gaps: -1 = unlimited (the ES default)
        slop = (1 << 62) if gaps == -1 else gaps
        if len(terms) == 2 and not ordered:
            from .positions import proximity_search

            docs, _g = proximity_search(pos_reader, terms[0], terms[1],
                                        slop, ordered=False)
        else:
            from .positions import span_near_chain

            docs, _g = span_near_chain(pos_reader, list(terms), slop)
        d, s = bm25.rank_topk(docs, np.ones(len(docs)), k)
    elif kind == "pinned":
        pn = node["pinned"]
        extra = set(pn) - {"ids", "organic"}
        if extra or "ids" not in pn or "organic" not in pn:
            raise UnsupportedDSL(f"unsupported pinned keys {pn!r}")
        ids_list = pn["ids"]
        if (not isinstance(ids_list, list)
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for i in ids_list)
                or len(set(ids_list)) != len(ids_list)):
            raise UnsupportedDSL(f"bad pinned ids {ids_list!r}")
        q, msm = _match_text(pn["organic"])
        if msm is not None:
            raise UnsupportedDSL(
                "minimum_should_match inside pinned is unsupported")
        ords, scores = _taat_scores_ords(reader, q)
        od, osc = bm25.rank_topk(reader.dl_doc_ids[ords], scores,
                                 k + len(ids_list))
        pin_arr = np.array(ids_list, dtype=np.int64)
        pin = pin_arr[np.isin(pin_arr, reader.dl_doc_ids)]
        keep = ~np.isin(od, pin_arr)
        od, osc = od[keep], osc[keep]
        # pinned docs get a descending synthetic score ramp above any
        # BM25 sum (ES starts pinned scores at ~1.7e38 and steps down
        # per list position; PINNED_SCORE_BASE plays that role)
        ps = PINNED_SCORE_BASE - np.arange(len(pin), dtype=np.float64)
        d = np.concatenate([pin, od])[:k]
        s = np.concatenate([ps, osc])[:k]
    elif kind == "terms_set":
        ts = node["terms_set"]
        if set(ts) != {"text"}:
            raise UnsupportedDSL(f"terms_set on {set(ts)}")
        p = ts["text"]
        bad = set(p) - {"terms", "minimum_should_match_field", "m_div"}
        if bad or "terms" not in p:
            raise UnsupportedDSL(f"unsupported terms_set params {p!r}")
        if (not isinstance(p["terms"], list)
                or not all(isinstance(t, str) for t in p["terms"])):
            raise UnsupportedDSL(f"bad terms_set terms {p['terms']!r}")
        if p.get("minimum_should_match_field", "doclen") != "doclen":
            raise UnsupportedDSL(
                f"minimum_should_match_field "
                f"{p.get('minimum_should_match_field')!r} != 'doclen'")
        d, s = score_terms_set(reader, " ".join(p["terms"]), k,
                               m_div=p.get("m_div", 100))
    elif kind == "function_score":
        fs = node["function_score"]
        extra = set(fs) - {"query", "gauss", "exp", "linear",
                           "field_value_factor", "random_score"}
        if extra or "query" not in fs:
            raise UnsupportedDSL(f"unsupported function_score keys {fs!r}")
        if sum(x in fs for x in
               ("gauss", "exp", "linear", "field_value_factor",
                "random_score")) > 1:
            raise UnsupportedDSL("function_score takes one function")
        q, q_msm = _match_text(fs["query"])
        if q_msm is not None:
            raise UnsupportedDSL(
                "minimum_should_match inside function_score is unsupported")
        if "random_score" in fs:
            rs = fs["random_score"]
            bad = set(rs) - {"field", "seed"}
            if bad or rs.get("field", "doc_id") != "doc_id":
                raise UnsupportedDSL(f"unsupported random_score {rs!r}")
            if rs.get("seed", 0) != 0:
                raise UnsupportedDSL(
                    "only the default (seed=0) LCG stream is served")
            d, s = score_random(reader, q, k)
        elif "gauss" in fs or "exp" in fs or "linear" in fs:
            fn = "gauss" if "gauss" in fs else \
                 ("exp" if "exp" in fs else "linear")
            g = fs[fn]
            if set(g) != {"doclen"}:
                raise UnsupportedDSL(f"{fn} on {set(g)}")
            p = g["doclen"]
            bad = set(p) - {"origin", "scale", "decay"}
            if bad or "origin" not in p or "scale" not in p:
                raise UnsupportedDSL(f"{fn} params {p!r}")
            score_fn = {"gauss": score_function_gauss,
                        "exp": score_function_exp,
                        "linear": score_function_linear}[fn]
            d, s = score_fn(
                reader, q, k, origin=p["origin"], scale=p["scale"],
                decay=p.get("decay", 0.5))
        elif "field_value_factor" in fs:
            p = fs["field_value_factor"]
            bad = set(p) - {"field", "modifier", "factor"}
            if bad or "factor" not in p or \
                    p.get("field", "doclen") != "doclen" or \
                    p.get("modifier", "ln1p") != "ln1p":
                raise UnsupportedDSL(f"field_value_factor {p!r}")
            d, s = score_field_value_factor(reader, q, k,
                                            factor=p["factor"])
        else:
            raise UnsupportedDSL(
                f"function_score needs a decay (gauss/exp/linear), "
                f"field_value_factor or random_score, got {set(fs)}")
    else:
        raise UnsupportedDSL(f"unsupported query kind {kind!r}")
    return d[offset:], s[offset:]


# --------------------------------------------------------------------------
# ES 8.x `knn` search sections (dense-vector retrieval in the _search
# body; reference context: the loader's ES 8 consumers mix lexical and
# vector search through this same request surface)
# --------------------------------------------------------------------------

def _knn_params(sec: dict) -> tuple[list, int, dict | None]:
    """Validate one ES ``knn`` section → (query_vector, k, filter)."""
    if not isinstance(sec, dict):
        raise UnsupportedDSL(f"bad knn section {sec!r}")
    extra = set(sec) - {"field", "query_vector", "k", "num_candidates",
                        "filter"}
    if extra:
        raise UnsupportedDSL(f"unsupported knn keys {extra}")
    if sec.get("field") != "embedding":
        raise UnsupportedDSL(
            f"knn field {sec.get('field')!r}: only the 'embedding' "
            f"dense-vector column is indexed")
    qv = sec.get("query_vector")
    if (not isinstance(qv, list) or not qv
            or not all(isinstance(x, (int, float))
                       and not isinstance(x, bool) for x in qv)):
        raise UnsupportedDSL(f"bad query_vector {qv!r}")
    k = sec.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise UnsupportedDSL(f"bad knn k {k!r}")
    nc = sec.get("num_candidates", k)
    if not isinstance(nc, int) or isinstance(nc, bool) or nc < k:
        raise UnsupportedDSL(
            f"num_candidates {nc!r} must be an int ≥ k (ES contract); "
            f"this engine's brute-force scorer is exact, so any valid "
            f"num_candidates yields exact top-k")
    f = sec.get("filter")
    if f is not None:
        if (not isinstance(f, dict) or set(f) != {"term"}
                or not isinstance(f["term"], dict)
                or set(f["term"]) != {"label"}):
            raise UnsupportedDSL(
                f"knn filter {f!r}: only a term filter on the 'label' "
                f"doc-value column is served (ES PRE-filter semantics)")
    return qv, k, f


def msearch_knn(ds, bodies: list[dict]):
    """ES ``_msearch`` over bodies that each carry a top-level ``knn``
    section: validate every section, stack the query vectors into ONE
    broadcast matrix, and run a single exact-cosine pass over the
    embedding dataset (`ann.ann_topk`'s per-batch matmul + n_blocks×k
    reduce) — one corpus scan for N queries instead of N scans, the
    coordinator-side batching ES's _msearch exists for. Returns the
    (query_id = body position, rank, vec_id) top-k table.

    All bodies must share one ``k`` and carry no ``filter`` (a filtered
    body changes the candidate set per query — route it through
    ``execute_knn`` instead)."""
    from . import ann as ANN

    if not isinstance(bodies, list) or not bodies:
        raise UnsupportedDSL("msearch_knn needs a non-empty body list")
    parsed = []
    for body in bodies:
        if not isinstance(body, dict) or set(body) != {"knn"}:
            raise UnsupportedDSL(f"unsupported msearch knn body {body!r}")
        parsed.append(_knn_params(body["knn"]))
    ks = {k for _qv, k, _f in parsed}
    if len(ks) != 1:
        raise UnsupportedDSL(f"heterogeneous k across bodies: {sorted(ks)}")
    if any(f is not None for _qv, _k, f in parsed):
        raise UnsupportedDSL(
            "filtered knn bodies can't share one scan — use execute_knn")
    dims = {len(qv) for qv, _k, _f in parsed}
    if len(dims) != 1:
        raise UnsupportedDSL(f"heterogeneous vector dims: {sorted(dims)}")
    qmat = np.asarray([qv for qv, _k, _f in parsed], dtype=np.float64)
    return ANN.ann_topk(ds, qmat, k=ks.pop())


def execute_knn(ds, body: dict):
    """One ES 8 ``_search`` request whose retrieval is a top-level
    ``knn`` section (no ``query`` — pure vector search; hybrid bodies
    are served by the rrf/linear fusion entries). Routes to the exact
    brute-force scorer, or its PRE-filter variant when the section
    carries a term filter. Returns the (rank, vec_id) top-k table."""
    if not isinstance(body, dict) or set(body) != {"knn"}:
        raise UnsupportedDSL(
            f"execute_knn serves knn-only bodies, got keys "
            f"{set(body) if isinstance(body, dict) else body!r}")
    qv, k, f = _knn_params(body["knn"])
    if f is None:
        return msearch_knn(ds, [body])
    from . import ann as ANN

    qmat = np.asarray([qv], dtype=np.float64)
    return ANN.ann_topk_filtered(ds, qmat, "label", f["term"]["label"], k)
