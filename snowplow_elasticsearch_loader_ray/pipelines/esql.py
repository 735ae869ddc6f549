"""Minimal ES|QL — the piped query language Elasticsearch ships since
8.11 (`POST /_query {"query": "FROM idx | WHERE ... | STATS ... BY ..."}`).

Reference context: the loader's ES 8 consumers increasingly query
through ES|QL rather than the `_search` DSL; this module gives the
engine that front end over the same Parquet tables, compiled to Ray
Data operators (columnar scan with pruning → vectorized filter →
groupby aggregate), never row-at-a-time.

Supported grammar (anything else raises :class:`UnsupportedEsql` —
refusal, never a silently different query):

    query  := FROM ident ( '|' stage )*
    stage  := WHERE cond ( AND cond )*
            | EVAL ident '=' term ( op term )*   op ∈ + - * // %
            | EVAL ident '=' CASE '(' (cond ',' term ',')+ term ')'
            | EVAL ident '=' (GREATEST|LEAST) '(' term (',' term)+ ')'
            | EVAL ident '=' ABS '(' term ')'
            | EVAL ident '=' DATE_EXTRACT '(' '"' part '"' ',' ident ')'
              part ∈ year month day hour minute second isodow
            | EVAL ident '=' (LENGTH|TO_LOWER|TO_UPPER) '(' ident ')'
            | EVAL ident '=' SUBSTRING '(' ident ',' int ',' int ')'
            | EVAL ident '=' CONCAT '(' (ident|str) (',' (ident|str))+ ')'
            | EVAL ident '=' SPLIT '(' ident ',' '"' sep '"' ')'
            | ENRICH ident ON ident WITH ident
            | LOOKUP JOIN ident ON ident
            | DISSECT ident '"' pattern '"'      pattern: literals + %{name}
            | GROK ident '"' pattern '"'         pattern: literals +
                                                 %{SYNTAX:name[:int]}
            | MV_EXPAND ident                    (a SPLIT output)
            | INLINESTATS iagg ( ',' iagg )* [ BY ident ]
              iagg: ident '=' (COUNT|SUM|MIN|MAX) '(' (ident|'*') ')'
            | STATS agg ( ',' agg )* [ BY byitem ( ',' byitem )* ]
            | SORT ident [ASC|DESC] ( ',' ident [ASC|DESC] )*
            | LIMIT int
            | KEEP ident ( ',' ident )*
            | RENAME ident AS ident ( ',' ident AS ident )*   (after STATS)
            | DROP ident ( ',' ident )*                       (after STATS)
    cond   := ident op literal          op ∈ == != >= <= > <
            | ident [NOT] IN '(' literal ( ',' literal )* ')'
            | ident [NOT] LIKE '"' wildcard '"'    (* any run, ? one char)
            | ident [NOT] RLIKE '"' regex '"'      (RE2, full match)
    A WHERE stage is either conds joined by AND, or conds joined by OR
    (one flat OR-group). Mixed AND/OR in one stage refuses (no
    parenthesized precedence) — chain separate WHERE stages for
    AND-of-ORs.
    agg    := ident '=' FUNC '(' (ident|'*') ')' [ WHERE cond (AND cond)* ]
              FUNC ∈ COUNT SUM MIN MAX AVG COUNT_DISTINCT MEDIAN
            | ident '=' PERCENTILE '(' ident ',' int ')' [ WHERE ... ]

Per-aggregate filters (``STATS agg WHERE cond``, ES 8.16) ride derived
per-batch columns: an indicator for COUNT (Σ indicator = SQL count
FILTER), a masked product for SUM (the coalesce-0 convention: a group
with zero filtered rows sums to 0 where SQL yields NULL — documented),
nulled non-matches for MIN/MAX (null-ignoring reduce; a group with
zero filtered rows is SQL NULL and REFUSES), masked sum/count for AVG,
and a filtered value-histogram pass for COUNT_DISTINCT / MEDIAN /
PERCENTILE (empty-group COUNT_DISTINCT is 0; empty-group percentile
refuses).

``COUNT_DISTINCT`` / ``MEDIAN`` / ``PERCENTILE(col, p)`` are EXACT
where ES estimates (cardinality HLL / percentile t-digest): they ride
a (by, col) groupby whose reduce output is bounded by groups ×
distinct VALUES — the documented bounded-value-domain assumption.
MEDIAN ≡ PERCENTILE(col, 50); both use the discrete convention
(value at 0-based index ceil(p/100·n)−1 — DuckDB ``quantile_disc``)
over INTEGER columns only; COUNT_DISTINCT accepts integer or string.
    byitem := ident | ident '=' BUCKET '(' ident ',' int unit ')'
              unit ∈ hour day week (multiple pinned to 1)

``GROK <col> "<pattern>"`` is DISSECT's regex-powered sibling: captures
are ``%{SYNTAX:name}`` with SYNTAX ∈ WORD NOTSPACE NUMBER INT DATA
GREEDYDATA (the grok-patterns definitions, compiled verbatim into ONE
anchored RE2); ``%{INT:n:int}`` / ``%{NUMBER:n:int}`` convert the
capture to int64 (usable in EVAL / SUM / AVG under the integer-only
contract). Non-matching rows refuse, like DISSECT.

``EVAL x = SPLIT(col, "sep")`` produces a MULTIVALUED column; it may
only be referenced after ``MV_EXPAND x`` explodes it one-value-per-row
(vectorized list_flatten + parent-index take — the SQL unnest
convention: empty lists drop their row). Referencing an unexpanded
SPLIT output anywhere refuses.

``BY b = BUCKET(ts, 1 day)`` is the ES|QL date-histogram grouping:
floor_temporal to hour/day/week (ISO weeks, Monday start — DuckDB
date_trunc parity) rendered as a sortable string key. Wider multiples
refuse: their epoch alignment differs between engines.

``DISSECT <col> "<pattern>"`` is the ES|QL dissect processor over a
string column: ``%{name}`` captures between exact literals (compiled
to ONE anchored RE2 with lazy captures, applied vectorized via
``pc.extract_regex``); capture outputs are STRING columns usable in
WHERE / BY. A row that does not match the pattern refuses (ES emits
null — silently different groupings are worse than an error here);
patterns may not contain ``|`` (the stage splitter) or ``%`` outside
``%{name}``. ``RENAME``/``DROP`` operate on the STATS bucket table
(before STATS they would complicate pruning for no power — refused).

``ENRICH <table> ON <key> WITH <col>`` is the ES enrich-policy lookup
join: the enrich table (joined on ITS FIRST column) broadcasts once
and each batch gathers the requested column — the small-side
broadcast join, never a shuffle. Duplicate lookup keys refuse (an
enrich policy must be entity-unique).

``LOOKUP JOIN <table> ON <key>`` (ES 8.18) broadcasts the lookup table
once and joins per batch via searchsorted; it adds EVERY non-key
column of the lookup table, and — unlike ENRICH — MULTIPLE matches
EXPAND rows (np.repeat + range-gather, fully vectorized). It runs
after EVAL so a derived key (``EVAL n_regionkey = r_regionkey``) can
join; zero-match keys refuse (ES emits nulls — silently different
STATS counts are worse than an error), as do shadowed column names.

``EVAL x = CASE(cond, v, ..., default)`` evaluates SQL-CASE style
(first matching condition wins, computed default-outward with
vectorized np.where); conditions take every WHERE form (comparison /
IN / LIKE / RLIKE, so string-typed columns CAN gate an integer CASE),
values are integer terms. ``GREATEST`` / ``LEAST`` / ``ABS`` are their
DuckDB namesakes over integer terms. CASE conditions may not read
BUCKET/SPLIT outputs (produced after EVAL) — they refuse.

``INLINESTATS`` (the window-style stage: group aggregates appended to
every ROW) runs as one distributed partial-agg pass producing a
groups-sized table that broadcasts into a second map over the same
stream — no row shuffle. It executes BEFORE EVAL so EVAL can combine
its outputs with row values (``INLINESTATS mx = MAX(n_chars) BY source
| EVAL gap = mx - n_chars``); WHERE conjuncts written before it filter
the aggregate pass too (SQL window + WHERE parity). Integer COUNT/SUM/
MIN/MAX only, one plain BY column; inputs produced after that stage
(EVAL/SPLIT/BUCKET/LOOKUP outputs) refuse.

String EVAL functions: ``LENGTH`` (code points — DuckDB length parity)
produces int64; ``TO_LOWER`` / ``TO_UPPER`` (Unicode), ``SUBSTRING``
(1-based start, code-point slicing — SQL substring parity; negative
starts refuse) and ``CONCAT`` (columns + quoted literals) produce
STRING columns usable in BY / WHERE / COUNT_DISTINCT / later string
functions. All compile to single Arrow kernels.

``EVAL`` builds derived INTEGER columns (left-associative + - * // %
over integer columns and int literals; // and % floor like numpy, the
DuckDB parity trick is shifting operands non-negative or replaying
with floor(a/b)) and runs before STATS so derived fields can be
aggregated or grouped.

Semantics pinned for oracle parity:
- ``SUM``/``AVG`` accept INTEGER columns only (float sums are
  order-dependent across a distributed reduce; refusing keeps every
  emitted number exactly SQL-replayable). ``AVG`` is the exact integer
  sum divided once in float64 — identical to ``sum(x)::DOUBLE /
  count(*)``.
- With ``STATS`` present, ``SORT`` / ``LIMIT`` are only accepted AFTER
  it (they order the bucket table). WITHOUT ``STATS``, the one
  supported raw-row shape is bounded top-N — ``SORT keys | LIMIT n |
  KEEP cols`` (all three required, n ≤ 10000 = ES max_result_window):
  per-batch local top-n + one driver merge, never a corpus shuffle.
  Ties beyond the declared keys are engine-specific — pin determinism
  with a unique trailing key, exactly as in SQL.
- String literals are double-quoted; numbers are int or float.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .. import _raydata  # noqa: F401 (thread-safe path probe)


class UnsupportedEsql(ValueError):
    """An ES|QL construct outside the supported grammar."""


#: COUNT_DISTINCT before COUNT — the parse alternation is ordered
_AGG_FUNCS = ("COUNT_DISTINCT", "COUNT", "SUM", "MIN", "MAX", "AVG",
              "MEDIAN")
_OPS = ("==", "!=", ">=", "<=", ">", "<")
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


#: ES|QL GROK syntax atoms the engine supports, compiled verbatim into
#: the anchored RE2 (the grok-patterns file's definitions for these
#: names; DATA/GREEDYDATA are the lazy/greedy catch-alls)
_GROK_SYNTAX = {
    "WORD": r"\w+",
    "NOTSPACE": r"\S+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "INT": r"[+-]?\d+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
}


def _split_outside_parens(s: str) -> list[str]:
    """Split on commas at paren depth 0 (BY lists may contain
    ``BUCKET(col, 1 day)`` whose comma is not a list separator)."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(s[start:i])
            start = i + 1
    out.append(s[start:])
    return out


def _mask_quoted(s: str) -> str:
    """Same length as ``s`` but with the INSIDE of double-quoted string
    literals replaced by ``\\x00`` — split points found on the mask can
    never land inside a literal (``RLIKE "foo|bar"``,
    ``== "black AND white"``). Backslash escapes are honoured; an
    unterminated quote masks to end-of-string (the literal parser
    refuses it later)."""
    out: list[str] = []
    in_q = False
    i = 0
    while i < len(s):
        ch = s[i]
        if in_q:
            if ch == "\\" and i + 1 < len(s):
                out.append("\x00\x00")
                i += 2
                continue
            if ch == '"':
                out.append('"')
                in_q = False
            else:
                out.append("\x00")
        else:
            out.append(ch)
            if ch == '"':
                in_q = True
        i += 1
    return "".join(out)


def _split_top(s: str, pattern: str) -> list[str]:
    """Split ``s`` on regex ``pattern`` matched OUTSIDE double-quoted
    literals (case-insensitive)."""
    mask = _mask_quoted(s)
    parts, last = [], 0
    for m in re.finditer(pattern, mask, flags=re.I):
        parts.append(s[last:m.start()])
        last = m.end()
    parts.append(s[last:])
    return parts


def _search_top(s: str, pattern: str) -> bool:
    """True when ``pattern`` matches outside double-quoted literals."""
    return re.search(pattern, _mask_quoted(s), flags=re.I) is not None


def _split_stages(s: str) -> list[str]:
    """Split a query on '|' outside quotes AND parens — a pipe inside a
    FORK branch group (or any parenthesized argument) is not a stage
    boundary."""
    mask = _mask_quoted(s)
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(mask):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "|" and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return parts


def _literal(tok: str):
    tok = tok.strip()
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise UnsupportedEsql(f"bad literal {tok!r}")


def _parse_cond(cond: str) -> tuple:
    """One WHERE conjunct → (col, op, payload). Ops: the six comparators
    (payload = literal), [not_]in (payload = literal tuple, one type),
    [not_]like (payload = wildcard pattern, * and ? only — % and _ are
    refused so the SQL-LIKE replay is unambiguous), [not_]rlike
    (payload = RE2 source, full-match both sides)."""
    m = re.fullmatch(rf"({_IDENT})\s*(==|!=|>=|<=|>|<)\s*(.+)", cond)
    if m:
        return (m.group(1), m.group(2), _literal(m.group(3)))
    m = re.fullmatch(rf"({_IDENT})\s+(NOT\s+)?IN\s*\((.*)\)", cond,
                     flags=re.I)
    if m:
        lits = [_literal(t) for t in _split_outside_parens(m.group(3))]
        if not lits:
            raise UnsupportedEsql(f"empty IN list in {cond!r}")
        if len({type(v) for v in lits}) != 1:
            raise UnsupportedEsql(f"mixed literal types in {cond!r}")
        return (m.group(1), "not_in" if m.group(2) else "in", tuple(lits))
    m = re.fullmatch(
        rf'({_IDENT})\s+(NOT\s+)?(LIKE|RLIKE)\s+"((?:[^"\\]|\\.)*)"',
        cond, flags=re.I)
    if m:
        op = m.group(3).lower()
        pat = m.group(4).replace('\\"', '"').replace("\\\\", "\\")
        if op == "like" and re.search(r"[%_]", pat):
            raise UnsupportedEsql(
                "LIKE pattern may not contain % or _ (reserved by the "
                "SQL-LIKE parity contract; use * and ?)")
        return (m.group(1), ("not_" if m.group(2) else "") + op, pat)
    m = re.fullmatch(
        rf'(NOT\s+)?(STARTS_WITH|ENDS_WITH)\s*\(\s*({_IDENT})\s*,'
        rf'\s*"((?:[^"\\]|\\.)*)"\s*\)', cond, flags=re.I)
    if m:
        pat = m.group(4).replace('\\"', '"').replace("\\\\", "\\")
        return (m.group(3),
                ("not_" if m.group(1) else "") + m.group(2).lower(), pat)
    raise UnsupportedEsql(f"bad condition {cond!r}")


def parse(query: str) -> dict:
    """Parse an ES|QL string into a plan dict; refuses anything the
    executor cannot run exactly."""
    # stage split is quote-aware: a '|' inside a string literal (RLIKE
    # alternation, a separator argument) is not a stage boundary
    stages = [s.strip() for s in _split_stages(query.strip())]
    if not stages or not stages[0].upper().startswith("FROM "):
        raise UnsupportedEsql("query must start with FROM <table>")
    table = stages[0][5:].strip()
    if not re.fullmatch(_IDENT, table):
        raise UnsupportedEsql(f"bad table name {table!r}")
    plan: dict = {"from": table, "where": [], "evals": [], "stats": None,
                  "by": [], "sort": [], "limit": None, "keep": None}
    seen_stats = False
    for st in stages[1:]:
        kw = st.split(None, 1)[0].upper() if st else ""
        body = st[len(kw):].strip()
        if kw == "ENRICH":
            if seen_stats:
                raise UnsupportedEsql("ENRICH after STATS is unsupported")
            m = re.fullmatch(
                rf"({_IDENT})\s+ON\s+({_IDENT})\s+WITH\s+({_IDENT})",
                body, flags=re.I)
            if not m:
                raise UnsupportedEsql(f"bad ENRICH {body!r}")
            plan.setdefault("enrich", []).append(
                (m.group(1), m.group(2), m.group(3)))
        elif kw == "LOOKUP":
            if seen_stats:
                raise UnsupportedEsql(
                    "LOOKUP JOIN after STATS is unsupported")
            m = re.fullmatch(rf"JOIN\s+({_IDENT})\s+ON\s+({_IDENT})",
                             body, flags=re.I)
            if not m:
                raise UnsupportedEsql(f"bad LOOKUP {body!r}")
            plan.setdefault("lookup", []).append((m.group(1), m.group(2)))
        elif kw == "EVAL":
            if seen_stats:
                raise UnsupportedEsql("EVAL after STATS is unsupported")
            m = re.fullmatch(rf"({_IDENT})\s*=\s*(.+)", body)
            if not m:
                raise UnsupportedEsql(f"bad EVAL {body!r}")
            name, expr = m.group(1), m.group(2)
            if any(name == e for e, _t, _o in plan["evals"]) or \
                    any(name == s for s, _c, _p in
                        plan.get("splits", [])):
                raise UnsupportedEsql(
                    f"EVAL redefines {name!r} — shadowing an earlier "
                    f"derived column would silently duplicate it")
            if re.search(rf"\b{re.escape(name)}\b",
                         _mask_quoted(expr)):
                raise UnsupportedEsql(
                    f"self-referential EVAL {name!r} is unsupported")
            ms = re.fullmatch(
                rf'SPLIT\s*\(\s*({_IDENT})\s*,\s*"((?:[^"\\]|\\.)*)"\s*\)',
                expr, flags=re.I)
            if ms:
                sep = ms.group(2).replace('\\"', '"').replace("\\\\", "\\")
                if not sep:
                    raise UnsupportedEsql("SPLIT separator must be "
                                          "non-empty")
                plan.setdefault("splits", []).append(
                    (name, ms.group(1), sep))
                continue
            mts = re.fullmatch(rf"TO_STRING\s*\(\s*({_IDENT})\s*\)",
                               expr, flags=re.I)
            if mts:
                plan["evals"].append(
                    (name, [mts.group(1)], [("sfn", "TO_STRING", None)]))
                plan.setdefault("eval_str", set()).add(name)
                continue
            mmv = re.fullmatch(rf"MV_COUNT\s*\(\s*({_IDENT})\s*\)",
                               expr, flags=re.I)
            if mmv:
                plan["evals"].append(
                    (name, [mmv.group(1)], [("mvc", None, None)]))
                continue
            mc = re.fullmatch(r"CASE\s*\((.*)\)", expr, flags=re.I | re.S)
            if mc:
                parts = [p.strip()
                         for p in _split_outside_parens(mc.group(1))]
                if len(parts) < 3 or len(parts) % 2 == 0:
                    raise UnsupportedEsql(
                        "CASE needs (cond, value)+ pairs and a default")
                conds, vals = [], []
                for i in range(0, len(parts) - 1, 2):
                    conds.append(_parse_cond(parts[i]))
                    vals.append(parts[i + 1])
                vals.append(parts[-1])
                for t in vals:
                    if not (re.fullmatch(_IDENT, t)
                            or re.fullmatch(r"-?\d+", t)):
                        raise UnsupportedEsql(f"bad CASE value {t!r}")
                plan["evals"].append((name, vals, [("case", conds)]))
                plan.setdefault("eval_conds", []).extend(conds)
                continue
            mf = re.fullmatch(r"(GREATEST|LEAST|ABS)\s*\((.*)\)",
                              expr, flags=re.I | re.S)
            if mf:
                fname = mf.group(1).upper()
                args = [a.strip()
                        for a in _split_outside_parens(mf.group(2))]
                if fname == "ABS" and len(args) != 1:
                    raise UnsupportedEsql("ABS takes one argument")
                if fname != "ABS" and len(args) < 2:
                    raise UnsupportedEsql(f"{fname} needs >= 2 arguments")
                for t in args:
                    if not (re.fullmatch(_IDENT, t)
                            or re.fullmatch(r"-?\d+", t)):
                        raise UnsupportedEsql(f"bad {fname} argument {t!r}")
                plan["evals"].append((name, args, [("fn", fname)]))
                continue
            mde = re.fullmatch(
                rf'DATE_EXTRACT\s*\(\s*"({_IDENT})"\s*,'
                rf"\s*({_IDENT})\s*\)", expr, flags=re.I)
            if mde:
                part = mde.group(1).lower()
                if part not in ("year", "month", "day", "hour",
                                "minute", "second", "isodow"):
                    raise UnsupportedEsql(
                        f"DATE_EXTRACT part {part!r} unsupported "
                        f"(year/month/day/hour/minute/second/isodow)")
                plan["evals"].append(
                    (name, [mde.group(2)], [("dfn", part, None)]))
                continue
            msf = re.fullmatch(
                rf"(LENGTH|TO_LOWER|TO_UPPER|TRIM|LTRIM|RTRIM)"
                rf"\s*\(\s*({_IDENT})\s*\)",
                expr, flags=re.I)
            if msf:
                fname = msf.group(1).upper()
                plan["evals"].append(
                    (name, [msf.group(2)], [("sfn", fname, None)]))
                if fname != "LENGTH":
                    plan.setdefault("eval_str", set()).add(name)
                continue
            mlr = re.fullmatch(
                rf"(LEFT|RIGHT)\s*\(\s*({_IDENT})\s*,\s*(\d+)\s*\)",
                expr, flags=re.I)
            if mlr:
                plan["evals"].append(
                    (name, [mlr.group(2)],
                     [("sfn", mlr.group(1).upper(), int(mlr.group(3)))]))
                plan.setdefault("eval_str", set()).add(name)
                continue
            mrep = re.fullmatch(
                rf'REPLACE\s*\(\s*({_IDENT})\s*,\s*"((?:[^"\\]|\\.)*)"'
                rf'\s*,\s*"((?:[^"\\]|\\.)*)"\s*\)', expr, flags=re.I)
            if mrep:
                unq = lambda s: s.replace('\\"', '"').replace("\\\\", "\\")  # noqa: E731
                if not mrep.group(2):
                    raise UnsupportedEsql(
                        "REPLACE search string must be non-empty")
                plan["evals"].append(
                    (name, [mrep.group(1)],
                     [("sfn", "REPLACE",
                       (unq(mrep.group(2)), unq(mrep.group(3))))]))
                plan.setdefault("eval_str", set()).add(name)
                continue
            msub = re.fullmatch(
                rf"SUBSTRING\s*\(\s*({_IDENT})\s*,\s*(\d+)\s*,"
                rf"\s*(\d+)\s*\)", expr, flags=re.I)
            if msub:
                start, ln = int(msub.group(2)), int(msub.group(3))
                if start < 1:
                    raise UnsupportedEsql(
                        "SUBSTRING start is 1-based and positive "
                        "(negative starts are not pinned across engines)")
                plan["evals"].append(
                    (name, [msub.group(1)],
                     [("sfn", "SUBSTRING", (start, ln))]))
                plan.setdefault("eval_str", set()).add(name)
                continue
            mcat = re.fullmatch(r"CONCAT\s*\((.*)\)", expr,
                                flags=re.I | re.S)
            if mcat:
                raw = [a.strip()
                       for a in _split_outside_parens(mcat.group(1))]
                if len(raw) < 2:
                    raise UnsupportedEsql("CONCAT needs >= 2 arguments")
                args, refs = [], []
                for a in raw:
                    if re.fullmatch(_IDENT, a):
                        args.append(("col", a))
                        refs.append(a)
                    elif re.fullmatch(r'"(?:[^"\\]|\\.)*"', a):
                        args.append(("lit", a[1:-1].replace('\\"', '"')
                                     .replace("\\\\", "\\")))
                    else:
                        raise UnsupportedEsql(
                            f"bad CONCAT argument {a!r}")
                plan["evals"].append(
                    (name, refs, [("sfn", "CONCAT", args)]))
                plan.setdefault("eval_str", set()).add(name)
                continue
            toks = re.findall(rf"{_IDENT}|\d+|//|%|\+|-|\*|\S", expr)
            if len(toks) % 2 != 1:
                raise UnsupportedEsql(f"bad EVAL expression {expr!r}")
            terms, ops = toks[0::2], toks[1::2]
            for t in terms:
                if not (re.fullmatch(_IDENT, t) or re.fullmatch(r"\d+", t)):
                    raise UnsupportedEsql(f"bad EVAL term {t!r}")
            for o in ops:
                if o not in ("+", "-", "*", "//", "%"):
                    raise UnsupportedEsql(f"bad EVAL operator {o!r}")
            plan["evals"].append((name, terms, ops))
        elif kw == "WHERE":
            if seen_stats:
                raise UnsupportedEsql("WHERE after STATS is unsupported")
            # AND/OR detection and splits are quote-aware: a literal
            # containing " AND " / " OR " is not a boolean connective
            has_or = _search_top(body, r"\sOR\s")
            if has_or and _search_top(body, r"\sAND\s"):
                raise UnsupportedEsql(
                    "mixed AND/OR in one WHERE is unsupported (no "
                    "parenthesized precedence) — split into separate "
                    "WHERE stages for AND-of-ORs")
            if has_or:
                # one OR-group: (c1 OR c2 OR ...) as a single conjunct
                plan["where"].append(
                    ("__or__", "or", tuple(
                        _parse_cond(c.strip()) for c in
                        _split_top(body, r"\s+OR\s+"))))
            else:
                for cond in _split_top(body, r"\s+AND\s+"):
                    plan["where"].append(_parse_cond(cond.strip()))
        elif kw == "INLINESTATS":
            if seen_stats:
                raise UnsupportedEsql(
                    "INLINESTATS after STATS is unsupported")
            if "inline" in plan:
                raise UnsupportedEsql("one INLINESTATS stage only")
            if re.search(r"\bBY\b", body, flags=re.I):
                aggs_s, by_s = re.split(r"\bBY\b", body, maxsplit=1,
                                        flags=re.I)
                iby = [b.strip() for b in by_s.split(",")]
                if len(iby) != 1 or not re.fullmatch(_IDENT, iby[0]):
                    raise UnsupportedEsql(
                        "INLINESTATS BY supports exactly one plain "
                        "column (the broadcast-rejoin is keyed on it)")
            else:
                aggs_s, iby = body, []
            iaggs = []
            for a in _split_outside_parens(aggs_s):
                m = re.fullmatch(
                    rf"({_IDENT})\s*=\s*(COUNT|SUM|MIN|MAX)"
                    rf"\s*\(\s*(\*|{_IDENT})\s*\)", a.strip(), flags=re.I)
                if not m:
                    raise UnsupportedEsql(
                        f"bad INLINESTATS aggregate {a.strip()!r} "
                        f"(COUNT/SUM/MIN/MAX only — float AVG would "
                        f"break the integer contract)")
                nm, fn, col = m.group(1), m.group(2).upper(), m.group(3)
                if fn == "COUNT" and col != "*":
                    raise UnsupportedEsql("COUNT supports only COUNT(*)")
                if fn != "COUNT" and col == "*":
                    raise UnsupportedEsql(f"{fn}(*) is not a thing")
                iaggs.append((nm, fn, col))
            plan["inline"] = (iaggs, iby)
            # WHERE conds written BEFORE this stage must filter the
            # inline pass too — split them off
            plan["where_pre"] = plan["where"]
            plan["where"] = []
        elif kw == "STATS":
            if seen_stats:
                raise UnsupportedEsql("one STATS stage only")
            seen_stats = True
            if re.search(r"\bBY\b", body, flags=re.I):
                aggs_s, by_s = re.split(r"\bBY\b", body, maxsplit=1,
                                        flags=re.I)
                for raw in _split_outside_parens(by_s):
                    raw = raw.strip()
                    mb = re.fullmatch(
                        rf"({_IDENT})\s*=\s*BUCKET\s*\(\s*({_IDENT})\s*,"
                        rf"\s*(\d+)\s+({_IDENT})\s*\)", raw, flags=re.I)
                    if mb:
                        name, col = mb.group(1), mb.group(2)
                        mult = int(mb.group(3))
                        unit = mb.group(4).lower().rstrip("s")
                        if unit not in ("hour", "day", "week"):
                            raise UnsupportedEsql(
                                f"BUCKET unit {mb.group(4)!r} unsupported "
                                f"(hour/day/week)")
                        if mult != 1:
                            raise UnsupportedEsql(
                                "BUCKET multiple must be 1 — epoch "
                                "alignment of wider spans is not pinned")
                        plan.setdefault("buckets", []).append(
                            (name, col, unit))
                        plan["by"].append(name)
                    elif re.fullmatch(_IDENT, raw):
                        plan["by"].append(raw)
                    else:
                        raise UnsupportedEsql(f"bad BY field {raw!r}")
            else:
                aggs_s = body
            aggs = []
            for a in _split_outside_parens(aggs_s):
                a = a.strip()
                # per-aggregate filter (ES 8.16): agg WHERE cond [AND..]
                mw = _split_top(a, r"\s+WHERE\s+")
                if len(mw) > 2:
                    raise UnsupportedEsql(f"bad aggregate filter {a!r}")
                aconds = None
                if len(mw) == 2:
                    a = mw[0].strip()
                    aconds = [_parse_cond(c.strip()) for c in
                              _split_top(mw[1], r"\s+AND\s+")]
                mp = re.fullmatch(
                    rf"({_IDENT})\s*=\s*PERCENTILE\s*\(\s*({_IDENT})\s*,"
                    rf"\s*(\d+)\s*\)", a, flags=re.I)
                if mp:
                    p = int(mp.group(3))
                    if not 0 <= p <= 100:
                        raise UnsupportedEsql(
                            f"PERCENTILE p must be 0..100, got {p}")
                    plan.setdefault("pctl", {})[mp.group(1)] = p
                    aggs.append((mp.group(1), "PERCENTILE", mp.group(2)))
                    if aconds:
                        plan.setdefault("agg_filters",
                                        {})[mp.group(1)] = aconds
                    continue
                m = re.fullmatch(
                    rf"({_IDENT})\s*=\s*({'|'.join(_AGG_FUNCS)})"
                    rf"\s*\(\s*(\*|{_IDENT})\s*\)", a,
                    flags=re.I)
                if not m:
                    raise UnsupportedEsql(f"bad aggregate {a!r}")
                name, func, col = m.group(1), m.group(2).upper(), m.group(3)
                if func == "COUNT" and col != "*":
                    raise UnsupportedEsql("COUNT supports only COUNT(*)")
                if func != "COUNT" and col == "*":
                    raise UnsupportedEsql(f"{func}(*) is not a thing")
                if func == "MEDIAN":          # MEDIAN ≡ PERCENTILE(col, 50)
                    plan.setdefault("pctl", {})[name] = 50
                    func = "PERCENTILE"
                aggs.append((name, func, col))
                if aconds:
                    plan.setdefault("agg_filters", {})[name] = aconds
            plan["stats"] = aggs
        elif kw == "SORT":
            if not seen_stats:
                plan["_sort_pre_stats"] = True
            # the executor applies ONE sort, then LIMIT, then KEEP —
            # shapes whose textual order differs would be silently
            # re-ordered, so they refuse
            if plan["sort"]:
                raise UnsupportedEsql(
                    "a second SORT stage re-sorts the first's output — "
                    "unsupported (use one SORT with multiple keys)")
            if plan["limit"] is not None:
                raise UnsupportedEsql(
                    "SORT after LIMIT sorts the truncated rows — "
                    "unsupported (write SORT | LIMIT)")
            for part in body.split(","):
                m = re.fullmatch(rf"({_IDENT})(\s+(ASC|DESC))?",
                                 part.strip(), flags=re.I)
                if not m:
                    raise UnsupportedEsql(f"bad sort key {part!r}")
                plan["sort"].append(
                    (m.group(1), (m.group(3) or "ASC").upper()))
        elif kw == "LIMIT":
            if not seen_stats:
                plan["_limit_pre_stats"] = True
            if not re.fullmatch(r"\d+", body):
                raise UnsupportedEsql(f"bad LIMIT {body!r}")
            # chained LIMITs truncate sequentially == the minimum wins
            plan["limit"] = (int(body) if plan["limit"] is None
                             else min(plan["limit"], int(body)))
        elif kw == "KEEP":
            if not seen_stats:
                plan["_keep_pre_stats"] = True
            if plan["keep"] is not None:
                raise UnsupportedEsql(
                    "a second KEEP stage subsets the first's output — "
                    "unsupported (write one KEEP)")
            plan["keep"] = [k.strip() for k in body.split(",")]
            for k in plan["keep"]:
                if not re.fullmatch(_IDENT, k):
                    raise UnsupportedEsql(f"bad KEEP field {k!r}")
        elif kw == "DISSECT":
            if seen_stats:
                raise UnsupportedEsql("DISSECT after STATS is unsupported")
            m = re.fullmatch(
                rf'({_IDENT})\s+"((?:[^"\\]|\\.)*)"', body)
            if not m:
                raise UnsupportedEsql(f"bad DISSECT {body!r}")
            col = m.group(1)
            pattern = m.group(2).replace('\\"', '"').replace("\\\\", "\\")
            names = re.findall(rf"%\{{({_IDENT})\}}", pattern)
            if not names:
                raise UnsupportedEsql("DISSECT pattern has no %{name}")
            if len(set(names)) != len(names):
                raise UnsupportedEsql("duplicate DISSECT capture names")
            literals = re.split(rf"%\{{{_IDENT}\}}", pattern)
            if "%" in "".join(literals):
                raise UnsupportedEsql(
                    "DISSECT supports only %{name} placeholders")
            plan.setdefault("dissect", []).append((col, literals, names))
        elif kw == "GROK":
            if seen_stats:
                raise UnsupportedEsql("GROK after STATS is unsupported")
            m = re.fullmatch(
                rf'({_IDENT})\s+"((?:[^"\\]|\\.)*)"', body)
            if not m:
                raise UnsupportedEsql(f"bad GROK {body!r}")
            col = m.group(1)
            pattern = m.group(2).replace('\\"', '"').replace("\\\\", "\\")
            cap_re = re.compile(
                rf"%\{{({'|'.join(_GROK_SYNTAX)}):({_IDENT})"
                rf"(?::(int))?\}}")
            caps = [(mm.group(1), mm.group(2), mm.group(3) == "int")
                    for mm in cap_re.finditer(pattern)]
            if not caps:
                raise UnsupportedEsql(
                    "GROK pattern has no %{SYNTAX:name} capture")
            names = [n for _s, n, _t in caps]
            if len(set(names)) != len(names):
                raise UnsupportedEsql("duplicate GROK capture names")
            for syntax, n, as_int in caps:
                if as_int and syntax not in ("INT", "NUMBER"):
                    raise UnsupportedEsql(
                        f"GROK :int needs INT or NUMBER, got {syntax}")
            literals = cap_re.split(pattern)[0::4]
            if "%" in "".join(literals):
                raise UnsupportedEsql(
                    "GROK supports only %{SYNTAX:name[:int]} captures "
                    f"from {sorted(_GROK_SYNTAX)}")
            plan.setdefault("grok", []).append((col, literals, caps))
        elif kw == "MV_EXPAND":
            if seen_stats:
                raise UnsupportedEsql(
                    "MV_EXPAND after STATS is unsupported")
            if not re.fullmatch(_IDENT, body):
                raise UnsupportedEsql(f"bad MV_EXPAND {body!r}")
            if body in plan.get("mv_expand", []):
                raise UnsupportedEsql(f"MV_EXPAND {body!r} twice")
            plan.setdefault("mv_expand", []).append(body)
        elif kw == "RENAME":
            if not seen_stats:
                raise UnsupportedEsql(
                    "RENAME before STATS is unsupported — rename the "
                    "STATS output instead")
            for part in body.split(","):
                m = re.fullmatch(rf"({_IDENT})\s+AS\s+({_IDENT})",
                                 part.strip(), flags=re.I)
                if not m:
                    raise UnsupportedEsql(f"bad RENAME {part!r}")
                plan.setdefault("reshape", []).append(
                    ("rename", m.group(1), m.group(2)))
        elif kw == "DROP":
            if not seen_stats:
                raise UnsupportedEsql("DROP before STATS is unsupported")
            for part in body.split(","):
                if not re.fullmatch(_IDENT, part.strip()):
                    raise UnsupportedEsql(f"bad DROP field {part!r}")
                plan.setdefault("reshape", []).append(
                    ("drop", part.strip(), None))
        else:
            raise UnsupportedEsql(f"unsupported stage {st!r}")
    if plan["stats"] is None:
        # the ONE supported raw-row shape is bounded top-N:
        # SORT keys | LIMIT n | KEEP cols — per-batch local top-n +
        # driver merge, never a corpus shuffle
        if not (plan["sort"] and plan["limit"] is not None
                and plan["keep"]):
            raise UnsupportedEsql(
                "queries without STATS return raw rows — the only "
                "supported raw-row shape is SORT ... | LIMIT n | "
                "KEEP ... (bounded top-N); route full scans through "
                "scan_export / the search pipelines instead")
        if plan.get("reshape"):
            raise UnsupportedEsql(
                "RENAME/DROP operate on the STATS bucket table")
        if plan["limit"] > 10_000:
            raise UnsupportedEsql(
                "raw-row LIMIT is capped at 10000 (ES's index.max_"
                "result_window default) — deeper reads are an export")
        plan["topn"] = True
    else:
        # with STATS present, SORT/LIMIT order the BUCKET table — they
        # must come after it (a pre-STATS sort of raw rows would be a
        # silently different query)
        if plan.get("_sort_pre_stats"):
            raise UnsupportedEsql(
                "SORT before STATS is a corpus shuffle — unsupported")
        if plan.get("_limit_pre_stats"):
            raise UnsupportedEsql("LIMIT before STATS is unsupported")
        if plan.get("_keep_pre_stats"):
            raise UnsupportedEsql(
                "KEEP before STATS restricts the raw rows — applying "
                "it to the bucket table would be a silently different "
                "query")
    return plan


def _hist_count():
    from ray.data.aggregate import Count
    return Count(alias_name="__vn")


def _pctl_from_hist(g, col: str, p_pct: int):
    """Discrete percentile off a (value, __vn) histogram frame — the
    value at 0-based index ceil(p/100·total)−1 of the sorted data
    (DuckDB ``quantile_disc`` parity, exact-integer in micro-units)."""
    vals = g[col].to_numpy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    n = g["__vn"].to_numpy()[order].astype(np.int64)
    total = int(n.sum())
    cum = np.cumsum(n)
    qm = p_pct * 10_000                        # p% → micro-units, exact
    idx = max((qm * total + 999_999) // 1_000_000 - 1, 0)
    return np.int64(vals[int(np.searchsorted(cum, idx + 1))])


def _like_regex(pat: str) -> str:
    """ES|QL LIKE wildcards (* = any run, ? = one char) → anchored RE2.
    (?s) because SQL LIKE's % matches newlines; RE2's '.' does not."""
    body = "".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
        for ch in pat)
    return "(?s)^" + body + "$"


def _leaf_conds(conds) -> list:
    """Flatten OR-groups to their leaf (col, op, lit) conditions for
    column pruning and type validation."""
    out = []
    for c in conds:
        if c[1] == "or":
            out.extend(_leaf_conds(c[2]))
        else:
            out.append(c)
    return out


def _cond_mask(batch: pa.Table, cond: tuple):
    """Boolean Arrow mask for one parsed condition (shared by WHERE and
    CASE)."""
    col, op, lit = cond
    if op == "or":
        m = None
        for c in lit:
            mm = _cond_mask(batch, c)
            m = mm if m is None else pc.or_(m, mm)
        return m
    c = batch[col]
    if op in ("in", "not_in"):
        m = pc.is_in(c, value_set=pa.array(list(lit)))
        if op == "not_in":
            m = pc.invert(m)
    elif op in ("like", "not_like"):
        m = pc.match_substring_regex(c, pattern=_like_regex(lit))
        if op == "not_like":
            m = pc.invert(m)
    elif op in ("rlike", "not_rlike"):
        # full-match, default RE2 semantics both sides ('.' stops at
        # newline here AND in DuckDB regexp_full_match)
        m = pc.match_substring_regex(c, pattern="^(?:" + lit + ")$")
        if op == "not_rlike":
            m = pc.invert(m)
    elif op in ("starts_with", "not_starts_with",
                "ends_with", "not_ends_with"):
        k = pc.starts_with if "starts" in op else pc.ends_with
        m = k(c, pattern=lit)
        if op.startswith("not_"):
            m = pc.invert(m)
    else:
        m = {"==": pc.equal, "!=": pc.not_equal,
             ">=": pc.greater_equal, "<=": pc.less_equal,
             ">": pc.greater, "<": pc.less}[op](c, lit)
    return m


def _filter_batch(batch: pa.Table, where: list) -> pa.Table:
    mask = None
    for cond in where:
        m = _cond_mask(batch, cond)
        mask = m if mask is None else pc.and_(mask, m)
    return batch.filter(mask) if mask is not None else batch


def _fork_branches(body: str) -> list[str]:
    """Split a FORK stage body into its parenthesized branch pipelines
    (quote-aware, paren-depth tracked)."""
    mask = _mask_quoted(body)
    branches, depth, start = [], 0, None
    for i, ch in enumerate(mask):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnsupportedEsql("unbalanced parens in FORK")
            if depth == 0:
                branches.append(body[start:i].strip())
                start = None
        elif depth == 0 and not ch.isspace():
            raise UnsupportedEsql(
                "FORK body must be (branch) (branch) ... groups")
    if depth != 0:
        raise UnsupportedEsql("unbalanced parens in FORK")
    if len(branches) < 2:
        raise UnsupportedEsql("FORK needs at least two branches")
    return branches


def _execute_fork(sf_dir: str, stages: list[str], fork_at: int,
                  ) -> pa.Table:
    """ES|QL 8.19 ``FORK``: the shared prefix pipeline feeds N branch
    pipelines whose results union with a ``_fork`` discriminator
    column (``fork1``, ``fork2``, ... in declared order).

    Executed as one ``execute()`` per branch over ``prefix | branch``
    (FORK must be the last stage; branches must produce identical
    column names and types — ES pads mismatches with nulls, which the
    integer-exactness contract refuses). This re-scans the shared
    prefix once per branch — correct first; a shared-scan fork is the
    optimization path and would not change a value."""
    if fork_at != len(stages) - 1:
        raise UnsupportedEsql(
            "stages after FORK are unsupported — put per-branch "
            "processing inside the branches")
    prefix = " | ".join(stages[:fork_at])
    body = stages[fork_at].split(None, 1)[1] \
        if len(stages[fork_at].split(None, 1)) > 1 else ""
    outs = []
    for i, br in enumerate(_fork_branches(body)):
        if _search_top(br, r"\bFORK\b"):
            raise UnsupportedEsql("nested FORK is unsupported")
        t = execute(sf_dir, f"{prefix} | {br}")
        outs.append(t.append_column(
            "_fork", pa.array([f"fork{i + 1}"] * t.num_rows,
                              pa.string())))
    sch = outs[0].schema
    for i, t in enumerate(outs[1:], start=2):
        if t.schema != sch:
            raise UnsupportedEsql(
                f"FORK branch {i} output schema differs from branch 1 "
                f"({t.schema.names} vs {sch.names}) — ES pads with "
                f"nulls; refusing instead")
    return pa.concat_tables(outs)


def execute(sf_dir: str, query: str) -> pa.Table:
    """Run an ES|QL query over ``<sf_dir>/<table>.parquet``: pruned
    columnar scan → vectorized WHERE → per-batch partial aggregates →
    one groupby reduce → bucket-table SORT/LIMIT/KEEP.

    Known fail-loud limitation: the executor applies WHERE after the
    derivation stages (ENRICH/DISSECT/GROK/LOOKUP) regardless of its
    textual position. For base-column predicates the RESULT is
    identical either way; the one observable difference is that a
    derivation MISS on a row the WHERE would have excluded refuses the
    whole query (spurious refusal, never a silently different answer).
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    stages = [s.strip() for s in _split_stages(query.strip())]
    forks = [i for i, st in enumerate(stages)
             if st and st.split(None, 1)[0].upper() == "FORK"]
    if forks:
        if len(forks) > 1:
            raise UnsupportedEsql("one FORK stage only")
        return _execute_fork(sf_dir, stages, forks[0])
    plan = parse(query)
    topn = plan.get("topn", False)
    if topn:
        plan["stats"] = []      # the aggregate loops below become no-ops
    enrich = plan.get("enrich", [])
    lookup = plan.get("lookup", [])
    dissect = plan.get("dissect", [])
    grok = plan.get("grok", [])
    splits = plan.get("splits", [])
    buckets = plan.get("buckets", [])
    mv_expand = plan.get("mv_expand", [])
    dissect_names = {n for _c, _l, names in dissect for n in names}
    grok_types = {n: (pa.int64() if as_int else pa.string())
                  for _c, _l, caps in grok for _s, n, as_int in caps}
    split_names = {n for n, _c, _s in splits}
    bucket_names = {n for n, _c, _u in buckets}
    # LOOKUP JOIN adds every non-key column of each lookup table; their
    # dtypes come from the lookup schemas (validated further below)
    lookup_types: dict[str, pa.DataType] = {}
    import pyarrow.parquet as _pq_mod
    for tbl, key in lookup:
        lpath = os.path.join(sf_dir, tbl + ".parquet")
        if not os.path.exists(lpath):
            raise UnsupportedEsql(f"unknown lookup table {tbl!r}")
        lsch = _pq_mod.read_schema(lpath)
        if key not in lsch.names:
            raise UnsupportedEsql(
                f"lookup table {tbl!r} has no join field {key!r}")
        for f in lsch:
            if f.name != key:
                if f.name in lookup_types:
                    raise UnsupportedEsql(
                        f"two LOOKUP JOINs both add column {f.name!r}")
                lookup_types[f.name] = f.type
    inline = plan.get("inline")
    where_pre = plan.get("where_pre", [])
    inline_names: set = set()
    if inline:
        iaggs, iby = inline
        inline_names = {nm for nm, _f, _c in iaggs}
        if len(inline_names) != len(iaggs):
            raise UnsupportedEsql("duplicate INLINESTATS output names")
        # INLINESTATS runs BEFORE EVAL (so EVAL can combine its outputs
        # with row values) — its inputs must exist by then, and its
        # outputs must not shadow anything
        later = ({n for n, _t, _o in plan["evals"]} | split_names
                 | bucket_names | set(lookup_types))
        for nm, _f, col in iaggs:
            if nm in later or nm in dissect_names or nm in grok_types:
                raise UnsupportedEsql(
                    f"INLINESTATS output {nm!r} shadows another column")
            if col != "*" and col in later:
                raise UnsupportedEsql(
                    f"INLINESTATS over {col!r}: EVAL/SPLIT/BUCKET/LOOKUP "
                    f"columns are produced after it")
        for col in iby:
            if col in later or col in inline_names:
                raise UnsupportedEsql(
                    f"INLINESTATS BY {col!r}: not yet produced at that "
                    f"stage")
        for col, _op, _lit in _leaf_conds(where_pre):
            if col in later or col in inline_names:
                raise UnsupportedEsql(
                    f"WHERE before INLINESTATS references {col!r}, which "
                    f"is produced later")
    derived = {name for name, _t, _o in plan["evals"]} \
        | {col for _tbl, _key, col in enrich} | dissect_names \
        | set(grok_types) | split_names | bucket_names \
        | set(lookup_types) | inline_names
    eval_names = derived
    for name, _t, _o in plan["evals"]:
        if name in lookup_types:
            raise UnsupportedEsql(
                f"EVAL name {name!r} collides with a LOOKUP-added column")
    for _name, terms, _ops in plan["evals"]:
        for t in terms:
            if t in lookup_types:
                raise UnsupportedEsql(
                    f"EVAL over LOOKUP-added column {t!r} is unsupported "
                    f"(EVAL runs before the join)")
    for col, _op, _lit in plan.get("eval_conds", []):
        if col in lookup_types:
            raise UnsupportedEsql(
                f"CASE condition over LOOKUP-added column {col!r} is "
                f"unsupported (EVAL runs before the join)")
    eval_conds = plan.get("eval_conds", [])
    agg_conds = [c for conds in plan.get("agg_filters", {}).values()
                 for c in conds]
    for col, _op, _lit in eval_conds:
        # CASE conditions evaluate inside the EVAL stage — columns that
        # only exist later (BUCKET keys, SPLIT outputs) cannot feed them
        if col in bucket_names or col in split_names:
            raise UnsupportedEsql(
                f"CASE condition over {col!r}: BUCKET/SPLIT outputs are "
                f"produced after EVAL")
    cols = set(plan["by"]) - eval_names
    for col, _op, _lit in _leaf_conds(
            list(plan["where"]) + where_pre + eval_conds + agg_conds):
        if col not in eval_names:
            cols.add(col)
    if inline:
        for _nm, _f, col in inline[0]:
            if col != "*" and col not in eval_names:
                cols.add(col)
        for col in inline[1]:
            if col not in eval_names:
                cols.add(col)
    if topn:
        for c in [k for k, _d in plan["sort"]] + plan["keep"]:
            if c not in eval_names:
                cols.add(c)
    for _n, func, col in plan["stats"]:
        if col != "*" and col not in eval_names:
            cols.add(col)
    for _name, terms, _ops in plan["evals"]:
        for t in terms:
            if re.fullmatch(_IDENT, t) and t not in eval_names:
                cols.add(t)
    for _tbl, key, _col in enrich:
        cols.add(key)
    for _tbl, key in lookup:
        if key not in eval_names:
            cols.add(key)
    for dcol, _lits, _names in dissect:
        if dcol not in eval_names:
            cols.add(dcol)
    for gcol, _lits, _caps in grok:
        if gcol not in eval_names:
            cols.add(gcol)
    for _n, scol, _s in splits:
        if scol not in eval_names:
            cols.add(scol)
    for _n, bcol, _u in buckets:
        if bcol not in eval_names:
            cols.add(bcol)
    path = os.path.join(sf_dir, plan["from"] + ".parquet")
    if not os.path.exists(path):
        raise UnsupportedEsql(f"unknown table {plan['from']!r}")
    import pyarrow.parquet as pq

    schema = pq.read_schema(path)
    for c in sorted(cols):
        if c not in schema.names:
            raise UnsupportedEsql(f"unknown field {c!r}")
    # enrich output dtypes from the lookup table schemas: ENRICH-derived
    # columns are not in the base schema, but EVAL/SUM/AVG/WHERE over
    # them must obey the same refusal contract as base columns
    enrich_types: dict[str, pa.DataType] = {}
    for tbl, _key, col in enrich:
        lpath = os.path.join(sf_dir, tbl + ".parquet")
        if not os.path.exists(lpath):
            raise UnsupportedEsql(f"unknown enrich table {tbl!r}")
        lsch = pq.read_schema(lpath)
        if col not in lsch.names:
            raise UnsupportedEsql(
                f"enrich table {tbl!r} has no column {col!r}")
        enrich_types[col] = lsch.field(col).type
    # derived names must not shadow the base schema: the column pruner
    # skips derived names, so a shadowing EVAL/ENRICH would either
    # KeyError inside a task (self-reference) or append a duplicate
    # Arrow column (silently wrong downstream)
    for name, _t, _o in plan["evals"]:
        if name in schema.names:
            raise UnsupportedEsql(
                f"EVAL name {name!r} shadows a base column")
        if name in enrich_types:
            raise UnsupportedEsql(
                f"EVAL name {name!r} shadows an ENRICH column")
    for _tbl, _key, col in enrich:
        if col in schema.names:
            raise UnsupportedEsql(
                f"ENRICH WITH {col!r} shadows a base column")

    def _out_type(name: str) -> pa.DataType | None:
        """Static type of a column the pipeline produces: base schema,
        enrich lookup value, string for DISSECT captures, or int64 for
        EVAL-derived names."""
        if name in schema.names:
            return schema.field(name).type
        if name in enrich_types:
            return enrich_types[name]
        if name in lookup_types:
            return lookup_types[name]
        if name in dissect_names:
            return pa.string()
        if name in grok_types:
            return grok_types[name]
        if name in split_names:
            # a SPLIT output is multivalued; after MV_EXPAND each row
            # carries one string value
            return (pa.string() if name in mv_expand
                    else pa.list_(pa.string()))
        if name in bucket_names:
            return pa.string()
        if name in plan.get("eval_str", set()):
            return pa.string()
        return pa.int64() if name in eval_names else None

    # LOOKUP JOIN static checks: added columns must not shadow base or
    # derived names; the join key must resolve on the left side with
    # the lookup key's exact type
    for tbl, key in lookup:
        lsch = _pq_mod.read_schema(os.path.join(sf_dir, tbl + ".parquet"))
        for f in lsch:
            if f.name == key:
                continue
            if f.name in schema.names or f.name in (derived
                                                    - set(lookup_types)):
                raise UnsupportedEsql(
                    f"LOOKUP JOIN {tbl!r} would shadow column {f.name!r}")
        kty = _out_type(key)
        if kty is None:
            raise UnsupportedEsql(
                f"LOOKUP JOIN key {key!r} does not resolve on the "
                f"left side")
        if kty != lsch.field(key).type and not (
                pa.types.is_integer(kty)
                and pa.types.is_integer(lsch.field(key).type)):
            raise UnsupportedEsql(
                f"LOOKUP JOIN key {key!r}: left type {kty} does not "
                f"match lookup type {lsch.field(key).type}")
    # DISSECT static checks: source must be a string column, capture
    # names must not shadow anything the pipeline already produces —
    # including captures from OTHER dissect stages
    seen_captures: set[str] = set()
    for dcol, _lits, names in dissect:
        ty = (schema.field(dcol).type if dcol in schema.names
              else enrich_types.get(dcol))
        if ty is None or not (pa.types.is_string(ty)
                              or pa.types.is_large_string(ty)):
            raise UnsupportedEsql(
                f"DISSECT over non-string column {dcol!r} ({ty})")
        for n in names:
            if n in schema.names or n in enrich_types \
                    or n in seen_captures \
                    or any(n == e for e, _t, _o in plan["evals"]):
                raise UnsupportedEsql(
                    f"DISSECT capture {n!r} shadows an existing column")
            seen_captures.add(n)

    # GROK static checks: same contract as DISSECT (string source, no
    # shadowing — sharing seen_captures with DISSECT stages)
    for gcol, _lits, caps in grok:
        ty = (schema.field(gcol).type if gcol in schema.names
              else enrich_types.get(gcol))
        if ty is None or not (pa.types.is_string(ty)
                              or pa.types.is_large_string(ty)):
            raise UnsupportedEsql(
                f"GROK over non-string column {gcol!r} ({ty})")
        for _s, n, _t in caps:
            if n in schema.names or n in enrich_types \
                    or n in seen_captures or n in split_names \
                    or n in bucket_names \
                    or any(n == e for e, _t2, _o in plan["evals"]):
                raise UnsupportedEsql(
                    f"GROK capture {n!r} shadows an existing column")
            seen_captures.add(n)

    # SPLIT / MV_EXPAND static checks: a SPLIT output is MULTIVALUED —
    # it may only be referenced (BY / WHERE / aggregates) after
    # MV_EXPAND turns it back into one value per row
    for n, scol, _s in splits:
        ty = (schema.field(scol).type if scol in schema.names
              else enrich_types.get(scol))
        if ty is None or not (pa.types.is_string(ty)
                              or pa.types.is_large_string(ty)):
            raise UnsupportedEsql(
                f"SPLIT over non-string column {scol!r} ({ty})")
        if n in schema.names or n in enrich_types or n in seen_captures \
                or n in bucket_names \
                or any(n == e for e, _t, _o in plan["evals"]):
            raise UnsupportedEsql(
                f"SPLIT output {n!r} shadows an existing column")
    if len(split_names) != len(splits):
        raise UnsupportedEsql("duplicate SPLIT output names")
    for n in mv_expand:
        if n not in split_names:
            raise UnsupportedEsql(
                f"MV_EXPAND {n!r}: not a SPLIT-derived multivalued "
                f"column")
    # MV_COUNT is the one op that reads a multivalued column WITHOUT
    # MV_EXPAND (it never materializes the list — the count comes from
    # separator occurrences on the source string)
    for _nm, terms, ops_ in plan["evals"]:
        if ops_ and isinstance(ops_[0], tuple) and ops_[0][0] == "mvc":
            t = terms[0]
            if t not in split_names:
                raise UnsupportedEsql(
                    f"MV_COUNT({t}): only SPLIT-derived multivalued "
                    f"columns have a value count")
            if t in mv_expand:
                raise UnsupportedEsql(
                    f"MV_COUNT({t}) after MV_EXPAND is 1 on every row "
                    f"— drop one of the two")
    unexpanded = split_names - set(mv_expand)
    referenced = set(plan["by"]) \
        | {c for c, _o, _l in plan["where"]} \
        | {c for _n, _f, c in plan["stats"] if c != "*"} \
        | {t for _n, terms, _o in plan["evals"] for t in terms
           if re.fullmatch(_IDENT, t)
           and not (_o and isinstance(_o[0], tuple)
                    and _o[0][0] == "mvc")}
    hit = unexpanded & referenced
    if hit:
        raise UnsupportedEsql(
            f"multivalued column(s) {sorted(hit)} referenced without "
            f"MV_EXPAND")

    # BUCKET static checks: timestamp source, no shadowing
    for n, bcol, _u in buckets:
        ty = (schema.field(bcol).type if bcol in schema.names
              else enrich_types.get(bcol))
        if ty is None or not pa.types.is_timestamp(ty):
            raise UnsupportedEsql(
                f"BUCKET over non-timestamp column {bcol!r} ({ty}) — "
                f"date spans only")
        if n in schema.names or n in enrich_types or n in seen_captures \
                or n in split_names \
                or any(n == e for e, _t, _o in plan["evals"]):
            raise UnsupportedEsql(
                f"BUCKET output {n!r} shadows an existing column")
    if len(bucket_names) != len(buckets):
        raise UnsupportedEsql("duplicate BUCKET output names")

    for _name, terms, ops_ in plan["evals"]:
        if ops_ and isinstance(ops_[0], tuple) and ops_[0][0] == "sfn":
            if ops_[0][1] == "TO_STRING":
                # the one string fn whose INPUT is an integer
                ty = _out_type(terms[0])
                if ty is not None and not pa.types.is_integer(ty):
                    raise UnsupportedEsql(
                        f"TO_STRING over non-integer column "
                        f"{terms[0]!r} ({ty}) — float rendering is "
                        f"not pinned across engines")
                continue
            for t in terms:       # string functions take STRING columns
                ty = _out_type(t)
                if ty is not None and not (
                        pa.types.is_string(ty)
                        or pa.types.is_large_string(ty)):
                    raise UnsupportedEsql(
                        f"string function over non-string column "
                        f"{t!r} ({ty})")
            continue
        if ops_ and isinstance(ops_[0], tuple) and ops_[0][0] == "dfn":
            ty = _out_type(terms[0])
            if ty is not None and not pa.types.is_timestamp(ty):
                raise UnsupportedEsql(
                    f"DATE_EXTRACT over non-timestamp column "
                    f"{terms[0]!r} ({ty})")
            continue
        if ops_ and isinstance(ops_[0], tuple) and ops_[0][0] == "mvc":
            continue            # validated against split_names above
        for t in terms:
            if re.fullmatch(_IDENT, t) and not re.fullmatch(r"\d+", t):
                ty = _out_type(t)
                if ty is not None and not pa.types.is_integer(ty):
                    raise UnsupportedEsql(
                        f"EVAL over non-integer column {t!r} ({ty})")
    for _n, func, col in plan["stats"]:
        if func in ("SUM", "AVG") and col != "*":
            ty = _out_type(col)
            if ty is not None and not pa.types.is_integer(ty):
                raise UnsupportedEsql(
                    f"{func}({col}): non-integer column — float sums are "
                    f"order-dependent across a distributed reduce")
        elif func == "PERCENTILE":
            ty = _out_type(col)
            if ty is not None and not pa.types.is_integer(ty):
                raise UnsupportedEsql(
                    f"MEDIAN/PERCENTILE({col}): non-integer column — the "
                    f"exact value-histogram plan needs a bounded integer "
                    f"domain")
        elif func == "COUNT_DISTINCT":
            ty = _out_type(col)
            if ty is not None and not (
                    pa.types.is_integer(ty) or pa.types.is_string(ty)
                    or pa.types.is_large_string(ty)):
                raise UnsupportedEsql(
                    f"COUNT_DISTINCT({col}): only integer or string "
                    f"columns group exactly")
    if inline:
        for _nm, fn, col in inline[0]:
            if col == "*":
                continue
            ty = _out_type(col)
            if ty is not None and not pa.types.is_integer(ty):
                raise UnsupportedEsql(
                    f"INLINESTATS {fn}({col}): integer columns only")
    for col, op, lit in _leaf_conds(
            list(plan["where"]) + where_pre + eval_conds + agg_conds):
        ty = _out_type(col)
        if ty is None:
            continue
        col_is_str = (pa.types.is_string(ty)
                      or pa.types.is_large_string(ty))
        if op in ("like", "not_like", "rlike", "not_rlike",
                  "starts_with", "not_starts_with",
                  "ends_with", "not_ends_with"):
            if not col_is_str:
                raise UnsupportedEsql(
                    f"WHERE {col} {op.upper().replace('_', ' ')}: "
                    f"pattern match needs a string column, got {ty}")
        elif op in ("in", "not_in"):
            if col_is_str != isinstance(lit[0], str):
                raise UnsupportedEsql(
                    f"WHERE {col} IN: literal type does not match "
                    f"column type {ty}")
        elif col_is_str != isinstance(lit, str):
            raise UnsupportedEsql(
                f"WHERE {col} {op} {lit!r}: literal type does not "
                f"match column type {ty}")
    if topn:
        # raw-row top-N: SORT/KEEP reference row columns, not a bucket
        # table; every referenced column must resolve to an orderable
        # scalar type
        names_now = list(plan["keep"])
        for c in dict.fromkeys(
                [k for k, _d in plan["sort"]] + plan["keep"]):
            ty = _out_type(c)
            if ty is None:
                raise UnsupportedEsql(f"unknown top-N column {c!r}")
            if not (pa.types.is_integer(ty) or pa.types.is_floating(ty)
                    or pa.types.is_string(ty)
                    or pa.types.is_large_string(ty)):
                raise UnsupportedEsql(
                    f"top-N over column {c!r} of type {ty} is not "
                    f"pinned across engines")
    # bucket-table column set after the RENAME / DROP chain, validated
    # and later applied in TEXTUAL ORDER (a DROP may free a name a
    # later RENAME reuses; chained renames must resolve sequentially);
    # KEEP and SORT must reference the post-reshape names
    names_now = names_now if topn else (
        plan["by"] + [n for n, _f, _c in plan["stats"]])
    if not topn:
        for op, a, b in plan.get("reshape", []):
            if op == "rename":
                if a not in names_now:
                    raise UnsupportedEsql(
                        f"RENAME of column {a!r} not in the STATS output")
                if b in names_now:
                    raise UnsupportedEsql(
                        f"RENAME target {b!r} already exists")
                names_now[names_now.index(a)] = b
            else:
                if a not in names_now:
                    raise UnsupportedEsql(
                        f"DROP of column {a!r} not in the STATS output")
                names_now.remove(a)
        if not names_now:
            raise UnsupportedEsql("DROP removed every output column")
        for skey, _dir in plan["sort"]:
            if skey not in names_now:
                raise UnsupportedEsql(
                    f"SORT key {skey!r} not in the output columns")
        if plan["keep"]:
            bad = [c for c in plan["keep"] if c not in names_now]
            if bad:
                raise UnsupportedEsql(
                    f"KEEP of column(s) not in the STATS output: {bad}")

    ds = ray.data.read_parquet(path, columns=sorted(cols))
    for tbl, key, col in enrich:
        lpath = os.path.join(sf_dir, tbl + ".parquet")
        if not os.path.exists(lpath):
            raise UnsupportedEsql(f"unknown enrich table {tbl!r}")
        lk = pq.read_table(lpath)
        lk_key = lk.column_names[0]
        if col not in lk.column_names:
            raise UnsupportedEsql(
                f"enrich table {tbl!r} has no column {col!r}")
        keys = lk[lk_key].to_numpy(zero_copy_only=False)
        if len(np.unique(keys)) != len(keys):
            raise UnsupportedEsql(
                f"enrich table {tbl!r} key {lk_key!r} is not unique")
        vals = lk[col].to_pylist()
        lut = dict(zip(keys.tolist(), vals))

        def add_enrich(b: pa.Table, _k=key, _c=col, _lut=lut) -> pa.Table:
            kv = b[_k].to_numpy(zero_copy_only=False)
            out = [_lut.get(v) for v in kv.tolist()]
            if any(v is None for v in out):
                raise UnsupportedEsql(
                    f"enrich miss: a {_k!r} value has no lookup row")
            return b.append_column(_c, pa.array(out))

        ds = ds.map_batches(add_enrich, batch_format="pyarrow")
    for dcol, literals, names in dissect:
        parts = [re.escape(literals[0])]
        for n, lit in zip(names, literals[1:]):
            parts.append(f"(?P<{n}>.*?)")
            parts.append(re.escape(lit))
        # (?s): ES dissect captures ANY chars, including newlines —
        # RE2's default '.' excludes \n
        rx = "(?s)^" + "".join(parts) + "$"

        def add_dissect(b: pa.Table, _c=dcol, _rx=rx,
                        _names=tuple(names)) -> pa.Table:
            ex = pc.extract_regex(b[_c], pattern=_rx)
            if ex.null_count:
                raise UnsupportedEsql(
                    f"DISSECT miss: a {_c!r} value does not match the "
                    f"pattern")
            for n in _names:
                b = b.append_column(
                    n, pc.cast(pc.struct_field(ex, n), pa.string()))
            return b

        ds = ds.map_batches(add_dissect, batch_format="pyarrow")
    for gcol, literals, caps in grok:
        parts = [re.escape(literals[0])]
        for (syntax, n, _as_int), lit in zip(caps, literals[1:]):
            parts.append(f"(?P<{n}>{_GROK_SYNTAX[syntax]})")
            parts.append(re.escape(lit))
        # (?s) for the same reason as DISSECT: grok DATA/GREEDYDATA
        # capture any chars including newlines
        rx = "(?s)^" + "".join(parts) + "$"
        gnames = tuple(n for _s, n, _t in caps)
        gints = tuple(n for _s, n, as_int in caps if as_int)

        def add_grok(b: pa.Table, _c=gcol, _rx=rx, _names=gnames,
                     _ints=gints) -> pa.Table:
            ex = pc.extract_regex(b[_c], pattern=_rx)
            if ex.null_count:
                raise UnsupportedEsql(
                    f"GROK miss: a {_c!r} value does not match the "
                    f"pattern")
            for n in _names:
                v = pc.cast(pc.struct_field(ex, n), pa.string())
                if n in _ints:
                    try:
                        v = pc.cast(v, pa.int64())
                    except pa.ArrowInvalid:
                        raise UnsupportedEsql(
                            f"GROK :int: capture {n!r} is not an "
                            f"integer") from None
                b = b.append_column(n, v)
            return b

        ds = ds.map_batches(add_grok, batch_format="pyarrow")
    if inline:
        # INLINESTATS: one distributed partial-agg pass produces a
        # GROUPS-sized table; it broadcasts into a second map over the
        # same (pre-filtered) stream that appends the group values to
        # every row — ES's window-style stats without any row shuffle.
        iaggs, iby = inline
        if where_pre:
            ds = ds.map_batches(lambda b: _filter_batch(b, where_pre),
                                batch_format="pyarrow")

        def _add_ione(b: pa.Table) -> pa.Table:
            return b.append_column(
                "__ione", pa.array(np.ones(b.num_rows, np.int64)))

        need_icount = any(f == "COUNT" for _n, f, _c in iaggs)
        ids = ds.map_batches(_add_ione, batch_format="pyarrow") \
            if need_icount else ds
        ray_iaggs = []
        for nm, fn, col in iaggs:
            if fn == "COUNT":       # Sum over ones: groupby(None)-safe
                ray_iaggs.append(Sum("__ione", alias_name=nm))
            elif fn == "SUM":
                ray_iaggs.append(Sum(col, alias_name=nm))
            elif fn == "MIN":
                ray_iaggs.append(Min(col, alias_name=nm))
            else:
                ray_iaggs.append(Max(col, alias_name=nm))
        igrouped = ids.groupby(iby) if iby else ids.groupby(None)
        small = igrouped.aggregate(*ray_iaggs).to_pandas()
        if iby and small.empty:
            small = pd.DataFrame(
                {iby[0]: pd.Series([], dtype=object),
                 **{nm: pd.Series([], dtype=np.int64)
                    for nm, _f, _c in iaggs}})
        if iby:
            k = small[iby[0]].to_numpy()
            order = np.argsort(k, kind="stable")
            k = k[order]
            ivals = {nm: small[nm].to_numpy()[order].astype(np.int64)
                     for nm, _f, _c in iaggs}

            def add_inline(b: pa.Table, _k=k, _v=ivals,
                           _key=iby[0]) -> pa.Table:
                kv = b[_key].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(_k, kv)
                for nm, arr in _v.items():
                    b = b.append_column(
                        nm, pa.array(arr[pos], pa.int64()))
                return b
        else:
            consts = {nm: (0 if pd.isna(small[nm].iloc[0])
                           else int(small[nm].iloc[0]))
                      for nm, _f, _c in iaggs}

            def add_inline(b: pa.Table, _c=consts) -> pa.Table:
                for nm, v in _c.items():
                    b = b.append_column(
                        nm, pa.array(np.full(b.num_rows, v, np.int64)))
                return b

        ds = ds.map_batches(add_inline, batch_format="pyarrow")
    if plan["evals"]:
        evals = plan["evals"]

        def add_evals(b: pa.Table) -> pa.Table:
            for name, terms, ops in evals:
                def val(t):
                    if re.fullmatch(r"-?\d+", t):
                        return np.int64(int(t))
                    return b[t].to_numpy(zero_copy_only=False) \
                        .astype(np.int64)
                if ops and isinstance(ops[0], tuple) \
                        and ops[0][0] == "dfn":
                    part = ops[0][1]
                    col_arr = b[terms[0]]
                    if part == "isodow":   # 1=Monday..7=Sunday, DuckDB
                        v = pc.day_of_week(col_arr, count_from_zero=False,
                                           week_start=1)
                    else:
                        v = getattr(pc, part)(col_arr)
                    b = b.append_column(name, pc.cast(v, pa.int64()))
                    continue
                if ops and isinstance(ops[0], tuple) \
                        and ops[0][0] == "mvc":
                    src, sep = next((c, s) for n, c, s in splits
                                    if n == terms[0])
                    cnt = pc.add(
                        pc.count_substring(b[src], pattern=sep), 1)
                    b = b.append_column(name, pc.cast(cnt, pa.int64()))
                    continue
                if ops and isinstance(ops[0], tuple) \
                        and ops[0][0] == "sfn":
                    fname, params = ops[0][1], ops[0][2]
                    if fname == "LENGTH":
                        b = b.append_column(
                            name, pc.utf8_length(b[terms[0]])
                            .cast(pa.int64()))
                    elif fname in ("TO_LOWER", "TO_UPPER"):
                        k = (pc.utf8_lower if fname == "TO_LOWER"
                             else pc.utf8_upper)
                        b = b.append_column(name, k(b[terms[0]]))
                    elif fname == "TO_STRING":
                        b = b.append_column(
                            name, pc.cast(b[terms[0]], pa.string()))
                    elif fname in ("TRIM", "LTRIM", "RTRIM"):
                        k = {"TRIM": pc.utf8_trim_whitespace,
                             "LTRIM": pc.utf8_ltrim_whitespace,
                             "RTRIM": pc.utf8_rtrim_whitespace}[fname]
                        b = b.append_column(name, k(b[terms[0]]))
                    elif fname == "LEFT":
                        b = b.append_column(
                            name, pc.utf8_slice_codeunits(
                                b[terms[0]], 0, params))
                    elif fname == "RIGHT":
                        # negative start slices from the end; a string
                        # shorter than n comes back whole (DuckDB right);
                        # n = 0 is the empty slice, so NULL stays NULL
                        b = b.append_column(
                            name, pc.utf8_slice_codeunits(
                                b[terms[0]], -params, None)
                            if params else pc.utf8_slice_codeunits(
                                b[terms[0]], 0, 0))
                    elif fname == "REPLACE":
                        pat, rep = params
                        b = b.append_column(
                            name, pc.replace_substring(
                                b[terms[0]], pattern=pat,
                                replacement=rep))
                    elif fname == "SUBSTRING":
                        start, ln = params
                        b = b.append_column(
                            name, pc.utf8_slice_codeunits(
                                b[terms[0]], start - 1, start - 1 + ln))
                    else:                          # CONCAT
                        parts = [b[a[1]] if a[0] == "col"
                                 else pa.scalar(a[1]) for a in params]
                        b = b.append_column(
                            name,
                            pc.binary_join_element_wise(*parts, ""))
                    continue
                if ops and isinstance(ops[0], tuple):
                    tag = ops[0][0]
                    if tag == "case":
                        # evaluate default-outward so the FIRST matching
                        # condition wins (SQL CASE semantics)
                        conds = ops[0][1]
                        acc = val(terms[-1])
                        if np.isscalar(acc) or acc.ndim == 0:
                            acc = np.full(b.num_rows, acc, np.int64)
                        for cond, vterm in zip(conds[::-1],
                                               terms[-2::-1]):
                            mask = _cond_mask(b, cond) \
                                .to_numpy(zero_copy_only=False)
                            acc = np.where(mask, val(vterm), acc)
                    else:                          # ("fn", NAME)
                        fname = ops[0][1]
                        args = [val(t) for t in terms]
                        if fname == "ABS":
                            acc = np.abs(args[0])
                        elif fname == "GREATEST":
                            acc = np.maximum.reduce(
                                [np.broadcast_to(a, (b.num_rows,))
                                 if np.ndim(a) else
                                 np.full(b.num_rows, a, np.int64)
                                 for a in args])
                        else:                      # LEAST
                            acc = np.minimum.reduce(
                                [np.broadcast_to(a, (b.num_rows,))
                                 if np.ndim(a) else
                                 np.full(b.num_rows, a, np.int64)
                                 for a in args])
                else:
                    # standard precedence: collapse * // % runs first,
                    # then fold + and - left-to-right (a + b * 2 is
                    # a + (b*2), matching ES|QL and the SQL oracles)
                    def _div(x, y, _mod):
                        x, y = np.asarray(x), np.asarray(y)
                        if np.any(y == 0):
                            raise UnsupportedEsql(
                                "division by zero in EVAL — SQL errors "
                                "here; refusing rather than emitting "
                                "numpy's silent 0")
                        # SQL // and % TRUNCATE toward zero; numpy
                        # floors — adjust the negative-mixed-sign case
                        q = x // y
                        r = x - q * y
                        q = q + ((r != 0) & ((x < 0) != (y < 0)))
                        return x - q * y if _mod else q

                    rvals = [val(terms[0])]
                    radds: list[str] = []
                    for o, t in zip(ops, terms[1:]):
                        v = val(t)
                        if o == "*":
                            rvals[-1] = rvals[-1] * v
                        elif o == "//":
                            rvals[-1] = _div(rvals[-1], v, False)
                        elif o == "%":
                            rvals[-1] = _div(rvals[-1], v, True)
                        else:
                            radds.append(o)
                            rvals.append(v)
                    acc = rvals[0]
                    for o, v in zip(radds, rvals[1:]):
                        acc = acc + v if o == "+" else acc - v
                if np.isscalar(acc) or acc.ndim == 0:
                    acc = np.full(b.num_rows, acc, dtype=np.int64)
                b = b.append_column(
                    name, pa.array(acc.astype(np.int64), pa.int64()))
            return b

        ds = ds.map_batches(add_evals, batch_format="pyarrow")
    for tbl, key in lookup:
        # ES 8.18 LOOKUP JOIN: broadcast the (small) lookup table once,
        # searchsorted per batch; MULTIPLE matches EXPAND rows (the
        # semantic that separates it from ENRICH), zero matches refuse
        # (ES emits nulls — a silently different STATS is worse here).
        # Runs AFTER EVAL so derived keys (e.g. a rename) can join.
        lk = pq.read_table(os.path.join(sf_dir, tbl + ".parquet"))
        add_cols = [c for c in lk.column_names if c != key]
        keys_np = lk[key].to_numpy(zero_copy_only=False)
        order = np.argsort(keys_np, kind="stable")
        sorted_keys = keys_np[order]
        sorted_cols = {c: lk[c].combine_chunks().take(pa.array(order))
                       for c in add_cols}

        def lookup_join(b: pa.Table, _k=key, _sk=sorted_keys,
                        _sc=sorted_cols, _tbl=tbl) -> pa.Table:
            kv = b[_k].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(_sk, kv, side="left")
            hi = np.searchsorted(_sk, kv, side="right")
            cnt = hi - lo
            if (cnt == 0).any():
                miss = kv[cnt == 0][0]
                raise UnsupportedEsql(
                    f"LOOKUP JOIN miss: {_k}={miss!r} has no row in "
                    f"{_tbl!r}")
            parent = np.repeat(np.arange(len(kv), dtype=np.int64), cnt)
            starts = np.repeat(lo, cnt)
            offs = (np.arange(int(cnt.sum()), dtype=np.int64)
                    - np.repeat(np.cumsum(cnt) - cnt, cnt))
            gidx = pa.array(starts + offs)
            out = b.take(pa.array(parent))
            for c, arr in _sc.items():
                out = out.append_column(c, arr.take(gidx))
            return out

        ds = ds.map_batches(lookup_join, batch_format="pyarrow")
    for name, scol, sep in splits:
        if name not in mv_expand:
            # statically unreferenced (checked above) — materializing
            # the list column would be pure waste
            continue

        def split_expand(b: pa.Table, _c=scol, _n=name,
                         _s=sep) -> pa.Table:
            b = b.combine_chunks()
            lst = pc.split_pattern(b[_c], pattern=_s)
            idx = pc.list_parent_indices(lst)
            flat = pc.list_flatten(lst)
            # rows whose list is empty are dropped (the SQL unnest
            # convention; SPLIT of a non-empty string never is)
            return b.take(idx).append_column(_n, flat)

        ds = ds.map_batches(split_expand, batch_format="pyarrow")
    for name, bcol, unit in buckets:
        fmt = "%Y-%m-%d %H:%M:%S" if unit == "hour" else "%Y-%m-%d"

        def add_bucket(b: pa.Table, _c=bcol, _n=name, _u=unit,
                       _f=fmt) -> pa.Table:
            floored = pc.floor_temporal(b[_c], unit=_u)
            return b.append_column(_n, pc.strftime(floored, format=_f))

        ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    if plan["where"]:
        where = plan["where"]
        ds = ds.map_batches(lambda b: _filter_batch(b, where),
                            batch_format="pyarrow")

    if topn:
        # bounded raw-row top-N: each batch contributes its LOCAL top-n
        # (n_batches × n candidate rows — small by the LIMIT cap), one
        # driver merge picks the global head. Ties beyond the declared
        # sort keys are engine-specific — callers pin determinism with
        # a unique trailing key, exactly as in SQL.
        skeys = [k for k, _d in plan["sort"]]
        asc = [d == "ASC" for _k, d in plan["sort"]]
        out_cols = plan["keep"]
        need_cols = list(dict.fromkeys(out_cols + skeys))
        n = plan["limit"]

        def local_topn(b: pa.Table) -> pa.Table:
            b = b.select(need_cols)
            df = b.to_pandas().sort_values(skeys, ascending=asc,
                                           kind="mergesort").head(n)
            # the batch's schema, not pandas inference: an all-null
            # string column must not come back null-typed
            return pa.Table.from_pandas(df, schema=b.schema,
                                        preserve_index=False)

        cand = ds.map_batches(local_topn, batch_format="pyarrow")
        parts = [t for t in cand.iter_batches(batch_format="pyarrow",
                                              batch_size=None)
                 if t.num_rows]
        if not parts:
            out = pd.DataFrame({c: pd.Series([], dtype=object)
                                for c in out_cols})
        else:
            merged = pa.concat_tables(parts).to_pandas()
            out = merged.sort_values(skeys, ascending=asc,
                                     kind="mergesort").head(n)
        out = out[out_cols].reset_index(drop=True)
        arrays = {}
        for c in out.columns:
            if out[c].dtype == object:
                arrays[c] = pa.array(out[c], pa.string())
            elif np.issubdtype(out[c].dtype, np.floating):
                arrays[c] = pa.array(out[c], pa.float64())
            else:
                arrays[c] = pa.array(out[c], pa.int64())
        return pa.table(arrays)

    # Ray's Count() (row count, no `on`) returns 0 under groupby(None)
    # on this Ray version — count rows as Sum over a ones column when
    # there is no BY (null-agnostic, exactly SQL count(*))
    need_ones = not plan["by"] and (
        any(f in ("COUNT", "AVG") for _n, f, _c in plan["stats"])
        # all-histogram stats still add a hidden row count to anchor
        # the (single) group row — same Count()-under-groupby(None) bug
        or all(f in ("COUNT_DISTINCT", "PERCENTILE")
               for _n, f, _c in plan["stats"]))
    if need_ones:
        def add_ones(b: pa.Table) -> pa.Table:
            return b.append_column(
                "__one", pa.array(np.ones(b.num_rows, np.int64)))

        ds = ds.map_batches(add_ones, batch_format="pyarrow")

    def _count(alias: str):
        return (Sum("__one", alias_name=alias) if need_ones
                else Count(alias_name=alias))

    # per-aggregate filters (STATS ... WHERE, ES 8.16): each filtered
    # plain aggregate rides a derived per-batch column — indicator for
    # COUNT, masked product for SUM (the coalesce-0 convention), nulled
    # non-matches for MIN/MAX (null-ignoring reduce = SQL FILTER)
    agg_filters = plan.get("agg_filters", {})
    fspecs = []                     # (outcol, kind, col, conds)
    ray_aggs, avg_of, hist_aggs = [], {}, []
    for name, func, col in plan["stats"]:
        aconds = agg_filters.get(name)
        if aconds and func not in ("COUNT_DISTINCT", "PERCENTILE"):
            if func == "COUNT":
                fspecs.append((f"__af_{name}", "count", None, aconds))
                ray_aggs.append(Sum(f"__af_{name}", alias_name=name))
            elif func == "SUM":
                fspecs.append((f"__af_{name}", "sum", col, aconds))
                ray_aggs.append(Sum(f"__af_{name}", alias_name=name))
            elif func in ("MIN", "MAX"):
                fspecs.append((f"__af_{name}", "mask", col, aconds))
                agg_cls = Min if func == "MIN" else Max
                ray_aggs.append(agg_cls(f"__af_{name}", alias_name=name))
            else:                   # AVG WHERE = masked SUM / masked n
                fspecs.append((f"__af_{name}", "sum", col, aconds))
                fspecs.append((f"__afn_{name}", "count", None, aconds))
                ray_aggs.append(Sum(f"__af_{name}",
                                    alias_name=f"__sum_{name}"))
                ray_aggs.append(Sum(f"__afn_{name}",
                                    alias_name=f"__n_{name}"))
                avg_of[name] = (f"__sum_{name}", f"__n_{name}")
            continue
        if func == "COUNT":
            ray_aggs.append(_count(name))
        elif func == "SUM":
            ray_aggs.append(Sum(col, alias_name=name))
        elif func == "MIN":
            ray_aggs.append(Min(col, alias_name=name))
        elif func == "MAX":
            ray_aggs.append(Max(col, alias_name=name))
        elif func in ("COUNT_DISTINCT", "PERCENTILE"):
            # served off the (by, col) value-histogram pass below
            hist_aggs.append((name, func, col))
        else:                                   # AVG = exact SUM + COUNT
            ray_aggs.append(Sum(col, alias_name=f"__sum_{name}"))
            ray_aggs.append(_count(f"__n_{name}"))
            avg_of[name] = (f"__sum_{name}", f"__n_{name}")
    if fspecs:
        def add_agg_filters(b: pa.Table, _s=tuple(fspecs)) -> pa.Table:
            for outcol, kind, col, conds in _s:
                mask = None
                for c in conds:
                    m = _cond_mask(b, c)
                    mask = m if mask is None else pc.and_(mask, m)
                if kind == "count":
                    b = b.append_column(outcol,
                                        pc.cast(mask, pa.int64()))
                elif kind == "sum":
                    b = b.append_column(outcol, pc.multiply(
                        pc.cast(b[col], pa.int64()),
                        pc.cast(mask, pa.int64())))
                else:               # mask: null out non-matching rows
                    b = b.append_column(outcol, pc.if_else(
                        mask, b[col],
                        pa.scalar(None, b.schema.field(col).type)))
            return b

        ds = ds.map_batches(add_agg_filters, batch_format="pyarrow")
    drop_nrows = False
    if not ray_aggs:                # stats were ALL histogram-served —
        ray_aggs.append(_count("__nrows"))   # still need the group table
        drop_nrows = True
    grouped = (ds.groupby(plan["by"]) if plan["by"] else ds.groupby(None))
    try:
        out = grouped.aggregate(*ray_aggs).to_pandas()
    except Exception as e:                      # unwrap worker refusals
        cause = e
        seen = set()
        while cause is not None and id(cause) not in seen:
            seen.add(id(cause))
            if isinstance(cause, UnsupportedEsql):
                raise UnsupportedEsql(str(cause)) from None
            # RayTaskError carries the remote traceback as TEXT only —
            # the UnsupportedEsql instance never crosses the task
            # boundary, so match it in the rendered message
            text = str(cause)
            if "UnsupportedEsql" in text:
                for line in reversed(text.splitlines()):
                    if "UnsupportedEsql:" in line:
                        raise UnsupportedEsql(
                            line.split("UnsupportedEsql:", 1)[1].strip()
                        ) from None
                raise UnsupportedEsql(text.splitlines()[-1]) from None
            cause = cause.__cause__ or cause.__context__
        raise
    if plan["by"] and out.empty and not set(plan["by"]) <= set(out.columns):
        # zero groups: Ray's empty aggregate drops the schema entirely —
        # rebuild the typed empty frame SQL would return
        def _empty_dtype(ty):
            if ty is None:
                return object
            if pa.types.is_integer(ty):
                return np.int64
            if pa.types.is_floating(ty):
                return np.float64
            return object

        data = {b: pd.Series([], dtype=_empty_dtype(_out_type(b)))
                for b in plan["by"]}
        for name, func, col in plan["stats"]:
            if func == "AVG":
                data[f"__sum_{name}"] = pd.Series([], dtype=np.int64)
                data[f"__n_{name}"] = pd.Series([], dtype=np.int64)
            elif func in ("MIN", "MAX"):
                data[name] = pd.Series(
                    [], dtype=_empty_dtype(_out_type(col)))
            else:   # COUNT / SUM / COUNT_DISTINCT / PERCENTILE
                data[name] = pd.Series([], dtype=np.int64)
        if drop_nrows:
            data["__nrows"] = pd.Series([], dtype=np.int64)
        out = pd.DataFrame(data)
        hist_aggs = []          # columns already present (and typed)
    for name, func, _col in plan["stats"]:
        if func == "COUNT" and name in out.columns:
            out[name] = out[name].fillna(0)     # count(*) of no rows is 0
        elif (func in ("MIN", "MAX") and agg_filters.get(name)
                and name in out.columns):
            # the masked column is nullable, so Ray hands back object
            # dtype; a group with zero filtered rows is SQL NULL — refuse
            if out[name].isna().any():
                raise UnsupportedEsql(
                    f"{func} WHERE over a group with zero filtered rows "
                    f"— SQL returns NULL; refusing rather than silently "
                    f"differing")
            out[name] = out[name].astype(np.int64)
    for name, (s, n) in avg_of.items():
        nv = out[n].to_numpy(np.float64)
        if (nv == 0).any():
            # only reachable with a per-agg filter: a group where no
            # row passed — SQL returns NULL, 0/0 would emit NaN
            raise UnsupportedEsql(
                f"AVG WHERE over a group with zero filtered rows — "
                f"SQL returns NULL; refusing rather than emitting NaN "
                f"({name})")
        out[name] = out[s].to_numpy(np.float64) / nv
        out = out.drop(columns=[s, n])
    if hist_aggs:
        # COUNT_DISTINCT / MEDIAN / PERCENTILE ride a (by, col) groupby:
        # the reduce output is bounded by groups × distinct VALUES, not
        # row count (documented assumption: bounded value domain — the
        # same one value_percentiles makes; exact where ES t-digests).
        # One pass per distinct target column, shared by its aggs.
        hists: dict[tuple, "object"] = {}
        def _hkey(name, col):
            return (col, repr(agg_filters.get(name)))
        for name, _f, col in hist_aggs:
            hk = _hkey(name, col)
            if hk in hists:
                continue
            keys = plan["by"] + ([col] if col not in plan["by"] else [])
            hds = ds
            aconds = agg_filters.get(name)
            if aconds:          # per-agg FILTER: restrict the hist pass
                hds = ds.map_batches(
                    lambda b, _c=tuple(aconds): _filter_batch(b, _c),
                    batch_format="pyarrow")
            h = (hds.groupby(keys)
                    .aggregate(_hist_count())
                    .to_pandas())
            if h.empty and not set(keys) <= set(h.columns):
                h = pd.DataFrame({c: pd.Series([], dtype=object)
                                  for c in keys + ["__vn"]})
            hists[hk] = h
        for name, func, col in hist_aggs:
            h = hists[_hkey(name, col)]
            if plan["by"]:
                if func == "COUNT_DISTINCT":
                    if h.empty:
                        r = pd.DataFrame(
                            {c: pd.Series([], dtype=object)
                             for c in plan["by"] + [name]})
                    else:
                        r = (h.groupby(plan["by"], as_index=False)
                              .agg(**{name: (col, "size")}))
                else:
                    p = plan["pctl"][name]
                    rows = []
                    for key, g in h.groupby(plan["by"]):
                        key = key if isinstance(key, tuple) else (key,)
                        rows.append(
                            (*key, _pctl_from_hist(g, col, p)))
                    r = pd.DataFrame(rows,
                                     columns=plan["by"] + [name])
                out = out.merge(r, on=plan["by"], how="left")
                if func == "COUNT_DISTINCT":
                    # a group where no row passed the agg filter: SQL
                    # count(DISTINCT) FILTER = 0
                    out[name] = out[name].fillna(0).astype(np.int64)
                elif out[name].isna().any():
                    raise UnsupportedEsql(
                        "MEDIAN/PERCENTILE over a group with zero "
                        "filtered rows — SQL returns NULL; refusing "
                        "rather than silently differing")
            else:
                if func == "COUNT_DISTINCT":
                    out[name] = np.int64(len(h))
                elif h.empty:
                    raise UnsupportedEsql(
                        "MEDIAN/PERCENTILE over zero rows — SQL returns "
                        "NULL; refusing rather than silently differing")
                else:
                    out[name] = _pctl_from_hist(
                        h, col, plan["pctl"][name])
    if drop_nrows:
        out = out.drop(columns=["__nrows"])
    for op, a, b in plan.get("reshape", []):    # sequential, textual order
        if op == "rename":
            out = out.rename(columns={a: b})
        else:
            out = out.drop(columns=[a])
    if plan["sort"]:
        out = out.sort_values([k for k, _ in plan["sort"]],
                              ascending=[d == "ASC"
                                         for _, d in plan["sort"]])
    if plan["limit"] is not None:
        out = out.head(plan["limit"])
    if plan["keep"]:
        out = out[plan["keep"]]
    order = plan["keep"] if plan["keep"] else names_now
    out = out[order].reset_index(drop=True)
    arrays = {}
    for c in out.columns:
        if out[c].dtype == object:
            arrays[c] = pa.array(out[c], pa.string())
        elif np.issubdtype(out[c].dtype, np.floating):
            arrays[c] = pa.array(out[c], pa.float64())
        else:
            arrays[c] = pa.array(out[c], pa.int64())
    return pa.table(arrays)
