"""ES|QL front end: parse/refusal cases + executed plans vs DuckDB."""

import duckdb
import pytest

from snowplow_elasticsearch_loader_ray.pipelines import esql

SF = "/root/testdata/sf0.001"


def test_parse_shapes():
    p = esql.parse('FROM documents | WHERE lang == "en" AND n_chars >= 100'
                   ' | STATS n = COUNT(*), s = SUM(n_chars) BY source'
                   ' | SORT source ASC | LIMIT 5 | KEEP source, n')
    assert p["from"] == "documents"
    assert p["where"] == [("lang", "==", "en"), ("n_chars", ">=", 100)]
    assert p["stats"] == [("n", "COUNT", "*"), ("s", "SUM", "n_chars")]
    assert p["by"] == ["source"] and p["sort"] == [("source", "ASC")]
    assert p["limit"] == 5 and p["keep"] == ["source", "n"]


@pytest.mark.parametrize("bad", [
    "WHERE x == 1",                              # no FROM
    "FROM documents",                            # no STATS (raw rows)
    "FROM documents | SORT lang | STATS n = COUNT(*)",   # SORT pre-STATS
    "FROM documents | STATS n = COUNT(lang)",    # COUNT(col)
    "FROM documents | STATS n = MODE(n_chars)",    # unknown func
    "FROM documents | STATS n = SUM(*)",         # SUM(*)
    "FROM documents | GROK text p | STATS n = COUNT(*)",  # unknown stage
    'FROM documents | WHERE lang ~= "en" | STATS n = COUNT(*)',
])
def test_parse_refusals(bad):
    with pytest.raises(esql.UnsupportedEsql):
        esql.parse(bad)


def test_execute_refusals(ray_session):
    # float SUM refuses (order-dependent), unknown field/table refuse
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM events | STATS s = SUM(value)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM documents | STATS n = SUM(nope)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM nothere | STATS n = COUNT(*)")
    # KEEP of a column the STATS output does not carry refuses (was a
    # raw pandas KeyError)
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM documents | STATS n = COUNT(*) BY source"
                         " | KEEP nope")
    # WHERE literal/column type mismatch refuses (was an Arrow error)
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | WHERE n_chars == "big" | '
                         "STATS n = COUNT(*)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM documents | WHERE lang == 3 | "
                         "STATS n = COUNT(*)")
    # EVAL / SUM over a non-integer ENRICH-derived column refuses
    # (string n_name would otherwise hit a numpy cast mid-pipeline)
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM customer | ENRICH nation ON c_nationkey "
                         "WITH n_name | EVAL x = n_name + 1 | "
                         "STATS n = COUNT(*)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM customer | ENRICH nation ON c_nationkey "
                         "WITH n_name | STATS s = SUM(n_name)")


def test_execute_matches_duckdb(ray_session):
    q = ('FROM documents | WHERE lang == "en" AND n_chars >= 100 | '
         'STATS n = COUNT(*), sum_chars = SUM(n_chars), '
         'avg_chars = AVG(n_chars), max_id = MAX(doc_id) BY source | '
         'SORT source')
    got = esql.execute(SF, q).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute("""
        SELECT source, count(*)::BIGINT AS n,
               sum(n_chars)::BIGINT AS sum_chars,
               sum(n_chars)::DOUBLE / count(*)::DOUBLE AS avg_chars,
               max(doc_id)::BIGINT AS max_id
        FROM documents WHERE lang = 'en' AND n_chars >= 100
        GROUP BY 1 ORDER BY 1
    """).df()
    assert got.equals(want[got.columns])


def test_execute_global_stats_no_by(ray_session):
    got = esql.execute(
        SF, "FROM events | STATS n = COUNT(*), u = MAX(user_id)"
    ).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = con.execute("SELECT count(*)::BIGINT AS n, "
                       "max(user_id)::BIGINT AS u FROM events").df()
    assert got.equals(want)


def test_eval_stage(ray_session):
    q = ('FROM documents | EVAL kb = n_chars // 100 | '
         'WHERE kb >= 1 | STATS n = COUNT(*), s = SUM(kb) BY lang | '
         'SORT lang')
    got = esql.execute(SF, q).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute("""
        WITH e AS (SELECT lang, n_chars // 100 AS kb FROM documents)
        SELECT lang, count(*)::BIGINT AS n, sum(kb)::BIGINT AS s
        FROM e WHERE kb >= 1 GROUP BY 1 ORDER BY 1
    """).df()
    assert got.equals(want[got.columns])
    # eval refusals: float column, malformed expr, EVAL after STATS
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM events | EVAL x = value * 2 | "
                         "STATS n = COUNT(*)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.parse("FROM documents | EVAL x = n_chars + | "
                   "STATS n = COUNT(*)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.parse("FROM documents | STATS n = COUNT(*) | "
                   "EVAL x = n + 1")


def test_enrich_lookup_join(ray_session):
    q = ('FROM customer | ENRICH nation ON c_nationkey WITH n_name | '
         'STATS n = COUNT(*) BY n_name | SORT n_name')
    got = esql.execute(SF, q).to_pandas()
    con = duckdb.connect()
    for t in ("customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    want = con.execute("""
        SELECT n.n_name, count(*)::BIGINT AS n
        FROM customer c JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY 1 ORDER BY 1
    """).df()[["n_name", "n"]]
    assert got.equals(want)
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM customer | ENRICH nothere ON c_nationkey "
                         "WITH x | STATS n = COUNT(*)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM customer | ENRICH nation ON c_nationkey "
                         "WITH nope | STATS n = COUNT(*)")


def test_dissect_rename_drop(ray_session):
    """DISSECT extracts string captures usable in BY/WHERE; RENAME and
    DROP reshape the STATS bucket table; every bad shape refuses."""
    q = (r'FROM events | DISSECT props "{\"k\": %{kv}}" | '
         'STATS n = COUNT(*) BY kv | SORT kv | LIMIT 5')
    got = esql.execute(SF, q).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = con.execute(r"""
        SELECT regexp_extract(props, '^\{"k": (.*?)\}$', 1) AS kv,
               count(*)::BIGINT AS n
        FROM events GROUP BY 1 ORDER BY 1 LIMIT 5
    """).df()
    assert got.equals(want)

    # WHERE over a dissect capture (string compare)
    q2 = (r'FROM events | DISSECT props "{\"k\": %{kv}}" | '
          'WHERE kv == "42" | STATS n = COUNT(*)')
    n42 = esql.execute(SF, q2).to_pandas()["n"][0]
    want42 = con.execute("""
        SELECT count(*) FROM events WHERE props = '{"k": 42}'
    """).fetchone()[0]
    assert n42 == want42 > 0

    q3 = ('FROM documents | STATS n = COUNT(*), s = SUM(n_chars) BY lang'
          ' | RENAME lang AS language | DROP s | SORT language')
    got3 = esql.execute(SF, q3).to_pandas()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want3 = con.execute("""
        SELECT lang AS language, count(*)::BIGINT AS n
        FROM documents GROUP BY 1 ORDER BY 1
    """).df()
    assert got3.equals(want3)

    for bad in [
        r'FROM events | DISSECT ts "x%{a}"',                 # non-string
        r'FROM events | DISSECT props "nope"',               # no capture
        r'FROM events | DISSECT props "{\"k\": %{value}}"',  # shadows
        r'FROM events | DISSECT props "%{a}%{a}"',           # dup name
        r'FROM events | DISSECT props "50%% off %{a}"',      # stray %
        'FROM documents | RENAME lang AS l | STATS n = COUNT(*)',
        'FROM documents | STATS n = COUNT(*) BY lang | DROP nope',
        'FROM documents | STATS n = COUNT(*) BY lang | DROP n, lang',
        'FROM documents | STATS n = COUNT(*) BY lang | RENAME lang AS n',
        'FROM documents | STATS n = COUNT(*) BY lang | SORT nope',
        # runtime refusal: a row that does not match the pattern
        r'FROM events | DISSECT props "{\"k\": %{kv}x}" | '
        'STATS n = COUNT(*) BY kv',
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad + (' | STATS n = COUNT(*)'
                                    if 'STATS' not in bad else ''))


def test_reshape_chain_order(ray_session):
    """RENAME/DROP resolve sequentially in textual order: chained
    renames work, DROP frees a name for a later RENAME, and cross-stage
    DISSECT capture collisions refuse at plan time."""
    q = ('FROM documents | STATS n = COUNT(*) BY lang | '
         'RENAME lang AS l | RENAME l AS m | SORT m | LIMIT 2')
    got = esql.execute(SF, q).to_pandas()
    assert list(got.columns) == ["m", "n"] and len(got) == 2

    q2 = ('FROM documents | STATS n = COUNT(*), s = SUM(n_chars) BY lang'
          ' | DROP s | RENAME n AS s | SORT lang')
    got2 = esql.execute(SF, q2).to_pandas()
    assert list(got2.columns) == ["lang", "s"]

    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, r'FROM events | DISSECT props "{\"k\": %{x}}" | '
                         r'DISSECT event_type "%{x}" | '
                         'STATS n = COUNT(*) BY x')


# ---------------------------------------------------------------- round 5:
# GROK / SPLIT+MV_EXPAND / BUCKET


def test_grok_parse_and_refusals():
    p = esql.parse(r'FROM events | GROK props "{\"k\": %{INT:k:int}}"'
                   ' | STATS n = COUNT(*) BY k')
    (col, literals, caps), = p["grok"]
    assert col == "props" and caps == [("INT", "k", True)]
    assert literals == ['{"k": ', "}"]
    for bad in [
        'FROM events | GROK props "no captures" | STATS n = COUNT(*)',
        'FROM events | GROK props "%{WORD:w:int}" | STATS n = COUNT(*)',
        'FROM events | GROK props "%{WORD:a} %{WORD:a}" | '
        'STATS n = COUNT(*)',
        'FROM events | GROK props "%{NOPE:x}" | STATS n = COUNT(*)',
        'FROM events | STATS n = COUNT(*) | GROK props "%{WORD:w}"',
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.parse(bad)


def test_grok_execute_refusals(ray_session):
    # capture shadowing an existing column
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM events | GROK props "%{DATA:value}!" | '
                         "STATS n = COUNT(*)")
    # grok over a non-string column
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM events | GROK value "%{WORD:w}" | '
                         "STATS n = COUNT(*)")
    # runtime miss: the pattern matches no row
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM events | GROK props "nope%{WORD:w}" | '
                         "STATS n = COUNT(*)")


def test_mv_expand_matches_duckdb(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    got = esql.execute(
        SF, 'FROM documents | EVAL tok = SPLIT(text, " ") | '
            "MV_EXPAND tok | STATS n = COUNT(*) BY tok | "
            "SORT n DESC, tok ASC | LIMIT 7").to_pandas()
    want = con.sql(
        "SELECT tok, count(*)::BIGINT AS n FROM (SELECT "
        "unnest(string_split(text, ' ')) AS tok FROM documents) "
        "GROUP BY 1 ORDER BY n DESC, tok LIMIT 7").df()
    assert got[["tok", "n"]].equals(want[["tok", "n"]])


def test_mv_expand_refusals(ray_session):
    # unexpanded multivalued column referenced in BY / WHERE / aggs
    for q in [
        'FROM documents | EVAL t = SPLIT(text, " ") | '
        "STATS n = COUNT(*) BY t",
        'FROM documents | EVAL t = SPLIT(text, " ") | WHERE t == "a" | '
        "STATS n = COUNT(*)",
        'FROM documents | EVAL t = SPLIT(text, " ") | STATS m = MIN(t)',
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, q)
    # MV_EXPAND of something that is not a SPLIT output
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM documents | MV_EXPAND lang | "
                         "STATS n = COUNT(*)")
    # SPLIT over a non-string column
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | EVAL t = SPLIT(n_chars, " ") '
                         "| MV_EXPAND t | STATS n = COUNT(*) BY t")


def test_bucket_matches_duckdb(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    got = esql.execute(
        SF, "FROM events | STATS n = COUNT(*) BY "
            "w = BUCKET(ts, 1 week) | SORT w").to_pandas()
    want = con.sql(
        "SELECT strftime(date_trunc('week', ts), '%Y-%m-%d') AS w, "
        "count(*)::BIGINT AS n FROM events GROUP BY 1 ORDER BY 1").df()
    assert got[["w", "n"]].equals(want[["w", "n"]])


def test_bucket_refusals():
    for bad in [
        "FROM events | STATS n = COUNT(*) BY b = BUCKET(ts, 7 day)",
        "FROM events | STATS n = COUNT(*) BY b = BUCKET(ts, 1 month)",
        "FROM events | STATS n = COUNT(*) BY b = BUCKET(ts)",
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.parse(bad)


def _docs_con():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    return con


def test_in_like_rlike_match_duckdb(ray_session):
    con = _docs_con()
    cases = [
        ('FROM documents | WHERE lang IN ("en", "de") | '
         "STATS n = COUNT(*) BY lang | SORT lang",
         "SELECT lang, count(*)::BIGINT AS n FROM documents "
         "WHERE lang IN ('en','de') GROUP BY 1 ORDER BY 1"),
        ('FROM documents | WHERE source NOT LIKE "src?" | '
         "STATS n = COUNT(*)",
         "SELECT count(*)::BIGINT AS n FROM documents "
         "WHERE source NOT LIKE 'src_'"),
        ('FROM documents | WHERE lang RLIKE "e[nt]" | '
         "STATS n = COUNT(*) BY lang | SORT lang",
         "SELECT lang, count(*)::BIGINT AS n FROM documents "
         "WHERE regexp_full_match(lang, 'e[nt]') GROUP BY 1 ORDER BY 1"),
        ('FROM documents | WHERE source LIKE "src*" AND doc_id NOT IN '
         "(1, 2, 3) | STATS n = COUNT(*)",
         "SELECT count(*)::BIGINT AS n FROM documents WHERE source "
         "LIKE 'src%' AND doc_id NOT IN (1, 2, 3)"),
    ]
    for q, sql in cases:
        got = esql.execute(SF, q).to_pandas()
        want = con.sql(sql).df()
        assert got.equals(want.astype(got.dtypes.to_dict())), q


def test_distinct_median_percentile_match_duckdb(ray_session):
    con = _docs_con()
    got = esql.execute(
        SF, "FROM documents | STATS d = COUNT_DISTINCT(lang), "
            "m = MEDIAN(n_chars), p90 = PERCENTILE(n_chars, 90), "
            "p0 = PERCENTILE(n_chars, 0), p100 = PERCENTILE(n_chars, 100) "
            "BY source | SORT source").to_pandas()
    want = con.sql(
        "SELECT source, count(DISTINCT lang)::BIGINT AS d, "
        "quantile_disc(n_chars, 0.5)::BIGINT AS m, "
        "quantile_disc(n_chars, 0.9)::BIGINT AS p90, "
        "min(n_chars)::BIGINT AS p0, max(n_chars)::BIGINT AS p100 "
        "FROM documents GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # no-BY (global) row, COUNT_DISTINCT over a string column
    got = esql.execute(
        SF, "FROM documents | STATS d = COUNT_DISTINCT(source), "
            "m = MEDIAN(doc_id)").to_pandas()
    want = con.sql(
        "SELECT count(DISTINCT source)::BIGINT AS d, "
        "quantile_disc(doc_id, 0.5)::BIGINT AS m FROM documents").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_zero_match_by_returns_typed_empty(ray_session):
    got = esql.execute(
        SF, 'FROM documents | WHERE lang == "zz" | '
            "STATS n = COUNT(*), d = COUNT_DISTINCT(lang) BY source")
    assert got.num_rows == 0
    assert got.schema.names == ["source", "n", "d"]


def test_new_predicate_and_agg_refusals():
    for bad in [
        'FROM documents | WHERE lang LIKE "e%" | STATS n = COUNT(*)',
        'FROM documents | WHERE n_chars LIKE "4*" | STATS n = COUNT(*)',
        'FROM documents | WHERE lang IN () | STATS n = COUNT(*)',
        'FROM documents | WHERE lang IN ("en", 3) | STATS n = COUNT(*)',
        "FROM documents | STATS m = MEDIAN(lang)",
        "FROM documents | STATS p = PERCENTILE(n_chars, 101)",
        "FROM documents | STATS d = COUNT_DISTINCT(*)",
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_percentile_zero_rows_refuses(ray_session):
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | WHERE lang == "zz" | '
                         "STATS p = PERCENTILE(n_chars, 50)")


def test_lookup_join_expands_rows(ray_session):
    con = duckdb.connect()
    for t in ("region", "nation", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    got = esql.execute(
        SF, "FROM region | EVAL n_regionkey = r_regionkey | "
            "LOOKUP JOIN nation ON n_regionkey | "
            "STATS n = COUNT(*), d = COUNT_DISTINCT(n_name) BY r_name | "
            "SORT r_name").to_pandas()
    want = con.sql(
        "SELECT r.r_name, count(*)::BIGINT AS n, "
        "count(DISTINCT nn.n_name)::BIGINT AS d "
        "FROM region r JOIN nation nn ON nn.n_regionkey = r.r_regionkey "
        "GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    assert (got["n"] == 5).all()          # rows expanded 5× per region
    # unique-key join through a WHERE over the joined column
    got = esql.execute(
        SF, "FROM customer | EVAL n_nationkey = c_nationkey | "
            "LOOKUP JOIN nation ON n_nationkey | "
            'WHERE n_name LIKE "A*" | '
            "STATS n = COUNT(*) BY n_name | SORT n_name").to_pandas()
    want = con.sql(
        "SELECT nn.n_name, count(*)::BIGINT AS n FROM customer c "
        "JOIN nation nn ON nn.n_nationkey = c.c_nationkey "
        "WHERE nn.n_name LIKE 'A%' GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_lookup_join_refusals(ray_session):
    for bad in [
        "FROM customer | LOOKUP JOIN nation ON nope | "
        "STATS n = COUNT(*)",
        "FROM nation | LOOKUP JOIN customer ON c_custkey | "
        "STATS n = COUNT(*)",                 # key absent on the left
        "FROM documents | LOOKUP JOIN documents ON doc_id | "
        "STATS n = COUNT(*)",                 # shadows every column
        "FROM customer | EVAL n_nationkey = c_nationkey | "
        "LOOKUP JOIN nation ON n_nationkey | EVAL y = n_regionkey + 1 "
        "| STATS s = SUM(y)",                 # EVAL over joined column
        "FROM customer | STATS n = COUNT(*) | "
        "LOOKUP JOIN nation ON n_nationkey",  # after STATS
        "FROM customer | LOOKUP nation ON x | STATS n = COUNT(*)",
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_case_greatest_least_abs_match_duckdb(ray_session):
    con = _docs_con()
    cases = [
        ("FROM documents | EVAL b = CASE(n_chars < 500, 0, "
         "n_chars < 1500, 1, 2) | STATS n = COUNT(*) BY b | SORT b",
         "SELECT CASE WHEN n_chars < 500 THEN 0 WHEN n_chars < 1500 "
         "THEN 1 ELSE 2 END AS b, count(*)::BIGINT AS n FROM documents "
         "GROUP BY 1 ORDER BY 1"),
        ('FROM documents | EVAL is_en = CASE(lang == "en", 1, 0) | '
         "STATS s = SUM(is_en), n = COUNT(*)",
         "SELECT sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT "
         "AS s, count(*)::BIGINT AS n FROM documents"),
        ("FROM documents | EVAL g = GREATEST(n_chars, 700) | "
         "EVAL l = LEAST(g, 1200) | EVAL d = l - 1000 | EVAL a = ABS(d) | "
         "STATS s = SUM(a) BY lang | SORT lang",
         "SELECT lang, sum(abs(LEAST(GREATEST(n_chars, 700), 1200) "
         "- 1000))::BIGINT AS s FROM documents GROUP BY 1 ORDER BY 1"),
    ]
    for q, sql in cases:
        got = esql.execute(SF, q).to_pandas()
        want = con.sql(sql).df()
        assert got.equals(want.astype(got.dtypes.to_dict())), q


def test_case_fn_refusals():
    for bad in [
        'FROM documents | EVAL x = CASE(lang == "en", 1) | '
        "STATS n = COUNT(*)",                  # no default
        'FROM documents | EVAL x = CASE(lang == "en", lang, 0) | '
        "STATS n = COUNT(*)",                  # string CASE value
        "FROM documents | EVAL x = ABS(n_chars, 3) | STATS n = COUNT(*)",
        "FROM documents | EVAL x = GREATEST(n_chars) | "
        "STATS n = COUNT(*)",
        "FROM events | EVAL x = CASE(b == \"d\", 1, 0) | "
        "STATS n = COUNT(*) BY b = BUCKET(ts, 1 day)",  # cond on BUCKET
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_string_fns_match_duckdb(ray_session):
    con = _docs_con()
    cases = [
        ("FROM documents | EVAL lg = LENGTH(text) | "
         "STATS s = SUM(lg), m = MAX(lg) BY lang | SORT lang",
         "SELECT lang, sum(length(text))::BIGINT AS s, "
         "max(length(text))::BIGINT AS m FROM documents "
         "GROUP BY 1 ORDER BY 1"),
        ("FROM documents | EVAL pre = SUBSTRING(text, 1, 3) | "
         "STATS n = COUNT(*) BY pre | SORT pre | LIMIT 5",
         "SELECT substring(text, 1, 3) AS pre, count(*)::BIGINT AS n "
         "FROM documents GROUP BY 1 ORDER BY 1 LIMIT 5"),
        ('FROM documents | EVAL up = TO_UPPER(lang) | '
         'EVAL k = CONCAT(up, "-", source) | '
         "STATS n = COUNT(*) BY k | SORT k | LIMIT 6",
         "SELECT upper(lang) || '-' || source AS k, "
         "count(*)::BIGINT AS n FROM documents GROUP BY 1 ORDER BY 1 "
         "LIMIT 6"),
        ('FROM documents | EVAL lo = TO_LOWER(source) | '
         'WHERE lo LIKE "src*" | STATS n = COUNT(*)',
         "SELECT count(*)::BIGINT AS n FROM documents "
         "WHERE lower(source) LIKE 'src%'"),
    ]
    for q, sql in cases:
        got = esql.execute(SF, q).to_pandas()
        want = con.sql(sql).df()
        assert got.equals(want.astype(got.dtypes.to_dict())), q


def test_string_fn_refusals(ray_session):
    for bad in [
        "FROM documents | EVAL x = LENGTH(n_chars) | STATS n = COUNT(*)",
        "FROM documents | EVAL x = SUBSTRING(text, 0, 3) | "
        "STATS n = COUNT(*) BY x",            # 0-based start
        "FROM documents | EVAL x = CONCAT(lang) | STATS n = COUNT(*) "
        "BY x",                               # one argument
        "FROM documents | EVAL lo = TO_LOWER(lang) | EVAL y = lo + 1 | "
        "STATS s = SUM(y)",                   # string output in arith
        "FROM documents | EVAL s = TO_LOWER(lang) | "
        "STATS m = MEDIAN(s)",                # string output in MEDIAN
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_inlinestats_matches_window_sql(ray_session):
    con = _docs_con()
    got = esql.execute(
        SF, 'FROM documents | WHERE lang IN ("en", "de") | '
            "INLINESTATS mx = MAX(n_chars) BY source | "
            "EVAL gap = mx - n_chars | "
            "STATS total_gap = SUM(gap), n = COUNT(*) BY source | "
            "SORT source").to_pandas()
    want = con.sql(
        "WITH w AS (SELECT source, n_chars, "
        "max(n_chars) OVER (PARTITION BY source) AS mx "
        "FROM documents WHERE lang IN ('en','de')) "
        "SELECT source, sum(mx - n_chars)::BIGINT AS total_gap, "
        "count(*)::BIGINT AS n FROM w GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # rows-at-group-max via EVAL + WHERE after the inline stage
    got = esql.execute(
        SF, "FROM documents | INLINESTATS mx = MAX(n_chars) BY lang | "
            "EVAL d = mx - n_chars | WHERE d == 0 | "
            "STATS n_at_max = COUNT(*) BY lang | SORT lang").to_pandas()
    want = con.sql(
        "WITH w AS (SELECT lang, n_chars, "
        "max(n_chars) OVER (PARTITION BY lang) AS mx FROM documents) "
        "SELECT lang, count(*)::BIGINT AS n_at_max FROM w "
        "WHERE n_chars = mx GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # global inline (no BY) with COUNT
    got = esql.execute(
        SF, "FROM documents | INLINESTATS g = MAX(n_chars), "
            "cnt = COUNT(*) | EVAL top = g - n_chars | "
            "STATS s = SUM(top), c = MAX(cnt)").to_pandas()
    want = con.sql(
        "WITH w AS (SELECT n_chars, max(n_chars) OVER () AS g, "
        "count(*) OVER () AS cnt FROM documents) "
        "SELECT sum(g - n_chars)::BIGINT AS s, max(cnt)::BIGINT AS c "
        "FROM w").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_inlinestats_refusals(ray_session):
    for bad in [
        "FROM documents | INLINESTATS a = AVG(n_chars) BY lang | "
        "STATS n = COUNT(*)",                 # float AVG
        "FROM documents | EVAL k = n_chars + 1 | "
        "INLINESTATS m = MAX(k) BY lang | STATS n = COUNT(*)",
        "FROM documents | INLINESTATS m = MAX(n_chars) BY lang, source "
        "| STATS n = COUNT(*)",               # multi-col BY
        "FROM documents | INLINESTATS m = MAX(text) BY lang | "
        "STATS n = COUNT(*)",                 # string agg col
        "FROM documents | INLINESTATS m = MAX(n_chars) BY lang | "
        "INLINESTATS x = MIN(n_chars) | STATS n = COUNT(*)",  # two
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_topn_raw_rows_match_duckdb(ray_session):
    con = _docs_con()
    cases = [
        ("FROM documents | SORT n_chars DESC, doc_id | LIMIT 10 | "
         "KEEP doc_id, n_chars, lang",
         "SELECT doc_id, n_chars, lang FROM documents "
         "ORDER BY n_chars DESC, doc_id LIMIT 10"),
        ('FROM documents | WHERE lang == "en" | EVAL kb = n_chars // 100'
         " | SORT kb DESC, doc_id ASC | LIMIT 7 | KEEP doc_id, kb",
         "SELECT doc_id, n_chars // 100 AS kb FROM documents "
         "WHERE lang = 'en' ORDER BY kb DESC, doc_id LIMIT 7"),
        ("FROM documents | SORT source ASC, doc_id DESC | LIMIT 5 | "
         "KEEP source, doc_id",
         "SELECT source, doc_id FROM documents "
         "ORDER BY source ASC, doc_id DESC LIMIT 5"),
    ]
    for q, sql in cases:
        got = esql.execute(SF, q).to_pandas()
        want = con.sql(sql).df()
        assert got.equals(want.astype(got.dtypes.to_dict())), q
    # zero-match returns an empty typed frame
    got = esql.execute(
        SF, 'FROM documents | WHERE lang == "zz" | SORT doc_id | '
            "LIMIT 5 | KEEP doc_id")
    assert got.num_rows == 0 and got.schema.names == ["doc_id"]


def test_topn_refusals(ray_session):
    for bad in [
        "FROM documents | SORT n_chars | LIMIT 5",     # no KEEP
        "FROM documents | SORT n_chars | KEEP doc_id",  # no LIMIT
        "FROM documents | LIMIT 5 | KEEP doc_id",      # no SORT
        "FROM documents | SORT n_chars | LIMIT 99999 | "
        "KEEP doc_id",                                 # > max window
        "FROM events | SORT ts | LIMIT 5 | KEEP event_id",  # timestamp
        "FROM documents | SORT n_chars | STATS n = COUNT(*)",
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_filtered_aggs_match_duckdb(ray_session):
    con = _docs_con()
    got = esql.execute(
        SF, 'FROM documents | STATS n = COUNT(*), '
            'n_en = COUNT(*) WHERE lang == "en", '
            's_en = SUM(n_chars) WHERE lang == "en", '
            'mx_en = MAX(n_chars) WHERE lang == "en" '
            "BY source | SORT source").to_pandas()
    want = con.sql(
        "SELECT source, count(*)::BIGINT AS n, "
        "count(*) FILTER (WHERE lang = 'en')::BIGINT AS n_en, "
        "coalesce(sum(n_chars) FILTER (WHERE lang = 'en'), 0)::BIGINT "
        "AS s_en, "
        "max(n_chars) FILTER (WHERE lang = 'en')::BIGINT AS mx_en "
        "FROM documents GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # filtered AVG = masked exact sum / masked count
    got = esql.execute(
        SF, "FROM documents | STATS a = AVG(n_chars) WHERE "
            "n_chars > 200, n = COUNT(*) BY lang | SORT lang").to_pandas()
    want = con.sql(
        "SELECT lang, sum(n_chars) FILTER (WHERE n_chars > 200)::DOUBLE"
        " / count(*) FILTER (WHERE n_chars > 200)::DOUBLE AS a, "
        "count(*)::BIGINT AS n FROM documents GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # filtered COUNT_DISTINCT (value-histogram pass restricted)
    got = esql.execute(
        SF, "FROM documents | STATS d = COUNT_DISTINCT(lang) WHERE "
            "n_chars > 300 BY source | SORT source").to_pandas()
    want = con.sql(
        "SELECT source, count(DISTINCT lang) FILTER "
        "(WHERE n_chars > 300)::BIGINT AS d FROM documents "
        "GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_filtered_minmax_empty_group_refuses(ray_session):
    # some group has no rows passing the filter -> SQL NULL -> refuse
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(
            SF, 'FROM documents | STATS mx = MAX(n_chars) WHERE '
                'lang == "nosuch" BY source')


def test_where_or_groups(ray_session):
    con = _docs_con()
    got = esql.execute(
        SF, 'FROM documents | WHERE lang == "en" OR lang == "de" OR '
            "n_chars > 500 | STATS n = COUNT(*) BY lang | SORT lang"
    ).to_pandas()
    want = con.sql(
        "SELECT lang, count(*)::BIGINT AS n FROM documents WHERE "
        "lang = 'en' OR lang = 'de' OR n_chars > 500 "
        "GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # AND-of-ORs: chained WHERE stages
    got = esql.execute(
        SF, 'FROM documents | WHERE lang == "en" OR lang == "de" | '
            'WHERE n_chars > 300 OR source LIKE "src1*" | '
            "STATS n = COUNT(*)").to_pandas()
    want = con.sql(
        "SELECT count(*)::BIGINT AS n FROM documents WHERE "
        "(lang = 'en' OR lang = 'de') AND "
        "(n_chars > 300 OR source LIKE 'src1%')").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | WHERE lang == "en" AND '
                         'n_chars > 5 OR lang == "de" | '
                         "STATS n = COUNT(*)")


def test_date_extract_matches_duckdb(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    got = esql.execute(
        SF, 'FROM events | EVAL h = DATE_EXTRACT("hour", ts) | '
            'EVAL dw = DATE_EXTRACT("isodow", ts) | WHERE dw <= 5 | '
            "STATS n = COUNT(*) BY h | SORT h").to_pandas()
    want = con.sql(
        "SELECT extract(hour FROM ts)::BIGINT AS h, "
        "count(*)::BIGINT AS n FROM events "
        "WHERE extract(isodow FROM ts) <= 5 "
        "GROUP BY 1 ORDER BY 1").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))
    for bad in [
        'FROM events | EVAL x = DATE_EXTRACT("week", ts) | '
        "STATS n = COUNT(*)",
        'FROM events | EVAL x = DATE_EXTRACT("hour", user_id) | '
        "STATS n = COUNT(*)",
    ]:
        with pytest.raises(esql.UnsupportedEsql):
            esql.execute(SF, bad)


def test_quote_aware_splitting(ray_session):
    """'|' and AND/OR inside string literals are data, not syntax —
    RLIKE alternation and literals containing connectives parse."""
    got = esql.execute(
        SF, 'FROM documents | WHERE lang RLIKE "en|de"'
            ' | STATS n = COUNT(*) BY lang | SORT lang')
    want = duckdb.sql(
        f"SELECT lang, count(*) AS n FROM '{SF}/documents.parquet' "
        f"WHERE regexp_full_match(lang, 'en|de') "
        f"GROUP BY lang ORDER BY lang").df()
    assert got.to_pandas().values.tolist() == want.values.tolist()
    # a literal containing ' AND ' is one condition, not two
    p = esql.parse('FROM documents | WHERE text == "black AND white"'
                   ' | STATS n = COUNT(*)')
    assert p["where"] == [("text", "==", "black AND white")]


def test_eval_precedence_and_trunc_division(ray_session):
    """a + b*2 binds the * first, and // % truncate toward zero
    (SQL semantics), so the DuckDB replay is exact."""
    got = esql.execute(
        SF, "FROM documents | EVAL v = n_chars + n_chars * 2"
            " | STATS s = SUM(v)")
    want = duckdb.sql(
        f"SELECT sum(n_chars + n_chars * 2) AS s "
        f"FROM '{SF}/documents.parquet'").df()
    assert got.to_pandas()["s"].tolist() == want["s"].tolist()
    got = esql.execute(
        SF, "FROM documents | EVAL d = n_chars - 999"
            " | EVAL q = d // 10 | EVAL r = d % 10"
            " | STATS qs = SUM(q), rs = SUM(r)")
    want = duckdb.sql(
        f"SELECT sum((n_chars - 999) // 10) AS qs, "
        f"sum((n_chars - 999) % 10) AS rs "
        f"FROM '{SF}/documents.parquet'").df()
    assert got.to_pandas().values.tolist() == want.values.tolist()


@pytest.mark.parametrize("bad", [
    # EVAL shadowing / self-reference
    "FROM documents | EVAL n_chars = n_chars + 1 | STATS s = SUM(n_chars)",
    "FROM documents | EVAL v = n_chars | EVAL v = v * 2 | STATS s = SUM(v)",
    # stage-order shapes the executor would silently reorder
    "FROM documents | STATS n = COUNT(*) BY lang | SORT n DESC | SORT lang",
    "FROM documents | STATS n = COUNT(*) BY lang | LIMIT 3 | SORT n",
    "FROM documents | KEEP lang | STATS n = COUNT(*) BY lang",
    # division by zero (numpy would yield 0 where SQL errors)
    "FROM documents | EVAL z = n_chars - n_chars"
    " | EVAL q = n_chars // z | STATS s = SUM(q)",
])
def test_silently_different_shapes_refuse(ray_session, bad):
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, bad)


def test_chained_limits_take_min(ray_session):
    p = esql.parse("FROM documents | STATS n = COUNT(*) BY lang"
                   " | SORT lang | LIMIT 10 | LIMIT 2")
    assert p["limit"] == 2
    p = esql.parse("FROM documents | STATS n = COUNT(*) BY lang"
                   " | SORT lang | LIMIT 2 | LIMIT 10")
    assert p["limit"] == 2


def test_string_predicates_and_fns_match_duckdb(ray_session):
    """STARTS_WITH/ENDS_WITH in WHERE and TRIM/REPLACE/LEFT/RIGHT in
    EVAL replay exactly in DuckDB."""
    got = esql.execute(
        SF, 'FROM documents | WHERE STARTS_WITH(source, "c")'
            ' | STATS n = COUNT(*) BY source | SORT source')
    want = duckdb.sql(
        f"SELECT source, count(*) AS n FROM '{SF}/documents.parquet' "
        f"WHERE starts_with(source, 'c') GROUP BY source "
        f"ORDER BY source").df()
    assert got.to_pandas().values.tolist() == want.values.tolist()
    got = esql.execute(
        SF, 'FROM documents | WHERE NOT ENDS_WITH(lang, "n")'
            ' | STATS n = COUNT(*) BY lang | SORT lang')
    want = duckdb.sql(
        f"SELECT lang, count(*) AS n FROM '{SF}/documents.parquet' "
        f"WHERE NOT ends_with(lang, 'n') GROUP BY lang "
        f"ORDER BY lang").df()
    assert got.to_pandas().values.tolist() == want.values.tolist()
    got = esql.execute(
        SF, 'FROM documents | EVAL s3 = LEFT(source, 3)'
            ' | EVAL r2 = RIGHT(lang, 2) | EVAL t = TRIM(lang)'
            ' | EVAL rp = REPLACE(source, "a", "_")'
            ' | STATS n = COUNT(*) BY s3, r2, t, rp | SORT s3, r2, t, rp')
    want = duckdb.sql(
        f"SELECT left(source,3) AS s3, right(lang,2) AS r2, "
        f"trim(lang) AS t, replace(source,'a','_') AS rp, count(*) AS n "
        f"FROM '{SF}/documents.parquet' GROUP BY 1,2,3,4 "
        f"ORDER BY 1,2,3,4").df()
    g = got.to_pandas()[["s3", "r2", "t", "rp", "n"]]
    assert g.values.tolist() == want.values.tolist()
    # type contract: pattern predicates refuse on integer columns
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | WHERE STARTS_WITH(n_chars, "1")'
                         ' | STATS n = COUNT(*)')


def test_right_zero_keeps_nulls_matches_duckdb(ray_session, tmp_path):
    """RIGHT(col, 0) is a typed string column that keeps input nulls,
    like DuckDB's ``right(NULL, 0)``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "lang": pa.array(["en", None, "de", None])}),
        tmp_path / "documents.parquet")
    got = esql.execute(
        str(tmp_path), "FROM documents | EVAL r0 = RIGHT(lang, 0)"
                       " | KEEP doc_id, r0 | SORT doc_id | LIMIT 10")
    want = duckdb.sql(
        f"SELECT doc_id, right(lang, 0) AS r0 FROM "
        f"'{tmp_path}/documents.parquet' ORDER BY doc_id").fetchall()
    assert got.schema.field("r0").type == pa.string()
    assert list(zip(got["doc_id"].to_pylist(),
                    got["r0"].to_pylist())) == want


def test_mv_count_matches_duckdb(ray_session):
    """MV_COUNT over an unexpanded SPLIT column: the value count comes
    from separator occurrences on the source string (no list
    materialization, no MV_EXPAND row blowup)."""
    got = esql.execute(
        SF, 'FROM documents | EVAL parts = SPLIT(text, " ")'
            ' | EVAL nw = MV_COUNT(parts)'
            ' | STATS s = SUM(nw), n = COUNT(*) BY lang | SORT lang')
    want = duckdb.sql(
        f"SELECT lang, sum(len(string_split(text, ' ')))::BIGINT AS s, "
        f"count(*) AS n FROM '{SF}/documents.parquet' "
        f"GROUP BY lang ORDER BY lang").df()
    g = got.to_pandas()[["lang", "s", "n"]]
    assert g.values.tolist() == want.values.tolist()
    # MV_COUNT of a non-SPLIT column or after MV_EXPAND refuses
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, "FROM documents | EVAL c = MV_COUNT(lang)"
                         " | STATS s = SUM(c)")
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, 'FROM documents | EVAL p = SPLIT(lang, "n")'
                         ' | MV_EXPAND p | EVAL c = MV_COUNT(p)'
                         ' | STATS s = SUM(c)')


def test_fork_branches_union_with_discriminator(ray_session):
    """FORK: branch pipelines over the shared prefix union with a
    _fork column; exact vs a UNION ALL replay."""
    got = esql.execute(
        SF, 'FROM documents | WHERE lang IN ("en", "de")'
            ' | FORK (STATS n = COUNT(*), s = SUM(n_chars) BY lang'
            '         | SORT lang)'
            '        (WHERE n_chars >= 1000'
            '         | STATS n = COUNT(*), s = SUM(n_chars) BY lang'
            '         | SORT lang)')
    want = duckdb.sql(f"""
        WITH base AS (SELECT * FROM '{SF}/documents.parquet'
                      WHERE lang IN ('en','de'))
        SELECT lang, count(*) AS n, sum(n_chars) AS s, 'fork1' AS _fork
        FROM base GROUP BY lang
        UNION ALL
        SELECT lang, count(*), sum(n_chars), 'fork2'
        FROM base WHERE n_chars >= 1000 GROUP BY lang
        ORDER BY _fork, lang""").df()
    g = got.to_pandas()[["lang", "n", "s", "_fork"]]
    assert g.values.tolist() == want.values.tolist()


@pytest.mark.parametrize("bad", [
    # stages after FORK
    'FROM documents | FORK (STATS n = COUNT(*)) (STATS n = COUNT(*))'
    ' | LIMIT 1',
    # one branch
    'FROM documents | FORK (STATS n = COUNT(*))',
    # schema mismatch across branches
    'FROM documents | FORK (STATS n = COUNT(*)) (STATS m = COUNT(*))',
    # nested FORK
    'FROM documents | FORK (FORK (STATS n = COUNT(*))'
    ' (STATS n = COUNT(*))) (STATS n = COUNT(*))',
    # loose tokens between branches
    'FROM documents | FORK (STATS n = COUNT(*)) x (STATS n = COUNT(*))',
])
def test_fork_refusals(ray_session, bad):
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute(SF, bad)


def test_to_string_matches_duckdb(ray_session):
    """TO_STRING casts an integer column to its decimal string (DuckDB
    ::VARCHAR parity), feeding BY and CONCAT; floats refuse (rendering
    is not pinned across engines)."""
    got = esql.execute(
        SF, 'FROM documents | EVAL b = n_chars // 100'
            ' | EVAL s = TO_STRING(b) | EVAL key = CONCAT(lang, ":", s)'
            ' | STATS n = COUNT(*) BY key | SORT key')
    want = duckdb.sql(
        f"SELECT lang || ':' || (n_chars // 100)::VARCHAR AS key, "
        f"count(*) AS n FROM '{SF}/documents.parquet' "
        f"GROUP BY 1 ORDER BY 1").df()
    assert got.to_pandas()[["key", "n"]].values.tolist() == \
        want.values.tolist()
    with pytest.raises(esql.UnsupportedEsql):
        esql.execute("/root/testdata/sf0.001",
                     "FROM events | EVAL s = TO_STRING(value)"
                     " | STATS n = COUNT(*) BY s | SORT s")
