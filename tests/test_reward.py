"""Tiered execution/knowledge reward on the schools fixture database.

The 20-case fixture covers five cases per tier: exact execution matches,
knowledge-consistent-but-wrong candidates, executable candidates that violate
the linked knowledge, and invalid SQL. Link results use a deliberately small
k-config (k1=2, k2=2, k3=2) so that the containment check actually binds on
this small schema.
"""

import sqlite3

import pytest

from sqlknow.linker import link
from sqlknow.reward import (
    ExecErrorKind,
    Tier,
    execute_sql,
    normalize_expression,
    results_match,
    score,
    score_many,
)

K = dict(k1=2, k2=2, k3=2)


@pytest.fixture(scope="module")
def conn(schools_db_path):
    connection = sqlite3.connect(str(schools_db_path))
    yield connection
    connection.close()


# (question, gold, candidate, expected tier)
CASES = [
    # -- ExecMatch (1.0)
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "SELECT COUNT(*) FROM schools",
     Tier.EXEC_MATCH),
    ("How many schools are in Fresno county?",
     "SELECT COUNT(*) FROM schools WHERE County = 'Fresno'",
     "SELECT COUNT(*) FROM schools WHERE County = 'Fresno' AND 1 = 1",
     Tier.EXEC_MATCH),
    ("Name the schools in Alameda county.",
     "SELECT School FROM schools WHERE County = 'Alameda'",
     "SELECT School FROM schools WHERE County = 'Alameda' ORDER BY School DESC",
     Tier.EXEC_MATCH),
    ("What is two?",
     "SELECT 2",
     "SELECT 2.0",
     Tier.EXEC_MATCH),
    ("List schools ordered by name.",
     "SELECT School FROM schools ORDER BY School",
     "SELECT School FROM schools ORDER BY School",
     Tier.EXEC_MATCH),
    # -- KnowledgeConsistent (0.5): executable, wrong rows, within linked/gold columns
    ("How many schools are in Fresno county?",
     "SELECT COUNT(*) FROM schools WHERE County = 'Fresno'",
     "SELECT COUNT(*) FROM schools WHERE County = 'Alameda' OR County = 'Fresno'",
     Tier.KNOWLEDGE_CONSISTENT),
    ("What is the free meal rate of the school named 'School 03'?",
     "SELECT f.FreeMealCount / f.Enrollment FROM frpm f JOIN schools s "
     "ON f.CDSCode = s.CDSCode WHERE s.School = 'School 03'",
     "SELECT frpm.FreeMealCount / frpm.Enrollment FROM frpm",
     Tier.KNOWLEDGE_CONSISTENT),
    ("Which school has the best excellence rate?",
     "SELECT s.School FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "ORDER BY (t.NumGE1500 * 1.0 / t.NumTstTakr) DESC LIMIT 1",
     "SELECT s.School FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "ORDER BY (t.NumGE1500 / t.NumTstTakr) ASC LIMIT 1",
     Tier.KNOWLEDGE_CONSISTENT),
    ("List the websites of schools in San Joaquin.",
     "SELECT Website FROM schools WHERE County = 'San Joaquin'",
     "SELECT Website FROM schools WHERE County = 'Fresno'",
     Tier.KNOWLEDGE_CONSISTENT),
    ("Count the charter schools in Oakland.",
     "SELECT COUNT(*) FROM schools WHERE City = 'Oakland' AND Charter = 1",
     "SELECT COUNT(*) FROM schools WHERE City = 'Oakland'",
     Tier.KNOWLEDGE_CONSISTENT),
    # -- Executable (0.1): runs, but breaks the knowledge constraints
    ("How many schools are in Fresno county?",
     "SELECT COUNT(*) FROM schools WHERE County = 'Fresno'",
     "SELECT COUNT(*) FROM satscores WHERE AvgScrMath > 450",
     Tier.EXECUTABLE),
    ("What is the free meal rate of the school named 'School 03'?",
     "SELECT f.FreeMealCount / f.Enrollment FROM frpm f JOIN schools s "
     "ON f.CDSCode = s.CDSCode WHERE s.School = 'School 03'",
     "SELECT f.FreeMealCount FROM frpm f JOIN schools s ON f.CDSCode = s.CDSCode "
     "WHERE s.School = 'School 03'",
     Tier.EXECUTABLE),
    ("Show the average math score for schools in Fresno.",
     "SELECT AVG(t.AvgScrMath) FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "WHERE s.County = 'Fresno'",
     "SELECT AVG(AvgScrRead) FROM satscores",
     Tier.EXECUTABLE),
    ("List the websites of schools in San Joaquin.",
     "SELECT Website FROM schools WHERE County = 'San Joaquin'",
     "SELECT Virtual FROM schools",
     Tier.EXECUTABLE),
    ("How many rows does frpm contain?",
     "SELECT COUNT(*) FROM frpm",
     "SELECT SchoolType FROM frpm",
     Tier.EXECUTABLE),
    # -- Invalid (0.0)
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "this is not sql",
     Tier.INVALID),
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "SELECT FROM WHERE",
     Tier.INVALID),
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "SELECT * FROM nonexistent_table",
     Tier.INVALID),
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "SELECT Bogus FROM schools",
     Tier.INVALID),
    ("How many schools are there?",
     "SELECT COUNT(*) FROM schools",
     "WITH RECURSIVE cnt(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM cnt WHERE x < 1000000) "
     "SELECT COUNT(*) FROM cnt a, cnt b",
     Tier.INVALID),
]

TIER_VALUES = {Tier.EXEC_MATCH: 1.0, Tier.KNOWLEDGE_CONSISTENT: 0.5,
               Tier.EXECUTABLE: 0.1, Tier.INVALID: 0.0}


@pytest.mark.parametrize("question,gold,candidate,expected", CASES,
                         ids=[f"case{i:02d}-{c[3].value}" for i, c in enumerate(CASES)])
def test_twenty_case_fixture(conn, schools, kb, question, gold, candidate, expected):
    link_result = link(question, schools, kb, **K)
    outcome = score(candidate, gold, conn, link_result, kb=kb, schema=schools,
                    timeout_ms=300)
    assert outcome.tier is expected, outcome.diagnostics
    assert outcome.value == TIER_VALUES[expected]


def test_gold_scores_one_on_every_fixture(conn, schools, kb):
    for question, gold, _candidate, _tier in CASES:
        link_result = link(question, schools, kb, **K)
        outcome = score(gold, gold, conn, link_result, kb=kb, schema=schools)
        assert outcome.tier is Tier.EXEC_MATCH
        assert outcome.value == 1.0


def test_scoring_is_deterministic(conn, schools, kb):
    question, gold, candidate, _ = CASES[6]
    link_result = link(question, schools, kb, **K)
    a = score(candidate, gold, conn, link_result, kb=kb, schema=schools)
    b = score(candidate, gold, conn, link_result, kb=kb, schema=schools)
    assert a == b


def test_score_many_batches(conn, schools, kb):
    question, gold, candidate, _ = CASES[0]
    link_result = link(question, schools, kb, **K)
    outcomes = score_many([gold, candidate, "garbage ("], gold, conn, link_result,
                          kb=kb, schema=schools)
    assert [o.tier for o in outcomes] == [Tier.EXEC_MATCH, Tier.EXEC_MATCH, Tier.INVALID]


def test_gold_failure_is_an_error(conn, schools, kb):
    link_result = link("q", schools, kb, **K)
    with pytest.raises(ValueError):
        score("SELECT 1", "SELECT nope FROM nowhere", conn, link_result, schema=schools)


# -- execute_sql -------------------------------------------------------------------


def test_execute_simple(conn):
    result = execute_sql("SELECT 1", conn)
    assert result.ok and result.rows == [(1,)]


def test_execute_matches_direct_engine_run(conn, schools_db_path):
    sql = "SELECT County, COUNT(*) FROM schools GROUP BY County ORDER BY County"
    expected = sqlite3.connect(str(schools_db_path)).execute(sql).fetchall()
    result = execute_sql(sql, conn)
    assert result.ok and result.rows == [tuple(r) for r in expected]


def test_execute_classifies_syntax_error(conn):
    result = execute_sql("SELECT FROM WHERE", conn)
    assert result.error is ExecErrorKind.SYNTAX


def test_execute_classifies_missing_object(conn):
    assert execute_sql("SELECT * FROM ghost", conn).error is ExecErrorKind.MISSING_OBJECT
    assert execute_sql("SELECT ghost FROM schools", conn).error is ExecErrorKind.MISSING_OBJECT


def test_execute_times_out(conn):
    sql = ("WITH RECURSIVE cnt(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM cnt "
           "WHERE x < 1000000) SELECT COUNT(*) FROM cnt a, cnt b")
    result = execute_sql(sql, conn, timeout_ms=100)
    assert result.error is ExecErrorKind.TIMEOUT


# -- results_match ------------------------------------------------------------------


def test_multiset_rule_without_order_by():
    assert results_match([(1,), (2,)], [(2,), (1,)], "SELECT x FROM t")
    assert not results_match([(1,), (1,)], [(2,), (1,)], "SELECT x FROM t")


def test_order_rule_with_order_by():
    assert not results_match([(1,), (2,)], [(2,), (1,)], "SELECT x FROM t ORDER BY x")
    assert results_match([(2,), (1,)], [(2,), (1,)], "SELECT x FROM t ORDER BY x DESC")


def test_order_by_inside_subquery_does_not_force_order():
    gold = "SELECT x FROM (SELECT x FROM t ORDER BY x LIMIT 3)"
    assert results_match([(3,), (1,), (2,)], [(1,), (2,), (3,)], gold)


def test_numeric_canonicalization():
    assert results_match([(2,)], [(2.0,)], "SELECT x FROM t")
    assert results_match([(0.3333333,)], [(0.33333329,)], "SELECT x FROM t")
    assert not results_match([(2,)], [(2.1,)], "SELECT x FROM t")


def test_non_finite_floats_are_scored(conn, schools, kb):
    link_result = link("How many schools are there?", schools, kb, **K)
    overflow = "SELECT 1e999"
    assert score(overflow, overflow, conn, link_result, schema=schools).tier is Tier.EXEC_MATCH
    wrong = score(overflow, "SELECT COUNT(*) FROM schools", conn, link_result, schema=schools)
    assert wrong.tier is not Tier.EXEC_MATCH
    assert not results_match([(float("nan"),)], [(1,)], "SELECT x FROM t")


def test_normalize_expression_strips_qualifiers_and_parens():
    assert normalize_expression("(frpm.FreeMealCount / frpm.Enrollment)") == (
        "freemealcount / enrollment"
    )
    inner = normalize_expression("SELECT s.FreeMealCount / s.Enrollment FROM frpm s")
    assert "freemealcount / enrollment" in inner
