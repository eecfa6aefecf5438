"""Tiered execution/knowledge reward on the schools fixture database.

The 20-case fixture covers five cases per tier: exact execution matches,
knowledge-consistent-but-wrong candidates, executable candidates that violate
the linked knowledge, and invalid SQL. Link results use a deliberately small
k-config (k1=2, k2=2, k3=2) so that the containment check actually binds on
this small schema.
"""

import math
import shutil
import sqlite3
import time
from contextlib import closing

import pytest
import reward_oracle as oracle
from fixture_db import edited_sql, respelled_sql
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlknow import reward
from sqlknow.knowledge import DomainTerm
from sqlknow.linker import LinkResult, link
from sqlknow.reward import (
    TIER_VALUES,
    ExecErrorKind,
    PreparedGold,
    Tier,
    execute_sql,
    prepare_gold,
    score,
    score_many,
)
from sqlknow.schema import (
    _NO_AUTHORIZER,
    ColumnDef,
    DatabaseSchema,
    TableDef,
    _allow_all,
    schema_from_sqlite,
)
from sqlknow.sql_refs import ParsedQuery

K = dict(k1=2, k2=2, k3=2)


def normalize_expression(sql: str) -> str:
    """The normalized token stream a term's expression is matched by."""
    return " ".join(ParsedQuery(sql).normalized_tokens)


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


def test_every_fixture_gold_run_again_matches_its_prepared_result(conn):
    # Scoring a gold against itself never runs the candidate, as it is spelled
    # like the gold: run each gold again here, cut at row count + 1, as score
    # runs any other candidate.
    golds = {gold for _, gold, _, _ in CASES} | {gold for gold, _ in GOLD_FAMILIES}
    for gold in sorted(golds | {"SELECT 1e999, -1e999"}):
        prepared = prepare_gold(gold, conn)
        again = execute_sql(gold, conn, max_rows=prepared.row_count + 1)
        assert again.ok and prepared.matches(again.rows), gold


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


def test_a_candidate_python_cannot_encode_is_invalid(schools, kb):
    """A lone surrogate (which a gateway's JSON can carry) or a NUL fails that
    one candidate, not the batch."""
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (age INTEGER)")
    db.execute("INSERT INTO t VALUES (7)")
    outcomes = score_many(["SELECT age FROM t", "SELECT \ud800 FROM t", "SELECT '\x00' FROM t"],
                          "SELECT age FROM t", db, link("q", schools, kb, **K),
                          schema=schema_from_sqlite(db, "db"))
    assert [o.tier for o in outcomes] == [Tier.EXEC_MATCH, Tier.INVALID, Tier.INVALID]
    assert "surrogates not allowed" in outcomes[1].diagnostics
    db.close()


def test_a_term_expression_matches_whole_tokens_only():
    """``age > 1`` is not in ``age > 18``: that candidate is as wrong as ``age > 2``."""
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (name TEXT, age INTEGER)")
    db.executemany("INSERT INTO t VALUES (?, ?)", [("a", 1), ("b", 2), ("c", 20), ("d", 30)])
    schema = DatabaseSchema("d", [TableDef("t", (ColumnDef("name"), ColumnDef("age")))])
    q = "Name every adult."
    link_result = LinkResult(q, (("t", 1.0),), {"t": (("t.name", 1.0), ("t.age", 1.0))},
                             ((DomainTerm("adult", "age > 1", ("t.age",)), 1.0),), frozenset())
    candidates = ["SELECT name FROM t WHERE age > 18", "SELECT name FROM t WHERE age > 2",
                  "SELECT name FROM t WHERE t.age > 1 AND name <> 'b'"]
    outcomes = score_many(candidates, "SELECT name FROM t WHERE age > 1", db, link_result,
                          schema=schema)
    assert [o.tier for o in outcomes] == [Tier.EXECUTABLE, Tier.EXECUTABLE,
                                          Tier.KNOWLEDGE_CONSISTENT]
    assert outcomes[0].diagnostics == "required term expression missing: 'adult'"
    db.close()


def test_a_term_expression_matches_names_by_sqlites_rule():
    """``É`` and ``é`` are two columns to SQLite, so a candidate on ``é`` does not
    hold the term ``big`` -> ``É > 1``; ``T.Name`` and ``name`` are one column."""
    assert normalize_expression("(T.Name > 1)") == "name > 1"
    assert normalize_expression("É > 1") == "É > 1" != normalize_expression("é > 1")
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (name TEXT, É INTEGER, é INTEGER)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", [("a", 2, 0), ("b", 0, 2), ("c", 2, 2)])
    columns = (ColumnDef("name"), ColumnDef("É", "INTEGER"), ColumnDef("é", "INTEGER"))
    schema = DatabaseSchema("d", [TableDef("t", columns)])
    q = "Name every big row."
    link_result = LinkResult(q, (("t", 1.0),), {"t": tuple((f"t.{c.name}", 1.0) for c in columns)},
                             ((DomainTerm("big", "É > 1", ("t.É",)), 1.0),), frozenset())
    outcomes = score_many(["SELECT name FROM t WHERE é > 1", "SELECT name FROM t WHERE É > 1"],
                          "SELECT name FROM t WHERE É > 1 AND name <> 'c'", db, link_result,
                          schema=schema)
    assert [o.tier for o in outcomes] == [Tier.EXECUTABLE, Tier.KNOWLEDGE_CONSISTENT]
    assert outcomes[0].diagnostics == "required term expression missing: 'big'"
    db.close()


def test_gold_failure_is_an_error(conn, schools, kb):
    link_result = link("q", schools, kb, **K)
    with pytest.raises(ValueError):
        score("SELECT 1", "SELECT nope FROM nowhere", conn, link_result, schema=schools)


def test_empty_batch_runs_no_gold(conn, schools, kb):
    link_result = link("q", schools, kb, **K)
    assert score_many([], "SELECT nope FROM nowhere", conn, link_result, schema=schools) == []


def test_gold_failure_fails_the_batch(conn, schools, kb):
    link_result = link("q", schools, kb, **K)
    with pytest.raises(ValueError, match="gold query failed to execute"):
        score_many(["SELECT 1", "SELECT 2"], "SELECT nope FROM nowhere", conn, link_result,
                   schema=schools)


def test_gold_runs_once_per_batch(schools_db_path, schools, kb):
    question, gold, _candidate, _ = CASES[6]
    candidates = [c for q, g, c, _ in CASES if q == question] + [
        "SELECT frpm.FreeMealCount FROM frpm", "SELECT 1", "garbage ("]
    link_result = link(question, schools, kb, **K)
    statements = []
    db = sqlite3.connect(str(schools_db_path))
    db.set_trace_callback(statements.append)
    try:
        for schema in (schools, schema_from_sqlite(db, kb.db_id)):
            statements.clear()
            score_many(candidates, gold, db, link_result, kb=kb, schema=schema)
            assert statements.count(gold) == 1
            assert statements.count("SELECT 1") == 1
    finally:
        db.close()


def test_each_distinct_candidate_runs_once_per_batch(schools_db_path, schools, kb):
    question, gold, a, _ = CASES[6]
    b = "SELECT frpm.FreeMealCount FROM frpm"
    link_result = link(question, schools, kb, **K)
    statements = []
    db = sqlite3.connect(str(schools_db_path))
    db.set_trace_callback(statements.append)
    try:
        outcomes = score_many([a, b, a, a, b], gold, db, link_result, kb=kb, schema=schools)
    finally:
        db.close()
    assert statements.count(a) == 1 and statements.count(b) == 1
    assert outcomes[0] is outcomes[2] is outcomes[3] and outcomes[1] is outcomes[4]
    assert [o.tier for o in outcomes[:2]] == [Tier.KNOWLEDGE_CONSISTENT, Tier.EXECUTABLE]


def test_a_candidate_spelled_like_the_gold_does_not_run(schools_db_path, schools, kb):
    question, gold, candidate, _ = CASES[6]
    copy = gold.replace(" JOIN ", "\n\tJOIN ", 1)
    respelled = candidate.replace("SELECT ", "SELECT  ", 1)
    other_value = gold.replace("'School 03'", "'School  03'")  # equal without whitespace
    link_result = link(question, schools, kb, **K)
    statements = []
    db = sqlite3.connect(str(schools_db_path))
    db.set_trace_callback(statements.append)
    try:
        outcomes = score_many([copy, respelled, gold, other_value], gold, db, link_result,
                              kb=kb, schema=schools)
    finally:
        db.close()
    # The batch maps the file while it runs, then sets the caller's value back.
    assert statements == ["PRAGMA main.mmap_size", "PRAGMA main.mmap_size = 1099511627776",
                          gold, respelled, other_value, "PRAGMA main.mmap_size = 0"]
    assert [o.tier for o in outcomes] == [Tier.EXEC_MATCH, Tier.KNOWLEDGE_CONSISTENT,
                                          Tier.EXEC_MATCH, Tier.KNOWLEDGE_CONSISTENT]


def test_a_random_gold_matches_its_respelled_copy(conn, schools, kb):
    # Not a rule of the reward but a side effect of not running the copy: run
    # again, it would draw other numbers and match only by chance. This pins
    # the one outcome that the shortcut changes.
    gold = "SELECT random(), random() FROM schools"
    link_result = link("Draw two numbers per school.", schools, kb, **K)
    for _ in range(5):
        outcomes = score_many([gold.replace(", ", ",\n\t"), gold.replace("SELECT", "SELECT ")],
                              gold, conn, link_result, schema=schools)
        assert [o.tier for o in outcomes] == [Tier.EXEC_MATCH, Tier.EXEC_MATCH]
    assert score("SELECT random(),random() FROM schools", gold, conn, link_result,
                 schema=schools).tier is not Tier.EXEC_MATCH


# rows 1 to 3 are fine; computing row 4 overflows a 64-bit integer
FAILS_AT_ROW_4 = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 10) "
                  "SELECT CASE WHEN x > 3 THEN abs(-9223372036854775807 - x / x) ELSE x END "
                  "FROM c")


def test_a_failure_past_the_gold_row_count_plus_one_is_not_invalid(conn, schools, kb):
    # The one tier the bounded read changes: the gold has 1 row, so the
    # candidate is judged on its first 2 rows and never reaches row 4. It reads
    # no column, so it is consistent with any link.
    assert "integer overflow" in execute_sql(FAILS_AT_ROW_4, conn).message
    link_result = link("How many schools are there?", schools, kb, **K)
    outcome = score(FAILS_AT_ROW_4, "SELECT COUNT(*) FROM schools", conn, link_result, kb=kb,
                    schema=schools)
    assert outcome.tier is Tier.KNOWLEDGE_CONSISTENT, outcome.diagnostics


def test_a_cross_join_bomb_stops_at_the_gold_row_count(conn, schools, kb):
    bomb = "SELECT a.CDSCode FROM schools a, schools b, schools c, schools d"
    assert execute_sql(bomb, conn, timeout_ms=100).error is ExecErrorKind.TIMEOUT
    link_result = link("How many schools are there?", schools, kb, **K)
    started = time.monotonic()
    outcome = score(bomb, "SELECT COUNT(*) FROM schools", conn, link_result, kb=kb,
                    schema=schools, timeout_ms=2000)
    assert time.monotonic() - started < 0.5
    assert outcome.tier is not Tier.INVALID, outcome.diagnostics


# -- the batch's memory map -----------------------------------------------------------


def _mmap_sizes(db) -> dict:
    """Each open database's mmap_size; None for an in-memory one, which has no map."""
    sizes = {}
    for _seq, name, _file in db.execute("PRAGMA database_list").fetchall():
        row = db.execute(f"PRAGMA {name}.mmap_size").fetchone()
        sizes[name] = None if row is None else row[0]
    return sizes


@pytest.fixture
def sizes_at_gold(monkeypatch):
    """The mmap_sizes that each batch's gold runs under."""
    seen = []
    prepare = reward.prepare_gold

    def recording(gold, db, timeout_ms=reward.DEFAULT_TIMEOUT_MS):
        seen.append(_mmap_sizes(db))
        return prepare(gold, db, timeout_ms)

    monkeypatch.setattr(reward, "prepare_gold", recording)
    return seen


def _clamped_map(db_path) -> int:
    """What this SQLite keeps of the batch's map size: at most its compile-time maximum."""
    with closing(sqlite3.connect(str(db_path))) as db:
        return db.execute(f"PRAGMA main.mmap_size = {reward._MMAP_SIZE}").fetchone()[0]


def _question_batch():
    question, gold, _candidate, _ = CASES[6]
    return question, gold, [c for q, g, c, _ in CASES if q == question] + ["garbage ("]


@pytest.mark.parametrize("caller_size", [None, 1 << 20], ids=["fresh", "caller-set"])
def test_a_batch_maps_its_database_and_restores_the_callers_size(
        schools_db_path, schools, kb, sizes_at_gold, caller_size):
    question, gold, candidates = _question_batch()
    link_result = link(question, schools, kb, **K)
    with closing(sqlite3.connect(str(schools_db_path))) as db:
        if caller_size is not None:
            db.execute(f"PRAGMA main.mmap_size = {caller_size}")
        before = _mmap_sizes(db)
        score_many(candidates, gold, db, link_result, schema=schools)
        assert _mmap_sizes(db) == before == {"main": caller_size or 0}
    assert sizes_at_gold == [{"main": _clamped_map(schools_db_path)}]


def test_a_failing_gold_or_candidate_still_restores_the_size(schools_db_path, schools, kb,
                                                             monkeypatch):
    question, gold, candidates = _question_batch()
    link_result = link(question, schools, kb, **K)
    with closing(sqlite3.connect(str(schools_db_path))) as db:
        db.execute("PRAGMA main.mmap_size = 4096")
        with pytest.raises(ValueError, match="gold query failed to execute"):
            score_many(candidates, "SELECT nope FROM nowhere", db, link_result, schema=schools)
        assert _mmap_sizes(db) == {"main": 4096}

        def fail(*args):
            raise RuntimeError("a candidate raised")

        monkeypatch.setattr(reward, "_knowledge_consistent", fail)
        with pytest.raises(RuntimeError, match="a candidate raised"):
            score_many(candidates, gold, db, link_result, schema=schools)
        assert _mmap_sizes(db) == {"main": 4096}


def test_an_attached_databases_size_is_left_alone(schools_db_path, schools, kb, tmp_path,
                                                  sizes_at_gold):
    question, gold, candidates = _question_batch()
    link_result = link(question, schools, kb, **K)
    other = tmp_path / "other.sqlite"
    shutil.copy(schools_db_path, other)
    with closing(sqlite3.connect(str(schools_db_path))) as db:
        db.execute("ATTACH DATABASE ? AS other", (str(other),))
        db.execute("PRAGMA other.mmap_size = 8192")
        score_many(candidates, gold, db, link_result, schema=schools)
        assert _mmap_sizes(db) == {"main": 0, "other": 8192}
    assert sizes_at_gold == [{"main": _clamped_map(schools_db_path), "other": 8192}]


def test_an_in_memory_database_scores_as_its_file_does(conn, schools, kb):
    question, gold, candidates = _question_batch()
    link_result = link(question, schools, kb, **K)
    statements = []
    with closing(sqlite3.connect(":memory:")) as memory:
        conn.backup(memory)
        memory.set_trace_callback(statements.append)
        outcomes = score_many(candidates, gold, memory, link_result, schema=schools)
        memory.set_trace_callback(None)
        assert _mmap_sizes(memory) == {"main": None}
    assert outcomes == score_many(candidates, gold, conn, link_result, schema=schools)
    assert [s for s in statements if "mmap_size" in s] == ["PRAGMA main.mmap_size"]


# -- read-only execution --------------------------------------------------------------


@pytest.fixture
def scratch_db(schools_db_path, tmp_path):
    path = tmp_path / "schools.sqlite"
    shutil.copy(schools_db_path, path)
    connection = sqlite3.connect(str(path))
    yield connection
    connection.close()


@pytest.mark.parametrize("statement", [
    "DELETE FROM schools",
    "INSERT INTO schools (CDSCode) VALUES ('X')",
    "UPDATE schools SET County = 'Nowhere'",
    "DROP TABLE schools",
    "CREATE TABLE extra (x)",
    "ATTACH DATABASE ':memory:' AS other",
    "PRAGMA user_version = 7",
    "PRAGMA table_info(schools)",
    "PRAGMA main.mmap_size = 0",
    "BEGIN",
])
def test_non_reads_are_denied_and_change_nothing(scratch_db, schools, kb, statement):
    gold = "SELECT County, COUNT(*) FROM schools GROUP BY County ORDER BY County"
    before = scratch_db.execute(gold).fetchall()
    link_result = link("How many schools are in each county?", schools, kb, **K)
    outcomes = score_many([statement, gold], gold, scratch_db, link_result, kb=kb,
                          schema=schools)
    assert outcomes[0].tier is Tier.INVALID
    assert outcomes[0].diagnostics.startswith("denied: ")
    assert outcomes[1].tier is Tier.EXEC_MATCH
    assert not scratch_db.in_transaction
    assert execute_sql(statement, scratch_db).error is ExecErrorKind.DENIED
    assert scratch_db.execute(gold).fetchall() == before
    assert scratch_db.execute("PRAGMA user_version").fetchone() == (0,)
    assert [r[1] for r in scratch_db.execute("PRAGMA database_list")] == ["main"]


@pytest.mark.parametrize("cleared_with", [_NO_AUTHORIZER, _allow_all],
                         ids=["this-python", "allow-all"])
def test_authorizer_is_cleared_after_each_statement(scratch_db, monkeypatch, cleared_with):
    # The allow-all callback is what clears the authorizer before Python 3.11.
    monkeypatch.setattr(reward, "_NO_AUTHORIZER", cleared_with)
    assert execute_sql("DELETE FROM schools", scratch_db).error is ExecErrorKind.DENIED
    scratch_db.execute("DELETE FROM schools WHERE CDSCode = 'CDS0000'")
    assert scratch_db.in_transaction
    scratch_db.rollback()


def test_reads_through_views_and_recursion_are_allowed(scratch_db):
    scratch_db.execute("CREATE VIEW fresno AS SELECT School FROM schools WHERE County = 'Fresno'")
    assert len(execute_sql("SELECT * FROM fresno", scratch_db).rows) == 8
    counted = execute_sql("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                          "WHERE x < 5) SELECT SUM(x), MAX(abs(-x)) FROM c", scratch_db)
    assert counted.rows == [(15, 5)]


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


# -- PreparedGold.matches ----------------------------------------------------------


def test_multiset_rule_without_order_by():
    assert PreparedGold("SELECT x FROM t", [(2,), (1,)]).matches([(1,), (2,)])
    assert not PreparedGold("SELECT x FROM t", [(2,), (1,)]).matches([(1,), (1,)])
    assert not PreparedGold("SELECT x FROM t", [(1,), (2,), (2,)]).matches([(1,), (2,)])
    assert not PreparedGold("SELECT x FROM t", [(1,), (2,), (2,)]).matches(
        [(2,), (1,), (2,), (2,)])


def test_order_rule_with_order_by():
    assert not PreparedGold("SELECT x FROM t ORDER BY x", [(2,), (1,)]).matches([(1,), (2,)])
    assert PreparedGold("SELECT x FROM t ORDER BY x DESC", [(2,), (1,)]).matches([(2,), (1,)])
    assert not PreparedGold("SELECT x FROM t ORDER BY x DESC", [(2,), (1,)]).matches([(2,)])


def test_order_by_inside_subquery_does_not_force_order():
    gold = "SELECT x FROM (SELECT x FROM t ORDER BY x LIMIT 3)"
    assert PreparedGold(gold, [(1,), (2,), (3,)]).matches([(3,), (1,), (2,)])


def test_numeric_canonicalization():
    assert PreparedGold("SELECT x FROM t", [(2.0,)]).matches([(2,)])
    assert PreparedGold("SELECT x FROM t", [(0.33333329,)]).matches([(0.3333333,)])
    assert not PreparedGold("SELECT x FROM t", [(2.1,)]).matches([(2,)])


def test_non_finite_floats_are_scored(conn, schools, kb):
    link_result = link("How many schools are there?", schools, kb, **K)
    overflow = "SELECT 1e999"
    assert score(overflow, overflow, conn, link_result, schema=schools).tier is Tier.EXEC_MATCH
    wrong = score(overflow, "SELECT COUNT(*) FROM schools", conn, link_result, schema=schools)
    assert wrong.tier is not Tier.EXEC_MATCH
    assert not PreparedGold("SELECT x FROM t", [(1,)]).matches([(float("nan"),)])


def test_normalize_expression_strips_qualifiers_and_parens():
    assert normalize_expression("(frpm.FreeMealCount / frpm.Enrollment)") == (
        "freemealcount / enrollment"
    )
    inner = normalize_expression("SELECT s.FreeMealCount / s.Enrollment FROM frpm s")
    assert "freemealcount / enrollment" in inner
    assert normalize_expression("(s.a >> 1)") == "a >> 1"


@pytest.mark.parametrize("expression, normalized", [
    ("(a = ')')", "a = ')'"),
    ("('(')", "'('"),
    ("('(' || a) || (b || ')')", "( '(' || a ) || ( b || ')' )"),
])
def test_a_parenthesis_literal_neither_blocks_nor_makes_an_unwrap(expression, normalized):
    assert normalize_expression(expression) == normalized


# -- one prepared gold against the per-candidate oracle ---------------------------------

# Gold queries on the schools fixture, each followed by SQL with the same result
# (rewrites) and by SQL whose rows nearly match it: a prefix or subset, the
# same rows in another order, duplicated rows, floats equal only after
# canonicalization.
GOLD_FAMILIES = [
    ("SELECT School FROM schools WHERE County = 'Fresno'",
     ["SELECT s.School FROM schools s WHERE s.County = 'Fresno' AND 1 = 1",
      "SELECT School FROM schools WHERE County = 'Fresno' ORDER BY School DESC",
      "SELECT School FROM schools WHERE County = 'Fresno' LIMIT 3",
      "SELECT School FROM schools WHERE County = 'Fresno' UNION ALL "
      "SELECT School FROM schools WHERE County = 'Fresno'"]),
    ("SELECT School FROM schools WHERE County = 'Fresno' ORDER BY School",
     ["SELECT School FROM schools WHERE County = 'Fresno' ORDER BY 1 ASC",
      "SELECT School FROM (SELECT School FROM schools WHERE County = 'Fresno' "
      "ORDER BY School DESC)",
      "SELECT School FROM schools WHERE County = 'Fresno' ORDER BY School LIMIT 3",
      "SELECT School FROM schools WHERE County = 'Alameda' ORDER BY School"]),
    ("SELECT x FROM (SELECT School AS x FROM schools ORDER BY School LIMIT 5)",
     ["SELECT x FROM (SELECT School AS x FROM schools ORDER BY School LIMIT 5) ORDER BY x DESC",
      "SELECT School FROM schools ORDER BY School DESC LIMIT 5"]),
    ("SELECT County FROM schools",
     ["SELECT County FROM schools ORDER BY County",
      "SELECT DISTINCT County FROM schools",
      "SELECT County FROM schools WHERE Charter = 1 UNION ALL "
      "SELECT County FROM schools WHERE Charter = 0"]),
    ("SELECT County, COUNT(*) FROM schools WHERE Charter = 1 GROUP BY County",
     ["SELECT County, COUNT(*) FROM schools WHERE Charter = 0 GROUP BY County",
      "SELECT County, COUNT(*) * 1.0 FROM schools WHERE Charter = 1 GROUP BY County "
      "ORDER BY County DESC",
      "SELECT County, COUNT(*) FROM schools GROUP BY County"]),
    ("SELECT 1.0 / 3",
     ["SELECT ROUND(1.0 / 3, 7)", "SELECT ROUND(1.0 / 3, 5)", "SELECT 1 / 3"]),
    ("SELECT AVG(NumGE1500 * 1.0 / NumTstTakr) FROM satscores",
     ["SELECT ROUND(AVG(NumGE1500 * 1.0 / NumTstTakr), 8) FROM satscores",
      "SELECT AVG(NumGE1500 / NumTstTakr) FROM satscores"]),
    ("SELECT 2", ["SELECT 2.0", "SELECT 1 + 1 = 2", "SELECT 1 = 1", "SELECT 2.5"]),
    ("SELECT 1 = 1", ["SELECT 1", "SELECT 1.0", "SELECT 0 = 1"]),
    ("SELECT 1e999", ["SELECT 2e999", "SELECT -1e999", "SELECT 1e308"]),
    ("SELECT 1e999 - 1e999", ["SELECT NULL", "SELECT 0"]),
    ("SELECT f.FreeMealCount / f.Enrollment FROM frpm f JOIN schools s "
     "ON f.CDSCode = s.CDSCode WHERE s.School = 'School 03'",
     ["SELECT frpm.FreeMealCount / frpm.Enrollment FROM frpm WHERE CDSCode = 'CDS0003'",
      "SELECT frpm.FreeMealCount / frpm.Enrollment FROM frpm",
      "SELECT f.FreeMealCount FROM frpm f JOIN schools s ON f.CDSCode = s.CDSCode "
      "WHERE s.School = 'School 03'"]),
    ("SELECT s.School FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "ORDER BY (t.NumGE1500 * 1.0 / t.NumTstTakr) DESC LIMIT 1",
     ["SELECT s.School FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
      "ORDER BY (t.NumGE1500 / t.NumTstTakr) ASC LIMIT 1",
      "SELECT School FROM schools WHERE CDSCode = (SELECT cds FROM satscores "
      "ORDER BY NumGE1500 * 1.0 / NumTstTakr DESC LIMIT 1)"]),
]
BROKEN = ["SELECT FROM WHERE", "garbage (", "this is not sql", "SELECT * FROM ghost",
          "SELECT Bogus FROM schools", "SELECT AVG(AvgScrRead) FROM satscores",
          "SELECT Virtual FROM schools", "DELETE FROM schools"]
GOLDS = [g for g, _ in GOLD_FAMILIES] + ["SELECT nope FROM nowhere"]
CANDIDATES = [sql for g, rewrites in GOLD_FAMILIES for sql in (g, *rewrites)] + BROKEN
QUESTIONS = ["What is the free meal rate of the school named 'School 03'?",
             "Which school has the best excellence rate?",
             "How many schools are in Fresno county?",
             "List schools ordered by name."]


@pytest.fixture(scope="module")
def links(schools, kb):
    return [link(q, schools, kb, **K) for q in QUESTIONS] + [link(q, schools, kb)
                                                             for q in QUESTIONS]


def _outcomes(scorer, *args, **kwargs):
    try:
        return [(o.tier, o.value, o.diagnostics) for o in scorer(*args, **kwargs)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_equals_the_per_candidate_oracle(conn, schools, links, data):
    family = data.draw(st.sampled_from(GOLD_FAMILIES + [("SELECT nope FROM nowhere", [])]))
    gold = family[0]
    near = [gold, *family[1]]
    candidates = data.draw(st.lists(
        st.one_of(st.sampled_from(near), st.sampled_from(CANDIDATES)).flatmap(
            lambda sql: st.one_of(st.just(sql), respelled_sql(sql))), max_size=10))
    link_result = data.draw(st.sampled_from(links))
    args = (candidates, gold, conn, link_result)
    kwargs = dict(schema=schools, timeout_ms=2000)
    assert _outcomes(score_many, *args, **kwargs) == _outcomes(oracle.score_many, *args,
                                                               **kwargs)


@pytest.fixture(scope="module")
def hostile_db(schools_db_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "schools.sqlite"
    shutil.copy(schools_db_path, path)
    connection = sqlite3.connect(str(path))
    yield connection
    connection.close()


NON_READS = ["DELETE FROM schools", "PRAGMA user_version = 7", "PRAGMA table_info(schools)",
             "ATTACH DATABASE ':memory:' AS other"]


@st.composite
def hostile_sql(draw):
    """Any text (surrogates and NUL included), an edited fixture query, two
    statements, or a statement that is no read."""
    return draw(st.one_of(
        st.text(st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff\x00"),
                max_size=40),
        st.sampled_from(CANDIDATES).flatmap(edited_sql),
        st.tuples(st.sampled_from(CANDIDATES), st.sampled_from(CANDIDATES + NON_READS)).map(
            "; ".join),
        st.sampled_from(NON_READS)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gold=st.sampled_from(GOLDS), candidates=st.lists(hostile_sql(), max_size=4),
       extra=hostile_sql(), data=st.data())
def test_a_batch_of_hostile_candidates_scores_each_alone(hostile_db, schools, links, gold,
                                                         candidates, extra, data):
    """Only a failing gold raises; every candidate gets one of the four tiers,
    the same on a second call, and adding a candidate changes no other's."""
    link_result = data.draw(st.sampled_from(links))
    at = data.draw(st.integers(0, len(candidates)))

    def outcomes(batch):
        scored = score_many(batch, gold, hostile_db, link_result, schema=schools,
                            timeout_ms=2000)
        return [(o.tier, o.value, o.diagnostics) for o in scored]

    grown = candidates[:at] + [extra] + candidates[at:]
    if not execute_sql(gold, hostile_db).ok:
        with pytest.raises(ValueError, match="gold query failed to execute"):
            outcomes(grown)
        return
    first, again, grown = outcomes(candidates), outcomes(candidates), outcomes(grown)
    assert all(isinstance(tier, Tier) and value == TIER_VALUES[tier] for tier, value, _ in grown)
    assert again == first == grown[:at] + grown[at + 1:]
    assert not hostile_db.in_transaction


@settings(max_examples=200, deadline=None)
@given(sql=st.sampled_from(CANDIDATES), n=st.integers(0, 6))
def test_bounded_execution_returns_the_first_rows_of_the_full_one(conn, sql, n):
    full = execute_sql(sql, conn)
    bounded = execute_sql(sql, conn, max_rows=n)
    if full.ok:
        assert bounded.ok and bounded.rows == full.rows[:n]
    else:
        assert (bounded.error, bounded.message) == (full.error, full.message)
    assert not conn.in_transaction


ROW_VALUES = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(), st.sampled_from(["a", "b", "2"]),
    st.sampled_from([2.0, -0.0, 0.5, 1 / 3, 0.3333333, 1e999, -1e999, math.nan]),
)


@settings(max_examples=400, deadline=None)
@given(gold=st.lists(st.lists(ROW_VALUES, min_size=2, max_size=2).map(tuple), max_size=6),
       data=st.data(), sql=st.sampled_from(GOLDS + CANDIDATES))
def test_results_match_equals_the_oracle(gold, data, sql):
    shuffled = data.draw(st.permutations(gold))
    edited = data.draw(st.lists(st.sampled_from(gold), max_size=6) if gold else st.just([]))
    for candidate in (gold, list(gold), shuffled, edited, gold[1:], gold + gold[:1]):
        assert (PreparedGold(sql, gold).matches(candidate)
                == oracle.results_match(candidate, gold, sql))
