"""One parse per SQL text: ParsedQuery against the per-call parses it replaced,
on corpus SQL and on corpus SQL with tokens deleted, inserted or replaced.
References are SQLite's reading, not a parse; ``test_sql_refs`` compares them
with the resolver they replaced, and here a kept reading is only asked again.

The per-call parses count parentheses by token value, so they are compared
only on texts whose literals and quoted names hold no parenthesis or
semicolon; on the others the lexer's depths read the query as SQLite does."""

import gc
import json
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import parse_oracle as oracle
from fixture_db import edited_sql, racing_schema, schools_corpus
from sqlknow.errors import SqlParseError
from sqlknow.skeleton import skeletonize
from sqlknow.sql_refs import (
    UNRESOLVABLE,
    ParsedQuery,
    check_schema_consistency,
    extract_references,
    parsed,
)
from sqlknow.sql_tokens import Kind, tokenize
from sqlknow.synthesis import _identifier_map

RACING = racing_schema()
_CORPUS = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "skeleton_corpus.jsonl").read_text().splitlines()
    if line.strip()
]
SOURCES = (
    [row["sql"] for row in _CORPUS]
    + [row["skeleton"] for row in _CORPUS]
    + ["(frpm.FreeMealCount / frpm.Enrollment)", "(s.a) / (s.b)", "CAST(a.x AS REAL) / b.y",
       "((x))", "( )", ""]
)
_PIECE = re.compile(r"'[^']*'|\"[^\"]*\"|\w+|\s+|.")
VOCABULARY = sorted({p for sql in SOURCES for p in _PIECE.findall(sql) if not p.isspace()} | {
    "(", ")", "'", '"', "`", "[", "]", ";", "--", "/*", "*/", "*", ".", ",", "?", ":x", "@y",
    "_T", "_C2", "_V", "1e5", ".5", "TRUE", "AS", "WITH", "RECURSIVE", "SELECT", "FROM", "JOIN",
    "NATURAL", "USING", "ON", "UNION", "ALL", "ORDER", "BY", "CAST", "REAL", "INSERT", "CREATE",
    "VALUES", "json_each", "x.*", "main.races", "#", "OVER",
})


@st.composite
def mutated_sql(draw):
    pieces = _PIECE.findall(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(pieces)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        piece = draw(st.sampled_from(VOCABULARY)) + draw(st.sampled_from(["", " "]))
        if op == "insert" or at == len(pieces):
            pieces.insert(at, piece)
        elif op == "delete":
            del pieces[at]
        else:
            pieces[at] = piece
    return "".join(pieces)


_texts = st.sampled_from(SOURCES) | mutated_sql()


def outcome(read):
    try:
        return "ok", read()
    except Exception as exc:  # noqa: BLE001 - the oracle comparison wants every outcome
        return type(exc), str(exc)


def plain(sql: str) -> bool:
    """No literal or quoted name of ``sql`` holds a parenthesis or a semicolon."""
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return True  # both sides share the lexer, and so its failure
    return not any(
        ch in tok.value for tok in tokens if tok.kind in (Kind.STRING, Kind.IDENT) for ch in "();"
    )


def readings(sql: str) -> tuple:
    query = ParsedQuery(sql)
    return outcome(query.skeleton), query.ordered, " ".join(query.normalized_tokens)


def oracle_readings(sql: str) -> tuple:
    return (outcome(lambda: oracle.skeletonize(sql)),
            oracle.has_top_level_order_by(sql), oracle.normalize_expression(sql))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_texts)
def test_readings_equal_the_per_call_parses(sql):
    assume(plain(sql))
    shared = ParsedQuery(sql)
    expected = outcome(lambda: oracle.skeletonize(sql))
    assert outcome(lambda: skeletonize(sql)) == expected
    # asked twice: a kept reading or a kept failure is the same again
    assert outcome(shared.skeleton) == expected
    assert outcome(shared.skeleton) == expected
    expected = outcome(lambda: extract_references(sql, RACING))
    assert outcome(lambda: shared.references(RACING)) == expected
    assert shared.consistency(RACING) == check_schema_consistency(sql, RACING)
    assert outcome(lambda: shared.references(RACING)) == expected
    assert shared.ordered == oracle.has_top_level_order_by(sql)
    assert " ".join(shared.normalized_tokens) == oracle.normalize_expression(sql)


_CORPUS_SQL = sorted({row["sql"] for row in _CORPUS} | {row["sql"] for row in schools_corpus()})


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(_CORPUS_SQL).flatmap(lambda sql: edited_sql(sql, min_edits=0)))
@example("((x)")
@example("(x))")
@example("(x) + (y)")
@example("(SELECT a FROM t) UNION (SELECT b FROM u) ORDER BY 1")
def test_depths_read_what_counting_parenthesis_values_read(sql):
    assume(plain(sql))
    assert readings(sql) == oracle_readings(sql)


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE b = '('",
    "SELECT a FROM t WHERE b = ')' ORDER BY a",
    "(a = ')')",
    'SELECT "(" FROM t',
])
def test_a_literal_parenthesis_is_where_the_readings_differ(sql):
    assert not plain(sql)
    assert readings(sql) != oracle_readings(sql)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_texts, _texts)
def test_identifier_map_equals_the_per_call_parses(original, variant):
    assert _identifier_map(ParsedQuery(original), ParsedQuery(variant)) == (
        oracle.identifier_map(original, variant)
    )


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_sql())
def test_mutated_sql_raises_only_the_parse_failures(sql):
    for read in (lambda: skeletonize(sql), lambda: extract_references(sql, RACING)):
        try:
            read()
        except UNRESOLVABLE:
            pass


def test_references_follow_the_schema_asked(schools):
    query = ParsedQuery("SELECT name FROM circuits")
    assert query.references(RACING).columns == {"circuits.name"}
    assert not query.consistency(schools).ok
    assert query.references(RACING).columns == {"circuits.name"}


class _Local:
    pass


@pytest.mark.parametrize("sql", ["SELECT nope FROM circuits", "SELECT 'oops"])
def test_a_kept_failure_keeps_no_caller_alive(sql):
    cache = {}

    def caller():
        local = _Local()
        parsed(sql, cache).consistency(RACING)
        return weakref.ref(local)

    gc.disable()  # a reference cycle through a traceback would wait for the collector
    try:
        assert caller()() is None
        assert caller()() is None
    finally:
        gc.enable()


def test_parsed_keeps_one_query_per_text():
    cache = {}
    first = parsed("SELECT 1", cache)
    assert parsed("SELECT 1", cache) is first
    assert parsed("SELECT 2", cache) is not first
    assert list(cache) == ["SELECT 1", "SELECT 2"]
