"""Skeleton extraction against the hand-labeled corpus, plus unit edge cases."""

import json
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixture_db import edited_sql, schools_corpus
from sqlknow.errors import SqlParseError, UnsupportedSqlError
from sqlknow.skeleton import skeletonize
from sqlknow.sql_tokens import tokenize


def test_basic_masking():
    sk = skeletonize("SELECT name FROM circuits WHERE circuitRef = 'x'")
    assert sk == "SELECT _C FROM _T WHERE _C = _V"


def test_skeleton_is_fixed_point():
    sk = skeletonize("SELECT _C FROM _T WHERE _C = _V")
    assert sk == "SELECT _C FROM _T WHERE _C = _V"


@pytest.mark.parametrize("sql, expected", [
    ("SELECT a >> 1 FROM t", "SELECT _C >> _V FROM _T"),
    ("SELECT a FROM t WHERE a & 4 = 4", "SELECT _C FROM _T WHERE _C & _V = _V"),
    ("SELECT ~a FROM t", "SELECT ~ _C FROM _T"),
    ("SELECT a << 2 | 1 FROM t", "SELECT _C << _V | _V FROM _T"),
])
def test_sqlite_bitwise_operators_mask_whole(sql, expected):
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute(sql).fetchall()
    assert skeletonize(sql) == expected
    assert skeletonize(expected) == expected


def test_malformed_sql_reports_position():
    with pytest.raises(SqlParseError) as err:
        skeletonize("WITH a AS (SELECT x FROM t")
    assert err.value.position >= 0


@pytest.mark.parametrize("sql, position", [
    ("WITH a AS (SELECT x FROM t", 10),
    ("SELECT (a FROM t", 7),
    ("SELECT ((a) FROM t", 7),
])
def test_an_unclosed_parenthesis_is_reported_at_its_offset(sql, position):
    with pytest.raises(SqlParseError) as err:
        skeletonize(sql)
    assert str(err.value) == f"unbalanced opening parenthesis (at offset {position})"


@pytest.mark.parametrize("sql, expected", [
    ("SELECT a FROM t WHERE b = '('", "SELECT _C FROM _T WHERE _C = _V"),
    ("SELECT a FROM t WHERE b = ')'", "SELECT _C FROM _T WHERE _C = _V"),
    ('SELECT "(" FROM t WHERE b IN (\')\', \'(\')', "SELECT _C FROM _T WHERE _C IN (_V, _V)"),
    ("SELECT COUNT(*) FROM t WHERE a <> ';'", "SELECT COUNT(*) FROM _T WHERE _C <> _V"),
])
def test_a_parenthesis_or_semicolon_literal_is_a_value(sql, expected):
    assert skeletonize(sql) == expected


@pytest.mark.parametrize(
    "bad", ["", "INSERT INTO t VALUES (1)", "UPDATE t SET x = 1", "SELECT 'oops"]
)
def test_non_queries_rejected(bad):
    with pytest.raises((SqlParseError, UnsupportedSqlError)):
        skeletonize(bad)


def test_table_valued_function_unsupported():
    with pytest.raises(UnsupportedSqlError):
        skeletonize("SELECT value FROM json_each('[1,2]')")


def test_corpus_skeletons_match_hand_labels(skeleton_corpus):
    mismatches = []
    for row in skeleton_corpus:
        got = skeletonize(row["sql"])
        if got != row["skeleton"]:
            mismatches.append((row["id"], row["skeleton"], got))
    assert not mismatches, "\n".join(
        f"#{i}: expected {exp!r}\n      got {got!r}" for i, exp, got in mismatches
    )


def test_corpus_idempotence(skeleton_corpus):
    for row in skeleton_corpus:
        text = skeletonize(row["sql"])
        assert skeletonize(text) == text, row["id"]


def test_corpus_emits_no_schema_identifiers(racing, skeleton_corpus):
    # Any identifier surviving the mask must be structural: a function head
    # (COUNT, ROUND, ...) or a CAST type name; in particular no schema name may
    # appear outside those positions.
    from sqlknow.sql_tokens import TYPE_NAMES, Kind

    for row in skeleton_corpus:
        tokens = tokenize(skeletonize(row["sql"]))
        for i, tok in enumerate(tokens):
            if tok.kind is not Kind.IDENT:
                continue
            is_function_head = i + 1 < len(tokens) and tokens[i + 1].value == "("
            is_cast_type = tok.value in TYPE_NAMES and i > 0 and tokens[i - 1].is_kw("AS")
            assert is_function_head or is_cast_type, (row["id"], tok.value)


# Called names whose upper case is not one identifier of the same text: two words,
# a dotted name, a placeholder, a literal, a keyword, and a dotless i whose upper
# case is the keyword IN; then names that are, quoted or not.
_CALL_NAMES = ['"a b"', "[count it]", "`x.y`", '"_C"', '"true"', '"select"', "\u0131n",
               '"count"', "[max]", "\u00df", "f", "\u00e9t\u00e9"]
_CORPUS_SQL = sorted(
    {json.loads(line)["sql"] for line in (Path(__file__).parent / "data" / "skeleton_corpus.jsonl")
     .read_text().splitlines() if line.strip()} | {row["sql"] for row in schools_corpus()})


@st.composite
def _edited_with_calls(draw):
    """Corpus SQL edited by :func:`fixture_db.edited_sql`, with up to two calls
    ``name(x)`` inserted at drawn offsets."""
    sql = draw(edited_sql(draw(st.sampled_from(_CORPUS_SQL)), min_edits=0))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(sql)))
        sql = f"{sql[:i]} {draw(st.sampled_from(_CALL_NAMES))}(x) {sql[i:]}"
    return sql


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_edited_with_calls())
@example('SELECT "a b"(x) FROM t')
@example("SELECT \u0131n(x) FROM t")
def test_a_skeleton_is_a_fixed_point_of_skeletonize(sql):
    try:
        skeleton = skeletonize(sql)
    except (SqlParseError, UnsupportedSqlError):
        return
    assert skeletonize(skeleton) == skeleton


@pytest.mark.parametrize("name", _CALL_NAMES[:7])
def test_a_called_name_that_does_not_lex_as_itself_is_unsupported(name):
    with pytest.raises(UnsupportedSqlError, match="cannot stand in a skeleton"):
        skeletonize(f"SELECT {name}(x) FROM t")


@pytest.mark.parametrize("name, emitted", [
    ('"count"', "COUNT"), ("[max]", "MAX"), ("\u00df", "SS"), ("f", "F"),
    ("\u00e9t\u00e9", "\u00c9T\u00c9")])
def test_a_called_name_that_lexes_as_itself_is_kept_upper_cased(name, emitted):
    assert skeletonize(f"SELECT {name}(x) FROM t") == f"SELECT {emitted}(_C) FROM _T"
