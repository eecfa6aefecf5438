"""The one-pattern lexer against the character loop it replaced, and the
spelling it gives a text against what SQLite does with that text."""

import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokenize_oracle
from fixture_db import SQL_RUNS, edited_sql, respelled_sql, schools_corpus, token_spans
from sqlknow.errors import SqlParseError
from sqlknow.reward import execute_sql
from sqlknow.skeleton import skeletonize
from sqlknow.sql_tokens import _TOKEN_RE, Kind, Token, is_bare_name, spelling, tokenize

_CORPUS = sorted({row["sql"] for row in schools_corpus()} | {
    json.loads(line)["sql"]
    for line in (Path(__file__).parent / "data" / "skeleton_corpus.jsonl").read_text().splitlines()
    if line.strip()
})


def _lexed(lex, sql):
    try:
        return [(t.kind, t.value, t.pos) for t in lex(sql)]
    except SqlParseError as failed:
        return str(failed), failed.position


_TEXTS = st.one_of(
    st.sampled_from(_CORPUS).flatmap(lambda sql: edited_sql(sql, min_edits=0)),
    st.text(st.sampled_from("SELECT a_1.;'\"`[]()-/*:@?<>=!|&~ \t\n\x0bé٣²"),
            max_size=24),
)


@settings(max_examples=1000, deadline=None)
@given(_TEXTS)
@example("'a''")
@example("'a'''b'")
@example("/*/")
@example("SELECT ٣")
@example("SELECT ²")
@example("SELECT .²")
@example("SELECT :1")
@example("SELECT @é")
def test_the_lexer_equals_the_character_loop(sql):
    assert _lexed(tokenize, sql) == _lexed(tokenize_oracle.tokenize, sql)


@settings(max_examples=500, deadline=None)
@given(_TEXTS | st.text(st.sampled_from("aIN_CTRUE1 \u0131\u00e9.;'"), max_size=6))
@example("IN")
@example("\u0131n")
@example("_C")
@example("TRUE")
@example("A B")
@example("X;")
@example("\u00c9T\u00c9")
def test_a_bare_name_is_a_text_the_lexer_reads_as_one_identifier_of_itself(text):
    assert is_bare_name(text) == (_lexed(tokenize, text) == [(Kind.IDENT, text, 0)])


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
@example("SELECT f(')', (a)) FROM t")
def test_a_depth_counts_the_punctuation_parentheses_open_around_its_token(sql):
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return
    depth = 0
    for tok in tokens:
        if tok.kind is Kind.PUNCT and tok.value == ")":
            depth -= 1
        assert tok.depth == depth
        if tok.kind is Kind.PUNCT and tok.value == "(":
            depth += 1


def test_a_digit_outside_ascii_is_no_number():
    # SQLite reads ARABIC-INDIC DIGIT THREE as part of a name, as it reads "é"
    for name in ("\u0663", "\u00e9", "_T\u0663", "gr\u00f6\u00dfe"):
        sql = f"SELECT {name} FROM t"
        assert tokenize(sql)[1] == Token(Kind.IDENT, name, 7)
        assert skeletonize(sql) == "SELECT _C FROM _T"


def test_a_parenthesis_sits_at_the_depth_outside_itself():
    depths = [(t.value, t.depth) for t in tokenize("SELECT f((a), ')') FROM t")]
    assert depths == [("SELECT", 0), ("f", 0), ("(", 0), ("(", 1), ("a", 2), (")", 1),
                      (",", 1), (")", 1), (")", 0), ("FROM", 0), ("t", 0)]


@pytest.mark.parametrize("sql, skeleton", [
    ("SELECT a FROM t WHERE b = ';'", "SELECT _C FROM _T WHERE _C = _V"),
    ("SELECT ';', a FROM t", "SELECT _V, _C FROM _T"),
    ('SELECT ";" FROM t;', "SELECT _C FROM _T"),
])
def test_only_a_punctuation_semicolon_ends_a_statement(sql, skeleton):
    assert skeletonize(sql) == skeleton
    with pytest.raises(SqlParseError) as err:
        tokenize("SELECT 1; SELECT 2")
    assert str(err.value) == "multiple statements are not supported (at offset 8)"


# -- spelling -------------------------------------------------------------------------

# One SQL text of each schools corpus family, and texts with quoted names, a ""
# escape, whitespace in literals, subqueries and tokens whose spelling depends
# on a run between them.
_SCHOOLS_SQL = sorted({row["family"]: row["sql"] for row in schools_corpus()}.values()) + [
    'SELECT "School", "County" FROM schools WHERE "County" = \'San Joaquin\'',
    'SELECT School AS "a "" b", COUNT(*) AS "n  schools" FROM schools GROUP BY "a "" b"',
    "SELECT COUNT(*) FROM schools WHERE School = 'School 03' OR City = 'San  Jose'",
    'SELECT "Charter+1" FROM (SELECT Charter+1 FROM schools)',
    'WITH c AS (SELECT Charter + 1 FROM schools) SELECT "Charter + 1", COUNT(*) FROM c',
    "SELECT COUNT(*) FROM schools WHERE Charter = (SELECT MAX(Charter) FROM schools)",
    "SELECT 2-1, 2 - -1, x'41', 1 e FROM schools LIMIT 2",
]
_LITERAL_SQL = [sql for sql in _SCHOOLS_SQL if "'" in sql or '"' in sql]


@pytest.fixture(scope="module")
def conn(schools_db_path):
    connection = sqlite3.connect(str(schools_db_path))
    yield connection
    connection.close()


def _runs(sql):
    """(end of a token, start of the next, parentheses open between them)."""
    spans = token_spans(sql)
    return [(end, following, depth)
            for (_, end, depth), (following, _, _) in zip(spans, spans[1:])]


@st.composite
def _respaced(draw, sql):
    """One run between two tokens replaced: spelled alike outside parentheses."""
    end, following, depth = draw(st.sampled_from([r for r in _runs(sql) if r[1] > r[0]]))
    run = draw(SQL_RUNS.filter(bool))
    return sql[:end] + run + sql[following:], depth == 0 or run == sql[end:following]


@st.composite
def _joined_or_split(draw, sql):
    """Two tokens with a run between them made to touch, or two touching ones
    parted by a drawn run."""
    end, following, _ = draw(st.sampled_from(_runs(sql)))
    run = "" if following > end else draw(SQL_RUNS.filter(bool))
    return sql[:end] + run + sql[following:], False


@st.composite
def _literal_edited(draw, sql):
    """Whitespace put in, or taken out of, a string literal or a quoted name."""
    start, end = draw(st.sampled_from([
        m.span() for m in _TOKEN_RE.finditer(sql)
        if m.lastgroup in ("string", "quoted") and m.group()[0] in "'\""]))
    spaces = [i for i in range(start + 1, end - 1) if sql[i].isspace()]
    if spaces and draw(st.booleans()):
        i = draw(st.sampled_from(spaces))
        return sql[:i] + sql[i + 1:], False
    i = draw(st.integers(start + 1, end - 1))
    return sql[:i] + draw(st.sampled_from([" ", "\t", "\n"])) + sql[i:], False


_REWRITES = st.one_of(
    st.sampled_from(_SCHOOLS_SQL).flatmap(lambda sql: st.tuples(
        st.just(sql), st.one_of(_respaced(sql), _joined_or_split(sql),
                                respelled_sql(sql).map(lambda other: (other, True))))),
    st.sampled_from(_LITERAL_SQL).flatmap(lambda sql: st.tuples(st.just(sql),
                                                                _literal_edited(sql))),
)


@settings(max_examples=300, deadline=None)
@given(_REWRITES)
@example(("SELECT 2-1, 2 - -1, x'41', 1 e FROM schools LIMIT 2",
          ("SELECT 2-1, 2 - -- c)\n-1, x'41', 1 e FROM schools LIMIT 2", True)))
def test_texts_spelled_alike_run_alike(conn, rewrite):
    sql, (other, alike) = rewrite
    assert (spelling(other) == spelling(sql)) is alike
    if alike:
        assert execute_sql(other, conn) == execute_sql(sql, conn)


@pytest.mark.parametrize("sql, other, spelled_alike, run_alike", [
    ("SELECT 1e", "SELECT 1 e", False, False),
    ("SELECT COUNT(*) FROM schools WHERE School = 'School  03'",
     "SELECT COUNT(*) FROM schools WHERE School = 'School 03'", False, False),
    # a text that does not lex is its own spelling
    ("SELECT 'School 03", "SELECT  'School 03", False, True),
    # the subquery's column is named by its source text, runs and all
    ('SELECT "Charter + 1" FROM (SELECT Charter + 1 FROM schools)',
     'SELECT "Charter + 1" FROM (SELECT Charter  + 1 FROM schools)', False, False),
    ("SELECT\tCOUNT(*)\n  FROM schools -- every row\n", "SELECT COUNT(*) FROM schools",
     True, True),
    ("SELECT 2 - -1 /* three */", "SELECT 2-/**/-1", False, True),
])
def test_pinned_spellings(conn, sql, other, spelled_alike, run_alike):
    assert (spelling(sql) == spelling(other)) is spelled_alike
    assert (execute_sql(sql, conn) == execute_sql(other, conn)) is run_alike


def test_a_text_that_does_not_lex_is_its_own_spelling():
    for sql in ("SELECT  'School 03", "SELECT  #", "SELECT 1 /* open"):
        assert spelling(sql) == sql
