"""The one-pattern lexer against the character loop it replaced."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokenize_oracle
from fixture_db import edited_sql, schools_corpus
from sqlknow.errors import SqlParseError
from sqlknow.skeleton import skeletonize
from sqlknow.sql_tokens import Kind, tokenize

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
