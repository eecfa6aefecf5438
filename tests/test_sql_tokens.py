"""The one-pattern lexer against the character loop it replaced."""

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokenize_oracle
from fixture_db import edited_sql, schools_corpus
from sqlknow.errors import SqlParseError
from sqlknow.sql_tokens import tokenize

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


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.sampled_from(_CORPUS).flatmap(lambda sql: edited_sql(sql, min_edits=0)),
    st.text(st.sampled_from("SELECT a_1.;'\"`[]()-/*:@?<>=!|&~ \t\n\x0bé٣²"),
            max_size=24),
))
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
