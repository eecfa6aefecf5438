"""Reference extraction against the hand-labeled corpus and edge cases."""

import sqlite3

import pytest

from sqlknow.errors import SqlParseError, UnresolvedIdentifierError
from sqlknow.schema import schema_from_ddl
from sqlknow.skeleton import skeletonize
from sqlknow.sql_refs import ParsedQuery, check_schema_consistency, extract_references
from sqlknow.sql_tokens import Kind, tokenize


def test_join_with_aliases(racing):
    refs = extract_references(
        "SELECT a.name FROM circuits a JOIN races b ON a.circuitId = b.circuitId", racing
    )
    assert refs.tables == {"circuits", "races"}
    assert refs.columns == {"circuits.name", "circuits.circuitId", "races.circuitId"}


def test_constant_select_is_empty(racing):
    refs = extract_references("SELECT 1", racing)
    assert refs.tables == frozenset() and refs.columns == frozenset()


def test_star_expansion(racing):
    refs = extract_references("SELECT * FROM constructors", racing)
    assert refs.columns == {
        "constructors.constructorId",
        "constructors.constructorRef",
        "constructors.name",
        "constructors.nationality",
    }


def test_unresolved_identifiers_are_reported(racing):
    with pytest.raises(UnresolvedIdentifierError) as err:
        extract_references("SELECT bogus, alsobad FROM circuits", racing)
    assert err.value.names == ["alsobad", "bogus"]


def test_every_column_table_is_listed(racing, skeleton_corpus):
    for row in skeleton_corpus:
        refs = extract_references(row["sql"], racing)
        for col in refs.columns:
            assert col.split(".", 1)[0] in refs.tables, row["id"]


def test_corpus_references_match_hand_labels(racing, skeleton_corpus):
    mismatches = []
    for row in skeleton_corpus:
        refs = extract_references(row["sql"], racing)
        got_tables = sorted(refs.tables)
        got_columns = sorted(refs.columns)
        if got_tables != row["tables"] or got_columns != row["columns"]:
            mismatches.append((row["id"], row["tables"], got_tables,
                               row["columns"], got_columns))
    assert not mismatches, "\n".join(
        f"#{i}: tables expected {te} got {tg}\n    columns expected {ce}\n"
        f"    columns got      {cg}"
        for i, te, tg, ce, cg in mismatches
    )


def test_consistency_ok(racing):
    assert check_schema_consistency("SELECT name FROM circuits", racing).ok


def test_consistency_names_missing_column(racing):
    report = check_schema_consistency("SELECT missingcol FROM circuits", racing)
    assert not report.ok
    assert any("missingcol" in d for d in report.diagnostics)


def test_consistency_parse_failure(racing):
    report = check_schema_consistency("SELECT FROM WHERE ((", racing)
    assert not report.ok
    assert any("parse" in d for d in report.diagnostics)


def test_consistency_is_false_branch_not_exception(racing):
    for text in ["", "x y z", "SELECT nope FROM races", "DELETE FROM races"]:
        report = check_schema_consistency(text, racing)
        assert report.ok is False


def test_columns_named_like_ddl_words_are_columns():
    # words that only a CREATE TABLE statement uses are legal column names in a query
    ddl = (
        'CREATE TABLE t (id INTEGER PRIMARY KEY, key TEXT, "if" TEXT, "check" TEXT);'
        "INSERT INTO t VALUES (1, 'k', 'i', 'c');"
    )
    schema = schema_from_ddl(ddl, "ddl_words")
    sql = 'SELECT key, "check" FROM t WHERE if = \'i\' AND t.id = 1'
    with sqlite3.connect(":memory:") as conn:
        conn.executescript(ddl)
        assert conn.execute(sql).fetchall() == [("k", "c")]
    assert skeletonize(sql) == "SELECT _C, _C FROM _T WHERE _C = _V AND _C = _V"
    assert extract_references(sql, schema).columns == {"t.id", "t.key", "t.if", "t.check"}
    assert check_schema_consistency(sql, schema).ok


@pytest.mark.parametrize("sql", ["SELECT :1", "SELECT @é", "SELECT :", "SELECT @"])
def test_a_parameter_sign_before_no_name_is_a_parse_error(sql):
    with pytest.raises(SqlParseError) as failed:
        tokenize(sql)
    assert failed.value.position == 7
    assert str(failed.value) == f"unexpected character {sql[7]!r} (at offset 7)"


def test_named_parameters_still_tokenize():
    tokens = tokenize("SELECT :a, @_b1, ?")
    assert [(t.kind, t.value, t.pos) for t in tokens if t.kind is Kind.PARAM] == \
        [(Kind.PARAM, ":a", 7), (Kind.PARAM, "@_b1", 11), (Kind.PARAM, "?", 17)]


@pytest.mark.parametrize("literal, masked, diagnostics", [
    ("'('", "_V", ()),
    ("')'", "_V", ()),
    ('"("', "_C", ("unresolved: (",)),
])
def test_a_parenthesis_literal_moves_no_depth(schools, literal, masked, diagnostics):
    sql = (f"SELECT School FROM schools WHERE City = {literal} AND CDSCode IN "
           "(SELECT cds FROM satscores) ORDER BY School")
    assert skeletonize(sql) == (
        f"SELECT _C FROM _T WHERE _C = {masked} AND _C IN (SELECT _C FROM _T) ORDER BY _C")
    query = ParsedQuery(sql)
    assert query.ordered
    assert query.consistency(schools).diagnostics == diagnostics


def test_an_order_by_after_a_closing_parenthesis_literal_is_top_level():
    assert ParsedQuery("SELECT a FROM t WHERE b = ')' ORDER BY a").ordered
