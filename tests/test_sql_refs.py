"""Reference extraction against the hand-labeled corpus and edge cases."""

import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlknow.errors import InvariantViolation, SqlParseError, UnresolvedIdentifierError
from sqlknow.knowledge import KnowledgeBase, SchemaAnnotation
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef, name_key, schema_from_ddl
from sqlknow.skeleton import skeletonize
from sqlknow.sql_refs import ParsedQuery, check_schema_consistency, extract_references
from sqlknow.sql_tokens import KEYWORDS, Kind, tokenize
from test_schema import _LETTERS, _recased, _SqliteLookups


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


# -- names resolve as SQLite resolves them -------------------------------------------

_name = st.text(alphabet=_LETTERS, min_size=1, max_size=4)


@st.composite
def _spelled(draw, name: str) -> tuple[str, bool]:
    """``name`` in a query, bare or bracketed, and whether the lexer reads it. A
    keyword is bracketed: how a keyword is read is not a question of names."""
    if draw(st.booleans()) or name.isascii() and name.upper() in KEYWORDS:
        return f"[{name}]", True
    return name, name.isascii()


@st.composite
def _one_table_queries(draw):
    """A schema with names unique by SQLite's rule, and one-table queries over it, each
    with the table and column it names: the schema's names in any case or other names,
    bare or bracketed, the column bare, qualified by the table or by an alias."""
    tables = [TableDef(t, tuple(ColumnDef(c) for c in draw(
                  st.lists(_name, min_size=1, max_size=3, unique_by=name_key))))
              for t in draw(st.lists(_name, min_size=1, max_size=3, unique_by=name_key))]
    table_names = st.sampled_from([t.name for t in tables]).flatmap(_recased) | _name
    column_names = st.sampled_from([c.name for t in tables for c in t.columns]).flatmap(
        _recased) | _name
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        table, column = draw(table_names), draw(column_names)
        (from_, lexes), (select, lexes_too) = draw(_spelled(table)), draw(_spelled(column))
        form = draw(st.sampled_from(["bare", "qualified", "aliased"]))
        if form != "bare":
            name = table if form == "qualified" else draw(_name)
            qualifier, lexes_q = draw(_spelled(draw(_recased(name) | _name)))
            select, lexes_too = f"{qualifier}.{select}", lexes_too and lexes_q
            if form == "aliased":
                alias, lexes_a = draw(_spelled(name))
                from_ = f"{from_}{draw(st.sampled_from([' ', ' AS ']))}{alias}"
                lexes = lexes and lexes_a
        queries.append((f"SELECT {select} FROM {from_}", lexes and lexes_too, table, column))
    return DatabaseSchema("db", tables), queries


_PROBE = DatabaseSchema("db", [TableDef("AΣ", (ColumnDef("x"), ColumnDef("É")))])


@settings(max_examples=300, deadline=None)
@given(_one_table_queries())
@example((_PROBE, [("SELECT [é] FROM [AΣ]", True, "AΣ", "é")]))
@example((_PROBE, [("SELECT x FROM [aς]", True, "aς", "x"),
                   ("SELECT x FROM [aσ]", True, "aσ", "x"),
                   ("SELECT [AΣ].X FROM [AΣ]", True, "AΣ", "X")]))
def test_names_resolve_as_sqlite_resolves_them(drawn):
    """A query passes the consistency check exactly when SQLite prepares it, and an
    annotation's target passes ``validate`` exactly when SQLite finds its column, by
    whose id ``annotation_for`` then finds it. The lexer reads no bare non-ASCII name,
    so a query holding one fails to parse whatever SQLite says."""
    schema, queries = drawn
    sqlite = _SqliteLookups(schema)
    for sql, lexes, table, column in queries:
        report = check_schema_consistency(sql, schema)
        if lexes:
            assert report.ok == sqlite.prepares(sql), (sql, report)
        else:
            assert not report.ok and report.diagnostics[0].startswith("parse: "), sql
        kb = KnowledgeBase("db", annotations=(SchemaAnnotation(f"{table}.{column}", "d"),))
        column_id = sqlite.resolve_column_id(f"{table}.{column}")
        if column_id is None:
            with pytest.raises(InvariantViolation):
                kb.validate(schema)
        else:
            kb.validate(schema)
            assert kb.annotation_for(column_id) is kb.annotations[0]
