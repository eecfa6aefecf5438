"""Reference extraction against the hand-labeled corpus, the resolver it
replaced and edge cases."""

import ast
import json
import re
import sqlite3
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import parse_oracle as oracle
from fixture_db import edited_sql, racing_schema, schools_corpus, schools_schema
from sqlknow.errors import InvariantViolation, SqlParseError, UnresolvedIdentifierError
from sqlknow.knowledge import KnowledgeBase, SchemaAnnotation
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef, name_key, schema_from_ddl
from sqlknow.skeleton import skeletonize
from sqlknow.sql_refs import (
    UNRESOLVABLE,
    ParsedQuery,
    ReferenceSet,
    check_schema_consistency,
    extract_references,
)
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
    # SQLite stops at the first name it cannot resolve
    with pytest.raises(UnresolvedIdentifierError) as err:
        extract_references("SELECT bogus, alsobad FROM circuits", racing)
    assert err.value.names == ["bogus"]


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
def _spelled(draw, name: str) -> str:
    """``name`` in a query, bare or bracketed."""
    return f"[{name}]" if draw(st.booleans()) else name


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
        from_, select = draw(_spelled(table)), draw(_spelled(column))
        form = draw(st.sampled_from(["bare", "qualified", "aliased"]))
        if form != "bare":
            name = table if form == "qualified" else draw(_name)
            select = f"{draw(_spelled(draw(_recased(name) | _name)))}.{select}"
            if form == "aliased":
                from_ = f"{from_}{draw(st.sampled_from([' ', ' AS ']))}{draw(_spelled(name))}"
        queries.append((f"SELECT {select} FROM {from_}", table, column))
    return DatabaseSchema("db", tables), queries


_PROBE = DatabaseSchema("db", [TableDef("AΣ", (ColumnDef("x"), ColumnDef("É")))])


@settings(max_examples=300, deadline=None)
@given(_one_table_queries())
@example((_PROBE, [("SELECT [é] FROM [AΣ]", "AΣ", "é")]))
@example((_PROBE, [("SELECT x FROM [aς]", "aς", "x"),
                   ("SELECT x FROM [aσ]", "aσ", "x"),
                   ("SELECT [AΣ].X FROM [AΣ]", "AΣ", "X"),
                   ("SELECT É FROM AΣ", "AΣ", "É")]))
@example((DatabaseSchema("db", [TableDef("t", (ColumnDef("as"), ColumnDef("is")))]),
          [("SELECT as FROM t", "t", "as"), ("SELECT t.is FROM t", "t", "is")]))
def test_names_resolve_as_sqlite_resolves_them(drawn):
    """A query passes the consistency check exactly when SQLite prepares it, and an
    annotation's target passes ``validate`` exactly when SQLite finds its column, by
    whose id ``annotation_for`` then finds it. Names are drawn bare as often as
    bracketed, keywords and names outside ASCII among them."""
    schema, queries = drawn
    sqlite = _SqliteLookups(schema)
    for sql, table, column in queries:
        report = check_schema_consistency(sql, schema)
        assert report.ok == sqlite.prepares(sql), (sql, report)
        kb = KnowledgeBase("db", annotations=(SchemaAnnotation(f"{table}.{column}", "d"),))
        column_id = sqlite.resolve_column_id(f"{table}.{column}")
        if column_id is None:
            with pytest.raises(InvariantViolation):
                kb.validate(schema)
        else:
            kb.validate(schema)
            assert kb.annotation_for(column_id) is kb.annotations[0]


@pytest.mark.parametrize("sql, diagnostic", [
    ("SELECT School FROM schools; DROP TABLE schools",
     "multiple statements are not supported (at offset 26)"),
    ("SELECT School FROM schools;;", "You can only execute one statement at a time."),
    ("SELECT School FROM schools WHERE City = 'a\0b'", "the query contains a null character"),
    ("SELECT Sch\ud800ool FROM schools", "'utf-8' codec can't encode character '\\ud800' "
     "in position 18: surrogates not allowed"),
    ("SELECT School FROM schools WHERE City = ?;;",
     "You can only execute one statement at a time."),
])
def test_a_text_python_cannot_hand_to_sqlite_is_refused(schools, sql, diagnostic):
    assert check_schema_consistency(sql, schools).diagnostics == (f"parse: {diagnostic}",)
    with pytest.raises(SqlParseError):
        ParsedQuery(sql).references(schools)


def test_a_double_quoted_name_is_a_name(schools):
    assert check_schema_consistency('SELECT "Schol" FROM schools', schools).diagnostics == (
        "unresolved: Schol",)
    assert extract_references('SELECT "School" FROM "schools" WHERE "City" = \'Fresno\'',
                              schools).columns == {"schools.School", "schools.City"}
    assert extract_references('SELECT "a`b" FROM (SELECT School AS `a``b` FROM schools)',
                              schools).columns == {"schools.School"}


def test_a_bare_keyword_is_no_column_name():
    schema = DatabaseSchema("db", [TableDef("t", (ColumnDef("as"), ColumnDef("is")))])
    for word in ("as", "is"):
        report = check_schema_consistency(f"SELECT {word} FROM t", schema)
        assert report.diagnostics == (f'parse: near "{word}": syntax error',)
        assert extract_references(f"SELECT [{word}] FROM t", schema).columns == {f"t.{word}"}


# -- SQLite's reading against the resolver it replaced -------------------------------

RACING = racing_schema()
SCHOOLS = schools_schema()


def _refs(*column_ids: str, tables: tuple[str, ...] = ()) -> ReferenceSet:
    return ReferenceSet(frozenset(tables) | {c.split(".")[0] for c in column_ids},
                        frozenset(column_ids))


JOIN_READS = _refs("drivers.driverId", "drivers.surname", "results.driverId")
# Texts both readings read alike, and one text of each class where they differ
# but for SQLite's refusals (REFUSALS), named as _difference names it, with
# SQLite's reading and the resolver's. A reading is a ReferenceSet or the error
# raised.
PINNED = {
    # the join gap, filled: SQLite 3.40 reports neither the join column nor `results`
    "using": ("SELECT surname FROM drivers JOIN results USING (driverId)", RACING,
              JOIN_READS, JOIN_READS),
    "natural": ("SELECT surname FROM drivers NATURAL JOIN results", RACING,
                JOIN_READS, JOIN_READS),
    "count-star": ("SELECT COUNT(*) FROM drivers", RACING,
                   _refs(tables=("drivers",)), _refs(tables=("drivers",))),
    # a parameter is bound after the prepare, and bound to NULL for a join's program
    "parameter": ("SELECT surname FROM drivers JOIN results USING (driverId) WHERE points > ?",
                  RACING, _refs(*JOIN_READS.columns, "results.points"),
                  _refs(*JOIN_READS.columns, "results.points")),
    "double-quoted": ('SELECT "nope" FROM circuits', RACING,
                      UnresolvedIdentifierError(["nope"]), UnresolvedIdentifierError(["nope"])),
    # both tables have `name`: the resolver took the first in FROM order
    "ambiguous": ("SELECT name FROM circuits JOIN races ON circuits.circuitId = races.circuitId",
                  RACING, UnresolvedIdentifierError(["name"]),
                  _refs("circuits.circuitId", "circuits.name", "races.circuitId")),
    # the resolver dropped what names the database of a table or column
    "database name": ("SELECT raceId FROM aux.races", RACING,
                      UnresolvedIdentifierError(["aux.races"]), _refs("races.raceId")),
    # SQLite reads a keyword where it expects a name as that name
    "keyword as a name": ("SELECT surname FROM drivers ORDER BY DESC", RACING,
                          UnresolvedIdentifierError(["DESC"]), _refs("drivers.surname")),
    # SQLite reads a literal beside a dot as a name
    "literal beside a dot": ("SELECT surname FROM drivers WHERE nationality . 'British'", RACING,
                             UnresolvedIdentifierError(["nationality.British"]),
                             _refs("drivers.nationality", "drivers.surname")),
    # `IN t(...)` reads table(-valued function) t; the resolver read a function call
    "IN a table": ("SELECT name FROM circuits WHERE country IN t('Italy')", RACING,
                   UnresolvedIdentifierError(["t"]), _refs("circuits.country", "circuits.name")),
    # the resolver let any name pass on a derived table with an unnamed output
    "parameter output": (
        "SELECT * FROM (SELECT surname, :nationality FROM drivers) WHERE nationality = 'Spanish'",
        RACING, UnresolvedIdentifierError(["nationality"]), _refs("drivers.surname")),
    # SQLite reads a named parameter and a parenthesis right after it as one
    # (Tcl-style) variable; the lexer reads a parameter, then an expression
    "tcl variable": ("SELECT :MAX(f.Enrollment) FROM frpm f", SCHOOLS,
                     _refs(tables=("frpm",)), _refs("frpm.Enrollment")),
    # SQLite compiles no CTE that nothing reads
    "unused CTE": ("WITH a AS (SELECT driverId FROM results) SELECT COUNT(*) FROM drivers",
                   RACING, _refs(tables=("drivers",)),
                   _refs("results.driverId", tables=("drivers",))),
    # SQLite tries a compound's ORDER BY term on the first SELECT too
    "compound ORDER BY": ("SELECT @name FROM circuits UNION SELECT name FROM races ORDER BY name",
                          RACING, _refs("circuits.name", "races.name"),
                          _refs("races.name", tables=("circuits",))),
    # SQLite reads a literal where it expects a table as that table's name
    "literal as a table": ("SELECT surname FROM 'drivers'", RACING, _refs("drivers.surname"),
                           SqlParseError("unexpected token 'drivers' in FROM", 20)),
    "alias without AS": ("SELECT COUNT(*) FROM drivers 'd'", RACING, _refs(tables=("drivers",)),
                         SqlParseError("unexpected token 'd' in FROM", 29)),
    # a type name outside the resolver's list, of one word or more
    "type name": ("SELECT CAST(points AS BIG INTEGRAL) FROM results", RACING,
                  _refs("results.points"), UnresolvedIdentifierError(["big", "integral"])),
    # the resolver counts a parenthesis by its value, inside a literal too
    "literal parenthesis": ("SELECT School FROM schools WHERE Virtual = ')'", SCHOOLS,
                            _refs("schools.School", "schools.Virtual"),
                            SqlParseError("unbalanced closing parenthesis", 43)),
}


# Each refusal, by SQLite or by Python's sqlite3, of a check that the
# resolver's walk never made: the phrase of its message that names it, and a
# text it refuses that the resolver reads.
REFUSALS = {
    "syntax error": ("SELECT surname, FROM drivers", RACING),
    "incomplete input": ("SELECT surname FROM drivers WHERE", RACING),
    # a number run into a name; the lexer reads two tokens
    "unrecognized token": ("SELECT year FROM races GROUP BY 1year", RACING),
    "no such function": ("SELECT CUNT(raceId) FROM races", RACING),
    "wrong number of arguments": ("SELECT COUNT(DISTINCT raceId, points) FROM results", RACING),
    # the outer AVG inside its own subquery
    "misuse of aggregate": ("SELECT AVG(satscores.cds) FROM satscores WHERE satscores.NumTstTakr"
                            " > (SELECT AVG(satscores.NumGE1500) FROM schools)", SCHOOLS),
    "misuse of window function": ("SELECT raceId FROM results WHERE RANK() OVER () > 1", RACING),
    "aggregate functions are not allowed": ("SELECT raceId FROM results GROUP BY SUM(points)",
                                            RACING),
    "is not a function": ("SELECT year FROM races()", RACING),
    "no such window": ("SELECT SUM(points) OVER 'w' FROM results", RACING),
    "no tables specified": ("SELECT *", RACING),
    "ORDER BY term out of range": ("SELECT surname dob FROM drivers ORDER BY 2", RACING),
    "GROUP BY term out of range": ("SELECT raceId FROM results GROUP BY 2", RACING),
    "ORDER BY term does not match": (
        "SELECT name FROM circuits UNION SELECT name FROM races ORDER BY :name", RACING),
    "ORDER BY clause should come after": (
        "SELECT raceId FROM results ORDER BY raceId UNION SELECT raceId FROM races", RACING),
    "do not have the same number of result columns": (
        "SELECT raceId FROM results UNION SELECT raceId, points FROM results", RACING),
    "sub-select returns": (
        "SELECT raceId FROM results WHERE raceId IN (SELECT raceId, points FROM results)", RACING),
    "row value misused": ("SELECT year FROM races GROUP BY (year, round)", RACING),
    "a JOIN clause is required": ("SELECT surname FROM drivers JOINresults USING (driverId)",
                                  RACING),
    "a NATURAL join may not have": (
        "SELECT surname FROM drivers NATURAL JOIN results USING (driverId)", RACING),
    "cannot join using column": ("SELECT surname FROM drivers JOIN results USING (surname)",
                                 RACING),
    "variable number must be": ("SELECT points FROM results WHERE laps > ?0", RACING),
    # Python's sqlite3 runs one statement; the lexer drops every trailing semicolon
    "You can only execute one statement at a time": ("SELECT surname FROM drivers;;", RACING),
}


def _reading(read):
    try:
        return read()
    except UNRESOLVABLE as exc:
        return exc


def _same(reading, expected) -> bool:
    if isinstance(expected, Exception):
        return type(reading) is type(expected) and str(reading) == str(expected)
    return reading == expected


def _agree(sqlite, resolver) -> bool:
    return sqlite == resolver or all(isinstance(r, Exception) for r in (sqlite, resolver))


@pytest.mark.parametrize("name", PINNED)
def test_each_class_where_the_readings_differ_is_pinned(name):
    sql, schema, sqlite, resolver = PINNED[name]
    read = _reading(lambda: ParsedQuery(sql).references(schema))
    resolved = _reading(lambda: oracle.extract_references(sql, schema))
    assert _same(read, sqlite) and _same(resolved, resolver), (read, resolved)
    assert _difference(sql, schema, read, resolved) == (None if _agree(read, resolved) else name)


@pytest.mark.parametrize("check", REFUSALS)
def test_each_refusal_the_resolver_never_checked_is_pinned(check):
    sql, schema = REFUSALS[check]
    refused = _reading(lambda: ParsedQuery(sql).references(schema))
    resolved = oracle.extract_references(sql, schema)
    assert isinstance(refused, SqlParseError) and check in str(refused), refused
    assert _difference(sql, schema, refused, resolved) == check


_CORPUS_SQL = sorted({row["sql"] for row in schools_corpus()} | {
    json.loads(line)["sql"]
    for line in (Path(__file__).parent / "data" / "skeleton_corpus.jsonl").read_text().splitlines()
    if line.strip()})


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_CORPUS_SQL).flatmap(lambda sql: edited_sql(sql, min_edits=0)))
@example(PINNED["using"][0])
@example(PINNED["natural"][0])
@example("SELECT \"surn/*ame\" FROM \"drivers\" WHERE `nationality` = 'Dutch'")
@example("SELECT aux.drivers.surname FROM drivers")  # a database name before a column
def test_sqlite_reads_what_the_resolver_it_replaced_read(sql):
    """On corpus SQL with characters inserted, deleted or replaced, both read the
    same tables and columns or both fail, unless the text is of a pinned class."""
    for schema in (RACING, SCHOOLS):
        query = ParsedQuery(sql)
        sqlite = _reading(lambda: query.references(schema))
        assert query.consistency(schema).ok is isinstance(sqlite, ReferenceSet)
        resolver = _reading(lambda: oracle.extract_references(sql, schema))
        if not _agree(sqlite, resolver):
            assert _difference(sql, schema, sqlite, resolver), (schema.db_id, sqlite, resolver)


_TCL_VARIABLE = re.compile(r"[:@][A-Za-z_0-9\u0080-\U0010ffff]+\(")
_VALUES = (Kind.IDENT, Kind.NUMBER, Kind.STRING, Kind.PARAM)


def _difference(sql: str, schema, sqlite, resolver) -> str | None:
    """The class in PINNED or REFUSALS that explains why the readings of ``sql``
    differ, or None.
    Only a text that passed the statement check reaches SQLite, so it lexes."""
    tokens = tokenize(sql)
    pairs = list(zip(tokens, tokens[1:]))
    if any(ch in t.value for t in tokens if t.kind in (Kind.STRING, Kind.IDENT) for ch in "();"):
        return "literal parenthesis"
    if isinstance(sqlite, SqlParseError):
        message = re.sub(r'^near ".*": ', "", str(sqlite), flags=re.S)
        return next((check for check in REFUSALS if check in message), None)
    if isinstance(sqlite, UnresolvedIdentifierError):
        message = _sqlite_message(sql, schema)
        if message.startswith("ambiguous column name: "):
            return "ambiguous"
        parts = sqlite.names[0].count(".") + 1
        if parts == 3 or parts == 2 and message.startswith("no such table: "):
            return "database name"
        if any(part.upper() in KEYWORDS for part in sqlite.names[0].split(".")):
            return "keyword as a name"
        if any(a.value == "." and b.kind is Kind.STRING or b.value == "." and a.kind is Kind.STRING
               for a, b in pairs):
            return "literal beside a dot"
        if any(a.is_kw("IN") and b.kind is Kind.IDENT for a, b in pairs):
            return "IN a table"
        if any(b.kind is Kind.PARAM and b.depth and (a.is_kw("SELECT") or a.value == ",")
               for a, b in pairs):
            return "parameter output"
        return None
    # SQLite reads the text, and the resolver fails on it or reads otherwise
    if _TCL_VARIABLE.search(sql):
        return "tcl variable"
    if _unused_cte(tokens) and (isinstance(resolver, Exception) or (
            sqlite.tables <= resolver.tables and sqlite.columns <= resolver.columns)):
        return "unused CTE"
    if all(any(t.depth == 0 and t.is_kw(*words) for t in tokens)
           for words in (("UNION", "INTERSECT", "EXCEPT"), ("ORDER",))):
        return "compound ORDER BY"
    names = _misread_names(sqlite, resolver) or {None}
    aliases = {name_key(b.value) for a, b in pairs
               if b.kind in (Kind.IDENT, Kind.STRING) and (a.kind in _VALUES or a.value == ")")}
    if names <= aliases:
        return "alias without AS"
    if names <= {name_key(b.value) for a, b in pairs
                 if b.kind is Kind.STRING and (a.is_kw("FROM", "JOIN") or a.value == ",")}:
        return "literal as a table"
    if names <= aliases | _type_names(tokens):  # a type name, aliased or not
        return "type name"
    return None


def _type_names(tokens) -> set[str]:
    """The name keys of each run of names between AS and a closing parenthesis."""
    names = set()
    for i, tok in enumerate(tokens):
        end = i + 1
        while end < len(tokens) and tokens[end].kind is Kind.IDENT:
            end += 1
        if tok.is_kw("AS") and end < len(tokens) and tokens[end].value == ")":
            names |= {name_key(t.value) for t in tokens[i + 1:end]}
    return names


def _sqlite_message(sql: str, schema) -> str:
    try:
        schema.database.execute("EXPLAIN " + sql).close()
    except sqlite3.Error as exc:
        return str(exc)
    return ""


def _unused_cte(tokens) -> bool:
    """The text leads with a CTE that no later name reads."""
    if not tokens[0].is_kw("WITH"):
        return False
    main = next((i for i, t in enumerate(tokens) if t.depth == 0 and t.is_kw("SELECT")), 0)
    keys = [name_key(t.value) for t in tokens if t.kind is Kind.IDENT]
    return any(keys.count(name_key(b.value)) == 1 for a, b in zip(tokens, tokens[1:main])
               if b.kind is Kind.IDENT and b.depth == 0
               and (a.is_kw("WITH", "RECURSIVE") or a.value == ","))


def _misread_names(sqlite: ReferenceSet, resolver) -> set[str] | None:
    """The name keys that the resolver failed on, or read beyond SQLite's reading."""
    if isinstance(resolver, UnresolvedIdentifierError):
        return {name_key(n) for n in resolver.names}
    if isinstance(resolver, SqlParseError):
        token = re.match(r"unexpected token (.*) in FROM", str(resolver), re.S)
        return token and {name_key(ast.literal_eval(token[1]))}  # a repr
    if sqlite.tables == resolver.tables and sqlite.columns < resolver.columns:
        return {name_key(c.split(".", 1)[1]) for c in resolver.columns - sqlite.columns}
    return None
