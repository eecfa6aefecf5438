"""Schema model: invariants, serialization, DDL and SQLite ingestion."""

import os
import re
import sqlite3
import sys
import threading
from contextlib import closing

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import schema_oracle
from schema_oracle import SchemaLookups
from sqlknow import schema as schema_module
from sqlknow.errors import InvariantViolation
from sqlknow.records import from_json, to_json, write_json
from sqlknow.schema import (
    _NO_AUTHORIZER,
    ColumnDef,
    DatabaseSchema,
    TableDef,
    _allow_all,
    load_schema,
    load_schema_any,
    open_sqlite,
    schema_from_ddl,
    schema_from_sqlite,
    schema_from_sqlite_file,
    name_key,
)


def test_duplicate_table_rejected():
    schema = DatabaseSchema(db_id="x", tables=[TableDef("t", (ColumnDef("a"),)),
                                               TableDef("T", (ColumnDef("b"),))])
    with pytest.raises(InvariantViolation):
        schema.validate()


def test_duplicate_column_rejected():
    schema = DatabaseSchema(
        db_id="x", tables=[TableDef("t", (ColumnDef("a"), ColumnDef("A")))]
    )
    with pytest.raises(InvariantViolation):
        schema.validate()


def test_dangling_foreign_key_rejected():
    schema = DatabaseSchema(
        db_id="x",
        tables=[TableDef("t", (ColumnDef("a", fk="missing.col"),))],
    )
    with pytest.raises(InvariantViolation):
        schema.validate()


def test_case_insensitive_lookup(racing):
    assert racing.has_table("CIRCUITS")
    assert racing.table_by_key[name_key("Circuits")].name == "circuits"
    assert racing.resolve_column_id("CIRCUITS.circuitid") == "circuits.circuitId"
    assert racing.resolve_column_id("RACES.YEAR") == "races.year"
    assert racing.resolve_column_id("races.nope") is None


# A capital sigma lowers by its neighbours, to a final or a medial sigma; long s,
# the Kelvin sign, dotted and dotless i and sharp s change to other letters when
# cased. "_" and "__" have no identifier part.
_LETTERS = "aAbBsS\u03a3\u03c3\u03c2\u017fKk\u212a\u0130i\u0131\u00df_"
_table_name = st.text(alphabet=_LETTERS, min_size=1, max_size=4) | st.sampled_from(["_", "__"])
_column_name = st.text(alphabet=_LETTERS + ".", min_size=1, max_size=4)


@st.composite
def _recased(draw, name: str) -> str:
    return "".join(c.upper() if draw(st.booleans()) else c.lower() for c in name)


@st.composite
def _schema_and_queries(draw):
    """A schema that passes ``validate``, and names and ids to look up: its own in
    random case, unknown ones with zero, one or two dots, and its tables with any
    column. Names are unique by SQLite's rule, so tables ``\u00c9`` and ``\u00e9`` may
    both be drawn."""
    tables = [TableDef(t, tuple(ColumnDef(c) for c in draw(
                  st.lists(_column_name, max_size=3, unique_by=name_key))))
              for t in draw(st.lists(_table_name, min_size=1, max_size=3, unique_by=name_key))]
    schema = DatabaseSchema("db", tables)
    schema.validate()
    ids = [f"{t.name}.{c.name}" for t in tables for c in t.columns]
    own = st.sampled_from([t.name for t in tables] + ids).flatmap(_recased)
    any_column = st.tuples(st.sampled_from([t.name for t in tables]).flatmap(_recased),
                           _column_name).map(".".join)
    unknown = st.lists(_table_name, min_size=1, max_size=3).map(".".join)
    return schema, draw(st.lists(own | any_column | unknown, max_size=12))


def _outcome(lookup, *args):
    """The lookup's answer, or KeyError; the key a KeyError carries is no answer."""
    try:
        return lookup(*args)
    except KeyError:
        return KeyError


def _bracketed(name: str) -> str:
    return f"[{name}]"  # no drawn name holds a "]"


class _SqliteLookups:
    """The lookups as SQLite answers them, on an in-memory database holding the
    schema's tables: a table is one that ``SELECT`` reads from, its name the one
    that SQLite's identifier collation (``NOCASE``) equates with the query, and a
    column id one whose column SQLite selects from that table."""

    def __init__(self, schema: DatabaseSchema):
        self._schema = schema
        self._conn = sqlite3.connect(":memory:")
        for t in schema.tables:
            # SQLite needs a column; no drawn name holds a digit
            columns = [c.name for c in t.columns] or ["0"]
            self._conn.execute(f"CREATE TABLE {_bracketed(t.name)} "
                               f"({', '.join(map(_bracketed, columns))})")

    def prepares(self, sql: str) -> bool:
        try:
            self._conn.execute(sql)
        except sqlite3.OperationalError:
            return False
        return True

    def has_table(self, name: str) -> bool:
        return self.prepares(f"SELECT 1 FROM {_bracketed(name)}")

    def table(self, name: str) -> TableDef:
        rows = self._conn.execute("SELECT name FROM sqlite_master WHERE type = 'table' "
                                  "AND name = ? COLLATE NOCASE", (name,)).fetchall()
        if not rows:
            raise KeyError(name)
        return next(t for t in self._schema.tables if t.name == rows[0][0])

    def resolve_column_id(self, column_id: str) -> str | None:
        table, dot, column = column_id.partition(".")
        if not dot or not self.has_table(table):
            return None
        sql = f"SELECT {_bracketed(column)} FROM {_bracketed(table)}"
        if not self.prepares(sql):
            return None
        return f"{self.table(table).name}.{self._conn.execute(sql).description[0][0]}"


def _rules_agree(schema: DatabaseSchema, query: str) -> bool:
    """Whether ``name_key`` and lowering each name alone equate ``query``, as a table
    name and as a ``table.column`` id split at its first ".", with the same names."""
    def same(a: str, b: str) -> bool:
        return name_key(a) == name_key(b)

    def same_lowered(a: str, b: str) -> bool:
        return a.lower() == b.lower()

    table, _dot, column = query.partition(".")
    for t in schema.tables:
        # a column id's table part too: the dicts find its table before its column
        if any(same(q, t.name) != same_lowered(q, t.name) for q in (query, table)):
            return False
        for c in t.columns:
            if (same(table, t.name) and same(column, c.name)) != (
                    same_lowered(table, t.name) and same_lowered(column, c.name)):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(_schema_and_queries())
@example((DatabaseSchema("db", [TableDef("a", (ColumnDef("b.c"),))]), ["A.B.C", "a.b"]))
# SQLite and the oracle differ here: "a\u03a3".lower() and "a\u03c2".lower() are equal
@example((DatabaseSchema("db", [TableDef("a\u03a3", (ColumnDef("\u03a3"),))]),
          ["A\u03a3.\u03c3", "a\u03c2.\u03a3", "a\u03c2"]))
# lowering equates "k" with KELVIN SIGN, a table without columns listed after "K"
@example((DatabaseSchema("db", [TableDef("K", (ColumnDef("A"),)), TableDef("\u212a", ())]),
          ["k.a"]))
def test_lookups_answer_as_the_per_schema_dicts_did(drawn):
    schema, queries = drawn
    old, sqlite = SchemaLookups(schema), _SqliteLookups(schema)
    for q in queries:
        table = _outcome(lambda name: schema.table_by_key[name_key(name)], q)
        answers = (schema.has_table(q), table, schema.resolve_column_id(q))
        assert answers == (sqlite.has_table(q), _outcome(sqlite.table, q),
                           sqlite.resolve_column_id(q))
        if _rules_agree(schema, q):
            assert answers == (old.has_table(q), _outcome(old.table, q),
                               old.resolve_column_id(q))


def test_schema_file_round_trip(tmp_path, racing):
    path = tmp_path / "schema.json"
    write_json(path, to_json(racing))
    loaded = load_schema(path)
    assert loaded.db_id == racing.db_id
    assert loaded.tables == racing.tables
    assert from_json(DatabaseSchema, to_json(racing)) == racing


def test_ddl_ingestion():
    ddl = """
    CREATE TABLE circuits (
        circuitId INTEGER PRIMARY KEY,
        circuitRef TEXT,
        name TEXT
    );
    CREATE TABLE races (
        raceId INTEGER PRIMARY KEY,
        circuitId INTEGER REFERENCES circuits(circuitId),
        year INTEGER,
        FOREIGN KEY (circuitId) REFERENCES circuits(circuitId)
    );
    """
    schema = schema_from_ddl(ddl, "racing")
    assert schema.has_table("races")
    assert schema.table_by_key["circuits"].columns[0].pk
    assert schema.table_by_key["races"].columns[1].fk == "circuits.circuitId"


def test_sqlite_introspection(schools_db_path):
    conn = sqlite3.connect(str(schools_db_path))
    try:
        schema = schema_from_sqlite(conn, "schools")
    finally:
        conn.close()
    assert {t.name for t in schema.tables} == {"schools", "frpm", "satscores"}
    frpm_cds = schema.table_by_key["frpm"].columns[0]
    assert frpm_cds.fk == "schools.CDSCode"
    assert schema.value_samples["schools.Virtual"] == ["F", "N", "P"]  # sorted distinct
    assert len(schema.value_samples["schools.CDSCode"]) == 40


def test_value_samples_deterministic_and_capped(schools, schools_db_path):
    from fixture_db import schools_schema, schools_value_samples

    again = schools_value_samples(schools_db_path, schools_schema())
    assert again.value_samples == schools.value_samples  # deterministic order
    for col_id, values in schools.value_samples.items():
        assert len(values) <= 200
        assert len(values) == len(set(values))  # distinct
    # text columns come out engine-sorted
    assert schools.value_samples["schools.County"] == sorted(
        schools.value_samples["schools.County"]
    )


# -- .sql dumps load to the schema of the .sqlite file they build ---------------------


def _sqlite_reference(tmp_path, ddl: str, db_id: str) -> DatabaseSchema:
    """The schema of the SQLite file that ``ddl`` builds: the reference for a dump."""
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}.sqlite"
    with closing(sqlite3.connect(str(path))) as conn:
        conn.executescript(ddl)
    return schema_from_sqlite_file(path, db_id)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _bare_if_legal(name: str) -> str:
    return name if name in _BARE else _quote(name)


# Names a hand-written tokenizer reads as keywords or cuts short, and quoted names.
_NAMES = st.sampled_from(["id", "key", "order", "select", "table", "Group", "value", "a b",
                          'x"y', "größe", "primary", "references", "check", "name"])
# Of those, the names SQLite also takes unquoted.
_BARE = {"id", "key", "value", "größe", "name"}
_TYPES = st.sampled_from(["", "INTEGER", "text", "VARCHAR(255)", "DECIMAL(10, 2)",
                          "numeric(8,3)", "DOUBLE PRECISION", "character varying(20)"])


@st.composite
def _dumps(draw):
    """A dump of up to three tables with inline and table-level, named and
    unnamed primary and foreign keys and some rows, and the schema it states."""
    tables = draw(st.lists(_NAMES, min_size=1, max_size=3, unique_by=str.lower))
    q = draw(st.sampled_from([_quote, _bare_if_legal]))
    statements, expected = [], []
    for t_index, table in enumerate(tables):
        columns = draw(st.lists(_NAMES, min_size=1, max_size=4, unique_by=str.lower))
        types = [draw(_TYPES) for _ in columns]
        pk_style = draw(st.sampled_from(["none", "inline", "table", "named"]))
        pk_cols = ([columns[0]] if pk_style == "inline"
                   else draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
                   if pk_style in ("table", "named") else [])
        fks, parts, constraints = {}, [], []
        for column, type_ in zip(columns, types):
            part = f"{q(column)} {type_}".rstrip()
            if column in pk_cols and pk_style == "inline":
                part += " PRIMARY KEY"
            if t_index and draw(st.booleans()):
                ref_table = draw(st.sampled_from(tables[:t_index]))
                ref_column = draw(st.sampled_from(
                    [c.name for c in expected[tables.index(ref_table)].columns]))
                fks[column] = f"{ref_table}.{ref_column}"
                reference = f"REFERENCES {q(ref_table)} ({q(ref_column)})"
                style = draw(st.sampled_from(["inline", "table", "named"]))
                if style == "inline":
                    part += " " + reference
                else:
                    named = f"CONSTRAINT {q('fk_' + column)} " if style == "named" else ""
                    constraints.append(f"{named}FOREIGN KEY ({q(column)}) {reference}")
            parts.append(part)
        if pk_style in ("table", "named"):
            named = "CONSTRAINT p " if pk_style == "named" else ""
            constraints.append(f"{named}PRIMARY KEY ({', '.join(map(q, pk_cols))})")
        statements.append(f"CREATE TABLE {q(table)} ({', '.join(parts + constraints)});")
        # an INTEGER primary key column holds integers only
        cells = [st.sampled_from([None, 0, 7]) if (t.upper(), pk_cols) == ("INTEGER", [c])
                 else st.sampled_from([None, 0, 7, "'a'", "'b;c'"])
                 for c, t in zip(columns, types)]
        for row in draw(st.lists(st.tuples(*cells), max_size=3)):
            values = ", ".join("NULL" if v is None else str(v) for v in row)
            statements.append(f"INSERT OR IGNORE INTO {q(table)} VALUES ({values});")
        expected.append(TableDef(table, tuple(
            ColumnDef(c, (t or "TEXT").upper(), c in pk_cols, fks.get(c))
            for c, t in zip(columns, types))))
    return "\n".join(statements), sorted(expected, key=lambda t: t.name)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump=_dumps())
def test_a_dump_loads_to_the_schema_of_the_sqlite_file_it_builds(tmp_path, dump):
    ddl, expected_tables = dump
    schema = schema_from_ddl(ddl, "db")
    assert schema == _sqlite_reference(tmp_path, ddl, "db")
    assert schema.tables == expected_tables


@pytest.mark.parametrize("ddl, table", [
    # a column named like a keyword
    ("CREATE TABLE t (id INTEGER PRIMARY KEY, key TEXT, name TEXT);",
     TableDef("t", (ColumnDef("id", "INTEGER", pk=True), ColumnDef("key"), ColumnDef("name")))),
    # a named table-level primary key
    ("CREATE TABLE t (id INTEGER, name VARCHAR(255), CONSTRAINT p PRIMARY KEY (id));",
     TableDef("t", (ColumnDef("id", "INTEGER", pk=True), ColumnDef("name", "VARCHAR(255)")))),
    # a named table-level foreign key
    ("CREATE TABLE s (id INTEGER PRIMARY KEY);\n"
     "CREATE TABLE t (id INTEGER, sid INTEGER, CONSTRAINT fk FOREIGN KEY (sid) REFERENCES s (id));",
     TableDef("t", (ColumnDef("id", "INTEGER"), ColumnDef("sid", "INTEGER", fk="s.id")))),
], ids=["keyword-column", "named-primary-key", "named-foreign-key"])
def test_a_dump_keeps_keyword_columns_and_named_constraints(tmp_path, ddl, table):
    schema = schema_from_ddl(ddl, "db")
    assert schema.table_by_key["t"] == table
    assert schema == _sqlite_reference(tmp_path, ddl, "db")


def test_a_dump_samples_the_values_it_inserts():
    schema = schema_from_ddl(
        "CREATE TABLE t (code TEXT, n INTEGER);\n"
        "INSERT INTO t VALUES ('b', 2);\nINSERT INTO t VALUES ('a', NULL);\n"
        "INSERT INTO t VALUES ('b', 1);", "db")
    assert schema.value_samples == {"t.code": ["a", "b"], "t.n": ["1", "2"]}


@pytest.mark.parametrize("cleared_with", [_NO_AUTHORIZER, _allow_all],
                         ids=["this-python", "allow-all"])
def test_the_dump_authorizer_is_cleared_before_introspection(monkeypatch, cleared_with):
    # The allow-all callback is what clears the authorizer before Python 3.11.
    monkeypatch.setattr(schema_module, "_NO_AUTHORIZER", cleared_with)
    schema = schema_from_ddl("CREATE TABLE t (a TEXT); INSERT INTO t VALUES ('x');", "db")
    assert schema.value_samples == {"t.a": ["x"]}


@pytest.mark.parametrize("statement", [
    "ATTACH DATABASE 'attached.db' AS other;",
    "VACUUM INTO 'copy.db';",
    "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n) INSERT INTO t SELECT i FROM n;",
], ids=["attach", "vacuum-into", "recursive-query"])
def test_a_dump_may_not_attach_a_file_or_run_a_recursive_query(tmp_path, monkeypatch,
                                                              statement):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(sqlite3.DatabaseError, match="not authorized|authorization denied"):
        schema_from_ddl(f"CREATE TABLE t (a TEXT);\n{statement}", "db")
    assert list(tmp_path.iterdir()) == []


def test_a_dump_may_insert_many_rows_and_query_what_it_inserted(tmp_path):
    ddl = ("CREATE TABLE t (a TEXT, n INTEGER);\n"
           "INSERT INTO t VALUES ('x', 1), ('y', 2);\n"
           "INSERT INTO t SELECT a || a, n + 10 FROM t;\n"
           "UPDATE t SET n = 0 WHERE a = 'y';\n"
           "CREATE TABLE u AS SELECT a FROM t WHERE n > 10;\n"
           "SELECT count(*) FROM t;")
    schema = schema_from_ddl(ddl, "db")
    assert schema.value_samples == {"t.a": ["x", "xx", "y", "yy"], "t.n": ["0", "1", "11", "12"],
                                    "u.a": ["xx", "yy"]}
    assert schema == _sqlite_reference(tmp_path, ddl, "db")


@pytest.mark.parametrize("rows", [
    "INSERT INTO c VALUES (5);",  # no parent row
    "INSERT INTO c VALUES (1); INSERT INTO p VALUES (1, 'a');",  # the child row first
], ids=["orphan", "child-first"])
@pytest.mark.parametrize("parent_key", ["id INTEGER PRIMARY KEY", "id INTEGER"],
                         ids=["primary-key", "not-unique"])
def test_a_dump_loads_with_foreign_keys_unenforced(rows, parent_key):
    # Such a dump fails under the PRAGMA it starts with; the PRAGMA is skipped.
    schema = schema_from_ddl(
        f"PRAGMA foreign_keys = ON;\nCREATE TABLE p ({parent_key}, name TEXT);\n"
        f"CREATE TABLE c (pid INTEGER REFERENCES p (id));\n{rows}", "db")
    assert schema.table_by_key["c"] == TableDef("c", (ColumnDef("pid", "INTEGER", fk="p.id"),))
    assert schema.value_samples["c.pid"] in (["1"], ["5"])


# -- SQLite files ---------------------------------------------------------------------


def test_a_sqlite_file_is_opened_read_only_and_never_created(tmp_path):
    missing = tmp_path / "missing.sqlite"
    with pytest.raises(InvariantViolation, match="missing.sqlite: unable to open database file"):
        schema_from_sqlite_file(missing)
    assert not missing.exists()
    path = tmp_path / "db.sqlite"
    with closing(sqlite3.connect(str(path))) as conn:
        conn.execute("CREATE TABLE t (a TEXT)")
    before = path.read_bytes()
    with open_sqlite(path) as (conn, schema):
        assert schema.tables == [TableDef("t", (ColumnDef("a"),))]
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("INSERT INTO t VALUES ('x')")
    assert path.read_bytes() == before


def test_names_holding_quotes_are_introspected_and_sampled():
    schema = schema_from_ddl('CREATE TABLE "a""b" ("c""d" TEXT, "e" INTEGER '
                             'REFERENCES "a""b" ("c""d"));\n'
                             """INSERT INTO "a""b" VALUES ('v', 1);""", "db")
    assert schema.tables == [TableDef('a"b', (ColumnDef('c"d'),
                                              ColumnDef("e", "INTEGER", fk='a"b.c"d')))]
    assert schema.value_samples == {'a"b.c"d': ["v"], 'a"b.e': ["1"]}


# -- sampling on one read-only connection per CPU against the serial loop ------------

_SAMPLED_SCRIPT = "\n".join([
    'CREATE TABLE "we""ird" ("na me" TEXT COLLATE NOCASE, mixed, "none" INTEGER, n INTEGER);',
    "CREATE TABLE vacant (a TEXT, b REAL);",
    "CREATE TABLE many (v INTEGER, w TEXT);",
    """INSERT INTO "we""ird" VALUES ('b', 1, NULL, 3), ('B', 1.0, NULL, 1), ('a', '1', NULL, 2),
        ('A', 2.5, NULL, 2), ('é', 1.0, NULL, NULL), ('É', 1, NULL, 4);""",
    *(f"INSERT INTO many VALUES ({i * 7919 % 1000}, 'w{i % 300}');" for i in range(1000)),
])


def _sampled_file(tmp_path):
    """A file with a NOCASE column, an untyped column holding both 1 and 1.0, an
    all-NULL column, quoted names, an empty table and columns of over 200 values."""
    path = tmp_path / "sampled.sqlite"
    with closing(sqlite3.connect(str(path))) as conn:
        conn.executescript(_SAMPLED_SCRIPT)
    return path


@pytest.fixture
def connections(monkeypatch):
    """Four CPUs for the process, so that a file is sampled on three helper
    connections as well, and each connection opened as ``(database, connection)``.
    The connections skip the same-thread check, so the test can see they closed."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    opened = []
    connect = sqlite3.connect

    def recorded(database, *args, **kwargs):
        opened.append((str(database), connect(database, *args, check_same_thread=False, **kwargs)))
        return opened[-1][1]

    monkeypatch.setattr(sqlite3, "connect", recorded)
    return opened


def _closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError as exc:
        return "closed" in str(exc)
    return False


@pytest.mark.parametrize("db", ["schools fixture", "generated"])
def test_a_file_is_sampled_on_a_connection_per_cpu_as_the_serial_loop_samples_it(
        tmp_path, schools_db_path, connections, db):
    path = schools_db_path if db == "schools fixture" else _sampled_file(tmp_path)
    with closing(sqlite3.connect(str(path))) as conn:
        expected = schema_oracle.value_samples(conn, schema_from_sqlite(conn, "x").tables)
    connections.clear()
    schema = load_schema_any(path)
    assert list(schema.value_samples.items()) == list(expected.items())
    assert [database for database, _ in connections] == [path.resolve().as_uri() + "?mode=ro"] * 4
    assert all(_closed(conn) for _, conn in connections)


def test_a_dump_and_a_writable_handle_are_sampled_on_their_own_connection(
        tmp_path, connections):
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.executescript(_SAMPLED_SCRIPT)
        expected = schema_oracle.value_samples(conn, schema_from_sqlite(conn, "x").tables)
    connections.clear()
    assert list(schema_from_ddl(_SAMPLED_SCRIPT, "x").value_samples.items()) == list(
        expected.items())
    assert [database for database, _ in connections] == [":memory:"]
    with closing(sqlite3.connect(str(_sampled_file(tmp_path)))) as conn:
        conn.execute("INSERT INTO vacant VALUES ('uncommitted', NULL)")
        connections.clear()
        assert schema_from_sqlite(conn, "x").value_samples["vacant.a"] == ["uncommitted"]
    assert connections == []


@pytest.mark.parametrize("fault", ["a column's query", "a helper's connection"])
def test_a_sampling_error_names_the_file_and_leaves_no_thread_or_connection(
        tmp_path, monkeypatch, connections, fault):
    path = _sampled_file(tmp_path)
    if fault == "a column's query":
        quoted = schema_module._quoted
        monkeypatch.setattr(schema_module, "_quoted", lambda name: "((" if name == "w" else
                            quoted(name))
    else:
        recorded = sqlite3.connect

        def connect(*args, **kwargs):
            if connections:
                raise sqlite3.OperationalError("unable to open database file")
            return recorded(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", connect)
    connections.clear()
    threads = threading.active_count()
    with pytest.raises(InvariantViolation, match=re.escape(f"{path}: ")):
        load_schema_any(path)
    assert threading.active_count() == threads
    assert connections and all(_closed(conn) for _, conn in connections)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sampled.sqlite"]


def test_many_helpers_switching_often_sample_every_column_once(tmp_path, monkeypatch, connections):
    # more helpers than cores, switching threads every microsecond: a query run
    # twice or skipped, or a sample stored at another column, breaks the equality
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    path = tmp_path / "wide.sqlite"
    with closing(sqlite3.connect(str(path))) as conn, conn:
        conn.execute(f"CREATE TABLE wide ({', '.join(f'c{j} INTEGER' for j in range(48))})")
        conn.executemany(f"INSERT INTO wide VALUES ({', '.join('?' * 48)})",
                         [[(i * (j + 3)) % (j + 7) for j in range(48)] for i in range(300)])
        expected = schema_oracle.value_samples(conn, schema_from_sqlite(conn, "x").tables)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            connections.clear()
            assert list(load_schema_any(path).value_samples.items()) == list(expected.items())
            assert len(connections) == 16 and all(_closed(conn) for _, conn in connections)
    finally:
        sys.setswitchinterval(interval)
