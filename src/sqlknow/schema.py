"""Database schema model and ingestion (JSON description, DDL dump, SQLite file).

A ``.json`` description is a :class:`DatabaseSchema` stored through the record
codec of :mod:`sqlknow.records`: ``db_id`` (a string, required), ``tables`` (a
list of ``{name, columns}``, each column ``{name, type: "TEXT", pk: false,
fk: null}`` where only ``name`` is required) and ``value_samples`` (column id
to a list of strings). Loading one that does not fit raises
:class:`~sqlknow.errors.InvariantViolation` naming the JSON path.

A SQLite file's columns are sampled on its connection and on one more read-only
connection per further CPU, each on a thread of its own, into ``value_samples``
in schema order; a connection passed to :func:`schema_from_sqlite` samples alone.

A schema's lookups are compiled once, on first use, into ``schema.index``.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import threading
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

from .errors import InvariantViolation
from .records import read_json
from .textproc import SurfaceIndex, count_units, postings, split_identifier

# Cap on distinct values sampled per column; sorted for reproducibility.
MAX_VALUE_SAMPLES = 200

_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def name_key(name: str) -> str:
    """The key two table, column or alias names share when SQLite takes them
    for one name: ASCII letters lowered, every other character kept, as
    ``sqlite3StrICmp`` compares (https://www.sqlite.org/faq.html#q18). So ``É``
    and ``é`` are two names. It keys one character at a time, so the key of
    ``t.c`` is the key of ``t``, then ``.``, then the key of ``c``."""
    return name.lower() if name.isascii() else name.translate(_ASCII_LOWER)


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str = "TEXT"
    pk: bool = False
    fk: str | None = None  # "table.column" of the referenced column


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...] = ()


@dataclass(frozen=True)
class DatabaseSchema:
    """Tables, columns and sampled values for one database.

    Column ids are spelled ``table.column`` in the schema's canonical casing.
    Every lookup compares names as SQLite does (:func:`name_key`): ASCII letters
    in any case, every other character as written. A schema is a value: make a
    changed one with :func:`dataclasses.replace`, which gets its own index.
    """

    db_id: str
    tables: list[TableDef] = field(default_factory=list)
    value_samples: dict[str, list[str]] = field(default_factory=dict)

    @cached_property
    def index(self) -> SchemaIndex:
        """The compiled :class:`SchemaIndex`, built on first use."""
        return SchemaIndex(self.tables, self.value_samples)

    # -- lookups ------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name_key(name) in self.index.tables

    def resolve_column_id(self, column_id: str) -> str | None:
        """Return the canonical form of a ``table.column`` id, or None."""
        return self.index.resolve(column_id)

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        seen_tables: set[str] = set()
        for t in self.tables:
            if "." in t.name:
                raise InvariantViolation(f"table name {t.name} holds '.', which splits column ids")
            key = name_key(t.name)
            if key in seen_tables:
                raise InvariantViolation(f"duplicate table name: {t.name}")
            seen_tables.add(key)
            seen_cols: set[str] = set()
            for c in t.columns:
                ckey = name_key(c.name)
                if ckey in seen_cols:
                    raise InvariantViolation(f"duplicate column {t.name}.{c.name}")
                seen_cols.add(ckey)
        for t in self.tables:
            for c in t.columns:
                if c.fk is not None and self.resolve_column_id(c.fk) is None:
                    raise InvariantViolation(
                        f"foreign key {t.name}.{c.name} -> {c.fk} does not resolve"
                    )
        for col_id in self.value_samples:
            if self.resolve_column_id(col_id) is None:
                raise InvariantViolation(f"value samples for unknown column {col_id}")


class SchemaIndex:
    """Lookups over one schema's tables, columns and value samples.

    ``DatabaseSchema.index`` builds it on first use, once per schema; mutating
    ``tables`` or ``value_samples`` in place is not seen.
    """

    def __init__(self, tables, value_samples: dict[str, list[str]]):
        self._tables = tables
        self._value_samples = value_samples

    @cached_property
    def column_lines(self) -> dict[str, tuple]:
        """Key of a table name -> its ``CREATE TABLE t (`` header in a prompt, the
        header's units, and per column in schema order ``(column id, declaration
        without comma or comment, the declaration's units, key of the id)``."""
        lines = {}
        for t in self._tables:
            columns = []
            for col in t.columns:
                decl = f"  {col.name} {col.type}" + (" PRIMARY KEY" if col.pk else "")
                if col.fk:
                    ref_table, ref_col = col.fk.split(".", 1)
                    decl += f" REFERENCES {ref_table}({ref_col})"
                col_id = f"{t.name}.{col.name}"
                columns.append((col_id, decl, count_units(decl), name_key(col_id)))
            header = f"CREATE TABLE {t.name} ("
            lines[name_key(t.name)] = (header, count_units(header), tuple(columns))
        return lines

    @cached_property
    def surface_index(self) -> SurfaceIndex:
        """Each table name (kind ``"TAB"``), column name (``"COL"``) and sampled value
        (``"VAL"``, with its column id) as a ``(surface, (kind, column id or None))`` entry."""
        entries = []
        for table in self._tables:
            entries.append((table.name, ("TAB", None)))
            entries.extend((col.name, ("COL", None)) for col in table.columns)
        for col_id, values in self._samples:  # one payload per column
            entries.extend(zip(values, repeat(("VAL", col_id))))
        return SurfaceIndex(entries)

    @cached_property
    def tables(self) -> dict[str, TableDef]:
        """:func:`name_key` of a table name -> its table."""
        return {name_key(t.name): t for t in self._tables}

    @cached_property
    def ids(self) -> dict[str, str]:
        """Key of a table name or of a whole column id -> that name or id. A key
        holds a "." exactly when it is a column id's, as no table name holds one."""
        return {name_key(i): i for i in chain(self.columns_of, *self.columns_of.values())}

    def resolve(self, column_id: str) -> str | None:
        """The id of the column that ``table.column`` names in any ASCII casing, or None."""
        return self.ids.get(name_key(column_id)) if "." in column_id else None

    @cached_property
    def database(self) -> sqlite3.Connection:
        """An empty in-memory database that holds each table with a column, its
        columns untyped, for SQLite to prepare queries on."""
        db = sqlite3.connect(":memory:", cached_statements=0)
        db.executescript("".join(
            f"CREATE TABLE {_quoted(t.name)} ({', '.join(_quoted(c.name) for c in t.columns)});"
            for t in self._tables if t.columns))
        return db

    @cached_property
    def roots(self) -> dict[int, TableDef]:
        """Root page of each table in :attr:`database` -> the table."""
        return {root: self.tables[name_key(name)] for name, root in self.database.execute(
            "SELECT name, rootpage FROM sqlite_master WHERE type = 'table'")}

    @cached_property
    def _samples(self) -> list[tuple[str, list[str]]]:
        """Per ``value_samples`` key, the column id it names (else the key) and its values."""
        return sorted((self.resolve(k) or k, values) for k, values in self._value_samples.items())

    @cached_property
    def columns_of(self) -> dict[str, tuple[str, ...]]:
        """Table name -> its column ids, in schema order."""
        return {t.name: tuple(f"{t.name}.{c.name}" for c in t.columns) for t in self._tables}

    @cached_property
    def name_postings(self) -> dict[str, list]:
        """Postings of table names and column ids by their identifier parts."""
        return postings([(t.name, split_identifier(t.name)) for t in self._tables] + [
            (f"{t.name}.{c.name}", split_identifier(c.name)) for t in self._tables
            for c in t.columns])

    @cached_property
    def _literals(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for col_id, values in self._samples:
            for value in values:
                index.setdefault(value.casefold(), []).append(col_id)
        return index

    def literal_columns(self, literal: str) -> list[str]:
        """Column ids (sorted, repeated per equal sample) whose sampled value
        equals ``literal`` after case folding. Do not mutate."""
        return self._literals.get(literal.casefold(), [])


def load_schema(path: str | Path) -> DatabaseSchema:
    schema = read_json(path, DatabaseSchema)
    schema.validate()
    return schema


# -- ingestion ------------------------------------------------------------------


def _allow_all(*_args):
    return sqlite3.SQLITE_OK


# set_authorizer(None) clears the authorizer only from Python 3.11 on; before
# that it installs None as the callback, which denies every later statement.
_NO_AUTHORIZER = None if sys.version_info >= (3, 11) else _allow_all


def _dump_statements_only(action, *_names):
    # A dump may not attach a file (VACUUM INTO attaches one too) or run a
    # recursive query, which has no bound. Its PRAGMAs set up the connection
    # (foreign-key enforcement, say), not the tables, so they are skipped.
    if action in (sqlite3.SQLITE_ATTACH, sqlite3.SQLITE_RECURSIVE):
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_IGNORE if action == sqlite3.SQLITE_PRAGMA else sqlite3.SQLITE_OK


def schema_from_sqlite(conn: sqlite3.Connection, db_id: str,
                       uri: str | None = None) -> DatabaseSchema:
    """Introspect a live SQLite handle into a DatabaseSchema, with each column's
    first distinct values as its samples. Given the read-only ``uri`` that
    ``conn`` was opened on, :func:`_sample_values` samples on more connections."""
    names = [r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type='table' "
                                        "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
    fk_map = {  # row: (id, seq, ref_table, from_col, to_col, ...)
        t: {name_key(row[3]): f"{row[2]}.{row[4]}"
            for row in conn.execute("SELECT * FROM pragma_foreign_key_list(?)", (t,))
            if row[4] is not None}
        for t in names
    }
    tables = [
        TableDef(t, tuple(
            ColumnDef(name, (decl or "TEXT").upper(), bool(pk), fk_map[t].get(name_key(name)))
            for _cid, name, decl, _notnull, _default, pk
            in conn.execute("SELECT * FROM pragma_table_info(?)", (t,))
        ))
        for t in names
    ]

    columns = [(t.name, c.name) for t in tables for c in t.columns]
    queries = [
        f"SELECT DISTINCT {_quoted(c)} FROM {_quoted(t)} WHERE {_quoted(c)} IS NOT NULL "
        f"ORDER BY {_quoted(c)} LIMIT {MAX_VALUE_SAMPLES}"
        for t, c in columns
    ]
    samples = {
        f"{t}.{c}": [str(r[0]) for r in rows]
        for (t, c), rows in zip(columns, _sample_values(conn, uri, queries))
        if rows
    }
    schema = DatabaseSchema(db_id=db_id, tables=tables, value_samples=samples)
    schema.validate()
    return schema


def _sample_values(conn: sqlite3.Connection, uri: str | None, queries: list[str]) -> list:
    """Each query's rows, in order, run on ``conn`` and, given its read-only ``uri``,
    on one more connection per further CPU the process may use, each on a thread
    of its own. The first error is raised once every helper has closed and stopped."""
    rows: list = [None] * len(queries)
    todo, lock, failed = iter(range(len(queries))), threading.Lock(), []

    def drain(opened) -> None:
        try:
            with opened() as c:
                while not failed:
                    with lock:
                        i = next(todo, None)
                    if i is None:
                        return
                    rows[i] = c.execute(queries[i]).fetchall()
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = min(cpus or 1, len(queries)) - 1 if uri and sqlite3.threadsafety else 0
    threads = [
        threading.Thread(target=drain, args=(lambda: closing(sqlite3.connect(uri, uri=True)),))
        for _ in range(helpers)
    ]
    for thread in threads:
        thread.start()
    drain(lambda: nullcontext(conn))
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return rows


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


@contextmanager
def _reading(path: str | Path, *also: type[Exception]):
    """Raise a failure to read the input at ``path`` as an InvariantViolation naming it."""
    try:
        yield
    except (sqlite3.Error, OSError, *also) as exc:
        raise InvariantViolation(f"{path}: {exc}") from None


@contextmanager
def open_sqlite(path: str | Path, db_id: str | None = None):
    """A read-only handle on the SQLite file at ``path`` and its schema; the
    file is never created or written. A file that cannot be read as a database
    raises InvariantViolation naming it."""
    if Path(path).is_dir():  # SQLite would say only "disk I/O error"
        raise InvariantViolation(f"{path}: is a directory, not a SQLite database")
    with _reading(path):
        uri = Path(path).resolve().as_uri() + "?mode=ro"
        conn = sqlite3.connect(uri, uri=True)
    with closing(conn):
        with _reading(path):
            schema = schema_from_sqlite(conn, db_id or Path(path).stem, uri)
        yield conn, schema


def schema_from_sqlite_file(path: str | Path, db_id: str | None = None) -> DatabaseSchema:
    with open_sqlite(path, db_id) as (_conn, schema):
        return schema


def schema_from_ddl(ddl: str, db_id: str) -> DatabaseSchema:
    """The schema of the database that the dump ``ddl`` builds in a private
    in-memory SQLite database, where it may not ``ATTACH`` or run a recursive
    query and its ``PRAGMA``s are skipped; a statement that is denied or fails,
    or a NUL character, raises :class:`sqlite3.Error`."""
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.set_authorizer(_dump_statements_only)
        try:
            conn.executescript(ddl)
        except ValueError as exc:  # a NUL character, which no SQL text holds
            raise sqlite3.ProgrammingError(str(exc)) from None
        conn.set_authorizer(_NO_AUTHORIZER)
        return schema_from_sqlite(conn, db_id)


def load_schema_any(path: str | Path, db_id: str | None = None) -> DatabaseSchema:
    """Dispatch on file suffix: .json description, .sql dump, or SQLite file.

    An input that cannot be read, or whose schema has no tables, raises
    InvariantViolation naming the file."""
    p = Path(path)
    suffix = p.suffix.lower()
    with _reading(p):
        if suffix == ".json":
            schema = load_schema(p)
        elif suffix == ".sql":
            with _reading(p, UnicodeDecodeError):
                ddl = p.read_text(encoding="utf-8")
            schema = schema_from_ddl(ddl, db_id or p.stem)
        else:
            schema = schema_from_sqlite_file(p, db_id)
    if not schema.tables:
        raise InvariantViolation(f"{path}: the schema has no tables")
    return schema
