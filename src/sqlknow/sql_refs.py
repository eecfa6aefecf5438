"""Which tables and columns a query reads, as SQLite reads them.

SQLite resolves every name. :meth:`ParsedQuery.references` prepares
``EXPLAIN <sql>`` on an empty in-memory database that holds the schema's tables
(``schema.database``), under a read-only authorizer (:class:`ReadLog`) that
records each ``SQLITE_READ``: ``(table, column)``, or ``(table, "")`` for a
table read with no column, as by ``COUNT(*)`` or ``SELECT 1``.
:func:`reference_set` turns the reads into a :class:`ReferenceSet`. It also
fills the one gap in them: SQLite 3.40 reports neither the column of a
``USING`` or ``NATURAL`` join nor a table read only through one. So for a text
that holds either word, the tables and columns that the ``EXPLAIN`` program's
cursors read are added. That is a union, so a SQLite that does report them
gives the same set.

A text that SQLite refuses fails with SQLite's message. ``no such table``,
``no such column`` and ``ambiguous column name`` raise
:class:`UnresolvedIdentifierError`, naming the one name SQLite reports. A
denied non-read raises :class:`UnsupportedSqlError`. Anything else (a syntax
error, ``misuse of aggregate``, ``no such function``, or a text that Python's
``sqlite3`` will not hand to SQLite, such as one holding a NUL) raises
:class:`SqlParseError`. Python binds a parameter only after the prepare, so a
text that holds one counts as prepared; for a join's program each is bound to
NULL. A double-quoted name is prepared in backticks, which SQLite never reads
as a string, so one that names no column is unresolved.

:class:`ParsedQuery` is the one parse of a SQL text, which every reading of it shares.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass
from functools import cached_property

from .errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from .schema import _NO_AUTHORIZER, DatabaseSchema, name_key
from .skeleton import check_query, mask_statement
from .sql_tokens import Kind, Token, tokenize


@dataclass(frozen=True)
class ReferenceSet:
    tables: frozenset[str]
    # "table.column" in canonical schema casing; a read of no schema column
    # (the rowid, a system table) as SQLite names it
    columns: frozenset[str]


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    diagnostics: tuple[str, ...] = ()


# -- SQLite's reading --------------------------------------------------------------

_READ_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)
_UNRESOLVED = ("no such table: ", "no such column: ", "ambiguous column name: ")
_UNBOUND = re.compile(r"Incorrect number of bindings supplied\. The current statement uses (\d+)")
_JOINED = re.compile(r"\b(?:NATURAL|USING)\b", re.IGNORECASE)


class ReadLog:
    """A read-only authorizer: it denies every action but a read and records
    each read as ``(table, column)``, a table read with no column as ``(table, "")``."""

    def __init__(self):
        self.reads: list[tuple[str, str]] = []
        self.denied = False

    def __call__(self, action, table, column, *_names):
        if action not in _READ_ACTIONS:
            self.denied = True
            return sqlite3.SQLITE_DENY
        if action == sqlite3.SQLITE_READ:
            self.reads.append((table, column))
        return sqlite3.SQLITE_OK


def reference_set(sql: str, schema: DatabaseSchema, reads=None) -> ReferenceSet:
    """The tables and columns ``sql`` reads, in the schema's names. ``reads`` are
    a :class:`ReadLog`'s reads of a statement SQLite prepared from ``sql``;
    without them, ``sql`` is prepared on the schema's database, and a refusal
    raises as the module docstring says. A ``USING`` or ``NATURAL`` join's
    reads come from that database's ``EXPLAIN`` program."""
    joined = _JOINED.search(sql) is not None
    if reads is None or joined:
        db, log = schema.database, ReadLog()
        db.set_authorizer(log)
        try:
            cursor = db.execute("EXPLAIN " + sql)
            program = cursor.fetchall() if joined else ()
        except (sqlite3.Error, ValueError) as exc:  # a surrogate fails to encode: ValueError
            unbound = isinstance(exc, sqlite3.ProgrammingError) and _UNBOUND.match(str(exc))
            if unbound:  # the prepare passed; Python binds parameters after it
                program = _null_bound_program(db, sql, int(unbound[1])) if joined else ()
            elif reads is None:
                raise _refusal(str(exc), log.denied) from None
            else:
                program = ()  # the reads came from a database with objects the schema lacks
        finally:
            db.set_authorizer(_NO_AUTHORIZER)
        reads = [*(log.reads if reads is None else reads),
                 *_cursor_reads(program, schema.roots)]
    tables, columns = set(), set()
    for table, column in reads:
        tdef = schema.table_by_key.get(name_key(table))
        table = table if tdef is None else tdef.name
        tables.add(table)
        if column:
            column_id = f"{table}.{column}"
            columns.add(schema.resolve_column_id(column_id) or column_id)
    return ReferenceSet(frozenset(tables), frozenset(columns))


def _null_bound_program(db: sqlite3.Connection, sql: str, count: int) -> list:
    """The ``EXPLAIN`` program of ``sql`` with its ``count`` parameters bound
    to NULL by position; empty when Python will not bind a named one so."""
    try:
        return db.execute("EXPLAIN " + sql, (None,) * count).fetchall()
    except sqlite3.ProgrammingError:
        return []


def _cursor_reads(program, roots) -> list[tuple[str, str]]:
    """The tables that an ``EXPLAIN`` program opens for reading and the columns
    it reads from them; ``roots`` maps a root page of the main database to its table."""
    cursors, reads = {}, []
    for _addr, opcode, p1, p2, p3, *_rest in program:
        if opcode == "OpenRead" and p3 == 0 and p2 in roots:
            cursors[p1] = roots[p2]
            reads.append((roots[p2].name, ""))
        elif opcode == "Column" and p1 in cursors:
            reads.append((cursors[p1].name, cursors[p1].columns[p2].name))
    return reads


def _refusal(message: str, denied: bool) -> Exception:
    for prefix in _UNRESOLVED:
        if message.startswith(prefix):
            return UnresolvedIdentifierError([message[len(prefix):]])
    return UnsupportedSqlError(message) if denied else SqlParseError(message)


# -- token-span helpers ------------------------------------------------------------


def _strip_outer_parens(tokens: list[Token]) -> list[Token]:
    """Unwrap parentheses around the whole slice: its first token is ``(``, its last
    is at the same depth and every token between is deeper. Any other slice stays."""
    while (
        len(tokens) >= 2
        and tokens[0].value == "("
        and tokens[0].kind is Kind.PUNCT
        and tokens[-1].depth == tokens[0].depth
        and all(t.depth > tokens[0].depth for t in tokens[1:-1])
    ):
        tokens = tokens[1:-1]
    return tokens


# -- one parse per SQL text --------------------------------------------------------

# What reading a text's skeleton or references raises when the text is not a
# supported query over the schema; anything else is a bug.
UNRESOLVABLE = (SqlParseError, UnsupportedSqlError, UnresolvedIdentifierError)


class ParsedQuery:
    """One SQL text, tokenized once (or the SqlParseError that tokenizing raised).

    Each reading (skeleton, references for the last schema asked, ORDER BY
    flag, identifiers, normalized expression) is worked out on first use and
    kept; so is a failure, which every later ask raises again. A stage that
    meets one text many times keeps its ParsedQuerys in a dict, via :func:`parsed`.
    """

    def __init__(self, sql: str):
        self.sql = sql
        self._kept: dict = {}
        self._schema: DatabaseSchema | None = None  # of the kept references
        try:
            self._tokens: list[Token] | None = tokenize(sql)
        except SqlParseError as exc:
            self._tokens, self._kept["statement"] = None, _Failure(exc)

    def _keep(self, key, compute):
        if key not in self._kept:
            try:
                self._kept[key] = compute()
            except UNRESOLVABLE as exc:
                self._kept[key] = _Failure(exc)
        kept = self._kept[key]
        if isinstance(kept, _Failure):
            raise kept.error()
        return kept

    def _statement(self) -> list[Token]:
        """The tokens, once :func:`~sqlknow.skeleton.check_query` has passed them."""
        return self._keep("statement", lambda: check_query(self._tokens))

    def skeleton(self) -> str:
        """See :func:`sqlknow.skeleton.skeletonize`."""
        return self._keep("skeleton", lambda: mask_statement(self._statement()))

    def references(self, schema: DatabaseSchema) -> ReferenceSet:
        """See :func:`extract_references`."""
        if self._schema is not schema:
            self._schema = schema
            self._kept.pop("references", None)
        return self._keep("references", lambda: self._extract(schema))

    def _extract(self, schema: DatabaseSchema) -> ReferenceSet:
        sql, parts, end = self.sql, [], 0
        for tok in self._statement():
            if tok.kind is Kind.IDENT and sql[tok.pos] == '"':  # the quotes hold no quote
                parts += [sql[end:tok.pos], "`", tok.value.replace("`", "``"), "`"]
                end = tok.pos + len(tok.value) + 2
        return reference_set("".join(parts) + sql[end:], schema)

    def consistency(self, schema: DatabaseSchema) -> ConsistencyReport:
        """See :func:`check_schema_consistency`."""
        try:
            self.references(schema)
        except (SqlParseError, UnsupportedSqlError) as exc:
            return ConsistencyReport(False, (f"parse: {exc}",))
        except UnresolvedIdentifierError as exc:
            return ConsistencyReport(False, tuple(f"unresolved: {n}" for n in exc.names))
        return ConsistencyReport(True)

    @cached_property
    def ordered(self) -> bool:
        """An ORDER BY outside every parenthesis; False when the text does not tokenize."""
        return any(tok.depth == 0 and tok.is_kw("ORDER") for tok in self._tokens or ())

    @cached_property
    def identifiers(self) -> tuple[str, ...] | None:
        """The identifier tokens' values in order; None when the text does not tokenize."""
        tokens = self._tokens
        return None if tokens is None else tuple(t.value for t in tokens if t.kind is Kind.IDENT)

    @cached_property
    def normalized_tokens(self) -> tuple[str, ...]:
        """Tokens keyed by :func:`~sqlknow.schema.name_key` (ASCII letters
        lowered, as SQLite compares names), strings kept as written, with
        qualifier prefixes and outer parens removed; empty when the text does not
        tokenize."""
        tokens = _strip_outer_parens(self._tokens or [])
        parts: list[str] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if (
                tok.kind is Kind.IDENT
                and i + 2 < len(tokens)
                and tokens[i + 1].value == "."
                and tokens[i + 1].kind is Kind.PUNCT
                and tokens[i + 2].kind is Kind.IDENT
            ):
                parts.append(name_key(tokens[i + 2].value))  # drop the qualifier
                i += 3
                continue
            if tok.kind is Kind.STRING:
                parts.append(f"'{tok.value}'")
            else:
                parts.append(name_key(tok.value))
            i += 1
        return tuple(parts)


class _Failure:
    """A kept error, as what it takes to raise it again. The error itself is
    not kept: its traceback's frames would keep the caller's locals alive for
    as long as the query is kept."""

    __slots__ = ("cls", "args", "attrs")

    def __init__(self, error: Exception):
        self.cls, self.args, self.attrs = type(error), error.args, dict(vars(error))

    def error(self) -> Exception:
        error = self.cls.__new__(self.cls, *self.args)
        error.__dict__.update(self.attrs)
        return error


def parsed(sql: str, cache: dict[str, ParsedQuery]) -> ParsedQuery:
    """The ParsedQuery of ``sql`` in ``cache``, made and kept on first use."""
    if sql not in cache:
        cache[sql] = ParsedQuery(sql)
    return cache[sql]


def extract_references(sql: str, schema: DatabaseSchema) -> ReferenceSet:
    """Tables and columns the query reads, across subqueries, CTEs and joins."""
    return ParsedQuery(sql).references(schema)


def check_schema_consistency(sql: str, schema: DatabaseSchema) -> ConsistencyReport:
    """True iff the query parses and every referenced table/column exists."""
    return ParsedQuery(sql).consistency(schema)
