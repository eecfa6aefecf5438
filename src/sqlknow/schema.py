"""Database schema model and ingestion (JSON description, DDL dump, SQLite file).

A ``.json`` description is a :class:`DatabaseSchema` stored through the record
codec of :mod:`sqlknow.records`: ``db_id`` (a string, required), ``tables`` (a
list of ``{name, columns}``, each column ``{name, type: "TEXT", pk: false,
fk: null}`` where only ``name`` is required) and ``value_samples`` (column id
to a list of strings). Loading one that does not fit raises
:class:`~sqlknow.errors.InvariantViolation` naming the JSON path.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InvariantViolation
from .records import read_json, to_json, write_json

if TYPE_CHECKING:
    from .knowledge_index import SchemaIndex

# Cap on distinct values sampled per column; sorted for reproducibility.
MAX_VALUE_SAMPLES = 200


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


@dataclass
class DatabaseSchema:
    """Tables, columns and sampled values for one database.

    Column ids are spelled ``table.column`` in the schema's canonical casing;
    all lookups are case-insensitive.
    """

    db_id: str
    tables: list[TableDef] = field(default_factory=list)
    value_samples: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        self._table_index: dict[str, TableDef] = {}
        self._column_index: dict[str, dict[str, ColumnDef]] = {}
        for t in self.tables:
            self._table_index[t.name.lower()] = t
            self._column_index[t.name.lower()] = {c.name.lower(): c for c in t.columns}

    def __setattr__(self, name, value):
        # reassigning a field such as ``value_samples`` makes the index stale
        self.__dict__.pop("index", None)
        super().__setattr__(name, value)

    @cached_property
    def index(self) -> SchemaIndex:
        """The compiled :class:`~sqlknow.knowledge_index.SchemaIndex`, built on
        first use and again after ``tables`` or ``value_samples`` is reassigned."""
        from .knowledge_index import SchemaIndex

        return SchemaIndex(self.tables, self.value_samples)

    # -- lookups ------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._table_index

    def table(self, name: str) -> TableDef:
        return self._table_index[name.lower()]

    def has_column(self, table: str, column: str) -> bool:
        cols = self._column_index.get(table.lower())
        return cols is not None and column.lower() in cols

    def column_id(self, table: str, column: str) -> str:
        """Canonical ``table.column`` id, normalizing caller-supplied casing."""
        t = self._table_index[table.lower()]
        c = self._column_index[table.lower()][column.lower()]
        return f"{t.name}.{c.name}"

    def resolve_column_id(self, column_id: str) -> str | None:
        """Return the canonical form of a ``table.column`` id, or None."""
        if "." not in column_id:
            return None
        table, column = column_id.split(".", 1)
        if self.has_column(table, column):
            return self.column_id(table, column)
        return None

    def all_column_ids(self) -> list[str]:
        return [f"{t.name}.{c.name}" for t in self.tables for c in t.columns]

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        seen_tables: set[str] = set()
        for t in self.tables:
            key = t.name.lower()
            if key in seen_tables:
                raise InvariantViolation(f"duplicate table name: {t.name}")
            seen_tables.add(key)
            seen_cols: set[str] = set()
            for c in t.columns:
                ckey = c.name.lower()
                if ckey in seen_cols:
                    raise InvariantViolation(f"duplicate column {t.name}.{c.name}")
                seen_cols.add(ckey)
        for t in self.tables:
            for c in t.columns:
                if c.fk is None:
                    continue
                if self.resolve_column_id(c.fk) is None:
                    raise InvariantViolation(
                        f"foreign key {t.name}.{c.name} -> {c.fk} does not resolve"
                    )
        for col_id in self.value_samples:
            if self.resolve_column_id(col_id) is None:
                raise InvariantViolation(f"value samples for unknown column {col_id}")


def store_schema(schema: DatabaseSchema, path: str | Path) -> None:
    schema.validate()
    write_json(path, to_json(schema))


def load_schema(path: str | Path) -> DatabaseSchema:
    schema = read_json(path, DatabaseSchema)
    schema.validate()
    return schema


# -- ingestion ------------------------------------------------------------------


def schema_from_sqlite(
    conn: sqlite3.Connection, db_id: str, sample_values: bool = True
) -> DatabaseSchema:
    """Introspect a live SQLite handle into a DatabaseSchema."""
    tables = []
    names = [
        r[0]
        for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
    ]
    fk_map: dict[str, dict[str, str]] = {}
    for t in names:
        fk_map[t] = {}
        for row in conn.execute(f'PRAGMA foreign_key_list("{t}")'):
            # row: (id, seq, ref_table, from_col, to_col, ...)
            to_col = row[4]
            if to_col is None:
                continue
            fk_map[t][row[3].lower()] = f"{row[2]}.{to_col}"
    for t in names:
        cols = []
        for row in conn.execute(f'PRAGMA table_info("{t}")'):
            # row: (cid, name, type, notnull, default, pk)
            cols.append(
                ColumnDef(
                    name=row[1],
                    type=(row[2] or "TEXT").upper(),
                    pk=bool(row[5]),
                    fk=fk_map[t].get(row[1].lower()),
                )
            )
        tables.append(TableDef(name=t, columns=tuple(cols)))

    schema = DatabaseSchema(db_id=db_id, tables=tables)
    if sample_values:
        samples: dict[str, list[str]] = {}
        for t in tables:
            for c in t.columns:
                rows = conn.execute(
                    f'SELECT DISTINCT "{c.name}" FROM "{t.name}" '
                    f'WHERE "{c.name}" IS NOT NULL '
                    f'ORDER BY "{c.name}" LIMIT {MAX_VALUE_SAMPLES}'
                ).fetchall()
                if rows:
                    samples[f"{t.name}.{c.name}"] = [str(r[0]) for r in rows]
        schema.value_samples = samples
    schema.validate()
    return schema


def schema_from_sqlite_file(path: str | Path, db_id: str | None = None) -> DatabaseSchema:
    conn = sqlite3.connect(str(path))
    try:
        return schema_from_sqlite(conn, db_id or Path(path).stem)
    finally:
        conn.close()


def schema_from_ddl(ddl: str, db_id: str) -> DatabaseSchema:
    """Parse a dump of CREATE TABLE statements into a DatabaseSchema.

    Handles the plain column/constraint grammar used by BIRD/Spider dumps;
    anything fancier should go through SQLite introspection instead.
    """
    from .sql_tokens import Kind, tokenize

    tokens = tokenize(ddl, allow_multiple=True)
    tables = []
    i = 0

    def at_kw(idx, word):
        return idx < len(tokens) and tokens[idx].kind == Kind.KEYWORD and tokens[idx].value == word

    while i < len(tokens):
        if not at_kw(i, "CREATE"):
            i += 1
            continue
        j = i + 1
        if not at_kw(j, "TABLE"):
            i += 1
            continue
        j += 1
        if at_kw(j, "IF"):  # IF NOT EXISTS
            j += 3
        if tokens[j].kind != Kind.IDENT:
            i = j
            continue
        table_name = tokens[j].value
        j += 1
        if j >= len(tokens) or tokens[j].value != "(":
            i = j
            continue
        depth = 1
        j += 1
        cols: list[ColumnDef] = []
        fks: dict[str, str] = {}
        pks: set[str] = set()
        item: list = []
        items: list[list] = []
        while j < len(tokens) and depth > 0:
            tok = tokens[j]
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1
                if depth == 0:
                    break
            if tok.value == "," and depth == 1:
                items.append(item)
                item = []
            else:
                item.append(tok)
            j += 1
        if item:
            items.append(item)
        for it in items:
            if not it:
                continue
            first = it[0]
            if first.kind == Kind.KEYWORD and first.value in (
                "PRIMARY",
                "FOREIGN",
                "UNIQUE",
                "CHECK",
                "CONSTRAINT",
            ):
                idents = [t.value for t in it if t.kind == Kind.IDENT]
                if first.value == "PRIMARY":
                    pks.update(v.lower() for v in idents)
                elif first.value == "FOREIGN":
                    # FOREIGN KEY (col) REFERENCES table (col)
                    kw_pos = [k for k, t in enumerate(it) if t.value == "REFERENCES"]
                    if kw_pos and len(idents) >= 3:
                        fks[idents[0].lower()] = f"{idents[1]}.{idents[2]}"
                continue
            if first.kind != Kind.IDENT:
                continue
            col_name = first.value
            col_type = "TEXT"
            if len(it) > 1 and it[1].kind in (Kind.KEYWORD, Kind.IDENT):
                col_type = it[1].value.upper()
            text_kws = [t.value for t in it if t.kind == Kind.KEYWORD]
            if "PRIMARY" in text_kws:
                pks.add(col_name.lower())
            if "REFERENCES" in text_kws:
                idents = [t.value for t in it[1:] if t.kind == Kind.IDENT]
                type_was_ident = it[1].kind == Kind.IDENT if len(it) > 1 else False
                ref = idents[1:] if type_was_ident else idents
                if len(ref) >= 2:
                    fks[col_name.lower()] = f"{ref[0]}.{ref[1]}"
            cols.append(ColumnDef(name=col_name, type=col_type))
        tables.append(
            TableDef(
                name=table_name,
                columns=tuple(
                    ColumnDef(
                        name=c.name,
                        type=c.type,
                        pk=c.name.lower() in pks,
                        fk=fks.get(c.name.lower()),
                    )
                    for c in cols
                ),
            )
        )
        i = j + 1

    schema = DatabaseSchema(db_id=db_id, tables=tables)
    schema.validate()
    return schema


def load_schema_any(path: str | Path, db_id: str | None = None) -> DatabaseSchema:
    """Dispatch on file suffix: .json description, .sql DDL, or SQLite file."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".json":
        return load_schema(p)
    if suffix == ".sql":
        return schema_from_ddl(p.read_text(encoding="utf-8"), db_id or p.stem)
    return schema_from_sqlite_file(p, db_id)
