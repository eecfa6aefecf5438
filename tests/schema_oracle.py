"""Schema code that faster or stricter code in ``sqlknow.schema`` replaced, kept
as test oracles.

``SchemaLookups`` holds the name lookups that ``DatabaseSchema`` answered from
two dicts of its own, built once from ``tables``, before its cached lookups
answered them. Each name is lower-cased alone, by Python's Unicode ``str.lower``.
The schema now compares names as SQLite does (``sqlknow.schema.name_key``),
folding ASCII letters only. So the two answer differently for names that differ
only in non-ASCII case: here ``aΣ`` finds a table ``aς`` and ``É`` a column ``é``,
where SQLite and the schema find neither. Elsewhere they answer alike.

``value_samples`` is the loop that sampled each column's first distinct values
one query after another on the one connection, before ``schema_from_sqlite``
spread the same queries over one read-only connection per CPU. The two give the
same samples in the same order."""

from __future__ import annotations

import sqlite3

from sqlknow.schema import MAX_VALUE_SAMPLES, ColumnDef, DatabaseSchema, TableDef


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def value_samples(conn: sqlite3.Connection, tables: list[TableDef]) -> dict[str, list[str]]:
    samples: dict[str, list[str]] = {}
    for t in tables:
        for c in t.columns:
            column = _quoted(c.name)
            rows = conn.execute(
                f"SELECT DISTINCT {column} FROM {_quoted(t.name)} "
                f"WHERE {column} IS NOT NULL "
                f"ORDER BY {column} LIMIT {MAX_VALUE_SAMPLES}"
            ).fetchall()
            if rows:
                samples[f"{t.name}.{c.name}"] = [str(r[0]) for r in rows]
    return samples


class SchemaLookups:
    def __init__(self, schema: DatabaseSchema):
        self._table_index: dict[str, TableDef] = {}
        self._column_index: dict[str, dict[str, ColumnDef]] = {}
        for t in schema.tables:
            self._table_index[t.name.lower()] = t
            self._column_index[t.name.lower()] = {c.name.lower(): c for c in t.columns}

    def has_table(self, name: str) -> bool:
        return name.lower() in self._table_index

    def table(self, name: str) -> TableDef:
        return self._table_index[name.lower()]

    def has_column(self, table: str, column: str) -> bool:
        cols = self._column_index.get(table.lower())
        return cols is not None and column.lower() in cols

    def column_id(self, table: str, column: str) -> str:
        t = self._table_index[table.lower()]
        c = self._column_index[table.lower()][column.lower()]
        return f"{t.name}.{c.name}"

    def resolve_column_id(self, column_id: str) -> str | None:
        if "." not in column_id:
            return None
        table, column = column_id.split(".", 1)
        if self.has_column(table, column):
            return self.column_id(table, column)
        return None
