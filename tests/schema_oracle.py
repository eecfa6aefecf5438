"""The name lookups that ``DatabaseSchema`` answered from two dicts of its own,
built once from ``tables``, before ``schema.index`` answered them; kept as a
test oracle. Each name is lower-cased alone, by Python's Unicode ``str.lower``.

The schema now compares names as SQLite does (``sqlknow.schema.name_key``),
folding ASCII letters only. So the two answer differently for names that differ
only in non-ASCII case: here ``aΣ`` finds a table ``aς`` and ``É`` a column ``é``,
where SQLite and the schema find neither. Elsewhere they answer alike."""

from __future__ import annotations

from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef


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
