"""Schema model: invariants, serialization, DDL and SQLite ingestion."""

import sqlite3

import pytest

from sqlknow.errors import InvariantViolation
from sqlknow.records import from_json, to_json
from sqlknow.schema import (
    ColumnDef,
    DatabaseSchema,
    TableDef,
    load_schema,
    schema_from_ddl,
    schema_from_sqlite,
    store_schema,
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
    assert racing.has_column("CIRCUITS", "circuitid")
    assert racing.column_id("CIRCUITS", "CIRCUITREF") == "circuits.circuitRef"
    assert racing.resolve_column_id("RACES.YEAR") == "races.year"
    assert racing.resolve_column_id("races.nope") is None


def test_schema_file_round_trip(tmp_path, racing):
    path = tmp_path / "schema.json"
    store_schema(racing, path)
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
    assert schema.table("circuits").columns[0].pk
    assert schema.table("races").columns[1].fk == "circuits.circuitId"


def test_sqlite_introspection(schools_db_path):
    conn = sqlite3.connect(str(schools_db_path))
    try:
        schema = schema_from_sqlite(conn, "schools")
    finally:
        conn.close()
    assert {t.name for t in schema.tables} == {"schools", "frpm", "satscores"}
    frpm_cds = schema.table("frpm").columns[0]
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
