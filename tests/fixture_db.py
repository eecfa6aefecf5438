"""Shared fixtures: the racing schema for parser oracles and a schools
database (schema + SQLite + knowledge base + question-SQL corpus) for the
linking, prompting, synthesis and reward tests."""

from __future__ import annotations

import sqlite3
from dataclasses import replace
from pathlib import Path

from hypothesis import strategies as st

from sqlknow.knowledge import (
    DomainTerm,
    KnowledgeBase,
    Operator,
    SchemaAnnotation,
    Source,
    State,
    ValidationStatus,
    ValueMapping,
)
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef
from sqlknow.sql_tokens import _TOKEN_RE

ACCEPTED = ValidationStatus(state=State.ACCEPTED)


def racing_schema() -> DatabaseSchema:
    schema = DatabaseSchema(
        db_id="racing",
        tables=[
            TableDef("circuits", (
                ColumnDef("circuitId", "INTEGER", pk=True),
                ColumnDef("circuitRef", "TEXT"),
                ColumnDef("name", "TEXT"),
                ColumnDef("location", "TEXT"),
                ColumnDef("country", "TEXT"),
            )),
            TableDef("races", (
                ColumnDef("raceId", "INTEGER", pk=True),
                ColumnDef("year", "INTEGER"),
                ColumnDef("round", "INTEGER"),
                ColumnDef("circuitId", "INTEGER", fk="circuits.circuitId"),
                ColumnDef("name", "TEXT"),
                ColumnDef("date", "TEXT"),
            )),
            TableDef("drivers", (
                ColumnDef("driverId", "INTEGER", pk=True),
                ColumnDef("driverRef", "TEXT"),
                ColumnDef("forename", "TEXT"),
                ColumnDef("surname", "TEXT"),
                ColumnDef("dob", "TEXT"),
                ColumnDef("nationality", "TEXT"),
            )),
            TableDef("results", (
                ColumnDef("resultId", "INTEGER", pk=True),
                ColumnDef("raceId", "INTEGER", fk="races.raceId"),
                ColumnDef("driverId", "INTEGER", fk="drivers.driverId"),
                ColumnDef("constructorId", "INTEGER", fk="constructors.constructorId"),
                ColumnDef("points", "REAL"),
                ColumnDef("position", "INTEGER"),
                ColumnDef("laps", "INTEGER"),
            )),
            TableDef("constructors", (
                ColumnDef("constructorId", "INTEGER", pk=True),
                ColumnDef("constructorRef", "TEXT"),
                ColumnDef("name", "TEXT"),
                ColumnDef("nationality", "TEXT"),
            )),
        ],
    )
    schema.validate()
    return schema


# -- schools database ---------------------------------------------------------

_COUNTIES = ["Alameda", "Fresno", "Los Angeles", "San Joaquin", "Santa Clara"]
_CITIES = ["Oakland", "Fresno", "Burbank", "Stockton", "San Jose"]
_VIRTUAL = ["N", "P", "F"]


def schools_schema() -> DatabaseSchema:
    schema = DatabaseSchema(
        db_id="schools",
        tables=[
            TableDef("schools", (
                ColumnDef("CDSCode", "TEXT", pk=True),
                ColumnDef("School", "TEXT"),
                ColumnDef("District", "TEXT"),
                ColumnDef("County", "TEXT"),
                ColumnDef("City", "TEXT"),
                ColumnDef("Website", "TEXT"),
                ColumnDef("Virtual", "TEXT"),
                ColumnDef("Charter", "INTEGER"),
            )),
            TableDef("frpm", (
                ColumnDef("CDSCode", "TEXT", pk=True, fk="schools.CDSCode"),
                ColumnDef("FreeMealCount", "REAL"),
                ColumnDef("FRPMCount", "REAL"),
                ColumnDef("Enrollment", "REAL"),
                ColumnDef("SchoolType", "TEXT"),
            )),
            TableDef("satscores", (
                ColumnDef("cds", "TEXT", pk=True, fk="schools.CDSCode"),
                ColumnDef("NumTstTakr", "INTEGER"),
                ColumnDef("NumGE1500", "INTEGER"),
                ColumnDef("AvgScrMath", "INTEGER"),
                ColumnDef("AvgScrRead", "INTEGER"),
            )),
        ],
    )
    schema.validate()
    return schema


def build_schools_sqlite(path: Path | str) -> None:
    """Deterministic 40-school database matching ``schools_schema``."""
    conn = sqlite3.connect(str(path))
    try:
        conn.executescript(
            """
            CREATE TABLE schools (
                CDSCode TEXT PRIMARY KEY,
                School TEXT, District TEXT, County TEXT, City TEXT,
                Website TEXT, Virtual TEXT, Charter INTEGER
            );
            CREATE TABLE frpm (
                CDSCode TEXT PRIMARY KEY REFERENCES schools(CDSCode),
                FreeMealCount REAL, FRPMCount REAL, Enrollment REAL, SchoolType TEXT
            );
            CREATE TABLE satscores (
                cds TEXT PRIMARY KEY REFERENCES schools(CDSCode),
                NumTstTakr INTEGER, NumGE1500 INTEGER, AvgScrMath INTEGER, AvgScrRead INTEGER
            );
            """
        )
        for i in range(40):
            code = f"CDS{i:04d}"
            county = _COUNTIES[i % len(_COUNTIES)]
            city = _CITIES[i % len(_CITIES)]
            conn.execute(
                "INSERT INTO schools VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    code,
                    f"School {i:02d}",
                    f"District {i % 7}",
                    county,
                    city,
                    f"http://school{i:02d}.example.edu",
                    _VIRTUAL[i % 3],
                    i % 2,
                ),
            )
            enrollment = 200.0 + 25.0 * i
            free_meals = round(enrollment * ((i % 10) / 10.0), 1)
            conn.execute(
                "INSERT INTO frpm VALUES (?, ?, ?, ?, ?)",
                (code, free_meals, round(free_meals * 1.1, 1), enrollment,
                 "High School" if i % 4 else "Elementary"),
            )
            takers = 40 + 3 * i
            conn.execute(
                "INSERT INTO satscores VALUES (?, ?, ?, ?, ?)",
                (code, takers, (takers * (i % 5)) // 10, 420 + 4 * (i % 30),
                 400 + 5 * (i % 25)),
            )
        conn.commit()
    finally:
        conn.close()


def schools_kb() -> KnowledgeBase:
    """Hand-built KB with accepted annotations, mappings and terms."""
    return KnowledgeBase(
        db_id="schools",
        annotations=(
            SchemaAnnotation("frpm", "Free and Reduced-Price Meal Program statistics",
                             "Free and Reduced-Price Meal Program", Source.HUMAN, ACCEPTED),
            SchemaAnnotation("schools.CDSCode", "county-district-school code",
                             "county district school code", Source.LLM, ACCEPTED),
            SchemaAnnotation("schools.Virtual", "virtual instruction status code",
                             None, Source.LLM, ACCEPTED),
            SchemaAnnotation("satscores.NumTstTakr", "number of SAT test takers",
                             "number of test takers", Source.LLM, ACCEPTED),
            SchemaAnnotation("satscores.NumGE1500", "count of test takers scoring 1500 or above",
                             "number scoring at least 1500", Source.LLM, ACCEPTED),
        ),
        value_mappings=(
            ValueMapping("schools.Virtual", "F", "Fully virtual", ACCEPTED),
            ValueMapping("schools.Virtual", "P", "Partially virtual", ACCEPTED),
            ValueMapping("schools.Virtual", "N", "Not virtual", ACCEPTED),
        ),
        terms=(
            DomainTerm(
                term_text="free meal rate",
                sql_expression="(frpm.FreeMealCount / frpm.Enrollment)",
                columns_used=("frpm.FreeMealCount", "frpm.Enrollment"),
                operator=Operator.DIV,
                confidence=0.97,
                explanation="share of enrolled students receiving free meals",
                status=ACCEPTED,
            ),
            DomainTerm(
                term_text="excellence rate",
                sql_expression="(satscores.NumGE1500 / satscores.NumTstTakr)",
                columns_used=("satscores.NumGE1500", "satscores.NumTstTakr"),
                operator=Operator.DIV,
                confidence=0.95,
                explanation="share of test takers scoring at least 1500",
                status=ACCEPTED,
            ),
        ),
        graph_ref="pattern-graph",
    )


def schools_value_samples(db_path: Path | str, schema: DatabaseSchema) -> DatabaseSchema:
    """The schema with the sampled distinct values of the SQLite fixture."""
    from sqlknow.schema import schema_from_sqlite

    conn = sqlite3.connect(str(db_path))
    try:
        sampled = schema_from_sqlite(conn, schema.db_id)
    finally:
        conn.close()
    return replace(schema, value_samples=sampled.value_samples)


_QUESTION_SQL_FAMILIES = [
    ("How many schools are in {county} county?",
     "SELECT COUNT(*) FROM schools WHERE County = '{county}'"),
    ("List the websites of schools in {county}.",
     "SELECT Website FROM schools WHERE County = '{county}'"),
    ("What is the highest enrollment among schools in {county}?",
     "SELECT MAX(f.Enrollment) FROM frpm f JOIN schools s ON f.CDSCode = s.CDSCode "
     "WHERE s.County = '{county}'"),
    ("Show the average math score for schools in {county}.",
     "SELECT AVG(t.AvgScrMath) FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "WHERE s.County = '{county}'"),
    ("Which schools in {county} are fully virtual?",
     "SELECT School FROM schools WHERE County = '{county}' AND Virtual = 'F'"),
    ("Count the charter schools per district in {county}.",
     "SELECT District, COUNT(*) FROM schools WHERE County = '{county}' AND Charter = 1 "
     "GROUP BY District"),
    ("What is the free meal count of the school named '{school}'?",
     "SELECT f.FreeMealCount FROM frpm f JOIN schools s ON f.CDSCode = s.CDSCode "
     "WHERE s.School = '{school}'"),
    ("Rank schools in {county} by number of SAT test takers.",
     "SELECT s.School FROM satscores t JOIN schools s ON t.cds = s.CDSCode "
     "WHERE s.County = '{county}' ORDER BY t.NumTstTakr DESC"),
    # gold filter column only reachable through the quoted value (step-2 case)
    ("Which charter school in the {county} district city has the web address "
     "'http://school{idx:02d}.example.edu'?",
     "SELECT School FROM schools WHERE Website = 'http://school{idx:02d}.example.edu'"),
]


def schools_corpus(n_per_family: int = 15) -> list[dict]:
    """Deterministic question-SQL corpus cycling counties/schools per family."""
    rows = []
    idx = 0
    for family_id, (q_tpl, s_tpl) in enumerate(_QUESTION_SQL_FAMILIES):
        for k in range(n_per_family):
            county = _COUNTIES[k % len(_COUNTIES)]
            school = f"School {k % 40:02d}"
            rows.append(
                {
                    "id": f"q{idx:04d}",
                    "db_id": "schools",
                    "question": q_tpl.format(county=county, school=school, idx=k % 40),
                    "sql": s_tpl.format(county=county, school=school, idx=k % 40),
                    "family": family_id,
                }
            )
            idx += 1
    return rows


# What one SQL edit puts in: every opener, comment start, parameter sign and
# statement separator the lexer treats apart, characters outside its ASCII
# classes (a Unicode digit, a superscript, a vertical tab), and "" to delete.
SQL_EDIT_PIECES = ("'", '"', "`", "[", "]", "--", "/*", "*/", ":", "@", "?", ";", "é", "\u0663",
                   "\u00b2", "\x0b", ".", "(", ")", " ", "a", "1", "")


@st.composite
def edited_sql(draw, sql: str, min_edits: int = 1, max_edits: int = 3) -> str:
    """``sql`` with each edit inserting a piece at, or putting it in place of,
    the character at a drawn offset."""
    for _ in range(draw(st.integers(min_edits, max_edits))):
        i = draw(st.integers(0, len(sql)))
        sql = sql[:i] + draw(st.sampled_from(SQL_EDIT_PIECES)) + sql[i + draw(st.integers(0, 1)):]
    return sql


# What a drawn run between two tokens is made of: whitespace SQLite skips, and
# comments, one holding the parentheses and comma that a run must not count.
# The line comment starts with a space: right after a "-" token, "-- c" would
# make a comment that swallows the token ("2 - -1" would become "2 --- c)\n-1").
SQL_RUN_PIECES = (" ", "\t", "\n", "\r\n", "/**/", "/* a, (b) */", " -- c)\n")
SQL_RUNS = st.lists(st.sampled_from(SQL_RUN_PIECES), max_size=3).map("".join)


def token_spans(sql: str) -> list[tuple[int, int, int]] | None:
    """(start, end, parentheses open after it) of each lexer token of ``sql``,
    or None when it does not lex."""
    spans, depth = [], 0
    for m in _TOKEN_RE.finditer(sql):
        group, text = m.lastgroup, m.group()
        if group == "skip":
            continue
        if group in ("unterminated", "unexpected"):
            return None
        if group == "punct":
            depth += (text == "(") - (text == ")")
        spans.append((m.start(), m.end(), depth))
    return spans


@st.composite
def respelled_sql(draw, sql: str) -> str:
    """``sql`` with drawn runs before and after it and in place of some runs
    between two of its tokens outside parentheses: the same spelling."""
    spans = token_spans(sql)
    if not spans:
        return sql
    parts = [draw(SQL_RUNS)]
    for (start, end, depth), (following, _, _) in zip(spans, spans[1:]):
        run = sql[end:following]
        if run and depth == 0 and draw(st.booleans()):
            run = draw(SQL_RUNS.filter(bool))
        parts += [sql[start:end], run]
    last_start, last_end, _ = spans[-1]
    return "".join(parts) + sql[last_start:last_end] + draw(SQL_RUNS)
