"""Seeded workload generator for the sqlknow benchmark.

Everything here is a pure function of the seed: the same seed writes
byte-identical databases and corpora and returns identical question lists.
The seed picks names, values and choices; the *shape* of every workload
(table and column counts, cardinality classes, row counts, the order of
question families and the candidate kinds of each question) is fixed, so
per-question cost stays comparable across seeds.

The program under test only ever sees the files and plain objects made here.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("serve_bird", "schools")
CANDIDATES_PER_QUESTION = 8
# Mix for candidate slots 1..7; slot 0 is always a copy of the gold query.
# The weights are an unverified assumption: neither the repository nor a cited
# source gives the share of each kind in a self-consistency sample. They drive
# reward_p50_ms / reward_p90_ms and the reward.tier.* counts, because syntax
# and missing-object candidates stop early as Invalid while wrong and outside
# candidates go on through execution and extract_references.
CANDIDATE_MIX = (
    ("rewrite", 0.25),
    ("wrong", 0.25),
    ("outside", 0.20),
    ("syntax", 0.15),
    ("missing", 0.15),
)
# Hostile candidates (a DELETE, and a SELECT of a non-finite float) hit known
# reward defects, so they are not in the served questions; each run scores
# HOSTILE_QUESTIONS copies of served questions with one slot made hostile.
HOSTILE_QUESTIONS = 4


@dataclass(frozen=True)
class Question:
    qid: str
    text: str
    gold: str
    candidates: tuple[str, ...]
    kinds: tuple[str, ...]  # one per candidate: gold_copy, rewrite, ..., delete, overflow
    table: str  # the main table of the gold query


@dataclass(frozen=True)
class Family:
    """One question shape: text, gold SQL and its same-result rewrite,
    a knowledge-consistent wrong-result variant, and the main table."""

    text: str
    gold: str
    rewrite: str
    wrong: str
    table: str


# -- names and values ------------------------------------------------------------

_SYLLABLES = (
    "ka", "lo", "mer", "vin", "tor", "sa", "bel", "dun", "ri", "pol", "gan", "ve",
    "mo", "zar", "li", "quen", "ta", "ros", "hel", "di", "nor", "cas", "fen", "u",
)


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables)).capitalize()


def _distinct_words(rng: random.Random, n: int, syllables: int = 3) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        w = _word(rng, syllables)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def candidate_kinds(n: int) -> list[tuple[str, ...]]:
    """Candidate kinds for questions 0..n-1. The draw does not depend on the
    seed, so every seed serves the same mix in the same order."""
    rng = random.Random("candidate-mix")
    names = [k for k, _ in CANDIDATE_MIX]
    weights = [w for _, w in CANDIDATE_MIX]
    return [("gold_copy", *rng.choices(names, weights, k=CANDIDATES_PER_QUESTION - 1))
            for _ in range(n)]


def _gold_copy(gold: str) -> str:
    # Same tokens as the gold query, different bytes, so that executions of the
    # gold text itself can be counted apart from executions of the copy.
    return gold.replace("SELECT ", "SELECT  ", 1)


def make_question(
    qid: str, fam: Family, kinds: tuple[str, ...], outside_sql: str, missing_sql: str
) -> Question:
    sql_for = {
        "gold_copy": _gold_copy(fam.gold),
        "rewrite": fam.rewrite,
        "wrong": fam.wrong,
        "outside": outside_sql,
        "syntax": fam.gold.replace("SELECT", "SELEC", 1),
        "missing": missing_sql,
        "delete": f"DELETE FROM {fam.table}",
        "overflow": "SELECT 1e999",
    }
    return Question(
        qid=qid,
        text=fam.text,
        gold=fam.gold,
        candidates=tuple(sql_for[k] for k in kinds),
        kinds=kinds,
        table=fam.table,
    )


def hostile_questions(questions: list[Question]) -> list[Question]:
    """The first HOSTILE_QUESTIONS questions, each with one slot after the gold
    copy replaced by a DELETE of the question's table or by SELECT 1e999."""
    out = []
    for i, q in enumerate(questions[:HOSTILE_QUESTIONS]):
        slot = 1 + i % (CANDIDATES_PER_QUESTION - 1)
        kind, sql = (("delete", f"DELETE FROM {q.table}") if i % 2 == 0
                     else ("overflow", "SELECT 1e999"))
        out.append(replace(
            q, qid=f"{q.qid}-hostile",
            candidates=q.candidates[:slot] + (sql,) + q.candidates[slot + 1:],
            kinds=q.kinds[:slot] + (kind,) + q.kinds[slot + 1:],
        ))
    return out


def _write_db(path: Path, ddl: list[str], rows: dict[str, list[tuple]]) -> None:
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(str(path))
    try:
        for stmt in ddl:
            conn.execute(stmt)
        for table, table_rows in rows.items():
            marks = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", table_rows)
        conn.commit()
    finally:
        conn.close()


# -- BIRD-scale database (serve_bird) -------------------------------------------------

BIRD_TABLES = (
    "account", "branch", "card", "client", "district", "loan", "purchase", "payment",
    "merchant", "product", "supplier", "shipment", "warehouse", "employee",
    "department", "project", "invoice", "campaign",
)
BIRD_ROWS = 2500
# attribute columns per table; with one key and one parent key per table
# (the first table has no parent) this gives 200 columns in total
BIRD_ATTRS = (10, 10, 10) + (9,) * 15

_C3 = {
    "Status": ("A", "B", "C"),
    "Gender": ("M", "F", "U"),
    "Tier": ("Gold", "Silver", "Bronze"),
    "Flag": ("Y", "N", "P"),
    "Priority": ("Low", "Medium", "High"),
    "Channel": ("Online", "Branch", "Phone"),
}
_C20 = ("Region", "Category", "Segment", "Currency", "Frequency", "Grade", "Sector", "Lang")
_C200 = ("City", "Brand", "Street", "Manager", "Vendor", "Model", "Owner")
_CK_INT = ("Amount", "Balance", "Quantity", "Duration", "NumPayments", "Score")
_CK_REAL = ("Price", "Weight", "Discount", "AvgSalary")
_CLASSES = ("c3", "c20", "c200", "cK")


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # c3 | c20 | c200 | cK
    values: tuple  # distinct values for c3/c20/c200; (lo, hi, is_real) for cK


@dataclass
class BirdDb:
    tables: dict[str, list[Column]]  # attribute columns only
    parent: dict[str, str | None]


def _bird_layout(rng: random.Random) -> BirdDb:
    tables: dict[str, list[Column]] = {}
    parent: dict[str, str | None] = {}
    slot = 0
    for ti, table in enumerate(BIRD_TABLES):
        parent[table] = None if ti == 0 else BIRD_TABLES[(ti - 1) // 2]
        cols: list[Column] = []
        used: set[str] = set()
        for _ in range(BIRD_ATTRS[ti]):
            kind = _CLASSES[slot % 4]
            slot += 1
            while True:
                if kind == "c3":
                    stem = rng.choice(sorted(_C3))
                elif kind == "c20":
                    stem = rng.choice(_C20)
                elif kind == "c200":
                    stem = rng.choice(_C200)
                else:
                    stem = rng.choice(_CK_INT + _CK_REAL)
                name = stem if stem not in used else f"{stem}{len(used)}"
                if name not in used:
                    break
            used.add(name)
            if kind == "c3":
                cols.append(Column(name, kind, _C3[stem]))
            elif kind == "c20":
                cols.append(Column(name, kind, tuple(_distinct_words(rng, 20, 2))))
            elif kind == "c200":
                cols.append(Column(name, kind, tuple(_distinct_words(rng, 200, 3))))
            else:
                cols.append(Column(name, kind, (1000, 99999, stem in _CK_REAL)))
        tables[table] = cols
    return BirdDb(tables=tables, parent=parent)


def _cell(rng: random.Random, col: Column, row: int):
    if col.kind == "cK":
        lo, hi, real = col.values
        v = rng.randint(lo, hi)
        return round(v / 100.0, 2) if real else v
    # cycle through every value first so each one is present
    if row < len(col.values):
        return col.values[row]
    return rng.choice(col.values)


def write_bird_db(path: Path, seed: int) -> BirdDb:
    rng = random.Random(f"bird-db:{seed}")
    db = _bird_layout(rng)
    ddl, rows = [], {}
    for table, cols in db.tables.items():
        parts = [f"{table}_id INTEGER PRIMARY KEY"]
        par = db.parent[table]
        if par:
            parts.append(f"{par}_id INTEGER REFERENCES {par}({par}_id)")
        for c in cols:
            ctype = ("REAL" if c.values[2] else "INTEGER") if c.kind == "cK" else "TEXT"
            parts.append(f"{c.name} {ctype}")
        ddl.append(f"CREATE TABLE {table} ({', '.join(parts)})")
        table_rows = []
        for r in range(BIRD_ROWS):
            row = [r + 1]
            if par:
                row.append(rng.randint(1, BIRD_ROWS))
            row.extend(_cell(rng, c, r) for c in cols)
            table_rows.append(tuple(row))
        rows[table] = table_rows
    _write_db(path, ddl, rows)
    return db


def _words(name: str) -> str:
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append(" ")
        out.append(ch.lower())
    return "".join(out).replace("_", " ")


_CATEGORICAL = ("c3", "c20", "c200")


def _bird_family(rng: random.Random, db: BirdDb, f: int, table: str, cls: str) -> Family:
    """Family ``f`` on ``table``; its categorical columns are of class ``cls``,
    which sets how many rows the filters keep."""
    cols = db.tables[table]
    cat = rng.choice([c for c in cols if c.kind == cls])
    num = rng.choice([c for c in cols if c.kind == "cK"])
    v = rng.choice(cat.values)
    key = f"{table}_id"
    tw, cw, nw = table, _words(cat.name), _words(num.name)
    if f == 0:
        return Family(
            f"How many {tw} records have {cw} '{v}'?",
            f"SELECT COUNT(*) FROM {table} WHERE {cat.name} = '{v}'",
            f"SELECT COUNT({key}) FROM {table} WHERE {cat.name} = '{v}'",
            f"SELECT COUNT(*) FROM {table} WHERE {cat.name} <> '{v}'",
            table,
        )
    if f == 1:
        return Family(
            f"What is the average {nw} of {tw} with {cw} {v}?",
            f"SELECT AVG({num.name}) FROM {table} WHERE {cat.name} = '{v}'",
            f"SELECT SUM({num.name}) * 1.0 / COUNT({num.name}) FROM {table} WHERE {cat.name} = '{v}'",
            f"SELECT AVG({num.name}) FROM {table} WHERE {cat.name} <> '{v}'",
            table,
        )
    if f == 2:
        child = table if db.parent[table] else BIRD_TABLES[1]
        par = db.parent[child]
        pcat = rng.choice([c for c in db.tables[par] if c.kind == cls])
        pv = rng.choice(pcat.values)
        cnum = rng.choice([c for c in db.tables[child] if c.kind == "cK"])
        return Family(
            f"List the {_words(cnum.name)} of every {child} whose {par} has {_words(pcat.name)} '{pv}'.",
            f"SELECT T1.{cnum.name} FROM {child} AS T1 JOIN {par} AS T2 "
            f"ON T1.{par}_id = T2.{par}_id WHERE T2.{pcat.name} = '{pv}'",
            f"SELECT {cnum.name} FROM {child} WHERE {par}_id IN "
            f"(SELECT {par}_id FROM {par} WHERE {pcat.name} = '{pv}')",
            f"SELECT T1.{cnum.name} FROM {child} AS T1 JOIN {par} AS T2 "
            f"ON T1.{par}_id = T2.{par}_id WHERE T2.{pcat.name} <> '{pv}'",
            child,
        )
    if f == 3:
        return Family(
            f"For each {cw}, how many {tw} are there?",
            f"SELECT {cat.name}, COUNT(*) FROM {table} GROUP BY {cat.name}",
            f"SELECT {cat.name}, COUNT({key}) FROM {table} GROUP BY {cat.name}",
            f"SELECT {cat.name}, MAX({key}) FROM {table} GROUP BY {cat.name}",
            table,
        )
    if f == 4:
        return Family(
            f"Which five {tw} have the highest {nw}?",
            f"SELECT {key}, {num.name} FROM {table} ORDER BY {num.name} DESC, {key} LIMIT 5",
            f"SELECT {key}, {num.name} FROM {table} ORDER BY -{num.name}, {key} LIMIT 5",
            f"SELECT {key}, {num.name} FROM {table} ORDER BY {num.name}, {key} LIMIT 5",
            table,
        )
    return Family(
        f"How many {tw} have {nw} above the average {nw}?",
        f"SELECT COUNT(*) FROM {table} WHERE {num.name} > (SELECT AVG({num.name}) FROM {table})",
        f"SELECT COUNT(*) FROM {table} WHERE NOT {num.name} <= (SELECT AVG({num.name}) FROM {table})",
        f"SELECT COUNT(*) FROM {table} WHERE {num.name} < (SELECT AVG({num.name}) FROM {table})",
        table,
    )


BIRD_FAMILIES = 6


def _bird_families(rng: random.Random, db: BirdDb, n: int):
    """Family i % 6 on every table in turn (in a seeded order), with the
    categorical column class in turn too, so that each run covers the
    tables, families and filter sizes evenly whatever the seed."""
    order = list(BIRD_TABLES)
    rng.shuffle(order)
    for i in range(n):
        cls = _CATEGORICAL[(i // BIRD_FAMILIES) % len(_CATEGORICAL)]
        yield _bird_family(rng, db, i % BIRD_FAMILIES,
                           order[(i // BIRD_FAMILIES + i) % len(order)], cls)


def bird_questions(db: BirdDb, seed: int, n: int) -> list[Question]:
    rng = random.Random(f"bird-questions:{seed}")
    out = []
    for i, (fam, kinds) in enumerate(zip(_bird_families(rng, db, n), candidate_kinds(n))):
        other = rng.choice([t for t in BIRD_TABLES if t not in fam.gold])
        ocol = rng.choice(db.tables[other])
        out.append(
            make_question(
                f"bird-{i:04d}", fam, kinds,
                f"SELECT {ocol.name} FROM {other} WHERE {other}_id < 4",
                f"SELECT COUNT(*) FROM {fam.table}_archive",
            )
        )
    return out


def bird_corpus(db: BirdDb, seed: int, n: int) -> list[dict]:
    """Question-SQL pairs for the serve_bird pattern graph."""
    rng = random.Random(f"bird-corpus:{seed}")
    rows = []
    for i, fam in enumerate(_bird_families(rng, db, n)):
        rows.append({"id": f"c{i:05d}", "db_id": "bird", "question": fam.text, "sql": fam.gold})
    return rows


# -- schools databases (schools workload) ------------------------------------

SCHOOLS_DDL = [
    "CREATE TABLE schools (CDSCode TEXT PRIMARY KEY, School TEXT, District TEXT, "
    "County TEXT, City TEXT, Website TEXT, Virtual TEXT, Charter INTEGER)",
    "CREATE TABLE frpm (CDSCode TEXT PRIMARY KEY REFERENCES schools(CDSCode), "
    "FreeMealCount REAL, FRPMCount REAL, Enrollment REAL, SchoolType TEXT)",
    "CREATE TABLE satscores (cds TEXT PRIMARY KEY REFERENCES schools(CDSCode), "
    "NumTstTakr INTEGER, NumGE1500 INTEGER, AvgScrMath INTEGER, AvgScrRead INTEGER)",
]
SCHOOL_TYPES = ("Elementary", "Middle School", "High School", "K-12", "Continuation")
VIRTUAL = ("N", "P", "F")


@dataclass
class SchoolsDb:
    counties: tuple[str, ...]
    cities: tuple[str, ...]
    districts: tuple[str, ...]
    schools: tuple[str, ...]  # School names, one per row
    rows: int


SCHOOLS_COUNTIES, SCHOOLS_CITIES, SCHOOLS_DISTRICTS = 40, 120, 150


def write_schools_db(path: Path, seed: int, rows: int) -> SchoolsDb:
    n_counties, n_cities, n_districts = SCHOOLS_COUNTIES, SCHOOLS_CITIES, SCHOOLS_DISTRICTS
    rng = random.Random(f"schools-db:{seed}:{rows}")
    counties = tuple(_distinct_words(rng, n_counties, 2))
    cities = tuple(_distinct_words(rng, n_cities, 3))
    districts = tuple(f"{w} Unified" for w in _distinct_words(rng, n_districts, 2))
    schools_rows, frpm_rows, sat_rows, names = [], [], [], []
    for i in range(rows):
        code = f"{rng.randint(10, 58):02d}{i:08d}"
        name = f"{_word(rng, 2)} School {i}"
        names.append(name)
        schools_rows.append((
            code, name, districts[i % n_districts] if i < n_districts else rng.choice(districts),
            counties[i % n_counties] if i < n_counties else rng.choice(counties),
            cities[i % n_cities] if i < n_cities else rng.choice(cities),
            f"http://s{i}.example.edu", VIRTUAL[rng.randrange(3)], rng.randrange(2),
        ))
        enrollment = float(rng.randint(40, 2400))
        free = float(rng.randint(0, int(enrollment)))
        frpm_rows.append((code, free, round(free * 1.1, 1), enrollment,
                          SCHOOL_TYPES[i % 5] if i < 5 else rng.choice(SCHOOL_TYPES)))
        takers = rng.randint(5, 600)
        sat_rows.append((code, takers, rng.randint(0, takers), rng.randint(350, 750),
                         rng.randint(350, 750)))
    _write_db(path, SCHOOLS_DDL,
              {"schools": schools_rows, "frpm": frpm_rows, "satscores": sat_rows})
    return SchoolsDb(counties, cities, districts, tuple(names), rows)


def _schools_family(rng: random.Random, db: SchoolsDb, f: int) -> Family:
    county = rng.choice(db.counties)
    city = rng.choice(db.cities)
    school = rng.choice(db.schools)
    virtual = rng.choice(VIRTUAL)
    join = "FROM frpm AS f JOIN schools AS s ON f.CDSCode = s.CDSCode"
    sjoin = "FROM satscores AS t JOIN schools AS s ON t.cds = s.CDSCode"
    fams = [
        (f"How many schools are in {county} county?",
         f"SELECT COUNT(*) FROM schools WHERE County = '{county}'",
         f"SELECT COUNT(CDSCode) FROM schools WHERE County = '{county}'",
         f"SELECT COUNT(*) FROM schools WHERE County <> '{county}'", "schools"),
        (f"List the websites of schools in {city}.",
         f"SELECT Website FROM schools WHERE City = '{city}'",
         f"SELECT Website FROM schools WHERE City = '{city}' AND 1 = 1",
         f"SELECT Website FROM schools WHERE City > '{city}'", "schools"),
        (f"What is the highest enrollment among schools in {county}?",
         f"SELECT MAX(f.Enrollment) {join} WHERE s.County = '{county}'",
         f"SELECT f.Enrollment {join} WHERE s.County = '{county}' "
         f"ORDER BY f.Enrollment DESC LIMIT 1",
         f"SELECT MIN(f.Enrollment) {join} WHERE s.County = '{county}'", "frpm"),
        (f"Show the average math score for schools in {county}.",
         f"SELECT AVG(t.AvgScrMath) {sjoin} WHERE s.County = '{county}'",
         f"SELECT SUM(t.AvgScrMath) * 1.0 / COUNT(t.AvgScrMath) {sjoin} "
         f"WHERE s.County = '{county}'",
         f"SELECT AVG(t.AvgScrRead) {sjoin} WHERE s.County = '{county}'", "satscores"),
        (f"Which schools in {county} have virtual status {virtual}?",
         f"SELECT School FROM schools WHERE County = '{county}' AND Virtual = '{virtual}'",
         f"SELECT School FROM schools WHERE Virtual = '{virtual}' AND County = '{county}'",
         f"SELECT School FROM schools WHERE County = '{county}' AND Virtual <> '{virtual}'",
         "schools"),
        (f"Count the charter schools per district in {county}.",
         f"SELECT District, COUNT(*) FROM schools WHERE County = '{county}' "
         f"AND Charter = 1 GROUP BY District",
         f"SELECT District, COUNT(CDSCode) FROM schools WHERE County = '{county}' "
         f"AND Charter = 1 GROUP BY District",
         f"SELECT District, COUNT(*) FROM schools WHERE County = '{county}' "
         f"AND Charter = 0 GROUP BY District", "schools"),
        (f"What is the free meal rate of the school named '{school}'?",
         f"SELECT f.FreeMealCount / f.Enrollment {join} WHERE s.School = '{school}'",
         f"SELECT (f.FreeMealCount / f.Enrollment) {join} WHERE s.School = '{school}'",
         f"SELECT f.FreeMealCount / f.Enrollment {join} WHERE s.School <> '{school}' "
         f"LIMIT 3", "frpm"),
        (f"Rank schools in {county} by number of SAT test takers.",
         f"SELECT s.School {sjoin} WHERE s.County = '{county}' "
         f"ORDER BY t.NumTstTakr DESC, s.School",
         f"SELECT s.School {sjoin} WHERE s.County = '{county}' "
         f"ORDER BY -t.NumTstTakr, s.School",
         f"SELECT s.School {sjoin} WHERE s.County = '{county}' "
         f"ORDER BY t.NumTstTakr, s.School", "satscores"),
        (f"What is the excellence rate of schools in {county}?",
         f"SELECT t.NumGE1500 / t.NumTstTakr {sjoin} WHERE s.County = '{county}'",
         f"SELECT (t.NumGE1500 / t.NumTstTakr) {sjoin} WHERE s.County = '{county}'",
         f"SELECT t.NumGE1500 / t.NumTstTakr {sjoin} WHERE s.County <> '{county}'",
         "satscores"),
    ]
    return Family(*fams[f])


SCHOOLS_FAMILIES = 9
SCHOOLS_OUTSIDE = (  # SQL reading columns outside the link, in turn
    "SELECT Website FROM schools WHERE Charter = 1 LIMIT 5",
    "SELECT SchoolType FROM frpm WHERE FRPMCount > 100 LIMIT 5",
    "SELECT AvgScrRead FROM satscores WHERE NumGE1500 > 10 LIMIT 5",
)


def schools_questions(db: SchoolsDb, seed: int, n: int) -> list[Question]:
    rng = random.Random(f"schools-questions:{seed}:{db.rows}")
    out = []
    for i, kinds in enumerate(candidate_kinds(n)):
        fam = _schools_family(rng, db, i % SCHOOLS_FAMILIES)
        out.append(make_question(
            f"schools-{i:04d}", fam, kinds, SCHOOLS_OUTSIDE[i % len(SCHOOLS_OUTSIDE)],
            "SELECT COUNT(*) FROM school_archive"
        ))
    return out


def schools_corpus(db: SchoolsDb, seed: int, n: int) -> list[dict]:
    """Question-SQL pairs over the nine schools families (the served graph)."""
    rng = random.Random(f"schools-corpus:{seed}:{db.rows}")
    rows = []
    for i in range(n):
        fam = _schools_family(rng, db, i % SCHOOLS_FAMILIES)
        rows.append({"id": f"c{i:05d}", "db_id": "schools", "question": fam.text,
                     "sql": fam.gold})
    return rows


# -- diverse corpus for the offline build (schools workload) ----------------------------------

_TEXT_COLS = {
    "schools": ("School", "District", "County", "City", "Website", "Virtual"),
    "frpm": ("SchoolType",),
    "satscores": (),
}
_NUM_COLS = {
    "schools": ("Charter",),
    "frpm": ("FreeMealCount", "FRPMCount", "Enrollment"),
    "satscores": ("NumTstTakr", "NumGE1500", "AvgScrMath", "AvgScrRead"),
}
_KEY = {"schools": "CDSCode", "frpm": "CDSCode", "satscores": "cds"}
_AGGS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def _build_pair(rng: random.Random, db: SchoolsDb) -> tuple[str, str]:
    """One question-SQL pair composed from independent structural choices:
    joins, projection width, aggregates, predicates, grouping, ordering,
    limits and nesting, so the corpus covers hundreds of skeleton shapes."""
    base = rng.choice(("schools", "frpm", "satscores"))
    tables = [base]
    n_joins = rng.choice((0, 0, 1, 1, 2))
    for other in ("schools", "frpm", "satscores"):
        if len(tables) <= n_joins and other not in tables:
            tables.append(other)
    alias = {t: f"T{i + 1}" for i, t in enumerate(tables)}
    qual = (lambda t, c: f"{alias[t]}.{c}") if len(tables) > 1 else (lambda t, c: c)
    num_cols = [(t, c) for t in tables for c in _NUM_COLS[t]]
    text_cols = [(t, c) for t in tables for c in _TEXT_COLS[t]]

    words = []
    group = None
    shape = rng.random()
    if shape < 0.3:  # aggregate
        agg = rng.choice(_AGGS)
        t, c = rng.choice(num_cols)
        select = [f"{agg}({qual(t, c)})" if agg != "COUNT" else "COUNT(*)"]
        words.append(f"the {agg.lower()} of {_words(c)}")
        if rng.random() < 0.5 and text_cols:
            group = rng.choice(text_cols)
            select.insert(0, qual(*group))
            words.append(f"for each {_words(group[1])}")
    else:
        picks = rng.sample(text_cols + num_cols, k=min(len(text_cols + num_cols),
                                                       rng.choice((1, 1, 2, 3))))
        select = [qual(t, c) for t, c in picks]
        words.append("the " + " and ".join(_words(c) for _, c in picks))
    distinct = "DISTINCT " if group is None and shape >= 0.3 and rng.random() < 0.15 else ""

    where = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.random()
        if kind < 0.45 and text_cols:
            t, c = rng.choice(text_cols)
            val = {"County": rng.choice(db.counties), "City": rng.choice(db.cities),
                   "District": rng.choice(db.districts), "Virtual": rng.choice(VIRTUAL),
                   "SchoolType": rng.choice(SCHOOL_TYPES)}.get(c, rng.choice(db.schools))
            op = rng.choice(("=", "=", "<>", "LIKE"))
            lit = f"'{val[:3]}%'" if op == "LIKE" else f"'{val}'"
            where.append(f"{qual(t, c)} {op} {lit}")
            verb = {"=": "is", "<>": "is not"}.get(op, "starts like")
            words.append(f"where {_words(c)} {verb} {val}")
        elif kind < 0.8:
            t, c = rng.choice(num_cols)
            op = rng.choice((">", "<", ">=", "<=", "BETWEEN"))
            n = rng.randint(1, 500)
            if op == "BETWEEN":
                where.append(f"{qual(t, c)} BETWEEN {n} AND {n + rng.randint(10, 300)}")
            else:
                where.append(f"{qual(t, c)} {op} {n}")
            words.append(f"with {_words(c)} {op.lower()} {n}")
        elif kind < 0.9:
            t, c = rng.choice(num_cols)
            where.append(f"{qual(t, c)} > (SELECT AVG({c}) FROM {t})")
            words.append(f"with {_words(c)} above average")
        else:
            t, c = rng.choice(text_cols or num_cols)
            inner = rng.choice(("frpm", "satscores", "schools"))
            inner_num = rng.choice(_NUM_COLS[inner])
            where.append(f"{qual(t, _KEY[t])} IN (SELECT {_KEY[inner]} FROM {inner} "
                         f"WHERE {inner_num} > {rng.randint(1, 300)})")
            words.append(f"that appear in {inner} with high {_words(inner_num)}")
    conj = rng.choice((" AND ", " AND ", " OR "))

    sql = f"SELECT {distinct}{', '.join(select)} FROM {base}"
    if len(tables) > 1:
        sql = f"SELECT {distinct}{', '.join(select)} FROM {base} AS {alias[base]}"
        for t in tables[1:]:
            sql += f" JOIN {t} AS {alias[t]} ON {alias[base]}.{_KEY[base]} = {alias[t]}.{_KEY[t]}"
    if where:
        sql += " WHERE " + conj.join(where)
    if group is not None:
        sql += f" GROUP BY {qual(*group)}"
        if rng.random() < 0.3:
            sql += f" HAVING COUNT(*) > {rng.randint(1, 5)}"
            words.append("having several rows")
    if rng.random() < 0.35:
        t, c = rng.choice(num_cols + text_cols)
        direction = rng.choice(("ASC", "DESC"))
        sql += f" ORDER BY {qual(t, c)} {direction}"
        words.append(f"ordered by {_words(c)}")
        if rng.random() < 0.6:
            k = rng.randint(1, 10)
            sql += f" LIMIT {k}"
            words.append(f"top {k}")
    question = f"Show {' '.join(words)} from {' and '.join(tables)}."
    return question, sql


def build_corpus(db: SchoolsDb, seed: int, n: int) -> list[dict]:
    rng = random.Random(f"build-corpus:{seed}")
    rows = []
    for i in range(n):
        q, sql = _build_pair(rng, db)
        rows.append({"id": f"b{i:05d}", "db_id": "schools", "question": q, "sql": sql})
    return rows


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
