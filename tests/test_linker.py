"""Lexical relevance scoring (hand oracle), two-step linking, and SLR."""

import math
import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from sqlknow import linker
from sqlknow.linker import link, score_relevance, slr
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef, name_key, schema_from_sqlite_file


def toy_schema():
    return DatabaseSchema(
        db_id="toy",
        tables=[
            TableDef("schools", (
                ColumnDef("County"),
                ColumnDef("Website"),
                ColumnDef("Virtual"),
            )),
            TableDef("frpm", (ColumnDef("Enrollment"),)),
        ],
        value_samples={"schools.County": ["San Joaquin", "Fresno"]},
    )


def test_lexical_scores_match_hand_computation():
    """Weighted overlap formula computed by hand:

    question tokens {website, of, schools, in, county}
      table schools: name overlap 1/1      -> 1.0/1.5            = 0.666667
      schools.County: name overlap 1/1     -> 1.0/2.3            = 0.434783
      schools.Website: name overlap 1/1    -> 1.0/2.3            = 0.434783
      schools.Virtual: no overlap          -> 0
      frpm: no overlap                     -> 0
    """
    scores = score_relevance("website of schools in county", toy_schema(), None)
    assert math.isclose(scores.tables["schools"], 1.0 / 1.5, abs_tol=1e-9)
    assert math.isclose(scores.columns["schools.County"], 1.0 / 2.3, abs_tol=1e-9)
    assert math.isclose(scores.columns["schools.Website"], 1.0 / 2.3, abs_tol=1e-9)
    assert scores.columns["schools.Virtual"] == 0.0
    assert scores.tables["frpm"] == 0.0


def test_value_hit_contributes_point_eight():
    scores = score_relevance("schools in San Joaquin", toy_schema(), None)
    # County: no name overlap ("county" not in question), value hit only
    assert math.isclose(scores.columns["schools.County"], 0.8 / 2.3, abs_tol=1e-9)


def test_a_blank_sampled_value_occurs_in_no_question(tmp_path):
    with closing(sqlite3.connect(tmp_path / "people.sqlite")) as db, db:
        db.execute("CREATE TABLE people (name TEXT, nickname TEXT, age INTEGER)")
        db.executemany("INSERT INTO people VALUES (?, ?, ?)", [("Ann", "", 30), ("Bo", None, 41)])
    schema = schema_from_sqlite_file(tmp_path / "people.sqlite")
    assert schema.value_samples["people.nickname"] == [""]
    for q in ("How many people are there?", "How many people are there", "people: ' '"):
        assert score_relevance(q, schema).columns["people.nickname"] == 0.0
        assert link(q, schema, k2=1).columns["people"] == (("people.age", 0.0),)


def test_empty_question_scores_zero():
    scores = score_relevance("", toy_schema(), None)
    assert all(v == 0.0 for v in scores.tables.values())
    assert all(v == 0.0 for v in scores.columns.values())


def test_exact_column_name_beats_zero_overlap(schools, kb):
    scores = score_relevance("what is the enrollment?", schools, kb)
    assert scores.columns["frpm.Enrollment"] >= max(
        v for k, v in scores.columns.items() if k != "frpm.Enrollment"
    )


def test_annotation_tokens_contribute(schools, kb):
    with_kb = score_relevance("number of SAT test takers", schools, kb)
    without = score_relevance("number of SAT test takers", schools, None)
    assert with_kb.columns["satscores.NumTstTakr"] > without.columns["satscores.NumTstTakr"]


def test_scores_within_unit_interval(schools, kb, corpus):
    for row in corpus[:20]:
        scores = score_relevance(row["question"], schools, kb)
        for v in list(scores.tables.values()) + list(scores.columns.values()):
            assert 0.0 <= v <= 1.0


# -- link --------------------------------------------------------------------------


def test_small_schema_saturates(schools, kb):
    result = link("anything", schools, kb, k1=10, k2=20, k3=5)
    assert len(result.tables) == len(schools.tables)
    for table, cols in result.columns.items():
        assert len(cols) == len(schools.table_by_key[name_key(table)].columns)


def test_k_values_must_be_positive(schools, kb):
    with pytest.raises(ValueError):
        link("q", schools, kb, k1=5, k2=12, k3=0)


def test_empty_quoted_literal_links():
    schema = replace(toy_schema(), value_samples={"schools.County": ["", "Fresno"]})
    # Website wins step 1 (k2=1); the empty literal '' adds County in step 2
    result = link("website of schools named ''", schema, None, k1=1, k2=1)
    assert result.expansion_added == {"schools.County"}


def test_selected_columns_belong_to_selected_tables(schools, kb, corpus):
    for row in corpus[:10]:
        result = link(row["question"], schools, kb, k1=2, k2=3, k3=2)
        tables = {t for t, _ in result.tables}
        for table, cols in result.columns.items():
            assert table in tables
            for col_id, _ in cols:
                assert col_id.split(".", 1)[0] == table


def test_scores_descending_with_stable_ties(schools, kb):
    result = link("schools county enrollment", schools, kb, k1=3, k2=5, k3=2)
    table_scores = [s for _, s in result.tables]
    assert table_scores == sorted(table_scores, reverse=True)
    for cols in result.columns.values():
        scores = [s for _, s in cols]
        assert scores == sorted(scores, reverse=True)
        for (id_a, s_a), (id_b, s_b) in zip(cols, cols[1:]):
            if s_a == s_b:
                assert id_a < id_b


def test_value_match_expands_beyond_k2(schools, kb):
    q = "county of the school with web address 'http://school07.example.edu'"
    result = link(q, schools, kb, k1=3, k2=1, k3=1)
    step1 = {cid for cols in result.columns.values() for cid, _ in cols}
    assert "schools.Website" not in step1
    assert "schools.Website" in result.expansion_added
    assert "schools.Website" in result.linked_column_ids()


def test_link_deterministic(schools, kb):
    q = "average math score in Fresno"
    a = link(q, schools, kb)
    b = link(q, schools, kb)
    assert a == b


# -- SLR ---------------------------------------------------------------------------


def eval_set_from(corpus):
    return [(r["question"], r["sql"]) for r in corpus]


def test_slr_is_one_when_everything_linked(schools, kb, corpus):
    [report] = slr(eval_set_from(corpus), schools, kb, k1=10, k2s=[20], k3=3)
    assert report.recall == 1.0
    assert report.excluded == 0


def test_slr_direct_ratio(schools, kb):
    eval_set = [
        ("enrollment of every school", "SELECT Enrollment FROM frpm"),  # easy hit
        ("free meal count please", "SELECT FreeMealCount FROM frpm"),  # easy hit
        ("who knows", "SELECT Virtual, Charter, District FROM schools"),  # miss at k2=1
        ("mystery", "SELECT AvgScrRead, NumGE1500 FROM satscores"),  # miss at k2=1
    ]
    [report] = slr(eval_set, schools, None, k1=3, k2s=[1], k3=1)
    assert report.evaluated == 4
    assert report.recall == pytest.approx(report.hits / 4)
    assert 0.0 <= report.recall < 1.0


def test_unparseable_gold_excluded_and_tallied(schools, kb):
    eval_set = [
        ("fine", "SELECT County FROM schools"),
        ("broken", "SELEC County FROM"),
    ]
    [report] = slr(eval_set, schools, kb, k1=3, k2s=[12], k3=1)
    assert report.excluded == 1
    assert report.evaluated == 1


def test_slr_reads_each_gold_once_across_the_sweep(schools, kb, corpus, monkeypatch):
    eval_set = eval_set_from(corpus)
    one_at_a_time = [slr(eval_set, schools, kb, k1=3, k2s=[k2], k3=2)[0] for k2 in (4, 8, 16)]
    reads = []
    original = linker.extract_references
    monkeypatch.setattr(linker, "extract_references",
                        lambda sql, schema: reads.append(sql) or original(sql, schema))
    assert slr(eval_set, schools, kb, k1=3, k2s=[4, 8, 16], k3=2) == one_at_a_time
    assert reads == [sql for _, sql in eval_set]


def test_slr_monotone_in_k2_and_step2_dominates(schools, kb, corpus):
    eval_set = eval_set_from(corpus)
    prev_step1, prev_step2 = -1.0, -1.0
    for slr_report in slr(eval_set, schools, kb, k1=3, k2s=[4, 8, 12, 16], k3=2):
        step1, step2 = slr_report.step1_recall, slr_report.recall
        assert step1 >= prev_step1 - 1e-12
        assert step2 >= prev_step2 - 1e-12
        assert step2 >= step1 - 1e-12
        prev_step1, prev_step2 = step1, step2
