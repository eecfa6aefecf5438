"""Prompt assembly: golden files, budgets, truncation order, determinism."""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prompt_oracle as oracle
import retrieval_oracle
from test_schema import _LETTERS, _recased
from sqlknow.errors import BudgetExceededError
from sqlknow.knowledge import DomainTerm, KnowledgeBase, SchemaAnnotation, ValueMapping
from sqlknow.linker import LinkResult, link
from sqlknow.prompting import (
    MIN_BUDGET,
    DropCounts,
    assemble,
    load_template,
)
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef, name_key
from sqlknow.skeleton import skeletonize
from sqlknow.textproc import count_units, estimate_tokens

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def mini_schema():
    return DatabaseSchema(
        db_id="mini",
        tables=[
            TableDef("employees", (
                ColumnDef("id", "INTEGER", pk=True),
                ColumnDef("name", "TEXT"),
                ColumnDef("salary", "REAL"),
            )),
        ],
    )


def full_inputs(schools, kb):
    q = "What is the free meal rate of partially virtual schools in San Joaquin?"
    link_result = link(q, schools, kb, k1=5, k2=12, k3=5)
    skeletons = [
        skeletonize("SELECT FreeMealCount / Enrollment FROM frpm WHERE CDSCode = 'x'"),
        skeletonize("SELECT School FROM schools WHERE Virtual = 'P' AND County = 'y'"),
        skeletonize("SELECT COUNT(*) FROM schools WHERE County = 'z'"),
    ]
    return link_result, skeletons, q


def test_template_has_all_placeholders_once_in_order():
    template = load_template()
    placeholders = re.findall(r"\$\{[A-Z_]+\}", template)
    assert placeholders == [
        "${DATABASE_SCHEMA}", "${DOMAIN_KG}", "${QA_PAIRS}", "${USER_QUESTION}"
    ]
    for p in placeholders:
        assert template.count(p) == 1
        # on its own line, so no token spans a placeholder's edge
        assert f"\n{p}\n" in template


def test_minimal_golden_byte_for_byte():
    schema = mini_schema()
    q = "Who earns the highest salary?"
    link_result = link(q, schema, KnowledgeBase(db_id="mini"), k1=5, k2=12, k3=1)
    bundle = assemble(link_result, [], q, budget=4096, schema=schema,
                      kb=KnowledgeBase(db_id="mini"))
    assert bundle.text == (GOLDEN_DIR / "golden_minimal.txt").read_text(encoding="utf-8")
    assert not bundle.truncated


def test_full_golden_byte_for_byte(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    bundle = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    assert bundle.text == (GOLDEN_DIR / "golden_full.txt").read_text(encoding="utf-8")
    assert not bundle.truncated
    assert bundle.token_count <= 4096


def test_truncated_golden_byte_for_byte(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    bundle = assemble(link_result, skeletons, q, budget=400, schema=schools, kb=kb)
    assert bundle.text == (GOLDEN_DIR / "golden_truncated.txt").read_text(encoding="utf-8")
    assert bundle.truncated
    assert bundle.token_count <= 400
    assert q in bundle.text  # the question is never truncated


def test_budgets_2048_and_4096_respected(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    for budget in (2048, 4096):
        bundle = assemble(link_result, skeletons, q, budget=budget, schema=schools, kb=kb)
        assert bundle.token_count <= budget


def test_reassembly_is_byte_identical(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    a = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    b = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    assert a.text == b.text


def test_sections_appear_in_template_order(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    bundle = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    schema_pos = bundle.text.index("### DATABASE SCHEMA")
    domain_pos = bundle.text.index("### DOMAIN KNOWLEDGE")
    pattern_pos = bundle.text.index("### RELEVANT QA PAIRS")
    question_pos = bundle.text.index("### QUESTION")
    assert schema_pos < domain_pos < pattern_pos < question_pos
    for header in ("### DATABASE SCHEMA", "### DOMAIN KNOWLEDGE",
                   "### RELEVANT QA PAIRS", "### QUESTION"):
        assert bundle.text.count(header) == 1


def test_truncation_drops_columns_before_skeletons_before_terms(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    untruncated = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    n_columns_full = oracle.section(untruncated.text, "DATABASE SCHEMA").count("\n")

    # a budget that forces some truncation but not a total wipe drops columns
    mid = assemble(link_result, skeletons, q, budget=560, schema=schools, kb=kb)
    assert mid.truncated
    assert oracle.section(mid.text, "DATABASE SCHEMA").count("\n") < n_columns_full
    # skeletons and terms still present at this budget
    assert oracle.section(mid.text, "RELEVANT QA PAIRS") != "(none)"
    assert oracle.section(mid.text, "DOMAIN KNOWLEDGE") != "(none)"

    tight = assemble(link_result, skeletons, q, budget=420, schema=schools, kb=kb)
    assert tight.truncated
    # all columns went first, then skeletons; terms survive the longest
    assert oracle.section(tight.text, "DATABASE SCHEMA") == "(none)"
    assert oracle.section(tight.text, "DOMAIN KNOWLEDGE") != "(none)"
    assert q in tight.text


def test_budget_below_minimum_rejected(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    with pytest.raises(ValueError):
        assemble(link_result, skeletons, q, budget=128, schema=schools, kb=kb)


def test_budget_too_small_for_scaffolding_errors(schools, kb):
    link_result, skeletons, _ = full_inputs(schools, kb)
    long_question = "why " * 400
    with pytest.raises(BudgetExceededError):
        assemble(link_result, skeletons, long_question, budget=300,
                 schema=schools, kb=kb)


def test_qa_pairs_mode_renders_question_sql_exemplars(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    qa = [("How many schools are in Fresno county?",
           "SELECT COUNT(*) FROM schools WHERE County = 'Fresno'")]
    bundle = assemble(
        link_result, skeletons, q, budget=4096, schema=schools, kb=kb,
        qa_pairs=qa,
    )
    assert "1. Q: How many schools are in Fresno county?" in bundle.text
    assert "   A: SELECT COUNT(*) FROM schools WHERE County = 'Fresno'" in bundle.text



def test_placeholders_inside_sections_are_not_substituted():
    schema = mini_schema()
    annotation = "yearly pay, see ${USER_QUESTION}"
    kb = KnowledgeBase(db_id="mini", annotations=(
        SchemaAnnotation("employees.salary", annotation),
    ))
    q = "Who earns the highest salary?"
    link_result = link(q, schema, kb, k1=5, k2=12, k3=1)
    skeleton = "SELECT ${USER_QUESTION} FROM _T"
    bundle = assemble(link_result, [skeleton], q, budget=4096, schema=schema, kb=kb)
    assert bundle.text.count(q) == 1
    assert annotation in bundle.text
    assert f"1. {skeleton}" in bundle.text


def test_token_count_is_the_estimate_of_the_text(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    for budget in (400, 560, 4096):
        bundle = assemble(link_result, skeletons, q, budget=budget, schema=schools, kb=kb)
        assert bundle.token_count == estimate_tokens(bundle.text)


def test_drop_counts_name_what_truncation_removed(schools, kb):
    link_result, skeletons, q = full_inputs(schools, kb)
    full = assemble(link_result, skeletons, q, budget=4096, schema=schools, kb=kb)
    assert full.dropped == DropCounts()
    full_schema = oracle.section(full.text, "DATABASE SCHEMA")
    n_columns = len(full_schema.splitlines()) - 2 * len(
        re.findall(r"^CREATE TABLE ", full_schema, re.MULTILINE))

    tight = assemble(link_result, skeletons, q, budget=420, schema=schools, kb=kb)
    assert tight.dropped.columns == n_columns
    assert 0 < tight.dropped.skeletons < len(skeletons)
    assert len(oracle.section(tight.text, "RELEVANT QA PAIRS").splitlines()) == \
        len(skeletons) - tight.dropped.skeletons
    assert (tight.dropped.qa_pairs, tight.dropped.terms) == (0, 0)

    mid = assemble(link_result, skeletons, q, budget=560, schema=schools, kb=kb)
    assert 0 < mid.dropped.columns < n_columns
    assert (mid.dropped.skeletons, mid.dropped.terms) == (0, 0)


# -- the one-render walk against the re-render-per-drop oracle ------------------------

_TEXT = st.one_of(
    st.text(alphabet="ab Z9_-,.;:()'\"\n\té中ßΣ$", max_size=16),
    st.sampled_from([
        "yearly pay, see ${USER_QUESTION}", "${DATABASE_SCHEMA}", "${QA_PAIRS}", "(none)",
        "a, b", "x\ny", "naïve café", "--", "", " ",
    ]),
)
_SCORE = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # few values, so ties happen
# "Pay5" and "id_2" extend "Pay" and "id": an id that is a prefix of another
_COLUMN_NAMES = ["id", "name", "Pay", "rate_2", "école", "x", "Pay5", "id_2"]


@st.composite
def prompt_inputs(draw):
    tables = []
    for t in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(_COLUMN_NAMES), min_size=1, max_size=5,
                              unique=True))
        tables.append(TableDef(f"t{t}", tuple(
            ColumnDef(name, draw(st.sampled_from(["TEXT", "INTEGER", ""])),
                      pk=draw(st.booleans()), fk=draw(st.sampled_from([None, "t0.id"])))
            for name in names
        )))
    schema = DatabaseSchema(db_id="p", tables=tables)
    table_ids = [t.name for t in tables]
    column_ids = {t.name: [f"{t.name}.{c.name}" for c in t.columns] for t in tables}
    all_columns = [c for ids in column_ids.values() for c in ids]

    kb = draw(st.one_of(st.none(), st.builds(
        lambda anns, maps: KnowledgeBase(db_id="p", annotations=tuple(anns),
                                         value_mappings=tuple(maps)),
        st.lists(st.builds(SchemaAnnotation, st.sampled_from(table_ids + all_columns), _TEXT),
                 max_size=6),
        st.lists(st.builds(ValueMapping, st.sampled_from(all_columns), _TEXT, _TEXT),
                 max_size=4),
    )))
    terms = draw(st.lists(st.tuples(
        st.builds(DomainTerm, _TEXT, _TEXT, st.just(()), explanation=_TEXT), _SCORE,
    ), max_size=4))
    linked_tables = draw(st.lists(st.sampled_from(table_ids), unique=True))
    # columns of every table, linked or not; expansion columns may repeat them
    columns = {}
    for table in table_ids:
        ids = draw(st.lists(st.sampled_from(column_ids[table]), unique=True))
        if ids:
            columns[table] = tuple((col_id, draw(_SCORE)) for col_id in ids)
    expansion = draw(st.frozensets(st.sampled_from(all_columns + ["t9.ghost"]), max_size=4))
    q = draw(_TEXT)
    link_result = LinkResult(
        question=q,
        tables=tuple((t, draw(_SCORE)) for t in linked_tables),
        columns=columns,
        terms=tuple(terms),
        expansion_added=expansion,
    )
    skeletons = draw(st.lists(_TEXT, max_size=4))
    qa_pairs = draw(st.one_of(st.none(), st.lists(st.tuples(_TEXT, _TEXT), max_size=3)))
    # QA-pair mode is qa_pairs given; the oracle still takes the mode as a flag
    qa_pairs = qa_pairs if draw(st.booleans()) else None
    return link_result, skeletons, q, dict(schema=schema, kb=kb, qa_pairs=qa_pairs)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=prompt_inputs(), data=st.data())
def test_walk_equals_the_rerender_oracle(inputs, data):
    link_result, skeletons, q, options = inputs
    mode = options["qa_pairs"] is not None
    untruncated = oracle.assemble(link_result, skeletons, q, 10**9, **options,
                                  qa_pairs_mode=mode)
    # scaffolding, question and three (none) sections: below it assembly fails
    bare = oracle.assemble(LinkResult(q, (), {}, (), frozenset()), [], q, 10**9,
                           schema=options["schema"])
    top = untruncated.token_count + 10
    budget = data.draw(st.one_of(st.integers(MIN_BUDGET, top),
                                 st.integers(max(MIN_BUDGET, bare.token_count - 3), top)),
                       label="budget")
    try:
        expected = oracle.assemble(link_result, skeletons, q, budget, **options,
                                   qa_pairs_mode=mode)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError, match=re.escape(str(exc))):
            assemble(link_result, skeletons, q, budget, **options)
        return
    bundle = assemble(link_result, skeletons, q, budget, **options)
    assert bundle == expected
    assert bundle.token_count == estimate_tokens(bundle.text)


def test_a_tie_drops_the_column_whose_id_extends_another_first():
    # lexicographically, "t.a" < "t.ab" < "t.b": the walk drops "t.b", then "t.ab"
    schema = DatabaseSchema("p", [TableDef("t", tuple(
        ColumnDef(name, "TEXT") for name in ("a", "ab", "b")))])
    for ids in (("t.a", "t.ab", "t.b"), ("t.b", "t.ab", "t.a")):
        link_result = LinkResult("q", (("t", 1.0),), {"t": tuple((i, 0.5) for i in ids)},
                                 (), frozenset())
        full = assemble(link_result, [], "q", 10**6, schema=schema)
        kept = []
        for budget in range(full.token_count, MIN_BUDGET, -1):
            bundle = assemble(link_result, [], "q", budget, schema=schema)
            assert bundle == oracle.assemble(link_result, [], "q", budget, schema=schema)
            lines = oracle.section(bundle.text, "DATABASE SCHEMA").splitlines()[1:-1]
            if not lines:
                break
            kept.append([line.split()[0] for line in lines])
        assert [k for i, k in enumerate(kept) if k not in kept[:i]] == [
            ["a", "ab", "b"], ["a", "ab"], ["a"]]


# -- the per-schema column lines and per-KB comments against the render oracle ------


@st.composite
def twin_named_schema_and_kb(draw):
    """A schema whose names hold non-ASCII case twins, unique by SQLite's rule, and
    a KB (or none) whose annotations and value mappings name its tables and columns
    with letters re-cased, which may name another table or column or none."""
    names = st.text(alphabet=_LETTERS, min_size=1, max_size=3)
    table_names = draw(st.lists(names, min_size=1, max_size=3, unique_by=name_key))
    tables = [TableDef(t, tuple(
        ColumnDef(c, draw(st.sampled_from(["TEXT", "INTEGER", ""])), pk=draw(st.booleans()),
                  fk=draw(st.sampled_from([None, f"{table_names[0]}.{c}"])))
        for c in draw(st.lists(names, min_size=1, max_size=4, unique_by=name_key))
    )) for t in table_names]
    targets = st.sampled_from(
        table_names + [f"{t.name}.{c.name}" for t in tables for c in t.columns]
    ).flatmap(_recased)
    kb = draw(st.one_of(st.none(), st.builds(
        lambda anns, maps: KnowledgeBase(db_id="p", annotations=tuple(anns),
                                         value_mappings=tuple(maps)),
        st.lists(st.builds(SchemaAnnotation, targets, _TEXT), max_size=6),
        st.lists(st.builds(ValueMapping, targets, _TEXT, _TEXT), max_size=4),
    )))
    return DatabaseSchema(db_id="p", tables=tables), kb


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=twin_named_schema_and_kb())
def test_kept_column_lines_equal_the_render_oracle(inputs):
    schema, kb = inputs
    column_comments = kb.column_comments if kb is not None else {}
    table_comments = kb.table_comments if kb is not None else {}
    for _ in range(2):  # the second pass reads the lines the first one kept
        for tdef in schema.tables:
            header, header_units, columns = schema.column_lines[name_key(tdef.name)]
            comment, comment_units = table_comments.get(name_key(tdef.name), ("", 0))
            assert (header, ");" + comment) == retrieval_oracle.table_frame(tdef, kb)
            assert header_units == count_units(header)
            # the comment starts with a space, so the two counts add up
            assert count_units(");") + comment_units == count_units(");" + comment)
            assert len(columns) == len(tdef.columns)
            for (col_id, decl, decl_units, key), col in zip(columns, tdef.columns):
                assert (col_id, key) == (f"{tdef.name}.{col.name}", name_key(col_id))
                comment, comment_units = column_comments.get(key, ("", 0))
                assert (decl, comment) == retrieval_oracle.column_line(tdef, col, kb)
                assert decl_units == count_units(decl)
                assert decl_units + comment_units == count_units(decl + comment)
