"""Term mining (combination loop) and schema enrichment on the mock gateway."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import term_miner_oracle as oracle
from fixture_db import schools_schema
from sqlknow.errors import GatewayError
from sqlknow.gateway import MockRule, MockScript, RequestKind, mock_gateway
from sqlknow.knowledge import Operator, State
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef
from sqlknow.term_miner import LOW_CARDINALITY_MAX, MineConfig, enrich_schema, mine_terms


def test_all_approving_mock_returns_exactly_top_k(schools):
    gateway = mock_gateway()  # default review: always valid
    config = MineConfig(top_k=12, n_target=24, seed=5)
    result = mine_terms(schools, gateway, config)
    assert len(result.terms) == 12
    assert result.report.valid_generated == 24
    assert not result.report.partial
    confidences = [t.confidence for t in result.terms]
    assert confidences == sorted(confidences, reverse=True)


def test_every_term_has_two_plus_resolvable_columns(schools):
    result = mine_terms(schools, mock_gateway(), MineConfig(top_k=10, n_target=20, seed=1))
    for term in result.terms:
        assert len(term.columns_used) >= 2
        for col in term.columns_used:
            assert schools.resolve_column_id(col) is not None
        assert term.status.state is State.PENDING
        assert term.operator is not Operator.NONE


def test_mining_is_bitwise_reproducible(schools):
    config = MineConfig(top_k=15, n_target=30, seed=77)
    a = mine_terms(schools, mock_gateway(), config)
    b = mine_terms(schools, mock_gateway(), config)
    assert [(t.term_text, t.sql_expression, t.confidence) for t in a.terms] == [
        (t.term_text, t.sql_expression, t.confidence) for t in b.terms
    ]


def test_single_column_schema_rejected():
    schema = DatabaseSchema(db_id="tiny", tables=[TableDef("t", (ColumnDef("only"),))])
    with pytest.raises(ValueError):
        mine_terms(schema, mock_gateway(), MineConfig(top_k=2, n_target=4))


def test_top_k_cannot_exceed_target():
    with pytest.raises(ValueError):
        MineConfig(top_k=10, n_target=5)


def test_rejecting_mock_flags_partial(schools):
    script = MockScript(review_approval_rate=0.0)
    result = mine_terms(schools, mock_gateway(script), MineConfig(top_k=5, n_target=10, seed=3))
    assert result.report.partial
    assert result.terms == []
    assert result.report.valid_generated == 0


def test_budget_exhaustion_flags_partial(schools):
    # approve almost nothing so the review budget runs out before the target
    script = MockScript(review_approval_rate=0.01, seed=9)
    config = MineConfig(top_k=5, n_target=50, review_budget_factor=1, seed=9)
    result = mine_terms(schools, mock_gateway(script), config)
    assert result.report.partial
    assert result.report.review_calls <= config.review_budget_factor * config.n_target


def test_division_terms_note_denominator(schools):
    result = mine_terms(schools, mock_gateway(), MineConfig(top_k=20, n_target=40, seed=2))
    div_terms = [t for t in result.terms if t.operator is Operator.DIV]
    assert div_terms, "seeded run should sample at least one division"
    for term in div_terms:
        assert "nonzero denominator" in term.explanation


def test_report_carries_accepted_target(schools):
    result = mine_terms(schools, mock_gateway(), MineConfig(top_k=4, n_target=8))
    assert result.report.accepted_target == 20


def test_scripted_rule_overrides_default(schools):
    script = MockScript(
        rules=[
            MockRule(
                RequestKind.REVIEW,
                response={"valid": True, "confidence": 1.0,
                          "explanation": "pinned", "term_text": "pinned term"},
            )
        ]
    )
    result = mine_terms(schools, mock_gateway(script), MineConfig(top_k=6, n_target=12, seed=4))
    assert len(result.terms) == 6
    assert all(t.term_text == "pinned term" and t.confidence == 1.0 for t in result.terms)


@pytest.mark.parametrize("field, value", [
    ("confidence", "high"),
    ("confidence", None),
    ("explanation", ["a", "list"]),
    ("term_text", 7),
    ("confidence", 1.5),  # once stored, then refused with the whole KB by store_kb
    ("confidence", float("nan")),
    ("valid", "no"),  # once read as valid
])
def test_a_review_reply_field_of_the_wrong_type_is_a_gateway_error(schools, field, value):
    reply = {"valid": True, "confidence": 0.9, "explanation": "ok", "term_text": "a term",
             field: value}
    script = MockScript(rules=[MockRule(RequestKind.REVIEW, response=reply)])
    with pytest.raises(GatewayError,
                       match=f"^review reply from reviewer-[ab] does not fit: {field}"):
        mine_terms(schools, mock_gateway(script), MineConfig(top_k=2, n_target=4))


@st.composite
def mining_runs(draw):
    """A schema, whether to pass the schools KB, the mock's approval rate and seed, and
    a mining config."""
    schema = draw(st.sampled_from(["racing", "schools", "schools_sampled"]))
    with_kb = schema != "racing" and draw(st.booleans())
    n_target = draw(st.integers(1, 60))
    config = MineConfig(
        clusters=draw(st.none() | st.integers(1, 7)),
        top_k=draw(st.integers(0, n_target)),
        n_target=n_target,
        seed=draw(st.integers(0, 10**6)),
        review_budget_factor=draw(st.sampled_from([0, 1, 2, 10])),
        max_cluster_sweep=draw(st.integers(2, 8)),
    )
    approval = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return schema, with_kb, approval, draw(st.integers(0, 100)), config


@settings(max_examples=300, deadline=None)
@given(run=mining_runs())
def test_mining_equals_the_unique_id_loop_oracle(run, racing, schools, kb):
    name, with_kb, approval, script_seed, config = run
    schema = {"racing": racing, "schools": schools_schema(), "schools_sampled": schools}[name]
    got, want = (
        mine(schema, mock_gateway(MockScript(review_approval_rate=approval, seed=script_seed)),
             config, kb if with_kb else None)
        for mine in (mine_terms, oracle.mine_terms)
    )
    assert got.terms == want.terms
    assert got.report == want.report
    assert got.report.partial == (got.report.valid_generated < config.n_target)


def test_equal_confidences_keep_creation_order():
    # The old loop gave the first term of the second pass the id of the first
    # term of the first, so it ranked ahead of the second term of the first pass.
    rule = MockRule(RequestKind.REVIEW,
                    response={"valid": True, "confidence": 0.9, "explanation": ""})
    config = MineConfig(clusters=2, top_k=3, n_target=6, seed=0)
    result = mine_terms(schools_schema(), mock_gateway(MockScript(rules=[rule])), config)
    assert [t.sql_expression for t in result.terms] == [
        "(schools.School / schools.CDSCode)",
        "(schools.CDSCode + schools.School)",
        "((schools.School / schools.CDSCode) / (schools.CDSCode + schools.School))",
    ]


def test_no_cross_cluster_pair_is_skipped(racing):
    # The old loop skipped this pair as "the same candidate": the right operand,
    # made after the seeds were pruned, had been given the left operand's id.
    script = MockScript(review_approval_rate=0.7, seed=7)
    sent = []

    def record(req):
        sent.append(req.payload["base_names"])
        return script.default_response(req)

    script.rules.append(MockRule(RequestKind.REVIEW, response=record))
    config = MineConfig(clusters=3, top_k=1, n_target=27, seed=65)
    result = mine_terms(racing, mock_gateway(script), config)
    assert result.report.review_calls == len(sent) == 37
    assert ["ratio of nationality to driver id",
            "ratio of ratio of name to nationality to ratio of nationality to driver id"] in sent


# -- enrichment -------------------------------------------------------------------


def test_enrichment_covers_every_table_and_column(schools):
    result = enrich_schema(schools, mock_gateway())
    targets = {a.target for a in result.annotations}
    for table in schools.tables:
        assert table.name in targets
        for col in table.columns:
            assert f"{table.name}.{col.name}" in targets
    assert not result.failures
    assert all(a.status.state is State.PENDING for a in result.annotations)


def test_known_abbreviations_expand(schools):
    result = enrich_schema(schools, mock_gateway())
    by_target = {a.target: a for a in result.annotations}
    assert by_target["schools.CDSCode"].description == "county-district-school code"


def test_low_cardinality_columns_get_mappings(schools):
    result = enrich_schema(schools, mock_gateway())
    mapped_columns = {m.column for m in result.value_mappings}
    assert "schools.Virtual" in mapped_columns  # 3 distinct codes
    virtual = {m.code: m.meaning for m in result.value_mappings
               if m.column == "schools.Virtual"}
    assert virtual == {"F": "Fully virtual", "P": "Partially virtual", "N": "Not virtual"}


def test_high_cardinality_columns_skipped(schools):
    assert len(schools.value_samples["schools.CDSCode"]) > LOW_CARDINALITY_MAX
    result = enrich_schema(schools, mock_gateway())
    mapped_columns = {m.column for m in result.value_mappings}
    assert "schools.CDSCode" not in mapped_columns


def test_dob_column_gets_fixed_expansion():
    schema = DatabaseSchema(db_id="people", tables=[
        TableDef("drivers", (ColumnDef("driverId", "INTEGER", pk=True),
                             ColumnDef("dob", "TEXT"))),
    ])
    result = enrich_schema(schema, mock_gateway())
    by_target = {a.target: a for a in result.annotations}
    assert by_target["drivers.dob"].description == "date of birth"


def test_gender_codes_map_to_male_female():
    schema = DatabaseSchema(
        db_id="people",
        tables=[TableDef("people", (ColumnDef("gender_code", "TEXT"),))],
        value_samples={"people.gender_code": ["F", "M"]},
    )
    result = enrich_schema(schema, mock_gateway())
    mapping = {m.code: m.meaning for m in result.value_mappings
               if m.column == "people.gender_code"}
    assert mapping == {"M": "Male", "F": "Female"}


def test_gateway_failure_skips_item(schools):
    def explode(req):
        raise GatewayError("boom")

    script = MockScript(
        rules=[MockRule(RequestKind.COMPLETE, contains='"name": "Charter"',
                        response=explode)]
    )
    result = enrich_schema(schools, mock_gateway(script))
    assert any(target == "schools.Charter" for target, _ in result.failures)
    assert all(a.target != "schools.Charter" for a in result.annotations)


@pytest.mark.parametrize("rule", [
    MockRule(RequestKind.COMPLETE, contains='"name": "Charter"',
             response={"description": "charter", "abbreviation_expansion": 5}),
    MockRule(RequestKind.COMPLETE, contains='"column": "schools.Charter"',
             response={"mapping": ["Y", "N"]}),
    MockRule(RequestKind.COMPLETE, contains='"column": "schools.Charter"',
             response={"mapping": {"1": 1, "0": "no"}}),  # a meaning once str()-ed
])
def test_an_enrichment_reply_of_the_wrong_shape_fails_its_item(schools, rule):
    result = enrich_schema(schools, mock_gateway(MockScript(rules=[rule])))
    assert [target for target, _ in result.failures] == ["schools.Charter"]
    assert all(isinstance(a.abbreviation_expansion, (str, type(None)))
               for a in result.annotations)
