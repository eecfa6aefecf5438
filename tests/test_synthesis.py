"""Template pool, (rho, alpha) sampling, pair generation, augmentation."""

import collections
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import synthesis_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sqlknow.errors import ConfigError
from sqlknow.gateway import MockRule, MockScript, RequestKind, mock_gateway
from sqlknow.records import from_json, to_json
from sqlknow.skeleton import skeletonize
from sqlknow.synthesis import (
    Difficulty,
    SqlTemplate,
    SynthConfig,
    _relevant_terms,
    augment,
    build_template_pool,
    dataset_record,
    draw_count,
    generate_pairs,
    sample_templates,
    sampling_probabilities,
    synthesize,
    template_similarities,
)
from sqlknow.textproc import EMBED_DIMENSION, embed


def fixture_skeletons():
    return [
        skeletonize("SELECT County FROM schools WHERE Virtual = 'P'"),
        skeletonize("SELECT COUNT(*) FROM schools WHERE County = 'x'"),
        skeletonize("SELECT Enrollment FROM frpm WHERE FreeMealCount > 5"),
    ]


# -- template pool -----------------------------------------------------------------


def test_pool_counts_one_template_per_skeleton_and_difficulty(schools):
    skeletons = fixture_skeletons() + [
        skeletonize("SELECT School FROM schools ORDER BY School LIMIT 3"),
        skeletonize("SELECT AVG(AvgScrMath) FROM satscores"),
        skeletonize("SELECT CDSCode FROM frpm WHERE Enrollment BETWEEN 1 AND 2"),
        skeletonize("SELECT District, COUNT(*) FROM schools GROUP BY District"),
        skeletonize("SELECT NumGE1500 FROM satscores WHERE NumTstTakr > 7"),
        skeletonize("SELECT City FROM schools WHERE Charter = 1"),
        skeletonize("SELECT MAX(FRPMCount) FROM frpm"),
    ]
    assert len(skeletons) == 10
    pool, report = build_template_pool(skeletons, schools, mock_gateway())
    assert len(pool) == 30  # 10 skeletons x 3 difficulty levels
    assert report.requested == 30 and report.rejected == 0
    assert {t.difficulty for t in pool} == set(Difficulty)


def test_inconsistent_template_rejected(schools):
    script = MockScript(
        rules=[MockRule(RequestKind.COMPLETE, contains="expand_template",
                        response={"sql": "SELECT NoSuchColumn FROM schools"})]
    )
    pool, report = build_template_pool(fixture_skeletons(), schools, mock_gateway(script))
    assert pool == []
    assert report.rejected == 9
    assert report.rejected_reasons == {"unresolved": 9}


# SQLite refuses to prepare it: the outer AVG sits inside its own subquery
MISUSED_AGGREGATE = ("SELECT AVG(satscores.cds) FROM satscores WHERE satscores.NumTstTakr > "
                     "(SELECT AVG(satscores.NumGE1500) FROM schools)")


def test_sql_that_sqlite_cannot_prepare_is_rejected(schools, kb):
    script = MockScript(rules=[
        MockRule(RequestKind.COMPLETE, contains="expand_template",
                 response={"sql": MISUSED_AGGREGATE}),
        MockRule(RequestKind.COMPLETE, contains="generate_pair",
                 response={"sql": MISUSED_AGGREGATE, "question": "?"})])
    pool, report = build_template_pool(fixture_skeletons(), schools, mock_gateway(script))
    assert pool == [] and report.rejected == 9
    assert report.rejected_reasons == {"parse: misuse of aggregate": 9}
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, report = generate_pairs(pool[:3], schools, kb, mock_gateway(script))
    assert pairs == [] and [gate for _, gate in report.rejected] == ["schema_consistent"] * 3


def test_gateway_failures_skip_skeleton_at_the_first_error(schools):
    """The gateway retries on its own; the pool asks once, so each of the three
    skeletons costs one ``expand_template`` request."""
    from sqlknow.errors import GatewayError

    calls = []

    def explode(req):
        calls.append(req)
        raise GatewayError("down")

    script = MockScript(
        rules=[MockRule(RequestKind.COMPLETE, contains="expand_template", response=explode)]
    )
    pool, report = build_template_pool(fixture_skeletons(), schools, mock_gateway(script))
    assert pool == []
    assert report.skipped_skeletons == 3
    assert len(calls) == 3


def test_bucket_quotas_cap_retention(schools):
    pool, _ = build_template_pool(
        fixture_skeletons() * 4, schools, mock_gateway(),
        SynthConfig(pool_target=10),
    )
    counts = collections.Counter(min(t.tables_used, 3) for t in pool)
    assert counts.get(1, 0) <= math.ceil(0.3 * 10)
    assert counts.get(2, 0) <= math.ceil(0.4 * 10)
    assert counts.get(3, 0) <= math.ceil(0.3 * 10)


def test_template_serialization_round_trip(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    for template in pool:
        assert from_json(SqlTemplate, to_json(template)) == template


# -- draw count and sampling ----------------------------------------------------------


def test_reference_draw_count():
    # rho=0.6, M=9821, fanout 16: rho/(1-rho) * M/16 = 1.5 * 613.8125 = 920.71875
    assert draw_count(9821, 0.6, 16) == 921


def test_draw_count_rejects_rho_one():
    with pytest.raises(ValueError):
        draw_count(100, 1.0, 16)


def test_synthetic_share_within_quantization_bound():
    m = 9821
    n = draw_count(m, 0.6, 16)
    synthetic = 16 * n
    share = synthetic / (synthetic + m)
    bound = 16 / (synthetic + m)
    assert abs(share - 0.6) <= bound


def make_template(tid, embedding=(0.0,) * EMBED_DIMENSION):
    return SqlTemplate(
        id=tid, skeleton_id="s", sql="SELECT 1", difficulty=Difficulty.EASY,
        tables_used=1, embedding=tuple(embedding),
    )


def test_alpha_zero_is_uniform(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    probs = sampling_probabilities(pool, fixture_skeletons(), alpha=0.0)
    assert np.allclose(probs, 1.0 / len(pool))


def test_alpha_power_formula_hand_values():
    """Two templates with S = {0.9, 0.3}, evaluated by hand:
      alpha=10:  p1 = 0.9^10 / (0.9^10 + 0.3^10)  = 0.99998306...
      alpha=-10: p1 = 0.9^-10 / (0.9^-10 + 0.3^-10) = 1.6937...e-05
    so the ordering flips with the sign of alpha."""
    from sqlknow.synthesis import power_weights

    p_pos = power_weights(np.array([0.9, 0.3]), 10.0)
    p_neg = power_weights(np.array([0.9, 0.3]), -10.0)
    assert math.isclose(p_pos[0], 0.9**10 / (0.9**10 + 0.3**10), rel_tol=1e-12)
    assert math.isclose(p_pos[1], 0.3**10 / (0.9**10 + 0.3**10), rel_tol=1e-12)
    assert math.isclose(p_neg[0], 0.9**-10 / (0.9**-10 + 0.3**-10), rel_tol=1e-12)
    assert p_pos[0] > p_pos[1] and p_neg[0] < p_neg[1]


def test_alpha_sign_flips_probability_ordering(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    reps = [fixture_skeletons()[0]]
    sims = __import__("sqlknow.synthesis", fromlist=["template_similarities"]).template_similarities(pool, reps)
    hi, lo = int(np.argmax(sims)), int(np.argmin(sims))
    assert sims[hi] > sims[lo]
    p_pos = sampling_probabilities(pool, reps, alpha=10.0)
    p_neg = sampling_probabilities(pool, reps, alpha=-10.0)
    assert p_pos[hi] > p_pos[lo]
    assert p_neg[hi] < p_neg[lo]
    for p in (p_pos, p_neg):
        assert math.isclose(float(p.sum()), 1.0, abs_tol=1e-9)
        # monotone in similarity for fixed sign
        order = np.argsort(sims)
        spread = p[order]
        signs = np.sign(np.diff(spread))
        assert all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


_DIM = EMBED_DIMENSION
_TEXTS = st.text(alphabet="abcdef _()*=,", max_size=24)  # blank texts embed to zero
_EMBEDDINGS = st.one_of(
    _TEXTS.map(lambda text: tuple(embed(text))),
    st.just((0.0,) * _DIM),
    # 16 drawn values repeated across the width
    st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=16, max_size=16)
    .map(lambda head: tuple(head) * (_DIM // 16)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EMBEDDINGS, max_size=8),
       st.one_of(st.just([]), st.lists(_TEXTS, min_size=1, max_size=1),
                 st.lists(_TEXTS, max_size=6)))
@example([(0.0,) * _DIM, (1.0,) * _DIM], ["SELECT _C FROM _T"])
@example([(1.0,) * _DIM], [])
@example([], ["SELECT _C FROM _T"])
def test_matrix_similarities_match_the_loop_oracle(embeddings, rep_texts):
    """Zero-norm template embeddings, zero (blank) representatives, a single
    representative and an empty ``reps``."""
    pool = [make_template(f"t{i}", e) for i, e in enumerate(embeddings)]
    got = template_similarities(pool, rep_texts)
    expected = oracle.template_similarities(pool, rep_texts)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-12)


@pytest.mark.parametrize("alpha", [10.0, -10.0, 1.0])
def test_matrix_similarities_draw_the_oracles_template_ids(schools, monkeypatch, alpha):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    reps = fixture_skeletons()

    def draw():
        return [t.id for t in sample_templates(pool, reps, m_real=16 * 5000, seed=3,
                                               config=SynthConfig(rho=0.5, alpha=alpha))]
    drawn = draw()
    monkeypatch.setattr("sqlknow.synthesis.template_similarities",
                        oracle.template_similarities)
    assert draw() == drawn


def test_non_positive_similarity_clamped():
    from sqlknow.synthesis import power_weights

    with pytest.warns(UserWarning):
        probs = power_weights(np.array([0.9, -0.2, 0.0]), -10.0)
    assert np.all(probs > 0) and math.isclose(float(probs.sum()), 1.0, abs_tol=1e-9)


def test_sampling_frequencies_match_probabilities(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    reps = fixture_skeletons()
    probs = sampling_probabilities(pool, reps, alpha=10.0)
    # rho=0.5 with M = 16 * draws gives exactly `draws` template draws
    draws = 10_000
    assert draw_count(16 * draws, 0.5, 16) == draws
    sampled = sample_templates(pool, reps, m_real=16 * draws, seed=11,
                               config=SynthConfig(rho=0.5, alpha=10.0))
    counts = collections.Counter(t.id for t in sampled)
    observed = np.array([counts.get(t.id, 0) for t in pool], dtype=float)
    expected = probs * draws
    keep = expected >= 5
    expected_kept = expected[keep] * observed[keep].sum() / expected[keep].sum()
    result = stats.chisquare(observed[keep], expected_kept)
    assert result.pvalue > 0.01


def test_rho_one_requires_config_n(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    with pytest.raises(ConfigError):
        sample_templates(pool, [], m_real=10, config=SynthConfig(rho=1.0, alpha=0.0))
    out = sample_templates(pool, [], m_real=10,
                           config=SynthConfig(rho=1.0, alpha=0.0, all_synthetic_n=7))
    assert len(out) == 7


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rho=st.floats(0.0, 0.95), alpha=st.floats(-10.0, 10.0),
       m_real=st.integers(0, 20_000), short=st.booleans())
@example(seed=0, rho=0.5, alpha=10.0, m_real=16_000, short=False)
@example(seed=1, rho=0.5, alpha=0.0, m_real=16_000, short=True)
@example(seed=7, rho=0.9, alpha=-10.0, m_real=16_000, short=False)
@example(seed=2**63, rho=0.5, alpha=1.0, m_real=16_000, short=True)
def test_sampling_draws_the_per_draw_loops_templates(schools, seed, rho, alpha, m_real, short):
    """All N uniforms drawn at once pick the templates one draw at a time picked.
    With ``short``, the probabilities sum to 1/2, so half the draws fall past the
    last cumulative probability and are clamped to the last template."""
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    config = SynthConfig(rho=rho, alpha=alpha)
    with pytest.MonkeyPatch.context() as mp:
        if short:
            full = sampling_probabilities
            mp.setattr("sqlknow.synthesis.sampling_probabilities",
                       lambda *a: full(*a) / 2)
        got = sample_templates(pool, fixture_skeletons(), m_real, seed=seed, config=config)
        expected = oracle.sample_templates(pool, fixture_skeletons(), m_real, seed=seed,
                                           config=config)
    assert [id(t) for t in got] == [id(t) for t in expected]
    assert len(got) == draw_count(m_real, rho, config.fanout)


def test_sampling_deterministic_per_seed(schools):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    config = SynthConfig(rho=0.6, alpha=10.0)
    a = sample_templates(pool, fixture_skeletons(), 100, seed=5, config=config)
    b = sample_templates(pool, fixture_skeletons(), 100, seed=5, config=config)
    assert [t.id for t in a] == [t.id for t in b]


# -- pair generation -----------------------------------------------------------------


def test_self_consistent_mock_pairs_accepted(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, report = generate_pairs(pool[:5], schools, kb, mock_gateway())
    assert len(pairs) == 5 and not report.rejected
    assert all(pair.variant_tag == (0, 0) for pair in pairs)


def test_each_pair_request_carries_the_terms_of_its_own_columns(schools, kb):
    """Relevant terms are ranked once per column set; templates that share a
    set share its ranking, and no other template gets it."""
    sent = []

    def record(req):
        sent.append(req.payload)
        return MockScript().default_response(req)
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains="generate_pair",
                                        response=record)])
    sqls = ["SELECT FreeMealCount FROM frpm", "SELECT NumTstTakr FROM satscores",
            "SELECT County FROM schools"]
    templates = [replace(make_template(f"t{i}"), sql=sqls[i % 3]) for i in range(7)]
    generate_pairs(templates, schools, kb, mock_gateway(script), k_terms=1)
    assert [p["template_sql"] for p in sent] == [t.sql for t in templates]
    for payload in sent:
        assert payload["knowledge"] == _relevant_terms(frozenset(payload["columns"]), kb, 1)
    assert len({p["knowledge"][0]["term"] for p in sent}) == 2


def test_bogus_column_rejected_with_schema_gate(schools, kb):
    """Each rejection names the first gate its SQL fails: a statement that is
    no query fails the syntactic gate before the schema is asked."""
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    for sql, gate in [("SELECT Bogus FROM schools", "schema_consistent"),
                      ("DELETE FROM schools", "syntactic")]:
        script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains="generate_pair",
                                            response={"sql": sql, "question": "?"})])
        pairs, report = generate_pairs(pool[:3], schools, kb, mock_gateway(script))
        assert pairs == [] and [why for _, why in report.rejected] == [gate] * 3


def test_a_score_reply_without_scores_rejects_its_pair_as_a_gateway_failure(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    script = MockScript(rules=[MockRule(RequestKind.SCORE_PAIR, response={"text": "fine"})])
    pairs, report = generate_pairs(pool[:3], schools, kb, mock_gateway(script))
    assert pairs == [] and [why for _, why in report.rejected] == [
        "gateway: score_pair reply from reviewer-a does not fit: semantic_consistency: missing"
    ] * 3


def test_deterministic_rejection_rate(schools, kb):
    script = MockScript(score_pass_rate=0.5, seed=123)
    pool, _ = build_template_pool(fixture_skeletons() * 7, schools, mock_gateway())
    pairs_a, report_a = generate_pairs(pool, schools, kb, mock_gateway(script))
    pairs_b, report_b = generate_pairs(pool, schools, kb, mock_gateway(MockScript(score_pass_rate=0.5, seed=123)))
    assert len(pairs_a) == len(pairs_b)
    assert report_a.rejected == report_b.rejected
    assert all(gate == "semantic" for _, gate in report_a.rejected)


# -- augmentation -----------------------------------------------------------------


def test_identity_mock_fans_out_to_sixteen(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, _ = generate_pairs(pool[:1], schools, kb, mock_gateway())
    fanned = augment(pairs[0], schools, mock_gateway())
    assert len(fanned) == 16
    tags = [p.variant_tag for p in fanned]
    assert len(set(tags)) == 16
    assert {t[0] for t in tags} == {0, 1, 2, 3}
    assert {t[1] for t in tags} == {0, 1, 2, 3}
    assert fanned[0].variant_tag == (0, 0)
    assert fanned[0].sql == pairs[0].sql and fanned[0].question == pairs[0].question


def test_bad_rewrite_falls_back_to_original(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, _ = generate_pairs(pool[:1], schools, kb, mock_gateway())
    script = MockScript(
        rules=[MockRule(RequestKind.COMPLETE, contains="rewrite_sql",
                        response={"variants": ["SELECT Ghost FROM nowhere"] * 3})]
    )
    fanned = augment(pairs[0], schools, mock_gateway(script))
    assert len(fanned) == 16
    assert all(p.sql == pairs[0].sql for p in fanned)  # every slot fell back


@pytest.mark.parametrize("reply", [
    {"phrasings": "How many"},  # once the questions "H", "o" and "w"
    {"phrasings": 5},  # once a TypeError
    {"variants": "SELECT 1"},
    {"variants": 5},
])
def test_a_string_or_number_for_a_list_falls_back_to_the_original_text(schools, kb, reply):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, _ = generate_pairs(pool[:1], schools, kb, mock_gateway())
    task = "rephrase_question" if "phrasings" in reply else "rewrite_sql"
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains=task, response=reply)])
    fanned = augment(pairs[0], schools, mock_gateway(script))
    assert len(fanned) == 16
    if "phrasings" in reply:
        assert all(p.question == pairs[0].question for p in fanned)
    else:
        assert all(p.sql == pairs[0].sql for p in fanned)


def test_augmented_sql_always_schema_consistent(schools, kb):
    from sqlknow.sql_refs import check_schema_consistency

    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, _ = generate_pairs(pool[:3], schools, kb, mock_gateway())
    for pair in pairs:
        for variant in augment(pair, schools, mock_gateway()):
            assert check_schema_consistency(variant.sql, schools).ok


def test_dataset_record_shape(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    pairs, _ = generate_pairs(pool[:1], schools, kb, mock_gateway())
    record = dataset_record(pairs[0], "schools")
    assert set(record) == {"db_id", "question", "sql", "cot", "template_id",
                           "variant_tag", "provenance"}
    assert record["provenance"] == "synthesized"


# -- the synthesize fan-out -----------------------------------------------------------


def _rewrite_frpm_badly(req):
    """Rewrites of an frpm query name a column no table has, so those slots fall back."""
    sql = req.payload["sql"]
    return {"variants": ["SELECT Ghost FROM frpm" if "frpm" in sql else sql] * 3}


def _fallback_pool(schools):
    """The fixture pool plus an entry that reuses an id for other SQL and an equal copy."""
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    return pool + [replace(pool[0], sql=pool[-1].sql), replace(pool[1])]


def _fallback_gateway():
    return mock_gateway(MockScript(
        rules=[MockRule(RequestKind.COMPLETE, contains='"task": "rewrite_sql"',
                        response=_rewrite_frpm_badly)],
        score_pass_rate=0.5, seed=7))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=0, max_size=40))
@example(list(range(11)) * 2)
def test_synthesize_writes_the_per_draw_loops_lines(schools, kb, picks):
    """With rejections and fallback slots, each distinct entry generated once gives
    the oracle's bytes and per-draw counts."""
    pool = _fallback_pool(schools)
    drawn = [pool[i] for i in picks]
    written = []
    report = synthesize(drawn, schools, kb, _fallback_gateway(), written.append)
    text, counts = oracle.synthesize(drawn, schools, kb, _fallback_gateway())
    assert "".join(written) == text
    assert report == {**counts, "distinct": len({id(t) for t in drawn})}


def test_the_fallback_pool_rejects_some_pairs_and_falls_back_in_others(schools, kb):
    pool = _fallback_pool(schools)
    written = []
    report = synthesize(pool, schools, kb, _fallback_gateway(), written.append)
    assert 0 < report["rejected"] < len(pool)
    assert report["rejected_reasons"] == {"semantic": report["rejected"]}
    rows = [json.loads(line) for text in written for line in text.splitlines()]
    assert not any("Ghost" in row["sql"] for row in rows)
    assert any(row["variant_tag"][0] > 0 and "frpm" in row["sql"] for row in rows)


def test_rejection_reasons_count_each_distinct_entry_once(schools, kb):
    """A gateway error is a reason up to its last ": "; an entry drawn three times
    and rejected counts once in the reasons and three times in ``rejected``."""
    from sqlknow.errors import GatewayError

    def explode(req):
        if "FROM frpm" in req.payload["template_sql"]:
            raise GatewayError("down: no route")
        return {"sql": "DELETE FROM schools", "question": "?"}
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    frpm = next(t for t in pool if "FROM frpm" in t.sql)
    other = next(t for t in pool if "FROM frpm" not in t.sql)
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains="generate_pair",
                                        response=explode)])
    report = synthesize([frpm, other, frpm, frpm], schools, kb, mock_gateway(script),
                        lambda _: None)
    assert (report["rejected"], report["distinct"]) == (4, 2)
    assert report["rejected_reasons"] == {"gateway: down": 1, "syntactic": 1}


def test_n_draws_over_k_entries_send_k_generate_and_k_rewrite_requests(schools, kb):
    pool, _ = build_template_pool(fixture_skeletons(), schools, mock_gateway())
    tasks = collections.Counter()

    def count(req):
        tasks[req.payload["task"]] += 1
        return MockScript().default_response(req)
    gateway = mock_gateway(MockScript(rules=[MockRule(RequestKind.COMPLETE, response=count)]))
    drawn = [pool[i % 4] for i in range(25)]
    written = []
    report = synthesize(drawn, schools, kb, gateway, written.append)
    assert tasks["generate_pair"] == tasks["rewrite_sql"] == 4
    assert tasks["rephrase_question"] == 4 * 4
    assert gateway.usage_summary()["score_pair"]["calls"] == 4 * 2
    assert report == {"sampled": 25, "distinct": 4, "base_pairs": 25, "augmented": 25 * 16,
                      "rejected": 0, "rejected_reasons": {}}
    assert len(written) == 25 and written[4] == written[0] != written[1]
