"""Pattern graph: probability law, mixture retrieval, persistence, export."""

import collections
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

import retrieval_oracle
from sqlknow import clustering
from sqlknow.errors import InvariantViolation
from sqlknow.pattern_graph import (
    Edge,
    GraphConfig,
    PatternGraph,
    QuestionCluster,
    SkeletonCluster,
    build_graph,
    export_cypher,
    load_graph,
    mixture_distribution,
    representative_queries,
    retrieve_clusters,
    retrieve_skeletons,
    store_graph,
)
from sqlknow.records import from_json, to_json
from sqlknow.schema import DatabaseSchema
from sqlknow.textproc import EMBED_DIMENSION, embed

PROB_TOL = 1e-9
NO_SCHEMA = DatabaseSchema(db_id="", tables=[])  # a question masked against no names


def small_config(kq=4, ks=4, seed=7):
    return GraphConfig(question_clusters=kq, skeleton_clusters=ks, seed=seed)


def graph_pairs(corpus):
    return [(r["question"], r["sql"]) for r in corpus]


def test_edge_probabilities_sum_to_one(schools, kb, corpus):
    graph = build_graph(graph_pairs(corpus), schools, kb, small_config())
    sums = collections.defaultdict(float)
    for e in graph.edges:
        sums[e.q_cluster] += e.prob
        assert e.count >= 1
        assert e.prob > 0.0
    for q_id, total in sums.items():
        assert abs(total - 1.0) <= PROB_TOL, q_id
    # every question cluster with at least one member has outgoing edges
    assert set(sums) == {qc.id for qc in graph.question_clusters}


def test_single_skeleton_family_gives_prob_one(schools):
    pairs = [
        (f"how many schools are in area {i}", f"SELECT COUNT(*) FROM schools WHERE County = 'a{i}'")
        for i in range(8)
    ]
    graph = build_graph(pairs, schools, None, small_config(kq=2, ks=2, seed=1))
    # identical skeletons everywhere: co-occurrence is forced, probs are 1.0
    for e in graph.edges:
        assert abs(e.prob - 1.0) <= PROB_TOL


def test_conditional_probability_arithmetic():
    """f(q,s1)=3, f(q,s2)=1 must yield p(s1|q)=0.75 and p(s2|q)=0.25."""
    counts = {(0, 0): 3, (0, 1): 1}
    total = sum(counts.values())
    edges = [
        Edge(q_cluster=q, s_cluster=s, count=c, prob=c / total)
        for (q, s), c in sorted(counts.items())
    ]
    assert edges[0].prob == 0.75
    assert edges[1].prob == 0.25


def test_unparseable_pair_dropped_and_logged(schools):
    pairs = [
        ("good one", "SELECT COUNT(*) FROM schools"),
        ("bad one", "SELEC COUNT(*) FROM"),
        ("another good", "SELECT County FROM schools"),
        ("more good", "SELECT School FROM schools WHERE Charter = 1"),
    ]
    graph = build_graph(pairs, schools, None, small_config(kq=2, ks=2))
    assert len(graph.dropped) == 1
    assert graph.dropped[0][0] == 1


def test_pinned_counts_clamp_to_corpus(schools, kb, corpus):
    graph = build_graph(
        graph_pairs(corpus), schools, kb,
        GraphConfig(question_clusters=50, skeleton_clusters=150, seed=0),
    )
    n = len(corpus)
    assert len(graph.question_clusters) <= 50
    assert len(graph.skeleton_clusters) <= 150
    assert len(graph.question_clusters) <= n and len(graph.skeleton_clusters) <= n


def test_pinned_k_computes_no_silhouette(schools, kb, corpus, monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("silhouette computed for a pinned k")

    monkeypatch.setattr(clustering, "mean_silhouette", unread)
    graph = build_graph(graph_pairs(corpus), schools, kb, small_config())
    assert len(graph.question_clusters) == len(graph.skeleton_clusters) == 4


def test_swept_k_scores_each_candidate_once(schools, kb, corpus, monkeypatch):
    scored = []
    original = clustering.mean_silhouette
    monkeypatch.setattr(clustering, "mean_silhouette",
                        lambda *a, **kw: scored.append(len(a[1])) or original(*a, **kw))
    config = GraphConfig(question_clusters=None, skeleton_clusters=None,
                         question_sweep=4, skeleton_sweep=3)
    build_graph(graph_pairs(corpus), schools, kb, config)
    assert scored == [len(corpus)] * 5


def test_round_trip_exact(schools, kb, corpus, tmp_path):
    graph = build_graph(graph_pairs(corpus), schools, kb, small_config())
    path = tmp_path / "graph.json"
    store_graph(graph, path)
    assert load_graph(path) == graph
    assert from_json(PatternGraph, to_json(graph)) == graph


def test_rebuild_is_deterministic(schools, kb, corpus):
    a = build_graph(graph_pairs(corpus), schools, kb, small_config(seed=21))
    b = build_graph(graph_pairs(corpus), schools, kb, small_config(seed=21))
    assert a == b
    assert representative_queries(a) == representative_queries(b)


def test_representatives_one_per_cluster_in_id_order(schools, kb, corpus):
    graph = build_graph(graph_pairs(corpus), schools, kb, small_config())
    reps = representative_queries(graph)
    assert len(reps) == len(graph.skeleton_clusters)
    ordered = sorted(graph.skeleton_clusters, key=lambda sc: sc.id)
    assert reps == [sc.medoid_skeleton for sc in ordered]


def hand_graph():
    e0 = embed("how many rows are there")
    e1 = embed("list the names please")
    return PatternGraph(
        graph_id="hand",
        embed_dimension=EMBED_DIMENSION,
        question_clusters=(
            QuestionCluster(0, tuple(float(v) for v in e0), "how many rows are there"),
            QuestionCluster(1, tuple(float(v) for v in e1), "list the names please"),
        ),
        skeleton_clusters=(
            SkeletonCluster(0, "SELECT COUNT(*) FROM _T", 3),
            SkeletonCluster(1, "SELECT _C FROM _T", 2),
            SkeletonCluster(2, "SELECT _C FROM _T WHERE _C = _V", 1),
        ),
        edges=(
            Edge(0, 0, 3, 0.75),
            Edge(0, 2, 1, 0.25),
            Edge(1, 1, 4, 1.0),
        ),
    )


@pytest.mark.parametrize("change", [
    {"edges": (Edge(0, 0, 3, 0.75), Edge(0, 7, 1, 0.25), Edge(1, 1, 4, 1.0))},
    {"edges": (Edge(0, 0, 3, 0.75), Edge(0, 2, 1, 0.25), Edge(5, 1, 4, 1.0))},
    {"skeleton_clusters": (SkeletonCluster(0, "SELECT COUNT(*) FROM _T", 3),
                           SkeletonCluster(1, "SELECT _C FROM _T", 2),
                           SkeletonCluster(2, "SELECT _C FROM _T WHERE _C = _V", 1),
                           SkeletonCluster(1, "SELECT _C FROM _T", 2))},
    {"question_clusters": hand_graph().question_clusters * 2},
], ids=["missing skeleton cluster", "missing question cluster", "repeated skeleton id",
        "repeated question id"])
def test_a_graph_whose_edges_or_ids_do_not_match_its_clusters_is_refused(change, tmp_path):
    graph = dataclasses.replace(hand_graph(), **change)
    with pytest.raises(InvariantViolation):
        graph.validate()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(to_json(graph)))
    with pytest.raises(InvariantViolation, match=re.escape(f"{path}: ")):
        load_graph(path)


def test_concentrated_mixture_returns_that_medoid():
    graph = PatternGraph(
        graph_id="one",
        embed_dimension=EMBED_DIMENSION,
        question_clusters=(
            QuestionCluster(0, tuple(embed("alpha")), "alpha"),
        ),
        skeleton_clusters=(SkeletonCluster(0, "SELECT COUNT(*) FROM _T", 1),),
        edges=(Edge(0, 0, 5, 1.0),),
    )
    for seed in range(5):
        out = retrieve_skeletons("anything at all", graph, 1, seed=seed, schema=NO_SCHEMA)
        assert out == ["SELECT COUNT(*) FROM _T"]


def test_k4_equal_to_cluster_count_returns_permutation():
    graph = hand_graph()
    out = retrieve_skeletons("how many rows are there", graph, 3, seed=9, schema=NO_SCHEMA)
    texts = set(out)
    # the question sits on cluster 0; nonzero mass covers all three clusters
    # through the two-cluster mixture
    assert len(out) == len(texts)
    mixture = mixture_distribution("how many rows are there", graph, NO_SCHEMA)
    assert texts == {
        graph.skeleton_cluster(cid).medoid_skeleton for cid in mixture if mixture[cid] > 0
    }


def test_k4_larger_than_mass_returns_all_nonzero(schools, kb, corpus):
    graph = build_graph(graph_pairs(corpus), schools, kb, small_config())
    question = corpus[0]["question"]
    mixture = mixture_distribution(question, graph, schools, kb)
    nonzero = {cid for cid, p in mixture.items() if p > 0}
    out = retrieve_skeletons(question, graph, k4=999, seed=0, schema=schools, kb=kb)
    assert len(out) == len(nonzero)


def test_mixture_weights_follow_two_cluster_formula():
    graph = hand_graph()
    mixture = mixture_distribution("how many rows are there", graph, NO_SCHEMA)
    assert abs(sum(mixture.values()) - 1.0) <= PROB_TOL
    # cluster 0 edges dominate; skeleton 0 must carry more mass than skeleton 2
    assert mixture.get(0, 0.0) > mixture.get(2, 0.0)


def test_retrieval_empirical_frequency_tracks_mixture():
    graph = hand_graph()
    question = "how many rows are there"
    mixture = mixture_distribution(question, graph, NO_SCHEMA)
    draws = 10_000
    counts = collections.Counter(
        retrieve_skeletons(question, graph, 1, seed=seed, schema=NO_SCHEMA)[0]
        for seed in range(draws)
    )
    text_of = {sc.id: sc.medoid_skeleton for sc in graph.skeleton_clusters}
    observed = np.array([counts.get(text_of[cid], 0) for cid in sorted(mixture)])
    expected = np.array([mixture[cid] * draws for cid in sorted(mixture)])
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01
    # dominant cluster frequency within 2 points of its mixture mass
    top = max(mixture, key=mixture.get)
    assert abs(counts[text_of[top]] / draws - mixture[top]) < 0.02


def test_cypher_export_covers_all_nodes_and_edges():
    graph = hand_graph()
    cypher = export_cypher(graph)
    assert cypher.count("CREATE (:QuestionCluster") == 2
    assert cypher.count("CREATE (:SkeletonCluster") == 3
    assert cypher.count("GENERATES") == 3
    assert "prob: 0.75" in cypher


def test_build_requires_two_pairs(schools):
    with pytest.raises(ValueError):
        build_graph([("q", "SELECT 1")], schools, None, small_config())


# -- the per-graph constants against the scan-per-question oracle ---------------------

_QUESTIONS = ["", " ", "how many rows are there", "list the names please", "alpha", "rows"]
# the medoids a SkeletonCluster admits: each a fixed point of skeletonize
_MEDOIDS = ["SELECT COUNT(*) FROM _T", "SELECT _C FROM _T", "SELECT _C FROM _T WHERE _C = _V"]


def _embedded(text):
    return tuple(float(v) for v in embed(text))


_CENTROID = st.one_of(
    st.just((0.0,) * EMBED_DIMENSION),
    st.sampled_from(_QUESTIONS[2:]).map(_embedded),
    # 16 drawn values repeated across the width
    st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=16,
             max_size=16).map(lambda head: tuple(head) * (EMBED_DIMENSION // 16)),
)


@st.composite
def graphs(draw):
    """Graphs whose ids may repeat, whose edges may name question clusters that
    do not exist or skeleton clusters that are not stored, and whose question
    clusters may have no edges."""
    question_clusters = tuple(
        QuestionCluster(q_id, draw(_CENTROID), "q")
        for q_id in draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
    )
    skeleton_clusters = tuple(
        SkeletonCluster(s_id, draw(st.sampled_from(_MEDOIDS)), 1)
        for s_id in draw(st.lists(st.integers(0, 6), max_size=6))
    )
    edges = tuple(
        Edge(q_id, s_id, 1, prob)
        for q_id, s_id, prob in draw(st.lists(st.tuples(
            st.integers(0, 6), st.integers(0, 7), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        ), max_size=12))
    )
    return PatternGraph("gen", EMBED_DIMENSION, question_clusters, skeleton_clusters, edges)


def _outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), q=st.sampled_from(_QUESTIONS), k4=st.integers(1, 10),
       seed=st.integers(0, 3) | st.integers(0, 2**64) | st.sampled_from([2**63, 2**64]))
def test_retrieval_equals_the_scan_oracle(graph, q, k4, seed):
    # k4 may exceed the 8 skeleton clusters an edge can name; the uniforms come
    # from a cache kept across examples, the oracle's from a fresh generator
    expected_mixture = retrieval_oracle.mixture_distribution(q, graph, NO_SCHEMA)
    expected = _outcome(retrieval_oracle.retrieve_skeletons, q, graph, k4, seed, schema=NO_SCHEMA)
    expected_clusters = _outcome(lambda: [
        retrieval_oracle.skeleton_cluster(graph, cid) for cid in
        retrieval_oracle.retrieve_cluster_ids(q, graph, k4, seed, schema=NO_SCHEMA)])
    for _ in range(2):  # the second pass reads the constants the first one kept
        mixture = mixture_distribution(q, graph, NO_SCHEMA)
        assert list(mixture.items()) == list(expected_mixture.items())
        assert _outcome(retrieve_skeletons, q, graph, k4, seed, schema=NO_SCHEMA) == expected
        assert _outcome(retrieve_clusters, q, graph, k4, seed, schema=NO_SCHEMA) == \
            expected_clusters
    for s_id in range(8):
        assert _outcome(graph.skeleton_cluster, s_id) == \
            _outcome(retrieval_oracle.skeleton_cluster, graph, s_id)


def test_retrieval_edge_cases_equal_the_scan_oracle():
    graph = PatternGraph(
        graph_id="edges", embed_dimension=EMBED_DIMENSION,
        question_clusters=(
            QuestionCluster(0, (0.0,) * EMBED_DIMENSION, "zero centroid"),
            QuestionCluster(1, _embedded("alpha"), "alpha"),
            QuestionCluster(2, _embedded("rows"), "no edges"),
        ),
        skeleton_clusters=(SkeletonCluster(0, _MEDOIDS[0], 1),),
        edges=(Edge(0, 0, 1, 1.0), Edge(1, 0, 1, 0.5), Edge(1, 9, 1, 0.5)),
    )
    assert not np.any(embed(""))  # a question that embeds to zeros
    for q in ("", "alpha", "rows"):
        for seed in range(6):
            assert mixture_distribution(q, graph, NO_SCHEMA) == \
                retrieval_oracle.mixture_distribution(q, graph, NO_SCHEMA)
            assert _outcome(retrieve_skeletons, q, graph, 2, seed, schema=NO_SCHEMA) == \
                _outcome(retrieval_oracle.retrieve_skeletons, q, graph, 2, seed, schema=NO_SCHEMA)
    # skeleton cluster 9 is named by an edge but not stored
    with pytest.raises(KeyError):
        retrieval_oracle.skeleton_cluster(graph, 9)
    with pytest.raises(KeyError):
        graph.skeleton_cluster(9)
    assert 2 not in graph.out_edges


@pytest.mark.parametrize("medoid, reason", [
    ("SELECT name FROM customers",
     "is not a skeleton; skeletonize gives 'SELECT _C FROM _T'"),
    ("SELECT _C  FROM _T", "is not a skeleton; skeletonize gives 'SELECT _C FROM _T'"),
    ("SELECT _C FROM 'unterminated", "medoid_skeleton does not parse: "),
    ("UPDATE _T SET _C = _V", "medoid_skeleton does not parse: "),
], ids=["raw-sql", "spacing", "unterminated", "not-a-query"])
def test_a_medoid_that_is_not_a_skeleton_is_refused_when_built_and_at_load(
        medoid, reason, tmp_path):
    with pytest.raises(ValueError, match=re.escape(reason)):
        SkeletonCluster(1, medoid, 1)
    stored = to_json(hand_graph())
    stored["skeleton_clusters"][1]["medoid_skeleton"] = medoid
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(stored))
    with pytest.raises(InvariantViolation,
                       match=re.escape(f"{path}: skeleton_clusters[1]: ") + ".*" +
                       re.escape(reason)):
        load_graph(path)


def test_kept_constants_change_neither_stored_bytes_nor_equality(tmp_path):
    graph, fresh = hand_graph(), hand_graph()
    store_graph(graph, tmp_path / "before.json")
    retrieve_skeletons("how many rows are there", graph, 3, seed=1, schema=NO_SCHEMA)
    graph.skeleton_cluster(2)
    assert {"centroids", "out_edges", "_skeleton_by_id"} <= set(vars(graph))
    store_graph(graph, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert graph == fresh and fresh == graph and hash(graph) == hash(fresh)
    assert repr(graph) == repr(fresh)
    assert to_json(graph) == to_json(fresh)
    assert load_graph(tmp_path / "after.json") == graph
