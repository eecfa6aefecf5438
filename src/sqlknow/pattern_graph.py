"""Bipartite pattern graph: question clusters to skeleton clusters.

Edges carry co-occurrence counts from the original question-SQL pairs and the
conditional probability of a skeleton cluster given the question cluster.
Retrieval embeds an incoming question, finds its two nearest question
clusters, mixes their outgoing distributions proportionally to (clipped)
similarity, and samples skeleton clusters without replacement.

A ``SkeletonCluster`` whose medoid is not a fixed point of ``skeletonize`` is
refused when built (so at load), and retrieval returns medoids as stored. What
retrieval reads of a graph is built once per graph, on first use: the centroid
arrays and their norms, edges by question cluster and skeleton clusters by id.
The uniforms a draw reads depend only on the seed, so they are drawn once per seed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .clustering import fit
from .errors import InsufficientDataError, InvariantViolation
from .knowledge import KnowledgeBase
from .records import read_json, to_json, write_json
from .schema import DatabaseSchema
from .skeleton import skeletonize
from .sql_refs import UNRESOLVABLE
from .textproc import EMBED_DIMENSION, check_width, embed, mask_question, tfidf_corpus

PROB_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GraphConfig:
    question_clusters: int | None = 50  # None -> silhouette sweep from k = 2
    skeleton_clusters: int | None = 150
    question_sweep: int = 10  # the sweep's upper bound
    skeleton_sweep: int = 12
    seed: int = 0
    graph_id: str = "pattern-graph"


@dataclass(frozen=True)
class QuestionCluster:
    id: int
    centroid: tuple[float, ...]
    medoid_question: str

    def __post_init__(self):
        check_width("centroid", len(self.centroid))


@dataclass(frozen=True)
class SkeletonCluster:
    id: int
    medoid_skeleton: str
    members: int
    medoid_question: str = ""
    medoid_sql: str = ""

    def __post_init__(self):
        try:
            skeleton = skeletonize(self.medoid_skeleton)
        except UNRESOLVABLE as exc:
            raise ValueError(f"medoid_skeleton does not parse: {exc}") from None
        if skeleton != self.medoid_skeleton:
            raise ValueError(f"medoid_skeleton {self.medoid_skeleton!r} is not a skeleton; "
                             f"skeletonize gives {skeleton!r}")


@dataclass(frozen=True)
class Edge:
    q_cluster: int
    s_cluster: int
    count: int
    prob: float


@dataclass(frozen=True)
class PatternGraph:
    graph_id: str
    embed_dimension: int
    question_clusters: tuple[QuestionCluster, ...]
    skeleton_clusters: tuple[SkeletonCluster, ...]
    edges: tuple[Edge, ...]
    dropped: tuple[tuple[int, str], ...] = ()  # (pair index, reason)

    def __post_init__(self):
        check_width("embed_dimension", self.embed_dimension)

    def validate(self) -> None:
        q_ids = {qc.id for qc in self.question_clusters}
        s_ids = {sc.id for sc in self.skeleton_clusters}
        if (len(q_ids), len(s_ids)) != (len(self.question_clusters), len(self.skeleton_clusters)):
            raise InvariantViolation("repeated cluster id")
        totals: dict[int, float] = {}
        for e in self.edges:
            if e.count < 1:
                raise InvariantViolation("zero-count edge stored")
            if e.q_cluster not in q_ids or e.s_cluster not in s_ids:
                raise InvariantViolation(
                    f"edge ({e.q_cluster}, {e.s_cluster}) names a cluster the graph lacks")
            totals[e.q_cluster] = totals.get(e.q_cluster, 0.0) + e.prob
        for q_id, total in totals.items():
            if abs(total - 1.0) > PROB_TOLERANCE:
                raise InvariantViolation(
                    f"edge probabilities for question cluster {q_id} sum to {total!r}"
                )

    @cached_property
    def centroids(self) -> tuple[tuple[int, np.ndarray, float], ...]:
        """``(id, centroid, its norm)`` per question cluster, in stored order."""
        arrays = [(qc.id, np.asarray(qc.centroid)) for qc in self.question_clusters]
        return tuple((q_id, c, float(np.linalg.norm(c))) for q_id, c in arrays)

    @cached_property
    def out_edges(self) -> dict[int, list[Edge]]:
        """Question cluster id -> its outgoing edges, in stored order."""
        grouped: dict[int, list[Edge]] = {}
        for e in self.edges:
            grouped.setdefault(e.q_cluster, []).append(e)
        return grouped

    @cached_property
    def _skeleton_by_id(self) -> dict[int, SkeletonCluster]:
        # reversed, so that of equal ids the first stored wins, as in a scan
        return {sc.id: sc for sc in reversed(self.skeleton_clusters)}

    def skeleton_cluster(self, cluster_id: int) -> SkeletonCluster:
        return self._skeleton_by_id[cluster_id]


def build_graph(
    pairs: list[tuple[str, str]],
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    config: GraphConfig = GraphConfig(),
) -> PatternGraph:
    """Cluster questions and skeletons, then count cluster co-occurrences.

    A pair is dropped (and recorded in ``graph.dropped``) only when its SQL
    cannot be skeletonized.
    """
    if len(pairs) < 2:
        raise InsufficientDataError(f"need at least 2 question-SQL pairs, got {len(pairs)}")
    kept: list[tuple[str, str, str]] = []
    dropped: list[tuple[int, str]] = []
    for idx, (question, sql) in enumerate(pairs):
        try:
            kept.append((question, sql, skeletonize(sql)))
        except UNRESOLVABLE as exc:
            dropped.append((idx, str(exc)))
    if len(kept) < 2:
        raise InsufficientDataError(f"fewer than 2 parseable pairs ({len(kept)} of {len(pairs)})")

    n = len(kept)
    # filled row by row, so no list of n row arrays lives beside the matrix
    q_vectors = np.empty((n, EMBED_DIMENSION))
    for i, (q, _, _) in enumerate(kept):
        q_vectors[i] = embed(mask_question(q, schema, kb))
    s_vectors = tfidf_corpus([sk for _, _, sk in kept])

    q_clust = fit(q_vectors, config.question_clusters, config.question_sweep, config.seed)
    s_clust = fit(s_vectors, config.skeleton_clusters, config.skeleton_sweep, config.seed + 1)

    counts = Counter(zip(q_clust.assignments, s_clust.assignments))
    totals = Counter(q_clust.assignments)  # a question cluster's edge counts sum to its size
    edges = tuple(
        Edge(q_cluster=qc, s_cluster=sc, count=c, prob=c / totals[qc])
        for (qc, sc), c in sorted(counts.items())
    )

    question_clusters = tuple(
        QuestionCluster(
            id=c,
            centroid=tuple(q_clust.centroids[c].tolist()),
            medoid_question=kept[q_clust.medoid_ids[c]][0],
        )
        for c in range(q_clust.k)
    )
    members = np.bincount(s_clust.assignments, minlength=s_clust.k).tolist()
    skeleton_clusters = tuple(
        SkeletonCluster(
            id=c,
            medoid_skeleton=kept[s_clust.medoid_ids[c]][2],
            members=members[c],
            medoid_question=kept[s_clust.medoid_ids[c]][0],
            medoid_sql=kept[s_clust.medoid_ids[c]][1],
        )
        for c in range(s_clust.k)
    )
    graph = PatternGraph(
        graph_id=config.graph_id,
        embed_dimension=EMBED_DIMENSION,
        question_clusters=question_clusters,
        skeleton_clusters=skeleton_clusters,
        edges=edges,
        dropped=tuple(dropped),
    )
    graph.validate()
    return graph


# -- retrieval ---------------------------------------------------------------------


def mixture_distribution(
    q: str,
    graph: PatternGraph,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> dict[int, float]:
    """Skeleton-cluster distribution for a question: the similarity-weighted
    mixture of its two nearest question clusters' outgoing probabilities."""
    if not graph.question_clusters:
        raise ValueError("empty graph")
    vec = embed(mask_question(q, schema, kb))
    na = float(np.linalg.norm(vec))
    sims = [(float(np.dot(vec, c)) / (na * nb) if na and nb else 0.0, q_id)
            for q_id, c, nb in graph.centroids]
    sims.sort(key=lambda t: (-t[0], t[1]))
    nearest = sims[:2]
    clipped = [max(s, 0.0) for s, _ in nearest]
    total = sum(clipped)
    if total == 0.0:
        weights = [1.0 / len(nearest)] * len(nearest)
    else:
        weights = [c / total for c in clipped]
    mixture: dict[int, float] = {}
    for (_, q_id), w in zip(nearest, weights):
        if w == 0.0:
            continue
        for e in graph.out_edges.get(q_id, ()):
            mixture[e.s_cluster] = mixture.get(e.s_cluster, 0.0) + w * e.prob
    return mixture


@lru_cache(maxsize=64)
def _uniforms(seed: int, n: int) -> tuple[float, ...]:
    """The first ``n`` uniforms of a fresh ``Generator(PCG64(seed))``, drawn once
    per seed and count: every question reads the same ones."""
    return tuple(np.random.Generator(np.random.PCG64(seed)).random(n).tolist())


def retrieve_clusters(
    q: str,
    graph: PatternGraph,
    k4: int,
    seed: int = 0,
    *,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> list[SkeletonCluster]:
    """Sample k4 distinct skeleton clusters by mixture weight, in draw order.

    Sampling is without replacement via sequential renormalized draws under the
    given seed. If fewer clusters carry mass than k4, all of them are returned.
    """
    if k4 < 1:
        raise ValueError("k4 must be >= 1")
    mixture = mixture_distribution(q, graph, schema, kb)
    remaining = {cid: p for cid, p in mixture.items() if p > 0.0}
    draws = _uniforms(seed, min(k4, len(remaining)))
    chosen: list[int] = []
    while remaining and len(chosen) < k4:
        total = sum(remaining.values())
        r = draws[len(chosen)] * total
        acc = 0.0
        picked = None
        for cid in sorted(remaining):
            acc += remaining[cid]
            if r < acc:
                picked = cid
                break
        if picked is None:  # numeric edge: fall back to the last cluster
            picked = max(remaining)
        chosen.append(picked)
        del remaining[picked]
    return [graph.skeleton_cluster(cid) for cid in chosen]


def retrieve_skeletons(q: str, graph: PatternGraph, k4: int, seed: int = 0, *,
                       schema: DatabaseSchema, kb: KnowledgeBase | None = None) -> list[str]:
    """The medoids of the clusters :func:`retrieve_clusters` draws, in draw order."""
    clusters = retrieve_clusters(q, graph, k4, seed, schema=schema, kb=kb)
    return [sc.medoid_skeleton for sc in clusters]


def representative_queries(graph: PatternGraph) -> list[str]:
    """Medoid skeleton of every skeleton cluster, in stable cluster-id order."""
    if not graph.skeleton_clusters:
        raise ValueError("empty graph")
    return [sc.medoid_skeleton for sc in sorted(graph.skeleton_clusters, key=lambda sc: sc.id)]


# -- persistence ----------------------------------------------------------------


def store_graph(graph: PatternGraph, path: str | Path) -> None:
    graph.validate()
    write_json(path, to_json(graph))


def load_graph(path: str | Path) -> PatternGraph:
    """The graph stored at ``path``; an invalid one raises InvariantViolation naming the file."""
    graph = read_json(path, PatternGraph)
    try:
        graph.validate()
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from None
    return graph


def export_cypher(graph: PatternGraph) -> str:
    """Cypher statement stream for loading the graph into a graph database."""
    lines = []
    for qc in graph.question_clusters:
        props = json.dumps(qc.medoid_question, ensure_ascii=False)
        lines.append(
            f"CREATE (:QuestionCluster {{id: {qc.id}, medoid_question: {props}}});"
        )
    for sc in graph.skeleton_clusters:
        skel = json.dumps(sc.medoid_skeleton, ensure_ascii=False)
        lines.append(
            f"CREATE (:SkeletonCluster {{id: {sc.id}, medoid_skeleton: {skel}, "
            f"members: {sc.members}}});"
        )
    for e in graph.edges:
        lines.append(
            f"MATCH (q:QuestionCluster {{id: {e.q_cluster}}}), "
            f"(s:SkeletonCluster {{id: {e.s_cluster}}}) "
            f"CREATE (q)-[:GENERATES {{count: {e.count}, prob: {e.prob}}}]->(s);"
        )
    return "\n".join(lines) + "\n"
