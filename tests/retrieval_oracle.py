"""The scan-per-question retrieval and column rendering that the per-graph,
per-schema and per-KB constants replaced, kept as test oracles: every
question turns each stored centroid tuple into a fresh array and takes both
norms inside ``cosine`` (kept here, as the program computed it, for the
other oracles and tests too), scans all edges for a question cluster's and all
skeleton clusters for a drawn id, draws from a fresh generator of the seed,
skeletonizes each drawn medoid again, and renders each selected column's
declaration and comment, and each table's header and closing line, again.
Targets are matched by SQLite's rule for names (``name_key``), as the program
matches them."""

from __future__ import annotations

import numpy as np

from sqlknow.pattern_graph import PatternGraph
from sqlknow.schema import name_key
from sqlknow.skeleton import skeletonize
from sqlknow.textproc import embed, mask_question


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def edges_from(graph: PatternGraph, q_cluster: int) -> list:
    return [e for e in graph.edges if e.q_cluster == q_cluster]


def skeleton_cluster(graph: PatternGraph, cluster_id: int):
    for sc in graph.skeleton_clusters:
        if sc.id == cluster_id:
            return sc
    raise KeyError(cluster_id)


def mixture_distribution(q, graph, schema, kb=None) -> dict[int, float]:
    if not graph.question_clusters:
        raise ValueError("empty graph")
    vec = embed(mask_question(q, schema, kb))
    sims = [
        (cosine(vec, np.asarray(qc.centroid)), qc.id) for qc in graph.question_clusters
    ]
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
        for e in edges_from(graph, q_id):
            mixture[e.s_cluster] = mixture.get(e.s_cluster, 0.0) + w * e.prob
    return mixture


def retrieve_cluster_ids(q, graph, k4, seed=0, *, schema, kb=None) -> list[int]:
    if k4 < 1:
        raise ValueError("k4 must be >= 1")
    mixture = mixture_distribution(q, graph, schema, kb)
    remaining = {cid: p for cid, p in mixture.items() if p > 0.0}
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen: list[int] = []
    while remaining and len(chosen) < k4:
        total = sum(remaining.values())
        r = rng.random() * total
        acc = 0.0
        picked = None
        for cid in sorted(remaining):
            acc += remaining[cid]
            if r < acc:
                picked = cid
                break
        if picked is None:
            picked = max(remaining)
        chosen.append(picked)
        del remaining[picked]
    return chosen


def retrieve_skeletons(q, graph, k4, seed=0, *, schema, kb=None) -> list[str]:
    chosen = retrieve_cluster_ids(q, graph, k4, seed, schema=schema, kb=kb)
    return [skeletonize(skeleton_cluster(graph, cid).medoid_skeleton) for cid in chosen]


def _annotation(kb, target: str):
    return next((a for a in kb.annotations if name_key(a.target) == name_key(target)), None)


def column_line(tdef, col, kb) -> tuple[str, str]:
    """A column's declaration and its `` -- comment`` ("" when it has none)."""
    col_id = f"{tdef.name}.{col.name}"
    decl = f"  {col.name} {col.type}"
    if col.pk:
        decl += " PRIMARY KEY"
    if col.fk:
        ref_table, ref_col = col.fk.split(".", 1)
        decl += f" REFERENCES {ref_table}({ref_col})"
    comments = []
    if kb is not None:
        ann = _annotation(kb, col_id)
        if ann is not None:
            comments.append(ann.description)
        mappings = [m for m in kb.value_mappings if name_key(m.column) == name_key(col_id)]
        if mappings:
            codes = ", ".join(f"{m.code} = \"{m.meaning}\"" for m in mappings)
            comments.append(f"codes: {codes}")
    comment = "; ".join(comments)
    return decl, f" -- {comment}" if comment else ""


def table_frame(tdef, kb) -> tuple[str, str]:
    """A table's ``CREATE TABLE`` header and its closing line."""
    ann = _annotation(kb, tdef.name) if kb is not None else None
    return f"CREATE TABLE {tdef.name} (", ");" + (f" -- {ann.description}" if ann else "")
