"""The combination loop that mining domain terms as ``DomainTerm``s from the
start replaced, kept as a test oracle.

Every candidate is a private ``_Candidate`` with an ``id``, converted to a
``DomainTerm`` at the end; ``partial`` and ``progressed`` flags and nested
``break``s stop the loop, and the ranking breaks confidence ties by ``id``.
The loop is the old code but for one change: ids come from
``itertools.count()``. The old ``id=len(candidates)`` repeated a live id once
the single-column seeds were pruned, so a pass skipped some cross-cluster
pairs as "the same candidate" and equal confidences ranked out of creation
order. It reads each review reply as the raw dict ``Gateway.dispatch`` returns,
with its own checks, not through the gateway's decoder."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from sqlknow.clustering import fit
from sqlknow.gateway import Gateway, GatewayRequest, RequestKind
from sqlknow.knowledge import DomainTerm, KnowledgeBase, Operator, ValidationStatus
from sqlknow.schema import DatabaseSchema
from sqlknow.term_miner import _OPERATOR_WORDS, MineConfig, MiningReport, MiningResult
from sqlknow.textproc import embed, spaced_identifier


@dataclass
class _Candidate:
    id: int
    term_text: str
    expression: str
    columns: tuple[str, ...]
    operator: Operator
    home_cluster: int
    confidence: float = 0.0
    explanation: str = ""


def mine_terms(
    schema: DatabaseSchema,
    gateway: Gateway,
    config: MineConfig = MineConfig(),
    kb: KnowledgeBase | None = None,
) -> MiningResult:
    """Run the combination loop and return the top-K terms by confidence.

    On gateway budget exhaustion (or a pass that cannot make progress) the
    result is flagged partial and carries whatever was ranked so far.
    """
    column_ids = [cid for ids in schema.columns_of.values() for cid in ids]
    if len(column_ids) < 2:
        raise ValueError("schema must have at least 2 columns to mine terms")

    texts = []
    for col_id in column_ids:
        ann = kb.annotation_for(col_id) if kb is not None else None
        desc = f" {ann.description}" if ann else ""
        texts.append(spaced_identifier(col_id.split(".", 1)[1]) + desc)
    vectors = np.vstack([embed(t) for t in texts])

    clustering = fit(vectors, config.clusters, config.max_cluster_sweep, config.seed)

    rng = random.Random(config.seed)
    ids = itertools.count()
    candidates: list[_Candidate] = []
    for cluster_id in range(clustering.k):
        medoid_col = column_ids[clustering.medoid_ids[cluster_id]]
        candidates.append(
            _Candidate(
                id=next(ids),
                term_text=spaced_identifier(medoid_col.split(".", 1)[1]),
                expression=medoid_col,
                columns=(medoid_col,),
                operator=Operator.NONE,
                home_cluster=cluster_id,
            )
        )

    models = gateway.config.models
    budget = config.review_budget_factor * config.n_target
    n_valid = 0
    review_calls = 0
    partial = False

    while n_valid < config.n_target:
        snapshot = list(candidates)
        progressed = False
        for left in snapshot:
            for right in snapshot:
                if left.id == right.id or left.home_cluster == right.home_cluster:
                    continue
                if n_valid >= config.n_target:
                    break
                if review_calls >= budget:
                    partial = True
                    break
                op = rng.choice("+-*/")
                expression = f"({left.expression} {op} {right.expression})"
                columns = left.columns + tuple(
                    c for c in right.columns if c not in left.columns
                )
                payload = {
                    "expression": expression,
                    "operator": op,
                    "base_names": [left.term_text, right.term_text],
                    "columns": list(columns),
                    "db_id": schema.db_id,
                }
                model = rng.choice(models)
                response = gateway.dispatch(GatewayRequest(RequestKind.REVIEW, payload, model))
                review_calls += 1
                progressed = True
                if not response.get("valid"):
                    continue
                term_text = response.get("term_text") or (
                    f"{left.term_text} {_OPERATOR_WORDS[op]} {right.term_text}"
                )
                explanation = response.get("explanation", "")
                if op == "/":
                    explanation = (explanation + " (assumes nonzero denominator)").strip()
                candidates.append(
                    _Candidate(
                        id=next(ids),
                        term_text=term_text,
                        expression=expression,
                        columns=columns,
                        operator=Operator(op),
                        home_cluster=left.home_cluster,
                        confidence=float(response.get("confidence", 0.0)),
                        explanation=explanation,
                    )
                )
                n_valid += 1
            if partial or n_valid >= config.n_target:
                break
        candidates = [c for c in candidates if len(c.columns) >= 2]
        if partial or not progressed:
            partial = partial or n_valid < config.n_target
            break

    ranked = sorted(
        (c for c in candidates if len(c.columns) >= 2),
        key=lambda c: (-c.confidence, c.id),
    )[: config.top_k]
    terms = [
        DomainTerm(
            term_text=c.term_text,
            sql_expression=c.expression,
            columns_used=c.columns,
            operator=c.operator,
            confidence=c.confidence,
            explanation=c.explanation,
            status=ValidationStatus(),
        )
        for c in ranked
    ]
    report = MiningReport(
        valid_generated=n_valid,
        returned=len(terms),
        review_calls=review_calls,
        clusters=clustering.k,
        partial=partial,
        accepted_target=config.accepted_target,
    )
    return MiningResult(terms=terms, report=report)
