"""Domain terminology mining and schema enrichment through the gateway.

Mining clusters the database's columns into semantic groups and seeds one
candidate per group, its medoid column. Every candidate is a ``DomainTerm``
paired with its home cluster. A pass reviews every ordered cross-cluster pair
of the candidates it started with, in order, each with a sampled arithmetic
operator, until N_target valid terms are made or the review budget is spent.
A valid combination joins the pool in its left operand's cluster; candidates
with fewer than two columns are pruned after every pass. The result is partial
exactly when fewer than N_target valid terms were made. The K most confident
terms are returned, equal confidences in creation order, all Pending validation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .clustering import fit
from .errors import GatewayError
from .gateway import Gateway
from .knowledge import (
    DomainTerm,
    KnowledgeBase,
    Operator,
    SchemaAnnotation,
    Source,
    ValidationStatus,
    ValueMapping,
)
from .schema import DatabaseSchema
from .textproc import embed, spaced_identifier

# A column with at most this many distinct sampled values is treated as coded.
LOW_CARDINALITY_MAX = 20

_OPERATOR_WORDS = {"+": "plus", "-": "minus", "*": "times", "/": "per"}


@dataclass(frozen=True)
class MineConfig:
    clusters: int | None = None  # None -> silhouette sweep from k = 2
    top_k: int = 150
    n_target: int = 300
    seed: int = 0
    review_budget_factor: int = 10  # budget = factor * n_target
    accepted_target: int = 20  # per-database reporting goal, not a cap
    max_cluster_sweep: int = 8

    def __post_init__(self):
        if min(self.top_k, self.review_budget_factor, self.accepted_target) < 0:
            raise ValueError("top_k, review_budget_factor and accepted_target must be >= 0")
        if self.top_k > self.n_target:
            raise ValueError("top_k must not exceed n_target")


@dataclass(frozen=True)
class MiningReport:
    valid_generated: int
    returned: int
    review_calls: int
    clusters: int
    partial: bool
    accepted_target: int


@dataclass
class MiningResult:
    terms: list[DomainTerm]
    report: MiningReport


def mine_terms(
    schema: DatabaseSchema,
    gateway: Gateway,
    config: MineConfig = MineConfig(),
    kb: KnowledgeBase | None = None,
) -> MiningResult:
    """Run the combination loop and return the top-K terms by confidence.

    When the review budget runs out, or no two candidates sit in different
    clusters, before N_target valid terms are made, the result is flagged
    partial and carries whatever was ranked so far.
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
    # (candidate, home cluster), in creation order
    candidates: list[tuple[DomainTerm, int]] = []
    for cluster_id in range(clustering.k):
        medoid_col = column_ids[clustering.medoid_ids[cluster_id]]
        seed_term = DomainTerm(
            term_text=spaced_identifier(medoid_col.split(".", 1)[1]),
            sql_expression=medoid_col,
            columns_used=(medoid_col,),
        )
        candidates.append((seed_term, cluster_id))

    budget = config.review_budget_factor * config.n_target
    n_valid = 0
    review_calls = 0

    while (
        n_valid < config.n_target
        and review_calls < budget
        and len({home for _, home in candidates}) > 1
    ):
        for (left, home), (right, other) in itertools.product(candidates, repeat=2):
            if home == other:
                continue
            if n_valid >= config.n_target or review_calls >= budget:
                break
            op = rng.choice("+-*/")
            expression = f"({left.sql_expression} {op} {right.sql_expression})"
            columns = left.columns_used + tuple(
                c for c in right.columns_used if c not in left.columns_used
            )
            payload = {
                "expression": expression,
                "operator": op,
                "base_names": [left.term_text, right.term_text],
                "columns": list(columns),
                "db_id": schema.db_id,
            }
            model = rng.choice(gateway.config.models)
            reply = gateway.review(payload, model=model)
            review_calls += 1
            if not reply.valid:
                continue
            explanation = reply.explanation
            if op == "/":
                explanation = (explanation + " (assumes nonzero denominator)").strip()
            term = DomainTerm(
                term_text=reply.term_text
                or f"{left.term_text} {_OPERATOR_WORDS[op]} {right.term_text}",
                sql_expression=expression,
                columns_used=columns,
                operator=Operator(op),
                confidence=reply.confidence,
                explanation=explanation,
            )
            candidates.append((term, home))
            n_valid += 1
        candidates = [(t, home) for t, home in candidates if len(t.columns_used) >= 2]

    # sorted() is stable, so equal confidences keep creation order
    terms = sorted(
        (t for t, _ in candidates if len(t.columns_used) >= 2),
        key=lambda t: -t.confidence,
    )[: config.top_k]
    report = MiningReport(
        valid_generated=n_valid,
        returned=len(terms),
        review_calls=review_calls,
        clusters=clustering.k,
        partial=n_valid < config.n_target,
        accepted_target=config.accepted_target,
    )
    return MiningResult(terms=terms, report=report)


# -- schema enrichment -------------------------------------------------------------


@dataclass
class EnrichmentResult:
    annotations: list[SchemaAnnotation] = field(default_factory=list)
    value_mappings: list[ValueMapping] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (target, reason)


def enrich_schema(schema: DatabaseSchema, gateway: Gateway) -> EnrichmentResult:
    """Request annotations for every table/column and mappings for coded columns.

    All outputs enter validation llm-sourced and Pending. Per-item gateway
    failures are recorded and the item skipped.
    """
    result = EnrichmentResult()
    for table in schema.tables:
        targets = [(table.name, table.name, "table")]
        targets += [(f"{table.name}.{c.name}", c.name, "column") for c in table.columns]
        for target, name, kind in targets:
            try:
                reply = gateway.complete({"task": "annotate", "target": target, "name": name,
                                          "kind": kind, "db_id": schema.db_id})
            except GatewayError as exc:
                result.failures.append((target, str(exc)))
                continue
            result.annotations.append(
                SchemaAnnotation(
                    target=target,
                    description=reply.description,
                    abbreviation_expansion=reply.abbreviation_expansion,
                    source=Source.LLM,
                    status=ValidationStatus(),
                )
            )
    for col_id in sorted(schema.value_samples):
        values = schema.value_samples[col_id]
        if not values or len(values) > LOW_CARDINALITY_MAX:
            continue
        try:
            mapping = gateway.complete({"task": "map_values", "column": col_id,
                                        "codes": list(values), "db_id": schema.db_id}).mapping
        except GatewayError as exc:
            result.failures.append((col_id, str(exc)))
            continue
        for code in values:
            if code not in mapping:
                continue
            result.value_mappings.append(
                ValueMapping(
                    column=col_id,
                    code=code,
                    meaning=mapping[code],
                    status=ValidationStatus(),
                )
            )
    return result
