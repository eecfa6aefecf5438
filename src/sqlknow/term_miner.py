"""Domain terminology mining and schema enrichment through the gateway.

Mining clusters the database's columns into semantic groups, seeds one
candidate per group (its medoid column), then repeatedly combines candidates
from different groups with a sampled arithmetic operator and asks the gateway
to review each combination. Valid combinations join the candidate pool and the
loop stops once the target count of valid terms is reached; candidates with
fewer than two columns are pruned after every pass. The K most confident
terms are returned, all Pending validation.
"""

from __future__ import annotations

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
    column_ids = [cid for ids in schema.index.columns_of.values() for cid in ids]
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
    candidates: list[_Candidate] = []
    for cluster_id in range(clustering.k):
        medoid_col = column_ids[clustering.medoid_ids[cluster_id]]
        candidates.append(
            _Candidate(
                id=len(candidates),
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
                response = gateway.review(payload, model=model)
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
                        id=len(candidates),
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
                resp = gateway.complete(
                    {"task": "annotate", "target": target, "name": name, "kind": kind,
                     "db_id": schema.db_id}
                )
            except GatewayError as exc:
                result.failures.append((target, str(exc)))
                continue
            result.annotations.append(
                SchemaAnnotation(
                    target=target,
                    description=str(resp.get("description", "")),
                    abbreviation_expansion=resp.get("abbreviation_expansion"),
                    source=Source.LLM,
                    status=ValidationStatus(),
                )
            )
    for col_id in sorted(schema.value_samples):
        values = schema.value_samples[col_id]
        if not values or len(values) > LOW_CARDINALITY_MAX:
            continue
        try:
            resp = gateway.complete(
                {"task": "map_values", "column": col_id, "codes": list(values),
                 "db_id": schema.db_id}
            )
        except GatewayError as exc:
            result.failures.append((col_id, str(exc)))
            continue
        mapping = resp.get("mapping", {})
        for code in values:
            if code not in mapping:
                continue
            result.value_mappings.append(
                ValueMapping(
                    column=col_id,
                    code=code,
                    meaning=str(mapping[code]),
                    status=ValidationStatus(),
                )
            )
    return result
