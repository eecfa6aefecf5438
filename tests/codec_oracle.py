"""The hand-written JSON encoders and decoders that ``sqlknow.records`` replaced,
kept as a test oracle. Each knew one record's layout field by field: the KB's
``kb_to_dict``/``kb_from_dict`` with the validation-status pair,
``DatabaseSchema.to_dict``/``from_dict``, ``graph_to_dict`` (``asdict``) and
``graph_from_dict``, the template pair (now reading ``SqlTemplate.sql``), and
the config snapshot with the list-to-tuple coercion of ``_merge_section``.
``config_from_dict`` applies that coercion to every section of a whole
snapshot."""

from __future__ import annotations

from dataclasses import asdict, fields, replace

from sqlknow.config import AppConfig
from sqlknow.knowledge import (
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    Operator,
    QueryPatternRef,
    SchemaAnnotation,
    Source,
    State,
    ValidationStatus,
    ValueMapping,
)
from sqlknow.pattern_graph import Edge, PatternGraph, QuestionCluster, SkeletonCluster
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef
from sqlknow.synthesis import Difficulty, SqlTemplate

# -- knowledge base --------------------------------------------------------------


def _status_to_dict(s: ValidationStatus) -> dict:
    return {
        "state": s.state.value,
        "llm_scores": [
            {
                "model_id": x.model_id,
                "semantic_consistency": x.semantic_consistency,
                "sql_validity": x.sql_validity,
            }
            for x in s.llm_scores
        ],
        "human_votes": [
            {"annotator_id": v.annotator_id, "accept": v.accept} for v in s.human_votes
        ],
        "adjudication": (
            {"annotator_id": s.adjudication.annotator_id, "accept": s.adjudication.accept}
            if s.adjudication
            else None
        ),
    }


def _status_from_dict(d: dict) -> ValidationStatus:
    return ValidationStatus(
        state=State(d.get("state", "Pending")),
        llm_scores=tuple(
            LlmScore(x["model_id"], x["semantic_consistency"], x["sql_validity"])
            for x in d.get("llm_scores", [])
        ),
        human_votes=tuple(
            HumanVote(v["annotator_id"], v["accept"]) for v in d.get("human_votes", [])
        ),
        adjudication=(
            HumanVote(d["adjudication"]["annotator_id"], d["adjudication"]["accept"])
            if d.get("adjudication")
            else None
        ),
    )


def kb_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "db_id": kb.db_id,
        "annotations": [
            {
                "target": a.target,
                "description": a.description,
                "abbreviation_expansion": a.abbreviation_expansion,
                "source": a.source.value,
                "status": _status_to_dict(a.status),
            }
            for a in kb.annotations
        ],
        "value_mappings": [
            {
                "column": m.column,
                "code": m.code,
                "meaning": m.meaning,
                "status": _status_to_dict(m.status),
            }
            for m in kb.value_mappings
        ],
        "terms": [
            {
                "term_text": t.term_text,
                "sql_expression": t.sql_expression,
                "columns_used": list(t.columns_used),
                "operator": t.operator.value,
                "confidence": t.confidence,
                "explanation": t.explanation,
                "status": _status_to_dict(t.status),
            }
            for t in kb.terms
        ],
        "pattern_refs": [
            {"graph_ref": p.graph_ref, "skeleton_cluster": p.skeleton_cluster, "note": p.note}
            for p in kb.pattern_refs
        ],
        "graph_ref": kb.graph_ref,
    }


def kb_from_dict(data: dict) -> KnowledgeBase:
    return KnowledgeBase(
        db_id=data["db_id"],
        annotations=tuple(
            SchemaAnnotation(
                target=a["target"],
                description=a["description"],
                abbreviation_expansion=a.get("abbreviation_expansion"),
                source=Source(a.get("source", "llm")),
                status=_status_from_dict(a.get("status", {})),
            )
            for a in data.get("annotations", [])
        ),
        value_mappings=tuple(
            ValueMapping(
                column=m["column"],
                code=m["code"],
                meaning=m["meaning"],
                status=_status_from_dict(m.get("status", {})),
            )
            for m in data.get("value_mappings", [])
        ),
        terms=tuple(
            DomainTerm(
                term_text=t["term_text"],
                sql_expression=t["sql_expression"],
                columns_used=tuple(t.get("columns_used", [])),
                operator=Operator(t.get("operator", "none")),
                confidence=float(t.get("confidence", 0.0)),
                explanation=t.get("explanation", ""),
                status=_status_from_dict(t.get("status", {})),
            )
            for t in data.get("terms", [])
        ),
        pattern_refs=tuple(
            QueryPatternRef(
                graph_ref=p["graph_ref"],
                skeleton_cluster=int(p["skeleton_cluster"]),
                note=p.get("note", ""),
            )
            for p in data.get("pattern_refs", [])
        ),
        graph_ref=data.get("graph_ref", ""),
    )


# -- schema --------------------------------------------------------------------------


def schema_to_dict(schema: DatabaseSchema) -> dict:
    return {
        "db_id": schema.db_id,
        "tables": [
            {
                "name": t.name,
                "columns": [
                    {"name": c.name, "type": c.type, "pk": c.pk, "fk": c.fk}
                    for c in t.columns
                ],
            }
            for t in schema.tables
        ],
        "value_samples": {k: list(v) for k, v in sorted(schema.value_samples.items())},
    }


def schema_from_dict(data: dict) -> DatabaseSchema:
    tables = [
        TableDef(
            name=t["name"],
            columns=tuple(
                ColumnDef(
                    name=c["name"],
                    type=c.get("type", "TEXT"),
                    pk=bool(c.get("pk", False)),
                    fk=c.get("fk"),
                )
                for c in t.get("columns", [])
            ),
        )
        for t in data.get("tables", [])
    ]
    schema = DatabaseSchema(
        db_id=data["db_id"],
        tables=tables,
        value_samples={k: list(v) for k, v in data.get("value_samples", {}).items()},
    )
    schema.validate()
    return schema


# -- pattern graph ---------------------------------------------------------------------


def graph_to_dict(graph: PatternGraph) -> dict:
    return asdict(graph)


def graph_from_dict(data: dict) -> PatternGraph:
    graph = PatternGraph(
        graph_id=data["graph_id"],
        embed_dimension=int(data["embed_dimension"]),
        question_clusters=tuple(
            QuestionCluster(
                id=int(qc["id"]),
                centroid=tuple(float(v) for v in qc["centroid"]),
                medoid_question=qc["medoid_question"],
            )
            for qc in data.get("question_clusters", [])
        ),
        skeleton_clusters=tuple(
            SkeletonCluster(
                id=int(sc["id"]),
                medoid_skeleton=sc["medoid_skeleton"],
                members=int(sc["members"]),
                medoid_question=sc.get("medoid_question", ""),
                medoid_sql=sc.get("medoid_sql", ""),
            )
            for sc in data.get("skeleton_clusters", [])
        ),
        edges=tuple(
            Edge(
                q_cluster=int(e["q_cluster"]),
                s_cluster=int(e["s_cluster"]),
                count=int(e["count"]),
                prob=float(e["prob"]),
            )
            for e in data.get("edges", [])
        ),
        dropped=tuple((int(i), str(r)) for i, r in data.get("dropped", [])),
    )
    graph.validate()
    return graph


# -- templates -------------------------------------------------------------------------


def template_to_dict(template: SqlTemplate) -> dict:
    return {
        "id": template.id,
        "skeleton_id": template.skeleton_id,
        "sql": template.sql,
        "difficulty": template.difficulty.value,
        "tables_used": template.tables_used,
        "embedding": list(template.embedding),
    }


def template_from_dict(data: dict) -> SqlTemplate:
    return SqlTemplate(
        id=data["id"],
        skeleton_id=data["skeleton_id"],
        sql=data["sql"],
        difficulty=Difficulty(data["difficulty"]),
        tables_used=int(data["tables_used"]),
        embedding=tuple(float(v) for v in data["embedding"]),
    )


# -- config ----------------------------------------------------------------------------


def config_snapshot(config: AppConfig) -> dict:
    def as_dict(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return {f.name: as_dict(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, tuple):
            return [as_dict(v) for v in obj]
        return obj

    return as_dict(config)


def _merge_section(default, data: dict):
    coerced = {}
    for key, value in data.items():
        current = getattr(default, key)
        if isinstance(current, tuple) and isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    return replace(default, **coerced)


def config_from_dict(data: dict) -> AppConfig:
    default = AppConfig()
    sections = {}
    for f in fields(AppConfig):
        value = data[f.name]
        if isinstance(value, dict):
            value = _merge_section(getattr(default, f.name), value)
        sections[f.name] = value
    return AppConfig(**sections)
