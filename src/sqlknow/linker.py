"""Knowledge linker: lexical relevance scoring, two-step schema linking, and SLR.

Each schema element is scored by weighted token overlap with the question:

    table  = (1.0 * name_overlap + 0.5 * annotation_overlap) / 1.5
    column = (1.0 * name_overlap + 0.5 * annotation_overlap + 0.8 * value_hit) / 2.3
    term   = (1.0 * text_overlap + 0.5 * explanation_overlap) / 1.5

where an overlap is the fraction of the element's tokens present in the
question and ``value_hit`` is 1 when any sampled value of the column occurs in
the question. Step 1 selects the top-k1 tables and top-k2 columns per table;
step 2 (value-aware expansion) adds the column of every sampled value equal,
after case folding, to a question literal, beyond k2 if needed. Ties break by identifier so
linking is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .knowledge import DomainTerm, KnowledgeBase
from .schema import DatabaseSchema
from .sql_refs import UNRESOLVABLE, extract_references
from .textproc import _boundary_pattern

_WEIGHT_NAME = 1.0
_WEIGHT_ANNOTATION = 0.5
_WEIGHT_VALUE = 0.8


@dataclass(frozen=True)
class RelevanceScores:
    tables: dict[str, float]
    columns: dict[str, float]  # "table.column" -> score
    terms: tuple[tuple[DomainTerm, float], ...]


@dataclass(frozen=True)
class LinkResult:
    question: str
    tables: tuple[tuple[str, float], ...]
    columns: dict[str, tuple[tuple[str, float], ...]]  # table -> ((col_id, score), ...)
    terms: tuple[tuple[DomainTerm, float], ...]
    expansion_added: frozenset[str]

    def linked_column_ids(self) -> frozenset[str]:
        linked = {cid for cols in self.columns.values() for cid, _ in cols}
        return frozenset(linked | self.expansion_added)


def _question_tokens(q: str) -> set[str]:
    return {t.lower() for t in re.findall(r"\w+", q)}


def _overlap(q_tokens: set[str], element_words: frozenset[str]) -> float:
    if not element_words:
        return 0.0
    return len(q_tokens & element_words) / len(element_words)


def score_relevance(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> RelevanceScores:
    """Score tables, columns and domain terms for one question, in [0, 1]."""
    q_tokens = _question_tokens(q)
    index = schema.index
    annotation_words = kb.index.annotation_words if kb is not None else {}
    value_hits = {
        col_id
        for value, col_ids in index.values.propose(q).items()
        if _boundary_pattern(value).search(q) is not None
        for col_id in col_ids
    }
    tables: dict[str, float] = {}
    columns: dict[str, float] = {}
    for table_name, table_words, table_columns in index.name_words:
        name_ov = _overlap(q_tokens, table_words)
        ann_ov = _overlap(q_tokens, annotation_words.get(table_name.lower(), frozenset()))
        tables[table_name] = (_WEIGHT_NAME * name_ov + _WEIGHT_ANNOTATION * ann_ov) / (
            _WEIGHT_NAME + _WEIGHT_ANNOTATION
        )
        for col_id, col_words in table_columns:
            name_ov = _overlap(q_tokens, col_words)
            ann_ov = _overlap(q_tokens, annotation_words.get(col_id.lower(), frozenset()))
            hit = 1.0 if col_id in value_hits else 0.0
            columns[col_id] = (
                _WEIGHT_NAME * name_ov + _WEIGHT_ANNOTATION * ann_ov + _WEIGHT_VALUE * hit
            ) / (_WEIGHT_NAME + _WEIGHT_ANNOTATION + _WEIGHT_VALUE)

    terms = []
    if kb is not None:
        for term, text_words, explanation_words in kb.index.term_words:
            text_ov = _overlap(q_tokens, text_words)
            expl_ov = _overlap(q_tokens, explanation_words)
            score = (_WEIGHT_NAME * text_ov + _WEIGHT_ANNOTATION * expl_ov) / (
                _WEIGHT_NAME + _WEIGHT_ANNOTATION
            )
            terms.append((term, score))
        terms.sort(key=lambda ts: (-ts[1], ts[0].term_text, ts[0].sql_expression))
    return RelevanceScores(tables=tables, columns=columns, terms=tuple(terms))


def _question_literals(q: str) -> list[str]:
    """Literal-like strings: quoted spans, numbers, and word n-grams up to 4."""
    literals = [m.group()[1:-1] for m in re.finditer(r"'[^']*'|\"[^\"]*\"", q)]
    literals += re.findall(r"(?<![A-Za-z0-9.])\d+(?:\.\d+)?(?![A-Za-z0-9.])", q)
    words = re.findall(r"[\w.]+", q)
    for size in range(1, 5):
        for i in range(len(words) - size + 1):
            literals.append(" ".join(words[i : i + size]))
    return literals


def link(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    k1: int = 5,
    k2: int = 12,
    k3: int = 5,
) -> LinkResult:
    """Two-step linking: top-k selection by score, then value-aware expansion."""
    if k1 < 1 or k2 < 1 or k3 < 1:
        raise ValueError("k1, k2 and k3 must all be >= 1")
    scores = score_relevance(q, schema, kb)

    ranked_tables = sorted(scores.tables.items(), key=lambda kv: (-kv[1], kv[0]))[:k1]
    selected_tables = [t for t, _ in ranked_tables]
    columns: dict[str, tuple[tuple[str, float], ...]] = {}
    for table in selected_tables:
        table_cols = [
            (cid, s) for cid, s in scores.columns.items() if cid.split(".", 1)[0] == table
        ]
        table_cols.sort(key=lambda kv: (-kv[1], kv[0]))
        columns[table] = tuple(table_cols[:k2])

    # step 2: value-aware term expansion
    step1_columns = {cid for cols in columns.values() for cid, _ in cols}
    expansion: set[str] = set()
    tables_out = list(ranked_tables)
    for literal in _question_literals(q):
        for col_id in schema.index.literal_columns(literal):
            if col_id in step1_columns or col_id in expansion:
                continue
            expansion.add(col_id)
            table = col_id.split(".", 1)[0]
            if table not in {t for t, _ in tables_out}:
                tables_out.append((table, scores.tables.get(table, 0.0)))

    return LinkResult(
        question=q,
        tables=tuple(tables_out),
        columns=columns,
        terms=scores.terms[:k3],
        expansion_added=frozenset(expansion),
    )


@dataclass(frozen=True)
class SlrReport:
    recall: float
    hits: int
    evaluated: int
    excluded: int  # gold queries that could not be parsed/resolved

    def __float__(self) -> float:
        return self.recall


def slr(
    eval_set: list[tuple[str, str]],
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    k1: int = 5,
    k2: int = 12,
    k3: int = 5,
    step2: bool = True,
) -> SlrReport:
    """Schema Linking Recall: fraction of questions whose gold columns are all
    linked. Unparseable gold queries are excluded and tallied."""
    hits = 0
    evaluated = 0
    excluded = 0
    for question, gold_sql in eval_set:
        try:
            gold = extract_references(gold_sql, schema)
        except UNRESOLVABLE:
            excluded += 1
            continue
        evaluated += 1
        result = link(question, schema, kb, k1=k1, k2=k2, k3=k3)
        linked = (
            result.linked_column_ids()
            if step2
            else frozenset(cid for cols in result.columns.values() for cid, _ in cols)
        )
        if set(gold.columns) <= linked:
            hits += 1
    recall = hits / evaluated if evaluated else 0.0
    return SlrReport(recall=recall, hits=hits, evaluated=evaluated, excluded=excluded)
