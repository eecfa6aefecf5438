"""Knowledge linker: lexical relevance scoring, two-step schema linking, and SLR.

Each schema element is scored by weighted token overlap with the question:

    table  = (1.0 * name_overlap + 0.5 * annotation_overlap) / 1.5
    column = (1.0 * name_overlap + 0.5 * annotation_overlap + 0.8 * value_hit) / 2.3
    term   = (1.0 * text_overlap + 0.5 * explanation_overlap) / 1.5

where an overlap is the fraction of the element's tokens present in the question
and ``value_hit`` is 1 when a sampled value of the column occurs in it, as the one
scan of the question finds (no regex for an unpadded ASCII value in ASCII text; a
blank value occurs in no question).
Only elements sharing a word or a value with the question are visited, through the
postings; the rest score 0, and such terms rank by ``(term_text, sql_expression)``.
Step 1 selects the top-k1 tables and top-k2 columns per table; step 2
(value-aware expansion) adds the column of every sampled value equal, after
case folding, to a question literal, beyond k2 if needed. Ties break by
identifier so linking is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .knowledge import DomainTerm, KnowledgeBase
from .schema import DatabaseSchema, name_key
from .sql_refs import UNRESOLVABLE, extract_references
from .textproc import NUMBER_RE, QUOTED_SPAN_RE, exact, occurs, surface_index

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


def _overlaps(postings: dict[str, list], q_tokens: set[str]) -> dict:
    """Key -> the share of its words in the question, for each key that holds one."""
    hits: dict = {}
    for word in q_tokens:
        for entry in postings.get(word, ()):
            hits[entry] = hits.get(entry, 0) + 1
    return {key: n / size for (key, size), n in hits.items()}


def score_relevance(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> RelevanceScores:
    """Score tables, columns and domain terms for one question, in [0, 1]."""
    q_tokens = _question_tokens(q)
    name_ov = _overlaps(schema.name_postings, q_tokens)
    ann_ov = _overlaps(kb.annotation_postings, q_tokens) if kb is not None else {}
    tables = dict.fromkeys(schema.columns_of, 0.0)
    columns = dict.fromkeys((c for ids in schema.columns_of.values() for c in ids), 0.0)
    windows = surface_index(schema, kb).occurrences(q)
    value_hits = {col_id for *_, entries in windows for value, (_, col_id) in entries
                  if col_id in columns and (exact(q, value) or occurs(q, value))}
    touched = name_ov.keys() | value_hits
    touched.update(schema.ids[key] for key in ann_ov if key in schema.ids)
    for element in touched:
        score = (_WEIGHT_NAME * name_ov.get(element, 0.0)
                 + _WEIGHT_ANNOTATION * ann_ov.get(name_key(element), 0.0))
        if element in columns:
            hit = _WEIGHT_VALUE if element in value_hits else 0.0
            columns[element] = (score + hit) / (_WEIGHT_NAME + _WEIGHT_ANNOTATION + _WEIGHT_VALUE)
        else:
            tables[element] = score / (_WEIGHT_NAME + _WEIGHT_ANNOTATION)

    terms: tuple = ()
    if kb is not None:
        text_postings, expl_postings, zero_terms = kb.term_postings
        text_ov, expl_ov = _overlaps(text_postings, q_tokens), _overlaps(expl_postings, q_tokens)
        matched = text_ov.keys() | expl_ov.keys()
        ranked = []
        for i in sorted(matched):
            score = _WEIGHT_NAME * text_ov.get(i, 0.0) + _WEIGHT_ANNOTATION * expl_ov.get(i, 0.0)
            ranked.append((kb.active_terms[i], score / (_WEIGHT_NAME + _WEIGHT_ANNOTATION)))
        ranked.sort(key=lambda ts: (-ts[1], ts[0].term_text, ts[0].sql_expression))
        terms = (*ranked, *(pair for i, pair in zero_terms if i not in matched))
    return RelevanceScores(tables=tables, columns=columns, terms=terms)


def _question_literals(q: str) -> list[str]:
    """Literal-like strings: quoted spans, numbers, and word n-grams up to 4."""
    literals = [m.group()[1:-1] for m in QUOTED_SPAN_RE.finditer(q)]
    literals += NUMBER_RE.findall(q)
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
    columns = {
        table: tuple(sorted(((cid, scores.columns[cid]) for cid in schema.columns_of[table]),
                            key=lambda kv: (-kv[1], kv[0]))[:k2])
        for table, _ in ranked_tables
    }

    # step 2: value-aware term expansion
    step1_columns = {cid for cols in columns.values() for cid, _ in cols}
    expansion: set[str] = set()
    tables_out = dict(ranked_tables)
    for literal in _question_literals(q):
        for col_id in schema.literal_columns(literal):
            if col_id not in step1_columns:
                expansion.add(col_id)
                table = col_id.split(".", 1)[0]
                tables_out.setdefault(table, scores.tables.get(table, 0.0))

    return LinkResult(question=q, tables=tuple(tables_out.items()), columns=columns,
                      terms=scores.terms[:k3], expansion_added=frozenset(expansion))


@dataclass(frozen=True)
class SlrReport:
    recall: float  # of step 1 and step 2's value expansion
    step1_recall: float  # of the top-k2 columns of the top-k1 tables alone
    hits: int  # of ``recall``
    evaluated: int
    excluded: int  # gold queries that could not be parsed/resolved


def slr(
    eval_set: list[tuple[str, str]],
    schema: DatabaseSchema,
    kb: KnowledgeBase | None,
    k1: int,
    k2s: list[int],
    k3: int,
) -> list[SlrReport]:
    """Schema Linking Recall at each k2 of ``k2s``: the fraction of questions whose
    gold columns are all linked, after step 1 and after step 2, from one ``link``
    per question and k2. Each gold is read once; unparseable gold queries are
    excluded and tallied."""
    golds: list[tuple[str, set[str]]] = []
    for question, gold_sql in eval_set:
        try:
            golds.append((question, set(extract_references(gold_sql, schema).columns)))
        except UNRESOLVABLE:
            pass  # tallied as excluded
    evaluated, excluded = len(golds), len(eval_set) - len(golds)
    reports = []
    for k2 in k2s:
        hits = step1_hits = 0
        for question, gold_columns in golds:
            result = link(question, schema, kb, k1=k1, k2=k2, k3=k3)
            step1_hits += gold_columns <= {cid for cols in result.columns.values()
                                           for cid, _ in cols}
            hits += gold_columns <= result.linked_column_ids()
        recall, step1_recall = (n / evaluated if evaluated else 0.0 for n in (hits, step1_hits))
        reports.append(SlrReport(recall=recall, step1_recall=step1_recall, hits=hits,
                                 evaluated=evaluated, excluded=excluded))
    return reports
