"""The scan-everything lookups that the knowledge index replaced, kept as
test oracles: per question, one boundary regex per table, column, annotation
expansion, sampled value and term, a linear scan of the KB per element, and
the literal -> columns ``value_index`` rebuilt on every ``link`` call; and the
window-set ``propose`` that came between them and the one-scan occurrences."""

from __future__ import annotations

import re

from schema_oracle import SchemaLookups
from sqlknow.knowledge import KnowledgeBase, State
from sqlknow.linker import LinkResult, RelevanceScores, _question_literals
from sqlknow.schema import DatabaseSchema
from sqlknow.textproc import _KIND_PRIORITY, _boundary_pattern, fold, split_identifier

_WEIGHT_NAME = 1.0
_WEIGHT_ANNOTATION = 0.5
_WEIGHT_VALUE = 0.8


# -- knowledge base lookups ---------------------------------------------------------


def annotation_for(kb: KnowledgeBase, target: str):
    key = target.lower()
    for ann in kb.annotations:
        if ann.target.lower() == key:
            return ann
    return None


def mappings_for(kb: KnowledgeBase, column_id: str) -> list:
    key = column_id.lower()
    return [m for m in kb.value_mappings if m.column.lower() == key]


def accepted_terms(kb: KnowledgeBase) -> list:
    return [t for t in kb.terms if t.status.state is State.ACCEPTED]


def active_terms(kb: KnowledgeBase) -> list:
    return [t for t in kb.terms if t.status.state is not State.REJECTED]


# -- surface proposals -----------------------------------------------------------------


def propose(entries, q: str) -> dict[str, list]:
    """Surface -> payloads, for every surface that may occur in ``q``: each
    ``(surface, payload)`` entry whose stripped surface folds to a window of
    ``q`` that starts and ends at a boundary, probing every start x end pair
    whose length is some key's length; a blank surface for no question."""
    by_key: dict[str, list] = {}
    for surface, payload in entries:
        if key := fold(surface.strip()):
            by_key.setdefault(key, []).append((surface, payload))
    lengths = {len(k) for k in by_key}
    fq = fold(q)
    starts = [m.start() for m in re.finditer(r"(?<![A-Za-z0-9])", q, re.IGNORECASE)]
    ends = [m.start() for m in re.finditer(r"(?![A-Za-z0-9])", q, re.IGNORECASE)]
    keys = {fq[i:j] for i in starts for j in ends if j - i in lengths and fq[i:j] in by_key}
    found: dict[str, list] = {}
    for surface, payload in [e for key in sorted(keys) for e in by_key[key]]:
        found.setdefault(surface, []).append(payload)
    return found


# -- masking, relevance, linking -------------------------------------------------------


def mask_question(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> str:
    """Masking with one boundary regex per surface, per question."""
    candidates: list[tuple[int, int, str]] = []

    def add_matches(surface: str, kind: str) -> None:
        surface = surface.strip()
        if not surface:
            return
        for m in _boundary_pattern(surface).finditer(q):
            candidates.append((m.start(), m.end(), kind))

    for table in schema.tables:
        add_matches(table.name, "TAB")
        for col in table.columns:
            add_matches(col.name, "COL")
    if kb is not None:
        for ann in kb.annotations:
            if not ann.abbreviation_expansion:
                continue
            kind = "COL" if "." in ann.target else "TAB"
            add_matches(ann.abbreviation_expansion, kind)
    for values in schema.value_samples.values():
        for v in values:
            add_matches(v, "VAL")
    for m in re.finditer(r"'[^']*'|\"[^\"]*\"", q):
        candidates.append((m.start(), m.end(), "VAL"))
    for m in re.finditer(r"(?<![A-Za-z0-9.])\d+(?:\.\d+)?(?![A-Za-z0-9.])", q):
        candidates.append((m.start(), m.end(), "VAL"))
    if kb is not None:
        for term in accepted_terms(kb):
            add_matches(term.term_text, "TERM")

    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], _KIND_PRIORITY[c[2]]))
    chosen: list[tuple[int, int, str]] = []
    for start, end, kind in candidates:
        if any(s < end and start < e for s, e, _ in chosen):
            continue
        chosen.append((start, end, kind))
    chosen.sort()

    pieces = []
    cursor = 0
    for start, end, kind in chosen:
        pieces.append(q[cursor:start])
        pieces.append(f"<{kind}>")
        cursor = end
    pieces.append(q[cursor:])
    return "".join(pieces)


def _question_tokens(q: str) -> set[str]:
    return {t.lower() for t in re.findall(r"\w+", q)}


def _overlap(q_tokens: set[str], element_tokens: list[str]) -> float:
    if not element_tokens:
        return 0.0
    toks = {t.lower() for t in element_tokens}
    return len(q_tokens & toks) / len(toks)


def _annotation_tokens(kb: KnowledgeBase | None, target: str) -> list[str]:
    if kb is None:
        return []
    ann = annotation_for(kb, target)
    if ann is None or ann.status.state is State.REJECTED:
        return []
    text = ann.description
    if ann.abbreviation_expansion:
        text += " " + ann.abbreviation_expansion
    return re.findall(r"\w+", text)


def _samples(schema: DatabaseSchema) -> list[tuple[str, list[str]]]:
    """Each ``value_samples`` key's column id (the key as written if it names no
    column) with its values, by id: a key cased unlike its column names it."""
    lookups = SchemaLookups(schema)
    return sorted((lookups.resolve_column_id(key) or key, values)
                  for key, values in schema.value_samples.items())


def _value_occurs(value: str, question: str) -> bool:
    """A blank value occurs in no question."""
    return value.strip() != "" and _boundary_pattern(value).search(question) is not None


def score_relevance(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
) -> RelevanceScores:
    """The scan over every element, sampled value and term, per question."""
    q_tokens = _question_tokens(q)
    samples = _samples(schema)
    tables: dict[str, float] = {}
    columns: dict[str, float] = {}
    for table in schema.tables:
        name_ov = _overlap(q_tokens, split_identifier(table.name))
        ann_ov = _overlap(q_tokens, _annotation_tokens(kb, table.name))
        tables[table.name] = (_WEIGHT_NAME * name_ov + _WEIGHT_ANNOTATION * ann_ov) / (
            _WEIGHT_NAME + _WEIGHT_ANNOTATION
        )
        for col in table.columns:
            col_id = f"{table.name}.{col.name}"
            name_ov = _overlap(q_tokens, split_identifier(col.name))
            ann_ov = _overlap(q_tokens, _annotation_tokens(kb, col_id))
            hit = 0.0
            for value in (v for cid, values in samples if cid == col_id for v in values):
                if _value_occurs(value, q):
                    hit = 1.0
                    break
            columns[col_id] = (
                _WEIGHT_NAME * name_ov + _WEIGHT_ANNOTATION * ann_ov + _WEIGHT_VALUE * hit
            ) / (_WEIGHT_NAME + _WEIGHT_ANNOTATION + _WEIGHT_VALUE)

    terms = []
    if kb is not None:
        for term in active_terms(kb):
            text_ov = _overlap(q_tokens, re.findall(r"\w+", term.term_text))
            expl_ov = _overlap(q_tokens, re.findall(r"\w+", term.explanation))
            score = (_WEIGHT_NAME * text_ov + _WEIGHT_ANNOTATION * expl_ov) / (
                _WEIGHT_NAME + _WEIGHT_ANNOTATION
            )
            terms.append((term, score))
        terms.sort(key=lambda ts: (-ts[1], ts[0].term_text, ts[0].sql_expression))
    return RelevanceScores(tables=tables, columns=columns, terms=tuple(terms))


def link(
    q: str,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    k1: int = 5,
    k2: int = 12,
    k3: int = 5,
) -> LinkResult:
    """Two-step linking with the ``value_index`` rebuilt on every call."""
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

    terms = scores.terms[:k3]

    # step 2: value-aware term expansion
    value_index: dict[str, list[str]] = {}
    for col_id, values in _samples(schema):
        for value in values:
            value_index.setdefault(value.casefold(), []).append(col_id)

    step1_columns = {cid for cols in columns.values() for cid, _ in cols}
    expansion: set[str] = set()
    tables_out = list(ranked_tables)
    for literal in _question_literals(q):
        for col_id in value_index.get(literal.casefold(), ()):
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
        terms=terms,
        expansion_added=frozenset(expansion),
    )
