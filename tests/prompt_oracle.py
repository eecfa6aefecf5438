"""The re-render-per-drop prompt assembly that the one-render walk replaced, kept
as a test oracle: after every dropped item it renders the whole prompt again and
counts its tokens again. The changes from that loop are the template fill,
done in one pass so that placeholder text inside a section stays as written,
and the tie rule: among equal scores the lexicographically later column id is
dropped first, an id that extends another (``t.ab`` of ``t.a``) before it.

The drop counts it reports are read off its final kept lists, not counted
during its loop."""

from __future__ import annotations

import re

import scan_oracle

from sqlknow.errors import BudgetExceededError
from sqlknow.knowledge import KnowledgeBase
from sqlknow.linker import LinkResult
from sqlknow.prompting import (
    EMPTY_SECTION,
    MIN_BUDGET,
    DropCounts,
    PromptBundle,
    load_template,
)
from sqlknow.schema import DatabaseSchema, name_key
from sqlknow.textproc import estimate_tokens

_PLACEHOLDER_RE = re.compile(r"\$\{(?:DATABASE_SCHEMA|DOMAIN_KG|QA_PAIRS|USER_QUESTION)\}")


def _render_schema(link, schema, kb, kept_columns) -> str:
    blocks = []
    for table_name, _score in link.tables:
        tdef = schema.table_by_key[name_key(table_name)]
        selected = [
            c for c in tdef.columns if f"{tdef.name}.{c.name}" in kept_columns
        ]
        if not selected:
            continue
        lines = [f"CREATE TABLE {tdef.name} ("]
        rendered = []
        for col in selected:
            col_id = f"{tdef.name}.{col.name}"
            decl = f"  {col.name} {col.type}"
            if col.pk:
                decl += " PRIMARY KEY"
            if col.fk:
                ref_table, ref_col = col.fk.split(".", 1)
                decl += f" REFERENCES {ref_table}({ref_col})"
            comments = []
            if kb is not None:
                ann = kb.annotation_for(col_id)
                if ann is not None:
                    comments.append(ann.description)
                mappings = scan_oracle.mappings_for(kb, col_id)
                if mappings:
                    codes = ", ".join(f"{m.code} = \"{m.meaning}\"" for m in mappings)
                    comments.append(f"codes: {codes}")
            rendered.append((decl, "; ".join(comments)))
        body = []
        for idx, (decl, comment) in enumerate(rendered):
            line = decl + ("," if idx < len(rendered) - 1 else "")
            if comment:
                line += f" -- {comment}"
            body.append(line)
        lines.append("\n".join(body))
        closing = ");"
        if kb is not None:
            ann = kb.annotation_for(tdef.name)
            if ann is not None:
                closing += f" -- {ann.description}"
        lines.append(closing)
        blocks.append("\n".join(lines))
    return "\n".join(blocks) if blocks else EMPTY_SECTION


def _render_terms(terms) -> str:
    if not terms:
        return EMPTY_SECTION
    lines = []
    for term, _score in terms:
        line = f"- {term.term_text}: {term.sql_expression}"
        if term.explanation:
            line += f" -- {term.explanation}"
        lines.append(line)
    return "\n".join(lines)


def _render_patterns(skeletons, qa_pairs, qa_pairs_mode) -> str:
    if qa_pairs_mode and qa_pairs:
        lines = []
        for i, (question, sql) in enumerate(qa_pairs, start=1):
            lines.append(f"{i}. Q: {question}")
            lines.append(f"   A: {sql}")
        return "\n".join(lines)
    if not skeletons:
        return EMPTY_SECTION
    return "\n".join(f"{i}. {s}" for i, s in enumerate(skeletons, start=1))


def _rendered_columns(link, schema, kept_columns) -> set[str]:
    tables = [schema.table_by_key[name_key(t)] for t, _ in link.tables]
    return {f"{t.name}.{c.name}" for t in tables for c in t.columns
            if f"{t.name}.{c.name}" in kept_columns}


def assemble(
    link: LinkResult,
    skeletons: list[str],
    q: str,
    budget: int,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    qa_pairs: list[tuple[str, str]] | None = None,
    qa_pairs_mode: bool = False,
) -> PromptBundle:
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}")
    template = load_template()

    column_entries = []
    for table, cols in link.columns.items():
        for col_id, score in cols:
            column_entries.append((col_id, score))
    for col_id in sorted(link.expansion_added):
        column_entries.append((col_id, 0.0))

    kept_columns = {col_id for col_id, _ in column_entries}
    initially_rendered = _rendered_columns(link, schema, kept_columns)
    kept_skeletons = list(skeletons)
    kept_terms = list(link.terms)
    kept_qa = list(qa_pairs or [])
    truncated = False

    def render() -> str:
        values = {
            "${DATABASE_SCHEMA}": _render_schema(link, schema, kb, kept_columns),
            "${DOMAIN_KG}": _render_terms(kept_terms),
            "${QA_PAIRS}": _render_patterns(kept_skeletons, kept_qa, qa_pairs_mode),
            "${USER_QUESTION}": q,
        }
        return _PLACEHOLDER_RE.sub(lambda m: values[m.group()], template)

    drop_order = sorted(sorted(column_entries, reverse=True), key=lambda e: e[1])
    drop_cursor = 0

    while True:
        text = render()
        tokens = estimate_tokens(text)
        if tokens <= budget:
            dropped = DropCounts(
                columns=len(initially_rendered - _rendered_columns(link, schema, kept_columns)),
                qa_pairs=len(qa_pairs or []) - len(kept_qa) if qa_pairs_mode else 0,
                skeletons=len(skeletons) - len(kept_skeletons),
                terms=len(link.terms) - len(kept_terms),
            )
            return PromptBundle(
                text=text, token_count=tokens, truncated=truncated,
                dropped=dropped,
            )
        truncated = True
        if drop_cursor < len(drop_order):
            kept_columns.discard(drop_order[drop_cursor][0])
            drop_cursor += 1
            continue
        if kept_qa:
            kept_qa.pop()
            continue
        if kept_skeletons:
            kept_skeletons.pop()
            continue
        if kept_terms:
            kept_terms.pop()
            continue
        raise BudgetExceededError(
            f"scaffolding and question need {tokens} tokens; budget is {budget}"
        )


def section(text: str, header: str) -> str:
    """The section under ``### header`` in a prompt rendered from the template:
    its lines up to the next ``###`` header."""
    return text.split(f"\n### {header}\n", 1)[1].split("\n### ", 1)[0]
