"""Prompt assembly: render the generation prompt from linked knowledge.

The scaffolding lives in a versioned asset file with four placeholders, filled
in one pass in template order: the selected schema as annotated DDL, the linked
domain terms, the retrieved skeleton exemplars (or full medoid QA pairs when
given), and the user question verbatim. Text inside a section is never
substituted again. Assembly is byte-deterministic.

When the rendered prompt exceeds the token budget, content is dropped in a
fixed order: lowest-score columns first, then the last QA pairs (in QA-pair
mode), then the last (least probable) skeletons, then lowest-score terms.
Scaffolding and the question are never truncated; if they alone exceed the
budget, assembly fails.

Every piece of the prompt (a column line, a table's header and closing line, a
term, skeleton or QA-pair line, a template chunk) is rendered and counted once;
each table's header and column lines once per schema, and their comments once
per KB, in their indexes, so that a question only picks and sums them.
Pieces are joined by newlines and no counted unit spans whitespace, so the
prompt's count is the sum of its pieces' counts: each drop subtracts from a
running total, and the kept pieces are joined into the text once.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .errors import BudgetExceededError
from .knowledge import KnowledgeBase
from .linker import LinkResult
from .schema import DatabaseSchema, name_key
from .textproc import count_units, units_to_tokens

MIN_BUDGET = 256
EMPTY_SECTION = "(none)"
_EMPTY_UNITS = count_units(EMPTY_SECTION)
_CLOSE_UNITS = count_units(");")

_PLACEHOLDERS = (
    "${DATABASE_SCHEMA}",
    "${DOMAIN_KG}",
    "${QA_PAIRS}",
    "${USER_QUESTION}",
)
_PLACEHOLDER_SPLIT_RE = re.compile("(" + "|".join(map(re.escape, _PLACEHOLDERS)) + ")")


def load_template() -> str:
    return (
        resources.files("sqlknow.assets").joinpath("prompt_template.txt").read_text("utf-8")
    )


@functools.cache
def _template_parts() -> tuple[tuple[str, ...], int]:
    """The template as literal chunks (even positions) and placeholders (odd
    positions), and the units of its chunks. Each placeholder stands on its own
    line, so no unit spans a chunk and the section filled in next to it."""
    parts = tuple(_PLACEHOLDER_SPLIT_RE.split(load_template()))
    return parts, sum(count_units(chunk) for chunk in parts[::2])


@dataclass(frozen=True)
class DropCounts:
    """How many items of each kind truncation removed from the prompt."""

    columns: int = 0
    qa_pairs: int = 0
    skeletons: int = 0
    terms: int = 0


@dataclass(frozen=True)
class PromptBundle:
    text: str
    token_count: int
    truncated: bool
    dropped: DropCounts


class _Lines:
    """A section of one piece per item, dropped from the end; ``(none)`` when empty."""

    def __init__(self, pieces: list[str]):
        self.pieces = pieces
        self.units = [count_units(p) for p in pieces]
        self.kept = len(pieces)
        self.kept_units = sum(self.units)

    def cost(self) -> int:
        return self.kept_units if self.kept else _EMPTY_UNITS

    def pop(self) -> None:
        self.kept -= 1
        self.kept_units -= self.units[self.kept]

    def text(self) -> str:
        return "\n".join(self.pieces[: self.kept]) if self.kept else EMPTY_SECTION


class _Table:
    """One ``CREATE TABLE`` block. Each kept column line but the last carries a
    trailing comma, which is one unit."""

    def __init__(self, header: str, closing: str, frame_units: int,
                 lines: list[tuple[str, str, str, int]]):
        self.header = header
        self.closing = closing
        self.lines = lines  # (column id, declaration, " -- comment" or "", units of both)
        self.units = [line[3] for line in lines]
        self.kept = [True] * len(lines)
        self.n_kept = len(lines)
        self.frame_units = frame_units
        self.kept_units = sum(self.units)

    def cost(self) -> int:
        return self.frame_units + self.kept_units + self.n_kept - 1 if self.n_kept else 0

    def drop(self, idx: int) -> None:
        self.kept[idx] = False
        self.n_kept -= 1
        self.kept_units -= self.units[idx]

    def text(self) -> str:
        kept = [line for line, keep in zip(self.lines, self.kept) if keep]
        body = [
            decl + ("," if i < len(kept) - 1 else "") + comment
            for i, (_col_id, decl, comment, _units) in enumerate(kept)
        ]
        return "\n".join([self.header, *body, self.closing])


class _Schema:
    """The schema section: the linked tables, in link order, with their kept columns.
    Each comment starts with a space, so no unit spans it and the text before it."""

    def __init__(
        self,
        link: LinkResult,
        schema: DatabaseSchema,
        kb: KnowledgeBase | None,
        column_ids: set[str],
    ):
        self.tables: list[_Table] = []
        self.where: dict[str, list[tuple[_Table, int]]] = {}
        comments = kb.column_comments if kb is not None else {}
        closings = kb.table_comments if kb is not None else {}
        column_lines = schema.column_lines
        for table_name, _score in link.tables:
            key = name_key(table_name)
            header, header_units, columns = column_lines[key]
            lines = []
            for col_id, decl, units, col_key in columns:
                if col_id in column_ids:
                    comment, comment_units = comments.get(col_key, ("", 0))
                    lines.append((col_id, decl, comment, units + comment_units))
            if not lines:
                continue
            comment, comment_units = closings.get(key, ("", 0))
            table = _Table(header, ");" + comment,
                           header_units + _CLOSE_UNITS + comment_units, lines)
            for idx, (col_id, *_line) in enumerate(lines):
                self.where.setdefault(col_id, []).append((table, idx))
            self.tables.append(table)
        self.units = sum(t.cost() for t in self.tables)

    def cost(self) -> int:
        # a kept table costs at least its header, so 0 means no table is left
        return self.units or _EMPTY_UNITS

    def drop(self, col_id: str) -> bool:
        """Drop every line of ``col_id``; False if the prompt has none."""
        places = self.where.pop(col_id, ())
        for table, idx in places:
            before = table.cost()
            table.drop(idx)
            self.units += table.cost() - before
        return bool(places)

    def text(self) -> str:
        blocks = [t.text() for t in self.tables if t.n_kept]
        return "\n".join(blocks) if blocks else EMPTY_SECTION


def _term_line(term) -> str:
    line = f"- {term.term_text}: {term.sql_expression}"
    if term.explanation:
        line += f" -- {term.explanation}"
    return line


def assemble(
    link: LinkResult,
    skeletons: list[str],
    q: str,
    budget: int,
    schema: DatabaseSchema,
    kb: KnowledgeBase | None = None,
    qa_pairs: list[tuple[str, str]] | None = None,
) -> PromptBundle:
    """Build the prompt for one question under a token budget; given
    ``qa_pairs``, in QA-pair mode."""
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}")
    parts, template_units = _template_parts()

    # droppable columns, lowest score first (expansion columns carry their own
    # rank); ties drop the lexicographically later id first
    entries = [entry for cols in link.columns.values() for entry in cols]
    entries += [(col_id, 0.0) for col_id in sorted(link.expansion_added)]
    drop_order = sorted(sorted(entries, reverse=True), key=lambda e: e[1])

    columns = _Schema(link, schema, kb, {col_id for col_id, _ in entries})
    terms = _Lines([_term_line(term) for term, _score in link.terms])
    skeleton_lines = _Lines([f"{i}. {s}" for i, s in enumerate(skeletons, start=1)])
    qa = _Lines([
        f"{i}. Q: {question}\n   A: {sql}"
        for i, (question, sql) in enumerate(qa_pairs or [], start=1)
    ])
    fixed_units = template_units + count_units(q)

    def patterns() -> _Lines:
        return qa if qa.kept else skeleton_lines

    def drops():
        """Every drop that changes the prompt, in drop order, named by its kind."""
        for col_id, _score in drop_order:
            if columns.drop(col_id):
                yield "columns"
        for kind, section in (("qa_pairs", qa), ("skeletons", skeleton_lines),
                              ("terms", terms)):
            while section.kept:
                section.pop()
                yield kind

    dropped: Counter[str] = Counter()
    steps = drops()
    while (tokens := units_to_tokens(
        fixed_units + columns.cost() + terms.cost() + patterns().cost()
    )) > budget:
        kind = next(steps, None)
        if kind is None:
            raise BudgetExceededError(
                f"scaffolding and question need {tokens} tokens; budget is {budget}"
            )
        dropped[kind] += 1

    values = dict(zip(_PLACEHOLDERS, (columns.text(), terms.text(), patterns().text(), q)))
    text = "".join(values[p] if i % 2 else p for i, p in enumerate(parts))
    return PromptBundle(text=text, token_count=tokens, truncated=bool(dropped),
                        dropped=DropCounts(**dropped))
