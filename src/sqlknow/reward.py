"""Knowledge-aware, execution-driven reward for candidate SQL.

Tier resolution, in order: execution result matches gold (1.0); executable and
consistent with linked knowledge (0.5); executable at all (0.1); otherwise 0.
"Consistent with linked knowledge" means the candidate reads only columns that
were linked for the question (or appear in the gold query), and, for every
linked domain term whose text occurs in the question, the term's SQL
expression appears inside the candidate (compared on normalized, unqualified
token streams).

Execution runs on an embedded SQLite handle with a fixed timeout, so scoring
identical inputs is deterministic.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from enum import Enum

from .errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from .knowledge import KnowledgeBase
from .linker import LinkResult
from .schema import DatabaseSchema, schema_from_sqlite
from .sql_refs import extract_references
from .sql_tokens import Kind, tokenize

DEFAULT_TIMEOUT_MS = 5000
_PROGRESS_GRANULARITY = 1000  # VM instructions between timeout checks


class ExecErrorKind(Enum):
    SYNTAX = "syntax"
    MISSING_OBJECT = "missing_object"
    RUNTIME = "runtime"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExecutionResult:
    rows: list | None
    error: ExecErrorKind | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


class Tier(Enum):
    EXEC_MATCH = "ExecMatch"
    KNOWLEDGE_CONSISTENT = "KnowledgeConsistent"
    EXECUTABLE = "Executable"
    INVALID = "Invalid"


TIER_VALUES = {
    Tier.EXEC_MATCH: 1.0,
    Tier.KNOWLEDGE_CONSISTENT: 0.5,
    Tier.EXECUTABLE: 0.1,
    Tier.INVALID: 0.0,
}


@dataclass(frozen=True)
class RewardOutcome:
    value: float
    tier: Tier
    diagnostics: str = ""


def execute_sql(
    sql: str, db: sqlite3.Connection, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> ExecutionResult:
    """Run one query and classify any failure (syntax, missing object,
    runtime, timeout)."""
    deadline = time.monotonic() + timeout_ms / 1000.0

    def watchdog():
        return 1 if time.monotonic() > deadline else 0

    db.set_progress_handler(watchdog, _PROGRESS_GRANULARITY)
    try:
        cursor = db.execute(sql)
        rows = cursor.fetchall()
        return ExecutionResult(rows=[tuple(r) for r in rows])
    except sqlite3.OperationalError as exc:
        message = str(exc)
        lowered = message.lower()
        if "interrupted" in lowered:
            kind = ExecErrorKind.TIMEOUT
        elif "syntax error" in lowered or "unrecognized token" in lowered:
            kind = ExecErrorKind.SYNTAX
        elif "no such" in lowered or "no tables specified" in lowered:
            kind = ExecErrorKind.MISSING_OBJECT
        else:
            kind = ExecErrorKind.RUNTIME
        return ExecutionResult(rows=None, error=kind, message=message)
    except sqlite3.Error as exc:
        return ExecutionResult(rows=None, error=ExecErrorKind.RUNTIME, message=str(exc))
    finally:
        db.set_progress_handler(None, 0)


def _canonical_value(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if v.is_integer():  # false for inf and nan, which int() cannot convert
            return int(v)
        return round(v, 6)
    return v


def _canonical_rows(rows: list) -> list[tuple]:
    return [tuple(_canonical_value(v) for v in row) for row in rows]


def _has_top_level_order_by(sql: str) -> bool:
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return False
    depth = 0
    for tok in tokens:
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        elif depth == 0 and tok.is_kw("ORDER"):
            return True
    return False


def results_match(candidate_rows: list, gold_rows: list, gold_sql: str) -> bool:
    """Compare result sets: multiset equality after numeric canonicalization,
    order-sensitive only when the gold query has a top-level ORDER BY."""
    cand = _canonical_rows(candidate_rows)
    gold = _canonical_rows(gold_rows)
    if _has_top_level_order_by(gold_sql):
        return cand == gold
    from collections import Counter

    return Counter(cand) == Counter(gold)


def normalize_expression(sql: str) -> str:
    """Lower-cased token stream with qualifier prefixes and outer parens removed."""
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return ""
    parts: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if (
            tok.kind is Kind.IDENT
            and i + 2 < len(tokens)
            and tokens[i + 1].value == "."
            and tokens[i + 2].kind is Kind.IDENT
        ):
            parts.append(tokens[i + 2].value.lower())  # drop the qualifier
            i += 3
            continue
        if tok.kind is Kind.STRING:
            parts.append(f"'{tok.value}'")
        else:
            parts.append(tok.value.lower())
        i += 1
    text = " ".join(parts)
    while text.startswith("( ") and text.endswith(" )"):
        inner = text[2:-2]
        if _balanced(inner):
            text = inner
        else:
            break
    return text


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _term_occurs_in_question(term_text: str, question: str) -> bool:
    from .textproc import _boundary_pattern

    return _boundary_pattern(term_text).search(question) is not None


def _knowledge_consistent(
    candidate: str,
    gold: str,
    link: LinkResult,
    schema: DatabaseSchema,
) -> tuple[bool, str]:
    try:
        cand_refs = extract_references(candidate, schema)
    except (SqlParseError, UnsupportedSqlError, UnresolvedIdentifierError) as exc:
        return False, f"candidate references not resolvable: {exc}"
    try:
        gold_refs = extract_references(gold, schema)
        gold_columns = set(gold_refs.columns)
    except (SqlParseError, UnsupportedSqlError, UnresolvedIdentifierError):
        gold_columns = set()
    allowed = set(link.linked_column_ids()) | gold_columns
    extra = set(cand_refs.columns) - allowed
    if extra:
        return False, f"columns outside linked knowledge: {sorted(extra)}"
    normalized_candidate = normalize_expression(candidate)
    for term, _score in link.terms:
        if not _term_occurs_in_question(term.term_text, link.question):
            continue
        needle = normalize_expression(term.sql_expression)
        if needle and needle not in normalized_candidate:
            return False, f"required term expression missing: {term.term_text!r}"
    return True, ""


def score(
    candidate: str,
    gold: str,
    db: sqlite3.Connection,
    link: LinkResult,
    kb: KnowledgeBase | None = None,
    schema: DatabaseSchema | None = None,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> RewardOutcome:
    """Score one candidate against the gold query on a live database."""
    gold_exec = execute_sql(gold, db, timeout_ms)
    if not gold_exec.ok:
        raise ValueError(f"gold query failed to execute: {gold_exec.message}")
    cand_exec = execute_sql(candidate, db, timeout_ms)
    if not cand_exec.ok:
        return RewardOutcome(
            value=TIER_VALUES[Tier.INVALID],
            tier=Tier.INVALID,
            diagnostics=f"{cand_exec.error.value}: {cand_exec.message}",
        )
    if results_match(cand_exec.rows, gold_exec.rows, gold):
        return RewardOutcome(value=TIER_VALUES[Tier.EXEC_MATCH], tier=Tier.EXEC_MATCH)
    if schema is None:
        db_id = kb.db_id if kb is not None else "db"
        schema = schema_from_sqlite(db, db_id, sample_values=False)
    consistent, why = _knowledge_consistent(candidate, gold, link, schema)
    if consistent:
        return RewardOutcome(
            value=TIER_VALUES[Tier.KNOWLEDGE_CONSISTENT],
            tier=Tier.KNOWLEDGE_CONSISTENT,
            diagnostics="wrong result but knowledge-consistent",
        )
    return RewardOutcome(
        value=TIER_VALUES[Tier.EXECUTABLE],
        tier=Tier.EXECUTABLE,
        diagnostics=why or "executable but inconsistent with linked knowledge",
    )


def score_many(
    candidates: list[str],
    gold: str,
    db: sqlite3.Connection,
    link: LinkResult,
    kb: KnowledgeBase | None = None,
    schema: DatabaseSchema | None = None,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> list[RewardOutcome]:
    """Score a batch of candidates (e.g. a self-consistency sample set)."""
    return [
        score(c, gold, db, link, kb=kb, schema=schema, timeout_ms=timeout_ms)
        for c in candidates
    ]
