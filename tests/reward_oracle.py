"""The per-candidate reward that scoring against one prepared gold replaced,
kept as a test oracle: every candidate runs the gold query again, both result
sets are canonicalized in full and compared as lists or ``Counter``s, and the
gold's references and the term needles are worked out again for every
candidate that reaches the consistency check.

Execution goes through ``reward.execute_sql``, so the oracle runs read-only
too; everything that decides a tier or its diagnostics is the old code, the
references read by the resolver of ``parse_oracle``, but for the term check,
which matches a term's expression on whole tokens as the program does."""

from __future__ import annotations

import sqlite3
from collections import Counter

from parse_oracle import extract_references
from sqlknow.errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from sqlknow.linker import LinkResult
from sqlknow.reward import (
    DEFAULT_TIMEOUT_MS,
    RewardOutcome,
    Tier,
    execute_sql,
)
from sqlknow.schema import DatabaseSchema
from sqlknow.sql_refs import ParsedQuery
from sqlknow.sql_tokens import tokenize
from sqlknow.textproc import occurs


def _canonical_value(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if v.is_integer():
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
    cand = _canonical_rows(candidate_rows)
    gold = _canonical_rows(gold_rows)
    if _has_top_level_order_by(gold_sql):
        return cand == gold
    return Counter(cand) == Counter(gold)


def _knowledge_consistent(
    candidate: str, gold: str, link: LinkResult, schema: DatabaseSchema
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
    # a needle matches whole tokens: ``age > 1`` is not in ``age > 18``
    candidate_tokens = ParsedQuery(candidate).normalized_tokens
    for term, _score in link.terms:
        if not occurs(link.question, term.term_text):
            continue
        needle = ParsedQuery(term.sql_expression).normalized_tokens
        windows = (candidate_tokens[i:i + len(needle)] for i in range(len(candidate_tokens)))
        if needle and needle not in windows:
            return False, f"required term expression missing: {term.term_text!r}"
    return True, ""


def score(
    candidate: str,
    gold: str,
    db: sqlite3.Connection,
    link: LinkResult,
    schema: DatabaseSchema,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> RewardOutcome:
    gold_exec = execute_sql(gold, db, timeout_ms)
    if not gold_exec.ok:
        raise ValueError(f"gold query failed to execute: {gold_exec.message}")
    cand_exec = execute_sql(candidate, db, timeout_ms)
    if not cand_exec.ok:
        return RewardOutcome(
            tier=Tier.INVALID,
            diagnostics=f"{cand_exec.error.value}: {cand_exec.message}",
        )
    if results_match(cand_exec.rows, gold_exec.rows, gold):
        return RewardOutcome(tier=Tier.EXEC_MATCH)
    consistent, why = _knowledge_consistent(candidate, gold, link, schema)
    if consistent:
        return RewardOutcome(
            tier=Tier.KNOWLEDGE_CONSISTENT,
            diagnostics="wrong result but knowledge-consistent",
        )
    return RewardOutcome(
        tier=Tier.EXECUTABLE,
        diagnostics=why or "executable but inconsistent with linked knowledge",
    )


def score_many(
    candidates: list[str],
    gold: str,
    db: sqlite3.Connection,
    link: LinkResult,
    schema: DatabaseSchema,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> list[RewardOutcome]:
    return [
        score(c, gold, db, link, schema=schema, timeout_ms=timeout_ms)
        for c in candidates
    ]
