"""Knowledge-aware, execution-driven reward for candidate SQL.

Tier resolution, in order: execution result matches gold (1.0); executable and
consistent with linked knowledge (0.5); executable at all (0.1); otherwise 0.
"Consistent with linked knowledge" means the candidate reads only columns that
were linked for the question (or that the gold query reads), and, for every
linked domain term whose text occurs in the question, the term's SQL
expression appears inside the candidate as a run of whole tokens (compared on
normalized, unqualified token streams).

Statements run read-only on an embedded SQLite handle: an authorizer
(``sql_refs.ReadLog``) admits only reads, so a write, DDL, ``ATTACH`` or
``PRAGMA`` candidate is Invalid and changes nothing. The same authorizer
records which columns the candidate and the gold read as SQLite prepares them,
and ``sql_refs.reference_set`` names them in the schema, so no statement that
ran is parsed to find them. The wall-clock deadline is the one
machine-dependent input: a query near it may be Invalid on a loaded machine
and match on an idle one.

``score_many`` runs the gold once per batch, in full, and scores each distinct
candidate text once. A longer result cannot match, so a candidate is read to
``gold row count + 1`` rows: one that fails only after them is not Invalid
(sqlite3 computes one row ahead, so a failure in the next row still is). The
gold respelled, only its whitespace changed (``sql_tokens.spelling``), is
the statement that just ran: it is an ExecMatch and is not run. A batch reads
the file through a memory map, then restores the connection's ``main.mmap_size``.
As SQLite warns, a file that another process truncates meanwhile can raise
SIGBUS, and the mapped pages a batch touches count in RSS while it runs.
"""

from __future__ import annotations

import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .knowledge import KnowledgeBase
from .linker import LinkResult
from .schema import _NO_AUTHORIZER, DatabaseSchema
from .sql_refs import ParsedQuery, ReadLog, reference_set
from .sql_tokens import spelling
from .textproc import occurs

DEFAULT_TIMEOUT_MS = 5000
_PROGRESS_GRANULARITY = 1000  # VM instructions between timeout checks
_MMAP_SIZE = 1 << 40  # covers any file; SQLite clamps it to its compile-time maximum


class ExecErrorKind(Enum):
    SYNTAX = "syntax"
    MISSING_OBJECT = "missing_object"
    RUNTIME = "runtime"
    TIMEOUT = "timeout"
    DENIED = "denied"


@dataclass(frozen=True)
class ExecutionResult:
    rows: list | None
    error: ExecErrorKind | None = None
    message: str = ""
    reads: tuple[tuple[str, str], ...] = ()  # a ReadLog's reads, as SQLite names them

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
    tier: Tier
    diagnostics: str = ""

    @property
    def value(self) -> float:
        return TIER_VALUES[self.tier]


def execute_sql(
    sql: str,
    db: sqlite3.Connection,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    max_rows: int | None = None,
) -> ExecutionResult:
    """Run one read-only query and classify any failure (syntax, missing
    object, runtime, timeout, or a statement that is not a read). With
    ``max_rows``, only the first ``max_rows`` rows are fetched and the query
    stops there; by default every row is. A result carries the statement's reads."""
    deadline = time.monotonic() + timeout_ms / 1000.0
    log = ReadLog()

    def watchdog():
        return 1 if time.monotonic() > deadline else 0

    db.set_progress_handler(watchdog, _PROGRESS_GRANULARITY)
    db.set_authorizer(log)
    cursor = db.cursor()
    try:
        cursor.execute(sql)
        if max_rows is None:
            rows = cursor.fetchall()
        else:  # fetchmany(0) would fetch every row
            rows = cursor.fetchmany(max_rows) if max_rows > 0 else []
        return ExecutionResult(rows=[tuple(r) for r in rows], reads=tuple(log.reads))
    # Python's sqlite3 refuses a lone surrogate (and, before 3.11, a NUL) with a ValueError
    except (sqlite3.Error, ValueError) as exc:
        message = str(exc)
        lowered = message.lower()
        if log.denied:
            kind = ExecErrorKind.DENIED
        elif not isinstance(exc, sqlite3.OperationalError):
            kind = ExecErrorKind.RUNTIME
        elif "interrupted" in lowered:
            kind = ExecErrorKind.TIMEOUT
        elif "syntax error" in lowered or "unrecognized token" in lowered:
            kind = ExecErrorKind.SYNTAX
        elif "no such" in lowered or "no tables specified" in lowered:
            kind = ExecErrorKind.MISSING_OBJECT
        else:
            kind = ExecErrorKind.RUNTIME
        return ExecutionResult(rows=None, error=kind, message=message)
    finally:
        cursor.close()  # resets a statement stopped before its last row
        db.set_authorizer(_NO_AUTHORIZER)
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


def _canonical_row(row) -> tuple:
    return tuple(_canonical_value(v) for v in row)


class PreparedGold:
    """A gold query's result, canonicalized once for comparing candidates.

    The gold's reads are kept as it ran. The consistency check's readings of
    the gold and its question (the columns the gold read, the required term
    needles) are worked out on first use and kept for the next candidate. A
    PreparedGold belongs to the batch it was prepared for: one database, link
    and schema."""

    def __init__(self, sql: str, rows: list, reads: tuple[tuple[str, str], ...] = ()):
        self._query = ParsedQuery(sql)
        self._bare = "".join(sql.split())
        self.ordered = self._query.ordered
        self.row_count = len(rows)
        canonical = [_canonical_row(row) for row in rows]
        self._canonical = canonical if self.ordered else Counter(canonical)
        self._reads = reads
        self._columns: tuple[DatabaseSchema, frozenset[str]] | None = None
        self._needles: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def matches(self, rows: list) -> bool:
        """Equal rows in order when the gold has a top-level ORDER BY, equal
        multisets otherwise, after numeric canonicalization. Both imply equal
        row counts, checked first so that a large wrong result is never
        canonicalized; with equal counts, the walk can stop at the first
        candidate row that is out of place or left over."""
        if len(rows) != self.row_count:
            return False
        if self.ordered:
            return all(_canonical_row(r) == g for r, g in zip(rows, self._canonical))
        remaining = self._canonical.copy()
        for row in rows:
            key = _canonical_row(row)
            left = remaining.get(key, 0)
            if not left:
                return False
            remaining[key] = left - 1
        return True

    def columns(self, schema: DatabaseSchema) -> frozenset[str]:
        """Column ids the gold read as it ran, named in ``schema``."""
        if self._columns is None or self._columns[0] is not schema:
            self._columns = (schema, reference_set(self._query.sql, schema, self._reads).columns)
        return self._columns[1]

    def needles(self, link: LinkResult) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(term text, normalized tokens of its SQL expression) of each linked term
        whose text occurs in the question, in link order, empty expressions left out."""
        if self._needles is None:
            required = []
            for term, _score in link.terms:
                if occurs(link.question, term.term_text):
                    needle = ParsedQuery(term.sql_expression).normalized_tokens
                    if needle:
                        required.append((term.term_text, needle))
            self._needles = tuple(required)
        return self._needles


def prepare_gold(
    gold: str, db: sqlite3.Connection, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> PreparedGold:
    """Run the gold query once; ValueError when it fails."""
    gold_exec = execute_sql(gold, db, timeout_ms)
    if not gold_exec.ok:
        raise ValueError(f"gold query failed to execute: {gold_exec.message}")
    return PreparedGold(gold, gold_exec.rows, gold_exec.reads)


def _knowledge_consistent(
    candidate: str,
    reads: tuple[tuple[str, str], ...],
    gold: PreparedGold,
    link: LinkResult,
    schema: DatabaseSchema,
) -> tuple[bool, str]:
    read = reference_set(candidate, schema, reads).columns
    extra = read - link.linked_column_ids() - gold.columns(schema)
    if extra:
        return False, f"columns outside linked knowledge: {sorted(extra)}"
    needles = gold.needles(link)
    if needles:
        tokens = ParsedQuery(candidate).normalized_tokens
        for term_text, needle in needles:
            if not _holds_run(tokens, needle):
                return False, f"required term expression missing: {term_text!r}"
    return True, ""


def _holds_run(tokens: tuple[str, ...], run: tuple[str, ...]) -> bool:
    """Whether ``run`` occurs in ``tokens`` as a contiguous run of whole tokens,
    so that ``age > 1`` is not found in ``age > 18``."""
    return any(tokens[i:i + len(run)] == run for i, t in enumerate(tokens) if t == run[0])


def score(
    candidate: str,
    gold: str | PreparedGold,
    db: sqlite3.Connection,
    link: LinkResult,
    kb: KnowledgeBase | None = None,
    *,
    schema: DatabaseSchema,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> RewardOutcome:
    """Score one candidate against the gold query on a live database, whose
    tables ``schema`` describes. ``gold`` is the gold SQL, run here, or a
    ``prepare_gold`` result shared by a batch. The candidate is read up to one
    row past the gold's row count, and is not run at all when it is spelled like
    the gold. ``kb`` is not read: the linked terms come with ``link``."""
    if isinstance(gold, str):
        gold = prepare_gold(gold, db, timeout_ms)
    # Only a candidate equal to the gold once whitespace is removed is lexed.
    if ("".join(candidate.split()) == gold._bare
            and spelling(candidate) == spelling(gold._query.sql)):
        return RewardOutcome(tier=Tier.EXEC_MATCH)
    cand_exec = execute_sql(candidate, db, timeout_ms, max_rows=gold.row_count + 1)
    if not cand_exec.ok:
        return RewardOutcome(
            tier=Tier.INVALID,
            diagnostics=f"{cand_exec.error.value}: {cand_exec.message}",
        )
    if gold.matches(cand_exec.rows):
        return RewardOutcome(tier=Tier.EXEC_MATCH)
    consistent, why = _knowledge_consistent(candidate, cand_exec.reads, gold, link, schema)
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
    kb: KnowledgeBase | None = None,
    *,
    schema: DatabaseSchema,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> list[RewardOutcome]:
    """Score a batch of candidates (e.g. a self-consistency sample set)
    against one run of the gold query, which raises ValueError before any
    candidate runs when it fails. Each distinct candidate text is scored once;
    its repeats share the outcome, returned in input order. As in
    :func:`score`, ``kb`` is not read."""
    if not candidates:
        return []
    row = db.execute("PRAGMA main.mmap_size").fetchone()  # no row for an in-memory database
    restore = row[0] if row is not None and row[0] < _MMAP_SIZE else None
    if restore is not None:
        db.execute(f"PRAGMA main.mmap_size = {_MMAP_SIZE}").fetchall()
    try:
        prepared = prepare_gold(gold, db, timeout_ms)
        outcomes: dict[str, RewardOutcome] = {}
        for c in candidates:
            if c not in outcomes:
                outcomes[c] = score(c, prepared, db, link, schema=schema, timeout_ms=timeout_ms)
        return [outcomes[c] for c in candidates]
    finally:
        if restore is not None:
            db.execute(f"PRAGMA main.mmap_size = {restore}").fetchall()
