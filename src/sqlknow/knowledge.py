"""Knowledge base: the four per-database knowledge tables plus validation states.

The four logical tables are schema annotations, value mappings, domain terms,
and query-pattern references; the pattern graph itself is stored separately and
linked through ``graph_ref``. Tables are append-only: entries advance through
validation states and rejected entries are dropped at persist time rather than
edited in place. A KB answers its own lookups, each built once, on first use.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import IllegalTransition, InvariantViolation
from .records import read_json, to_json, write_json
from .schema import DatabaseSchema, name_key
from .textproc import SurfaceIndex, count_units, postings

# Both reviewers must reach this score on both dimensions to queue for humans.
LLM_GATE_MIN_SCORE = 4
REQUIRED_LLM_REVIEWS = 2
REQUIRED_HUMAN_VOTES = 2


class State(Enum):
    PENDING = "Pending"
    LLM_SCORED = "LlmScored"
    HUMAN_QUEUED = "HumanQueued"
    ACCEPTED = "Accepted"
    REJECTED = "Rejected"


class Source(Enum):
    LLM = "llm"
    HUMAN = "human"


@dataclass(frozen=True)
class LlmScore:
    model_id: str
    semantic_consistency: int  # 1-5
    sql_validity: int  # 1-5

    def passes_gate(self) -> bool:
        return (
            self.semantic_consistency >= LLM_GATE_MIN_SCORE
            and self.sql_validity >= LLM_GATE_MIN_SCORE
        )


@dataclass(frozen=True)
class HumanVote:
    annotator_id: str
    accept: bool


@dataclass(frozen=True)
class ValidationStatus:
    state: State = State.PENDING
    llm_scores: tuple[LlmScore, ...] = ()
    human_votes: tuple[HumanVote, ...] = ()
    adjudication: HumanVote | None = None


def _status_after_scores(scores: tuple[LlmScore, ...]) -> State:
    if all(s.passes_gate() for s in scores):
        return State.HUMAN_QUEUED
    return State.REJECTED


def advance_validation(status: ValidationStatus, event) -> ValidationStatus:
    """Apply one validation event and return the new status.

    Events are ``LlmScore`` or ``HumanVote`` instances; adjudications are
    ``HumanVote`` wrapped in :class:`Adjudication`. Transitions follow
    Pending -> LlmScored -> {HumanQueued | Rejected} -> {Accepted | Rejected};
    anything else raises :class:`IllegalTransition`. Accepted and Rejected are
    terminal.
    """
    state = status.state
    if state in (State.ACCEPTED, State.REJECTED):
        raise IllegalTransition(f"{state.value} is terminal")

    if isinstance(event, LlmScore):
        if state not in (State.PENDING, State.LLM_SCORED):
            raise IllegalTransition(f"score event not legal in state {state.value}")
        scores = status.llm_scores + (event,)
        if len(scores) > REQUIRED_LLM_REVIEWS:
            raise IllegalTransition("both reviewer scores already recorded")
        if len(scores) < REQUIRED_LLM_REVIEWS:
            return replace(status, state=State.LLM_SCORED, llm_scores=scores)
        return replace(status, state=_status_after_scores(scores), llm_scores=scores)

    if isinstance(event, Adjudication):
        if state is not State.HUMAN_QUEUED:
            raise IllegalTransition("adjudication only applies to queued items")
        votes = {v.accept for v in status.human_votes}
        if len(status.human_votes) < REQUIRED_HUMAN_VOTES or len(votes) != 2:
            raise IllegalTransition("adjudication requires two disagreeing votes")
        new_state = State.ACCEPTED if event.vote.accept else State.REJECTED
        return replace(status, state=new_state, adjudication=event.vote)

    if isinstance(event, HumanVote):
        if state is not State.HUMAN_QUEUED:
            raise IllegalTransition(f"vote event not legal in state {state.value}")
        if any(v.annotator_id == event.annotator_id for v in status.human_votes):
            raise IllegalTransition(f"annotator {event.annotator_id} already voted")
        votes = status.human_votes + (event,)
        if len(votes) > REQUIRED_HUMAN_VOTES:
            raise IllegalTransition("both annotator votes already recorded")
        if len(votes) < REQUIRED_HUMAN_VOTES:
            return replace(status, human_votes=votes)
        decisions = {v.accept for v in votes}
        if len(decisions) == 1:
            new_state = State.ACCEPTED if votes[0].accept else State.REJECTED
            return replace(status, state=new_state, human_votes=votes)
        # Disagreement: stay queued awaiting a third-expert adjudication.
        return replace(status, human_votes=votes)

    raise IllegalTransition(f"unknown event type {type(event).__name__}")


@dataclass(frozen=True)
class Adjudication:
    """Tie-break decision by a third expert after two disagreeing votes."""

    vote: HumanVote


# -- the four tables ---------------------------------------------------------


@dataclass(frozen=True)
class SchemaAnnotation:
    target: str  # table name or "table.column"
    description: str
    abbreviation_expansion: str | None = None
    source: Source = Source.LLM
    status: ValidationStatus = field(default_factory=ValidationStatus)

    @property
    def item_key(self) -> str:
        return "ann:" + _digest(self.target)


@dataclass(frozen=True)
class ValueMapping:
    column: str  # "table.column"
    code: str
    meaning: str
    status: ValidationStatus = field(default_factory=ValidationStatus)

    @property
    def item_key(self) -> str:
        return "map:" + _digest(f"{self.column}|{self.code}")


class Operator(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    NONE = "none"


@dataclass(frozen=True)
class DomainTerm:
    term_text: str
    sql_expression: str
    columns_used: tuple[str, ...]  # "table.column" ids
    operator: Operator = Operator.NONE
    confidence: float = 0.0
    explanation: str = ""
    status: ValidationStatus = field(default_factory=ValidationStatus)

    @property
    def item_key(self) -> str:
        return "term:" + _digest(f"{self.term_text}|{self.sql_expression}")


@dataclass(frozen=True)
class QueryPatternRef:
    """Row of the fourth table: a pointer from this database into the shared graph."""

    graph_ref: str
    skeleton_cluster: int
    note: str = ""


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=6).hexdigest()


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable container for one database's knowledge tables.

    Mutation is copy-and-replace (``dataclasses.replace``); loaded values can be
    shared read-only across pipeline stages.
    """

    db_id: str
    annotations: tuple[SchemaAnnotation, ...] = ()
    value_mappings: tuple[ValueMapping, ...] = ()
    terms: tuple[DomainTerm, ...] = ()
    pattern_refs: tuple[QueryPatternRef, ...] = ()
    graph_ref: str = ""

    @property
    def items(self) -> list:
        """Every item under validation: annotations, value mappings, then terms."""
        return list(self.annotations) + list(self.value_mappings) + list(self.terms)

    def annotation_for(self, target: str) -> SchemaAnnotation | None:
        """The first annotation in stored order whose target names ``target``
        (:func:`~sqlknow.schema.name_key`)."""
        return self.annotation_by_key.get(name_key(target))

    def merge_annotations(self, new: list[SchemaAnnotation]) -> "KnowledgeBase":
        """Add annotations, never letting an llm-sourced one displace a human one,
        nor any displace one that review has reached: the event log keys an
        annotation by its target, so a new text would take the old one's status."""
        by_target = {name_key(a.target): a for a in self.annotations}
        for ann in new:
            existing = by_target.get(name_key(ann.target))
            if existing is not None and (
                existing.status.state is not State.PENDING
                or existing.source is Source.HUMAN and ann.source is Source.LLM
            ):
                continue
            by_target[name_key(ann.target)] = ann
        merged = tuple(sorted(by_target.values(), key=lambda a: name_key(a.target)))
        return replace(self, annotations=merged)

    def validate(self, schema: DatabaseSchema | None = None) -> None:
        seen_mappings: set[tuple[str, str]] = set()
        for m in self.value_mappings:
            key = (name_key(m.column), m.code)
            if key in seen_mappings:
                raise InvariantViolation(f"duplicate value mapping for {m.column}={m.code}")
            seen_mappings.add(key)
        for t in self.terms:
            if not 0.0 <= t.confidence <= 1.0:
                raise InvariantViolation(f"term {t.term_text!r} confidence out of [0,1]")
            if t.status.state is State.REJECTED:
                raise InvariantViolation(f"rejected term {t.term_text!r} present in terms table")
            if not t.columns_used:
                raise InvariantViolation(f"term {t.term_text!r} references no columns")
        if schema is None:
            return
        if schema.db_id != self.db_id:
            raise InvariantViolation(
                f"knowledge base {self.db_id!r} validated against schema {schema.db_id!r}"
            )
        for ann in self.annotations:
            # no table name holds a '.', so a target names a table or a column, not both
            if not schema.has_table(ann.target) and schema.resolve_column_id(ann.target) is None:
                raise InvariantViolation(f"annotation target {ann.target} not in schema")
        for m in self.value_mappings:
            if schema.resolve_column_id(m.column) is None:
                raise InvariantViolation(f"value mapping column {m.column} not in schema")
        for t in self.terms:
            for col in t.columns_used:
                if schema.resolve_column_id(col) is None:
                    raise InvariantViolation(
                        f"term {t.term_text!r} references unknown column {col}"
                    )

    @cached_property
    def annotation_by_key(self) -> dict:
        """Key of a target -> the first annotation for it in stored order."""
        by_target: dict = {}
        for ann in self.annotations:
            by_target.setdefault(name_key(ann.target), ann)
        return by_target

    @cached_property
    def mappings(self) -> dict[str, tuple]:
        """Key of a column id -> its value mappings in stored order."""
        by_column: dict[str, list] = {}
        for m in self.value_mappings:
            by_column.setdefault(name_key(m.column), []).append(m)
        return {k: tuple(v) for k, v in by_column.items()}

    @cached_property
    def column_comments(self) -> dict[str, tuple[str, int]]:
        """Key of a column id -> its `` -- comment`` in a prompt (annotation,
        then value codes) and the comment's units; absent when it has neither."""
        comments = {}
        for key in self.annotation_by_key.keys() | self.mappings.keys():
            ann, mappings = self.annotation_by_key.get(key), self.mappings.get(key)
            parts = [ann.description] if ann is not None else []
            if mappings:
                parts.append("codes: " + ", ".join(f'{m.code} = "{m.meaning}"' for m in mappings))
            if comment := "; ".join(parts):
                comments[key] = (f" -- {comment}", count_units(f" -- {comment}"))
        return comments

    @cached_property
    def table_comments(self) -> dict[str, tuple[str, int]]:
        """Key of a target -> the `` -- annotation`` that closes its table's block in
        a prompt, and the comment's units."""
        return {key: (f" -- {ann.description}", count_units(f" -- {ann.description}"))
                for key, ann in self.annotation_by_key.items()}

    @cached_property
    def accepted_terms(self) -> tuple:
        return tuple(t for t in self.terms if t.status.state is State.ACCEPTED)

    @cached_property
    def active_terms(self) -> tuple:
        """Terms usable by retrieval: everything not rejected."""
        return tuple(t for t in self.terms if t.status.state is not State.REJECTED)

    @cached_property
    def mask_surfaces(self) -> SurfaceIndex:
        """The abbreviation expansion of every annotation (kind ``"COL"`` or ``"TAB"`` by
        target) and each accepted term's text (``"TERM"``), as ``(surface, (kind, None))``."""
        ours = [(a.abbreviation_expansion, ("COL" if "." in a.target else "TAB", None))
                for a in self.annotations if a.abbreviation_expansion]
        return SurfaceIndex(ours + [(t.term_text, ("TERM", None)) for t in self.accepted_terms])

    def surface_index(self, schema: DatabaseSchema) -> SurfaceIndex:
        """``schema.surface_index | self.mask_surfaces``, kept for the last schema
        (in ``__dict__``, where a cached_property keeps its value)."""
        last = self.__dict__.get("_joined")
        if last is None or last[0] is not schema:
            last = self.__dict__["_joined"] = schema, schema.surface_index | self.mask_surfaces
        return last[1]

    @cached_property
    def annotation_postings(self) -> dict[str, list]:
        """Keys of targets by the words of their annotation's description and
        expansion; the target of a rejected annotation has none."""
        return postings(
            (key, re.findall(r"\w+", f"{ann.description} {ann.abbreviation_expansion or ''}"))
            for key, ann in self.annotation_by_key.items()
            if ann.status.state is not State.REJECTED)

    @cached_property
    def term_postings(self) -> tuple[dict, dict, tuple]:
        """Active terms' positions by the words of their text, and of their explanation;
        and how the terms that share no word with a question rank: ``(position, (term,
        0.0))`` per active term by (term_text, sql_expression), ties in stored order."""
        terms = tuple(enumerate(self.active_terms))
        unmatched = sorted(terms, key=lambda it: (it[1].term_text, it[1].sql_expression))
        return (postings((i, re.findall(r"\w+", t.term_text)) for i, t in terms),
                postings((i, re.findall(r"\w+", t.explanation)) for i, t in terms),
                tuple((i, (t, 0.0)) for i, t in unmatched))


# -- persistence ---------------------------------------------------------------


def store_kb(kb: KnowledgeBase, path: str | Path, schema: DatabaseSchema | None = None) -> None:
    """Write the KB as stable-key-ordered JSON, atomically; invalid KBs are rejected."""
    kb.validate(schema)
    write_json(path, to_json(kb))


def load_kb(path: str | Path) -> KnowledgeBase:
    """The KB at ``path``, checked by ``validate()`` without a schema; an error names it."""
    kb = read_json(path, KnowledgeBase)
    try:
        kb.validate()
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from None
    return kb
