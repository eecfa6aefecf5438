"""Validation pipeline runner: dual-reviewer scoring and the human review queue.

Items (annotations, value mappings, domain terms) move through the state
machine in :mod:`sqlknow.knowledge`. This module applies the two gateway
reviewer scores to Pending items and replays/append-logs human events so two
annotators can work asynchronously against the same file-backed queue.
Events are folded onto the items in one pass, each item keyed once, and
rejected terms are dropped from the terms table when events are applied; the
event log remains the append-only record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InvariantViolation
from .gateway import Gateway
from .knowledge import (
    Adjudication,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    State,
    advance_validation,
)
from .records import from_json, read_jsonl, to_json


# a logged event is {"item": item key, "event": kind, **the record it carries}
_EVENT_RECORDS = {"score": LlmScore, "vote": HumanVote, "adjudicate": HumanVote}


@dataclass(frozen=True)
class _EventHead:
    item: str
    event: str


def _event(item_key: str, kind: str, record) -> dict:
    return {"item": item_key, "event": kind, **to_json(record)}


def event_to_obj(event: dict):
    kind = from_json(_EventHead, event).event
    if kind not in _EVENT_RECORDS:
        raise InvariantViolation(f"unknown event kind {kind!r}")
    record = from_json(_EVENT_RECORDS[kind], event)
    return Adjudication(record) if kind == "adjudicate" else record


def apply_events(kb: KnowledgeBase, events: list[dict]) -> KnowledgeBase:
    """Replay logged events onto the KB, in order, in one pass over the items.

    An event advances the last stored item with its key, and every item sharing
    that key takes the new status. Once any event has applied, rejected terms
    leave the terms table; an event whose key has no item left (e.g. a term
    rejected and dropped earlier in the log) is skipped. An event that is not
    an object with a string ``item`` and ``event``, or whose kind or record does
    not fit once it applies, raises InvariantViolation.
    """
    items = list(kb.annotations) + list(kb.value_mappings) + list(kb.terms)
    first_term = len(items) - len(kb.terms)
    statuses = [item.status for item in items]
    kept = [True] * len(items)
    by_key: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        by_key.setdefault(item.item_key, []).append(i)
    applied = False
    for event in events:
        live = [i for i in by_key.get(from_json(_EventHead, event).item, ()) if kept[i]]
        if not live:
            continue
        new_status = advance_validation(statuses[live[-1]], event_to_obj(event))
        for i in live:
            statuses[i] = new_status
        # the terms table never holds rejected entries, from the first applied event on
        for i in live if applied else range(first_term, len(items)):
            if i >= first_term and statuses[i].state is State.REJECTED:
                kept[i] = False
        applied = True
    if not applied:
        return kb
    items = [
        item if status is item.status else replace(item, status=status)
        for item, status in zip(items, statuses)
    ]
    n_annotations = len(kb.annotations)
    return replace(
        kb,
        annotations=tuple(items[:n_annotations]),
        value_mappings=tuple(items[n_annotations:first_term]),
        terms=tuple(t for t, keep in zip(items[first_term:], kept[first_term:]) if keep),
    )


def scoring_payload(item) -> tuple[str, str]:
    """(natural-language side, SQL side) pair scored by the reviewers."""
    from .knowledge import DomainTerm, SchemaAnnotation, ValueMapping

    if isinstance(item, DomainTerm):
        return item.term_text, item.sql_expression
    if isinstance(item, ValueMapping):
        return item.meaning, f"{item.column} = '{item.code}'"
    if isinstance(item, SchemaAnnotation):
        return item.description, item.target
    raise TypeError(type(item).__name__)


def run_llm_reviews(kb: KnowledgeBase, gateway: Gateway) -> tuple[KnowledgeBase, list[dict]]:
    """Score every Pending item with both configured reviewer models.

    Returns the updated KB and the score events that were applied.
    """
    events: list[dict] = []
    models = gateway.config.models
    for item in list(kb.annotations) + list(kb.value_mappings) + list(kb.terms):
        if item.status.state is not State.PENDING:
            continue
        question, sql = scoring_payload(item)
        for model in models:
            semantic, validity = gateway.score_pair(question, sql, model)
            events.append(_event(item.item_key, "score", LlmScore(model, semantic, validity)))
    return apply_events(kb, events), events


def human_queue(kb: KnowledgeBase) -> list:
    """Items awaiting human votes or adjudication, in stable key order."""
    queued = [
        item
        for item in list(kb.annotations) + list(kb.value_mappings) + list(kb.terms)
        if item.status.state is State.HUMAN_QUEUED
    ]
    return sorted(queued, key=lambda it: it.item_key)


def needs_adjudication(item) -> bool:
    votes = item.status.human_votes
    return len(votes) == 2 and votes[0].accept != votes[1].accept


def vote_event(item_key: str, annotator_id: str, accept: bool) -> dict:
    return _event(item_key, "vote", HumanVote(annotator_id, accept))


def adjudicate_event(item_key: str, annotator_id: str, accept: bool) -> dict:
    return _event(item_key, "adjudicate", HumanVote(annotator_id, accept))


# -- file-backed event log -----------------------------------------------------------


def read_event_log(path: str | Path) -> list[dict]:
    return read_jsonl(path) if Path(path).exists() else []


def append_events(path: str | Path, events: list[dict]) -> None:
    if not events:
        return
    with open(path, "a", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True, ensure_ascii=False) + "\n")
