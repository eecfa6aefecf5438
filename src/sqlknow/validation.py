"""Validation pipeline runner: dual-reviewer scoring and the human review queue.

Items (annotations, value mappings, domain terms) move through the state
machine in :mod:`sqlknow.knowledge`. The append-only event log is the only
record of that state; the statuses stored in a KB are a view of it, and
:func:`apply_events` is the log's one fold, so replaying a log equals folding
any tail of it onto the replay of the rest. :func:`replay` folds the whole log
onto Pending items, and :func:`commit` ends a review session: under an
exclusive POSIX ``flock`` on the log it replays the log as it stands, folds
the session's events onto it keeping those still legal, appends them and
stores the KB. So two annotators (or two sessions that both score) can work
on one log at once and no vote is lost.
"""

from __future__ import annotations

import fcntl
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import IllegalTransition, InvariantViolation, SqlKnowError
from .gateway import Gateway
from .knowledge import (
    REQUIRED_LLM_REVIEWS,
    Adjudication,
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    SchemaAnnotation,
    State,
    ValidationStatus,
    ValueMapping,
    advance_validation,
    store_kb,
)
from .records import from_json, numbered_jsonl, to_json
from .schema import DatabaseSchema


# a logged event is {"item": item key, "event": kind, **the record it carries}
_EVENT_RECORDS = {"score": LlmScore, "vote": HumanVote, "adjudicate": HumanVote}


@dataclass(frozen=True)
class _EventHead:
    item: str
    event: str


def _event(item_key: str, kind: str, record) -> dict:
    return {"item": item_key, "event": kind, **to_json(record)}


def event_to_obj(event: dict, head: _EventHead | None = None):
    """The record that ``event`` carries; ``head`` is its decoded item and kind,
    when the caller has it already."""
    kind = (head or from_json(_EventHead, event)).event
    if kind not in _EVENT_RECORDS:
        raise InvariantViolation(f"unknown event kind {kind!r}")
    record = from_json(_EVENT_RECORDS[kind], event)
    return Adjudication(record) if kind == "adjudicate" else record


def apply_events(kb: KnowledgeBase, events: list[dict],
                 appended: list[dict] | None = None) -> KnowledgeBase:
    """Fold ``events`` onto the KB, in order, in one pass over the items.

    An event advances the last stored item with its key, and every item sharing
    that key takes the new status. Once any event has applied, rejected terms
    leave the terms table; an event whose key has no item left (e.g. a term
    rejected and dropped earlier in the log) is skipped. Logged events
    (``appended`` is None) raise on the first that is malformed or illegal,
    with its index in ``events`` as ``event_index``, and a score for an
    annotation that holds both reviewer scores starts its review over (older
    enrich-schema runs put a Pending copy of a reviewed annotation under its
    key). A session's events (``appended`` is a list) never restart a review:
    an illegal one is skipped, a malformed one raises, and each that applies
    is appended to ``appended``.
    """
    items = kb.items
    n_annotations, first_term = len(kb.annotations), len(items) - len(kb.terms)
    statuses = [item.status for item in items]
    kept = [True] * len(items)
    by_key: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        by_key.setdefault(item.item_key, []).append(i)
    applied = False
    try:
        for number, event in enumerate(events):
            head = from_json(_EventHead, event)
            live = [i for i in by_key.get(head.item, ()) if kept[i]]
            if not live:
                continue
            status = statuses[live[-1]]
            if (appended is None and head.event == "score" and live[-1] < n_annotations
                    and len(status.llm_scores) == REQUIRED_LLM_REVIEWS):
                status = ValidationStatus()
            try:
                status = advance_validation(status, event_to_obj(event, head))
            except IllegalTransition:
                if appended is None:
                    raise
                continue  # another session's events made it illegal
            if appended is not None:
                appended.append(event)
            for i in live:
                statuses[i] = status
            # the terms table never holds rejected entries, from the first applied event on
            for i in live if applied else range(first_term, len(items)):
                if i >= first_term and statuses[i].state is State.REJECTED:
                    kept[i] = False
            applied = True
    except SqlKnowError as exc:
        exc.event_index = number
        raise
    if not applied:
        return kb
    items = [
        item if status is item.status else replace(item, status=status)
        for item, status in zip(items, statuses)
    ]
    return replace(
        kb,
        annotations=tuple(items[:n_annotations]),
        value_mappings=tuple(items[n_annotations:first_term]),
        terms=tuple(t for t, keep in zip(items[first_term:], kept[first_term:]) if keep),
    )


def scoring_payload(item) -> tuple[str, str]:
    """(natural-language side, SQL side) pair scored by the reviewers."""
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
    for item in kb.items:
        if item.status.state is not State.PENDING:
            continue
        question, sql = scoring_payload(item)
        for model in models:
            events.append(_event(item.item_key, "score", gateway.score_pair(question, sql, model)))
    return apply_events(kb, events), events


def human_queue(kb: KnowledgeBase) -> list:
    """Items awaiting human votes or adjudication, in stable key order."""
    queued = [item for item in kb.items if item.status.state is State.HUMAN_QUEUED]
    return sorted(queued, key=lambda it: it.item_key)


def needs_adjudication(item) -> bool:
    votes = item.status.human_votes
    return len(votes) == 2 and votes[0].accept != votes[1].accept


def vote_event(item_key: str, annotator_id: str, accept: bool) -> dict:
    return _event(item_key, "vote", HumanVote(annotator_id, accept))


def adjudicate_event(item_key: str, annotator_id: str, accept: bool) -> dict:
    return _event(item_key, "adjudicate", HumanVote(annotator_id, accept))


# -- file-backed event log -----------------------------------------------------------


@contextmanager
def _locked(path: str | Path, operation: int, create: bool = False):
    """The log at ``path``, open in binary to read (and to append, when ``create``;
    a missing log is then created) while this process holds ``flock(operation)``
    on it; None if the log does not exist and ``create`` is false. An OSError
    on opening it raises InvariantViolation naming the log."""
    if not create and not Path(path).exists():
        yield None
        return
    try:
        log = open(path, "a+b" if create else "rb")
    except OSError as exc:
        raise InvariantViolation(f"event log {path}: {exc.strerror or exc}") from None
    with log:
        fcntl.flock(log, operation)
        yield log


def _write(log, events: list[dict]) -> None:
    for event in events:
        log.write((json.dumps(event, sort_keys=True, ensure_ascii=False) + "\n").encode())


def append_events(path: str | Path, events: list[dict]) -> None:
    if not events:
        return
    with _locked(path, fcntl.LOCK_EX, create=True) as log:
        _write(log, events)


def _replay(kb: KnowledgeBase, log, path) -> KnowledgeBase:
    numbered = []
    if log is not None:
        log.seek(0)
        numbered = numbered_jsonl(log.read(), path)
    fresh = ValidationStatus()

    def reset(items):
        return tuple(replace(item, status=fresh) for item in items)

    pending = replace(kb, annotations=reset(kb.annotations),
                      value_mappings=reset(kb.value_mappings), terms=reset(kb.terms))
    try:
        return apply_events(pending, [event for _, event in numbered])
    except SqlKnowError as exc:
        raise type(exc)(f"{path} line {numbered[exc.event_index][0]}: {exc}") from None


def replay(kb: KnowledgeBase, log_path: str | Path) -> KnowledgeBase:
    """``kb``'s items with every status rebuilt from the whole log: set back to
    Pending, then folded with :func:`apply_events`. An event that is malformed
    or not legal in its item's state raises an error naming the log and the
    event's line. A missing log reads as empty only while every item is
    Pending: otherwise the statuses came from another log, and replaying an
    empty one would erase them."""
    with _locked(log_path, fcntl.LOCK_SH) as log:
        if log is None:
            reviewed = sum(item.status.state is not State.PENDING for item in kb.items)
            if reviewed:
                raise InvariantViolation(
                    f"event log {log_path} does not exist, but the knowledge base has "
                    f"items past Pending ({reviewed})")
        return _replay(kb, log, log_path)


def commit(kb: KnowledgeBase, events: list[dict], log_path: str | Path, kb_path: str | Path,
           schema: DatabaseSchema | None = None) -> tuple[KnowledgeBase, list[dict]]:
    """End a review session that read ``kb`` from ``kb_path`` and made ``events``.

    Under an exclusive lock on the log: replays the log as it stands now (other
    sessions may have appended since this one read it), appends the events
    that are still legal on top of it, and stores the KB they give at
    ``kb_path`` when it differs from ``kb``, so a session that records nothing
    and finds every status as it read it leaves the file as it was. Returns
    that KB and the appended events. The log is created only to hold events.
    """
    with _locked(log_path, fcntl.LOCK_EX, create=bool(events)) as log:
        current = _replay(kb, log, log_path)
        if log is None:  # no events and no log: nothing to record or to store
            return current, []
        legal: list[dict] = []
        current = apply_events(current, events, legal)
        _write(log, legal)
        if current != kb:
            store_kb(current, kb_path, schema)
    return current, legal
