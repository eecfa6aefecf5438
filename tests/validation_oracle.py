"""The event replay that the one-pass fold in ``validation.apply_events``
replaced, kept as a test oracle: for every event it re-indexes every item by
key (digesting each one again), advances the last item with the event's key
(from a fresh status when a score meets an annotation that holds both reviewer
scores), gives every item sharing that key the new status, and drops rejected
terms.

Also kept: the two passes that the fold absorbed. ``latest_reviews`` dropped,
before a replay, every event of an annotation that a later score pair
superseded; ``still_legal`` picked a session's events that applied in order
onto a KB's statuses.
"""

from __future__ import annotations

from dataclasses import replace

from sqlknow.errors import IllegalTransition
from sqlknow.knowledge import (
    REQUIRED_LLM_REVIEWS,
    KnowledgeBase,
    LlmScore,
    SchemaAnnotation,
    State,
    ValidationStatus,
    advance_validation,
)
from sqlknow.validation import event_to_obj


def _items_by_key(kb: KnowledgeBase) -> dict[str, object]:
    index: dict[str, object] = {}
    for item in list(kb.annotations) + list(kb.value_mappings) + list(kb.terms):
        index[item.item_key] = item
    return index


def _replace_item(kb: KnowledgeBase, key: str, new_status: ValidationStatus) -> KnowledgeBase:
    def swap(seq):
        out = []
        for item in seq:
            if item.item_key == key:
                item = replace(item, status=new_status)
            out.append(item)
        return tuple(out)

    kb = replace(
        kb,
        annotations=swap(kb.annotations),
        value_mappings=swap(kb.value_mappings),
        terms=swap(kb.terms),
    )
    # the terms table never holds rejected entries
    return replace(
        kb, terms=tuple(t for t in kb.terms if t.status.state is not State.REJECTED)
    )


def apply_events(kb: KnowledgeBase, events: list[dict]) -> KnowledgeBase:
    """Replay logged events onto the KB, in order."""
    for event in events:
        index = _items_by_key(kb)
        item = index.get(event["item"])
        if item is None:
            continue  # e.g. a term rejected and dropped earlier in the log
        record, status = event_to_obj(event), item.status
        if isinstance(item, SchemaAnnotation) and isinstance(record, LlmScore) \
                and len(status.llm_scores) == REQUIRED_LLM_REVIEWS:
            status = ValidationStatus()
        kb = _replace_item(kb, event["item"], advance_validation(status, record))
    return kb


def latest_reviews(numbered: list[tuple[int, object]]) -> list[tuple[int, object]]:
    """``numbered`` without the events that a later review of their annotation
    superseded: a score for an annotation whose two scores are logged starts
    its review over."""
    items = [event.get("item") if isinstance(event, dict) else None for _, event in numbered]
    scores: dict[str, int] = {}
    start: dict[str, int] = {}
    for index, ((_, event), key) in enumerate(zip(numbered, items)):
        if isinstance(key, str) and key.startswith("ann:") and event.get("event") == "score":
            if scores.get(key) == REQUIRED_LLM_REVIEWS:
                start[key], scores[key] = index, 0
            scores[key] = scores.get(key, 0) + 1
    return [row for index, (row, key) in enumerate(zip(numbered, items))
            if not isinstance(key, str) or index >= start.get(key, 0)]


def still_legal(kb: KnowledgeBase, events: list[dict]) -> list[dict]:
    """The events that apply in order onto ``kb``'s statuses, in one pass."""
    statuses = {item.item_key: item.status for item in kb.items}
    legal = []
    for event in events:
        key = event["item"]
        if key not in statuses:
            continue  # a term that another session's events rejected and dropped
        try:
            statuses[key] = advance_validation(statuses[key], event_to_obj(event))
        except IllegalTransition:
            continue
        legal.append(event)
    return legal
