"""The event replay that the one-pass fold in ``validation.apply_events``
replaced, kept as a test oracle: for every event it re-indexes every item by
key (digesting each one again), advances the last item with the event's key,
gives every item sharing that key the new status, and drops rejected terms."""

from __future__ import annotations

from dataclasses import replace

from sqlknow.knowledge import KnowledgeBase, State, ValidationStatus, advance_validation
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
        new_status = advance_validation(item.status, event_to_obj(event))
        kb = _replace_item(kb, event["item"], new_status)
    return kb
