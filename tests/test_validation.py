"""Validation pipeline runner: LLM scoring stage and event-log replay."""

import collections
import json
import multiprocessing
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import validation_oracle as oracle
from sqlknow import knowledge, validation
from sqlknow.errors import IllegalTransition, InvariantViolation, SqlKnowError
from sqlknow.gateway import MockScript, mock_gateway
from sqlknow.knowledge import (
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    SchemaAnnotation,
    State,
    ValidationStatus,
    ValueMapping,
)
from sqlknow.records import read_jsonl
from sqlknow.validation import (
    adjudicate_event,
    append_events,
    apply_events,
    commit,
    human_queue,
    needs_adjudication,
    replay,
    run_llm_reviews,
    vote_event,
)

from fixture_db import schools_kb


def pending_kb():
    kb = schools_kb()
    pending_terms = tuple(replace(t, status=replace(t.status, state=State.PENDING,
                                                    llm_scores=(), human_votes=(),
                                                    adjudication=None))
                          for t in kb.terms)
    return replace(kb, terms=pending_terms, annotations=(), value_mappings=())


def test_llm_stage_scores_with_both_models_and_queues():
    kb = pending_kb()
    gateway = mock_gateway()  # score_pair default (5, 5)
    scored, events = run_llm_reviews(kb, gateway)
    assert len(events) == 2 * len(kb.terms)
    assert all(t.status.state is State.HUMAN_QUEUED for t in scored.terms)
    models = {e["model_id"] for e in events}
    assert models == set(gateway.config.models)


def test_failing_scores_drop_terms_from_table():
    kb = pending_kb()
    gateway = mock_gateway(MockScript(score_pass_rate=0.0))
    scored, _events = run_llm_reviews(kb, gateway)
    assert scored.terms == ()  # rejected terms never stay in the terms table


def test_vote_events_accept_items():
    kb = pending_kb()
    scored, _ = run_llm_reviews(kb, mock_gateway())
    queue = human_queue(scored)
    assert queue
    key = queue[0].item_key
    kb2 = apply_events(scored, [vote_event(key, "ann1", True), vote_event(key, "ann2", True)])
    accepted = [t for t in kb2.terms if t.item_key == key]
    assert accepted and accepted[0].status.state is State.ACCEPTED


def test_disagreement_then_adjudication():
    kb = pending_kb()
    scored, _ = run_llm_reviews(kb, mock_gateway())
    key = human_queue(scored)[0].item_key
    kb2 = apply_events(scored, [vote_event(key, "ann1", True), vote_event(key, "ann2", False)])
    item = [t for t in kb2.terms if t.item_key == key][0]
    assert needs_adjudication(item)
    kb3 = apply_events(kb2, [adjudicate_event(key, "expert", True)])
    item3 = [t for t in kb3.terms if t.item_key == key][0]
    assert item3.status.state is State.ACCEPTED


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [vote_event("term:abc", "ann1", True), adjudicate_event("term:abc", "x", False)]
    append_events(path, events)
    append_events(path, [vote_event("term:def", "ann2", False)])
    loaded = read_jsonl(path)
    assert loaded == events + [vote_event("term:def", "ann2", False)]


def test_replay_is_idempotent_across_reload(tmp_path):
    kb = pending_kb()
    scored, score_events = run_llm_reviews(kb, mock_gateway())
    key = human_queue(scored)[0].item_key
    votes = [vote_event(key, "ann1", True), vote_event(key, "ann2", True)]
    path = tmp_path / "events.jsonl"
    append_events(path, score_events + votes)
    replayed = apply_events(pending_kb(), read_jsonl(path))
    item = [t for t in replayed.terms if t.item_key == key][0]
    assert item.status.state is State.ACCEPTED


# -- the one-pass fold against the re-index-per-event oracle --------------------------

PASS, FAIL = LlmScore("m1", 5, 5), LlmScore("m2", 2, 5)
QUEUED = ValidationStatus(State.HUMAN_QUEUED, (PASS, replace(PASS, model_id="m2")))
STATUSES = [
    ValidationStatus(),
    ValidationStatus(State.LLM_SCORED, (PASS,)),
    QUEUED,
    replace(QUEUED, human_votes=(HumanVote("ann1", True),)),
    replace(QUEUED, human_votes=(HumanVote("ann1", True), HumanVote("ann2", False))),
    replace(QUEUED, state=State.ACCEPTED,
            human_votes=(HumanVote("ann1", True), HumanVote("ann2", True))),
    ValidationStatus(State.REJECTED, (PASS, FAIL)),
]
# small name pools, so keys repeat: duplicate annotations, mappings and terms
ITEMS = (
    [SchemaAnnotation(target, "d") for target in ("t", "t.a", "t.b")]
    + [ValueMapping("t.a", code, "m") for code in ("1", "2")]
    + [DomainTerm(text, sql, ("t.a",)) for text in ("x", "y") for sql in ("t.a", "t.a + 1")]
)


@st.composite
def kbs(draw):
    chosen = draw(st.lists(st.tuples(st.sampled_from(ITEMS), st.sampled_from(STATUSES)),
                           max_size=14))
    items = [replace(item, status=status) for item, status in chosen]

    def table(cls):
        return tuple(item for item in items if isinstance(item, cls))

    return KnowledgeBase("db", table(SchemaAnnotation), table(ValueMapping), table(DomainTerm))


KEYS = [item.item_key for item in ITEMS] + ["term:unknown"]
EVENT_LOGS = st.lists(
    st.one_of(
        st.builds(lambda key, model, semantic, validity: {
            "item": key, "event": "score", "model_id": model,
            "semantic_consistency": semantic, "sql_validity": validity},
            st.sampled_from(KEYS), st.sampled_from(["m1", "m2"]),
            st.sampled_from([2, 4, 5]), st.sampled_from([3, 5])),
        st.builds(vote_event, st.sampled_from(KEYS), st.sampled_from(["ann1", "ann2", "ann3"]),
                  st.booleans()),
        st.builds(adjudicate_event, st.sampled_from(KEYS), st.just("expert"), st.booleans()),
        st.builds(lambda key: {"item": key, "event": "retract"}, st.sampled_from(KEYS)),
    ),
    max_size=24,
)


def outcome(apply, kb, events):
    try:
        return apply(kb, events)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kbs(), EVENT_LOGS)
def test_fold_equals_the_reindex_oracle(kb, events):
    # Each event is tried after all earlier events the oracle applied, so a log
    # reaches far past its first illegal event and a raise must come at the same one.
    assert apply_events(kb, []) is kb
    applied: list[dict] = []
    for event in events:
        log = applied + [event]
        expected = outcome(oracle.apply_events, kb, log)
        assert outcome(apply_events, kb, log) == expected
        if isinstance(expected, KnowledgeBase):
            applied = log


def test_rejected_terms_leave_only_once_an_event_applies():
    kept = DomainTerm("x", "t.a", ("t.a",), status=QUEUED)
    dropped = DomainTerm("y", "t.a", ("t.a",), status=STATUSES[-1])
    kb = KnowledgeBase("db", terms=(kept, dropped))
    assert apply_events(kb, [vote_event("term:unknown", "ann1", True)]) is kb
    assert apply_events(kb, [vote_event(kept.item_key, "ann1", True)]).terms == (
        replace(kept, status=replace(QUEUED, human_votes=(HumanVote("ann1", True),))),)
    # a term dropped earlier in the log skips its later events
    log = [vote_event(kept.item_key, "ann1", False), vote_event(kept.item_key, "ann2", False),
           vote_event(kept.item_key, "ann3", True)]
    assert apply_events(kb, log).terms == ()


def test_each_item_is_keyed_once_however_many_events(monkeypatch):
    kb = pending_kb()
    events = [vote_event("term:unknown", f"ann{i}", True) for i in range(50)]
    digests = []
    original = knowledge._digest
    monkeypatch.setattr(knowledge, "_digest", lambda text: digests.append(text) or original(text))
    apply_events(kb, events)
    assert len(digests) == len(kb.annotations) + len(kb.value_mappings) + len(kb.terms)


def test_each_event_head_is_decoded_once(monkeypatch):
    term = DomainTerm("x", "t.a", ("t.a",), status=QUEUED)
    kb = KnowledgeBase("db", terms=(term,))
    events = [vote_event(term.item_key, "ann1", True), vote_event("term:unknown", "ann2", True),
              vote_event(term.item_key, "ann2", True)]
    heads = []
    original = validation.from_json

    def counted(cls, data):
        if cls.__name__ == "_EventHead":
            heads.append(data)
        return original(cls, data)
    monkeypatch.setattr(validation, "from_json", counted)
    assert apply_events(kb, events).terms[0].status.state is State.ACCEPTED
    assert heads == events


# -- the log as the only record: replay and commit ----------------------------------


def _votes(kb, annotator):
    return [vote_event(item.item_key, annotator, True) for item in human_queue(kb)]


def test_two_sessions_that_both_score_keep_one_score_pair_and_both_votes(tmp_path):
    kb, log, kb_path = pending_kb(), tmp_path / "events.jsonl", tmp_path / "kb.json"
    sessions = []
    for annotator in ("ann1", "ann2"):  # both read the log before either commits
        scored, events = run_llm_reviews(replay(kb, log), mock_gateway())
        sessions.append(events + _votes(scored, annotator))
    commit(kb, sessions[0], log, kb_path)
    stored, appended = commit(kb, sessions[1], log, kb_path)
    assert appended == [e for e in sessions[1] if e["event"] == "vote"]
    assert read_jsonl(log) == sessions[0] + appended
    assert stored == knowledge.load_kb(kb_path) == replay(kb, log)
    assert stored.terms and all(t.status.state is State.ACCEPTED for t in stored.terms)
    assert all(len(t.status.human_votes) == 2 for t in stored.terms)


def _session(kb_path, log, annotator, barrier):
    kb = knowledge.load_kb(kb_path)
    scored, events = run_llm_reviews(replay(kb, log), mock_gateway())
    barrier.wait(timeout=60)  # every session has read the log before any commits
    commit(kb, events + _votes(scored, annotator), log, kb_path)


def test_sessions_in_four_processes_keep_one_score_pair_and_two_votes(tmp_path):
    kb, log, kb_path = pending_kb(), tmp_path / "events.jsonl", tmp_path / "kb.json"
    knowledge.store_kb(kb, kb_path)
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(4)
    workers = [context.Process(target=_session, args=(kb_path, log, f"ann{i}", barrier))
               for i in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [(w.is_alive(), w.exitcode) for w in workers] == [(False, 0)] * 4
    stored = knowledge.load_kb(kb_path)
    assert stored == replay(kb, log)
    assert len(read_jsonl(log)) == 4 * len(kb.terms)
    assert kb.terms and all(t.status.state is State.ACCEPTED and len(t.status.human_votes) == 2
                            for t in stored.terms)


SESSION_EVENTS = st.lists(
    st.one_of(
        st.builds(lambda key, model, semantic: {
            "item": key, "event": "score", "model_id": model,
            "semantic_consistency": semantic, "sql_validity": 5},
            st.sampled_from(KEYS), st.sampled_from(["m1", "m2"]), st.sampled_from([2, 5])),
        st.builds(vote_event, st.sampled_from(KEYS), st.sampled_from(["ann1", "ann2", "ann3"]),
                  st.booleans()),
        st.builds(adjudicate_event, st.sampled_from(KEYS), st.just("expert"), st.booleans()),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ITEMS), unique_by=lambda item: item.item_key),
       st.lists(st.tuples(st.integers(0, 5), SESSION_EVENTS), max_size=5))
def test_the_stored_kb_is_the_replay_of_the_log_after_any_commits(items, sessions):
    # each session starts from the first KB or from one stored by an earlier commit
    first = KnowledgeBase("db", *(tuple(i for i in items if isinstance(i, cls))
                                  for cls in (SchemaAnnotation, ValueMapping, DomainTerm)))
    with tempfile.TemporaryDirectory() as tmp:
        log, kb_path = Path(tmp) / "events.jsonl", Path(tmp) / "kb.json"
        knowledge.store_kb(first, kb_path)
        snapshots = [first]
        for start, events in sessions:
            stored, appended = commit(snapshots[start % len(snapshots)], events, log, kb_path)
            assert stored == knowledge.load_kb(kb_path) == replay(first, log) == replay(stored, log)
            snapshots.append(stored)


def test_a_missing_log_reads_as_empty_only_while_every_item_is_pending(tmp_path):
    log, kb_path = tmp_path / "events.jsonl", tmp_path / "kb.json"
    kb = pending_kb()
    assert replay(kb, log) == kb
    assert commit(kb, [], log, kb_path) == (kb, [])
    assert not log.exists() and not kb_path.exists()  # nothing to record, nothing stored
    scored, _ = run_llm_reviews(kb, mock_gateway())
    with pytest.raises(InvariantViolation, match=f"event log {log} does not exist, but the "
                       rf"knowledge base has items past Pending \({len(kb.terms)}\)"):
        replay(scored, log)
    assert not log.exists()


def test_an_os_error_on_the_log_names_it(tmp_path):
    log = tmp_path / "missing" / "events.jsonl"
    events = [vote_event("term:abc", "ann1", True)]
    with pytest.raises(InvariantViolation, match=f"event log {log}: No such file or directory"):
        append_events(log, events)
    with pytest.raises(InvariantViolation, match=f"event log {tmp_path}: Is a directory"):
        replay(pending_kb(), tmp_path)


def test_a_second_score_pair_for_an_annotation_starts_it_over():
    # enrich-schema used to replace a reviewed annotation with a Pending copy, and
    # review scored the copy: such a log replays to the copy's review
    ann, term = SchemaAnnotation("t", "d"), DomainTerm("x", "t.a", ("t.a",))
    kb = KnowledgeBase("db", annotations=(ann,), terms=(term,))

    def scores(key, semantic):
        return [{"item": key, "event": "score", "model_id": model,
                 "semantic_consistency": semantic, "sql_validity": 5} for model in ("m1", "m2")]

    first = scores(ann.item_key, 5) + [vote_event(ann.item_key, a, True) for a in ("a1", "a2")]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        append_events(log, first + scores(ann.item_key, 5) + [vote_event(ann.item_key, "a1", False)])
        (replayed,) = replay(kb, log).annotations
        assert replayed.status == replace(QUEUED, human_votes=(HumanVote("a1", False),))
        append_events(log, scores(ann.item_key, 2))  # a third pair: the last review holds
        assert replay(kb, log).annotations[0].status == ValidationStatus(
            State.REJECTED, (replace(FAIL, model_id="m1"), FAIL))
        # lines count from the top of the log, superseded events included
        append_events(log, [vote_event(ann.item_key, "a2", True)])
        with pytest.raises(IllegalTransition, match=f"{log} line 10: Rejected is terminal"):
            replay(kb, log)
        # terms were never replaced, so a term scored twice over is still an error
        log.write_text("".join(json.dumps(e) + "\n" for e in scores(term.item_key, 5) * 2))
        with pytest.raises(IllegalTransition, match="line 3: score event not legal in state "
                           "HumanQueued"):
            replay(kb, log)


# -- the one fold against the pre-pass, fold and legality pass it replaced -----------


def _pending(kb):
    def reset(items):
        return tuple(replace(item, status=ValidationStatus()) for item in items)

    return replace(kb, annotations=reset(kb.annotations),
                   value_mappings=reset(kb.value_mappings), terms=reset(kb.terms))


def _old_replay(kb, events):
    """The replay before the fold read second reviews: ``latest_reviews`` over the
    log, then the fold (no restart fires once a later pair superseded the first)."""
    kept = oracle.latest_reviews(list(enumerate(events, 1)))
    return oracle.apply_events(_pending(kb), [event for _, event in kept])


def _scores(key, semantic):
    return [{"item": key, "event": "score", "model_id": model,
             "semantic_consistency": semantic, "sql_validity": 5} for model in ("m1", "m2")]


ANNOTATION_KEYS = [item.item_key for item in ITEMS if isinstance(item, SchemaAnnotation)]
# score pairs, most of them for annotations so that an annotation's review starts
# over, then single scores, votes and adjudications
LOG_STEPS = st.lists(st.one_of(
    st.builds(_scores, st.sampled_from(ANNOTATION_KEYS), st.sampled_from([2, 5, 5])),
    st.builds(_scores, st.sampled_from(KEYS), st.sampled_from([2, 5])),
    EVENT_LOGS.map(lambda events: events[:2]),
    st.lists(st.builds(vote_event, st.sampled_from(KEYS), st.sampled_from(["ann1", "ann2"]),
                       st.booleans()), max_size=2),
), max_size=10)


def _replayable(kb, steps):
    """The drawn events that the old replay accepts, each tried on the log so far:
    a log whose every prefix replays."""
    log: list[dict] = []
    for event in (event for step in steps for event in step):
        try:
            _old_replay(kb, log + [event])
        except SqlKnowError:
            continue
        log.append(event)
    return log


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kbs(), LOG_STEPS, st.data())
def test_replay_equals_the_old_pre_pass_and_fold_and_folds_any_tail(kb, steps, data):
    log_events = _replayable(kb, steps)
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        append_events(log, log_events)
        replayed = replay(_pending(kb), log)
    assert replayed == _old_replay(kb, log_events)
    # the fold is a prefix fold: any tail folds onto the fold of the rest
    split = data.draw(st.integers(0, len(log_events)), label="split")
    head = apply_events(_pending(kb), log_events[:split])
    assert apply_events(head, log_events[split:]) == replayed


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(ITEMS), unique_by=lambda item: item.item_key), LOG_STEPS,
       SESSION_EVENTS)
def test_commit_appends_the_events_the_old_legality_pass_picked(items, steps, events):
    kb = KnowledgeBase("db", *(tuple(i for i in items if isinstance(i, cls))
                               for cls in (SchemaAnnotation, ValueMapping, DomainTerm)))
    log_events = _replayable(kb, steps)
    with tempfile.TemporaryDirectory() as tmp:
        log, kb_path = Path(tmp) / "events.jsonl", Path(tmp) / "kb.json"
        append_events(log, log_events)
        current = replay(kb, log)
        legal = oracle.still_legal(current, events)
        stored, appended = commit(kb, events, log, kb_path)
        assert appended == legal
        assert stored == oracle.apply_events(current, legal) == replay(kb, log)


def test_two_sessions_that_score_one_pending_annotation_keep_both_votes(tmp_path):
    # the second session's score pair comes after the first's and is dropped: it
    # does not start the annotation's review over and lose the first vote
    kb = KnowledgeBase("db", annotations=(SchemaAnnotation("t", "d"),))
    log, kb_path = tmp_path / "events.jsonl", tmp_path / "kb.json"
    sessions = []
    for annotator in ("ann1", "ann2"):  # both read the log before either commits
        scored, events = run_llm_reviews(replay(kb, log), mock_gateway())
        sessions.append(events + _votes(scored, annotator))
    commit(kb, sessions[0], log, kb_path)
    stored, appended = commit(kb, sessions[1], log, kb_path)
    assert appended == sessions[1][2:] and appended[0]["event"] == "vote"
    (annotation,) = stored.annotations
    assert annotation.status.state is State.ACCEPTED
    assert [v.annotator_id for v in annotation.status.human_votes] == ["ann1", "ann2"]
    assert stored == knowledge.load_kb(kb_path) == replay(kb, log)


def test_a_commit_decodes_each_session_event_once(tmp_path, monkeypatch):
    kb, log, kb_path = pending_kb(), tmp_path / "events.jsonl", tmp_path / "kb.json"
    scored, score_events = run_llm_reviews(kb, mock_gateway())
    append_events(log, score_events)
    votes = _votes(scored, "ann1")
    # an event for no item, and a second vote by the same annotator, are not appended
    session = votes + [vote_event("term:unknown", "ann1", True), dict(votes[0])]
    decoded = collections.Counter()
    original = validation.from_json

    def counted(cls, data):
        if any(data is event for event in session):
            decoded[cls.__name__, id(data)] += 1
        return original(cls, data)

    monkeypatch.setattr(validation, "from_json", counted)
    _, appended = commit(kb, session, log, kb_path)
    assert votes and appended == votes
    assert set(decoded.values()) == {1}
    assert {key for key in decoded if key[0] == "_EventHead"} == {
        ("_EventHead", id(event)) for event in session}
