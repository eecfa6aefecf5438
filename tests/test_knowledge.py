"""Knowledge store: persistence round-trips, invariants, and the validation
state machine."""

import dataclasses
import errno
import json
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlknow import records
from sqlknow.errors import IllegalTransition, InvariantViolation
from sqlknow.knowledge import (
    Adjudication,
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    LlmScore,
    Operator,
    QueryPatternRef,
    SchemaAnnotation,
    Source,
    State,
    ValidationStatus,
    ValueMapping,
    advance_validation,
    load_kb,
    store_kb,
)


# -- state machine ----------------------------------------------------------------


def scored(s1, v1, s2, v2):
    status = ValidationStatus()
    status = advance_validation(status, LlmScore("reviewer-a", s1, v1))
    status = advance_validation(status, LlmScore("reviewer-b", s2, v2))
    return status


def test_passing_scores_queue_for_humans():
    assert scored(5, 5, 4, 4).state is State.HUMAN_QUEUED


def test_one_low_dimension_rejects():
    assert scored(5, 5, 3, 5).state is State.REJECTED


def test_single_score_is_llm_scored():
    status = advance_validation(ValidationStatus(), LlmScore("reviewer-a", 5, 5))
    assert status.state is State.LLM_SCORED


def test_agreeing_votes_accept():
    status = scored(5, 5, 5, 5)
    status = advance_validation(status, HumanVote("ann1", True))
    status = advance_validation(status, HumanVote("ann2", True))
    assert status.state is State.ACCEPTED


def test_agreeing_reject_votes_reject():
    status = scored(5, 5, 5, 5)
    status = advance_validation(status, HumanVote("ann1", False))
    status = advance_validation(status, HumanVote("ann2", False))
    assert status.state is State.REJECTED


def test_disagreement_resolved_by_adjudicator():
    status = scored(5, 5, 5, 5)
    status = advance_validation(status, HumanVote("ann1", True))
    status = advance_validation(status, HumanVote("ann2", False))
    assert status.state is State.HUMAN_QUEUED
    status = advance_validation(status, Adjudication(HumanVote("expert", True)))
    assert status.state is State.ACCEPTED


def test_adjudication_requires_disagreement():
    status = scored(5, 5, 5, 5)
    with pytest.raises(IllegalTransition):
        advance_validation(status, Adjudication(HumanVote("expert", True)))


def test_vote_before_scoring_is_illegal():
    with pytest.raises(IllegalTransition):
        advance_validation(ValidationStatus(), HumanVote("ann1", True))


def test_rejected_is_absorbing():
    status = scored(1, 1, 1, 1)
    assert status.state is State.REJECTED
    for event in (LlmScore("m", 5, 5), HumanVote("a", True),
                  Adjudication(HumanVote("a", True))):
        with pytest.raises(IllegalTransition):
            advance_validation(status, event)


def test_same_annotator_cannot_vote_twice():
    status = scored(5, 5, 5, 5)
    status = advance_validation(status, HumanVote("ann1", True))
    with pytest.raises(IllegalTransition):
        advance_validation(status, HumanVote("ann1", False))


scores_strategy = st.integers(min_value=1, max_value=5)


@given(scores_strategy, scores_strategy, scores_strategy, scores_strategy)
def test_queue_gate_iff_both_reviewers_at_least_4(s1, v1, s2, v2):
    status = scored(s1, v1, s2, v2)
    both_pass = s1 >= 4 and v1 >= 4 and s2 >= 4 and v2 >= 4
    assert (status.state is State.HUMAN_QUEUED) == both_pass
    assert (status.state is State.REJECTED) == (not both_pass)


@settings(max_examples=200)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("score"), scores_strategy, scores_strategy),
            st.tuples(st.just("vote"), st.sampled_from(["a", "b", "c"]), st.booleans()),
            st.tuples(st.just("adjudicate"), st.just("x"), st.booleans()),
        ),
        max_size=8,
    )
)
def test_accept_requires_gate_then_agreement_or_adjudication(events):
    """No event sequence reaches Accepted without both LLM gates passing and
    either two agreeing votes or an adjudication after disagreement."""
    status = ValidationStatus()
    for kind, x, y in events:
        try:
            if kind == "score":
                status = advance_validation(status, LlmScore("m", x, y))
            elif kind == "vote":
                status = advance_validation(status, HumanVote(x, y))
            else:
                status = advance_validation(status, Adjudication(HumanVote(x, y)))
        except IllegalTransition:
            continue
    if status.state is State.ACCEPTED:
        assert len(status.llm_scores) == 2
        assert all(s.passes_gate() for s in status.llm_scores)
        votes = status.human_votes
        agreed = len(votes) == 2 and votes[0].accept and votes[1].accept
        adjudicated = status.adjudication is not None and status.adjudication.accept
        assert agreed or adjudicated


# -- persistence ---------------------------------------------------------------------


def test_empty_kb_round_trip(tmp_path):
    kb = KnowledgeBase(db_id="empty")
    path = tmp_path / "kb.json"
    store_kb(kb, path)
    assert load_kb(path) == kb


def test_round_trip_preserves_twenty_accepted_terms(tmp_path, schools):
    from fixture_db import schools_kb

    accepted = ValidationStatus(state=State.ACCEPTED)
    terms = tuple(
        DomainTerm(
            term_text=f"meal ratio variant {i}",
            sql_expression=f"(frpm.FreeMealCount / (frpm.Enrollment + {i}))",
            columns_used=("frpm.FreeMealCount", "frpm.Enrollment"),
            operator=Operator.DIV,
            confidence=round(1.0 - i * 0.01, 4),
            status=accepted,
        )
        for i in range(20)
    )
    kb = dataclasses.replace(schools_kb(), terms=terms)
    path = tmp_path / "kb.json"
    store_kb(kb, path, schools)
    loaded = load_kb(path)
    assert loaded == kb
    assert len(loaded.terms) == 20
    assert all(t.status.state is State.ACCEPTED for t in loaded.terms)


class _HalfWriter:
    """A file whose ``write`` writes half its text, then fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_store_leaves_the_old_kb_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "kb.json"
    store_kb(KnowledgeBase(db_id="old"), path)
    before = path.read_bytes()
    monkeypatch.setattr(records, "open",
                        lambda *args, **kwargs: _HalfWriter(open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError) as failed:
        store_kb(KnowledgeBase(db_id="new"), path)
    assert failed.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]


def test_write_json_writes_what_write_text_wrote(tmp_path):
    payload = {"b": [1, "é", None], "a": {"z": 0.5, "y": "ü"}}
    records.write_json(tmp_path / "new.json", payload)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    new = tmp_path / "new.json"
    assert new.read_bytes() == old.read_bytes()
    assert new.stat().st_mode == old.stat().st_mode


def test_write_json_keeps_an_existing_targets_mode_and_symlink(tmp_path):
    target = tmp_path / "kb.json"
    target.write_text("{}\n")
    target.chmod(0o600)
    records.write_json(target, {"a": 1})
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    link = tmp_path / "link.json"
    link.symlink_to(target)
    records.write_json(link, {"a": 2})
    assert link.is_symlink()
    assert json.loads(target.read_text()) == {"a": 2}
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.json", "link.json"]


@pytest.mark.parametrize("given, error", [
    ("out", IsADirectoryError),  # the target is a directory
    ("missing/kb.json", FileNotFoundError),  # the temp file's directory is missing
])
def test_write_json_errors_name_the_path_as_given(tmp_path, monkeypatch, given, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "alias").symlink_to(tmp_path)
    for path in (given, f"alias/{given}"):
        with pytest.raises(error) as failed:
            records.write_json(path, {"a": 1})
        assert (failed.value.filename, failed.value.filename2) == (path, None)
        assert str(failed.value).endswith(f": '{path}'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias", "out"]
    assert not any((tmp_path / "out").iterdir())


def test_store_rejects_term_with_unknown_column(tmp_path, schools):
    bad = KnowledgeBase(
        db_id="schools",
        terms=(
            DomainTerm("ghost", "(schools.NoSuch / frpm.Enrollment)",
                       ("schools.NoSuch", "frpm.Enrollment"), Operator.DIV, 0.9),
        ),
    )
    with pytest.raises(InvariantViolation):
        store_kb(bad, tmp_path / "kb.json", schools)


def test_rejected_terms_are_banned_from_the_table():
    rejected = ValidationStatus(state=State.REJECTED)
    kb = KnowledgeBase(
        db_id="x",
        terms=(DomainTerm("t", "(a.b + c.d)", ("a.b",), Operator.ADD, 0.5,
                          status=rejected),),
    )
    with pytest.raises(InvariantViolation):
        kb.validate()


def test_duplicate_value_mapping_rejected():
    kb = KnowledgeBase(
        db_id="x",
        value_mappings=(
            ValueMapping("t.c", "A", "first"),
            ValueMapping("t.c", "A", "second"),
        ),
    )
    with pytest.raises(InvariantViolation):
        kb.validate()


def test_human_annotation_never_overwritten_by_llm():
    human = SchemaAnnotation("frpm", "human text", None, Source.HUMAN)
    kb = KnowledgeBase(db_id="x", annotations=(human,))
    merged = kb.merge_annotations(
        [SchemaAnnotation("frpm", "llm text", None, Source.LLM)]
    )
    assert merged.annotation_for("frpm").description == "human text"
    # the reverse direction does overwrite
    merged2 = merged.merge_annotations(
        [SchemaAnnotation("frpm", "expert fix", None, Source.HUMAN)]
    )
    assert merged2.annotation_for("frpm").description == "expert fix"


# hypothesis strategies for randomized valid KBs over the schools schema

_COLUMNS = (
    "schools.CDSCode", "schools.County", "schools.Virtual",
    "frpm.FreeMealCount", "frpm.Enrollment",
    "satscores.NumTstTakr", "satscores.NumGE1500",
)

status_strategy = st.sampled_from(
    [ValidationStatus(), ValidationStatus(state=State.ACCEPTED)]
)

term_strategy = st.builds(
    DomainTerm,
    term_text=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x17F),
        min_size=1, max_size=24,
    ),
    sql_expression=st.sampled_from(
        ["(frpm.FreeMealCount / frpm.Enrollment)",
         "(satscores.NumGE1500 / satscores.NumTstTakr)",
         "(frpm.FreeMealCount + frpm.Enrollment)"]
    ),
    columns_used=st.sets(st.sampled_from(_COLUMNS), min_size=1, max_size=3).map(
        lambda s: tuple(sorted(s))
    ),
    operator=st.sampled_from(list(Operator)),
    confidence=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    explanation=st.text(max_size=40),
    status=status_strategy,
)

kb_strategy = st.builds(
    KnowledgeBase,
    db_id=st.just("schools"),
    annotations=st.lists(
        st.builds(
            SchemaAnnotation,
            target=st.sampled_from(["schools", "frpm", "schools.County", "frpm.Enrollment"]),
            description=st.text(max_size=60),
            abbreviation_expansion=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
            source=st.sampled_from(list(Source)),
            status=status_strategy,
        ),
        max_size=4,
    ).map(tuple),
    value_mappings=st.dictionaries(
        st.tuples(st.just("schools.Virtual"), st.sampled_from(["F", "P", "N", "X"])),
        st.text(min_size=1, max_size=20),
        max_size=4,
    ).map(
        lambda d: tuple(
            ValueMapping(column=k[0], code=k[1], meaning=v) for k, v in sorted(d.items())
        )
    ),
    terms=st.lists(term_strategy, max_size=5, unique_by=lambda t: t.item_key).map(tuple),
    pattern_refs=st.lists(
        st.builds(
            QueryPatternRef,
            graph_ref=st.just("pattern-graph"),
            skeleton_cluster=st.integers(min_value=0, max_value=10),
            note=st.text(max_size=10),
        ),
        max_size=3,
    ).map(tuple),
    graph_ref=st.sampled_from(["", "pattern-graph"]),
)


@settings(max_examples=60)
@given(kb_strategy)
def test_store_load_is_bijective_on_valid_kbs(tmp_path_factory, kb):
    path = tmp_path_factory.mktemp("kbprop") / "kb.json"
    store_kb(kb, path)
    loaded = load_kb(path)
    assert loaded == kb
    assert records.from_json(KnowledgeBase, records.to_json(kb)) == kb
