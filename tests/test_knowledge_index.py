"""The compiled knowledge index against the scan-everything oracle, and its cache."""

import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scan_oracle as oracle
from fixture_db import schools_schema, schools_value_samples
from sqlknow.knowledge import (
    DomainTerm,
    HumanVote,
    KnowledgeBase,
    SchemaAnnotation,
    State,
    ValidationStatus,
)
from sqlknow import textproc
from sqlknow.linker import link, score_relevance
from sqlknow.pattern_graph import (
    Edge,
    PatternGraph,
    QuestionCluster,
    SkeletonCluster,
    retrieve_skeletons,
)
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef
from sqlknow.textproc import (
    EMBED_DIMENSION,
    SurfaceIndex,
    _boundary_pattern,
    exact,
    fold,
    mask_question,
    scan_question,
)

# -- fold -----------------------------------------------------------------------------


def test_fold_equates_every_pair_the_regex_equates():
    cased = [
        chr(cp)
        for cp in range(0x110000)
        if not 0xD800 <= cp <= 0xDFFF
        and len({chr(cp), chr(cp).lower(), chr(cp).upper(), chr(cp).casefold()}) > 1
    ]
    text = "".join(cased)
    for c in cased:
        for m in re.finditer(re.escape(c), text, re.IGNORECASE):
            assert fold(m.group()) == fold(c), (hex(ord(c)), hex(ord(m.group())))


def test_fold_keeps_length():
    for text in ("İstanbul", "Straße", "ſtate", "Kelvin", "ΣΑΣ", "ŉ", "ΐ", ""):
        assert len(fold(text)) == len(text)


# -- property: indexed lookups equal the scans ----------------------------------------

# K (KELVIN SIGN), ſ (LONG S) and İ match k, s and i under re.IGNORECASE
_CASE_TWINS = {"k": "K", "s": "ſ", "i": "İ", "I": "ı", "m": "M"}
_FRAGMENTS = ["rate", "free meal", "SAT", "Fresno", "San Joaquin", "kids", "is", "a", "aa",
              "12", "12.5", "st", "ß", "Σ", "-", "(x)", "x.y", "'q'", "K", "ſ", "İ"]
_piece = st.one_of(
    st.sampled_from(_FRAGMENTS),
    st.text(alphabet="abkisKSI Kſİı.'-_()%", max_size=6),
)
_surface = st.builds(
    lambda parts, pad_left, pad_right: pad_left + "".join(parts) + pad_right,
    st.lists(_piece, min_size=1, max_size=3),
    st.sampled_from(["", " ", "(", "'", " -"]),
    st.sampled_from(["", " ", ")", ".", "% "]),
)
# "_" and "__" have no identifier part, so their word set is empty
_name = st.text(alphabet="abcdkisKS_", min_size=1, max_size=8) | st.sampled_from(["_", "__"])
_state = st.sampled_from([State.PENDING, State.ACCEPTED, State.REJECTED, State.HUMAN_QUEUED])


def _recase(text: str, how: int) -> str:
    if how == 1:
        return text.upper()
    if how == 2:
        return text.swapcase()
    if how == 3:
        return "".join(_CASE_TWINS.get(c, c) for c in text)
    return text


@st.composite
def _knowledge(draw):
    """A random schema, KB and a question built from their surfaces."""
    tables = []
    for t in draw(st.lists(_name, min_size=1, max_size=3, unique_by=str.lower)):
        cols = draw(st.lists(_name, min_size=1, max_size=4, unique_by=str.lower))
        tables.append(TableDef(t, tuple(ColumnDef(c) for c in cols)))
    col_ids = [f"{t.name}.{c.name}" for t in tables for c in t.columns]
    samples = {
        cid: draw(st.lists(_surface | st.sampled_from(["", " ", "  "]), max_size=4))
        for cid in draw(st.lists(st.sampled_from(col_ids), max_size=len(col_ids), unique=True))
    }
    schema = DatabaseSchema("db", tables, samples)

    targets = [t.name for t in tables] + col_ids
    # a description shared by many targets puts them all on one word's postings
    shared = draw(_surface)
    annotations = tuple(
        SchemaAnnotation(
            _recase(draw(st.sampled_from(targets)), draw(st.integers(0, 2))),
            draw(_surface | st.just(shared)),
            draw(st.none() | _surface),
            status=ValidationStatus(draw(_state)),
        )
        for _ in range(draw(st.integers(0, 6)))
    )
    # terms equal in (term_text, sql_expression) rank in stored order, with or
    # without a word shared with the question
    texts = draw(st.lists(_surface, min_size=1, max_size=3))
    terms = tuple(
        DomainTerm(draw(st.sampled_from(texts)), draw(st.sampled_from(["expr0", "expr1"])),
                   (col_ids[0],), explanation=draw(_surface),
                   status=ValidationStatus(draw(_state)))
        for _ in range(draw(st.integers(0, 5)))
    )
    kb = draw(st.none() | st.just(KnowledgeBase("db", annotations=annotations, terms=terms)))

    surfaces = [t.name for t in tables] + [c.name for t in tables for c in t.columns]
    surfaces += [v for vs in samples.values() for v in vs]
    surfaces += [a.abbreviation_expansion or a.description for a in annotations]
    surfaces += [t.term_text for t in terms]
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(surfaces) | _piece, st.integers(0, 3), st.integers(1, 3)),
        max_size=5,
    ))
    separators = st.sampled_from([" ", "", ", ", "'", "-", ". ", "  ", "?"])
    # a piece repeated back to back gives overlapping occurrences of one surface
    question = "".join(_recase(p, how) * times + draw(separators) for p, how, times in pieces)
    return schema, kb, question


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_knowledge())
def test_mask_question_equals_the_scan(case):
    schema, kb, q = case
    assert mask_question(q, schema, kb) == oracle.mask_question(q, schema, kb)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_knowledge())
def test_score_relevance_equals_the_scan(case):
    schema, kb, q = case
    assert score_relevance(q, schema, kb) == oracle.score_relevance(q, schema, kb)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_knowledge(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
def test_link_equals_the_scan(case, k1, k2, k3):
    schema, kb, q = case
    assert link(q, schema, kb, k1=k1, k2=k2, k3=k3) == (
        oracle.link(q, schema, kb, k1=k1, k2=k2, k3=k3))


# KELVIN SIGN, LONG S, dotted capital I and dotless i: letters to the boundary
# regex under re.IGNORECASE, though none of them is in [A-Za-z0-9]
_NEIGHBOURS = ["K", "ſ", "İ", "ı", "k", "s", "I", "0", " ", "-", "'", "é", "ß", ""]


@given(st.text(alphabet=st.sampled_from(_NEIGHBOURS[:-1] + ["a", "Z", "9", "_", "\u00e9"]))
       | st.text())
def test_a_scan_holds_every_offset_where_the_boundary_regex_may_start_or_end(q):
    assert scan_question(q) == (
        fold(q), tuple(m.start() for m in re.finditer(r"(?<![A-Za-z0-9])", q, re.I)),
        tuple(m.start() for m in re.finditer(r"(?![A-Za-z0-9])", q, re.I)))


def _all_matches(surface: str, q: str) -> set[tuple[int, int]]:
    """Every boundary-regex match of ``surface`` in ``q``, overlapping ones too."""
    pattern = _boundary_pattern(surface)
    return {m.span() for m in (pattern.match(q, i) for i in range(len(q) + 1)) if m}


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_surface | st.sampled_from(_FRAGMENTS + ["", " "]), min_size=1, max_size=6),
       st.data())
def test_occurrences_are_the_boundary_regex_matches(surfaces, data):
    entries = [(s, i) for i, s in enumerate(surfaces)]
    index = SurfaceIndex(entries)
    pieces = data.draw(st.lists(
        st.tuples(st.sampled_from(surfaces) | _piece, st.integers(0, 3),
                  st.sampled_from(_NEIGHBOURS), st.sampled_from(_NEIGHBOURS)),
        max_size=4,
    ))
    q = "".join(left + _recase(p, how) + right for p, how, left, right in pieces)
    windows: dict[int, set] = {}
    for start, end, pairs in index.occurrences(q):
        for _, i in pairs:
            windows.setdefault(i, set()).add((start, end))
    for i, surface in enumerate(surfaces):
        stripped = surface.strip()
        if not stripped:
            continue
        # mask_question matches the stripped surface: its windows on an ASCII
        # question and surface, a superset of them on any other
        matches = _all_matches(stripped, q)
        if exact(q, stripped):
            assert windows.get(i, set()) == matches, (surface, q)
        else:
            assert matches <= windows.get(i, set()), (surface, q)
        # the linker matches the surface itself, whose match holds a window
        pad = len(surface) - len(surface.lstrip())
        for start, _ in _all_matches(surface, q):
            assert (start + pad, start + pad + len(stripped)) in windows[i], (surface, q)
    # the same surfaces as the window-set oracle, which probes every start x end
    found = {e for _, _, pairs in index.occurrences(q) for e in pairs}
    assert found == {
        (s, i) for s, payloads in oracle.propose(entries, q).items() for i in payloads}
    # the union of two indexes finds what one index of all their entries finds
    cut = data.draw(st.integers(0, len(entries)))
    union = SurfaceIndex(entries[:cut]) | SurfaceIndex(entries[cut:])
    assert union.occurrences(q) == index.occurrences(q)


def _one_surface_of_every_kind(surface: str, padded: str):
    """A table and a column named ``surface``, a sampled value and a KB term and
    abbreviation expansion that are ``surface`` too, or ``padded``."""
    schema = DatabaseSchema("db", [TableDef(surface, (ColumnDef(surface), ColumnDef("x")))],
                            {f"{surface}.x": [surface, padded]})
    kb = KnowledgeBase("db", annotations=(
        SchemaAnnotation(f"{surface}.x", "d", padded),
        SchemaAnnotation(surface, "d", surface)), terms=(
        DomainTerm(surface, "x", (f"{surface}.x",), status=ValidationStatus(State.ACCEPTED)),
        DomainTerm(padded, "x", (f"{surface}.x",), status=ValidationStatus(State.ACCEPTED))))
    return schema, kb


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["rate", "Rate", "a", "kids", "free_meal", "K", "is"]),
       st.sampled_from([" ", "(", "'", "% "]), st.booleans(), st.data())
def test_a_surface_that_is_a_name_a_value_and_a_term_masks_as_the_scan(
        surface, pad, with_kb, data):
    schema, kb = _one_surface_of_every_kind(surface, pad + surface + pad.strip())
    pieces = data.draw(st.lists(st.tuples(
        st.sampled_from([surface, pad + surface, "x", "12", "'q'"]), st.integers(0, 3),
        st.integers(1, 3), st.sampled_from([" ", "", ", ", "'", "-", "  "])), max_size=5))
    q = "".join(_recase(p, how) * times + sep for p, how, times, sep in pieces)
    kb = kb if with_kb else None
    assert mask_question(q, schema, kb) == oracle.mask_question(q, schema, kb)


def test_fixture_questions_equal_the_scan(schools, kb, corpus):
    for row in corpus:
        q = row["question"]
        assert mask_question(q, schools, kb) == oracle.mask_question(q, schools, kb)
        assert link(q, schools, kb) == oracle.link(q, schools, kb)


def test_a_surface_takes_no_window_that_overlaps_the_one_before():
    # "ab ab" occurs at 3 and at 6; finditer takes only the first, which "zz ab" outmasks
    schema = DatabaseSchema("db", [TableDef("t", (ColumnDef("c"),))],
                            {"t.c": ["zz ab", "ab ab"]})
    assert mask_question("zz ab ab ab", schema) == "<VAL> ab ab"


def test_case_twins_outside_ascii_mask_and_score_as_their_ascii_spelling():
    schema = replace(_tiny_schema(), value_samples={"schools.County": ["Kern", "Fresno"]})
    plain, kelvin = "website in Kern county", "website in \u212aern county"
    assert mask_question(kelvin, schema) == "<COL> in <VAL> <COL>"
    assert mask_question(plain, schema) == "<COL> in <VAL> <COL>"
    assert score_relevance(kelvin, schema) == score_relevance(plain, schema)
    assert score_relevance(kelvin, schema).columns["schools.County"] == 0.782608695652174
    assert mask_question("website in \u017fchools", schema) == "<COL> in <TAB>"


def test_masking_an_ascii_question_runs_no_boundary_regex(schools, kb, corpus):
    questions = [row["question"] for row in corpus if row["question"].isascii()]
    before = _boundary_pattern.cache_info()
    masked = [mask_question(q, schools, kb) for q in questions]
    assert _boundary_pattern.cache_info().misses == before.misses
    assert _boundary_pattern.cache_info() == before  # nor a cached one
    assert questions and all(m != q for m, q in zip(masked, questions))


# -- the cache ------------------------------------------------------------------------


def _tiny_schema() -> DatabaseSchema:
    return DatabaseSchema("db", [TableDef("schools", (ColumnDef("County"), ColumnDef("Website")))],
                          {"schools.County": ["Fresno"]})


def test_replaced_value_samples_get_their_own_index():
    schema = _tiny_schema()
    assert mask_question("in Fresno", schema) == "in <VAL>"
    newer = replace(schema, value_samples={"schools.County": ["Kern"]})
    assert newer.surface_index is not schema.surface_index
    assert mask_question("in Fresno", newer) == "in Fresno"
    assert mask_question("in Kern", newer) == "in <VAL>"
    # step 1 keeps only Website (k2=1); step 2 adds County for the literal "Kern"
    assert link("website in Kern", newer, None, k2=1).expansion_added == {"schools.County"}
    assert mask_question("in Fresno", schema) == "in <VAL>"


def test_a_link_and_a_retrieval_of_one_question_walk_its_windows_once(schools, kb, monkeypatch):
    graph = PatternGraph("g", EMBED_DIMENSION, (QuestionCluster(0, (1.0,) * EMBED_DIMENSION, "q"),),
                         (SkeletonCluster(0, "SELECT _C FROM _T", 1),), (Edge(0, 0, 1, 1.0),))
    scans, walks = [], []
    scan, occurrences = textproc.scan_question, SurfaceIndex.occurrences
    monkeypatch.setattr(textproc, "scan_question", lambda q: scans.append(q) or scan(q))
    monkeypatch.setattr(SurfaceIndex, "occurrences",
                        lambda index, q: walks.append(occurrences(index, q)) or walks[-1])
    q = "How many schools in Fresno county have a website?"
    link(q, schools, kb)
    retrieve_skeletons(q, graph, 1, schema=schools, kb=kb)
    assert scans == [q]
    assert len(walks) == 2 and walks[0] is walks[1] and walks[0]


def test_a_schema_field_cannot_be_reassigned():
    schema = _tiny_schema()
    with pytest.raises(FrozenInstanceError):
        schema.tables = [TableDef("b", (ColumnDef("y"),))]
    assert schema.has_table("schools") and not schema.has_table("b")


def test_sampling_the_fixture_rebuilds_the_schema_index(schools_db_path):
    schema = schools_schema()
    assert score_relevance("Fresno", schema).columns["schools.County"] == 0.0
    schema = schools_value_samples(schools_db_path, schema)  # a replaced schema
    assert score_relevance("Fresno", schema).columns["schools.County"] > 0.0


def test_a_sample_key_cased_unlike_its_column_names_the_column():
    schema = replace(_tiny_schema(), value_samples={"SCHOOLS.county": ["Fresno"]})
    schema.validate()
    assert score_relevance("schools in Fresno", schema).columns["schools.County"] > 0
    result = link("website in Fresno", schema, None, k2=1)
    assert result.tables == (("schools", result.tables[0][1]),)
    assert result.expansion_added == {"schools.County"}
    assert result == oracle.link("website in Fresno", schema, None, k2=1)


def test_replaced_kb_gets_its_own_index():
    ann = SchemaAnnotation("schools", "old text")
    kb = KnowledgeBase("db", annotations=(ann,))
    assert kb.annotation_for("schools").description == "old text"
    newer = replace(kb, annotations=(SchemaAnnotation("schools", "new text"),))
    assert newer.annotation_by_key is not kb.annotation_by_key
    assert newer.annotation_for("SCHOOLS").description == "new text"
    assert kb.annotation_for("schools").description == "old text"


def test_annotation_for_returns_the_first_stored_of_targets_equal_but_for_case():
    first = SchemaAnnotation("frpm.Enrollment", "first")
    second = SchemaAnnotation("FRPM.enrollment", "second")
    kb = KnowledgeBase("db", annotations=(first, second))
    assert kb.annotation_for("Frpm.ENROLLMENT") is first
    assert replace(kb, annotations=(second, first)).annotation_for("frpm.enrollment") is second


def test_term_lookups_are_tuples_callers_cannot_change():
    accepted = ValidationStatus(State.ACCEPTED, human_votes=(HumanVote("a", True),))
    rate = DomainTerm("rate", "x / y", ("t.x",), status=accepted)
    share = DomainTerm("share", "x", ("t.x",))
    rejected = DomainTerm("gap", "x - y", ("t.x",), status=ValidationStatus(State.REJECTED))
    kb = KnowledgeBase("db", terms=(rate, share, rejected))
    assert kb.accepted_terms == (rate,)
    assert kb.active_terms == (rate, share)
