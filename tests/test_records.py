"""The record codec: byte-for-byte equal to the hand-written codecs it replaced
on every record type, and strict, path-naming decoding of malformed input; and
``records`` as the one module that writes files."""

import ast
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from sqlknow.config import AppConfig, BudgetDefaults, LinkDefaults
from sqlknow.errors import InvariantViolation
from sqlknow.gateway import GatewayConfig
from sqlknow.knowledge import (
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
)
from sqlknow.pattern_graph import (
    Edge,
    GraphConfig,
    PatternGraph,
    QuestionCluster,
    SkeletonCluster,
)
from sqlknow.prompting import MIN_BUDGET
from sqlknow.records import from_json, open_atomic, to_json, utf8_lines
from sqlknow.schema import ColumnDef, DatabaseSchema, TableDef
from sqlknow.synthesis import Difficulty, SqlTemplate, SynthConfig
from sqlknow.term_miner import MineConfig
from sqlknow.textproc import EMBED_DIMENSION

text = st.text(max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**6)
optional_count = st.none() | st.integers(min_value=1, max_value=500)
# a stored vector: a few drawn values, then zeros up to the one embedding width
vectors = st.lists(floats, max_size=4).map(
    lambda head: (*head, *(0.0,) * (EMBED_DIMENSION - len(head))))

vote = st.builds(HumanVote, annotator_id=text, accept=st.booleans())
status = st.builds(
    ValidationStatus,
    state=st.sampled_from(list(State)),
    llm_scores=st.lists(
        st.builds(LlmScore, model_id=text, semantic_consistency=st.integers(1, 5),
                  sql_validity=st.integers(1, 5)),
        max_size=2,
    ).map(tuple),
    human_votes=st.lists(vote, max_size=2).map(tuple),
    adjudication=st.none() | vote,
)
kbs = st.builds(
    KnowledgeBase,
    db_id=text,
    annotations=st.lists(
        st.builds(SchemaAnnotation, target=text, description=text,
                  abbreviation_expansion=st.none() | text,
                  source=st.sampled_from(list(Source)), status=status),
        max_size=3,
    ).map(tuple),
    value_mappings=st.lists(
        st.builds(ValueMapping, column=text, code=text, meaning=text, status=status),
        max_size=3,
    ).map(tuple),
    terms=st.lists(
        st.builds(DomainTerm, term_text=text, sql_expression=text,
                  columns_used=st.lists(text, max_size=3).map(tuple),
                  operator=st.sampled_from(list(Operator)), confidence=floats,
                  explanation=text, status=status),
        max_size=3,
    ).map(tuple),
    pattern_refs=st.lists(
        st.builds(QueryPatternRef, graph_ref=text, skeleton_cluster=counts, note=text),
        max_size=3,
    ).map(tuple),
    graph_ref=text,
)


@st.composite
def schemas(draw):
    tables = []
    for t in range(draw(st.integers(0, 3))):
        names = [f"c{i}" for i in range(draw(st.integers(0, 3)))]
        tables.append((f"t{t}", names))
    column_ids = [f"{t}.{c}" for t, cols in tables for c in cols]
    fk = st.none() | st.sampled_from(column_ids) if column_ids else st.none()
    return DatabaseSchema(
        db_id=draw(text),
        tables=[
            TableDef(t, tuple(ColumnDef(c, draw(text), draw(st.booleans()), draw(fk))
                              for c in cols))
            for t, cols in tables
        ],
        value_samples={c: draw(st.lists(text, max_size=3))
                       for c in column_ids if draw(st.booleans())},
    )


# a medoid must be a fixed point of skeletonize
skeletons = st.sampled_from(["SELECT COUNT(*) FROM _T", "SELECT _C FROM _T WHERE _C = _V",
                             "SELECT _C, SUM(_C) FROM _T GROUP BY _C HAVING COUNT(*) > _V"])


@st.composite
def graphs(draw):
    n_q, n_s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edges = []
    for q in range(n_q):
        targets = draw(st.lists(st.integers(0, n_s - 1), min_size=1, unique=True))
        weights = [draw(st.integers(1, 9)) for _ in targets]
        edges += [Edge(q, s, c, c / sum(weights)) for s, c in zip(targets, weights)]
    return PatternGraph(
        graph_id=draw(text),
        embed_dimension=EMBED_DIMENSION,
        question_clusters=tuple(
            QuestionCluster(q, draw(vectors), draw(text))
            for q in range(n_q)
        ),
        skeleton_clusters=tuple(
            SkeletonCluster(s, draw(skeletons), draw(counts), draw(text), draw(text))
            for s in range(n_s)
        ),
        edges=tuple(edges),
        dropped=tuple(draw(st.lists(st.tuples(counts, text), max_size=3))),
    )


templates = st.builds(
    SqlTemplate, id=text, skeleton_id=text, sql=text,
    difficulty=st.sampled_from(list(Difficulty)), tables_used=counts,
    embedding=vectors,
)


@st.composite
def mine_configs(draw):
    top_k = draw(st.integers(1, 300))
    return MineConfig(clusters=draw(optional_count), top_k=top_k,
                      n_target=top_k + draw(st.integers(0, 300)), seed=draw(counts),
                      review_budget_factor=draw(counts), accepted_target=draw(counts),
                      max_cluster_sweep=draw(counts))


positive = st.integers(1, 100)
shares = st.floats(0, 1, exclude_min=True)
configs = st.builds(
    AppConfig,
    seed=counts,
    reward_timeout_ms=counts,
    link=st.builds(LinkDefaults, k1=positive, k2=positive, k3=positive, k4=positive),
    budgets=st.builds(BudgetDefaults, train=st.integers(MIN_BUDGET, 9000),
                      inference=st.integers(MIN_BUDGET, 9000)),
    graph=st.builds(GraphConfig, question_clusters=optional_count,
                    skeleton_clusters=optional_count, question_sweep=counts,
                    skeleton_sweep=counts, seed=counts, graph_id=text),
    mine=mine_configs(),
    synth=st.builds(SynthConfig, rho=st.floats(0, 1), alpha=floats, sql_variants=counts,
                    phrasings=counts, k_terms=counts, pool_target=optional_count,
                    bucket_shares=st.lists(st.tuples(positive, shares), min_size=1,
                                           max_size=3).map(tuple),
                    all_synthetic_n=optional_count),
    gateway=st.builds(GatewayConfig, backend=text, endpoint=text, auth_env=text,
                      models=st.tuples(text, text), retries=positive,
                      backoff_base=st.floats(0, 1e6)),
)

CASES = {
    "kb": (kbs, oracle.kb_to_dict, oracle.kb_from_dict),
    "schema": (schemas(), oracle.schema_to_dict, oracle.schema_from_dict),
    "graph": (graphs(), oracle.graph_to_dict, oracle.graph_from_dict),
    "template": (templates, oracle.template_to_dict, oracle.template_from_dict),
    "config": (configs, oracle.config_snapshot, oracle.config_from_dict),
}


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_matches_the_hand_written_codecs(kind, data):
    strategy, oracle_to_dict, oracle_from_dict = CASES[kind]
    record = data.draw(strategy)
    assert json.dumps(to_json(record), sort_keys=True) == json.dumps(
        oracle_to_dict(record), sort_keys=True)
    stored = json.loads(json.dumps(oracle_to_dict(record)))
    assert from_json(type(record), stored) == oracle_from_dict(stored) == record


_TERM = {"term_text": "t", "sql_expression": "a.b", "columns_used": ["a.b"]}


@pytest.mark.parametrize("cls, data, message", [
    (KnowledgeBase, {"db_id": "x", "terms": [_TERM, {**_TERM, "confidence": "high"}]},
     'terms[1].confidence: expected a number, got "high"'),
    (KnowledgeBase, {"terms": []}, "db_id: missing"),
    (KnowledgeBase, [], "expected an object, got []"),
    (DomainTerm, {"term_text": "t", "sql_expression": "e"}, "columns_used: missing"),
    (DomainTerm, {**_TERM, "operator": "%"},
     'operator: expected one of "+", "-", "*", "/", "none", got "%"'),
    (ValidationStatus, {"adjudication": {"annotator_id": "a", "accept": 1}},
     "adjudication.accept: expected true or false, got 1"),
    (QueryPatternRef, {"graph_ref": "g", "skeleton_cluster": "3"},
     'skeleton_cluster: expected an integer, got "3"'),
    (QueryPatternRef, {"graph_ref": "g", "skeleton_cluster": True},
     "skeleton_cluster: expected an integer, got true"),
    (DatabaseSchema, {"db_id": "x", "value_samples": {"t.c": ["a", 1]}},
     'value_samples["t.c"][1]: expected a string, got 1'),
    (DatabaseSchema, {"db_id": "x", "tables": {"name": "t"}},
     'tables: expected an array, got {"name": "t"}'),
    (PatternGraph, {"graph_id": "g", "embed_dimension": EMBED_DIMENSION,
                    "question_clusters": [], "skeleton_clusters": [], "edges": [],
                    "dropped": [[1]]},
     "dropped[0]: expected an array of 2, got [1]"),
    (LinkDefaults, {"k3": 0}, "k1, k2, k3 and k4 must all be >= 1"),
])
def test_from_json_names_the_path_of_what_it_rejects(cls, data, message):
    with pytest.raises(InvariantViolation) as rejected:
        from_json(cls, data)
    assert str(rejected.value) == message


def test_from_json_takes_defaults_ignores_unknown_keys_and_widens_ints():
    term = from_json(DomainTerm, {**_TERM, "confidence": 1, "unknown": [1]})
    assert term == DomainTerm("t", "a.b", ("a.b",), confidence=1.0)
    assert type(term.confidence) is float
    assert from_json(GraphConfig, {"question_clusters": None}).question_clusters is None


@pytest.mark.parametrize("before, line", [
    ("", 1), ("a", 1), ("a\n", 2), ("a\nb", 2), ("a\r\n", 2), ("a\r", 1),
    ("a\n\n", 3), ("a\u2028b", 1), ("é\x85", 1),
])
def test_a_byte_that_is_not_utf8_is_named_with_its_line(before, line):
    # lines break at "\n" only, as JSONL rows are numbered
    data = before.encode() + b"\xff\nlast"
    with pytest.raises(InvariantViolation) as err:
        utf8_lines(data, "in.txt")
    assert str(err.value).startswith(f"in.txt line {line}: not UTF-8: ")
    assert utf8_lines(before.encode() + b"?\nlast", "in.txt")[line - 1].endswith("?")


SRC_DIR = Path(__file__).parent.parent / "src" / "sqlknow"
# the review event log is appended to in place, under its lock, and never rewritten
APPEND_ONLY = {("validation.py", "_locked")}


def _opens_to_write(node, function="<module>"):
    """(enclosing function, line) of each call under ``node`` that opens a file
    to write: ``open``/``Path.open`` with a mode holding w, x, a or +, and
    ``write_text``/``write_bytes``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            mode = [k.value for k in child.keywords if k.arg == "mode"]
            if callee == "open":  # open(path, mode) or path.open(mode)
                mode += child.args[isinstance(child.func, ast.Name):][:1]
            modes = [c.value for m in mode for c in ast.walk(m) if isinstance(c, ast.Constant)]
            if callee in ("write_text", "write_bytes") or any(
                    set(m) & set("wxa+") for m in modes if isinstance(m, str)):
                found.append((function, child.lineno))
        inner = getattr(child, "name", function) if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += _opens_to_write(child, inner)
    return found


def test_the_audit_finds_each_way_to_open_a_file_to_write():
    source = ("def f(p):\n    open(p, 'w')\n    open(p, mode='xb')\n    p.open('a')\n"
              "    open(p, 'r+' if p else 'rb')\n    p.write_text('')\n    p.write_bytes(b'')\n"
              "    open(p)\n    open(p, 'rb')\n    p.open()\n    p.read_text()\n")
    assert _opens_to_write(ast.parse(source)) == [("f", line) for line in range(2, 8)]


def test_no_module_except_records_opens_a_file_to_write():
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "records.py":
            continue
        for function, line in _opens_to_write(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) not in APPEND_ONLY:
                offenders.append(f"{path.name}:{line} in {function}")
    assert not offenders, offenders


def test_open_atomic_writes_a_pipe_in_place(tmp_path):
    """A pipe is written, not replaced by a file: a reader gets the bytes. The read
    end is open (non-blocking) before the write, so a regression fails, not hangs."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open_atomic(fifo) as fh:
            fh.write("caf\u00e9\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 64) == "caf\u00e9\n".encode()
        assert os.listdir(tmp_path) == ["pipe"]  # no temp file
    finally:
        os.close(reader)
