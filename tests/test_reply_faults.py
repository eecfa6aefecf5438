"""A gateway reply with one field missing or of another JSON value, through the
command that reads it: the command exits with its documented code and no
traceback, and every pair it writes to ``synth.jsonl`` holds strings."""

import io
import json
import math
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlknow import cli as cli_module
from sqlknow.cli import EXIT_OK, EXIT_PARTIAL, EXIT_PIPELINE, main
from sqlknow.gateway import Gateway, MockRule, MockScript, RequestKind

from fixture_db import build_schools_sqlite, schools_corpus

MISSING = object()  # the field is left out of the reply

_DB = ["--db", "schools.sqlite"]
_COMMANDS = {
    "enrich": ["enrich-schema", *_DB, "--kb", "kb.json", "--mock"],
    "mine": ["mine-terms", *_DB, "--kb", "kb.json", "--top-k", "5", "--n-target", "10", "--mock"],
    "review": ["review", *_DB, "--kb", "kb.json", "--mock"],
    "templates": ["build-templates", *_DB, "--graph", "graph.json", "--out", "templates.jsonl",
                  "--mock"],
    "synthesize": ["synthesize", *_DB, "--kb", "kb.json", "--graph", "graph.json",
                   "--templates", "templates.jsonl", "--m-real", "40", "--out", "synth.jsonl",
                   "--mock"],
}


def _text(v):
    return type(v) is str


def _text_or_null(v):
    return v is None or type(v) is str


def _texts(v):
    return type(v) is list and all(type(x) is str for x in v)


def _integer(v):
    return type(v) is int


# reply kind: (request kind, payload text it holds, {field: fits}, command)
_REPLIES = {
    "review": (RequestKind.REVIEW, None, {
        "valid": lambda v: type(v) is bool,
        "confidence": lambda v: type(v) in (int, float) and 0 <= v <= 1,
        "explanation": _text, "term_text": _text_or_null}, "mine"),
    "score": (RequestKind.SCORE_PAIR, None,
              {"semantic_consistency": _integer, "sql_validity": _integer}, "review"),
    "annotate": (RequestKind.COMPLETE, '"task": "annotate"',
                 {"description": _text, "abbreviation_expansion": _text_or_null}, "enrich"),
    "map_values": (RequestKind.COMPLETE, '"task": "map_values"', {
        "mapping": lambda v: type(v) is dict and all(type(x) is str for x in v.values())},
        "enrich"),
    "expand": (RequestKind.COMPLETE, '"task": "expand_template"', {"sql": _text}, "templates"),
    "generate": (RequestKind.COMPLETE, '"task": "generate_pair"',
                 {"sql": _text, "question": _text, "cot": _text}, "synthesize"),
    "variants": (RequestKind.COMPLETE, '"task": "rewrite_sql"', {"variants": _texts},
                 "synthesize"),
    "phrasings": (RequestKind.COMPLETE, '"task": "rephrase_question"', {"phrasings": _texts},
                  "synthesize"),
}
_REQUIRED = {"semantic_consistency", "sql_validity"}  # the fields with no default


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The schools database, a KB enriched and mined, a graph and its templates."""
    root = tmp_path_factory.mktemp("replies")
    build_schools_sqlite(root / "schools.sqlite")
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in schools_corpus(3)), encoding="utf-8")
    for argv in (_COMMANDS["enrich"], _COMMANDS["mine"],
                 ["build-graph", "--corpus", "corpus.jsonl", *_DB, "--out", "graph.json",
                  "--kq", "3", "--ks", "3"],
                 _COMMANDS["templates"]):
        assert _run(root, argv, MockScript())[0] in (EXIT_OK, EXIT_PARTIAL)
    return root


def _run(where: Path, argv, script: MockScript):
    """``main(argv)`` run in ``where`` through a gateway with ``script``: the exit code
    and stderr."""
    paths = {"schools.sqlite", "kb.json", "graph.json", "templates.jsonl", "corpus.jsonl",
             "synth.jsonl"}
    argv = [str(where / a) if a in paths else a for a in argv]
    err = io.StringIO()
    with mock.patch.object(cli_module, "Gateway", lambda config: Gateway(config, script)), \
            redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _faulty(kind: RequestKind, contains, name: str, value) -> MockScript:
    """The default mock, but each reply of ``kind`` (whose payload holds
    ``contains``) has the field ``name`` left out or set to ``value``."""
    default = MockScript()

    def reply(req):
        body = default.default_response(req)
        body.pop(name, None)
        return body if value is MISSING else {**body, name: value}
    return MockScript(rules=[MockRule(kind, contains=contains, response=reply)])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.floats(-2, 2) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)
_FIELDS = st.sampled_from([(reply, name) for reply, (_, _, fits, _) in _REPLIES.items()
                           for name in fits])


@settings(max_examples=60, deadline=None)
@given(_FIELDS, st.just(MISSING) | _JSON)
@example(("phrasings", "phrasings"), "How many")  # once the questions "H", "o" and "w"
@example(("phrasings", "phrasings"), 5)  # once a TypeError
@example(("variants", "variants"), "SELECT 1")
@example(("review", "confidence"), 1.5)  # once stored, then refused by store_kb
@example(("review", "confidence"), math.nan)
@example(("review", "valid"), "no")  # once counted as valid
@example(("review", "explanation"), ["a", "list"])
@example(("annotate", "abbreviation_expansion"), 5)
@example(("map_values", "mapping"), ["Y", "N"])
@example(("map_values", "mapping"), {"1": 1, "0": "no"})  # a meaning once str()-ed
@example(("score", "semantic_consistency"), 4.9)  # once truncated to 4
@example(("score", "sql_validity"), "5")  # once read as 5
@example(("generate", "sql"), ["SELECT 1"])  # once its repr
def test_a_reply_field_missing_or_of_another_value_ends_its_command_as_documented(
        workspace, field, value):
    reply, name = field
    kind, contains, fits, command = _REPLIES[reply]
    fit = name not in _REQUIRED if value is MISSING else fits[name](value)
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for path in workspace.iterdir():
            if path.is_file():
                shutil.copyfile(path, where / path.name)
        kb_before = (where / "kb.json").read_bytes()
        code, err = _run(where, _COMMANDS[command], _faulty(kind, contains, name, value))
        assert "Traceback" not in err
        if command in ("mine", "review"):  # the reply decides the stage
            assert code in ((EXIT_OK, EXIT_PARTIAL) if fit else (EXIT_PIPELINE,)), err
            if not fit:
                assert "reply from reviewer-" in err and "does not fit" in err
                assert (where / "kb.json").read_bytes() == kb_before
        elif command == "enrich" and not fit:  # every such item fails
            assert code == EXIT_PARTIAL
        else:  # a rejection, a skipped skeleton or a fallback slot
            assert code in (EXIT_OK, EXIT_PARTIAL), err
        if command == "synthesize":
            rows = [json.loads(line) for line in
                    (where / "synth.jsonl").read_text(encoding="utf-8").splitlines()]
            assert all(type(row[key]) is str for row in rows
                       for key in ("question", "sql", "cot", "template_id", "db_id"))
            if reply == "phrasings" and not fit:
                originals = {row["question"] for row in rows if row["variant_tag"][1] == 0}
                assert {row["question"] for row in rows} == originals
