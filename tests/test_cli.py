"""CLI subcommands: file flows, manifests, exit codes, review queue."""

import collections
import errno
import hashlib
import io
import json
import os
import re
import shutil
import sqlite3
import sys
import tempfile
import urllib.request
from contextlib import closing, redirect_stderr
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlknow import cli as cli_module
from sqlknow import knowledge as kn
from sqlknow import pattern_graph as pg
from sqlknow import reward as rw
from sqlknow import sql_tokens
from sqlknow import validation as vd
from sqlknow.cli import EXIT_OK, EXIT_PARTIAL, EXIT_PIPELINE, EXIT_USAGE, cli, main
from sqlknow.config import AppConfig
from sqlknow.records import from_json, to_json
from sqlknow.schema import load_schema_any
from sqlknow.textproc import EMBED_DIMENSION

import retrieval_oracle
from fixture_db import build_schools_sqlite, edited_sql, schools_corpus

runner = CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    db = tmp_path / "schools.sqlite"
    build_schools_sqlite(db)
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w") as fh:
        for row in schools_corpus():
            fh.write(json.dumps(row) + "\n")
    return tmp_path


def invoke(args, **kwargs):
    result = runner.invoke(cli, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def test_enrich_schema_writes_kb_and_manifest(workdir):
    kb_path = workdir / "kb.json"
    invoke(["enrich-schema", "--db", str(workdir / "schools.sqlite"),
            "--kb", str(kb_path), "--mock"])
    kb = kn.load_kb(kb_path)
    assert kb.annotations and kb.value_mappings
    manifest = json.loads((workdir / "kb.json.manifest.json").read_text())
    assert manifest["command"] == "enrich-schema"
    assert manifest["token_usage"]
    assert manifest["input_digests"]


def test_mine_terms_appends_terms_with_cap(workdir):
    kb_path = workdir / "kb.json"
    invoke(["mine-terms", "--db", str(workdir / "schools.sqlite"),
            "--kb", str(kb_path), "--top-k", "25", "--n-target", "50", "--mock"])
    kb = kn.load_kb(kb_path)
    assert 0 < len(kb.terms) <= 25
    confidences = [t.confidence for t in kb.terms]
    assert confidences == sorted(confidences, reverse=True)
    manifest = json.loads((workdir / "kb.json.manifest.json").read_text())
    assert manifest["mining_report"]["accepted_target"] == 20


def test_mine_terms_reports_accepted_terms_of_the_kb(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    for annotator in ("ann1", "ann2"):
        runner.invoke(cli, ["review", "--db", db, "--kb", kb_path, "--mock",
                            "--annotator", annotator], input="a\n" * 200,
                      catch_exceptions=False)
    accepted = len(kn.load_kb(kb_path).accepted_terms)
    assert accepted > 0
    result = invoke(["--seed", "3", "mine-terms", "--db", db, "--kb", kb_path,
                     "--top-k", "20", "--n-target", "40", "--mock"])
    assert f"accepted terms: {accepted} / target 20" in result.output
    manifest = json.loads((workdir / "kb.json.manifest.json").read_text())
    assert manifest["mining_report"]["accepted_current"] == accepted


def build_pipeline(workdir, seed="3", options=()):
    db = str(workdir / "schools.sqlite")
    kb = str(workdir / "kb.json")
    graph = str(workdir / "graph.json")
    invoke([*options, "--seed", seed, "enrich-schema", "--db", db, "--kb", kb, "--mock"])
    invoke([*options, "--seed", seed, "mine-terms", "--db", db, "--kb", kb,
            "--top-k", "20", "--n-target", "40", "--mock"])
    invoke([*options, "--seed", seed, "build-graph", "--corpus", str(workdir / "corpus.jsonl"),
            "--db", db, "--kb", kb, "--out", graph, "--kq", "6", "--ks", "8"])
    return db, kb, graph


def test_build_graph_updates_pattern_refs(workdir):
    _db, kb_path, graph_path = build_pipeline(workdir)
    kb = kn.load_kb(kb_path)
    graph = json.loads(Path(graph_path).read_text())
    assert kb.graph_ref == graph["graph_id"]
    assert len(kb.pattern_refs) == len(graph["skeleton_clusters"])


def test_link_writes_scored_selection(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    out = workdir / "link.json"
    invoke(["link", "--db", db, "--kb", kb_path, "--question",
            "Which schools in Fresno are fully virtual?", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["tables"]
    assert any("schools" == t for t, _ in payload["tables"])


def test_eval_slr_emits_monotone_csv(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    out = workdir / "slr.csv"
    invoke(["eval-slr", "--db", db, "--kb", kb_path,
            "--eval", str(workdir / "corpus.jsonl"), "--k2", "4,8,12,16",
            "--out", str(out)])
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "k2,slr_step1,slr_step2,hits,evaluated,excluded"
    assert len(rows) == 5
    step2 = [float(r.split(",")[2]) for r in rows[1:]]
    assert step2 == sorted(step2)
    step1 = [float(r.split(",")[1]) for r in rows[1:]]
    for s1, s2 in zip(step1, step2):
        assert s2 >= s1


def test_assemble_prompt_respects_budget(workdir):
    db, kb_path, graph_path = build_pipeline(workdir)
    out = workdir / "prompt.txt"
    result = invoke(["assemble-prompt", "--db", db, "--kb", kb_path,
                     "--graph", graph_path, "--question",
                     "What is the free meal rate of schools in Fresno?",
                     "--budget", "4096", "--out", str(out)])
    assert "tokens:" in result.output
    text = out.read_text()
    assert "### QUESTION" in text
    assert "What is the free meal rate of schools in Fresno?" in text

    invoke(["assemble-prompt", "--db", db, "--kb", kb_path, "--graph", graph_path,
            "--question", "What is the free meal rate of schools in Fresno?",
            "--budget", "400", "--out", str(out)])
    manifest = json.loads((workdir / "prompt.txt.manifest.json").read_text())
    assert manifest["truncated"] and manifest["token_count"] <= 400
    assert manifest["dropped"]["columns"] > 0
    assert manifest["dropped"]["qa_pairs"] == 0


def test_qa_pairs_are_the_pairs_of_the_drawn_clusters_in_draw_order(workdir, monkeypatch):
    """Clusters that share a medoid skeleton keep their own question-SQL pairs: the
    fixture graph's 135 skeleton clusters hold 8 distinct medoids."""
    monkeypatch.chdir(workdir)
    assert main(["build-graph", "--corpus", "corpus.jsonl", "--db", "schools.sqlite",
                 "--out", "graph.json"]) == EXIT_OK
    graph, schema, config = pg.load_graph("graph.json"), load_schema_any("schools.sqlite"), \
        AppConfig()
    assert len(graph.skeleton_clusters) == 135
    pair = re.compile(r"^[0-9]+\. Q: (.*)\n   A: (.*)$", re.MULTILINE)
    for row in schools_corpus()[:40]:
        question = row["question"]
        assert main(["assemble-prompt", "--db", "schools.sqlite", "--graph", "graph.json",
                     "--question", question, "--qa-pairs", "--budget", "100000",
                     "--out", "prompt.txt"]) == EXIT_OK
        drawn = retrieval_oracle.retrieve_cluster_ids(question, graph, config.link.k4,
                                                      config.seed, schema=schema)
        expected = [(sc.medoid_question, sc.medoid_sql) for sc in
                    (retrieval_oracle.skeleton_cluster(graph, cid) for cid in drawn)]
        assert expected
        assert pair.findall(Path("prompt.txt").read_text()) == expected, question


def test_build_templates_and_synthesize(workdir):
    db, kb_path, graph_path = build_pipeline(workdir)
    templates = workdir / "templates.jsonl"
    invoke(["build-templates", "--db", db, "--graph", graph_path,
            "--mock", "--out", str(templates)])
    lines = [json.loads(l) for l in templates.read_text().splitlines()]
    assert lines and all("sql" in t for t in lines)

    synth = workdir / "synth.jsonl"
    invoke(["--seed", "3", "synthesize", "--db", db, "--kb", kb_path,
            "--graph", graph_path, "--templates", str(templates),
            "--m-real", "120", "--rho", "0.6", "--alpha", "10", "--mock",
            "--out", str(synth)])
    records = [json.loads(l) for l in synth.read_text().splitlines()]
    # N = ceil(1.5 * 120/16) = 12 sampled -> every accepted base pair fans to 16
    assert len(records) % 16 == 0
    assert len(records) == 12 * 16
    tags = {tuple(r["variant_tag"]) for r in records}
    assert (0, 0) in tags
    assert all(r["provenance"] == "synthesized" for r in records)


def _count_tokenize(monkeypatch) -> collections.Counter:
    """Count calls by text through every sqlknow module's binding of
    ``sql_tokens.tokenize``, the bindings the benchmark's trace counts."""
    original = sql_tokens.tokenize
    calls = collections.Counter()

    def counting(sql, *args, **kwargs):
        calls[sql] += 1
        return original(sql, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "sqlknow" or name.startswith("sqlknow.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_build_templates_and_synthesize_tokenize_each_text_once(workdir, monkeypatch):
    db, kb_path, graph_path = build_pipeline(workdir)
    templates = workdir / "templates.jsonl"
    calls = _count_tokenize(monkeypatch)
    invoke(["build-templates", "--db", db, "--graph", graph_path,
            "--mock", "--out", str(templates)])
    assert calls and max(calls.values()) == 1, calls.most_common(3)
    calls.clear()
    invoke(["--seed", "3", "synthesize", "--db", db, "--kb", kb_path,
            "--graph", graph_path, "--templates", str(templates),
            "--m-real", "120", "--rho", "0.6", "--alpha", "10", "--mock",
            "--out", str(workdir / "synth.jsonl")])
    assert calls and max(calls.values()) == 1, calls.most_common(3)


def test_score_reward_histogram(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    candidates = workdir / "cands.jsonl"
    rows = [
        {"id": "ok", "question": "How many schools are there?",
         "gold_sql": "SELECT COUNT(*) FROM schools",
         "candidate_sql": "SELECT COUNT(*) FROM schools"},
        {"id": "bad", "question": "How many schools are there?",
         "gold_sql": "SELECT COUNT(*) FROM schools",
         "candidate_sql": "SELECT nonsense FROM nowhere"},
        {"id": "multi", "question": "How many schools are there?",
         "gold_sql": "SELECT COUNT(*) FROM schools",
         "candidates": ["SELECT COUNT(*) FROM schools", "garbage ("]},
    ]
    with open(candidates, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    out = workdir / "rewards.json"
    invoke(["score-reward", "--db", db, "--kb", kb_path,
            "--candidates", str(candidates), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["tier_histogram"]["ExecMatch"] == 2
    assert payload["tier_histogram"]["Invalid"] == 2


def test_export_graph_cypher(workdir):
    db, _, graph_path = build_pipeline(workdir)
    out = workdir / "graph.cypher"
    invoke(["export-graph", "--graph", graph_path, "--out", str(out)])
    text = out.read_text()
    assert "CREATE (:QuestionCluster" in text
    assert "GENERATES" in text


def test_review_empty_queue(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    # fresh KB with no pending items -> after llm scoring everything queued;
    # so use --no-llm-score on a KB whose items are still Pending
    result = invoke(["review", "--db", db, "--kb", kb_path, "--no-llm-score"])
    assert "queue empty" in result.output


def test_review_two_annotators_then_accept(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    # stage 1: LLM gate moves Pending -> HumanQueued, ann1 accepts everything
    result = runner.invoke(
        cli,
        ["review", "--db", db, "--kb", kb_path, "--mock", "--annotator", "ann1"],
        input="a\n" * 200,
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    # stage 2: ann2 accepts everything -> items accepted
    result = runner.invoke(
        cli,
        ["review", "--db", db, "--kb", kb_path, "--mock", "--annotator", "ann2"],
        input="a\n" * 200,
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    kb = kn.load_kb(kb_path)
    accepted = [t for t in kb.terms if t.status.state is kn.State.ACCEPTED]
    assert accepted
    events_path = Path(str(kb_path) + ".events.jsonl")
    assert events_path.exists()
    events = [json.loads(l) for l in events_path.read_text().splitlines()]
    assert {e["event"] for e in events} >= {"score", "vote"}


def test_review_disagreement_needs_adjudicator(workdir):
    db, kb_path, _ = build_pipeline(workdir)
    runner.invoke(cli, ["review", "--db", db, "--kb", kb_path, "--mock",
                        "--annotator", "ann1"], input="a\n" * 200,
                  catch_exceptions=False)
    runner.invoke(cli, ["review", "--db", db, "--kb", kb_path, "--mock",
                        "--annotator", "ann2"], input="r\n" + "s\n" * 200,
                  catch_exceptions=False)
    kb = kn.load_kb(kb_path)
    contested = [
        item for item in list(kb.annotations) + list(kb.value_mappings) + list(kb.terms)
        if len(item.status.human_votes) == 2
        and item.status.human_votes[0].accept != item.status.human_votes[1].accept
    ]
    assert contested
    result = runner.invoke(cli, ["review", "--db", db, "--kb", kb_path, "--mock",
                                 "--adjudicator", "expert"], input="a\n" * 200,
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    kb = kn.load_kb(kb_path)
    resolved = [
        item for item in list(kb.annotations) + list(kb.value_mappings) + list(kb.terms)
        if item.status.adjudication is not None
    ]
    assert resolved
    assert all(item.status.state is kn.State.ACCEPTED for item in resolved)


# -- CLI surface: option names and manifest keys of every command ---------------------

OPTION_NAMES = {
    "enrich-schema": ["--db", "--db-id", "--kb", "--manifest", "--mock"],
    "mine-terms": ["--db", "--db-id", "--kb", "--manifest", "--mock", "--n-target",
                   "--top-k"],
    "build-graph": ["--corpus", "--db", "--db-id", "--kb", "--kq", "--ks", "--manifest",
                    "--mock", "--out"],
    "link": ["--db", "--db-id", "--k1", "--k2", "--k3", "--kb", "--manifest", "--mock",
             "--out", "--question"],
    "eval-slr": ["--db", "--db-id", "--eval", "--k1", "--k2", "--k3", "--kb", "--manifest",
                 "--mock", "--out"],
    "assemble-prompt": ["--budget", "--db", "--db-id", "--graph", "--k4", "--kb",
                        "--manifest", "--mock", "--out", "--qa-pairs", "--question"],
    "build-templates": ["--db", "--db-id", "--graph", "--manifest", "--mock", "--out",
                        "--pool-target", "--skeletons"],
    "synthesize": ["--alpha", "--db", "--db-id", "--graph", "--kb", "--m-real", "--manifest",
                   "--mock", "--out", "--rho", "--templates"],
    "score-reward": ["--candidates", "--db", "--db-id", "--kb", "--manifest", "--mock",
                     "--out"],
    "review": ["--adjudicator", "--annotator", "--db", "--db-id", "--events", "--kb",
               "--llm-score", "--manifest", "--mock", "--no-llm-score"],
    "export-graph": ["--graph", "--manifest", "--mock", "--out"],
}

MANIFEST_KEYS = {"command", "config", "seeds", "input_digests", "output_paths",
                 "timing_seconds", "token_usage"}

# command -> (arguments, default manifest file, manifest extras); paths are relative to
# a copy of the built pipeline directory
SURFACE_RUNS = {
    "enrich-schema": (["--db", "schools.sqlite", "--kb", "kb.json", "--mock"],
                      "kb.json.manifest.json", {"failures"}),
    "mine-terms": (["--db", "schools.sqlite", "--kb", "kb.json", "--top-k", "5", "--n-target", "10",
                    "--mock"], "kb.json.manifest.json", {"mining_report"}),
    "build-graph": (["--corpus", "corpus.jsonl", "--db", "schools.sqlite", "--kb", "kb.json",
                     "--out", "g2.json", "--kq", "2", "--ks", "2"],
                    "g2.json.manifest.json", {"dropped"}),
    "link": (["--db", "schools.sqlite", "--kb", "kb.json", "--question", "How many schools?",
              "--out", "link.json"], "link.json.manifest.json", set()),
    "eval-slr": (["--db", "schools.sqlite", "--kb", "kb.json", "--eval", "corpus.jsonl", "--k2", "4",
                  "--out", "slr.csv"], "slr.csv.manifest.json", set()),
    "assemble-prompt": (["--db", "schools.sqlite", "--kb", "kb.json", "--graph", "graph.json",
                         "--question", "How many schools?", "--out", "prompt.txt"],
                        "prompt.txt.manifest.json", {"token_count", "truncated", "dropped"}),
    "build-templates": (["--db", "schools.sqlite", "--graph", "graph.json", "--mock",
                         "--out", "t2.jsonl"], "t2.jsonl.manifest.json",
                        {"rejected", "rejected_reasons", "skipped_skeletons"}),
    "synthesize": (["--db", "schools.sqlite", "--kb", "kb.json", "--graph", "graph.json",
                    "--templates", "templates.jsonl", "--m-real", "16", "--mock",
                    "--out", "synth.jsonl"], "synth.jsonl.manifest.json",
                   {"sampled", "distinct", "base_pairs", "augmented", "rejected",
                    "rejected_reasons"}),
    "score-reward": (["--db", "schools.sqlite", "--kb", "kb.json", "--candidates", "cands.jsonl",
                      "--out", "rewards.json"], "rewards.json.manifest.json", set()),
    "review": (["--db", "schools.sqlite", "--kb", "kb.json", "--mock"],
               "kb.json.review-manifest.json", {"events_appended"}),
    "export-graph": (["--graph", "graph.json", "--out", "graph.cypher"],
                     "graph.cypher.manifest.json", set()),
}

# command -> (the files its SURFACE_RUNS run reads, the manifest's output_paths)
SURFACE_FILES = {
    "enrich-schema": (["schools.sqlite", "kb.json"], ["kb.json"]),
    "mine-terms": (["schools.sqlite", "kb.json"], ["kb.json"]),
    "build-graph": (["corpus.jsonl", "schools.sqlite", "kb.json"], ["g2.json", "kb.json"]),
    "link": (["schools.sqlite", "kb.json"], ["link.json"]),
    "eval-slr": (["schools.sqlite", "kb.json", "corpus.jsonl"], ["slr.csv"]),
    "assemble-prompt": (["schools.sqlite", "kb.json", "graph.json"], ["prompt.txt"]),
    "build-templates": (["schools.sqlite", "graph.json"], ["t2.jsonl"]),
    "synthesize": (["schools.sqlite", "kb.json", "graph.json", "templates.jsonl"],
                   ["synth.jsonl"]),
    "score-reward": (["schools.sqlite", "kb.json", "cands.jsonl"], ["rewards.json"]),
    "review": (["schools.sqlite", "kb.json"], ["kb.json", "kb.json.events.jsonl"]),
    "export-graph": (["graph.json"], ["graph.cypher"]),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("surface")
    db = workdir / "schools.sqlite"
    build_schools_sqlite(db)
    with open(workdir / "corpus.jsonl", "w") as fh:
        for row in schools_corpus():
            fh.write(json.dumps(row) + "\n")
    kb, graph = str(workdir / "kb.json"), str(workdir / "graph.json")
    invoke(["enrich-schema", "--db", str(db), "--kb", kb, "--mock"])
    invoke(["build-graph", "--corpus", str(workdir / "corpus.jsonl"), "--db", str(db),
            "--kb", kb, "--out", graph, "--kq", "3", "--ks", "4"])
    invoke(["build-templates", "--db", str(db), "--graph", graph, "--mock",
            "--out", str(workdir / "templates.jsonl")])
    (workdir / "cands.jsonl").write_text(json.dumps(
        {"id": "a", "question": "How many schools?", "gold_sql": "SELECT COUNT(*) FROM schools",
         "candidate_sql": "SELECT COUNT(*) FROM schools"}) + "\n")
    for manifest in workdir.glob("*manifest.json"):
        manifest.unlink()
    return workdir


@pytest.mark.parametrize("command", sorted(OPTION_NAMES))
def test_cli_surface(command, built_dir, tmp_path, monkeypatch):
    params = cli.commands[command].params
    assert sorted(o for p in params for o in p.opts + p.secondary_opts) == \
        OPTION_NAMES[command]

    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    args, manifest_name, extras = SURFACE_RUNS[command]
    reads, writes = SURFACE_FILES[command]
    before = {name: _sha256(name) for name in reads}
    assert main([command, *args]) in (EXIT_OK, EXIT_PARTIAL)
    manifest = json.loads((tmp_path / manifest_name).read_text())
    assert set(manifest) == MANIFEST_KEYS | extras
    assert manifest["command"] == command
    assert manifest["input_digests"] == before  # every file read, as it was before the run
    assert manifest["output_paths"] == writes
    if command == "assemble-prompt":
        assert manifest["dropped"] == {"columns": 0, "qa_pairs": 0, "skeletons": 0,
                                       "terms": 0}


def test_each_config_flag_reaches_the_manifest_config(built_dir, tmp_path, monkeypatch):
    """Each option a command's ``settings`` names is a config override: the manifest
    records the config the run used, the flag's value included."""
    defaults = to_json(AppConfig())
    flagged = {name: cmd for name, cmd in cli.commands.items() if cmd.settings}
    assert flagged
    for command, cmd in flagged.items():
        shutil.copytree(built_dir, tmp_path / command)
        monkeypatch.chdir(tmp_path / command)
        args, manifest_name, _extras = SURFACE_RUNS[command]
        params = {p.name: p for p in cmd.params}
        given = {}
        for setting in cmd.settings:  # a value of the option's type that no default holds
            param = params[setting.split(".")[1]]
            given[setting] = 0.5 if param.type is click.FLOAT else 4 * param.type.min
            args = [*args, param.opts[0], str(given[setting])]
        assert main([command, *args]) in (EXIT_OK, EXIT_PARTIAL), command
        config = json.loads(Path(manifest_name).read_text())["config"]
        for setting, value in given.items():
            section, key = setting.split(".")
            assert config[section][key] == value != defaults[section][key], setting


# -- exit codes ----------------------------------------------------------------------


def test_exit_usage_on_bad_flags():
    assert main(["link", "--nonsense"]) == EXIT_USAGE


def test_exit_usage_on_config_error(workdir):
    bad_config = workdir / "bad.json"
    bad_config.write_text('{"unknown_section": {}}')
    # the config loads once the options parse, so --graph names a file that exists
    assert main(["--config", str(bad_config), "export-graph", "--graph", str(bad_config),
                 "--out", "y"]) == EXIT_USAGE


def test_exit_usage_on_config_values_a_section_rejects(workdir):
    bad_config = workdir / "bad.json"
    bad_config.write_text('{"mine": {"top_k": 500}}')  # default n_target is 300
    assert main(["--config", str(bad_config), "export-graph", "--graph", str(bad_config),
                 "--out", "y"]) == EXIT_USAGE


@pytest.mark.parametrize("field", ["sql_variants", "phrasings"])
def test_exit_usage_on_a_negative_synth_fanout(built_dir, tmp_path, monkeypatch, capsys, field):
    # a negative count would make the fan-out 0 and divide by it when drawing
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"synth": {field: -1}}))
    args, _manifest, _extras = SURFACE_RUNS["synthesize"]
    assert main(["--config", "bad.json", "synthesize", *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: bad config value: synth: ") and field in err
    assert not (tmp_path / "synth.jsonl").exists()


@pytest.mark.parametrize("source, command", [
    ("flag", "assemble-prompt"), ("environment", "build-graph"), ("file", "build-graph"),
])
def test_exit_usage_on_a_negative_seed(built_dir, tmp_path, monkeypatch, capsys, source,
                                       command):
    # numpy's PCG64 takes no negative seed; each source of one is a config error
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    options = {"flag": ["--seed=-1"], "environment": [], "file": ["--config", "seed.json"]}
    if source == "environment":
        monkeypatch.setenv("SQLKNOW_SEED", "-1")
    (tmp_path / "seed.json").write_text('{"seed": -1}')
    args, _manifest, _extras = SURFACE_RUNS[command]
    assert main([*options[source], command, *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: bad config value: seed: ") and "-1" in err


@pytest.mark.parametrize("argv", [
    ["link", "--question", "q", "--k2", "0"],
    ["link", "--question", "q", "--k2", "-1"],
    ["assemble-prompt", "--question", "q", "--budget", "0"],
    ["eval-slr", "--eval", "corpus.jsonl", "--k2", "4,x"],
    ["eval-slr", "--eval", "corpus.jsonl", "--k2", "4,0"],
    ["assemble-prompt", "--question", "q", "--budget", "255"],  # below MIN_BUDGET
    ["eval-slr", "--eval", "corpus.jsonl", "--k2", " , "],  # an empty sweep
])
def test_exit_usage_on_bad_integer_flags(workdir, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    assert main([*argv, "--db", "schools.sqlite", "--out", "out"]) == EXIT_USAGE
    assert not (workdir / "out").exists()
    assert not (workdir / "out.manifest.json").exists()


@pytest.mark.parametrize("argv, reason", [
    (["link", "--question", "q", "--k2", "0"], "0 is not in the range x>=1."),
    (["eval-slr", "--eval", "corpus.jsonl", "--k2", "4,x"], "'x' is not a valid integer"),
    (["eval-slr", "--eval", "corpus.jsonl", "--k2", " , "], "' , ' names no k2"),
])
def test_a_usage_error_names_its_option_once(workdir, monkeypatch, capsys, argv, reason):
    monkeypatch.chdir(workdir)
    assert main([*argv, "--db", "schools.sqlite", "--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: Invalid value for '--k2': ") and reason in err, err
    assert err.count("--k2") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["link", "--question", "q", "--out", "out.json"],
    ["assemble-prompt", "--question", "q", "--out", "out.txt"],
    ["mine-terms", "--mock"],
    ["review", "--mock", "--annotator", "ann1"],
], ids=["link", "assemble-prompt", "mine-terms", "review"])
@pytest.mark.parametrize("fault, bad", [
    ("duplicate value mapping", kn.KnowledgeBase(
        "schools", value_mappings=(kn.ValueMapping("schools.County", "F", "f"),) * 2)),
    ("confidence out of [0,1]", kn.KnowledgeBase("schools", terms=(kn.DomainTerm(
        "rate", "schools.County", ("schools.County",), confidence=1.5),))),
], ids=["duplicate-mapping", "confidence-1.5"])
def test_a_kb_that_store_kb_would_refuse_exits_3_when_read(workdir, monkeypatch, capsys,
                                                           command, fault, bad):
    monkeypatch.chdir(workdir)
    Path("kb.json").write_text(json.dumps(to_json(bad)), encoding="utf-8")
    before = Path("kb.json").read_bytes()
    calls = []
    monkeypatch.setattr(cli_module.Gateway, "dispatch", lambda gateway, req: calls.append(req))
    monkeypatch.setattr("click.prompt", lambda *args, **kwargs: "a")
    assert main([command[0], "--db", "schools.sqlite", "--kb", "kb.json", *command[1:]]) == (
        EXIT_PIPELINE)
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: kb.json: ") and fault in err, err
    assert "Traceback" not in err
    assert calls == []
    assert Path("kb.json").read_bytes() == before
    assert not list(workdir.glob("*.manifest.json")) and not list(workdir.glob("out.*"))


@pytest.mark.parametrize("source", ["env", "config"])
@pytest.mark.parametrize("section_key", ["inference", "train"])
def test_exit_usage_on_budgets_below_the_minimum(workdir, monkeypatch, capsys, source,
                                                 section_key):
    monkeypatch.chdir(workdir)
    argv = ["assemble-prompt", "--db", "schools.sqlite", "--question", "q", "--out", "out"]
    if source == "env":
        monkeypatch.setenv(f"SQLKNOW_BUDGET_{section_key.upper()}", "100")
    else:
        (workdir / "budgets.json").write_text(json.dumps({"budgets": {section_key: 100}}))
        argv = ["--config", "budgets.json", *argv]
    assert main(argv) == EXIT_USAGE
    assert "256" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["mine-terms", "--kb", "kb.json", "--n-target", "40"],  # --top-k defaults to 150
    ["mine-terms", "--kb", "kb.json", "--top-k", "-1", "--n-target", "40"],
    ["mine-terms", "--kb", "kb.json", "--n-target", "0"],
    ["build-graph", "--corpus", "corpus.jsonl", "--kq", "0", "--out", "out"],
    ["build-graph", "--corpus", "corpus.jsonl", "--ks", "-2", "--out", "out"],
    ["build-templates", "--skeletons", "skeletons.txt", "--pool-target", "0", "--mock",
     "--out", "out"],
    ["synthesize", "--graph", "corpus.jsonl", "--templates", "corpus.jsonl", "--m-real", "0",
     "--mock", "--out", "out"],
])
def test_exit_usage_on_bad_count_flags(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    (workdir / "skeletons.txt").write_text("SELECT School FROM schools\n")
    assert main([*argv, "--db", "schools.sqlite"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "out").exists() and not (workdir / "kb.json").exists()


def test_two_review_sessions_from_one_snapshot_keep_both_votes(workdir, monkeypatch):
    db, kb_path, _ = build_pipeline(workdir)
    invoke(["review", "--db", db, "--kb", kb_path, "--mock"])  # score: everything queued
    queued = len(kn.load_kb(kb_path).terms)
    review = ["review", "--db", db, "--kb", kb_path, "--mock", "--annotator"]
    # ann2's whole session runs while ann1's waits at its first prompt, so both
    # sessions read the same KB and log
    prompts = []

    def prompt(text, default=None):
        prompts.append(text)
        if len(prompts) == 1:
            assert main([*review, "ann2"]) == EXIT_OK
        return "a"

    monkeypatch.setattr("click.prompt", prompt)
    assert main([*review, "ann1"]) == EXIT_OK
    kb = kn.load_kb(kb_path)
    assert queued and len(kb.terms) == queued
    assert all(sorted(v.annotator_id for v in t.status.human_votes) == ["ann1", "ann2"]
               and t.status.state is kn.State.ACCEPTED for t in kb.terms)
    result = invoke(["review", "--db", db, "--kb", kb_path, "--no-llm-score"])
    assert "queue remaining: 0" in result.output


_LINK = ["link", "--db", "schools.sqlite", "--question", "How many schools?", "--out", "out"]
_UNIT = [1.0] + [0.0] * (EMBED_DIMENSION - 1)  # a stored vector of the one width
_GRAPH = {"graph_id": "g", "embed_dimension": EMBED_DIMENSION,
          "question_clusters": [{"id": 0, "centroid": _UNIT, "medoid_question": "q"}],
          "skeleton_clusters": [{"id": 0, "medoid_skeleton": "SELECT _C FROM _T", "members": 1}],
          "edges": [{"q_cluster": 0, "s_cluster": 0, "count": 1, "prob": 1.0}]}
_TEMPLATE = {"id": "t", "skeleton_id": "s", "sql": "SELECT School FROM schools",
             "difficulty": "Easy", "tables_used": 1, "embedding": _UNIT}
_TERM = {"term_text": "t", "sql_expression": "schools.School", "columns_used": ["schools.School"]}
_TERM_KEY = from_json(kn.DomainTerm, _TERM).item_key
_KB = {"kb.json": {"db_id": "schools", "terms": [_TERM]}}
_REVIEW = ["review", "--db", "schools.sqlite", "--kb", "kb.json", "--mock"]
_VOTE = {"item": _TERM_KEY, "event": "vote", "annotator_id": "a", "accept": True}
_SCORE_EVENT = {"item": _TERM_KEY, "event": "score", "model_id": "m1",
                "semantic_consistency": 5, "sql_validity": 5}
_REQUEST = {"id": "a", "question": "How many schools?", "gold_sql": "SELECT COUNT(*) FROM schools",
            "candidate_sql": "SELECT 1"}
_PAIR = {"db_id": "schools", "question": "How many schools?", "sql": "SELECT 1"}
_SCORE = ["score-reward", "--db", "schools.sqlite", "--candidates", "in.jsonl", "--out", "out"]
_BUILD = ["build-graph", "--corpus", "in.jsonl", "--db", "schools.sqlite", "--out", "out"]
_EVAL = ["eval-slr", "--eval", "in.jsonl", "--db", "schools.sqlite", "--out", "out"]
_ENRICH = ["enrich-schema", "--kb", "kb.json", "--mock", "--db"]


def _rows(*rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("code, files, env, argv, message", [
    (EXIT_PIPELINE, {"kb.json": "{not json"}, {}, [*_LINK, "--kb", "kb.json"],
     "kb.json: not JSON"),
    (EXIT_PIPELINE, {"kb.json": {"db_id": "schools", "annotations": [{"target": "schools"}]}},
     {}, [*_LINK, "--kb", "kb.json"], "kb.json: annotations[0].description: missing"),
    (EXIT_PIPELINE, {"kb.json": {"db_id": "schools", "terms": [{**_TERM, "confidence": "high"}]}},
     {}, [*_LINK, "--kb", "kb.json"],
     'kb.json: terms[0].confidence: expected a number, got "high"'),
    (EXIT_PIPELINE, {"kb.json": {"db_id": "schools", "terms": [
        {**_TERM, "status": {"state": "Approved"}}]}}, {}, [*_LINK, "--kb", "kb.json"],
     'kb.json: terms[0].status.state: expected one of "Pending"'),
    (EXIT_PIPELINE, {"g.json": {**_GRAPH, "embed_dimension": "4"}}, {},
     ["export-graph", "--graph", "g.json", "--out", "out"],
     'g.json: embed_dimension: expected an integer, got "4"'),
    (EXIT_PIPELINE, {"x.json": {"db_id": "x", "tables": [
        {"name": "t", "columns": [{"name": "a", "pk": 1}]}]}}, {},
     ["link", "--db", "x.json", "--question", "q", "--out", "out"],
     "x.json: tables[0].columns[0].pk: expected true or false, got 1"),
    (EXIT_PIPELINE, {"g.json": _GRAPH, "t.jsonl": "\n".join(
        json.dumps(t) for t in [_TEMPLATE, {**_TEMPLATE, "tables_used": "2"}])}, {},
     ["synthesize", "--db", "schools.sqlite", "--graph", "g.json", "--templates", "t.jsonl",
      "--m-real", "10", "--mock", "--out", "out"],
     't.jsonl: [1].tables_used: expected an integer, got "2"'),
    (EXIT_PIPELINE, {"bad.jsonl": '{"db_id": "schools"}\nnot json\n'}, {},
     ["build-graph", "--corpus", "bad.jsonl", "--db", "schools.sqlite", "--out", "out"],
     "bad.jsonl line 2: not JSON"),
    (EXIT_USAGE, {"c.json": "{not json"}, {}, ["--config", "c.json", *_LINK],
     "c.json is not JSON"),
    (EXIT_USAGE, {"c.json": {"seed": "x"}}, {}, ["--config", "c.json", *_LINK],
     'seed: expected an integer, got "x"'),
    (EXIT_USAGE, {"c.json": {"link": {"k2": "12"}}}, {}, ["--config", "c.json", *_LINK],
     'link.k2: expected an integer, got "12"'),
    (EXIT_USAGE, {"c.json": {"link": []}}, {}, ["--config", "c.json", *_LINK],
     "'link' must be a JSON object"),
    (EXIT_USAGE, {"c.json": {"embed": {"dimension": "64"}}}, {},
     ["--config", "c.json", *_LINK], "unknown config section 'embed'"),
    (EXIT_USAGE, {"c.json": {"link": {"k1": 0}}}, {}, ["--config", "c.json", *_LINK],
     "link: k1, k2, k3 and k4 must all be >= 1"),
    (EXIT_USAGE, {}, {"SQLKNOW_K1": "0"}, _LINK, "link: k1, k2, k3 and k4 must all be >= 1"),
    # input rows (second line) and review events
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST, {"id": "b", "question": "q"})}, {}, _SCORE,
     "in.jsonl: [1].gold_sql: missing"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST, [1])}, {}, _SCORE,
     "in.jsonl: [1]: expected an object, got [1]"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST, {**_REQUEST, "candidates": "SELECT 1"})}, {},
     _SCORE, 'in.jsonl: [1].candidates: expected an array, got "SELECT 1"'),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST, {**_REQUEST, "candidate_sql": None})}, {},
     _SCORE, "in.jsonl: [1]: candidate_sql or a non-empty candidates list is required"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST, {**_REQUEST, "id": 2})}, {}, _SCORE,
     "in.jsonl: [1].id: expected a string, got 2"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_PAIR, [1])}, {}, _BUILD,
     "in.jsonl: [1]: expected an object, got [1]"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_PAIR, {"question": "q"})}, {}, _BUILD,
     "in.jsonl: [1].sql: missing"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_PAIR, {**_PAIR, "sql": 3})}, {}, _EVAL,
     "in.jsonl: [1].sql: expected a string, got 3"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": "[1]"}, {}, _REVIEW,
     "kb.json.events.jsonl line 1: expected an object, got [1]"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": {"event": "vote"}}, {}, _REVIEW,
     "kb.json.events.jsonl line 1: item: missing"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": {"item": _TERM_KEY}}, {}, _REVIEW,
     "kb.json.events.jsonl line 1: event: missing"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": {"item": _TERM_KEY, "event": "retract"}},
     {}, _REVIEW, "kb.json.events.jsonl line 1: unknown event kind 'retract'"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": {
        "item": _TERM_KEY, "event": "vote", "annotator_id": "a", "accept": "yes"}}, {}, _REVIEW,
     'kb.json.events.jsonl line 1: accept: expected true or false, got "yes"'),
    # an event that is well-formed but not legal in its item's state; line numbers count
    # blank lines
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": "\n" + _rows(_VOTE)}, {}, _REVIEW,
     "kb.json.events.jsonl line 2: vote event not legal in state Pending"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": _rows(_SCORE_EVENT, _SCORE_EVENT,
                                                          _SCORE_EVENT)}, {}, _REVIEW,
     "kb.json.events.jsonl line 3: score event not legal in state HumanQueued"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": _rows(
        _SCORE_EVENT, _SCORE_EVENT, {**_VOTE, "accept": 1})}, {}, _REVIEW,
     "kb.json.events.jsonl line 3: accept: expected true or false, got 1"),
    # a KB reviewed against a log that is not there; a log that cannot be created
    (EXIT_PIPELINE, {"kb.json": {"db_id": "schools", "terms": [{**_TERM, "status": {
        "state": "LlmScored", "llm_scores": [_SCORE_EVENT]}}]}}, {}, _REVIEW,
     "event log kb.json.events.jsonl does not exist, but the knowledge base has items past "
     "Pending (1)"),
    (EXIT_PIPELINE, _KB, {}, [*_REVIEW, "--events", "missing/log.jsonl"],
     "event log missing/log.jsonl: No such file or directory"),
    # a --db that cannot be read as a database or dump, or holds no tables; a dump may
    # attach no file and run no query
    (EXIT_PIPELINE, {"x.sqlite": "not a database " * 40}, {}, [*_ENRICH, "x.sqlite"],
     "x.sqlite: file is not a database"),
    (EXIT_PIPELINE, {"x.sqlite": "not a database " * 40, "in.jsonl": _rows(_REQUEST)}, {},
     ["score-reward", "--db", "x.sqlite", "--candidates", "in.jsonl", "--out", "out"],
     "x.sqlite: file is not a database"),
    (EXIT_PIPELINE, {"x.sqlite": None}, {}, [*_ENRICH, "x.sqlite"],
     "x.sqlite: is a directory, not a SQLite database"),
    (EXIT_PIPELINE, {"x.sqlite": ""}, {}, [*_ENRICH, "x.sqlite"],
     "x.sqlite: the schema has no tables"),
    (EXIT_PIPELINE, {"x.json": {"db_id": "x"}}, {}, [*_ENRICH, "x.json"],
     "x.json: the schema has no tables"),
    (EXIT_PIPELINE, {"x.sql": "CREATE TABLE ("}, {}, [*_ENRICH, "x.sql"],
     'x.sql: near "(": syntax error'),
    (EXIT_PIPELINE, {"x.sql": b"CREATE TABLE t (a TEXT DEFAULT '\xff');"}, {},
     [*_ENRICH, "x.sql"], "x.sql: 'utf-8' codec can't decode byte 0xff"),
    (EXIT_PIPELINE, {"x.sql": "-- only a comment\n"}, {}, [*_ENRICH, "x.sql"],
     "x.sql: the schema has no tables"),
    (EXIT_PIPELINE, {"x.sql": "CREATE TABLE t (a);\x00"}, {}, [*_ENRICH, "x.sql"],
     "x.sql: embedded null character"),
    (EXIT_PIPELINE, {"x.sql": "CREATE TABLE t (a); ATTACH 'other.db' AS other;"}, {},
     [*_ENRICH, "x.sql"], "x.sql: not authorized"),
    (EXIT_PIPELINE, {"x.sql": "CREATE TABLE t (a); VACUUM INTO 'copy.db';"}, {},
     [*_ENRICH, "x.sql"], "x.sql: authorization denied"),
    (EXIT_PIPELINE, {"x.sqlite": None, "in.jsonl": _rows(_REQUEST)}, {},
     ["score-reward", "--db", "x.sqlite", "--candidates", "in.jsonl", "--out", "out"],
     "x.sqlite: is a directory, not a SQLite database"),
    # a byte that is not UTF-8 in a line-based input (here on line 2)
    (EXIT_PIPELINE, {"in.jsonl": _rows(_PAIR).encode() + b'{"question": "\xff"}\n'}, {},
     _BUILD, "in.jsonl line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (EXIT_PIPELINE, {"in.jsonl": _rows(_REQUEST).encode() + b'{"id": "\xff"}\n'}, {},
     _SCORE, "in.jsonl line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (EXIT_PIPELINE, {"s.txt": b"SELECT _C FROM _T\nSELECT _C FROM _T WHERE _C = '\xff'\n"},
     {}, ["build-templates", "--db", "schools.sqlite", "--skeletons", "s.txt", "--mock",
          "--out", "out"], "s.txt line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (EXIT_PIPELINE, {**_KB, "kb.json.events.jsonl": _rows(_SCORE_EVENT).encode()
                     + b'{"item": "\xff"}\n'}, {}, _REVIEW,
     "kb.json.events.jsonl line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    # a path that cannot be read or written: a directory as an input file or an output
    (EXIT_PIPELINE, {"kb.json": None}, {}, [*_LINK, "--kb", "kb.json"], "kb.json: Is a directory"),
    (EXIT_PIPELINE, {"out": None}, {}, _LINK, "out: Is a directory"),
    (EXIT_PIPELINE, {"s.txt": "SELECT _C FROM _T\n", "out": None}, {},
     ["build-templates", "--db", "schools.sqlite", "--skeletons", "s.txt", "--mock",
      "--out", "out"], "out: Is a directory"),
    (EXIT_PIPELINE, {**_KB, "log": None}, {}, [*_REVIEW, "--events", "log"],
     "event log log: Is a directory"),
    # a table name holding '.', which no table.column id can express, with and without rows
    (EXIT_PIPELINE, {"x.sql": 'CREATE TABLE "sales.q1" (amount INT);'}, {},
     ["link", "--db", "x.sql", "--question", "sales q1 amount", "--out", "out"],
     "table name sales.q1 holds '.'"),
    (EXIT_PIPELINE, {"x.sql": 'CREATE TABLE "sales.q1" (amount INT);'
                              'INSERT INTO "sales.q1" VALUES (5);'}, {}, [*_ENRICH, "x.sql"],
     "table name sales.q1 holds '.'"),
    # a stored vector, or a stored width, other than the one embedding width
    (EXIT_PIPELINE, {"g.json": {**_GRAPH, "embed_dimension": 4}}, {},
     ["assemble-prompt", "--db", "schools.sqlite", "--graph", "g.json", "--question", "q",
      "--out", "out"],
     "pipeline error: g.json: embed_dimension has width 4; every embedding is 512 wide"),
    (EXIT_PIPELINE, {"g.json": {**_GRAPH, "question_clusters": [
        {"id": 0, "centroid": [1.0, 0.0, 0.0], "medoid_question": "q"}]}}, {},
     ["assemble-prompt", "--db", "schools.sqlite", "--graph", "g.json", "--question", "q",
      "--out", "out"],
     "pipeline error: g.json: question_clusters[0]: centroid has width 3; every embedding "
     "is 512 wide"),
    (EXIT_PIPELINE, {"g.json": _GRAPH, "t.jsonl": _rows({**_TEMPLATE, "embedding": [0.5]})}, {},
     ["synthesize", "--db", "schools.sqlite", "--graph", "g.json", "--templates", "t.jsonl",
      "--m-real", "10", "--mock", "--out", "out"],
     "pipeline error: t.jsonl: [0]: embedding has width 1; every embedding is 512 wide"),
    # a sweep given as the [low, high] list of earlier versions: the low bound is always 2
    (EXIT_USAGE, {"c.json": {"graph": {"question_sweep": [2, 10]}}}, {},
     ["--config", "c.json", *_LINK], "bad config value: graph.question_sweep: expected an integer"),
    # a gateway that would send no request, or whose backoff sleep would raise
    (EXIT_USAGE, {"c.json": {"gateway": {"retries": 0}}}, {}, ["--config", "c.json", *_LINK],
     "gateway: retries must be >= 1"),
    (EXIT_USAGE, {"c.json": {"gateway": {"backoff_base": -0.5}}}, {},
     ["--config", "c.json", *_LINK], "gateway: backoff_base must be >= 0"),
    # a synth value that would crash a later stage or silently empty its output; a flag
    # is checked as a file or environment value is
    (EXIT_USAGE, {"g.json": _GRAPH, "t.jsonl": _rows(_TEMPLATE)}, {},
     ["synthesize", "--db", "schools.sqlite", "--graph", "g.json", "--templates", "t.jsonl",
      "--m-real", "10", "--rho", "-0.5", "--mock", "--out", "out"],
     "error: bad config value: synth: rho must be in [0, 1], got -0.5"),
    (EXIT_USAGE, {"c.json": {"synth": {"pool_target": 0}}}, {}, ["--config", "c.json", *_LINK],
     "bad config value: synth: pool_target and all_synthetic_n must be >= 1 or null"),
    (EXIT_USAGE, {"c.json": {"synth": {"bucket_shares": []}}}, {},
     ["--config", "c.json", *_LINK], "bad config value: synth: bucket_shares must not be empty"),
    (EXIT_USAGE, {"c.json": {"synth": {"rho": 1, "all_synthetic_n": -3}}}, {},
     ["--config", "c.json", *_LINK],
     "bad config value: synth: pool_target and all_synthetic_n must be >= 1 or null"),
    # an input file that holds no skeleton or no template
    (EXIT_PIPELINE, {"s.txt": "\n"}, {}, ["build-templates", "--db", "schools.sqlite",
                                          "--skeletons", "s.txt", "--mock", "--out", "out"],
     "pipeline error: skeleton list must be nonempty"),
    (EXIT_PIPELINE, {"g.json": _GRAPH, "t.jsonl": ""}, {},
     ["synthesize", "--db", "schools.sqlite", "--graph", "g.json", "--templates", "t.jsonl",
      "--m-real", "10", "--mock", "--out", "out"],
     "pipeline error: template pool must be nonempty"),
    # a graph edge that names a skeleton cluster the graph does not hold
    (EXIT_PIPELINE, {"g.json": {**_GRAPH, "edges": [
        {"q_cluster": 0, "s_cluster": 140, "count": 1, "prob": 1.0}]}}, {},
     ["assemble-prompt", "--db", "schools.sqlite", "--graph", "g.json", "--question", "q",
      "--out", "out"],
     "pipeline error: g.json: edge (0, 140) names a cluster the graph lacks"),
    # a bucket share that keeps no template, or a bucket of no table
    (EXIT_USAGE, {"c.json": {"synth": {"pool_target": 5, "bucket_shares": [[1, 0.0]]}}}, {},
     ["--config", "c.json", *_LINK], "bad config value: synth: each bucket_shares entry"),
    (EXIT_USAGE, {"c.json": {"synth": {"bucket_shares": [[1, -0.5], [2, 0.5]]}}}, {},
     ["--config", "c.json", *_LINK], "bad config value: synth: each bucket_shares entry"),
    (EXIT_USAGE, {"c.json": {"synth": {"bucket_shares": [[0, 0.5], [2, 0.5]]}}}, {},
     ["--config", "c.json", *_LINK], "bad config value: synth: each bucket_shares entry"),
])
def test_malformed_inputs_exit_with_the_documented_code(workdir, monkeypatch, capsys, code,
                                                       files, env, argv, message):
    monkeypatch.chdir(workdir)
    for name, content in files.items():
        if content is None:
            Path(name).mkdir()
        elif isinstance(content, bytes):
            Path(name).write_bytes(content)
        else:
            Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    before = sorted(workdir.rglob("*"))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(workdir.rglob("*")) == before


def test_a_reviewer_answering_in_prose_ends_review_with_the_pipeline_code(workdir, monkeypatch,
                                                                         capsys):
    monkeypatch.chdir(workdir)
    Path("kb.json").write_text(json.dumps(_KB["kb.json"]))
    Path("c.json").write_text(json.dumps(
        {"gateway": {"backend": "http", "endpoint": "http://127.0.0.1:9/v1"}}))
    reply = {"choices": [{"message": {"content": "Both scores look fine to me."}}]}
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda request, timeout: io.BytesIO(json.dumps(reply).encode()))
    assert main(["--config", "c.json", *_REVIEW[:-1]]) == EXIT_PIPELINE
    err = capsys.readouterr().err
    assert "score_pair reply from reviewer-a does not fit: semantic_consistency: missing" in err
    assert "Traceback" not in err


def test_an_unpinned_build_over_two_pairs_writes_a_two_cluster_graph(workdir, monkeypatch):
    """Two pairs leave no sweep (k = 2 is the only count), so the question clusters
    are k-means at 2, as the pinned skeleton clusters are."""
    monkeypatch.chdir(workdir)
    Path("c.json").write_text(json.dumps({"graph": {"question_clusters": None}}))
    Path("in.jsonl").write_text(_rows(
        {**_PAIR, "sql": "SELECT COUNT(*) FROM schools"},
        {**_PAIR, "question": "Which counties?", "sql": "SELECT County FROM schools"}))
    assert main(["--config", "c.json", *_BUILD]) == EXIT_OK
    graph = pg.load_graph("out")
    assert len(graph.question_clusters) == len(graph.skeleton_clusters) == 2


def test_mining_with_a_sweep_bound_of_one_clusters_at_two(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    Path("c.json").write_text(json.dumps({"mine": {"max_cluster_sweep": 1}}))
    argv = ["--config", "c.json", "mine-terms", "--db", "schools.sqlite", "--kb", "kb.json",
            "--top-k", "5", "--n-target", "10", "--mock"]
    assert main(argv) == EXIT_OK
    assert kn.load_kb("kb.json").terms
    manifest = json.loads(Path("kb.json.manifest.json").read_text())
    assert manifest["mining_report"]["clusters"] == 2


def test_a_kb_stored_with_a_validation_cursor_loads_and_reviews(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    scores = [_SCORE_EVENT, {**_SCORE_EVENT, "model_id": "m2"}]
    Path("kb.json.events.jsonl").write_text(_rows(*scores))
    status = {"state": "HumanQueued", "llm_scores": [
        {k: v for k, v in e.items() if k not in ("item", "event")} for e in scores]}
    Path("kb.json").write_text(json.dumps({"db_id": "schools", "validation_cursor": 2,
                                           "terms": [{**_TERM, "status": status}]}))
    before = Path("kb.json").read_bytes()
    assert main(_REVIEW) == EXIT_OK  # nothing to record, so the file is left as it was
    assert Path("kb.json").read_bytes() == before
    assert Path("kb.json.events.jsonl").read_text() == _rows(*scores)
    (term,) = kn.load_kb("kb.json").terms
    assert term.status == from_json(kn.ValidationStatus, status)
    invoke([*_REVIEW, "--annotator", "a"], input="a\n")  # a vote stores it, with no cursor
    assert "validation_cursor" not in json.loads(Path("kb.json").read_text())
    (term,) = kn.load_kb("kb.json").terms
    assert [v.annotator_id for v in term.status.human_votes] == ["a"]


def test_a_vote_whose_annotator_id_holds_a_line_separator_replays(workdir, monkeypatch):
    # U+2028 and U+0085 are line breaks to str.splitlines, but not to JSONL
    monkeypatch.chdir(workdir)
    Path("kb.json").write_text(json.dumps(_KB["kb.json"]))
    scores = [_SCORE_EVENT, {**_SCORE_EVENT, "model_id": "m2"}]
    Path("kb.json.events.jsonl").write_text(_rows(*scores))
    monkeypatch.setattr("click.prompt", lambda text, default=None: "a")
    review = [*_REVIEW, "--no-llm-score", "--annotator"]
    assert main([*review, "a\u2028b\x85c"]) == EXIT_OK
    assert main([*review, "ann2"]) == EXIT_OK
    (term,) = kn.load_kb("kb.json").terms
    assert [v.annotator_id for v in term.status.human_votes] == ["a\u2028b\x85c", "ann2"]
    assert term.status.state is kn.State.ACCEPTED


def test_a_corpus_row_holding_a_line_separator_is_one_row(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    rows = schools_corpus()[:6]
    rows[0] = {**rows[0], "question": rows[0]["question"] + "\u2028(and\x85more)"}
    Path("corpus.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    assert main(["build-graph", "--corpus", "corpus.jsonl", "--db", "schools.sqlite",
                 "--out", "g.json", "--kq", "2", "--ks", "2"]) == EXIT_OK
    assert json.loads(Path("g.json.manifest.json").read_text())["dropped"] == []


def test_review_with_nothing_to_record_creates_no_log(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    Path("kb.json").write_text(json.dumps(_KB["kb.json"]))
    before = Path("kb.json").read_text()
    assert main([*_REVIEW, "--no-llm-score", "--events", "missing/log.jsonl"]) == EXIT_OK
    assert main([*_REVIEW, "--no-llm-score"]) == EXIT_OK
    assert not Path("missing").exists() and not Path("kb.json.events.jsonl").exists()
    assert Path("kb.json").read_text() == before


def test_a_review_with_nothing_to_record_lists_no_output(workdir, monkeypatch):
    """Only a file the run wrote or appended to is an output, not one that merely exists;
    a review that changes no status leaves ``kb.json`` alone, under its inode."""
    monkeypatch.chdir(workdir)
    assert main(["enrich-schema", "--db", "schools.sqlite", "--kb", "kb.json", "--mock"]) == 0
    assert main(["review", "--db", "schools.sqlite", "--kb", "kb.json", "--no-llm-score"]) == 0
    manifest = json.loads(Path("kb.json.review-manifest.json").read_text())
    assert manifest["events_appended"] == 0 and manifest["output_paths"] == []
    assert main(_REVIEW) == EXIT_OK  # scores every item, so the KB has a log
    before = os.stat("kb.json")
    assert main([*_REVIEW, "--no-llm-score"]) == EXIT_OK
    after = os.stat("kb.json")
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    manifest = json.loads(Path("kb.json.review-manifest.json").read_text())
    assert manifest["events_appended"] == 0 and manifest["output_paths"] == []
    # votes that another writer appended to the log are new statuses, which it stores
    queued = vd.human_queue(kn.load_kb("kb.json"))
    assert queued
    vd.append_events("kb.json.events.jsonl",
                     [vd.vote_event(item.item_key, "a", True) for item in queued])
    assert main([*_REVIEW, "--no-llm-score"]) == EXIT_OK
    assert os.stat("kb.json").st_ino != before.st_ino
    manifest = json.loads(Path("kb.json.review-manifest.json").read_text())
    assert manifest["output_paths"] == ["kb.json"]
    assert kn.load_kb("kb.json") == vd.replay(kn.load_kb("kb.json"), "kb.json.events.jsonl")


def test_mock_is_a_config_override_that_the_manifest_records(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    Path("c.json").write_text(json.dumps(
        {"gateway": {"backend": "http", "endpoint": "http://127.0.0.1:9/v1"}}))

    def unreachable(request, timeout):
        raise AssertionError("--mock reached the http backend")

    monkeypatch.setattr(urllib.request, "urlopen", unreachable)
    assert main(["--config", "c.json", "enrich-schema", "--db", "schools.sqlite",
                 "--kb", "kb.json", "--mock"]) == EXIT_OK
    config = json.loads(Path("kb.json.manifest.json").read_text())["config"]
    assert config["gateway"] == {**config["gateway"], "backend": "mock",
                                 "endpoint": "http://127.0.0.1:9/v1"}


def test_enrich_after_review_keeps_the_reviewed_annotations(workdir, monkeypatch):
    db, kb_path = str(workdir / "schools.sqlite"), str(workdir / "kb.json")
    enrich = ["enrich-schema", "--db", db, "--kb", kb_path, "--mock"]
    review = ["review", "--db", db, "--kb", kb_path, "--mock", "--annotator"]
    invoke(enrich)
    invoke([*review, "ann1"], input="a\n" * 200)
    invoke([*review, "ann2"], input="a\n" * 200)
    reviewed = kn.load_kb(kb_path)
    log = Path(f"{kb_path}.events.jsonl").read_text()
    assert reviewed.annotations and all(a.status.state is kn.State.ACCEPTED
                                        for a in reviewed.annotations)
    original = cli_module.enrich_schema

    def reworded(schema, gateway):
        result = original(schema, gateway)
        return replace(result, annotations=[replace(a, description=a.description + " (new)")
                                            for a in result.annotations])

    # the event log keys an annotation by its target: new text would take the old status
    monkeypatch.setattr(cli_module, "enrich_schema", reworded)
    invoke(enrich)
    assert kn.load_kb(kb_path) == reviewed
    invoke([*review, "ann3"], input="a\n" * 200)
    assert kn.load_kb(kb_path) == reviewed
    assert Path(f"{kb_path}.events.jsonl").read_text() == log


def test_review_replays_a_log_with_a_second_score_pair_for_an_annotation(workdir, monkeypatch):
    # enrich-schema used to replace a reviewed annotation with a Pending copy, which the
    # next review scored again; such a log replays to the copy's review
    monkeypatch.chdir(workdir)
    ann = {"target": "schools", "description": "one row per school"}
    key = from_json(kn.SchemaAnnotation, ann).item_key
    scores = [{**_SCORE_EVENT, "item": key, "model_id": m} for m in ("m1", "m2")]
    votes = [{**_VOTE, "item": key, "annotator_id": a} for a in ("a1", "a2")]
    Path("kb.json").write_text(json.dumps({"db_id": "schools", "annotations": [ann]}))
    Path("kb.json.events.jsonl").write_text(_rows(*scores, *votes, *scores, votes[0]))
    assert main([*_REVIEW, "--no-llm-score"]) == EXIT_OK
    (annotation,) = kn.load_kb("kb.json").annotations
    assert annotation.status.state is kn.State.HUMAN_QUEUED
    assert [v.annotator_id for v in annotation.status.human_votes] == ["a1"]


def test_review_keeps_the_session_s_work_when_its_input_ends(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with closing(sqlite3.connect("one.sqlite")) as conn, conn:
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"x{i % 3}") for i in range(10)])
    assert main(["enrich-schema", "--db", "one.sqlite", "--kb", "kb.json", "--mock"]) == EXIT_OK
    review = ["review", "--db", "one.sqlite", "--kb", "kb.json", "--mock", "--annotator", "alice"]
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))  # one vote, then the input ends
    assert main(review) == EXIT_PARTIAL
    out, err = capsys.readouterr()
    queued = vd.human_queue(kn.load_kb("kb.json"))
    assert "scored" in out and len(queued) > 2
    assert err == f"partial failure: review stopped at item 2 of {len(queued)}: input ended\n"
    events = [json.loads(line) for line in Path("kb.json.events.jsonl").read_text().splitlines()]
    assert [e["event"] for e in events] == ["score"] * 2 * len(queued) + ["vote"]
    assert queued[0].status.human_votes == (kn.HumanVote("alice", True),)
    # the next session scores nothing again, and passes the item alice voted on
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(review) == EXIT_PARTIAL
    out, err = capsys.readouterr()
    assert "scored" not in out and "already voted by this annotator" in out
    assert err == f"partial failure: review stopped at item 2 of {len(queued)}: input ended\n"
    assert Path("kb.json.events.jsonl").read_text().count("\n") == len(events)


def test_exit_pipeline_error_when_no_pair_matches_the_db_id(workdir):
    db = workdir / "db"  # db_id "db"; every corpus pair is for "schools"
    shutil.copy(workdir / "schools.sqlite", db)
    code = main(["build-graph", "--corpus", str(workdir / "corpus.jsonl"), "--db", str(db),
                 "--out", str(workdir / "g.json")])
    assert code == EXIT_PIPELINE
    assert not (workdir / "g.json").exists()


@pytest.mark.parametrize("command", ["assemble-prompt", "build-graph", "enrich-schema",
                                     "eval-slr", "link", "mine-terms", "review",
                                     "score-reward", "synthesize"])
def test_manifest_digests_the_kb(command, built_dir, tmp_path, monkeypatch):
    """Each run digests the KB (and review its event log) as it was before the
    run, also where the run rewrites it; an edited KB gives another digest."""
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    args, manifest_name, _ = SURFACE_RUNS[command]
    read = ["kb.json", "kb.json.events.jsonl"] if command == "review" else ["kb.json"]
    digests = []
    for _ in range(2):
        before = {name: _sha256(name) for name in read if Path(name).exists()}
        assert main([command, *args]) in (EXIT_OK, EXIT_PARTIAL)
        manifest = json.loads(Path(manifest_name).read_text())
        assert {name: manifest["input_digests"].get(name) for name in before} == before
        digests.append(manifest["input_digests"]["kb.json"])
        kb = kn.load_kb("kb.json")
        kn.store_kb(replace(kb, annotations=kb.annotations[:-1]), "kb.json")
    assert digests[0] != digests[1]
    assert set(before) == set(read)  # review's second run read the log its first one wrote


# the commands that write a text output, not JSON
TEXT_OUTPUTS = ["assemble-prompt", "build-templates", "eval-slr", "export-graph", "synthesize"]


@pytest.mark.parametrize("command", TEXT_OUTPUTS)
def test_a_failed_text_write_keeps_the_old_output(command, built_dir, tmp_path, monkeypatch,
                                                  capsys):
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    args, _, _ = SURFACE_RUNS[command]
    out = Path(args[args.index("--out") + 1])
    out.write_bytes(b"old bytes\n")
    listing = sorted(tmp_path.iterdir())

    def fail(src, dst):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "replace", fail)
    assert main([command, *args]) == EXIT_PIPELINE
    assert capsys.readouterr().err.endswith(f"pipeline error: {out}: Input/output error\n")
    assert out.read_bytes() == b"old bytes\n"
    assert sorted(tmp_path.iterdir()) == listing  # no temp file and no manifest


@pytest.mark.parametrize("command", TEXT_OUTPUTS)
def test_a_directory_as_text_output_exits_3(command, built_dir, tmp_path, monkeypatch, capsys):
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    args, _, _ = SURFACE_RUNS[command]
    out = Path(args[args.index("--out") + 1])
    out.mkdir()
    listing = sorted(tmp_path.iterdir())
    assert main([command, *args]) == EXIT_PIPELINE
    assert capsys.readouterr().err.endswith(f"pipeline error: {out}: Is a directory\n")
    assert sorted(tmp_path.iterdir()) == listing and not any(out.iterdir())


def test_eval_slr_csv_rows_end_in_crlf(built_dir, tmp_path, monkeypatch):
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    assert main(["eval-slr", "--db", "schools.sqlite", "--kb", "kb.json", "--eval",
                 "corpus.jsonl", "--k2", "4,8", "--out", "slr.csv"]) == EXIT_OK
    rows = Path("slr.csv").read_bytes().split(b"\r\n")
    assert rows[0] == b"k2,slr_step1,slr_step2,hits,evaluated,excluded"
    assert [row.split(b",")[0] for row in rows[1:]] == [b"4", b"8", b""]
    assert not any(b"\n" in row or b"\r" in row for row in rows)


def test_build_templates_manifest_digests_graph_and_skeletons(built_dir, tmp_path, monkeypatch):
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    Path("skeletons.txt").write_text("SELECT School FROM schools\n")
    assert main(["build-templates", "--db", "schools.sqlite", "--graph", "graph.json",
                 "--skeletons", "skeletons.txt", "--mock", "--out", "t.jsonl"]) in (
        EXIT_OK, EXIT_PARTIAL)
    digests = json.loads(Path("t.jsonl.manifest.json").read_text())["input_digests"]
    assert {"graph.json", "skeletons.txt"} <= set(digests)


def test_exit_ok_on_overflowing_candidate(workdir):
    candidates = workdir / "cands.jsonl"
    candidates.write_text(json.dumps(
        {"id": "inf", "question": "How many schools are there?",
         "gold_sql": "SELECT COUNT(*) FROM schools", "candidate_sql": "SELECT 1e999"}) + "\n")
    assert main(["score-reward", "--db", str(workdir / "schools.sqlite"),
                 "--candidates", str(candidates), "--out", str(workdir / "r.json")]) == EXIT_OK


def test_exit_ok_on_a_candidate_holding_a_lone_surrogate(workdir):
    db = workdir / "t.sqlite"
    with closing(sqlite3.connect(db)) as conn, conn:
        conn.execute("CREATE TABLE t (age INTEGER)")
    candidates = workdir / "cands.jsonl"
    candidates.write_text(_rows({"id": "s", "question": "Ages?", "gold_sql": "SELECT age FROM t",
                                 "candidates": ["SELECT age FROM t", "SELECT \ud800 FROM t"]}))
    out = workdir / "r.json"
    assert main(["score-reward", "--db", str(db), "--candidates", str(candidates),
                 "--out", str(out)]) == EXIT_OK
    scores = json.loads(out.read_text())["results"][0]["scores"]
    assert [s["tier"] for s in scores] == ["ExecMatch", "Invalid"]


def test_score_reward_opens_the_db_read_only_under_any_path(workdir):
    folder = workdir / "a #b?c%20d e"
    folder.mkdir()
    db = folder / "schools #1?.sqlite"
    shutil.copy(workdir / "schools.sqlite", db)
    before = db.read_bytes()
    count = "SELECT COUNT(*) FROM schools"
    rows = [
        {"id": "ok", "question": "How many schools are there?", "gold_sql": count,
         "candidates": [count, "DELETE FROM schools", count]},
        {"id": "bad-gold", "question": "How many schools are there?",
         "gold_sql": "SELECT nope FROM nowhere", "candidates": [count, "SELECT 2"]},
    ]
    candidates = workdir / "cands.jsonl"
    candidates.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = workdir / "r.json"
    assert main(["score-reward", "--db", str(db), "--candidates", str(candidates),
                 "--out", str(out)]) == EXIT_PARTIAL
    payload = json.loads(out.read_text())
    ok, bad = payload["results"]
    assert [s["tier"] for s in ok["scores"]] == ["ExecMatch", "Invalid", "ExecMatch"]
    assert ok["scores"][1]["diagnostics"] == "denied: not authorized"
    assert bad["scores"] == [
        {"error": "gold query failed to execute: no such table: nowhere"}] * 2
    assert payload["tier_histogram"] == {"ExecMatch": 2, "Invalid": 1}
    assert db.read_bytes() == before


def test_score_reward_scores_on_the_connection_it_introspects(workdir, monkeypatch):
    # more connections may sample values, one per further CPU, but each is
    # read-only on the same file, and scoring runs on the first
    connected, scored_on = [], []
    real_connect, real_score_many = sqlite3.connect, rw.score_many

    def connect(database, *args, **kwargs):
        connected.append((str(database), real_connect(database, *args, **kwargs)))
        return connected[-1][1]

    def score_many(candidates, gold_sql, conn, *args, **kwargs):
        scored_on.append(conn)
        return real_score_many(candidates, gold_sql, conn, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", connect)
    monkeypatch.setattr(rw, "score_many", score_many)
    candidates = workdir / "cands.jsonl"
    candidates.write_text(_rows(_REQUEST))
    assert main(["score-reward", "--db", str(workdir / "schools.sqlite"), "--candidates",
                 str(candidates), "--out", str(workdir / "r.json")]) == EXIT_OK
    uri = (workdir / "schools.sqlite").resolve().as_uri() + "?mode=ro"
    assert connected and {database for database, _ in connected} == {uri}
    assert scored_on and {id(conn) for conn in scored_on} == {id(connected[0][1])}


def test_names_holding_quotes_enrich(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    with closing(sqlite3.connect("quoted.sqlite")) as conn, conn:
        conn.execute('CREATE TABLE "a""b" (id INTEGER PRIMARY KEY, "c""d" TEXT)')
        conn.executemany('INSERT INTO "a""b" VALUES (?, ?)', [(1, "x"), (2, "y")])
    assert main(["enrich-schema", "--db", "quoted.sqlite", "--kb", "kb.json", "--mock"]) == EXIT_OK
    assert {a.target for a in kn.load_kb("kb.json").annotations} >= {'a"b', 'a"b.c"d'}


def test_exit_partial_on_dropped_pairs(workdir):
    db = str(workdir / "schools.sqlite")
    corpus = workdir / "broken_corpus.jsonl"
    rows = schools_corpus()[:6]
    rows.append({"id": "zz", "db_id": "schools", "question": "broken", "sql": "SELEC x FRO"})
    with open(corpus, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    code = main(["build-graph", "--corpus", str(corpus), "--db", db,
                 "--out", str(workdir / "g.json"), "--kq", "2", "--ks", "2"])
    assert code == EXIT_PARTIAL
    assert (workdir / "g.json").exists()  # outputs still written


@pytest.mark.parametrize("sql", ["SELECT :1 FROM schools", "SELECT @é FROM schools"])
def test_a_parameter_that_does_not_tokenize_drops_its_pair(workdir, sql):
    corpus = workdir / "param_corpus.jsonl"
    rows = schools_corpus()[:6]
    rows.insert(2, {"id": "p", "db_id": "schools", "question": "parameter", "sql": sql})
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    code = main(["build-graph", "--corpus", str(corpus), "--db", str(workdir / "schools.sqlite"),
                 "--out", str(workdir / "g.json"), "--kq", "2", "--ks", "2"])
    assert code == EXIT_PARTIAL
    manifest = json.loads((workdir / "g.json.manifest.json").read_text())
    assert manifest["dropped"] == [[2, "unexpected character '%s' (at offset 7)" % sql[7]]]


@pytest.mark.parametrize("name", ['"a b"', "[count it]", "`x.y`", '"_C"', '"true"',
                                  '"select"', "\u0131n"])
def test_a_called_name_a_skeleton_cannot_hold_drops_its_pair(tmp_path, name):
    db = tmp_path / "one.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.commit()
    rows = [{"id": str(i), "db_id": "one", "question": f"how many rows {i}",
             "sql": "SELECT COUNT(*) FROM t"} for i in range(6)]
    rows.append({"id": "call", "db_id": "one", "question": "call it",
                 "sql": f"SELECT {name}(x) FROM t"})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                      encoding="utf-8")
    with redirect_stderr(io.StringIO()) as err:
        code = main(["build-graph", "--corpus", str(corpus), "--db", str(db),
                     "--out", str(tmp_path / "g.json")])
    assert code == EXIT_PARTIAL, err.getvalue()
    assert "Traceback" not in err.getvalue()
    dropped = json.loads((tmp_path / "g.json.manifest.json").read_text())["dropped"]
    assert [index for index, _ in dropped] == [6]
    assert "cannot stand in a skeleton" in dropped[0][1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_an_edited_corpus_sql_builds_or_drops_only_its_pair(schools_db_path, data):
    rows = schools_corpus()
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    rows[row] = {**rows[row], "sql": data.draw(edited_sql(rows[row]["sql"]), label="sql")}
    with tempfile.TemporaryDirectory() as tmp:
        corpus, graph = Path(tmp) / "corpus.jsonl", Path(tmp) / "g.json"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                          encoding="utf-8")
        inputs = [corpus, schools_db_path]
        before = [hashlib.sha256(path.read_bytes()).digest() for path in inputs]
        with redirect_stderr(io.StringIO()) as err:
            code = main(["build-graph", "--corpus", str(corpus), "--db", str(schools_db_path),
                         "--out", str(graph), "--kq", "2", "--ks", "2"])
        assert code in (EXIT_OK, EXIT_PARTIAL), err.getvalue()
        assert "Traceback" not in err.getvalue()
        dropped = json.loads(Path(f"{graph}.manifest.json").read_text())["dropped"]
        assert [index for index, _ in dropped] == ([row] if code == EXIT_PARTIAL else [])
        assert [hashlib.sha256(path.read_bytes()).digest() for path in inputs] == before


def test_an_output_error_names_the_path_as_given(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    Path("out").mkdir()
    assert main(_LINK) == EXIT_PIPELINE
    assert capsys.readouterr().err == "pipeline error: out: Is a directory\n"


def test_exit_pipeline_error_when_graph_invalid(workdir):
    bad_graph = workdir / "notagraph.json"
    bad_graph.write_text('{"graph_id": "g", "embed_dimension": 512, "edges": '
                         '[{"q_cluster": 0, "s_cluster": 0, "count": 0, "prob": 2.0}]}')
    code = main(["export-graph", "--graph", str(bad_graph),
                 "--out", str(workdir / "out.cypher")])
    assert code == EXIT_PIPELINE


def test_exit_ok(workdir):
    db = str(workdir / "schools.sqlite")
    assert main(["enrich-schema", "--db", db, "--kb", str(workdir / "k.json"),
                 "--mock"]) == EXIT_OK
