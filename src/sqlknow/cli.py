"""Operator CLI wiring the pipeline stages together.

Every subcommand runs offline with ``--mock``, reads/writes only files, and
emits exactly one run manifest. Each is declared through :func:`stage_command`,
which owns the shared ``--mock``/``--manifest`` (and most ``--out``) options,
the config (its flags are overrides of it), the timing, the gateway, the files
the run reads and writes (worked out from its path options) and the manifest;
:func:`schema_options` and :func:`kb_option` load the schema and the KB. A
command body holds only its stage logic and may return a :class:`StageResult`
of extra manifest keys and a partial-failure message. Exit codes: 0 success, 1
usage or config error, 2 partial failure (outputs written, some items failed),
3 pipeline error (including a path that cannot be read or written).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import click

from . import knowledge as kn
from . import linker as lk
from . import pattern_graph as pg
from . import prompting
from . import reward as rw
from . import synthesis as syn
from . import validation as vd
from .config import AppConfig, load_config
from .errors import ConfigError, InvariantViolation, SqlKnowError
from .gateway import Gateway
from .records import from_json, open_atomic, read_jsonl, to_json, utf8_lines, write_json
from .schema import load_schema_any, name_key, open_sqlite
from .skeleton import skeletonize
from .term_miner import enrich_schema, mine_terms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_PIPELINE = 3

# every count and size flag, and each k2 of a sweep
POSITIVE_INT = click.IntRange(min=1)


class PartialFailure(SqlKnowError):
    """Outputs were written but some items failed."""


def _file_state(path) -> tuple[int, int, int] | None:
    """(inode, size, mtime) of the file at ``path``, or None where there is none."""
    st = os.stat(path) if os.path.exists(path) else None
    return st and (st.st_ino, st.st_size, st.st_mtime_ns)


@dataclass(frozen=True)
class LabeledQuestion:
    """A corpus (``build-graph --corpus``) or eval set (``eval-slr --eval``) row."""

    question: str
    sql: str
    db_id: str | None = None


@dataclass(frozen=True)
class RewardRequest:
    """A ``score-reward --candidates`` row: a question, its gold SQL and the
    candidates to score, ``candidates`` or else the one ``candidate_sql``."""

    question: str
    gold_sql: str
    id: str | None = None
    candidates: tuple[str, ...] = ()
    candidate_sql: str | None = None

    def __post_init__(self):
        if not self.candidates and self.candidate_sql is None:
            raise ValueError("candidate_sql or a non-empty candidates list is required")


def _read_rows(path, cls) -> list:
    """Each row of the JSONL file at ``path`` decoded as ``cls``; a row that
    does not fit raises InvariantViolation naming the file and the row."""
    rows = read_jsonl(path)
    try:
        return from_json(list[cls], rows)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from None


def _labeled_pairs(path, db_id: str) -> list[tuple[str, str]]:
    """(question, sql) of each row of a corpus or eval file for ``db_id`` or for no database."""
    return [(r.question, r.sql) for r in _read_rows(path, LabeledQuestion)
            if r.db_id in (None, db_id)]


@dataclass
class Stage:
    """The run context handed to a command body. The gateway is built on first
    use, so a command that never calls it records ``token_usage: {}``."""

    config: AppConfig
    built_gateway: Gateway | None = None

    @property
    def gateway(self) -> Gateway:
        if self.built_gateway is None:
            self.built_gateway = Gateway(self.config.gateway)
        return self.built_gateway


@dataclass
class StageResult:
    """A command body's extra manifest keys, and a message if only part of the
    work succeeded."""

    extra: dict = field(default_factory=dict)
    partial: str | None = None


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file.")
@click.option("--seed", type=int, default=None, help="Override the global seed.")
@click.pass_context
def cli(ctx, config_path, seed):
    """Knowledge-base construction and retrieval for text-to-SQL."""
    ctx.obj = config_path, {} if seed is None else {"seed": seed}


def stage_command(name: str, offline: bool = False, writes: tuple[str, ...] = ("out_path",),
                  settings: tuple[str, ...] = (), **defaults: str):
    """Register ``body(stage, **options) -> StageResult | None`` as the command ``name``.

    Each of ``settings`` (``section.field``) is the config field that the option with
    destination ``field`` overrides; the one :func:`load_config` call merges the
    options given last, and the body (``stage.config``) and the manifest get its config.
    Adds ``--mock``, ``--manifest`` and, when ``writes`` holds ``out_path``, a required
    ``--out``. A path option not given takes its name from ``defaults`` (the manifest's:
    ``<out>.manifest.json``), formatted from the options. Each path option but ``--out``
    and ``--manifest`` that names a file before the body runs is a read, digested then;
    each in ``writes`` whose file the body made or changed (its inode, size or mtime)
    is an output. Once the body returns, writes the run manifest, then raises
    :class:`PartialFailure` if the body reported one. A pipeline error propagates
    before any manifest is written.
    """
    defaults = {"manifest_path": "{out_path}.manifest.json", **defaults}

    def decorate(body):
        @click.pass_obj
        @functools.wraps(body)
        def command(obj, mock: bool, **options):
            config_path, flags = obj
            for setting in settings:
                section, key = setting.split(".")
                value = options.pop(key)
                if value is not None:
                    flags.setdefault(section, {})[key] = value
            if mock:
                flags.setdefault("gateway", {})["backend"] = "mock"
            config = load_config(config_path, flags=flags)
            started = time.monotonic()
            for key, default in defaults.items():
                options[key] = options[key] or default.format(**options)
            manifest_path = Path(options.pop("manifest_path"))
            reads = [options[p.name] for p in cmd.params if isinstance(p.type, click.Path)
                     and p.name not in ("out_path", "manifest_path")]
            input_digests = {
                str(Path(p)): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for p in reads if p and Path(p).is_file()
            }
            written = {options[k]: _file_state(options[k]) for k in writes if options[k]}
            stage = Stage(config)
            result = body(stage, **options) or StageResult()
            manifest = {
                "command": name,
                "config": to_json(config),
                "seeds": {"seed": config.seed},
                "input_digests": input_digests,
                "output_paths": [str(Path(p)) for p, was in written.items()
                                 if _file_state(p) not in (None, was)],
                "timing_seconds": round(time.monotonic() - started, 6),
                "token_usage": stage.built_gateway.usage_summary() if stage.built_gateway else {},
                **result.extra,
            }
            manifest_path.parent.mkdir(parents=True, exist_ok=True)
            write_json(manifest_path, manifest)
            if result.partial:
                raise PartialFailure(result.partial)

        cmd = cli.command(name)(command)
        cmd.settings = settings
        if "out_path" in writes:
            click.option("--out", "out_path", type=click.Path(), required=True)(cmd)
        click.option("--mock", is_flag=True, default=False, help="Accepted for uniformity; "
                     "this command is offline regardless." if offline else None)(cmd)
        click.option("--manifest", "manifest_path", type=click.Path(), default=None)(cmd)
        return cmd

    return decorate


def schema_options(body):
    """``--db``/``--db-id``; the body gets the loaded ``schema``."""

    @click.option("--db", "db_path", type=click.Path(exists=True), required=True)
    @click.option("--db-id", default=None)
    @functools.wraps(body)
    def wrapper(stage, db_path, db_id, **options):
        return body(stage, schema=load_schema_any(db_path, db_id), **options)

    return wrapper


def kb_option(required: bool = False, exists: bool = True):
    """``--kb``; the body gets ``kb_path`` and ``kb``, loaded when the file exists."""

    def decorate(body):
        @click.option("--kb", "kb_path", type=click.Path(exists=exists), required=required,
                      default=None)
        @functools.wraps(body)
        def wrapper(stage, kb_path, **options):
            kb = kn.load_kb(kb_path) if kb_path and Path(kb_path).exists() else None
            return body(stage, kb_path=kb_path, kb=kb, **options)

        return wrapper

    return decorate


def _k2_sweep(ctx, param, value: str) -> list[int]:
    if sweep := [POSITIVE_INT.convert(v, param, ctx) for v in value.split(",") if v.strip()]:
        return sweep
    raise click.BadParameter(f"{value!r} names no k2", ctx, param)


@stage_command("enrich-schema", writes=("kb_path",), manifest_path="{kb_path}.manifest.json")
@schema_options
@kb_option(required=True, exists=False)
def enrich_schema_cmd(stage, schema, kb_path, kb):
    """Annotate tables/columns and map coded values into the KB."""
    result = enrich_schema(schema, stage.gateway)
    kb = (kb or kn.KnowledgeBase(db_id=schema.db_id)).merge_annotations(result.annotations)
    existing = {(name_key(m.column), m.code) for m in kb.value_mappings}
    new_maps = tuple(
        m for m in result.value_mappings if (name_key(m.column), m.code) not in existing
    )
    kb = replace(kb, value_mappings=kb.value_mappings + new_maps)
    kn.store_kb(kb, kb_path, schema)
    click.echo(
        f"annotations: {len(result.annotations)}, value mappings: {len(result.value_mappings)}, "
        f"failures: {len(result.failures)}"
    )
    return StageResult(
        {"failures": result.failures},
        partial=f"{len(result.failures)} enrichment items failed" if result.failures else None,
    )


@stage_command("mine-terms", writes=("kb_path",), manifest_path="{kb_path}.manifest.json",
               settings=("mine.top_k", "mine.n_target"))
@schema_options
@kb_option(required=True, exists=False)
@click.option("--top-k", type=POSITIVE_INT, default=None)
@click.option("--n-target", type=POSITIVE_INT, default=None)
def mine_terms_cmd(stage, schema, kb_path, kb):
    """Mine domain terms by cross-cluster column combination."""
    kb = kb or kn.KnowledgeBase(db_id=schema.db_id)
    result = mine_terms(schema, stage.gateway, stage.config.mine, kb)
    existing = {t.item_key for t in kb.terms}
    new_terms = tuple(t for t in result.terms if t.item_key not in existing)
    kb = replace(kb, terms=kb.terms + new_terms)
    kn.store_kb(kb, kb_path, schema)
    report = result.report
    accepted = len(kb.accepted_terms)
    click.echo(
        f"terms returned: {report.returned} (valid generated: {report.valid_generated}, "
        f"clusters: {report.clusters}, review calls: {report.review_calls})"
    )
    click.echo(f"accepted terms: {accepted} / target {report.accepted_target}")
    return StageResult(
        {"mining_report": {**report.__dict__, "accepted_current": accepted}},
        partial="mining stopped before reaching the target" if report.partial else None,
    )


@stage_command("build-graph", offline=True, writes=("out_path", "kb_path"),
               settings=("graph.question_clusters", "graph.skeleton_clusters"))
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True,
              help="JSONL with {id, db_id, question, sql} records.")
@schema_options
@kb_option(exists=False)
@click.option("--kq", "question_clusters", type=POSITIVE_INT, default=None,
              help="Pinned question-cluster count.")
@click.option("--ks", "skeleton_clusters", type=POSITIVE_INT, default=None,
              help="Pinned skeleton-cluster count.")
def build_graph_cmd(stage, corpus_path, schema, kb_path, kb, out_path):
    """Cluster the corpus and build the pattern graph."""
    pairs = _labeled_pairs(corpus_path, schema.db_id)
    graph = pg.build_graph(pairs, schema, kb, stage.config.graph)
    pg.store_graph(graph, out_path)
    if kb is not None:
        refs = tuple(
            kn.QueryPatternRef(graph_ref=graph.graph_id, skeleton_cluster=sc.id)
            for sc in graph.skeleton_clusters
        )
        kb = replace(kb, graph_ref=graph.graph_id, pattern_refs=refs)
        kn.store_kb(kb, kb_path, schema)
    click.echo(
        f"graph: {len(graph.question_clusters)} question clusters, "
        f"{len(graph.skeleton_clusters)} skeleton clusters, {len(graph.edges)} edges, "
        f"{len(graph.dropped)} pairs dropped"
    )
    return StageResult(
        {"dropped": [list(d) for d in graph.dropped]},
        partial=f"{len(graph.dropped)} pairs dropped" if graph.dropped else None,
    )


@stage_command("link", offline=True, settings=("link.k1", "link.k2", "link.k3"))
@schema_options
@kb_option()
@click.option("--question", required=True)
@click.option("--k1", type=POSITIVE_INT, default=None)
@click.option("--k2", type=POSITIVE_INT, default=None)
@click.option("--k3", type=POSITIVE_INT, default=None)
def link_cmd(stage, schema, kb_path, kb, question, out_path):
    """Link a question to tables, columns and domain terms."""
    ks = stage.config.link
    result = lk.link(question, schema, kb, k1=ks.k1, k2=ks.k2, k3=ks.k3)
    write_json(out_path, {
        "question": result.question,
        "tables": [[t, s] for t, s in result.tables],
        "columns": {t: [[c, s] for c, s in cols] for t, cols in result.columns.items()},
        "terms": [
            {"term_text": t.term_text, "sql_expression": t.sql_expression, "score": s}
            for t, s in result.terms
        ],
        "expansion_added": sorted(result.expansion_added),
    })
    click.echo(f"linked {len(result.tables)} tables, {len(result.linked_column_ids())} columns")


@stage_command("eval-slr", offline=True, settings=("link.k1", "link.k3"))
@schema_options
@kb_option()
@click.option("--eval", "eval_path", type=click.Path(exists=True), required=True,
              help="JSONL with {question, sql} records (gold).")
@click.option("--k2", "k2_list", default="4,8,12,16", callback=_k2_sweep,
              help="Comma-separated k2 sweep.")
@click.option("--k1", type=POSITIVE_INT, default=None)
@click.option("--k3", type=POSITIVE_INT, default=None)
def eval_slr_cmd(stage, schema, kb_path, kb, eval_path, k2_list, out_path):
    """Schema Linking Recall over a k2 sweep, written as CSV."""
    eval_set = _labeled_pairs(eval_path, schema.db_id)
    ks = stage.config.link
    with open_atomic(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["k2", "slr_step1", "slr_step2", "hits", "evaluated", "excluded"])
        reports = lk.slr(eval_set, schema, kb, k1=ks.k1, k2s=k2_list, k3=ks.k3)
        for k2, r in zip(k2_list, reports):
            writer.writerow([k2, f"{r.step1_recall:.6f}", f"{r.recall:.6f}", r.hits,
                             r.evaluated, r.excluded])
            click.echo(f"k2={k2}: step1={r.step1_recall:.4f} step2={r.recall:.4f}")


@stage_command("assemble-prompt", offline=True, settings=("budgets.inference", "link.k4"))
@schema_options
@kb_option()
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--question", required=True)
@click.option("--budget", "inference", type=click.IntRange(min=prompting.MIN_BUDGET),
              default=None)
@click.option("--k4", type=POSITIVE_INT, default=None)
@click.option("--qa-pairs", "qa_pairs_mode", is_flag=True, default=False,
              help="Emit full medoid QA pairs instead of skeletons.")
def assemble_prompt_cmd(stage, schema, kb_path, kb, graph_path, question, qa_pairs_mode,
                        out_path):
    """Assemble the generation prompt for one question."""
    config = stage.config
    link_result = lk.link(
        question, schema, kb, k1=config.link.k1, k2=config.link.k2, k3=config.link.k3
    )
    clusters = []
    if graph_path:
        clusters = pg.retrieve_clusters(question, pg.load_graph(graph_path), config.link.k4,
                                        seed=config.seed, schema=schema, kb=kb)
    skeletons = [sc.medoid_skeleton for sc in clusters]
    qa_pairs = [(sc.medoid_question, sc.medoid_sql) for sc in clusters] if qa_pairs_mode else None
    bundle = prompting.assemble(link_result, skeletons, question, config.budgets.inference,
                                schema=schema, kb=kb, qa_pairs=qa_pairs)
    with open_atomic(out_path) as fh:
        fh.write(bundle.text)
    click.echo(f"tokens: {bundle.token_count}, truncated: {bundle.truncated}")
    return StageResult({"token_count": bundle.token_count, "truncated": bundle.truncated,
                        "dropped": asdict(bundle.dropped)})


@stage_command("build-templates", settings=("synth.pool_target",))
@schema_options
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None,
              help="Use the graph's representative skeletons.")
@click.option("--skeletons", "skeletons_path", type=click.Path(exists=True), default=None,
              help="Text file with one skeleton per line.")
@click.option("--pool-target", type=POSITIVE_INT, default=None)
def build_templates_cmd(stage, schema, graph_path, skeletons_path, out_path):
    """Expand skeletons into executable SQL templates."""
    if not graph_path and not skeletons_path:
        raise ConfigError("provide --graph or --skeletons")
    skeletons = []
    if graph_path:
        skeletons.extend(pg.representative_queries(pg.load_graph(graph_path)))
    if skeletons_path:
        for line in utf8_lines(Path(skeletons_path).read_bytes(), skeletons_path):
            line = line.strip()
            if line:
                skeletons.append(skeletonize(line))
    pool, report = syn.build_template_pool(skeletons, schema, stage.gateway, stage.config.synth)
    with open_atomic(out_path) as fh:
        for template in pool:
            fh.write(json.dumps(to_json(template), sort_keys=True,
                                ensure_ascii=False) + "\n")
    click.echo(
        f"templates: {len(pool)} retained of {report.requested} requested "
        f"({report.rejected} rejected, {report.skipped_skeletons} skeletons skipped)"
    )
    return StageResult(
        {"rejected": report.rejected,
         "rejected_reasons": dict(sorted(report.rejected_reasons.items())),
         "skipped_skeletons": report.skipped_skeletons},
        partial="some templates were rejected or skipped"
        if report.rejected or report.skipped_skeletons else None,
    )


@stage_command("synthesize", settings=("synth.rho", "synth.alpha"))
@schema_options
@kb_option()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--templates", "templates_path", type=click.Path(exists=True), required=True)
@click.option("--m-real", type=POSITIVE_INT, required=True,
              help="Number of real training examples being mixed with.")
@click.option("--rho", type=float, default=None)
@click.option("--alpha", type=float, default=None)
def synthesize_cmd(stage, schema, kb_path, kb, graph_path, templates_path, m_real, out_path):
    """Sample templates, generate question-SQL pairs, and augment 16x."""
    config = stage.config
    reps = pg.representative_queries(pg.load_graph(graph_path))
    pool = _read_rows(templates_path, syn.SqlTemplate)
    sampled = syn.sample_templates(pool, reps, m_real, seed=config.seed, config=config.synth)
    with open_atomic(out_path) as fh:
        report = syn.synthesize(sampled, schema, kb, stage.gateway, fh.write, config.synth)
    click.echo("sampled {sampled} templates -> {base_pairs} base pairs -> "
               "{augmented} augmented pairs".format(**report))
    return StageResult(report, partial=f"{report['rejected']} templates rejected at "
                       "generation" if report["rejected"] else None)


@stage_command("score-reward", offline=True)
@click.option("--db", "db_path", type=click.Path(exists=True), required=True,
              help="SQLite database file (opened read-only; queries are executed).")
@click.option("--db-id", default=None)
@kb_option()
@click.option("--candidates", "candidates_path", type=click.Path(exists=True), required=True,
              help="JSONL with {id, question, gold_sql, candidate_sql | candidates}.")
def score_reward_cmd(stage, db_path, db_id, kb_path, kb, candidates_path, out_path):
    """Score candidate SQL with the tiered execution/knowledge reward."""
    config = stage.config
    results = []
    histogram: dict[str, int] = {}
    failures = 0
    requests = _read_rows(candidates_path, RewardRequest)
    with open_sqlite(db_path, db_id) as (conn, schema):
        for row in requests:
            candidates = list(row.candidates or (row.candidate_sql,))
            link_result = lk.link(
                row.question, schema, kb,
                k1=config.link.k1, k2=config.link.k2, k3=config.link.k3,
            )
            try:
                outcomes = rw.score_many(candidates, row.gold_sql, conn, link_result,
                                         schema=schema, timeout_ms=config.reward_timeout_ms)
            except ValueError as exc:
                scores = [{"error": str(exc)} for _ in candidates]
                failures += len(candidates)
            else:
                scores = []
                for outcome in outcomes:
                    scores.append({"tier": outcome.tier.value, "value": outcome.value,
                                   "diagnostics": outcome.diagnostics})
                    histogram[outcome.tier.value] = histogram.get(outcome.tier.value, 0) + 1
            results.append({"id": row.id, "scores": scores})
    write_json(out_path, {"results": results, "tier_histogram": dict(sorted(histogram.items()))})
    click.echo("tier histogram: " + json.dumps(dict(sorted(histogram.items()))))
    return StageResult(partial=f"{failures} candidates could not be scored" if failures else None)


@stage_command("review", writes=("kb_path", "events_path"),
               manifest_path="{kb_path}.review-manifest.json",
               events_path="{kb_path}.events.jsonl")
@schema_options
@kb_option(required=True)
@click.option("--events", "events_path", type=click.Path(), default=None,
              help="Append-only event log (defaults to <kb>.events.jsonl).")
@click.option("--annotator", default=None, help="Annotator id for votes.")
@click.option("--adjudicator", default=None, help="Adjudicator id for tie-breaks.")
@click.option("--llm-score/--no-llm-score", default=True,
              help="Score Pending items with both reviewer models first.")
def review_cmd(stage, schema, kb_path, kb, events_path, annotator, adjudicator, llm_score):
    """Review queue: LLM gate, then one-at-a-time human votes/adjudications."""
    session = vd.replay(kb, events_path)
    new_events: list[dict] = []
    if llm_score:
        session, new_events = vd.run_llm_reviews(session, stage.gateway)
        if new_events:
            click.echo(f"scored {len(new_events) // 2} pending items with both reviewers")

    queue = vd.human_queue(session)
    if not queue:
        click.echo("queue empty")
    stopped = None
    for number, item in enumerate(queue, 1):
        question, sql = vd.scoring_payload(item)
        click.echo(f"\n[{item.item_key}] {type(item).__name__}")
        click.echo(f"  text: {question}")
        click.echo(f"  sql:  {sql}")
        if vd.needs_adjudication(item):
            if adjudicator is None:
                click.echo("  needs adjudication (rerun with --adjudicator)")
                continue
            action, who, make_event = "adjudicate", adjudicator, vd.adjudicate_event
        else:
            if annotator is None:
                click.echo("  awaiting votes (rerun with --annotator)")
                continue
            if any(v.annotator_id == annotator for v in item.status.human_votes):
                click.echo("  already voted by this annotator")
                continue
            action, who, make_event = "vote", annotator, vd.vote_event
        try:
            decision = click.prompt(f"  {action} [a]ccept/[r]eject/[s]kip", default="s").lower()
        except click.exceptions.Abort:  # end of input or Ctrl-C: keep what the session made
            stopped = f"review stopped at item {number} of {len(queue)}: input ended"
            break
        if decision.startswith(("a", "r")):
            new_events.append(make_event(item.item_key, who, decision.startswith("a")))

    kb, appended = vd.commit(kb, new_events, events_path, kb_path, schema)
    if len(appended) < len(new_events):
        click.echo(f"\ndropped {len(new_events) - len(appended)} events that another "
                   "session's events made illegal")
    accepted = sum(item.status.state is kn.State.ACCEPTED for item in kb.items)
    click.echo(f"\naccepted items: {accepted}; queue remaining: {len(vd.human_queue(kb))}")
    return StageResult({"events_appended": len(appended)}, partial=stopped)


@stage_command("export-graph", offline=True)
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
def export_graph_cmd(stage, graph_path, out_path):
    """Export the pattern graph as a Cypher statement stream."""
    graph = pg.load_graph(graph_path)
    with open_atomic(out_path) as fh:
        fh.write(pg.export_cypher(graph))
    click.echo(f"wrote {len(graph.edges)} edges")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except PartialFailure as exc:
        click.echo(f"partial failure: {exc}", err=True)
        return EXIT_PARTIAL
    except (ConfigError, click.UsageError) as exc:  # a UsageError's message names the option
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"error: {message}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except SqlKnowError as exc:
        click.echo(f"pipeline error: {exc}", err=True)
        return EXIT_PIPELINE
    except OSError as exc:  # a path that cannot be read or written
        click.echo(f"pipeline error: {exc.filename}: {exc.strerror}" if exc.filename else
                   f"pipeline error: {exc}", err=True)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
