"""The two benchmark workloads and their correctness checks.

Each workload runs in one process with one closed-loop client: the next
question is sent only after the previous one is answered and scored.

* serve_bird: set-up (schema ingest, KB build, store and reload, graph build,
  store and reload) is repeated ``SETUP_REPEATS`` times; then questions are
  served for the requested seconds, and for at least ``MIN_QUESTIONS``
  measured questions after ``WARMUP_QUESTIONS``, so that p90 has ten samples
  beyond it.
* schools: the offline pipeline through ``sqlknow.cli.main`` on the small
  schools database, then the same set-ups and serve loop on the large one.

Every timing is scaled to a reference machine speed by a probe timed next
to it, off the clock (see ``probe``).

After serving, off the clock, each run scores ``gen.HOSTILE_QUESTIONS``
questions that carry a hostile candidate; what the program does wrong there
is counted apart from the served operations.

The benchmark only calls the program's public functions, through module
attributes, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import sqlite3
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import gen
import spans
from sqlknow import cli, knowledge, linker, pattern_graph, prompting, reward, schema, term_miner
from sqlknow import validation
from sqlknow.config import AppConfig
from sqlknow.gateway import Gateway, GatewayConfig

WORKLOADS = gen.WORKLOADS
SETUP_REPEATS = 3  # set-ups before serving; setup_s is their median
WARMUP_QUESTIONS = 3  # served and checked, but not measured
MIN_QUESTIONS = 100  # measured questions: p90 has ten samples beyond it
DIGEST_QUESTIONS = 30  # every run serves at least this prefix; the digest covers it
REPLAY_QUESTIONS = 3
OVERHEAD_PAIRS = 8  # questions served both untraced and traced, back to back
# the serve loop stops here even when it is short of MIN_QUESTIONS, so that a
# run on a slow machine still ends in time
SERVE_DEADLINE_S = 100.0
# The probe: arithmetic, then random lookups in a dict of about two megabytes,
# so that it slows down both when the CPU is shared and when the cache is.
PROBE_LOOPS = 20000
PROBE_TABLE = {f"probe-{i:06d}": i for i in range(1 << 14)}
PROBE_KEYS = random.Random(0).sample(sorted(PROBE_TABLE), 8192)
PROBE_REF_S = 0.004  # the probe's time at the reference speed
SAMPLE_EVERY_S = 0.1  # probe interval inside a long timed region (set-up, build stage)
CONFIG = AppConfig()

SIZES = {
    # questions generated; graph corpus pairs; database rows; the offline
    # build's corpus pairs and database rows
    "serve_bird": {"questions": 600, "corpus": 60},
    "schools": {"questions": 1500, "corpus": 200, "rows": 20000,
                "build_corpus": 1500, "build_rows": 40},
}


class Ledger:
    """Attempted and failed operations. A prompt and each scored candidate
    are one operation each; so is each build stage."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1


@dataclass
class Served:
    schema: object
    kb: object
    graph: object
    conn: sqlite3.Connection | None = None


@dataclass
class Sample:
    """One served question: its prompt and reward latencies (None when that
    step failed) and the program's time on the whole question, all as
    measured; and the speed factors of the probes on either side of the
    prompt and of the reward."""

    prompt_ms: float | None
    reward_ms: float | None
    program_s: float
    prompt_speed: float
    reward_speed: float

    def scaled_program_s(self) -> float:
        prompt_s = self.program_s if self.prompt_ms is None else self.prompt_ms / 1e3
        return prompt_s * self.prompt_speed + (self.program_s - prompt_s) * self.reward_speed


@dataclass
class PassResult:
    setup_s: list[Timed] = field(default_factory=list)
    build_s: list[Timed] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    overhead_ratio: float = 0.0
    digest: str = ""
    errors: list[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def probe() -> float:
    """Seconds taken by the fixed probe work. Other tenants of a shared
    machine slow it down in bursts and in periods of minutes; the program is
    slowed with it, so each timing is scaled to the reference speed by the
    probes timed next to it (``speed``, ``Sampled``). The probe never looks
    at the program."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    for key in PROBE_KEYS:
        acc += PROBE_TABLE[key]
    return perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Factor from measured time to time at the reference speed."""
    return PROBE_REF_S / ((before + after) / 2)


_sampled_s = 0.0  # time spent in probes run by the sampling signal handler


def now() -> float:
    """The benchmark's clock: perf_counter() less the probes that ``Sampled``
    ran inside timed regions."""
    return perf_counter() - _sampled_s


class Sampled:
    """Times a long region and runs the probe every SAMPLE_EVERY_S seconds
    inside it, from a SIGALRM handler in the main thread (no extra thread;
    system calls interrupted by the signal are restarted). ``took`` is the
    region's time on ``now``; ``speed`` comes from the median probe."""

    def __enter__(self):
        self.probes = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        self._t0 = now()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _tick(self, *_):
        global _sampled_s
        took = probe()
        _sampled_s += took
        self.probes.append(took)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.took = now() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())
        self.speed = PROBE_REF_S / statistics.median(self.probes)
        return False


@dataclass
class Timed:
    """A sum of ``Sampled`` regions, as measured and scaled."""

    measured_s: float = 0.0
    scaled_s: float = 0.0

    def add(self, region: Sampled) -> None:
        self.measured_s += region.took
        self.scaled_s += region.took * region.speed


# -- inputs ------------------------------------------------------------------------


@dataclass
class Inputs:
    db_path: Path
    questions: list
    corpus_path: Path
    db_id: str
    hostile: list
    # the offline build's database and corpus (schools only)
    build_db_path: Path | None = None
    build_corpus_path: Path | None = None


def make_inputs(workload: str, seed: int, work: Path, sizes: dict | None = None) -> Inputs:
    size = dict(SIZES[workload], **(sizes or {}))
    work.mkdir(parents=True, exist_ok=True)
    corpus_path = work / "corpus.jsonl"
    if workload == "serve_bird":
        db_path = work / "bird.sqlite"
        db = gen.write_bird_db(db_path, seed)
        questions = gen.bird_questions(db, seed, size["questions"])
        gen.write_jsonl(corpus_path, gen.bird_corpus(db, seed, size["corpus"]))
        return Inputs(db_path, questions, corpus_path, "bird", gen.hostile_questions(questions))
    # the CLI takes the database id from the file name
    db_path, build_db_path = work / "schools.sqlite", work / "small" / "schools.sqlite"
    build_db_path.parent.mkdir(exist_ok=True)
    db = gen.write_schools_db(db_path, seed, size["rows"])
    questions = gen.schools_questions(db, seed, size["questions"])
    gen.write_jsonl(corpus_path, gen.schools_corpus(db, seed, size["corpus"]))
    build_db = gen.write_schools_db(build_db_path, seed, size["build_rows"])
    build_corpus_path = work / "build_corpus.jsonl"
    gen.write_jsonl(build_corpus_path, gen.build_corpus(build_db, seed, size["build_corpus"]))
    return Inputs(db_path, questions, corpus_path, "schools", gen.hostile_questions(questions),
                  build_db_path, build_corpus_path)


def inputs_digest(inputs: Inputs) -> str:
    """Digest of every generated input, for the same-seed determinism test."""
    h = hashlib.sha256()
    for path in (inputs.db_path, inputs.build_db_path):
        if path is None:
            continue
        conn = sqlite3.connect(str(path))
        try:
            for line in conn.iterdump():
                h.update(line.encode())
        finally:
            conn.close()
    for path in (inputs.corpus_path, inputs.build_corpus_path):
        if path is not None:
            h.update(path.read_bytes())
    for q in inputs.questions + inputs.hostile:
        h.update(json.dumps([q.qid, q.text, q.gold, q.candidates, q.kinds]).encode())
    return h.hexdigest()


# -- set-up ------------------------------------------------------------------------


def _schools_kb(db_id: str):
    """A KB shaped like the schools fixture: five annotations, three value
    mappings and two domain terms, all accepted."""
    kn = knowledge
    ok = kn.ValidationStatus(state=kn.State.ACCEPTED)
    return kn.KnowledgeBase(
        db_id=db_id,
        annotations=(
            kn.SchemaAnnotation("frpm", "Free and Reduced-Price Meal Program statistics",
                                "Free and Reduced-Price Meal Program", kn.Source.HUMAN, ok),
            kn.SchemaAnnotation("schools.CDSCode", "county-district-school code",
                                "county district school code", kn.Source.LLM, ok),
            kn.SchemaAnnotation("schools.Virtual", "virtual instruction status code",
                                None, kn.Source.LLM, ok),
            kn.SchemaAnnotation("satscores.NumTstTakr", "number of SAT test takers",
                                "number of test takers", kn.Source.LLM, ok),
            kn.SchemaAnnotation("satscores.NumGE1500",
                                "count of test takers scoring 1500 or above",
                                "number scoring at least 1500", kn.Source.LLM, ok),
        ),
        value_mappings=(
            kn.ValueMapping("schools.Virtual", "F", "Fully virtual", ok),
            kn.ValueMapping("schools.Virtual", "P", "Partially virtual", ok),
            kn.ValueMapping("schools.Virtual", "N", "Not virtual", ok),
        ),
        terms=(
            kn.DomainTerm("free meal rate", "(frpm.FreeMealCount / frpm.Enrollment)",
                          ("frpm.FreeMealCount", "frpm.Enrollment"), kn.Operator.DIV, 0.97,
                          "share of enrolled students receiving free meals", ok),
            kn.DomainTerm("excellence rate", "(satscores.NumGE1500 / satscores.NumTstTakr)",
                          ("satscores.NumGE1500", "satscores.NumTstTakr"), kn.Operator.DIV,
                          0.95, "share of test takers scoring at least 1500", ok),
        ),
    )


def annotator_votes(kb) -> list:
    """Two annotators vote on every queued item; every tenth item is voted
    down and every seventeenth is left split for adjudication."""
    events = []
    for i, item in enumerate(validation.human_queue(kb)):
        accept = i % 10 != 9
        events.append(validation.vote_event(item.item_key, "alice", accept))
        events.append(validation.vote_event(item.item_key, "bob", accept if i % 17 else not accept))
    return events


def _mined_kb(sch, db_id: str):
    """enrich_schema + mine_terms; the terms are accepted through validation
    events (both reviewer scores, then the annotators' votes)."""
    gateway = Gateway(GatewayConfig(backend="mock"))
    enriched = term_miner.enrich_schema(sch, gateway)
    mined = term_miner.mine_terms(sch, gateway, replace(CONFIG.mine, seed=CONFIG.seed))
    kb = knowledge.KnowledgeBase(db_id=db_id, terms=tuple(mined.terms))
    kb, _scores = validation.run_llm_reviews(kb, gateway)
    kb = validation.apply_events(kb, annotator_votes(kb))
    kb = kb.merge_annotations(enriched.annotations)
    return replace(kb, value_mappings=tuple(enriched.value_mappings))


def setup_serve(inputs: Inputs, work: Path) -> tuple[Served, Timed, Timed, list]:
    """Returns the served state, the set-up time, the build time (KB and
    graph construction inside set-up), and the stored artifacts' digests.
    Each step is scaled by the probes inside it."""
    kb_path, graph_path = work / "kb.json", work / "graph.json"
    pairs = [(r["question"], r["sql"])
             for r in map(json.loads, inputs.corpus_path.read_text().splitlines())]
    setup, build = Timed(), Timed()
    with Sampled() as step:
        sch = schema.load_schema_any(inputs.db_path, inputs.db_id)
    setup.add(step)
    with Sampled() as step:
        kb = _mined_kb(sch, inputs.db_id) if inputs.db_id == "bird" else _schools_kb(inputs.db_id)
    setup.add(step)
    build.add(step)
    with Sampled() as step:
        knowledge.store_kb(kb, kb_path, sch)
        kb = knowledge.load_kb(kb_path)
    setup.add(step)
    with Sampled() as step:
        graph = pattern_graph.build_graph(pairs, sch, kb, replace(CONFIG.graph, seed=CONFIG.seed))
    setup.add(step)
    build.add(step)
    with Sampled() as step:
        pattern_graph.store_graph(graph, graph_path)
        graph = pattern_graph.load_graph(graph_path)
    setup.add(step)
    graph.validate()
    artifacts = [_sha(kb_path.read_bytes()), _sha(graph_path.read_bytes())]
    return Served(sch, kb, graph), setup, build, artifacts


# -- the offline build -------------------------------------------------------------


def build_stages(inputs: Inputs, work: Path) -> list[tuple[str, list[str] | None]]:
    db, kb = str(inputs.build_db_path), str(work / "kb.json")
    graph, templates = str(work / "graph.json"), str(work / "templates.jsonl")
    return [
        ("enrich_schema", ["enrich-schema", "--db", db, "--kb", kb, "--mock"]),
        ("mine_terms", ["mine-terms", "--db", db, "--kb", kb, "--mock"]),
        ("review", ["review", "--db", db, "--kb", kb, "--mock"]),
        ("votes", None),
        ("review", ["review", "--db", db, "--kb", kb, "--no-llm-score", "--mock"]),
        ("build_graph", ["build-graph", "--corpus", str(inputs.build_corpus_path), "--db", db,
                         "--kb", kb, "--out", graph]),
        ("build_templates", ["build-templates", "--db", db, "--graph", graph, "--mock",
                             "--out", templates]),
        ("synthesize", ["synthesize", "--db", db, "--kb", kb, "--graph", graph,
                        "--templates", templates, "--m-real", "9821", "--mock",
                        "--out", str(work / "synth.jsonl")]),
    ]


def _append_votes(work: Path) -> None:
    kb = knowledge.load_kb(work / "kb.json")
    validation.append_events(work / "kb.json.events.jsonl", annotator_votes(kb))


def run_build(inputs: Inputs, work: Path, ledger: Ledger, recorder=None) -> tuple[Timed, list]:
    """All CLI stages in order, from an empty output directory; returns their
    time (each stage scaled by the probes inside it) and the artifact digests."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    log = io.StringIO()  # stage output is discarded
    build = Timed()
    for name, argv in build_stages(inputs, work):
        span = recorder.span(f"cli.{name}") if recorder else contextlib.nullcontext()
        ledger.attempted += 1
        with Sampled() as region, span, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            try:
                if argv is None:
                    _append_votes(work)
                    code = 0
                else:
                    code = cli.main(argv)
            except Exception as exc:  # a stage that crashes is a failed operation
                code = f"exception:{type(exc).__name__}"
        build.add(region)
        if code not in (0, 2):
            ledger.fail(f"stage:{name}:{code}")
    artifacts = []
    for fname in ("kb.json", "kb.json.events.jsonl", "graph.json", "templates.jsonl",
                  "synth.jsonl"):
        path = work / fname
        artifacts.append(_sha(path.read_bytes()) if path.exists() else "missing")
    return build, artifacts


def check_build(work: Path, errors: list[str]) -> None:
    synth = work / "synth.jsonl"
    lines = len(synth.read_text().splitlines()) if synth.exists() else 0
    if lines == 0 or lines % 16:
        errors.append(f"synthesized line count {lines} is not a positive multiple of 16")
    try:
        pattern_graph.load_graph(work / "graph.json").validate()
    except Exception as exc:  # any failure here is a correctness failure
        errors.append(f"built graph invalid: {exc!r}")


# -- serving ----------------------------------------------------------------------


def _outcome(o) -> list:
    return [o.tier.value, o.value, o.diagnostics]


def serve_one(served: Served, q, ledger: Ledger, errors: list[str], recorder=None,
              probe_between: bool = False):
    """One question: prompt (link, retrieve, assemble), then reward over its
    candidates. Returns (prompt seconds | None, reward seconds | None,
    program seconds, probe seconds | None, output bytes); with
    ``probe_between`` the probe is timed between prompt and reward."""
    sch, kb, conn = served.schema, served.kb, served.conn
    ledger.attempted += 1
    t0 = now()
    try:
        link = linker.link(q.text, sch, kb, k1=CONFIG.link.k1, k2=CONFIG.link.k2,
                           k3=CONFIG.link.k3)
        skeletons = pattern_graph.retrieve_skeletons(
            q.text, served.graph, CONFIG.link.k4, seed=CONFIG.seed, schema=sch, kb=kb)
        bundle = prompting.assemble(link, skeletons, q.text, CONFIG.budgets.train,
                                    schema=sch, kb=kb)
    except Exception as exc:  # a failed prompt is a failed operation
        took = now() - t0
        ledger.fail(f"prompt:{type(exc).__name__}")
        out = json.dumps([q.qid, "prompt-error", type(exc).__name__]).encode()
        return None, None, took, None, out
    t1 = now()
    mid = probe() if probe_between else None  # off the clock
    t2 = now()
    ledger.attempted += len(q.candidates)
    try:
        outcomes = reward.score_many(list(q.candidates), q.gold, conn, link, kb=kb,
                                     schema=sch, timeout_ms=CONFIG.reward_timeout_ms)
        raised = None
    except Exception as exc:  # scoring that raises is counted, then attributed below
        outcomes, raised = None, exc
    t3 = now()

    # bookkeeping outside the timed region
    if bundle.token_count > CONFIG.budgets.train or q.text not in bundle.text:
        errors.append(f"{q.qid}: prompt over budget or missing the question")
    if raised is not None or conn.in_transaction:
        conn.rollback()
        scored = _score_each(served, q, link, ledger, recorder)
        if outcomes is None:
            outcomes = scored
    rewards = [_outcome(o) if not isinstance(o, str) else ["error", o] for o in outcomes]
    for kind, r in zip(q.kinds, rewards):
        expected = {"gold_copy": "ExecMatch", "syntax": "Invalid"}.get(kind)
        if expected and r[0] != expected:
            errors.append(f"{q.qid}: {kind} candidate scored {r[0]}, expected {expected}")
    out = json.dumps([q.qid, bundle.text, bundle.token_count, bundle.truncated, rewards],
                     ensure_ascii=False).encode()
    return t1 - t0, (t3 - t2) if raised is None else None, (t1 - t0) + (t3 - t2), mid, out


def _score_each(served: Served, q, link, ledger: Ledger, recorder) -> list:
    """Scores candidates one at a time to find the ones that raise or leave
    uncommitted writes; rolls each write back so later timings see intact data."""
    conn = served.conn
    results = []
    with _untraced(recorder):
        for cand in q.candidates:
            try:
                results.append(reward.score(cand, q.gold, conn, link, kb=served.kb,
                                            schema=served.schema,
                                            timeout_ms=CONFIG.reward_timeout_ms))
            except Exception as exc:  # the failure being counted
                ledger.fail(f"reward-raises:{type(exc).__name__}")
                results.append(type(exc).__name__)
            if conn.in_transaction:
                ledger.fail("reward-uncommitted-write")
                conn.rollback()
    return results


def _untraced(recorder):
    return recorder.pause() if recorder else contextlib.nullcontext()


def serve(served: Served, questions: list, seconds: float, res: PassResult, ledger: Ledger,
          recorder=None, exact: int | None = None) -> list[bytes]:
    """Closed loop over the questions, in order. Runs ``exact`` questions
    when given; else for ``seconds`` and until MIN_QUESTIONS questions after
    the warm-up are measured, or until SERVE_DEADLINE_S."""
    outputs: list[bytes] = []
    digest = hashlib.sha256()
    start = now()
    before = probe()
    res.probes.append(before)
    i = 0
    while True:
        if exact is not None:
            if i >= exact:
                break
        elif i >= DIGEST_QUESTIONS:
            elapsed = now() - start
            if elapsed > SERVE_DEADLINE_S or (
                elapsed >= seconds and i >= WARMUP_QUESTIONS + MIN_QUESTIONS
            ):
                break
        q = questions[i % len(questions)]
        if recorder:
            recorder.qid = q.qid
        p, r, took, mid, out = serve_one(served, q, ledger, res.errors, recorder,
                                         probe_between=True)
        after = probe()
        mid = after if mid is None else mid  # the prompt failed
        res.probes += [mid, after]
        res.samples.append(Sample(None if p is None else p * 1e3, None if r is None else r * 1e3,
                                  took, speed(before, mid), speed(mid, after)))
        before = after
        if i < DIGEST_QUESTIONS:
            digest.update(out)
        if i < REPLAY_QUESTIONS:
            outputs.append(out)
        i += 1
    if recorder:
        recorder.qid = None
    res.digest = digest.hexdigest()
    return outputs


def replay(served: Served, questions: list, first: list[bytes], errors: list[str],
           recorder=None) -> None:
    with _untraced(recorder):
        for q, expected in zip(questions, first):
            out = serve_one(served, q, Ledger(), errors)[-1]
            if out != expected:
                errors.append(f"{q.qid}: replay produced different bytes")


def score_hostile(served: Served, questions: list, defects: Ledger, recorder=None) -> None:
    """Off the clock: the questions that carry a hostile candidate, served as
    any other. A candidate whose scoring raises or leaves an uncommitted write
    is a failed operation of ``defects``; every write is rolled back."""
    with _untraced(recorder):
        for q in questions:
            serve_one(served, q, defects, [])


# -- one pass over a workload ------------------------------------------------------------


def trace_overhead(served: Served, questions: list) -> float:
    """Median over questions of traced over untraced latency, minus one. Each
    question is served both ways back to back (alternating which goes first),
    so that slow and fast periods of the machine cancel out."""
    ratios = []
    for i, q in enumerate(questions):
        took = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            recorder = spans.Recorder() if traced else None
            if recorder:
                recorder.install()
            try:
                took[traced] = serve_one(served, q, Ledger(), [], recorder)[2]
            finally:
                if recorder:
                    recorder.uninstall()
        ratios.append(took[True] / took[False])
    return statistics.median(ratios) - 1.0


def run_pass(workload: str, inputs: Inputs, work: Path, seconds: float, ledger: Ledger,
             defects: Ledger, setups: int = SETUP_REPEATS, recorder=None,
             exact: int | None = None, overhead_pairs: int = 0) -> PassResult:
    """One pass: the offline build (schools), the set-ups, the serve loop, the
    replay check and the hostile questions. ``build_s`` holds the CLI build's
    wall time on schools, and each set-up's KB and graph builds on serve_bird."""
    res = PassResult()
    artifacts: list = []
    if inputs.build_db_path is not None:
        build, artifacts = run_build(inputs, work / "build", ledger, recorder)
        res.build_s.append(build)
        check_build(work / "build", res.errors)
    stored: list = []
    for _ in range(setups):
        served, setup, build, again = setup_serve(inputs, work)
        res.setup_s.append(setup)
        if inputs.build_db_path is None:
            res.build_s.append(build)
        if stored and again != stored:
            res.errors.append("set-up stored different KB or graph bytes on a repeat")
        stored = again
    served.conn = sqlite3.connect(str(inputs.db_path))
    try:
        first = serve(served, inputs.questions, seconds, res, ledger, recorder, exact)
        replay(served, inputs.questions, first, res.errors, recorder)
        score_hostile(served, inputs.hostile, defects, recorder)
        if overhead_pairs:
            res.overhead_ratio = trace_overhead(served, inputs.questions[:overhead_pairs])
    finally:
        served.conn.close()
    res.digest = _sha((res.digest + "".join(artifacts + stored)).encode())
    return res


# -- metrics -----------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured(res: PassResult) -> list[Sample]:
    return res.samples[WARMUP_QUESTIONS:]


def sample_counts(res: PassResult) -> dict[str, int]:
    kept = measured(res)
    return {"served": len(res.samples), "measured": len(kept),
            "prompt": sum(s.prompt_ms is not None for s in kept),
            "reward": sum(s.reward_ms is not None for s in kept),
            "setups": len(res.setup_s)}


def timings(res: PassResult, scale: bool = True) -> dict[str, float]:
    """Latencies and throughput over the questions after the warm-up; set-up
    time as the median over the run's set-ups. Each timing is scaled to the
    reference speed, or with ``scale=False`` left as measured."""
    kept = measured(res)
    f = (lambda factor: factor) if scale else (lambda factor: 1.0)
    prompt = [s.prompt_ms * f(s.prompt_speed) for s in kept if s.prompt_ms is not None]
    rewards = [s.reward_ms * f(s.reward_speed) for s in kept if s.reward_ms is not None]
    program_s = [s.scaled_program_s() if scale else s.program_s for s in kept]
    return {
        "prompt_p50_ms": statistics.median(prompt),
        "prompt_p90_ms": percentile(prompt, 0.9),
        "reward_p50_ms": statistics.median(rewards),
        "reward_p90_ms": percentile(rewards, 0.9),
        # completed questions per second of the program's own time on them
        "questions_per_s": len(rewards) / sum(program_s),
        # schools: the CLI build; serve_bird: the set-ups' KB and graph builds
        "build_s": statistics.median(t.scaled_s if scale else t.measured_s for t in res.build_s),
        "setup_s": statistics.median(t.scaled_s if scale else t.measured_s for t in res.setup_s),
    }


def end_to_end(res: PassResult) -> dict[str, float]:
    return {**timings(res), "peak_rss_mb": peak_rss_mb()}


def fresh_workdir(root: Path, workload: str, seed: int) -> Path:
    work = root / "work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work
