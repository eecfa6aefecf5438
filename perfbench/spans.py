"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: each traced function is
replaced, in every ``sqlknow`` module that binds it, by a wrapper that records
(name, start, end, parent span, question id, info). Nothing inside
``src/sqlknow`` is changed. A layer's self time is its span time minus the
time its child spans cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span fields
NAME, START, END, PARENT, QID, INFO = range(6)


# Info callbacks get (args, kwargs, result, ok); ok is False when the call raised.


def _store_kb_info(args, kwargs, result, ok):
    return Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size if ok else 0


def _dispatch_info(args, kwargs, result, ok):
    gateway, req = args[0], args[1]
    usage = gateway.usage[-1] if ok else None
    return (req.kind.value, usage.input_tokens if ok else 0, usage.output_tokens if ok else 0)


# (defining module, attribute or "Class.method", span name, info callback)
TARGETS = (
    ("sqlknow.textproc", "mask_question", "textproc.mask", None),
    ("sqlknow.textproc", "HashingEmbedder.embed", "textproc.embed", None),
    ("sqlknow.linker", "link", "linker.link", None),
    ("sqlknow.linker", "score_relevance", "linker.score_relevance", None),
    ("sqlknow.prompting", "assemble", "prompting.assemble",
     lambda a, k, r, ok: ok and r.truncated),
    ("sqlknow.textproc", "estimate_tokens", "textproc.estimate_tokens", None),
    ("sqlknow.pattern_graph", "retrieve_skeletons", "pattern_graph.retrieve", None),
    ("sqlknow.pattern_graph", "build_graph", "pattern_graph.build_graph", None),
    ("sqlknow.pattern_graph", "load_graph", "pattern_graph.load_graph", None),
    ("sqlknow.clustering", "kmeans", "clustering.kmeans", None),
    ("sqlknow.clustering", "mean_silhouette", "clustering.silhouette", None),
    ("sqlknow.reward", "score_many", "reward.score_many",
     lambda a, k, r, ok: (a[1], len(a[0]))),
    ("sqlknow.reward", "score", "reward.score", lambda a, k, r, ok: ok and r.tier.value),
    ("sqlknow.reward", "execute_sql", "reward.execute", lambda a, k, r, ok: a[0]),
    ("sqlknow.sql_tokens", "tokenize", "sql_tokens.tokenize", None),
    ("sqlknow.skeleton", "skeletonize", "skeleton.skeletonize", None),
    ("sqlknow.sql_refs", "extract_references", "sql_refs.extract", None),
    ("sqlknow.sql_refs", "check_schema_consistency", "sql_refs.consistency", None),
    ("sqlknow.gateway", "Gateway.dispatch", "gateway.dispatch", _dispatch_info),
    ("sqlknow.term_miner", "enrich_schema", "term_miner.enrich", None),
    ("sqlknow.term_miner", "mine_terms", "term_miner.mine",
     lambda a, k, r, ok: (r.report.review_calls, r.report.valid_generated) if ok else (0, 0)),
    ("sqlknow.synthesis", "build_template_pool", "synthesis.pool", None),
    ("sqlknow.synthesis", "sample_templates", "synthesis.sample", None),
    ("sqlknow.synthesis", "generate_pairs", "synthesis.generate",
     lambda a, k, r, ok: (len(a[0]), len(r[0]) if ok else 0)),
    ("sqlknow.synthesis", "augment", "synthesis.augment", None),
    ("sqlknow.validation", "run_llm_reviews", "validation.llm_review", None),
    ("sqlknow.validation", "apply_events", "validation.apply_events",
     lambda a, k, r, ok: len(a[1])),
    ("sqlknow.knowledge", "load_kb", "knowledge.load_kb", None),
    ("sqlknow.knowledge", "store_kb", "knowledge.store_kb", _store_kb_info),
    ("sqlknow.schema", "load_schema_any", "schema.ingest", None),
    ("sqlknow.schema", "schema_from_sqlite_file", "schema.ingest", None),
    ("sqlknow.schema", "schema_from_sqlite", "schema.ingest", None),
)

CLI_STAGES = ("enrich_schema", "mine_terms", "review", "build_graph", "build_templates",
              "synthesize")
GATEWAY_KINDS = ("complete", "embed", "review", "score_pair")
TIERS = ("ExecMatch", "KnowledgeConsistent", "Executable", "Invalid")


class Recorder:
    """Records spans while installed; ``paused`` lets benchmark-side
    bookkeeping call the program without being counted.

    A closed span is a tuple of atomic values, which the garbage collector
    stops tracking, so a long trace does not slow the collections of the
    program being traced."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.qid: str | None = None
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.qid, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float, info=None) -> None:
        name, start, _, parent, qid, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, qid, info)
        self._stack.pop()

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI stage."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, perf_counter())

    def wrap(self, fn, name: str, info=None):
        recorder = self

        def traced(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            idx = recorder._open(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                recorder._close(idx, end, info(args, kwargs, result, ok) if info else None)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded sqlknow modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sqlknow" or n.startswith("sqlknow."))]
        for module_name, attr, name, info in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self.wrap(getattr(cls, method), name, info))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (see perfbench/README.md)."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    # nearest enclosing reward batch of each span (-1 if none)
    batch = [-1] * n
    for i, s in enumerate(spans):
        batch[i] = i if s[NAME] == "reward.score_many" else (
            batch[s[PARENT]] if s[PARENT] >= 0 else -1)

    def outermost(i: int) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == spans[i][NAME]:
                return False
            p = spans[p][PARENT]
        return True

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()) if outermost(i))

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, ()))

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, ())]

    def ratio(a, b):
        return a / b if b else 0.0

    batches = infos("reward.score_many")
    candidates = sum(b[1] for b in batches)
    gold_execs = sum(
        1 for i in by_name.get("reward.execute", ())
        if batch[i] >= 0 and spans[i][INFO] == spans[batch[i]][INFO][0]
    )
    tokenize_in_reward = sum(1 for i in by_name.get("sql_tokens.tokenize", ()) if batch[i] >= 0)
    assembles = by_name.get("prompting.assemble", [])
    render_passes = sum(
        1 for i in by_name.get("textproc.estimate_tokens", ())
        if spans[i][PARENT] >= 0 and _within(spans, i, "prompting.assemble")
    )
    mined = infos("term_miner.mine")
    generated = infos("synthesis.generate")
    dispatches = infos("gateway.dispatch")
    tiers = infos("reward.score")
    stored = infos("knowledge.store_kb")

    m = {
        "textproc.mask_calls": calls("textproc.mask"),
        "textproc.mask_s": total("textproc.mask"),
        "textproc.embed_calls": calls("textproc.embed"),
        "textproc.embed_s": total("textproc.embed"),
        "linker.link_calls": calls("linker.link"),
        "linker.link_s": self_time("linker.link"),
        "linker.score_relevance_s": total("linker.score_relevance"),
        "prompting.assemble_s": self_time("prompting.assemble"),
        "prompting.render_passes": ratio(render_passes, len(assembles)),
        "prompting.truncated_ratio": ratio(sum(1 for t in infos("prompting.assemble") if t),
                                           len(assembles)),
        "pattern_graph.retrieve_s": self_time("pattern_graph.retrieve"),
        "pattern_graph.build_graph_s": self_time("pattern_graph.build_graph"),
        "pattern_graph.load_graph_s": total("pattern_graph.load_graph"),
        "clustering.kmeans_calls": calls("clustering.kmeans"),
        "clustering.kmeans_s": total("clustering.kmeans"),
        "clustering.silhouette_s": total("clustering.silhouette"),
        "reward.score_calls": calls("reward.score"),
        "reward.score_s": self_time("reward.score"),
        "reward.execute_calls": calls("reward.execute"),
        "reward.execute_s": total("reward.execute"),
        "reward.gold_exec_per_candidate": ratio(gold_execs, candidates),
        "sql_tokens.tokenize_calls": calls("sql_tokens.tokenize"),
        "sql_tokens.tokenize_per_candidate": ratio(tokenize_in_reward, candidates),
        "skeleton.skeletonize_calls": calls("skeleton.skeletonize"),
        "skeleton.skeletonize_s": total("skeleton.skeletonize"),
        "sql_refs.extract_calls": calls("sql_refs.extract"),
        "sql_refs.extract_s": total("sql_refs.extract"),
        "sql_refs.consistency_calls": calls("sql_refs.consistency"),
        "gateway.dispatch_s": total("gateway.dispatch"),
        "gateway.input_tokens": sum(d[1] for d in dispatches),
        "gateway.output_tokens": sum(d[2] for d in dispatches),
        "term_miner.enrich_s": total("term_miner.enrich"),
        "term_miner.mine_s": total("term_miner.mine"),
        "term_miner.review_calls": sum(r[0] for r in mined),
        "term_miner.valid_ratio": ratio(sum(r[1] for r in mined), sum(r[0] for r in mined)),
        "synthesis.pool_s": total("synthesis.pool"),
        "synthesis.sample_s": total("synthesis.sample"),
        "synthesis.generate_s": total("synthesis.generate"),
        "synthesis.augment_s": total("synthesis.augment"),
        "synthesis.accepted_ratio": ratio(sum(g[1] for g in generated),
                                          sum(g[0] for g in generated)),
        "validation.llm_review_s": total("validation.llm_review"),
        "validation.apply_events_s": total("validation.apply_events"),
        "validation.events": sum(e for i, e in zip(by_name.get("validation.apply_events", ()),
                                                    infos("validation.apply_events"))
                                 if outermost(i)),
        "knowledge.load_kb_s": total("knowledge.load_kb"),
        "knowledge.store_kb_s": total("knowledge.store_kb"),
        "knowledge.store_kb_calls": calls("knowledge.store_kb"),
        "knowledge.kb_bytes": stored[-1] if stored else 0,
        "schema.ingest_s": total("schema.ingest"),
    }
    for kind in GATEWAY_KINDS:
        m[f"gateway.calls.{kind}"] = sum(1 for d in dispatches if d[0] == kind)
    for tier in TIERS:
        m[f"reward.tier.{tier}"] = sum(1 for t in tiers if t == tier)
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = total(f"cli.{stage}")
    return m


def _within(spans: list[tuple], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
