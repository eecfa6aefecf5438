"""Synthetic question-SQL data: template pool, biased sampling, generation,
and the 4x4 augmentation fan-out.

The number of templates drawn is N = ceil(rho/(1-rho) * M/fanout), where M is
the real-example count, rho the target synthetic share of the combined set,
and fanout the augmentation multiplier (1+sql_variants) * (1+phrasings).
Guided sampling weights template i by S_i^alpha where S_i is its mean cosine
similarity to the representative query skeletons; alpha > 0 pulls toward known
patterns, alpha < 0 pushes away, alpha = 0 is uniform. Non-positive
similarities are clamped to a small epsilon before exponentiation. All S_i come
from one product of the row-normalized template and representative matrices.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from math import ceil
from typing import Callable

import numpy as np

from .clustering import _unit_rows
from .errors import ConfigError, GatewayError, InsufficientDataError
from .gateway import Gateway
from .knowledge import KnowledgeBase
from .records import to_json
from .schema import DatabaseSchema
from .sql_refs import UNRESOLVABLE, ParsedQuery, parsed
from .textproc import check_width, embed

SIMILARITY_EPSILON = 1e-6


class Difficulty(Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"


@dataclass(frozen=True)
class SqlTemplate:
    id: str
    skeleton_id: str
    sql: str
    difficulty: Difficulty
    tables_used: int
    embedding: tuple[float, ...]

    def __post_init__(self):
        check_width("embedding", len(self.embedding))


@dataclass(frozen=True)
class SynthPair:
    question: str
    sql: str
    template_id: str
    variant_tag: tuple[int, int] = (0, 0)  # (sql_variant 0-3, phrasing 0-3)
    cot: str = ""


@dataclass(frozen=True)
class SynthConfig:
    rho: float = 0.6
    alpha: float = 10.0
    sql_variants: int = 3
    phrasings: int = 3
    k_terms: int = 5
    pool_target: int | None = None  # None -> retain every valid template
    bucket_shares: tuple[tuple[int, float], ...] = ((1, 0.3), (2, 0.4), (3, 0.3))
    all_synthetic_n: int | None = None  # N when rho == 1 (no real data left)

    def __post_init__(self):
        if min(self.sql_variants, self.phrasings) < 0:
            raise ValueError("sql_variants and phrasings must be >= 0")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if any(n is not None and n < 1 for n in (self.pool_target, self.all_synthetic_n)):
            raise ValueError("pool_target and all_synthetic_n must be >= 1 or null")
        if not self.bucket_shares:
            raise ValueError("bucket_shares must not be empty")
        if any(tables < 1 or not 0.0 < share <= 1.0 for tables, share in self.bucket_shares):
            raise ValueError("each bucket_shares entry needs a table count >= 1 and a share "
                             "in (0, 1]")

    @property
    def fanout(self) -> int:
        return (1 + self.sql_variants) * (1 + self.phrasings)


def _skeleton_digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=4).hexdigest()


@dataclass
class PoolReport:
    requested: int = 0
    rejected: int = 0
    rejected_reasons: Counter[str] = field(default_factory=Counter)
    skipped_skeletons: int = 0


def build_template_pool(
    skeletons: list[str],
    schema: DatabaseSchema,
    gateway: Gateway,
    config: SynthConfig = SynthConfig(),
) -> tuple[list[SqlTemplate], PoolReport]:
    """Expand each skeleton into one concrete template per difficulty level.

    Every retained template passes schema consistency; retention is capped per
    table-count bucket when ``pool_target`` is set. A skeleton is skipped at its
    first ``GatewayError``, which the gateway raises only after its own retries.
    """
    if not skeletons:
        raise InsufficientDataError("skeleton list must be nonempty")
    tables_payload = [
        {"name": t.name, "columns": [c.name for c in t.columns]} for t in schema.tables
    ]
    report = PoolReport()
    candidates: list[SqlTemplate] = []
    parse_cache: dict[str, ParsedQuery] = {}
    for skeleton in skeletons:
        skeleton_id = _skeleton_digest(skeleton)
        for difficulty in Difficulty:
            report.requested += 1
            payload = {"task": "expand_template", "skeleton": skeleton, "tables": tables_payload,
                       "difficulty": difficulty.value, "db_id": schema.db_id}
            try:
                sql = gateway.complete(payload).sql
            except GatewayError:
                report.skipped_skeletons += 1
                break
            query = parsed(sql.strip(), parse_cache)
            consistency = query.consistency(schema)
            if not consistency.ok:
                report.rejected += 1
                report.rejected_reasons.update(  # each diagnostic up to its last ": "
                    d.rsplit(": ", 1)[0] for d in consistency.diagnostics)
                continue
            candidates.append(
                SqlTemplate(
                    id=f"tpl-{len(candidates):05d}",
                    skeleton_id=skeleton_id,
                    sql=query.sql,
                    difficulty=difficulty,
                    tables_used=len(query.references(schema).tables),
                    embedding=tuple(embed(query.skeleton()).tolist()),
                )
            )
    if config.pool_target is None:
        return candidates, report

    shares = dict(config.bucket_shares)
    top_bucket = max(shares)
    caps = {b: ceil(share * config.pool_target) for b, share in shares.items()}
    kept: list[SqlTemplate] = []
    counts: dict[int, int] = {}
    for template in candidates:
        bucket = min(template.tables_used, top_bucket)
        if counts.get(bucket, 0) >= caps.get(bucket, 0):
            continue
        counts[bucket] = counts.get(bucket, 0) + 1
        kept.append(template)
    return kept, report


def template_similarities(pool: list[SqlTemplate], reps: list[str]) -> np.ndarray:
    """S_i: mean cosine similarity of each template to the representative set,
    as one product of the row-normalized templates x representatives matrices.
    A zero embedding has cosine 0 with everything, so its row stays 0."""
    if not pool or not reps:
        return np.zeros(len(pool))
    templates = _unit_rows(np.array([t.embedding for t in pool], dtype=float))
    rep_vecs = _unit_rows(np.array([embed(r) for r in reps]))
    return (templates @ rep_vecs.T).mean(axis=1)


def power_weights(similarities: np.ndarray, alpha: float) -> np.ndarray:
    """p_i = S_i^alpha / sum_j S_j^alpha with non-positive S clamped to epsilon."""
    sims = np.asarray(similarities, dtype=float)
    clamped = np.where(sims <= 0.0, SIMILARITY_EPSILON, sims)
    if np.any(sims <= 0.0):
        warnings.warn("non-positive template similarities clamped to epsilon")
    weights = clamped**alpha
    return weights / weights.sum()


def sampling_probabilities(pool: list[SqlTemplate], reps: list[str],
                           alpha: float) -> np.ndarray:
    n = len(pool)
    if not reps:
        return np.full(n, 1.0 / n)
    return power_weights(template_similarities(pool, reps), alpha)


def draw_count(m_real: int, rho: float, fanout: int) -> int:
    """N = ceil(rho/(1-rho) * M/fanout); the synthetic share of the combined
    set then sits within one fan-out quantum of rho."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1) for guided mixing")
    return ceil(rho / (1.0 - rho) * m_real / fanout)


def sample_templates(
    pool: list[SqlTemplate],
    reps: list[str],
    m_real: int,
    seed: int = 0,
    config: SynthConfig = SynthConfig(),
) -> list[SqlTemplate]:
    """Draw N templates with replacement under the config's (rho, alpha) policy:
    uniformly when rho >= 1 (no real data is left to guide them) or when ``reps``
    is empty, else template i with probability S_i^alpha / sum_j S_j^alpha."""
    if not pool:
        raise InsufficientDataError("template pool must be nonempty")
    if config.rho >= 1.0:
        if config.all_synthetic_n is None:
            raise ConfigError("rho=1 requires all_synthetic_n in the config")
        n, reps = config.all_synthetic_n, []
    else:
        n = draw_count(m_real, config.rho, config.fanout)
    cumulative = np.cumsum(sampling_probabilities(pool, reps, config.alpha))
    draws = np.random.Generator(np.random.PCG64(seed)).random(n)
    picks = np.searchsorted(cumulative, draws, side="right")
    return [pool[i] for i in np.minimum(picks, len(pool) - 1).tolist()]


# -- pair generation -----------------------------------------------------------------


@dataclass
class GenerationReport:
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (template_id, gate)
    kept: list[int] = field(default_factory=list)  # index in templates of each pair


def _relevant_terms(used: frozenset[str], kb: KnowledgeBase | None,
                    k_terms: int) -> list[dict]:
    """The ``k_terms`` active terms that share the most columns with ``used``."""
    if kb is None or k_terms <= 0:
        return []
    scored = []
    for term in kb.active_terms:
        overlap = len(used & set(term.columns_used))
        scored.append((-overlap, -term.confidence, term.term_text, term))
    scored.sort(key=lambda t: t[:3])
    return [
        {"term": t.term_text, "expression": t.sql_expression, "explanation": t.explanation}
        for _, _, _, t in scored[:k_terms]
    ]


def _semantic_gate(question: str, sql: str, gateway: Gateway) -> bool:
    """Both reviewer models must pass the reviewer gate (``LlmScore.passes_gate``)."""
    return all(gateway.score_pair(question, sql, model).passes_gate()
               for model in gateway.config.models)


def generate_pairs(
    templates: list[SqlTemplate],
    schema: DatabaseSchema,
    kb: KnowledgeBase | None,
    gateway: Gateway,
    k_terms: int = 5,
    parse_cache: dict[str, ParsedQuery] | None = None,
) -> tuple[list[SynthPair], GenerationReport]:
    """Generate one question-SQL pair per template through the gateway.

    A pair is kept only when it parses, is schema-consistent, and passes the
    dual-reviewer semantic gate; a rejection carries the failing gate's name,
    or ``gateway: `` and the error of a failed gateway call.
    ``parse_cache`` keeps one parse per SQL text across calls that share it,
    and the relevant terms are ranked once per distinct column set.
    """
    parse_cache = {} if parse_cache is None else parse_cache
    report = GenerationReport()
    pairs: list[SynthPair] = []
    terms_for: dict[frozenset[str], list[dict]] = {}  # column set -> its relevant terms
    for index, template in enumerate(templates):
        try:
            refs = parsed(template.sql, parse_cache).references(schema)
            tables, columns = refs.tables, refs.columns
        except UNRESOLVABLE:
            tables, columns = frozenset(), frozenset()
        if columns not in terms_for:
            terms_for[columns] = _relevant_terms(columns, kb, k_terms)
        try:
            reply = gateway.complete(
                {"task": "generate_pair", "template_sql": template.sql,
                 "tables_used": sorted(tables), "columns": sorted(columns),
                 "knowledge": terms_for[columns], "db_id": schema.db_id})
        except GatewayError as exc:
            report.rejected.append((template.id, f"gateway: {exc}"))
            continue
        query = parsed(reply.sql.strip(), parse_cache)
        question = reply.question.strip()
        try:
            query.skeleton()
            gate = ("schema_consistent" if not query.consistency(schema).ok
                    else None if _semantic_gate(question, query.sql, gateway) else "semantic")
        except UNRESOLVABLE:
            gate = "syntactic"
        except GatewayError as exc:
            gate = f"gateway: {exc}"
        if gate:
            report.rejected.append((template.id, gate))
            continue
        report.kept.append(index)
        pairs.append(SynthPair(question, query.sql, template.id, cot=reply.cot))
    return pairs, report


# -- augmentation --------------------------------------------------------------------


def _identifier_map(original: ParsedQuery, variant: ParsedQuery) -> dict[str, str]:
    """Positional mapping of changed identifiers, for minimal CoT adaptation."""
    orig, var = original.identifiers, variant.identifiers
    if orig is None or var is None or len(orig) != len(var):
        return {}
    return {o: v for o, v in zip(orig, var) if o != v}


def _adapt_cot(cot: str, mapping: dict[str, str]) -> str:
    out = cot
    for old, new in mapping.items():
        out = out.replace(old, new)
    return out


def augment(
    pair: SynthPair,
    schema: DatabaseSchema,
    gateway: Gateway,
    config: SynthConfig = SynthConfig(),
    parse_cache: dict[str, ParsedQuery] | None = None,
) -> list[SynthPair]:
    """Fan a pair that ``generate_pairs`` kept out into (1+sql_variants) x
    (1+phrasings) pairs.

    Each SQL rewrite must re-pass schema consistency; a failing rewrite is
    regenerated once and then falls back to the original SQL for that slot.
    ``parse_cache`` keeps one parse per SQL text across calls that share it.
    """
    parse_cache = {} if parse_cache is None else parse_cache

    def consistent(sql: str) -> bool:
        return parsed(sql, parse_cache).consistency(schema).ok
    variants = [pair.sql]
    try:
        rewrites = gateway.complete({"task": "rewrite_sql", "sql": pair.sql,
                                     "db_id": schema.db_id}).variants
    except GatewayError:
        rewrites = ()
    for slot in range(config.sql_variants):
        candidate = rewrites[slot] if slot < len(rewrites) else pair.sql
        if not consistent(candidate):
            try:
                retried = gateway.complete(
                    {"task": "rewrite_sql", "sql": pair.sql, "db_id": schema.db_id,
                     "retry_slot": slot}
                ).variants
                candidate = retried[slot] if slot < len(retried) else pair.sql
            except GatewayError:
                candidate = pair.sql
            if not consistent(candidate):
                candidate = pair.sql  # fallback slot
        variants.append(candidate)

    out: list[SynthPair] = []
    for v_idx, variant_sql in enumerate(variants):
        mapping = _identifier_map(parsed(pair.sql, parse_cache),
                                  parsed(variant_sql, parse_cache))
        cot = _adapt_cot(pair.cot, mapping)
        phrasings = [pair.question]
        try:
            alt = gateway.complete({"task": "rephrase_question", "question": pair.question,
                                    "sql": variant_sql, "db_id": schema.db_id}).phrasings
        except GatewayError:
            alt = ()
        for slot in range(config.phrasings):
            phrasings.append(alt[slot] if slot < len(alt) else pair.question)
        out.extend(replace(pair, question=question, sql=variant_sql, cot=cot,
                           variant_tag=(v_idx, p_idx)) for p_idx, question in enumerate(phrasings))
    return out


def dataset_record(pair: SynthPair, db_id: str) -> dict:
    """Line-delimited output record consumable by an external trainer: the pair,
    with the database and its provenance."""
    return {**to_json(pair), "db_id": db_id, "provenance": "synthesized"}


def synthesize(drawn: list[SqlTemplate], schema: DatabaseSchema, kb: KnowledgeBase | None,
               gateway: Gateway, write: Callable[[str], object],
               config: SynthConfig = SynthConfig()) -> dict:
    """Write through ``write`` the dataset lines of each draw, its entry's pair fanned
    out, and return the counts per draw, the ``distinct`` entries generated and the
    ``rejected_reasons`` of the distinct entries rejected: each gate, or gateway error
    up to its last ``": "``, with its count.

    Each distinct drawn pool entry (by identity) is generated once, in first-draw order,
    by one ``generate_pairs`` call. At its first draw its pair is augmented and its lines
    are encoded into one text, written at each of its draws and dropped after its last.
    So an entry's first draw decides its outcome for the whole run."""
    last = {id(entry): i for i, entry in enumerate(drawn)}  # entry -> its last draw
    entries = list({id(entry): entry for entry in drawn}.values())
    parse_cache: dict[str, ParsedQuery] = {}
    pairs, generated = generate_pairs(entries, schema, kb, gateway, config.k_terms, parse_cache)
    pair_of = {id(entries[i]): pair for i, pair in zip(generated.kept, pairs)}
    texts: dict[int, str] = {}  # entry -> its encoded lines, until its last draw
    kept = lines = 0
    for i, entry in enumerate(drawn):
        key = id(entry)
        if key in pair_of:
            if key not in texts:
                texts[key] = "".join(
                    json.dumps(dataset_record(v, schema.db_id), sort_keys=True,
                               ensure_ascii=False) + "\n"
                    for v in augment(pair_of[key], schema, gateway, config, parse_cache))
            text = texts.pop(key) if last[key] == i else texts[key]
            write(text)
            kept, lines = kept + 1, lines + text.count("\n")  # JSON escapes \n in a string
    reasons = Counter(gate.rsplit(": ", 1)[0] for _, gate in generated.rejected)
    return {"sampled": len(drawn), "distinct": len(entries), "base_pairs": kept,
            "augmented": lines, "rejected": len(drawn) - kept,
            "rejected_reasons": dict(sorted(reasons.items()))}
