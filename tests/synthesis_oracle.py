"""Synthesis loops that faster code replaced, kept as test oracles.

``template_similarities`` is the per-pair similarity loop that the matrix
product in ``synthesis.template_similarities`` replaced: for every template it
takes the cosine to each representative skeleton's embedding, working out both
norms again for each pair, and averages them. ``sample_templates`` is the loop
that draws one uniform and searches the cumulative probabilities once per draw.
``synthesize`` is the per-draw fan-out that ``synthesis.synthesize`` replaced."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from retrieval_oracle import cosine
from sqlknow import synthesis
from sqlknow.synthesis import SqlTemplate, SynthConfig, augment, dataset_record, generate_pairs
from sqlknow.textproc import embed


def template_similarities(pool: list[SqlTemplate], reps: list[str]) -> np.ndarray:
    """S_i: mean cosine similarity of each template to the representative set."""
    rep_vecs = [embed(r) for r in reps]
    sims = np.zeros(len(pool))
    for i, template in enumerate(pool):
        tvec = np.asarray(template.embedding)
        if rep_vecs:
            sims[i] = float(np.mean([cosine(tvec, rv) for rv in rep_vecs]))
    return sims


def sample_templates(pool: list[SqlTemplate], reps: list[str], m_real: int, seed: int = 0,
                     config: SynthConfig = SynthConfig()) -> list[SqlTemplate]:
    """N draws with replacement, one ``rng.random()`` and one search each; a
    uniform past the last cumulative probability takes the last template."""
    if config.rho >= 1.0:
        n, reps = config.all_synthetic_n, []
    else:
        n = synthesis.draw_count(m_real, config.rho, config.fanout)
    cumulative = np.cumsum(synthesis.sampling_probabilities(pool, reps, config.alpha))
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = []
    for _ in range(n):
        r = rng.random()
        idx = int(np.searchsorted(cumulative, r, side="right"))
        chosen.append(pool[min(idx, len(pool) - 1)])
    return chosen


def synthesize(drawn: list[SqlTemplate], schema, kb, gateway,
               config: SynthConfig = SynthConfig()) -> tuple[str, dict]:
    """The per-draw loop that ``synthesis.synthesize`` replaced: ``generate_pairs``
    over every draw, then ``augment`` of each pair and one ``dataset_record``
    line per variant. Returns the lines as one text and the report counts, with
    the reasons of the distinct entries (by identity) rejected."""
    parse_cache = {}
    pairs, report = generate_pairs(drawn, schema, kb, gateway, config.k_terms, parse_cache)
    lines = [json.dumps(dataset_record(variant, schema.db_id), sort_keys=True,
                        ensure_ascii=False) + "\n"
             for pair in pairs
             for variant in augment(pair, schema, gateway, config, parse_cache=parse_cache)]
    kept = set(report.kept)
    rejected = [i for i in range(len(drawn)) if i not in kept]  # in report.rejected's order
    gates = {id(drawn[i]): gate for i, (_, gate) in zip(rejected, report.rejected)}
    reasons = Counter(gate.rsplit(": ", 1)[0] for gate in gates.values())
    return "".join(lines), {"sampled": len(drawn), "base_pairs": len(pairs),
                            "augmented": len(lines), "rejected": len(report.rejected),
                            "rejected_reasons": dict(sorted(reasons.items()))}
