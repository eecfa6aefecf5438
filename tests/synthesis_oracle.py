"""Synthesis loops that faster code replaced, kept as test oracles.

``template_similarities`` is the per-pair similarity loop that the matrix
product in ``synthesis.template_similarities`` replaced: for every template it
takes the cosine to each representative skeleton's embedding, working out both
norms again for each pair, and averages them. ``synthesize`` is the per-draw
fan-out that ``synthesis.synthesize`` replaced."""

from __future__ import annotations

import json

import numpy as np

from retrieval_oracle import cosine
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


def synthesize(drawn: list[SqlTemplate], schema, kb, gateway,
               config: SynthConfig = SynthConfig()) -> tuple[str, dict]:
    """The per-draw loop that ``synthesis.synthesize`` replaced: ``generate_pairs``
    over every draw, then ``augment`` of each pair and one ``dataset_record``
    line per variant. Returns the lines as one text and the report counts."""
    parse_cache = {}
    pairs, report = generate_pairs(drawn, schema, kb, gateway, config.k_terms, parse_cache)
    lines = [json.dumps(dataset_record(variant, schema.db_id), sort_keys=True,
                        ensure_ascii=False) + "\n"
             for pair in pairs
             for variant in augment(pair, schema, gateway, config, parse_cache=parse_cache)]
    return "".join(lines), {"sampled": len(drawn), "base_pairs": len(pairs),
                            "augmented": len(lines), "rejected": len(report.rejected)}
