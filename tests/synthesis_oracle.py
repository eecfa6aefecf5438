"""The per-pair similarity loop that the matrix product in
``synthesis.template_similarities`` replaced, kept as a test oracle: for every
template it takes the cosine to each representative skeleton's embedding,
working out both norms again for each pair, and averages them."""

from __future__ import annotations

import numpy as np

from retrieval_oracle import cosine
from sqlknow.synthesis import SqlTemplate
from sqlknow.textproc import embed


def template_similarities(pool: list[SqlTemplate], reps: list[str],
                          dimension: int = 512) -> np.ndarray:
    """S_i: mean cosine similarity of each template to the representative set."""
    rep_vecs = [embed(r, dimension) for r in reps]
    sims = np.zeros(len(pool))
    for i, template in enumerate(pool):
        tvec = np.asarray(template.embedding)
        if rep_vecs:
            sims[i] = float(np.mean([cosine(tvec, rv) for rv in rep_vecs]))
    return sims
