"""Per-database vector index over domain-term texts.

Terms are embedded with the deterministic hashing embedder and searched by
cosine similarity; the linker can use this index for top-k3 term retrieval
instead of lexical overlap.

Public API:
    build_term_index(kb, config) -> TermVectorIndex
    TermVectorIndex.search(question, k) -> list[(DomainTerm, similarity)]
    save_term_index / load_term_index
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .knowledge import DomainTerm, KnowledgeBase, kb_from_dict, kb_to_dict
from .textproc import EmbedConfig, embed


@dataclass
class TermVectorIndex:
    db_id: str
    terms: list[DomainTerm]
    matrix: np.ndarray  # one L2-normalized row per term
    config: EmbedConfig

    def search(self, question: str, k: int) -> list[tuple[DomainTerm, float]]:
        """Top-k terms by cosine similarity to the question text."""
        if not self.terms or k < 1:
            return []
        query = embed(question, self.config).values
        sims = self.matrix @ query
        order = sorted(range(len(self.terms)),
                       key=lambda i: (-sims[i], self.terms[i].term_text))
        return [(self.terms[i], float(sims[i])) for i in order[:k]]


def build_term_index(kb: KnowledgeBase, config: EmbedConfig = EmbedConfig()) -> TermVectorIndex:
    """Index every active (non-rejected) term by its term_text embedding."""
    terms = kb.active_terms()
    if terms:
        matrix = np.vstack([embed(t.term_text, config).values for t in terms])
    else:
        matrix = np.zeros((0, config.dimension))
    return TermVectorIndex(db_id=kb.db_id, terms=terms, matrix=matrix, config=config)


def save_term_index(index: TermVectorIndex, path: str | Path) -> None:
    carrier = KnowledgeBase(db_id=index.db_id, terms=tuple(index.terms))
    payload = {
        "db_id": index.db_id,
        "dimension": index.config.dimension,
        "terms": kb_to_dict(carrier)["terms"],
        "vectors": [[float(v) for v in row] for row in index.matrix],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_term_index(path: str | Path) -> TermVectorIndex:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    carrier = kb_from_dict(
        {"db_id": payload["db_id"], "terms": payload["terms"]}
    )
    matrix = np.asarray(payload["vectors"], dtype=float)
    if matrix.size == 0:
        matrix = np.zeros((0, int(payload["dimension"])))
    return TermVectorIndex(
        db_id=payload["db_id"],
        terms=list(carrier.terms),
        matrix=matrix,
        config=EmbedConfig(dimension=int(payload["dimension"])),
    )
