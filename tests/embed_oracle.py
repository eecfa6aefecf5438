"""The embedding that the memoized trigram slots in ``textproc`` replaced,
kept as a test oracle: one ``blake2b`` digest per character trigram, read for
the bucket (the digest modulo the width) and the sign (bit 40)."""

from __future__ import annotations

import hashlib

import numpy as np

from sqlknow.textproc import EMBED_DIMENSION


def embed_values(text: str) -> np.ndarray:
    """The hashed-trigram vector of ``text``, L2-normalized unless it is zero."""
    norm = " ".join(text.casefold().split())
    values = np.zeros(EMBED_DIMENSION)
    if not norm:
        return values
    grams = [norm] if len(norm) < 3 else [norm[i : i + 3] for i in range(len(norm) - 2)]
    for g in grams:
        h = int.from_bytes(hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(), "big")
        bucket = h % EMBED_DIMENSION
        sign = 1.0 if (h >> 40) & 1 == 0 else -1.0
        values[bucket] += sign
    norm2 = float(np.linalg.norm(values))
    return values if norm2 == 0.0 else values / norm2
