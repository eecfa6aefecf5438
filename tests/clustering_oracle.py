"""The per-point silhouette loop that the row-blocked ``mean_silhouette``
replaced, kept as a test oracle: it builds the full n x n cosine distance
matrix and, for every point, averages its distances to its own cluster (a)
and to each other cluster, the nearest of which gives b."""

from __future__ import annotations

import numpy as np

from sqlknow.clustering import _unit_rows


def mean_silhouette(x: np.ndarray, assignments) -> float:
    """Standard a/b silhouette under cosine distance; singletons count as 0."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(assignments, dtype=int)
    n = x.shape[0]
    unique = np.unique(labels)
    if len(unique) <= 1:
        return 0.0
    dist = 1.0 - _unit_rows(x) @ _unit_rows(x).T
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_size = int(own_mask.sum())
        if own_size <= 1:
            scores[i] = 0.0
            continue
        a = float(dist[i, own_mask].sum() - dist[i, i]) / (own_size - 1)
        b = min(
            float(dist[i, labels == other].mean()) for other in unique if other != own
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())
