"""Implementations that faster ones in ``sqlknow.clustering`` replaced, kept as
test oracles.

``kmeans`` runs every Lloyd step up to the cap, repairing each empty cluster
with a fresh count; it also returns the objective of each step it ran, so that
a test can tell a fit that reached the cap. ``mean_silhouette`` builds the full
n x n cosine distance matrix and, for every point, averages its distances to
its own cluster (a) and to each other cluster, the nearest of which gives b."""

from __future__ import annotations

import numpy as np

from sqlknow.clustering import MAX_LLOYD_ITERATIONS, Clustering, _unit_rows


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


def kmeans(vectors, k: int, seed: int = 0) -> tuple[Clustering, tuple[float, ...]]:
    """Cluster row vectors into k groups; deterministic for a fixed seed. Also
    returns the objective (summed cosine distance) of each step."""
    x = np.asarray(vectors, dtype=float)
    n = x.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    units = _unit_rows(x)

    rng = np.random.Generator(np.random.PCG64(seed))
    centers_idx = [int(rng.integers(n))]
    min_dist = (1.0 - units @ _unit_rows(x[centers_idx]).T)[:, 0]
    while len(centers_idx) < k:
        nxt = int(np.argmax(min_dist))  # argmax takes the first (smallest index) on ties
        centers_idx.append(nxt)
        min_dist = np.minimum(min_dist, (1.0 - units @ _unit_rows(x[[nxt]]).T)[:, 0])
    centroids = _unit_rows(x[centers_idx].copy())

    assignments = np.full(n, -1, dtype=int)
    history: list[float] = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        sims = units @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        for c in range(k):
            if np.any(new_assign == c):
                continue
            # an empty cluster takes the movable point farthest from its own centroid
            counts = np.bincount(new_assign, minlength=k)
            movable = np.flatnonzero(counts[new_assign] > 1)
            own_sims = sims[movable, new_assign[movable]]
            new_assign[movable[int(np.argmin(own_sims))]] = c
        history.append(float(np.sum(1.0 - sims[np.arange(n), new_assign])))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            mean = units[assignments == c].mean(axis=0)
            norm = float(np.linalg.norm(mean))
            centroids[c] = mean / norm if norm > 0 else mean

    sims = units @ centroids.T
    medoids = []
    for c in range(k):
        member_ids = np.flatnonzero(assignments == c)
        medoids.append(int(member_ids[int(np.argmax(sims[member_ids, c]))]))

    clustering = Clustering(
        k=k,
        assignments=tuple(int(a) for a in assignments),
        centroids=centroids,
        medoid_ids=tuple(medoids),
    )
    return clustering, tuple(history)
