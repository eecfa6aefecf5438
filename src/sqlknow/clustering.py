"""Seeded k-means under cosine distance with silhouette-based model selection.

Initialization is farthest-first from a seeded starting point, so a fixed seed
gives a bit-identical clustering. Empty clusters are repaired by stealing the
point currently farthest from its own centroid. The centroids are a function of
the assignment, so a fit whose assignments repeat jumps to the state the step
cap would reach, with the same result. Only the centroid update loops over the
clusters, each gathered from one stable sort; the repair is one walk over the
points and the medoids one lexsort, with the bits of the per-cluster loops.

``fit`` decides every cluster count of the package: a pinned k is clamped to
[2, n] and computes no silhouette; with no pin, ``select_k`` sweeps k from 2 to
the caller's bound, capped at n - 1, and scores each k with the mean a/b
silhouette of Rousseeuw (1987) in which singleton clusters contribute 0. The
distances are taken a block of rows at a time and summed per cluster, so
memory is O(block * n) and no n x n matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_LLOYD_ITERATIONS = 100
SILHOUETTE_BLOCK = 256  # rows of the distance matrix held at once


@dataclass(frozen=True)
class Clustering:
    k: int
    assignments: tuple[int, ...]
    centroids: np.ndarray
    medoid_ids: tuple[int, ...]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return x / safe


def _fit_centroids(units: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> None:
    # each cluster's rows in index order from one stable sort; add.reduce / count is
    # .mean(axis=0), and sqrt(dot) np.linalg.norm of a vector, bit for bit
    order = np.argsort(assignments, kind="stable")
    ends = np.cumsum(np.bincount(assignments, minlength=len(centroids))).tolist()
    for c, (start, end) in enumerate(zip([0, *ends], ends)):
        mean = np.add.reduce(units[order[start:end]], axis=0) / (end - start)
        norm = math.sqrt(mean.dot(mean))
        centroids[c] = mean / norm if norm > 0 else mean


def kmeans(vectors, k: int, seed: int = 0) -> Clustering:
    """Cluster row vectors into k groups; deterministic for a fixed seed."""
    x = np.asarray(vectors, dtype=float)
    n = x.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    units = _unit_rows(x)

    rng = np.random.Generator(np.random.PCG64(seed))
    centers_idx = [int(rng.integers(n))]
    min_dist = (1.0 - units @ units[centers_idx].T)[:, 0]
    while len(centers_idx) < k:
        nxt = int(np.argmax(min_dist))  # argmax takes the first (smallest index) on ties
        centers_idx.append(nxt)
        min_dist = np.minimum(min_dist, (1.0 - units @ units[[nxt]].T)[:, 0])
    centroids = units[centers_idx]

    seen: dict[bytes, int] = {}  # each step's assignment -> its step, kept in step order
    for step in range(MAX_LLOYD_ITERATIONS):
        sims = units @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if not counts.all():
            # each empty cluster takes the movable point farthest from its own centroid;
            # a point once unmovable stays so, so one walk in similarity order serves all
            farthest = iter(np.argsort(sims[np.arange(n), new_assign], kind="stable").tolist())
            for c in np.flatnonzero(counts == 0).tolist():
                moved = next(p for p in farthest if counts[new_assign[p]] > 1)
                counts[new_assign[moved]] -= 1
                new_assign[moved] = c
        first = seen.setdefault(new_assign.tobytes(), step)
        if first == step - 1:  # converged
            break
        if first < step:  # a cycle: jump to the state the step cap would end on
            period = step - first
            final = first + (MAX_LLOYD_ITERATIONS - 1 - first) % period
            assignments = np.frombuffer(list(seen)[final], dtype=new_assign.dtype)
            _fit_centroids(units, assignments, centroids)
            break
        assignments = new_assign
        _fit_centroids(units, assignments, centroids)

    # a medoid is the member most similar to its centroid, the first on ties
    by_cluster = np.lexsort((-(units @ centroids.T)[np.arange(n), assignments], assignments))
    medoids = by_cluster[np.searchsorted(assignments[by_cluster], np.arange(k))]
    return Clustering(
        k=k,
        assignments=tuple(assignments.tolist()),
        centroids=centroids,
        medoid_ids=tuple(medoids.tolist()),
    )


def mean_silhouette(units: np.ndarray, assignments) -> float:
    """Standard a/b silhouette under cosine distance of the unit-length rows
    ``units``; singletons count as 0."""
    _, labels = np.unique(np.asarray(assignments, dtype=int), return_inverse=True)
    n = units.shape[0]
    sizes = np.bincount(labels)
    if len(sizes) <= 1:
        return 0.0
    # columns sorted by cluster, so each cluster's distances are one contiguous run
    order = np.argsort(labels, kind="stable")
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    sorted_units_t = units[order].T
    scores = np.zeros(n)
    for lo in range(0, n, SILHOUETTE_BLOCK):
        hi = min(lo + SILHOUETTE_BLOCK, n)
        rows = np.arange(hi - lo)
        own = labels[lo:hi]
        dist = units[lo:hi] @ sorted_units_t
        np.subtract(1.0, dist, out=dist)
        sums = np.add.reduceat(dist, starts, axis=1)
        own_size = sizes[own]
        a = (sums[rows, own] - dist[rows, position[lo:hi]]) / np.maximum(own_size - 1, 1)
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        score = np.divide(b - a, denom, out=np.zeros(hi - lo), where=denom != 0.0)
        score[own_size <= 1] = 0.0
        scores[lo:hi] = score
    return float(scores.mean())


def select_k(vectors, k_min: int, k_max: int, seed: int = 0) -> Clustering:
    """Sweep k in [k_min, k_max], return the clustering with the best mean
    silhouette; ties go to the smallest k."""
    x = np.asarray(vectors, dtype=float)
    n = x.shape[0]
    if not (2 <= k_min <= k_max <= n - 1):
        raise ValueError(f"invalid sweep range [{k_min}, {k_max}] for n={n}")
    units = _unit_rows(x)
    best, best_score = None, 0.0
    for k in range(k_min, k_max + 1):
        result = kmeans(x, k, seed)
        score = mean_silhouette(units, result.assignments)
        if best is None or score > best_score + 1e-12:
            best, best_score = result, score
    return best


def fit(vectors, pinned: int | None, k_max: int, seed: int) -> Clustering:
    """k-means at ``pinned`` clamped to [2, n]; with no pin, the silhouette sweep
    over k in [2, min(k_max, n - 1)], or k-means at 2 when that holds no other k."""
    n = len(vectors)
    if pinned is not None:
        return kmeans(vectors, max(2, min(pinned, n)), seed)
    k_hi = min(k_max, n - 1)
    if k_hi > 2:
        return select_k(vectors, 2, k_hi, seed)
    return kmeans(vectors, 2, seed)
