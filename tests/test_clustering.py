"""Cosine k-means and silhouette selection against independent oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import clustering_oracle as oracle
from sqlknow import clustering
from sqlknow.clustering import MAX_LLOYD_ITERATIONS, _unit_rows, kmeans, mean_silhouette, select_k


def cosine_distance(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    return 1.0 - float(np.dot(a, b) / (na * nb))


def brute_force_two_partition(points):
    """Oracle: the 2-partition minimizing total within-cluster pairwise distance."""
    n = len(points)
    best, best_cost = None, None
    for assignment in itertools.product([0, 1], repeat=n):
        if len(set(assignment)) < 2:
            continue
        cost = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if assignment[i] == assignment[j]:
                    cost += cosine_distance(points[i], points[j])
        if best_cost is None or cost < best_cost:
            best, best_cost = assignment, cost
    return best


def silhouette_oracle(points, labels):
    """Straight transcription of the a/b formula from the distance matrix."""
    n = len(points)
    labels = list(labels)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(cosine_distance(points[i], points[j]) for j in own) / len(own)
        b = min(
            sum(cosine_distance(points[i], points[j]) for j in range(n) if labels[j] == other)
            / sum(1 for j in range(n) if labels[j] == other)
            for other in set(labels)
            if other != labels[i]
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return sum(scores) / n


def test_two_separated_groups_recovered_exactly():
    points = np.array([[1.0, 0.02], [1.0, -0.02], [-1.0, 0.03], [-1.0, -0.03]])
    oracle = brute_force_two_partition(points)
    result = kmeans(points, 2, seed=13)
    same = [result.assignments[i] == result.assignments[0] for i in range(4)]
    oracle_same = [oracle[i] == oracle[0] for i in range(4)]
    assert same == oracle_same


def test_k_equals_n_gives_singletons_with_zero_silhouette():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    result = kmeans(points, 4, seed=0)
    assert sorted(result.assignments) == [0, 1, 2, 3]
    assert mean_silhouette(_unit_rows(points), result.assignments) == 0.0


def test_fixed_seed_is_deterministic():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(30, 6))
    a = kmeans(points, 4, seed=99)
    b = kmeans(points, 4, seed=99)
    assert a.assignments == b.assignments
    assert np.array_equal(a.centroids, b.centroids)
    assert a.medoid_ids == b.medoid_ids


def test_k_out_of_range():
    points = np.eye(3)
    with pytest.raises(ValueError):
        kmeans(points, 1, seed=0)
    with pytest.raises(ValueError):
        kmeans(points, 4, seed=0)


def test_every_cluster_nonempty_and_medoids_belong():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(50, 8))
    result = kmeans(points, 7, seed=5)
    for c in range(7):
        assert c in result.assignments
        assert result.assignments[result.medoid_ids[c]] == c


def test_silhouette_matches_oracle_on_two_pairs():
    points = np.array([[1.0, 0.05], [1.0, -0.05], [-0.2, 1.0], [0.2, 1.0]])
    result = kmeans(points, 2, seed=1)
    expected = silhouette_oracle(points, result.assignments)
    assert abs(mean_silhouette(_unit_rows(points), result.assignments) - expected) < 1e-9


def test_select_k_finds_three_triplets():
    rng = np.random.default_rng(0)
    base = np.eye(3)
    points = np.vstack([b + rng.normal(0, 0.01, size=(3, 3)) for b in base])
    # independent exhaustive check of the swept range
    oracle_scores = {}
    for k in range(2, 6):
        labels = kmeans(points, k, seed=4).assignments
        oracle_scores[k] = silhouette_oracle(points, labels)
    assert max(oracle_scores, key=oracle_scores.get) == 3
    best = select_k(points, 2, 5, seed=4)
    assert best.k == 3
    score = mean_silhouette(_unit_rows(points), best.assignments)
    assert all(score >= s - 1e-12 for s in oracle_scores.values())


def test_select_k_degenerate_identical_points():
    points = np.ones((8, 4))
    best = select_k(points, 2, 5, seed=0)
    assert best.k == 2
    assert mean_silhouette(_unit_rows(points), best.assignments) == 0.0


def test_select_k_two_separated_pairs_hand_silhouette():
    points = np.array([[1.0, 0.0], [0.995, 0.1], [0.0, 1.0], [0.1, 0.995]])
    best = select_k(points, 2, 3, seed=8)
    assert best.k == 2
    expected = silhouette_oracle(points, best.assignments)
    assert abs(mean_silhouette(_unit_rows(points), best.assignments) - expected) < 1e-9


def test_select_k_invalid_range():
    points = np.eye(4)
    with pytest.raises(ValueError):
        select_k(points, 2, 4, seed=0)  # k_max must be <= n-1
    with pytest.raises(ValueError):
        select_k(points, 3, 2, seed=0)


# -- fit: the one cluster-count rule --------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("pinned, k_max", [
    (None, 0), (None, 1), (None, 2), (None, "n"), (0, 8), (1, 8), ("n + 1", 8)])
def test_fit_clamps_a_pin_and_sweeps_only_over_more_than_one_k(n, pinned, k_max,
                                                             monkeypatch):
    """A pin is clamped to [2, n]; with none, k runs over [2, min(k_max, n - 1)],
    and the silhouette scores each k only when that range holds more than one."""
    points = np.random.default_rng(n).normal(size=(n, 3))
    pinned = n + 1 if pinned == "n + 1" else pinned
    k_max = n if k_max == "n" else k_max
    scored = []
    original = clustering.mean_silhouette
    monkeypatch.setattr(clustering, "mean_silhouette",
                        lambda *a, **kw: scored.append(len(a[1])) or original(*a, **kw))
    result = clustering.fit(points, pinned, k_max, seed=4)
    if pinned is not None:
        tried = [max(2, min(pinned, n))]
    else:
        tried = list(range(2, max(2, min(k_max, n - 1)) + 1))
    assert scored == ([n] * len(tried) if len(tried) > 1 else [])
    assert result.k in tried
    if len(tried) == 1:
        assert result.assignments == kmeans(points, tried[0], seed=4).assignments
    else:
        assert result.assignments == select_k(points, 2, tried[-1], seed=4).assignments


# -- the row-blocked silhouette against the per-point loop ---------------------------

# Directions whose cosines are exact in floating point (entries 0, +-1, +-1/2 after
# normalizing, scaled by powers of two), so copies of a direction are at distance
# exactly 0 in every implementation. Copies up to rounding would make a and b both
# rounding noise, and their ratio would differ between any two summation orders;
# "near" points sit about 1e-4 away, far above that noise.
EXACT_DIRECTIONS = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)] + [
    np.array(signs, dtype=float) for signs in itertools.product((1.0, -1.0), repeat=4)
]


def draw_row(draw, rng):
    kind = draw(st.sampled_from(["exact", "near", "generic", "zero"]))
    if kind == "exact":
        return draw(st.sampled_from(EXACT_DIRECTIONS)) * 2.0 ** draw(st.integers(-3, 3))
    if kind == "near":
        return draw(st.sampled_from(EXACT_DIRECTIONS)) + rng.normal(0, 0.01, size=4)
    if kind == "generic":
        return rng.normal(size=4)
    return np.zeros(4)


@st.composite
def labelled_points(draw, min_n=2, max_n=24):
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [draw_row(draw, rng) for _ in range(n)]
    shape = draw(st.sampled_from(["any", "singletons and one pair", "one cluster"]))
    if shape == "any":
        k = draw(st.integers(1, n))
        labels = [3 * c - 5 for c in draw(st.lists(st.integers(0, k - 1), min_size=n,
                                                   max_size=n))]
    elif shape == "singletons and one pair":  # k = n - 1
        labels = draw(st.permutations(list(range(n - 1)) + [draw(st.integers(0, n - 2))]))
    else:
        labels = [0] * n
    return np.vstack(rows), labels


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(labelled_points(), st.data())
def test_blocked_silhouette_equals_the_loop_oracle(points_labels, data):
    points, labels = points_labels
    n = len(labels)
    block = data.draw(st.integers(1, max(1, n - 1)), label="block")
    expected = oracle.mean_silhouette(points, labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "SILHOUETTE_BLOCK", block)
        assert abs(mean_silhouette(_unit_rows(points), labels) - expected) < 1e-9
    if len(set(labels)) > 1:
        assert abs(silhouette_oracle(points, labels) - expected) < 1e-9


def oracle_sweep(points, k_min, k_max, seed):
    """select_k's rule, scored by the loop oracle: best silhouette, ties to the
    smaller k within 1e-12."""
    best_k, best_score = None, None
    for k in range(k_min, k_max + 1):
        score = oracle.mean_silhouette(points, kmeans(points, k, seed).assignments)
        if best_k is None or score > best_score + 1e-12:
            best_k, best_score = k, score
    return best_k, best_score


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(labelled_points(min_n=4, max_n=16), st.data())
def test_select_k_picks_the_oracle_sweeps_k(points_labels, data):
    points, _ = points_labels
    n = len(points)
    k_min = data.draw(st.integers(2, n - 1), label="k_min")
    k_max = data.draw(st.integers(k_min, n - 1), label="k_max")
    seed = data.draw(st.integers(0, 50), label="seed")
    best_k, best_score = oracle_sweep(points, k_min, k_max, seed)
    best = select_k(points, k_min, k_max, seed)
    assert best.k == best_k
    assert abs(mean_silhouette(_unit_rows(points), best.assignments) - best_score) < 1e-9
    assert best.assignments == kmeans(points, best_k, seed).assignments


@pytest.mark.parametrize("k_min", [2, 3, 5])
@pytest.mark.parametrize("scale", [1.0, 0.25, 8.0])
def test_select_k_ties_of_identical_points_go_to_k_min(k_min, scale):
    points = np.full((9, 4), scale)
    assert oracle_sweep(points, k_min, 8, 0) == (k_min, 0.0)
    best = select_k(points, k_min, 8, seed=0)
    assert (best.k, mean_silhouette(_unit_rows(points), best.assignments)) == (k_min, 0.0)


def test_blocked_silhouette_never_builds_the_full_matrix():
    n, k = 6000, 150
    rng = np.random.default_rng(5)
    units = _unit_rows(rng.normal(size=(n, 32)))
    labels = rng.integers(0, k, size=n)
    full_matrix = n * n * 8  # 288 MB of float64
    tracemalloc.start()
    try:
        mean_silhouette(units, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_matrix / 8


# -- the cycle-replaying fit against the loop that runs to the step cap ----------------


@st.composite
def repeated_points(draw):
    """A few distinct rows, each repeated, as in a small corpus of recurring
    patterns. With k above the number of distinct rows, copies of a non-exact
    row make some fits cycle until the step cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = [rng.normal(size=4) if draw(st.booleans()) else draw_row(draw, rng)
                for _ in range(draw(st.integers(1, 6)))]
    copies = [draw(st.integers(1, 16)) for _ in distinct]
    rows = np.repeat(np.vstack(distinct), copies, axis=0)
    return np.vstack([rows, rows]) if len(rows) == 1 else rows[rng.permutation(len(rows))]


def assert_same_clustering(got, expected):
    assert got.assignments == expected.assignments
    assert got.centroids.shape == expected.centroids.shape
    assert got.centroids.tobytes() == expected.centroids.tobytes()
    assert got.medoid_ids == expected.medoid_ids


@st.composite
def repeated_fits(draw):
    points = draw(repeated_points())
    n = len(points)
    return points, draw(st.integers(2, n) | st.integers(max(2, n // 2), n)), draw(st.integers(0, 4))


def setup_shaped(rows, rng):
    """200 rows, each a copy of one of a few distinct rows, in a random order: the
    shape of the set-up's 200 questions (9 distinct embeddings) and their
    skeletons (8 distinct TF-IDF rows)."""
    picks = np.concatenate([np.arange(len(rows)), rng.integers(0, len(rows), 200 - len(rows))])
    return rows[rng.permutation(picks)]


_rng = np.random.default_rng(7)
SETUP_QUESTIONS = setup_shaped(_rng.normal(size=(9, 512)), _rng)
SETUP_SKELETONS = setup_shaped(_rng.random((8, 40)) * (_rng.random((8, 40)) < 0.3), _rng)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example((SETUP_QUESTIONS, 50, 0))
@example((SETUP_QUESTIONS, 150, 0))
@example((SETUP_QUESTIONS, 200, 3))
@example((SETUP_SKELETONS, 50, 0))
@example((SETUP_SKELETONS, 150, 1))
@example((SETUP_SKELETONS, 200, 0))
@given(repeated_fits())
def test_kmeans_equals_the_capped_loop_oracle(fit):
    points, k, seed = fit
    expected, history = oracle.kmeans(points, k, seed)
    event("reached the step cap" if len(history) == MAX_LLOYD_ITERATIONS else "converged")
    assert_same_clustering(kmeans(points, k, seed), expected)


# Seven copies of one row: the normalized mean of several copies rounds away from the
# normalized row, so the copies' nearest centroid flips each step and the fit never
# converges; the oracle runs all the steps.
CYCLING = (np.tile([3.0, 1.0, 4.0, 1.0, 5.0], (7, 1)), 2, 0)


def test_a_cycling_fit_equals_the_oracle_run_to_the_step_cap():
    expected, history = oracle.kmeans(*CYCLING)
    assert len(history) == MAX_LLOYD_ITERATIONS
    assert_same_clustering(kmeans(*CYCLING), expected)


def test_a_cycling_fit_stops_updating_centroids_once_it_repeats(monkeypatch):
    calls = []
    fit = clustering._fit_centroids
    monkeypatch.setattr(clustering, "_fit_centroids", lambda *a: (calls.append(1), fit(*a)))
    kmeans(*CYCLING)
    assert len(calls) < 20
