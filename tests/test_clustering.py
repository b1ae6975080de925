import numpy as np
import pytest

from gdmtopics.clustering import (
    fit_dpmeans,
    fit_kmeans,
    kmeanspp_init,
)
from gdmtopics.corpus import NormalizedCorpus
from oracles import brute_force_kmeans


def _data(rows, weights=None):
    rows = np.asarray(rows, dtype=np.float64)
    if weights is None:
        weights = np.ones(rows.shape[0])
    return NormalizedCorpus(rows=rows, weights=np.asarray(weights, dtype=np.float64))


def _random_simplex_rows(rng, M, V):
    g = rng.gamma(1.0, size=(M, V))
    return g / g.sum(axis=1, keepdims=True)


def test_kmeanspp_single_seed_weight_proportional():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    data = _data(rows, weights=[1.0, 9.0])
    hits = 0
    for seed in range(2000):
        s = kmeanspp_init(data, 1, np.random.default_rng(seed))
        hits += int(np.allclose(s[0], rows[1]))
    assert 0.85 < hits / 2000 < 0.95  # expected 0.9


def test_kmeanspp_determinism():
    rng_rows = np.random.default_rng(1)
    data = _data(_random_simplex_rows(rng_rows, 12, 4))
    a = kmeanspp_init(data, 3, np.random.default_rng(5))
    b = kmeanspp_init(data, 3, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_kmeanspp_separated_clouds():
    # Monte-Carlo oracle over seeds: one seed lands in each far-apart cloud
    rng = np.random.default_rng(2)
    cloud_a = np.hstack([0.98 + 0.01 * rng.random((20, 1)), np.zeros((20, 1))])
    cloud_a = np.hstack([cloud_a, 1.0 - cloud_a.sum(axis=1, keepdims=True)])
    cloud_b = np.hstack([np.zeros((20, 1)), 0.98 + 0.01 * rng.random((20, 1))])
    cloud_b = np.hstack([cloud_b, 1.0 - cloud_b.sum(axis=1, keepdims=True)])
    data = _data(np.vstack([cloud_a, cloud_b]))
    both = 0
    for seed in range(100):
        seeds = kmeanspp_init(data, 2, np.random.default_rng(seed))
        sides = {int(seeds[i, 0] > 0.5) for i in range(2)}
        both += len(sides) == 2
    assert both >= 95


def test_kmeanspp_too_many_clusters():
    data = _data(np.tile([[0.5, 0.5]], (5, 1)))
    with pytest.raises(ValueError, match="distinct"):
        kmeanspp_init(data, 2, np.random.default_rng(0))
    # rows that differ only in the sign of a zero are one row
    data = _data([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="distinct"):
        kmeanspp_init(data, 2, np.random.default_rng(0))


def test_kmeans_weighted_mean_single_cluster():
    data = _data([[0.0, 1.0], [1.0, 0.0]], weights=[1.0, 3.0])
    res = fit_kmeans(data, 1, rng=np.random.default_rng(0))
    assert np.allclose(res.centroids[0], [0.75, 0.25])
    assert res.assignments.tolist() == [0, 0]


def test_kmeans_exact_fit_when_k_equals_distinct_rows():
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
    data = _data(rows, weights=[1, 2, 3, 4])
    res = fit_kmeans(data, 3, rng=np.random.default_rng(0))
    assert res.objective < 1e-12
    assert {tuple(c) for c in res.centroids} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_kmeans_matches_brute_force():
    # exhaustive-partition oracle on tiny weighted instances
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        rows = _random_simplex_rows(rng, 8, 3)
        weights = rng.integers(1, 4, size=8).astype(float)
        data = _data(rows, weights)
        exact = brute_force_kmeans(data, 2)
        fitted = fit_kmeans(data, 2, restarts=20, rng=np.random.default_rng(seed))
        assert fitted.objective >= exact.objective - 1e-12
        hits += fitted.objective <= exact.objective + 1e-9
    assert hits >= 9


def test_kmeans_unweighted_case_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        rows = _random_simplex_rows(rng, 7, 3)
        data = _data(rows)
        exact = brute_force_kmeans(data, 3)
        fitted = fit_kmeans(data, 3, restarts=30, rng=np.random.default_rng(seed))
        assert fitted.objective <= exact.objective + 1e-9


def test_kmeans_centroids_are_weighted_means():
    rng = np.random.default_rng(3)
    data = _data(_random_simplex_rows(rng, 30, 4), rng.integers(1, 10, size=30).astype(float))
    res = fit_kmeans(data, 3, rng=np.random.default_rng(1))
    for k in range(3):
        members = res.assignments == k
        assert members.any()
        mean = np.average(data.rows[members], axis=0, weights=data.weights[members])
        assert np.allclose(res.centroids[k], mean, atol=1e-10)


def test_kmeans_weight_scaling_invariance():
    rng = np.random.default_rng(8)
    rows = _random_simplex_rows(rng, 15, 3)
    weights = rng.integers(1, 6, size=15).astype(float)
    r1 = fit_kmeans(_data(rows, weights), 2, rng=np.random.default_rng(4))
    r2 = fit_kmeans(_data(rows, 10.0 * weights), 2, rng=np.random.default_rng(4))
    assert np.array_equal(r1.assignments, r2.assignments)
    assert np.allclose(r1.centroids, r2.centroids)
    assert np.isclose(r2.objective, 10.0 * r1.objective)


def test_brute_force_base_cases():
    rng = np.random.default_rng(10)
    rows = _random_simplex_rows(rng, 5, 3)
    weights = rng.integers(1, 5, size=5).astype(float)
    res = brute_force_kmeans(_data(rows, weights), 1)
    assert np.allclose(res.centroids[0], np.average(rows, axis=0, weights=weights))

    dup = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    res = brute_force_kmeans(_data(dup), 2)
    assert res.objective < 1e-15


def test_brute_force_size_cap():
    rows = np.tile(np.eye(2), (15, 1))
    with pytest.raises(ValueError, match="too large"):
        brute_force_kmeans(_data(rows), 5)


def test_dpmeans_penalty_dominates():
    rng = np.random.default_rng(6)
    data = _data(_random_simplex_rows(rng, 10, 3))
    res = fit_dpmeans(data, lam=1e6, rng=np.random.default_rng(0))
    assert res.n_clusters == 1


def test_dpmeans_zero_penalty_limit():
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
    res = fit_dpmeans(_data(rows), lam=1e-9, rng=np.random.default_rng(0))
    assert res.n_clusters == 3
    assert res.objective < 1e-12


def test_dpmeans_three_separated_clouds():
    # constructed-geometry oracle: lambda between within- and between-cloud scales
    rng = np.random.default_rng(9)
    centers = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
    rows = np.vstack(
        [c + 0.01 * (rng.random((15, 3)) - 0.5) for c in centers]
    )
    rows = np.clip(rows, 0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    data = _data(rows)
    for seed in range(10):
        res = fit_dpmeans(data, lam=0.05, rng=np.random.default_rng(seed))
        assert res.n_clusters == 3


def test_dpmeans_rejects_bad_lambda():
    data = _data(np.eye(3))
    with pytest.raises(ValueError):
        fit_dpmeans(data, lam=0.0)
