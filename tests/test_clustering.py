import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdmtopics import clustering
from gdmtopics.clustering import (
    fit_dpmeans,
    fit_kmeans,
    kmeanspp_init,
)
from gdmtopics.corpus import Corpus, NormalizedCorpus, _sq_norms, normalize
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import (
    _dense_lloyd,
    brute_force_kmeans,
    bytes_key_order,
    dense_kmeans,
    dense_weighted_means,
    in_canonical_order,
    sequential_dpmeans,
    sequential_dpmeans_pass,
    weighted_objective,
)


def _data(rows, weights=None):
    rows = np.asarray(rows, dtype=np.float64)
    if weights is None:
        weights = np.ones(rows.shape[0])
    return NormalizedCorpus(rows=rows, weights=np.asarray(weights, dtype=np.float64))


def _seeds(data, K, rng):
    xx = np.einsum("ij,ij->i", data.rows, data.rows)
    return kmeanspp_init(data.csr, xx, data.weights, K, rng)


def _random_simplex_rows(rng, M, V):
    g = rng.gamma(1.0, size=(M, V))
    return g / g.sum(axis=1, keepdims=True)


def test_kmeanspp_single_seed_weight_proportional():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    data = _data(rows, weights=[1.0, 9.0])
    hits = 0
    for seed in range(2000):
        s = _seeds(data, 1, np.random.default_rng(seed))
        hits += int(np.allclose(s[0], rows[1]))
    assert 0.85 < hits / 2000 < 0.95  # expected 0.9


def test_kmeanspp_determinism():
    rng_rows = np.random.default_rng(1)
    data = _data(_random_simplex_rows(rng_rows, 12, 4))
    a = _seeds(data, 3, np.random.default_rng(5))
    b = _seeds(data, 3, np.random.default_rng(5))
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
        seeds = _seeds(data, 2, np.random.default_rng(seed))
        sides = {int(seeds[i, 0] > 0.5) for i in range(2)}
        both += len(sides) == 2
    assert both >= 95


def test_kmeanspp_too_many_clusters():
    data = _data(np.tile([[0.5, 0.5]], (5, 1)))
    with pytest.raises(ValueError, match="distinct"):
        _seeds(data, 2, np.random.default_rng(0))
    # rows that differ only in the sign of a zero are one row
    data = _data([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="distinct"):
        _seeds(data, 2, np.random.default_rng(0))


@st.composite
def repeated_far_rows(draw):
    """Documents repeating a few count vectors on disjoint columns, scaled by
    1 to 3 (which normalizes to the same row), so the distinct rows sit far
    apart; the number of distinct rows and a K from 1 to two above it."""
    distinct, width = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    pool = np.zeros((distinct, distinct * width), dtype=np.int64)
    for j in range(distinct):
        counts = st.lists(st.integers(1, 9), min_size=width, max_size=width)
        pool[j, j * width : (j + 1) * width] = draw(counts)
    repeats = draw(st.lists(st.integers(0, distinct - 1), max_size=12))
    picks = draw(st.permutations(list(range(distinct)) + repeats))
    scales = draw(st.lists(st.integers(1, 3), min_size=len(picks), max_size=len(picks)))
    data = normalize(Corpus(pool[picks] * np.array(scales)[:, None]))
    return data, distinct, draw(st.integers(1, distinct + 2)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=repeated_far_rows())
def test_kmeans_raises_exactly_when_k_exceeds_the_distinct_rows(case):
    # a row equal to a seed is at distance exactly 0 from it, so the draws
    # alone stop k-means++ once every distinct row is a seed
    data, distinct, K, seed = case
    rng = np.random.default_rng(seed)
    if K > distinct:
        with pytest.raises(ValueError, match="distinct"):
            fit_kmeans(data, K, 2, 1500, rng)
        return
    res = fit_kmeans(data, K, 2, 1500, rng)
    assert res.n_clusters == K
    assert (np.bincount(res.assignments, minlength=K) > 0).all()


class _RecordingRng:
    """A generator whose ``choice`` records each probability vector and draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def choice(self, M, p):
        idx = self._rng.choice(M, p=p)
        self.draws.append((p, idx))
        return idx


@settings(max_examples=200, deadline=None)
@given(case=repeated_far_rows())
def test_kmeanspp_gives_rows_equal_to_a_seed_probability_zero(case):
    data, distinct, K, seed = case
    rng = _RecordingRng(seed)
    try:
        kmeanspp_init(data.csr, _sq_norms(data.csr), data.weights, K, rng)
    except ValueError:
        assert K > distinct
    assert len(rng.draws) == min(K, distinct)
    rows, chosen = data.rows, []
    for p, idx in rng.draws:
        for c in chosen:
            assert (p[(rows == rows[c]).all(axis=1)] == 0.0).all()
        chosen.append(idx)


def test_kmeans_weighted_mean_single_cluster():
    data = _data([[0.0, 1.0], [1.0, 0.0]], weights=[1.0, 3.0])
    res = fit_kmeans(data, 1, 10, 1500, np.random.default_rng(0))
    assert np.allclose(res.centroids[0], [0.75, 0.25])
    assert res.assignments.tolist() == [0, 0]


def test_kmeans_exact_fit_when_k_equals_distinct_rows():
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
    data = _data(rows, weights=[1, 2, 3, 4])
    res = fit_kmeans(data, 3, 10, 1500, np.random.default_rng(0))
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
        fitted = fit_kmeans(data, 2, 20, 1500, np.random.default_rng(seed))
        assert fitted.objective >= exact.objective - 1e-12
        hits += fitted.objective <= exact.objective + 1e-9
    assert hits >= 9


def test_kmeans_unweighted_case_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        rows = _random_simplex_rows(rng, 7, 3)
        data = _data(rows)
        exact = brute_force_kmeans(data, 3)
        fitted = fit_kmeans(data, 3, 30, 1500, np.random.default_rng(seed))
        assert fitted.objective <= exact.objective + 1e-9


def test_kmeans_centroids_are_weighted_means():
    rng = np.random.default_rng(3)
    data = _data(_random_simplex_rows(rng, 30, 4), rng.integers(1, 10, size=30).astype(float))
    res = fit_kmeans(data, 3, 10, 1500, np.random.default_rng(1))
    for k in range(3):
        members = res.assignments == k
        assert members.any()
        mean = np.average(data.rows[members], axis=0, weights=data.weights[members])
        assert np.allclose(res.centroids[k], mean, atol=1e-10)


def test_kmeans_weight_scaling_invariance():
    rng = np.random.default_rng(8)
    rows = _random_simplex_rows(rng, 15, 3)
    weights = rng.integers(1, 6, size=15).astype(float)
    r1 = fit_kmeans(_data(rows, weights), 2, 10, 1500, np.random.default_rng(4))
    r2 = fit_kmeans(_data(rows, 10.0 * weights), 2, 10, 1500, np.random.default_rng(4))
    assert np.array_equal(r1.assignments, r2.assignments)
    assert np.allclose(r1.centroids, r2.centroids)
    assert np.isclose(r2.objective, 10.0 * r1.objective)


def test_kmeans_matches_dense_reference_bitwise():
    params = LdaParams(K=8, V=2000, M=150, doc_lengths=(50, 400), alpha=0.1, eta=0.05, seed=3)
    data = normalize(generate_corpus(params)[0])
    fitted = fit_kmeans(data, 8, 3, 1500, np.random.default_rng(7))
    reference = in_canonical_order(dense_kmeans, data, 8, 3, 1500, np.random.default_rng(7))
    assert np.array_equal(fitted.assignments, reference.assignments)
    assert np.array_equal(fitted.centroids, reference.centroids)
    assert np.isclose(fitted.objective, reference.objective, rtol=1e-12, atol=0.0)


def test_lloyd_reseeds_an_empty_cluster(monkeypatch):
    # the third seed duplicates the first, so ties leave its cluster empty;
    # the repair moves the row of largest N_m * d^2 into it
    rows = np.array(
        [[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.5, 0.25, 0.25],
         [0.1, 0.8, 0.1], [0.2, 0.7, 0.1], [0.1, 0.5, 0.4]]
    )
    data = _data(rows, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    seeds = rows[[0, 3, 0]]
    monkeypatch.setattr(clustering, "kmeanspp_init", lambda *args: seeds.copy())
    fitted = fit_kmeans(data, 3, 1, 1500, np.random.default_rng(0))

    def lloyd(ordered):
        return _dense_lloyd(ordered.rows, ordered.weights, seeds.copy(), 1500)

    reference = in_canonical_order(lloyd, data)
    assert (np.bincount(fitted.assignments, minlength=3) > 0).all()
    assert np.array_equal(fitted.assignments, reference.assignments)
    assert np.array_equal(fitted.centroids, reference.centroids)
    assert np.isclose(fitted.objective, reference.objective, rtol=1e-12, atol=0.0)


@st.composite
def sparse_corpora(draw):
    """Small count rows with exact zeros, repeated rows and rows equal after
    normalization, and a K no larger than the number of distinct rows."""
    V = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=V, max_size=V), min_size=1, max_size=6))
    pool = np.array([row for row in pool if any(row)] or [[1] * V], dtype=np.float64)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    scales = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=len(picks), max_size=len(picks)))
    counts = pool[picks] * np.array(scales)[:, None]
    weights = counts.sum(axis=1)
    rows = counts / weights[:, None]
    distinct = np.unique(rows, axis=0).shape[0]
    K = min(draw(st.integers(1, 8)), distinct)
    return NormalizedCorpus(rows=rows, weights=weights), K, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=sparse_corpora())
def test_kmeans_arithmetic_on_sparse_rows(case):
    data, K, seed = case
    res = fit_kmeans(data, K, 2, 1500, np.random.default_rng(seed))
    means = dense_weighted_means(data.rows, data.weights, res.assignments, K)
    assert np.array_equal(res.centroids, means)
    diff = data.rows[:, None, :] - res.centroids[None, :, :]
    d2 = np.einsum("mkv,mkv->mk", diff, diff)
    assert (d2[np.arange(data.M), res.assignments] <= d2.min(axis=1) + 1e-12).all()
    # the objective is at most sum_m N_m ||w_m||^2 (all centroids at 0), the
    # scale of the rounding in the expanded distances
    scale = float(data.weights @ np.einsum("ij,ij->i", data.rows, data.rows))
    reference = weighted_objective(data.rows, data.weights, res.centroids, res.assignments)
    assert abs(res.objective - reference) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(case=sparse_corpora())
def test_weighted_means_equal_the_row_by_row_sums_bitwise(case):
    data, K, seed = case
    labels = np.random.default_rng(seed).permutation(np.arange(data.M) % K)
    expected = dense_weighted_means(data.rows, data.weights, labels, K)
    for X in (data.csr, data.rows):
        means = clustering.weighted_means(X, data.weights, labels, K)
        assert means.flags.c_contiguous
        assert means.tobytes() == expected.tobytes()


def test_weighted_means_at_the_nips_shape_bitwise():
    params = LdaParams(K=10, V=12419, M=288, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=1)
    data = normalize(generate_corpus(params)[0])
    labels = np.random.default_rng(1).integers(0, 10, size=data.M)
    expected = dense_weighted_means(data.rows, data.weights, labels, 10)
    means = clustering.weighted_means(data.csr, data.weights, labels, 10)
    assert means.flags.c_contiguous
    assert means.tobytes() == expected.tobytes()


def test_kmeans_allocates_less_than_half_the_dense_rows():
    params = LdaParams(K=10, V=12419, M=200, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=0)
    data = normalize(generate_corpus(params)[0])
    tracemalloc.start()
    try:
        fit_kmeans(data, 10, 2, 1500, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * data.rows.nbytes


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
    res = fit_dpmeans(data, 1e6, 1500, np.random.default_rng(0))
    assert res.n_clusters == 1


def test_dpmeans_zero_penalty_limit():
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
    res = fit_dpmeans(_data(rows), 1e-9, 1500, np.random.default_rng(0))
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
        res = fit_dpmeans(data, 0.05, 1500, np.random.default_rng(seed))
        assert res.n_clusters == 3


@pytest.mark.parametrize(
    "fit, message",
    [
        (lambda data, rng: _seeds(data, 0, rng), "K must be >= 1"),
        (lambda data, rng: fit_kmeans(data, 0, 10, 1500, rng), "K must be >= 1"),
        (lambda data, rng: fit_kmeans(data, 2, 0, 1500, rng), "restarts must be >= 1"),
        (lambda data, rng: fit_kmeans(data, 2, 10, 0, rng), "max_iters must be >= 1"),
        (lambda data, rng: fit_dpmeans(data, 1.0, 0, rng), "max_iters must be >= 1"),
        (lambda data, rng: fit_kmeans(data, 2.5, 10, 1500, rng), "K must be an integer"),
        (lambda data, rng: fit_kmeans(data, True, 10, 1500, rng), "K must be an integer"),
        (lambda data, rng: fit_kmeans(data, 2, 1.5, 1500, rng), "restarts must be an integer"),
        (lambda data, rng: fit_dpmeans(data, "1", 1500, rng), "lam must be a real number"),
    ],
    ids=[
        "seed-K",
        "kmeans-K",
        "kmeans-restarts",
        "kmeans-max-iters",
        "dpmeans-max-iters",
        "kmeans-float-K",
        "kmeans-bool-K",
        "kmeans-float-restarts",
        "dpmeans-str-lam",
    ],
)
def test_clustering_rejects_counts_below_one(fit, message):
    with pytest.raises(ValueError, match=message):
        fit(_data(np.eye(3)), np.random.default_rng(0))


def test_dpmeans_draws_its_visit_from_rng():
    params = LdaParams(K=3, V=20, M=60, doc_lengths=(20, 60), alpha=0.2, eta=0.3, seed=1)
    data = normalize(generate_corpus(params)[0])
    # the visit order matters at this lambda: another seed gives another objective
    one, other = (fit_dpmeans(data, 2.0, 1500, np.random.default_rng(seed)) for seed in (0, 1))
    assert one.objective != other.objective


def test_dpmeans_rejects_bad_lambda():
    data = _data(np.eye(3))
    for lam in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            fit_dpmeans(data, lam, 1500, np.random.default_rng(0))


@st.composite
def dpmeans_cases(draw):
    """Small count corpora, repeated rows allowed, with a penalty from well
    below to above the opening costs against the overall mean."""
    V = draw(st.integers(2, 6))
    M = draw(st.integers(1, 24))
    counts = draw(
        st.lists(st.lists(st.integers(0, 5), min_size=V, max_size=V), min_size=M, max_size=M)
    )
    counts = np.array(counts, dtype=np.float64)
    counts[counts.sum(axis=1) == 0, 0] = 1.0
    weights = counts.sum(axis=1)
    lam = draw(st.floats(0.05, 20.0))
    return NormalizedCorpus(rows=counts / weights[:, None], weights=weights), lam, draw(
        st.integers(0, 2**32 - 1)
    )


@settings(max_examples=200, deadline=None)
@given(case=dpmeans_cases())
def test_dpmeans_matches_sequential_oracle(case):
    data, lam, seed = case
    expected, _, margin = in_canonical_order(
        sequential_dpmeans, data, lam, 1500, np.random.default_rng(seed)
    )
    # batched and per-row distances differ by a few ulps, which may flip a near-tie
    assume(margin > 1e-9)
    res = fit_dpmeans(data, lam, 1500, np.random.default_rng(seed))
    assert res.n_clusters == expected.n_clusters
    assert np.array_equal(res.assignments, expected.assignments)
    assert np.allclose(res.centroids, expected.centroids, rtol=0.0, atol=1e-12)


def _stop_rule_corpus():
    """At lam = 2, pass 2 moves documents on this corpus and passes run to 8."""
    params = LdaParams(K=3, V=8, M=40, doc_lengths=60, alpha=0.5, eta=0.5, seed=0)
    return normalize(generate_corpus(params)[0]), 2.0


def _counting_passes(monkeypatch):
    calls = []
    dpmeans_pass = clustering._dpmeans_pass

    def spy(*args):
        calls.append(1)
        return dpmeans_pass(*args)

    monkeypatch.setattr(clustering, "_dpmeans_pass", spy)
    return calls


def test_dpmeans_iterates_until_the_penalty_settles(monkeypatch):
    data, lam = _stop_rule_corpus()
    calls = _counting_passes(monkeypatch)
    one = fit_dpmeans(data, lam, 1, np.random.default_rng(0))
    assert len(calls) == 1
    two = fit_dpmeans(data, lam, 2, np.random.default_rng(0))
    assert not np.array_equal(one.assignments, two.assignments)
    del calls[:]
    res = fit_dpmeans(data, lam, 1500, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    expected, passes, _ = in_canonical_order(sequential_dpmeans, data, lam, 1500, rng)
    assert len(calls) == passes > 2
    assert np.array_equal(res.assignments, expected.assignments)


def test_means_are_taken_only_for_new_assignments(monkeypatch):
    seen = []
    means = clustering.weighted_means

    def spy(X, weights, assignments, k):
        seen.append(assignments.copy())
        return means(X, weights, assignments, k)

    monkeypatch.setattr(clustering, "weighted_means", spy)
    data, lam = _stop_rule_corpus()
    order = bytes_key_order(data.rows, data.weights)  # the spy sees the rows in this order
    # (fit, calls before the first labelling): DP-means starts from the mean of all rows
    fits = (
        (lambda: fit_kmeans(data, 3, 1, 1500, np.random.default_rng(0)), 0),
        (lambda: fit_dpmeans(data, lam, 1500, np.random.default_rng(0)), 1),
    )
    for fit, starts in fits:
        del seen[:]
        res = fit()
        assert all(a.shape == (data.M,) and not a.any() for a in seen[:starts])
        del seen[:starts]
        assert len(seen) > 1
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
        assert np.array_equal(res.assignments[order], seen[-1])


@pytest.mark.parametrize("seed", range(3))
def test_dpmeans_starts_at_the_weighted_mean_bitwise(monkeypatch, seed):
    # at fixed lengths every weighted row is whole counts and any summation order
    # gives these bits; the NIPS shape's varying lengths tell the orders apart
    shape = dict(K=10, V=12419, M=288, doc_lengths=(200, 1800), alpha=0.1, eta=0.05)
    data = normalize(generate_corpus(LdaParams(**shape, seed=seed))[0])
    starts = []
    descend = clustering._descend

    def spy(X, sq_norms, weights, centroids, *args):
        starts.append(centroids.copy())
        return descend(X, sq_norms, weights, centroids, *args)

    monkeypatch.setattr(clustering, "_descend", spy)
    fit_dpmeans(data, 1e9, 1, np.random.default_rng(seed))
    order = bytes_key_order(data.rows, data.weights)
    expected = np.average(data.rows[order], axis=0, weights=data.weights[order])
    assert len(starts) == 1 and starts[0].shape == (1, data.V)
    assert starts[0].tobytes() == expected.tobytes()


def _labelled_documents(data, assignments):
    return sorted(zip(data.weights.tolist(), map(bytes, data.rows), assignments.tolist()))


@settings(max_examples=200, deadline=None)
@given(case=sparse_corpora(), lam=st.floats(0.05, 20.0), perm_seed=st.integers(0, 2**32 - 1))
def test_clustering_is_invariant_to_document_order(case, lam, perm_seed):
    data, K, seed = case
    perm = np.random.default_rng(perm_seed).permutation(data.M)
    shuffled = NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])
    fits = (
        lambda d: fit_kmeans(d, K, 2, 1500, np.random.default_rng(seed)),
        lambda d: fit_dpmeans(d, lam, 1500, np.random.default_rng(seed)),
    )
    for fit in fits:
        res, res_shuffled = fit(data), fit(shuffled)
        assert res.centroids.tobytes() == res_shuffled.centroids.tobytes()
        assert np.float64(res.objective).tobytes() == np.float64(res_shuffled.objective).tobytes()
        # each document keeps its cluster; identical documents may trade theirs
        expected = _labelled_documents(data, res.assignments)
        assert _labelled_documents(shuffled, res_shuffled.assignments) == expected


def test_dpmeans_returns_a_fixpoint():
    data, lam = _stop_rule_corpus()
    res = fit_dpmeans(data, lam, 1500, np.random.default_rng(0))
    order = np.random.default_rng(0).permutation(data.M)
    labels, centroids, _ = sequential_dpmeans_pass(data.rows, data.weights, res.centroids, order, lam)
    assert centroids.shape == res.centroids.shape  # nothing opened
    assert np.array_equal(labels, res.assignments)


def _descend_steps(rows, step, max_iters):
    """Run the descent on dense ``rows`` of unit weight from their own rows as
    centroids; returns the labels ``step`` gave, one entry per labelling."""
    rows = np.asarray(rows, dtype=np.float64)
    given_labels = []

    def counted(d2, centroids):
        labels, k = step(len(given_labels))
        given_labels.append(labels.tolist())
        return labels, k

    weights = np.ones(rows.shape[0])
    clustering._descend(rows, (rows**2).sum(axis=1), weights, rows.copy(), counted, 0.0, max_iters)
    return given_labels


def test_descent_stops_once_the_objective_stops_falling():
    # two equal rows: alternating labels never repeat, but the objective
    # stays 0, so the relative-decrease rule stops the second labelling
    def alternate(i):
        return np.array([0, 1] if i % 2 == 0 else [1, 0]), 2

    assert _descend_steps([[0.5, 0.5]] * 2, alternate, max_iters=1000) == [[0, 1], [1, 0]]


def test_descent_raises_when_the_objective_increases():
    # each row its own cluster (objective 0), then both in one cluster
    def merge(i):
        return (np.array([0, 1]), 2) if i == 0 else (np.array([0, 0]), 1)

    with pytest.raises(RuntimeError, match="clustering objective increased"):
        _descend_steps([[1.0, 0.0], [0.0, 1.0]], merge, max_iters=10)
