import base64
import dataclasses
import json
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from gdmtopics import gdm, geometry
from gdmtopics.clustering import fit_kmeans
from gdmtopics.corpus import Corpus, NormalizedCorpus, normalize, split_holdout
from gdmtopics.gdm import (
    DegenerateClusterError,
    GdmConfig,
    GdmModel,
    default_extensions,
    extend,
    fit_gdm,
    fit_ngdm,
    load_model,
    load_truth,
    save_model,
    save_truth,
)
from gdmtopics.geometry import TopicPolytope, geometric_objective
from gdmtopics.metrics import infer_theta
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import (
    count_matrices,
    extended_vertex,
    grid_tune_extension,
    in_canonical_order,
    model_field,
)


def _data(rows, weights=None):
    rows = np.asarray(rows, dtype=np.float64)
    if weights is None:
        weights = np.ones(rows.shape[0])
    return NormalizedCorpus(rows=rows, weights=np.asarray(weights, dtype=np.float64))


def _lda_data(seed, K=3, V=8, M=60, N=40):
    params = LdaParams(K=K, V=V, M=M, doc_lengths=N, alpha=0.2, eta=0.3, seed=seed)
    corpus, _ = generate_corpus(params)
    return normalize(corpus)


def test_default_extensions_ratio():
    # cluster 0's farthest document is 0.6 from the center, cluster 1's is 0.5
    data = _data([[0.6, 0.0, 0.4], [0.0, 0.5, 0.5], [0.0, 0.3, 0.7]])
    center = np.array([0.0, 0.0, 1.0])
    centroids = np.array([[0.2, 0.0, 0.8], [0.0, 0.5, 0.5]])
    radii, m = default_extensions(data, center, centroids, np.array([0, 1, 1]))
    assert np.allclose(radii, [0.6 * np.sqrt(2), 0.5 * np.sqrt(2)])
    assert np.allclose(m, [3.0, 1.0])


def test_default_extensions_radii_match_dense_norms():
    # each radius, taken from the stored entries of the rows, is the largest
    # np.linalg.norm(row - center) of its cluster to rounding
    data = _lda_data(0)
    center = data.rows.mean(axis=0)
    centroids = data.rows[:3] + 0.0
    assignments = np.arange(data.M) % 3
    radii, m = default_extensions(data, center, centroids, assignments)
    to_center = np.linalg.norm(data.rows - center, axis=1)
    expected = np.array([to_center[assignments == k].max() for k in range(3)])
    assert np.allclose(radii, expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(m, radii / np.linalg.norm(centroids - center, axis=1))


def test_default_extensions_degenerate():
    data = _data([[0.5, 0.5], [1.0, 0.0]])
    centroids = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(DegenerateClusterError, match="cluster 0"):
        default_extensions(data, np.array([0.5, 0.5]), centroids, np.array([0, 1]))


def test_default_extensions_single_cluster_keeps_its_mean():
    # one cluster is not extended, even when its centroid is the center
    data = _data([[0.5, 0.5], [1.0, 0.0]])
    center = np.array([0.5, 0.5])
    radii, m = default_extensions(data, center, center[None, :], np.array([0, 0]))
    assert np.allclose(radii, [np.sqrt(0.5)])
    assert np.array_equal(m, [1.0])


def test_extend_identity_at_one():
    c = np.array([1 / 3, 1 / 3, 1 / 3])
    mu = np.array([[0.5, 0.5, 0.0]])
    assert np.allclose(extend(c, mu, [1.0]), mu)


def test_extend_thresholds_and_renormalizes():
    c = np.array([1 / 3, 1 / 3, 1 / 3])
    mu = np.array([[0.5, 0.5, 0.0]])
    # raw extension is (2/3, 2/3, -1/3); clipping and renormalizing gives (1/2, 1/2, 0)
    assert np.allclose(extend(c, mu, [2.0]), [[0.5, 0.5, 0.0]])


def test_extend_no_threshold_when_inside():
    c = np.array([0.4, 0.3, 0.3])
    mu = np.array([[0.45, 0.275, 0.275]])
    assert np.allclose(extend(c, mu, [2.0]), [[0.5, 0.25, 0.25]])


def test_extend_all_rows_at_once():
    # the cases above in one call, each row with its own scalar
    c = np.array([1 / 3, 1 / 3, 1 / 3])
    mu = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]])
    got = extend(c, mu, [1.0, 2.0, 4.0])
    assert np.allclose(got, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.6, 0.2, 0.2]])
    assert np.allclose(got.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def _extend_cases():
    """(center, centroids, m): the hand-written cases above, then seeded
    random ones at V from 3 to 50 and m in [1, 4], with centroids mixed
    toward the center by a random share so that some rays stay inside."""
    third = np.full(3, 1 / 3)
    yield third, np.array([[0.5, 0.5, 0.0]]), np.array([1.0])
    yield third, np.array([[0.5, 0.5, 0.0]]), np.array([2.0])
    yield np.array([0.4, 0.3, 0.3]), np.array([[0.45, 0.275, 0.275]]), np.array([2.0])
    yield third, np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]]), [1.0, 2.0, 4.0]
    rng = np.random.default_rng(26)
    for _ in range(800):
        V, K = int(rng.integers(3, 51)), int(rng.integers(1, 6))
        center = rng.dirichlet(np.ones(V))
        share = rng.uniform(0.0, 1.0, size=(K, 1))
        centroids = (1.0 - share) * center + share * rng.dirichlet(np.full(V, 0.5), size=K)
        yield center, centroids, rng.uniform(1.0, 4.0, size=K)


def test_extend_is_the_oracle_vertex_bit_for_bit():
    # one division per row: every vertex has the bytes of the one-vertex
    # oracle, whether or not its ray left the simplex
    clipped = unclipped = 0
    for center, centroids, m in _extend_cases():
        got = extend(center, centroids, m)
        for k in range(len(centroids)):
            want = extended_vertex(center, centroids[k], m[k])
            assert got[k].tobytes() == want.tobytes(), (center, centroids[k], m[k])
            left = (center + m[k] * (centroids[k] - center)).min() < 0.0
            clipped, unclipped = clipped + left, unclipped + (not left)
    assert clipped > 500 and unclipped > 500


def test_extend_rejects_a_row_that_loses_all_mass():
    # only inputs off the simplex can do this: the second row is all nonpositive
    with pytest.raises(ValueError, match="lost all mass"):
        extend(np.array([0.5, 0.5]), np.array([[0.75, 0.25], [-1.0, 0.0]]), [1.0, 1.0])


def test_fit_recovers_point_clusters_exactly():
    # each cluster is a repeated point, so centroid = point and m_k = 1
    rows = np.array([[1.0, 0, 0]] * 3 + [[0, 0, 1.0]] * 3)
    model = fit_gdm(_data(rows), GdmConfig(K=2, seed=0))
    assert model.objective < 1e-18
    assert {tuple(np.round(v, 12)) for v in model.polytope.vertices} == {
        (1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
    }
    assert np.allclose(model.extensions, 1.0)


@pytest.mark.parametrize("weighted_center", [True, False])
def test_fit_single_topic_is_weighted_mean(weighted_center):
    data = _data([[1.0, 0.0], [0.0, 1.0]], weights=[3.0, 1.0])
    fits = [
        (fit_gdm(data, GdmConfig(K=1, weighted_center=weighted_center)), 0.0),
        (fit_ngdm(data, GdmConfig(lam=1e6, weighted_center=weighted_center)), 1e6),
    ]
    for model, penalty in fits:
        assert model.K == 1
        assert np.allclose(model.polytope.vertices[0], [0.75, 0.25])
        assert np.allclose(model.extensions, 1.0)
        assert np.isclose(geometric_objective(data, model.polytope), 1.5)
        assert np.isclose(model.objective, 1.5 + penalty)


def test_fit_deterministic():
    data = _lda_data(5)
    m1 = fit_gdm(data, GdmConfig(K=3, seed=11))
    m2 = fit_gdm(data, GdmConfig(K=3, seed=11))
    assert np.array_equal(m1.polytope.vertices, m2.polytope.vertices)
    assert m1.objective == m2.objective
    assert np.array_equal(m1.extensions, m2.extensions)
    assert np.array_equal(m1.radii, m2.radii)


def test_fit_invariant_to_document_order():
    data = _lda_data(7)
    perm = np.random.default_rng(3).permutation(data.M)
    shuffled = NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])
    m1 = fit_gdm(data, GdmConfig(K=3, seed=2))
    m2 = fit_gdm(shuffled, GdmConfig(K=3, seed=2))
    assert np.allclose(
        sorted(map(tuple, m1.polytope.vertices)),
        sorted(map(tuple, m2.polytope.vertices)),
        atol=1e-12,
    )
    assert np.isclose(m1.objective, m2.objective, rtol=1e-12)


def test_fit_vertices_on_simplex():
    for seed in range(5):
        model = fit_gdm(_lda_data(20 + seed), GdmConfig(K=4, seed=seed))
        v = model.polytope.vertices
        assert (v >= 0).all()
        assert np.allclose(v.sum(axis=1), 1.0, atol=1e-10)


def test_fit_validates_config_and_sizes():
    data = _data(np.eye(3))
    with pytest.raises(ValueError, match="exceeds"):
        fit_gdm(data, GdmConfig(K=5))
    with pytest.raises(ValueError, match="config.K"):
        fit_gdm(data, GdmConfig(lam=1.0))
    with pytest.raises(ValueError, match="config.lam"):
        fit_ngdm(data, GdmConfig(K=2))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(K=2, lam=1.0),
        dict(K=0),
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(K=2, restarts=0),
        dict(K=2, max_iters=0),
        dict(lam=1.0, max_iters=-7),
        dict(lam=float("inf")),
        dict(lam=float("nan")),
        dict(lam=1.0, restarts=3),
        dict(K=2.5),
        dict(K=True),
        dict(K=np.float64(2.0)),
        dict(K=2, restarts=1.5),
        dict(K=2, restarts=True),
        dict(K=2, max_iters=2.5),
        dict(lam=1.0, max_iters=False),
        dict(K=2, seed=1.5),
        dict(K=2, seed=-1),
        dict(lam=1.0, seed="0"),
        dict(K=2, weighted_center="false"),
        dict(K=2, weighted_center=0),
        dict(K=2, weighted_center=None),
        dict(K=2, tune="true"),
        dict(K=2, tune=1),
        dict(lam=1.0, tune=[True]),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GdmConfig(**kwargs)


@pytest.mark.parametrize("lam", [True, False, "3", 1 + 1j, [1.0]], ids=repr)
def test_config_rejects_a_bool_or_non_real_lam(lam):
    with pytest.raises(ValueError, match="lam must be a real number"):
        GdmConfig(lam=lam)


def test_config_takes_real_lam():
    # stored as a plain float, which a model file can write
    for lam in (3, 0.5, np.float64(2.0), np.int64(4), np.float32(1.5)):
        stored = GdmConfig(lam=lam).lam
        assert stored == lam and type(stored) is float


def test_config_takes_numpy_bools():
    config = GdmConfig(K=2, weighted_center=np.bool_(False), tune=np.bool_(True))
    assert (config.weighted_center, config.tune) == (False, True)
    assert type(config.weighted_center) is type(config.tune) is bool


def test_config_takes_numpy_integers():
    config = GdmConfig(K=np.int64(3), restarts=np.int32(2), max_iters=np.uint8(9), seed=np.int64(0))
    assert (config.K, config.restarts, config.max_iters, config.seed) == (3, 2, 9, 0)
    assert {type(v) for v in (config.K, config.restarts, config.max_iters, config.seed)} == {int}


@pytest.mark.parametrize("tune", [False, True])
def test_fit_matches_clustering_a_reordered_copy(monkeypatch, tune):
    # k-means takes its CSR rows and squared norms in canonical order; the
    # model must be the one clustering a dense reordered copy gives, bit for bit
    cases = [
        (LdaParams(K=5, V=301, M=300, doc_lengths=200, alpha=0.1, eta=0.1, seed=4), 5),
        (LdaParams(K=8, V=2001, M=150, doc_lengths=(50, 400), alpha=0.1, eta=0.05, seed=5), 8),
    ]
    for params, K in cases:
        data = normalize(generate_corpus(params)[0])
        config = GdmConfig(K=K, restarts=3, tune=tune, seed=params.seed)
        model = fit_gdm(data, config)
        with monkeypatch.context() as patch:
            patch.setattr(gdm, "fit_kmeans", partial(in_canonical_order, fit_kmeans))
            reference = fit_gdm(data, config)
        _assert_same_model(model, reference)


_NIPS_WIDE = LdaParams(K=10, V=12419, M=200, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=0)


def _dense_peak(run, corpus):
    """Peak traced allocation of ``run()`` above its start, as a multiple of
    the bytes of the corpus' rows as one dense M x V float64 array."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (8 * corpus.M * corpus.V)


def _fit_peak(tune, lam):
    """Peak of one fit at the NIPS vocabulary size, as a multiple of one
    dense copy of the rows."""
    data = normalize(generate_corpus(_NIPS_WIDE)[0])
    if lam is None:
        fit, config = fit_gdm, GdmConfig(K=10, restarts=2, tune=tune)
    else:
        fit, config = fit_ngdm, GdmConfig(lam=lam, tune=tune)
    return _dense_peak(lambda: fit(data, config), data)


@pytest.mark.parametrize(
    "tune, lam",
    [(False, None), (True, None), (False, 3.0), (True, 3.0)],
    ids=["False", "True", "ngdm", "tuned-ngdm"],
)
def test_fit_holds_one_working_buffer(tune, lam):
    # above the CSR rows, a fit holds at most one dense M x V buffer at a
    # time: for nGDM, DP-means' canonical-order copy; GDM none, as the
    # projection's cross terms (with tuning, over one cluster's CSR rows at a
    # time) take one CSR product at these sparse rows and one row block at
    # dense ones
    assert _fit_peak(tune, lam) <= 1.2


def test_untuned_gdm_fit_works_in_row_blocks():
    # k-means works on a CSR copy, the covering radii on the stored entries,
    # the projection's cross terms on a CSR product (on one row block above
    # a tenth of the entries stored) and its certificate in the K x K Gram
    # geometry, so an untuned GDM fit needs well under a copy of the rows
    assert _fit_peak(False, None) <= 0.5


def test_normalize_and_tuned_fit_hold_no_dense_rows():
    # normalize gives CSR rows, densified only one row block at a time for
    # its row sums, and a tuned GDM fit keeps them sparse, so the two
    # together stay well under one dense copy of the rows (with the dense
    # rows of normalize they took 1.78 copies)
    c = generate_corpus(_NIPS_WIDE)[0]
    config = GdmConfig(K=10, restarts=2, tune=True)
    assert _dense_peak(lambda: fit_gdm(normalize(c), config), c) <= 0.6


def test_tuned_never_worse():
    for seed in range(6):
        data = _lda_data(40 + seed)
        base = fit_gdm(data, GdmConfig(K=3, seed=seed))
        tuned = fit_gdm(data, GdmConfig(K=3, seed=seed, tune=True))
        assert tuned.objective <= base.objective + 1e-9
        assert (tuned.extensions <= base.extensions + 1e-12).all()
        assert (tuned.extensions >= 1.0 - 1e-12).all()


def test_tuning_shrinks_extension_for_outlier_cluster(monkeypatch):
    # an outlier far off the extension ray inflates the covering radius, so
    # the default extension pivots the hull away from the cluster mass and
    # the line search must pull the vertex back in
    rows = np.array(
        [[0.85, 0.05, 0.05, 0.05]] * 3
        + [[0.1, 0.65, 0.2, 0.05]] * 8
        + [[0.0, 0.42, 0.0, 0.58]]
    )
    data = _data(rows)
    base = fit_gdm(data, GdmConfig(K=2, seed=0))

    # the fit hands its center, centroids and assignments to the line search
    calls = []
    real_tune = gdm.tune_extensions

    def spy(*args):
        calls.append(args)
        return real_tune(*args)

    monkeypatch.setattr(gdm, "tune_extensions", spy)
    tuned = fit_gdm(data, GdmConfig(K=2, seed=0, tune=True))
    assert tuned.objective < base.objective - 1e-4
    shrunk = base.extensions - tuned.extensions
    assert shrunk.max() > 0.5
    (_, center, centroids, assignments, extensions, theta), = calls
    assert np.array_equal(extend(center, centroids, extensions), base.polytope.vertices)
    assert np.array_equal(extensions, base.extensions)
    # and the rows' weights on those vertices, which the line search starts from
    assert np.array_equal(theta, geometry.project_rows(data, base.polytope)[0])

    # dense-grid oracle over each extension scalar, replayed in the same
    # sequential order the line search uses
    vertices = base.polytope.vertices.copy()
    for k in range(2):
        members = assignments == k
        hi = float(base.extensions[k])
        if hi <= 1.0 + 1e-12:
            continue
        other = np.delete(vertices, k, axis=0)
        val, m = grid_tune_extension(
            center,
            centroids[k],
            other,
            data.rows[members],
            data.weights[members],
            hi,
            n=4000,
        )
        assert abs(tuned.extensions[k] - m) < 2e-3
        vertices[k] = extended_vertex(center, centroids[k], tuned.extensions[k])


def test_tuning_slope_matches_central_differences(monkeypatch):
    # each cluster's line search gets g_k and its slope from one projection;
    # the slope must be the derivative of g_k, also where the ray is clipped
    # (there the vertex's renormalization moves the kept coordinates)
    data = _lda_data(0, V=12, M=80)
    real_tune, real_search = gdm.tune_extensions, gdm._slope_search
    state, checked = {}, []

    def tune_spy(data, center, centroids, assignments, extensions, theta):
        state.update(center=center, centroids=centroids, todo=list(np.flatnonzero(extensions > 1.0 + 1e-12)))
        return real_tune(data, center, centroids, assignments, extensions, theta)

    def search_spy(f, lo, hi):
        center, k = state["center"], state["todo"].pop(0)
        ray = state["centroids"][k] - center
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = -center / ray  # where a coordinate of the ray crosses 0
        for m in lo + np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * (hi - lo):
            if np.nanmin(np.abs(kinks - m)) < 1e-3:
                continue
            h = 1e-6
            differences = (f(m + h)[0] - f(m - h)[0]) / (2.0 * h)
            checked.append((k, int((center + m * ray < 0.0).sum())))
            assert f(m)[1] == pytest.approx(differences, rel=1e-5, abs=0.0)
        return real_search(f, lo, hi)

    monkeypatch.setattr(gdm, "tune_extensions", tune_spy)
    monkeypatch.setattr(gdm, "_slope_search", search_spy)
    fit_gdm(data, GdmConfig(K=3, tune=True))
    assert len({k for k, _ in checked}) >= 2
    assert any(clipped for _, clipped in checked)
    assert any(not clipped for _, clipped in checked)


def test_tuning_takes_the_least_extension_where_the_objective_is_flat():
    # criterion 4's outlier corpus: once the first cluster's vertex passes
    # m of about 1.02 all its rows lie inside the hull, so its objective is
    # flat to rounding up to the default m of 2.99, and tuning must take
    # the flat stretch's lower end rather than a point that rounding favours
    rows = np.array(
        [[0.6, 0.2, 0.1, 0.1]] * 3
        + [[0.25, 0.45, 0.2, 0.1]] * 8
        + [[0.2, 0.35, 0.05, 0.4]]
    )
    data = _data(rows)
    base = fit_gdm(data, GdmConfig(K=2, seed=0))
    tuned = fit_gdm(data, GdmConfig(K=2, seed=0, tune=True))
    (k,) = np.flatnonzero(base.extensions > 2.0)
    assert tuned.objective == pytest.approx(base.objective, rel=1e-12)
    assert 1.0 < tuned.extensions[k] < 1.05


def _tgdm_large_m_corpus():
    """perfbench's tgdm_large_m training corpus at data seed 0."""
    params = LdaParams(K=5, V=100, M=1500, doc_lengths=200, alpha=0.1, eta=0.1, seed=0)
    return normalize(split_holdout(generate_corpus(params)[0], 500, 0)[0])


def test_tuned_fit_projects_half_as_often_as_a_derivative_free_search(monkeypatch):
    # perfbench's tgdm_large_m corpus (data seed 0), fit seed 0: bounded
    # Brent took 70 projections here, the slope search 39; every projection,
    # the fit's and each tuning evaluation's, runs geometry._solve once
    data = _tgdm_large_m_corpus()
    calls = []
    real = geometry._solve

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(geometry, "_solve", spy)
    fit_gdm(data, GdmConfig(K=5, tune=True, seed=0))
    assert len(calls) <= 42


def test_warm_started_tuning_picks_the_cold_search_extensions(monkeypatch):
    # each projection of the line search starts from earlier weights, which
    # changes how the active set gets to each projection but not where:
    # the searches see the same objectives and slopes and pick the same m_k
    cases = [(_lda_data(40 + seed), 3, seed) for seed in range(6)]
    cases += [(_lda_data(seed, K=4, V=12, M=80), 4, seed) for seed in range(3)]
    cases.append((_tgdm_large_m_corpus(), 5, 0))

    def fits():
        return [fit_gdm(data, GdmConfig(K=K, seed=seed, tune=True)) for data, K, seed in cases]

    warm = fits()
    real = geometry._solve

    def cold_start(BBt, BX, xx, thetas, scales):
        nearest = np.argmin(np.diag(BBt) - 2.0 * BX + xx[:, None], axis=1)
        thetas = np.zeros(BX.shape)
        thetas[np.arange(BX.shape[0]), nearest] = 1.0
        return real(BBt, BX, xx, thetas, scales)

    monkeypatch.setattr(geometry, "_solve", cold_start)
    for w, cold in zip(warm, fits()):  # every projection started at the nearest vertices
        assert np.array_equal(w.extensions, cold.extensions)
        assert np.array_equal(w.polytope.vertices, cold.polytope.vertices)
        assert w.objective == cold.objective


def test_warm_started_tuning_takes_under_a_third_of_the_cold_major_steps(monkeypatch):
    # perfbench's tgdm_large_m corpus (data seed 0), fit seed 0: with every
    # projection started at the nearest vertices the fit took 195 major
    # steps of the active set, started from earlier weights 59
    data = _tgdm_large_m_corpus()
    steps = []
    real = geometry._theta_gram

    def spy(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(geometry, "_theta_gram", spy)
    fit_gdm(data, GdmConfig(K=5, tune=True, seed=0))
    assert len(steps) <= 65


def _sparse_tuning_corpus():
    """Documents of 1-4 tokens on sparse topics: a corpus storing 0.6 % of
    its entries, so that each cluster's cross terms take the CSR branch of
    ``geometry._cross_terms``, and a third of whose rows lie more than 1
    from some vertex in squared distance, so that their scales are not 1."""
    params = LdaParams(K=4, V=400, M=300, doc_lengths=(1, 4), alpha=0.1, eta=0.02, seed=1)
    return normalize(generate_corpus(params)[0])


@pytest.mark.parametrize(
    "corpus, K, dense_blocks",
    [(_tgdm_large_m_corpus, 5, True), (_sparse_tuning_corpus, 4, False)],
    ids=["dense-blocks", "csr"],
)
def test_every_tuning_evaluation_matches_a_fresh_projection(monkeypatch, corpus, K, dense_blocks):
    # tuning keeps each cluster's cross terms, Gram matrix and distances and
    # recomputes only the moved vertex's part; every evaluation's objective,
    # weights and slope must be those of a solve on the candidate polytope's
    # inputs formed afresh, from the same start, with the Danskin slope taken
    # from them, and its scales those of the candidate's distances (a stale
    # Gram row or cross-term column fails here)
    data = corpus()
    real_tune, real_search, real_solve = gdm.tune_extensions, gdm._slope_search, geometry._solve
    state, solves, checked = {}, [], []

    def tune_spy(data, center, centroids, assignments, extensions, theta):
        state.update(
            center=center,
            centroids=centroids,
            assignments=assignments,
            vertices=extend(center, centroids, extensions),
            todo=list(np.flatnonzero(extensions > 1.0 + 1e-12)),
        )
        return real_tune(data, center, centroids, assignments, extensions, theta)

    def solve_spy(BBt, BX, xx, thetas, scales):
        start = thetas.copy()  # the active set overwrites its start
        theta, sq = real_solve(BBt, BX, xx, thetas, scales)
        solves.append((start, scales.copy(), theta))
        return theta, sq

    def search_spy(f, lo, hi):
        center, centroids, k = state["center"], state["centroids"], state["todo"].pop(0)
        members = state["assignments"] == k
        sub = NormalizedCorpus(rows=data.csr[members], weights=data.weights[members])
        X, w = sub.csr, sub.weights
        ray = centroids[k] - center

        def checked_f(m):
            value, slope = f(m)
            start, scales, theta = solves[-1]
            cand = state["vertices"].copy()
            cand[k] = extend(center, centroids[k, None], [m])
            # project_rows' inputs, formed afresh for the candidate polytope
            BBt, BX, xx, d2 = geometry._inputs(X, TopicPolytope(cand).vertices)
            ref, sq = real_solve(BBt, BX, xx, start.copy(), np.maximum(1.0, d2.max(axis=1)))
            raw = center + m * ray
            kept = raw > 0.0
            velocity = np.where(kept, ray - cand[k] * ray[kept].sum(), 0.0) / raw[kept].sum()
            along = ref @ (cand @ velocity) - X @ velocity
            assert value == pytest.approx(float(np.sum(w * sq)), rel=1e-12, abs=0.0)
            assert np.abs(theta - ref).max() <= 1e-9
            # relative to the sum of the terms' magnitudes: near the minimum they cancel
            terms = 2.0 * w * ref[:, k] * along
            assert abs(slope - float(np.sum(terms))) <= 1e-9 * float(np.sum(np.abs(terms)))
            d2 = ((X.toarray()[:, None, :] - cand[None, :, :]) ** 2).sum(axis=2)
            assert scales == pytest.approx(np.maximum(1.0, d2.max(axis=1)), rel=1e-12, abs=0.0)
            checked.append((k, X.nnz >= geometry._SPARSE_SHARE * X.shape[0] * X.shape[1]))
            return value, slope

        best = real_search(checked_f, lo, hi)
        state["vertices"][k] = extend(center, centroids[k, None], [best])
        return best

    monkeypatch.setattr(gdm, "tune_extensions", tune_spy)
    monkeypatch.setattr(gdm, "_slope_search", search_spy)
    monkeypatch.setattr(geometry, "_solve", solve_spy)
    fit_gdm(data, GdmConfig(K=K, tune=True, seed=0))
    assert len({k for k, _ in checked}) >= 2 and len(checked) >= 10
    assert all(blocks == dense_blocks for _, blocks in checked)


def test_ngdm_finds_separated_clouds():
    rng = np.random.default_rng(2)
    centers = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
    rows = np.vstack([c + 0.01 * (rng.random((12, 3)) - 0.5) for c in centers])
    rows = np.clip(rows, 0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    data = _data(rows)
    model = fit_ngdm(data, GdmConfig(lam=0.05, seed=0))
    assert model.K == 3
    assert np.isclose(
        model.objective,
        geometric_objective(data, model.polytope) + 0.05 * 3,
        rtol=1e-12,
    )


def test_ngdm_penalty_dominates_to_single_topic():
    data = _lda_data(3)
    model = fit_ngdm(data, GdmConfig(lam=1e6))
    assert model.K == 1
    assert np.allclose(model.polytope.vertices[0], np.average(data.rows, axis=0, weights=data.weights))


def test_ngdm_order_invariant():
    data = _lda_data(9)
    perm = np.random.default_rng(5).permutation(data.M)
    shuffled = NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])
    m1 = fit_ngdm(data, GdmConfig(lam=0.3, seed=1))
    m2 = fit_ngdm(shuffled, GdmConfig(lam=0.3, seed=1))
    assert m1.K == m2.K
    assert np.allclose(
        sorted(map(tuple, m1.polytope.vertices)),
        sorted(map(tuple, m2.polytope.vertices)),
        atol=1e-12,
    )


def _assert_same_model(loaded, model):
    # every array comes back with the same float64 bytes, -0.0 and subnormals included
    for a, b in [
        (loaded.polytope.vertices, model.polytope.vertices),
        (loaded.extensions, model.extensions),
        (loaded.radii, model.radii),
    ]:
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert loaded.objective == model.objective
    assert loaded.config == model.config


def test_model_roundtrip(tmp_path):
    fits = [
        fit_gdm(_lda_data(13), GdmConfig(K=3, seed=4, tune=True)),
        fit_ngdm(_lda_data(17), GdmConfig(lam=0.4, seed=6)),
    ]
    assert [f.name for f in dataclasses.fields(GdmModel)] == [
        "polytope",
        "extensions",
        "radii",
        "objective",
        "config",
    ]
    # the file is exactly the one-line dump of the five fields with sorted
    # keys, each array as base64 of its little-endian float64 bytes with its
    # shape: for a GDM fit with clipped vertices and for an nGDM fit, whose
    # config K is null
    assert (fits[0].polytope.vertices == 0.0).any() and fits[1].config.K is None
    for model in fits:
        path = tmp_path / "model.json"
        save_model(model, path)
        d = {
            "beta": model_field(model.polytope.vertices),
            "extensions": model_field(model.extensions),
            "radii": model_field(model.radii),
            "objective": model.objective,
            "config": dataclasses.asdict(model.config),
        }
        assert path.read_bytes() == (json.dumps(d, sort_keys=True) + "\n").encode()
        _assert_same_model(load_model(path), model)


@pytest.mark.parametrize(
    "fit, config",
    [
        (
            fit_gdm,
            GdmConfig(
                K=np.int64(3),
                restarts=np.int32(2),
                max_iters=np.uint16(50),
                weighted_center=np.bool_(True),
                tune=np.bool_(True),
                seed=np.int64(4),
            ),
        ),
        (fit_ngdm, GdmConfig(lam=np.float32(1.5), seed=6)),
    ],
    ids=["numpy-values", "float32-lam"],
)
def test_a_config_of_numpy_values_saves_and_reloads(tmp_path, fit, config):
    model = fit(_lda_data(13), config)
    path = tmp_path / "model.json"
    save_model(model, path)
    _assert_same_model(load_model(path), model)


def test_load_model_ignores_fit_time_keys_of_older_files(tmp_path):
    # older files also stored the data center and the cluster centroids:
    # such keys are ignored, but the arrays of those files were lists of
    # numbers, which no longer load
    model = fit_gdm(_lda_data(19), GdmConfig(K=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    with open(path) as f:
        d = json.load(f)
    assert sorted(d) == ["beta", "config", "extensions", "objective", "radii"]
    d["center"] = model_field([0.125] * 8)
    d["centroids"] = d["beta"]
    with open(path, "w") as f:
        json.dump(d, f)
    _assert_same_model(load_model(path), model)
    beta = model.polytope.vertices.tolist()
    extensions, radii = model.extensions.tolist(), model.radii.tolist()
    old = dict(d, beta=beta, extensions=extensions, radii=radii, center=[0.125] * 8, centroids=beta)
    with open(path, "w") as f:
        json.dump(old, f)
    message = f"model file {path} field 'beta' is a list, the old model format; refit the model"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(path)


def test_save_truth_writes_sorted_list_form_json_that_load_truth_reads_bitwise(tmp_path):
    truth = generate_corpus(LdaParams(K=3, V=8, M=5, doc_lengths=20, alpha=0.5, eta=0.5, seed=2))[1]
    path = tmp_path / "truth.json"
    save_truth(truth, path)
    expected = json.dumps({"beta": truth.beta.tolist(), "theta": truth.theta.tolist()}, sort_keys=True)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")
    assert load_truth(path).vertices.tobytes() == truth.beta.tobytes()


def test_load_truth_reads_the_list_form_beta(tmp_path):
    beta = generate_corpus(LdaParams(K=3, V=8, M=5, doc_lengths=20, alpha=0.5, eta=0.5, seed=2))[1].beta
    path = tmp_path / "truth.json"
    path.write_text(json.dumps({"beta": beta.tolist(), "theta": [[1.0, 0.0, 0.0]]}))
    assert load_truth(path).vertices.tobytes() == beta.tobytes()
    path.write_text(json.dumps({"beta": [[0.5, "x"]]}))
    message = f"truth file {path} field 'beta' is not a number or a rectangular array of numbers"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_truth(path)


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("extensions", [1.0, 1.5], "extensions"),
        ("extensions", [[1.0, 1.5, 2.0]], "extensions"),
        ("extensions", [], "extensions"),
        ("radii", [0.1, 0.2, 0.3, 0.4], "radii"),
        ("radii", [[0.1], [0.2], [0.3]], "radii"),
        ("radii", [], "radii"),
        ("extensions", [1.0, None, 2.0], "extensions.*not finite"),
        ("extensions", [1.0, 1.5, float("-inf")], "extensions.*not finite"),
        ("radii", [0.1, float("nan"), 0.3], "radii.*not finite"),
        ("radii", [None, 0.2, 0.3], "radii.*not finite"),
        ("objective", float("nan"), "objective"),
        ("K", 4, "K"),
    ],
)
def test_load_model_rejects_inconsistent_files(tmp_path, key, value, field):
    model = fit_gdm(_lda_data(19), GdmConfig(K=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    with open(path) as f:
        d = json.load(f)
    if key == "K":
        d["config"]["K"] = value
    elif key == "objective":
        d[key] = value
    else:
        d[key] = model_field(np.array(value, dtype=np.float64))  # a null entry is NaN
    with open(path, "w") as f:
        json.dump(d, f)
    with pytest.raises(ValueError, match=field):
        load_model(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("extensions", [1.0, 1.5], "{file} field 'extensions' has shape (2,), expected (3,)"),
        ("radii", [[0.1], [0.2], [0.3]], "{file} field 'radii' has shape (3, 1), expected (3,)"),
        ("K", 4, "{file} field 'config' has K=4 but 'beta' has 3 topics"),
        ("beta", [0.125] * 8, "vertices must be a K x V matrix with K >= 1 ({file} field 'beta', shape (8,))"),
        ("beta", [[0.0625] * 8] * 3, "vertex rows must sum to 1 ({file} field 'beta', shape (3, 8))"),
    ],
    ids=["extensions-shape", "radii-shape", "config-K", "beta-one-dimensional", "beta-rows"],
)
def test_load_model_errors_name_the_file_and_field(tmp_path, key, value, message):
    model = fit_gdm(_lda_data(19), GdmConfig(K=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    with open(path) as f:
        d = json.load(f)
    if key == "K":
        d["config"]["K"] = value
    else:
        d[key] = model_field(np.array(value, dtype=np.float64))
    with open(path, "w") as f:
        json.dump(d, f)
    with pytest.raises(ValueError) as raised:
        load_model(path)
    assert str(raised.value) == message.format(file=f"model file {path}")


def _decoded(field):
    values = np.frombuffer(base64.b64decode(field["data"]), dtype="<f8")
    return values.reshape(field["shape"]).copy()


def _with_first_entry(x):
    def edit(field):
        values = _decoded(field)
        values.flat[0] = x
        return model_field(values)

    return edit


@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("beta", lambda f: {**f, "data": "*\n" + f["data"]}, "data is not base64"),
        ("radii", lambda f: {**f, "data": f["data"][:-1]}, "data is not base64"),
        ("radii", lambda f: {**f, "data": "é" + f["data"]}, "data is not base64"),
        ("beta", lambda f: {**f, "data": f["data"][:-4]}, "data holds 189 bytes, expected 8 x 24"),
        ("extensions", lambda f: {**f, "shape": [4]}, "data holds 24 bytes, expected 8 x 4"),
        ("beta", lambda f: {**f, "shape": [True, 8]}, "shape entry must be an integer, got True"),
        ("beta", lambda f: {**f, "shape": [-1, -24]}, "shape entry must be >= 0"),
        ("radii", lambda f: {**f, "shape": [1.5]}, "shape entry must be an integer, got 1.5"),
        ("radii", lambda f: {**f, "shape": 3}, "is not an object of a base64 'data' string"),
        ("extensions", lambda f: {**f, "dtype": "<f8"}, "is not an object of a base64 'data'"),
        ("extensions", lambda f: {"data": f["data"]}, "is not an object of a base64 'data'"),
        ("beta", lambda f: f["data"], "is not an object of a base64 'data' string"),
        ("beta", lambda f: _decoded(f).tolist(), "is a list, the old model format; refit"),
        ("radii", lambda f: _decoded(f).tolist(), "is a list, the old model format; refit"),
        ("beta", _with_first_entry(np.nan), "holds a value that is not finite"),
        ("beta", _with_first_entry(np.inf), "holds a value that is not finite"),
        ("extensions", _with_first_entry(np.nan), "holds a value that is not finite"),
        ("extensions", _with_first_entry(-np.inf), "holds a value that is not finite"),
        ("radii", _with_first_entry(np.inf), "holds a value that is not finite"),
        ("radii", _with_first_entry(-np.inf), "holds a value that is not finite"),
    ],
    ids=[
        "beta-not-base64", "radii-bad-padding", "radii-non-ascii", "beta-short",
        "extensions-long-shape", "beta-shape-true", "beta-shape-negative",
        "radii-shape-fraction", "radii-shape-not-a-list", "extensions-dtype-key",
        "extensions-no-shape", "beta-bare-string", "beta-list", "radii-list", "beta-nan",
        "beta-infinity", "extensions-nan", "extensions-negative-infinity", "radii-infinity",
        "radii-negative-infinity",
    ],
)
def test_load_model_rejects_malformed_array_fields(tmp_path, key, edit, message):
    model = fit_gdm(_lda_data(19), GdmConfig(K=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    with open(path) as f:
        d = json.load(f)
    d[key] = edit(d[key])
    with open(path, "w") as f:
        json.dump(d, f)
    with pytest.raises(ValueError, match=re.escape(f"model file {path} field {key!r} {message}")):
        load_model(path)


def _fit_centers(monkeypatch, data, configs):
    """The data center each fit hands to ``default_extensions``."""
    centers = []
    extensions = gdm.default_extensions

    def spy(data, center, centroids, assignments):
        centers.append(center)
        return extensions(data, center, centroids, assignments)

    monkeypatch.setattr(gdm, "default_extensions", spy)
    for config in configs:
        (fit_gdm if config.lam is None else fit_ngdm)(data, config)
    return centers


# shaped like the training corpora of the perfbench workloads nips_cli, tgdm_large_m, ngdm_sweep
PERFBENCH_SHAPES = [
    dict(K=10, V=12419, M=288, doc_lengths=(200, 1800), alpha=0.1, eta=0.05),
    dict(K=5, V=100, M=1000, doc_lengths=200, alpha=0.1, eta=0.1),
    dict(K=15, V=300, M=500, doc_lengths=500, alpha=0.1, eta=0.1),
]


@pytest.mark.parametrize("shape", PERFBENCH_SHAPES, ids=["nips_cli", "tgdm_large_m", "ngdm_sweep"])
def test_fit_center_is_np_average_bitwise(monkeypatch, shape):
    for seed in range(3):
        data = normalize(generate_corpus(LdaParams(**shape, seed=seed))[0])
        configs = [
            GdmConfig(K=shape["K"], restarts=1, max_iters=3, seed=seed, weighted_center=weighted)
            for weighted in (True, False)
        ] + [GdmConfig(lam=1e9, seed=seed)]
        weighted, unweighted, ngdm = _fit_centers(monkeypatch, data, configs)
        expected = np.average(data.rows, axis=0, weights=data.weights)
        assert weighted.tobytes() == ngdm.tobytes() == expected.tobytes()
        assert unweighted.tobytes() == np.average(data.rows, axis=0).tobytes()


@pytest.mark.parametrize(
    "shape, config",
    list(
        zip(
            PERFBENCH_SHAPES,
            [
                GdmConfig(K=10, restarts=2, seed=1),
                GdmConfig(K=5, tune=True, seed=1),
                GdmConfig(lam=8.0, seed=1),
            ],
        )
    ),
    ids=["nips_cli", "tgdm_large_m", "ngdm_sweep"],
)
def test_fitted_models_reload_bitwise_at_the_benchmark_shapes(tmp_path, shape, config):
    data = normalize(generate_corpus(LdaParams(**shape, seed=0))[0])
    model = (fit_gdm if config.lam is None else fit_ngdm)(data, config)
    path = tmp_path / "model.json"
    save_model(model, path)
    _assert_same_model(load_model(path), model)


@settings(max_examples=100, deadline=None)
@given(counts=count_matrices())
def test_fit_center_is_np_average_bitwise_on_any_counts(counts):
    data = normalize(Corpus(counts))
    with pytest.MonkeyPatch.context() as patch:
        weighted, unweighted = _fit_centers(
            patch, data, [GdmConfig(K=1, restarts=1), GdmConfig(K=1, weighted_center=False)]
        )
    assert weighted.tobytes() == np.average(data.rows, axis=0, weights=data.weights).tobytes()
    assert unweighted.tobytes() == np.average(data.rows, axis=0).tobytes()


@pytest.mark.parametrize("tune", [False, True])
def test_fit_scans_no_dense_rows_into_csr(monkeypatch, tune):
    # the rows are CSR from normalize on: k-means gathers them, tuning
    # slices them, and no step of a fit converts a dense array to CSR
    data = _lda_data(23, K=4, V=40, M=80)
    dense_inputs = []
    csr_matrix = sp.csr_matrix

    def spy(arg, *args, **kwargs):
        if isinstance(arg, np.ndarray):
            dense_inputs.append(arg.shape)
        return csr_matrix(arg, *args, **kwargs)

    monkeypatch.setattr(sp, "csr_matrix", spy)
    fit_gdm(data, GdmConfig(K=4, restarts=2, tune=tune, seed=2))
    assert dense_inputs == []


def test_fit_and_inference_read_no_dense_rows(monkeypatch):
    # every pass over the documents reads their CSR rows: with the dense
    # ``rows`` accessor raising, fits with and without tuning, nGDM with
    # tuning and held-out inference all run
    params = LdaParams(K=4, V=40, M=100, doc_lengths=60, alpha=0.2, eta=0.3, seed=29)
    full = generate_corpus(params)[0]
    train, heldout = Corpus(full.counts[:80]), Corpus(full.counts[80:])
    data = normalize(train)

    def dense_rows(self):
        raise AssertionError("dense rows read")

    monkeypatch.setattr(NormalizedCorpus, "rows", property(dense_rows))
    gdm_fit = fit_gdm(data, GdmConfig(K=4, restarts=2, seed=1))
    tuned = fit_gdm(data, GdmConfig(K=4, restarts=2, tune=True, seed=1))
    ngdm_fit = fit_ngdm(data, GdmConfig(lam=5.0, seed=1))
    tuned_ngdm = fit_ngdm(data, GdmConfig(lam=5.0, tune=True, seed=1))
    # the tuned fits moved their extensions, so tuning ran
    assert (tuned.extensions < gdm_fit.extensions).any()
    assert (tuned_ngdm.extensions < ngdm_fit.extensions).any()
    for model in (gdm_fit, tuned, tuned_ngdm):
        theta = infer_theta(model.polytope, heldout)
        assert theta.shape == (20, model.K)
    with pytest.raises(AssertionError, match="dense rows read"):
        data.rows


def test_rows_one_ulp_apart_raise_a_value_error():
    # distinct bytes but expanded distances of exactly 0: k-means++ finds no second seed
    a = np.array([0.3, 0.3, 0.4])
    b = a.copy()
    b[0], b[1] = np.nextafter(a[0], 1.0), np.nextafter(a[1], 0.0)
    data = _data([a, b, a], weights=[5, 7, 3])
    for fit in (lambda: fit_kmeans(data, 2, 10, 1500, np.random.default_rng(0)), lambda: fit_gdm(data, GdmConfig(K=2))):
        with pytest.raises(ValueError, match="K=2 exceeds"):
            fit()


def test_ngdm_model_roundtrip(tmp_path):
    data = _lda_data(17)
    model = fit_ngdm(data, GdmConfig(lam=0.4, seed=6))
    path = tmp_path / "model.json"
    save_model(model, path)
    with open(path) as f:
        assert json.load(f)["config"]["restarts"] == GdmConfig.restarts == 10
    loaded = load_model(path)
    assert loaded.config.lam == 0.4
    assert loaded.K == model.K
    assert np.allclose(loaded.polytope.vertices, model.polytope.vertices, atol=1e-15)
