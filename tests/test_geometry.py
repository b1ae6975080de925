import numpy as np
import pytest

from gdmtopics import geometry
from gdmtopics.corpus import NormalizedCorpus
from gdmtopics.geometry import (
    ProjectionFailure,
    TopicPolytope,
    geometric_objective,
    project_rows,
)
from oracles import grid_project, project_one


def _random_polytope(rng, K, V):
    g = rng.gamma(0.5, size=(K, V))
    return TopicPolytope(g / g.sum(axis=1, keepdims=True))


def test_project_vertex_is_fixed_point():
    poly = TopicPolytope(np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
    theta, point, sq, _ = project_one(poly.vertices[1], poly)
    assert np.allclose(point, poly.vertices[1], atol=1e-12)
    assert sq < 1e-20
    assert np.allclose(theta, [0, 1], atol=1e-9)


def test_project_onto_segment():
    poly = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    theta, _, sq, _ = project_one(np.array([0.5, 0.5]), poly)
    assert np.allclose(theta, [0.5, 0.5])
    assert sq < 1e-20
    # off-simplex query lands at the segment midpoint orthogonally
    seg = TopicPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    _, point, sq, _ = project_one(np.array([0.5, 1.0, 0.5]), seg)
    assert np.allclose(point, [0.5, 0.0, 0.5])
    assert np.isclose(sq, 1.0)


def test_project_matches_grid_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        poly = _random_polytope(rng, 3, 4)
        q = rng.random(4)
        _, point, sq, gap = project_one(q, poly)
        _, pt, d2 = grid_project(q, poly.vertices, final_step=5e-4)
        assert np.linalg.norm(point - pt) < 2e-3
        assert sq <= d2 + 1e-5
        assert gap < 1e-8


def test_projection_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(30):
        poly = _random_polytope(rng, 4, 5)
        _, point, _, _ = project_one(rng.random(5) * 2 - 0.5, poly)
        _, point2, sq2, _ = project_one(point, poly)
        assert np.allclose(point2, point, atol=1e-7)
        assert sq2 < 1e-14


def test_projection_nonexpansive():
    rng = np.random.default_rng(29)
    for _ in range(50):
        poly = _random_polytope(rng, 3, 5)
        a, b = rng.random(5), rng.random(5)
        pa, pb = project_one(a, poly)[1], project_one(b, poly)[1]
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


def test_projection_vertex_permutation():
    rng = np.random.default_rng(31)
    poly = _random_polytope(rng, 4, 6)
    q = rng.random(6)
    perm = np.array([2, 0, 3, 1])
    permuted = TopicPolytope(poly.vertices[perm])
    theta1, point1, sq1, _ = project_one(q, poly)
    theta2, point2, sq2, _ = project_one(q, permuted)
    assert np.allclose(point1, point2, atol=1e-8)
    assert np.isclose(sq1, sq2, atol=1e-10)
    assert np.allclose(theta1[perm], theta2, atol=1e-7)


def test_barycentric_midpoint_and_vertex():
    poly = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    theta, _, _, _ = project_one(np.array([0.5, 0.5]), poly)
    assert np.allclose(theta, [0.5, 0.5])
    theta, _, _, _ = project_one(np.array([0.0, 1.0]), poly)
    assert np.allclose(theta, [0.0, 1.0], atol=1e-9)


def test_barycentric_degenerate_hull_flagged():
    poly = TopicPolytope(np.array([[0.6, 0.4], [0.6, 0.4], [0.0, 1.0]]))
    theta, point, _, _ = project_one(np.array([0.4, 0.6]), poly)
    # projection itself is still unique
    assert np.allclose(point, [0.4, 0.6], atol=1e-9)
    # the active set stays affinely independent: one of the duplicates only
    active = np.flatnonzero(theta > 1e-9)
    diffs = poly.vertices[active[1:]] - poly.vertices[active[0]]
    assert np.linalg.matrix_rank(diffs, tol=1e-9) == active.size - 1
    assert min(theta[0], theta[1]) < 1e-12
    assert np.allclose(theta @ poly.vertices, point, atol=1e-12)


def test_project_rows_rejects_bad_input():
    poly = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="rows must be an M x V matrix"):
        project_rows(np.array([[0.1, 0.2, 0.7]]), poly)
    with pytest.raises(ValueError, match="rows must be an M x V matrix"):
        project_rows(np.array([0.5, 0.5]), poly)
    # a non-finite row is rejected before any arithmetic, without a warning
    for bad in (np.nan, np.inf):
        rows = np.array([[0.3, 0.7], [bad, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            project_rows(rows, poly)


def test_geometric_objective_zero_at_vertices():
    poly = TopicPolytope(np.array([[0.8, 0.2, 0.0], [0.0, 0.3, 0.7]]))
    data = NormalizedCorpus(rows=poly.vertices.copy(), weights=np.array([2.0, 5.0]))
    assert geometric_objective(data, poly) < 1e-18


def test_geometric_objective_weighting_law():
    # single doc at distance^2 0.04 with weight 5 -> 0.2
    poly = TopicPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    q = np.array([0.4, 0.4, 0.2])  # nearest segment point (0.5, 0.5, 0): distance^2 = 0.06
    data = NormalizedCorpus(rows=q[None, :], weights=np.array([5.0]))
    assert np.isclose(geometric_objective(data, poly), 5.0 * 0.06, atol=1e-12)


def test_geometric_objective_matches_grid_oracle():
    rng = np.random.default_rng(37)
    poly = _random_polytope(rng, 3, 4)
    g = rng.gamma(1.0, size=(6, 4))
    rows = g / g.sum(axis=1, keepdims=True)
    weights = rng.integers(1, 5, size=6).astype(float)
    data = NormalizedCorpus(rows=rows, weights=weights)
    oracle = sum(
        w * grid_project(x, poly.vertices, final_step=1e-4)[2]
        for x, w in zip(rows, weights)
    )
    mine = geometric_objective(data, poly)
    assert mine <= oracle + 1e-12
    assert abs(mine - oracle) <= 1e-4 * max(1.0, oracle)


def test_cluster_objective_additivity():
    # the per-cluster objective tuning minimizes is G on the member sub-corpus
    rng = np.random.default_rng(41)
    poly = _random_polytope(rng, 3, 5)
    g = rng.gamma(1.0, size=(12, 5))
    rows = g / g.sum(axis=1, keepdims=True)
    data = NormalizedCorpus(rows=rows, weights=rng.integers(1, 4, size=12).astype(float))
    assignments = rng.integers(0, 3, size=12)
    total = geometric_objective(data, poly)
    parts = sum(
        geometric_objective(
            NormalizedCorpus(rows=rows[assignments == k], weights=data.weights[assignments == k]),
            poly,
        )
        for k in range(3)
    )
    assert np.isclose(parts, total, rtol=1e-9)


@pytest.mark.parametrize(
    "wrong", [lambda t: np.roll(t, 1), lambda t: np.full_like(t, np.nan)], ids=["rolled", "nan"]
)
def test_uncertified_row_raises(monkeypatch, wrong):
    # a wrong (or NaN) theta for one row must not pass silently
    poly = TopicPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    rows = np.array([[0.6, 0.3, 0.1], [0.1, 0.1, 0.8], [0.2, 0.5, 0.3]])
    solve = geometry._active_set

    def wrong_on_second_row(*args):
        theta = solve(*args)
        theta[1] = wrong(theta[1])
        return theta

    monkeypatch.setattr(geometry, "_active_set", wrong_on_second_row)
    with pytest.raises(ProjectionFailure, match="row 1:"):
        project_rows(rows, poly)
    data = NormalizedCorpus(rows=rows, weights=np.ones(3))
    with pytest.raises(ProjectionFailure, match="row 1:"):
        geometric_objective(data, poly)


def test_off_simplex_weights_are_rejected(monkeypatch):
    # weights (1.5, -0.5, 0) reproduce the off-simplex query exactly, so the
    # gap is zero; only the simplex condition of the certificate rejects them
    poly = TopicPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    rows = np.array([[0.6, 0.3, 0.1], [1.5, -0.5, 0.0], [0.2, 0.5, 0.3]])
    thetas, sq = project_rows(rows, poly)
    assert np.allclose(thetas, [[0.6, 0.3, 0.1], [1.0, 0.0, 0.0], [0.2, 0.5, 0.3]], atol=1e-12)
    assert np.isclose(sq[1], 0.5, atol=1e-12)
    solve = geometry._active_set

    def off_simplex_second_row(*args):
        theta = solve(*args)
        theta[1] = [1.5, -0.5, 0.0]
        return theta

    monkeypatch.setattr(geometry, "_active_set", off_simplex_second_row)
    with pytest.raises(ProjectionFailure, match="row 1: weights leave the simplex"):
        project_rows(rows, poly)
