import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gdmtopics import corpus, geometry
from gdmtopics.corpus import NormalizedCorpus
from gdmtopics.geometry import (
    ProjectionFailure,
    TopicPolytope,
    geometric_objective,
    project_rows,
)
from oracles import grid_project, project_one, two_buffer_certify


def _random_polytope(rng, K, V):
    g = rng.gamma(0.5, size=(K, V))
    return TopicPolytope(g / g.sum(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([[0.5, 0.4], [0.0, 1.0]], "vertex rows must sum to 1"),
        ([[1.5, -0.5], [0.0, 1.0]], r"vertex entries must lie in \[0, 1\]"),
    ],
    ids=["sum", "negative"],
)
def test_polytope_rejects_off_simplex_vertices(vertices, message):
    with pytest.raises(ValueError, match=message):
        TopicPolytope(np.array(vertices))


def test_polytope_copies_the_callers_array():
    beta = np.array([[0.5, 0.5], [0.0, 1.0]])
    poly = TopicPolytope(beta)
    assert beta.flags.writeable and not poly.vertices.flags.writeable
    beta[0, 0] = 0.25
    assert poly.vertices[0, 0] == 0.5


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


def test_project_rows_rejects_bad_input(monkeypatch):
    poly = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="rows must be an M x V matrix"):
        project_rows(np.array([[0.1, 0.2, 0.7]]), poly)
    with pytest.raises(ValueError, match="rows must be an M x V matrix"):
        project_rows(np.array([0.5, 0.5]), poly)
    # a non-finite row is rejected before any arithmetic, without a warning,
    # also when it lies in the last of several row blocks
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 8 * 2 * 5)  # 5 rows of 2
    for bad in (np.nan, np.inf):
        rows = np.array([[0.3, 0.7], [bad, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            project_rows(rows, poly)
        rows = np.full((13, 2), 0.5)
        rows[11, 0] = bad
        with pytest.raises(ValueError, match="row 11 is not finite"):
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


def test_singular_support_solve_falls_back_to_pinv(monkeypatch):
    # the pseudo-inverse route of the active set gives the same certified
    # weights as the batched solve, on interior rows, rows off the hull and
    # rows on a duplicated vertex
    rng = np.random.default_rng(5)
    poly = _random_polytope(rng, 6, 40)
    B = np.vstack([poly.vertices, poly.vertices[:1]])
    poly = TopicPolytope(B)
    g = rng.gamma(0.4, size=(60, 40))
    rows = np.vstack([rng.dirichlet(np.ones(7), size=30) @ B, g / g.sum(axis=1, keepdims=True)])
    rows[0] = B[0]
    thetas, sq = project_rows(rows, poly)
    calls = []

    def singular(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    pinv_thetas, pinv_sq = project_rows(rows, poly)
    assert calls
    assert np.abs(pinv_thetas - thetas).max() <= 1e-12
    assert np.abs(pinv_sq - sq).max() <= 1e-12


def _spy_solve(monkeypatch):
    # records the systems of the active set's batched solves; a zero in a
    # right-hand side marks a round of mixed support sizes, padded with identity
    solve, seen = np.linalg.solve, []

    def spy(A, b):
        seen.append((A.copy(), b.copy()))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return seen


def _own_blocks(A, b):
    # each row's own system, without its padded slots
    return {a[: int(r.sum()), : int(r.sum())].tobytes() for a, r in zip(A, b)}


def test_padded_slots_leave_theta_alone(monkeypatch):
    # rows on faces that all hold the last vertex K - 1 settle at different
    # support sizes, so narrower rows holding K - 1 are padded in some
    # rounds; each keeps its own weights, and every weight off its face is 0.0
    rng = np.random.default_rng(0)
    poly = _random_polytope(rng, 8, 12)
    T = np.zeros((60, 8))
    for t in T:
        face = np.append(rng.choice(7, rng.integers(0, 8), replace=False), 7)
        t[face] = rng.dirichlet(np.ones(face.size))
    X = T @ poly.vertices
    seen = _spy_solve(monkeypatch)
    thetas, sq = project_rows(X, poly)
    assert any((b == 0.0).any() for _, b in seen)
    assert np.abs(thetas - T).max() <= 1e-12
    assert (thetas[T == 0.0] == 0.0).all()
    assert sq.max() <= 1e-15


@pytest.mark.parametrize("K, V, seed", [(30, 40, s) for s in range(6)] + [(20, 30, 0)])
def test_stalled_rows_are_force_dropped_in_padded_rounds(monkeypatch, K, V, seed):
    # with _DROP_EPS at 0, a vertex the line step should zero can keep a
    # rounding residue above 0, which stalls its row (which rows stall depends
    # on the rounding, hence several cases); the row then drops its smallest
    # weight at once, counted against its own support size in padded rounds,
    # so no row solves the same support in two rounds running, and the
    # projection is the one of the default tolerance
    rng = np.random.default_rng(seed)
    poly = _random_polytope(rng, K, V)
    X = rng.dirichlet(np.full(V, 0.5), size=400)
    thetas, sq = project_rows(X, poly)
    monkeypatch.setattr(geometry, "_DROP_EPS", 0.0)
    seen = _spy_solve(monkeypatch)
    stalled_thetas, stalled_sq = project_rows(X, poly)
    assert any((b == 0.0).any() for _, b in seen)
    for before, after in zip(seen, seen[1:]):
        assert not _own_blocks(*before) & _own_blocks(*after)
    assert np.abs(stalled_sq - sq).max() <= 1e-12
    assert np.abs(stalled_thetas - thetas).max() <= 1e-9


def _check_certificate(K, V, seed, cross_terms, stored=1.0):
    # the Gram-form certificate gives the pass flags of separate point and
    # difference arrays in word space, and their squared distances and gaps
    # to rounding, on solved rows (which pass), random weights (most of
    # which fail) and weights off the simplex; rows keep about ``stored``
    # of their entries, and at least one
    M = 83
    rng = np.random.default_rng(seed)
    poly = _random_polytope(rng, K, V)
    B = poly.vertices
    g = rng.gamma(0.3, size=(M, V))
    if stored < 1.0:
        keep = rng.random((M, V)) < stored
        keep[np.arange(M), rng.integers(0, V, size=M)] = True
        g *= keep
    X = g / g.sum(axis=1, keepdims=True)
    thetas = rng.dirichlet(np.full(K, 0.5), size=M)
    solved = rng.random(M) < 0.5
    solved[-1] = False
    thetas[solved] = project_rows(X[solved], poly)[0]  # these pass, most others fail
    thetas[-1] *= 1.0 + 1e-6  # off the simplex
    scales = np.maximum(1.0, ((X[:, None, :] - B[None, :, :]) ** 2).sum(axis=2).max(axis=1))
    sq, gaps, ok = geometry._certify(B @ B.T, *cross_terms(X, B), thetas, scales)
    sq_ref, gaps_ref = two_buffer_certify(X, B, thetas)
    ok_ref = (
        (gaps_ref <= 10.0 * geometry._TOL * scales)
        & (thetas.min(axis=1) >= -1e-12)
        & (np.abs(thetas.sum(axis=1) - 1.0) <= 1e-9)
    )
    assert np.array_equal(ok, ok_ref)
    assert ok[solved].all() and not ok[-1]
    assert (np.abs(sq - sq_ref) <= 1e-14 * scales).all()
    assert (np.abs(gaps - gaps_ref) <= 1e-14 * scales).all()


@pytest.mark.parametrize("K, V", [(1, 3), (3, 100), (12, 1001), (40, 301)])
def test_certificate_matches_two_buffer_form(K, V):
    # cross terms and squared norms from the whole dense rows at once
    _check_certificate(K, V, K + V, lambda X, B: (X @ B.T, np.einsum("ij,ij->i", X, X)))


@pytest.mark.parametrize("K, V, per_block", [(1, 50, 7), (6, 501, 1), (6, 501, 10), (40, 301, 32)])
def test_blocked_certificate_matches_two_buffer_form(monkeypatch, K, V, per_block):
    # with a block budget of ``per_block`` rows, M = 83 spans several blocks
    # of the cross-terms pass and the last one is ragged
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 8 * V * per_block)
    assert 83 % per_block != 0 or per_block == 1
    _check_certificate(
        K, V, K + V + per_block, lambda X, B: geometry._cross_terms(sp.csr_matrix(X), B)
    )


@pytest.mark.parametrize("K, V", [(3, 100), (12, 1001), (40, 301)])
def test_sparse_certificate_matches_two_buffer_form(monkeypatch, K, V):
    # rows storing about 4 % of their entries take the cross terms from one
    # CSR product and their squared norms from the stored entries
    monkeypatch.setattr(geometry, "_row_blocks", None)
    _check_certificate(
        K, V, K + V + 1, lambda X, B: geometry._cross_terms(sp.csr_matrix(X), B), stored=0.04
    )


def test_cross_terms_take_dense_blocks_above_the_stored_share(monkeypatch):
    # rows storing about 30 % of their entries give the cross terms and
    # squared norms of the dense-block pass bit for bit; with the share
    # moved above theirs, those of the CSR product
    rng = np.random.default_rng(3)
    B = _random_polytope(rng, 7, 300).vertices
    g = rng.gamma(0.3, size=(90, 300)) * (rng.random((90, 300)) < 0.3)
    g[:, 0] += 1.0
    X = sp.csr_matrix(g / g.sum(axis=1, keepdims=True))
    share = X.nnz / (90 * 300)
    assert 0.25 < share < 0.35
    blocks = [(x @ B.T, np.einsum("ij,ij->i", x, x)) for _, x in corpus._row_blocks(X)]
    for got, parts in zip(geometry._cross_terms(X, B), zip(*blocks)):
        assert got.tobytes() == np.concatenate(parts).tobytes()
    monkeypatch.setattr(geometry, "_SPARSE_SHARE", 1.01 * share)
    BX, xx = geometry._cross_terms(X, B)
    assert BX.tobytes() == (X @ B.T).tobytes()
    assert xx.tobytes() == corpus._sq_norms(X).tobytes()


def _face_rows(rng, B, M, widest=40):
    """M rows, each on a random face of 1 to ``widest`` vertices of B and
    pushed off the hull half of the time."""
    K, V = B.shape
    X = np.empty((M, V))
    for m in range(M):
        face = rng.choice(K, rng.integers(1, widest + 1), replace=False)
        X[m] = rng.dirichlet(np.ones(face.size)) @ B[face]
        if rng.random() < 0.5:
            X[m] += rng.normal(scale=0.02, size=V)
    return X


def _spy_on_csr_weights(monkeypatch, K):
    """Patch scipy's CSR constructor to count the CSR matrices of K columns
    (weights; the rows have V != K columns) that the projection builds."""
    built = []
    csr = sp.csr_matrix

    def spy(arg, *args, **kwargs):
        shape = kwargs.get("shape") or np.shape(arg)
        built.append(shape[1] == K)
        return csr(arg, *args, **kwargs)

    monkeypatch.setattr(geometry.sp, "csr_matrix", spy)
    return built


def test_sparse_and_dense_weight_products_give_the_same_certified_weights(monkeypatch):
    # with the stored share at 0 every major step's theta . BBt is dense
    # BLAS, at 1 every one is a CSR product over the supports; the
    # certificate's product is dense at both
    rng = np.random.default_rng(30)
    K, V, M = 150, 170, 440
    poly = _random_polytope(rng, K, V)
    X = _face_rows(rng, poly.vertices, M)
    B = poly.vertices
    BX, xx = X @ B.T, np.einsum("ij,ij->i", X, X)
    scales = np.maximum(1.0, (np.diag(B @ B.T) - 2.0 * BX + xx[:, None]).max(axis=1))
    built, results = _spy_on_csr_weights(monkeypatch, K), []
    for share in (0.0, 1.0):
        monkeypatch.setattr(geometry, "_SPARSE_THETA", share)
        built.clear()
        thetas, sq = project_rows(X, poly)
        assert any(built) == (share == 1.0)
        built.clear()
        _, gaps, ok = geometry._certify(B @ B.T, BX, xx, thetas, scales)
        assert ok.all() and (gaps <= 10.0 * geometry._TOL * scales).all()
        assert built == []
        results.append((thetas, sq))
    (dense, dense_sq), (stored, stored_sq) = results
    assert np.abs(dense - stored).max() <= 1e-12
    assert np.abs(dense_sq - stored_sq).max() <= 1e-12


@pytest.mark.parametrize("K", [2, 10, 20])
def test_small_k_never_builds_csr_weights(monkeypatch, K):
    # every row holds a weight, so at K <= 1 / _SPARSE_THETA the stored
    # share is never below it: even rows at single vertices stay dense
    rng = np.random.default_rng(K)
    poly = _random_polytope(rng, K, 60)
    X = np.vstack([poly.vertices, _face_rows(rng, poly.vertices, 200, widest=min(K, 3))])
    built = _spy_on_csr_weights(monkeypatch, K)
    thetas, _ = project_rows(X, poly)
    assert built and not any(built)  # only the rows were made CSR
    assert np.allclose(thetas[:K], np.eye(K), atol=1e-12)


def _nearest_start(d2):
    thetas = np.zeros(d2.shape)
    thetas[np.arange(d2.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return thetas


def _grouped_case(K, V, G, per_group, seed):
    # rows in G groups; group g's polytope is the base one with vertex
    # moved[g] replaced by candidates[g] (several groups may move one vertex)
    rng = np.random.default_rng(seed)
    B = _random_polytope(rng, K, V).vertices
    moved = rng.integers(0, K, size=G)
    candidates = _random_polytope(rng, G, V).vertices.copy()
    near = rng.random(G) < 0.5  # half the candidates close to the vertex they replace
    candidates[near] = 0.8 * B[moved[near]] + 0.2 * candidates[near]
    X = rng.dirichlet(np.full(V, 0.3), size=G * per_group)
    group = np.repeat(np.arange(G), per_group)
    return B, moved, candidates, sp.csr_matrix(X), group


def _grouped_inputs(B, moved, candidates, X, group):
    # the grouped solve's inputs: the base Gram matrix, each row's cross
    # terms with its own group's vertices, each group's Gram row U, and the
    # scales and nearest-vertex start of each row's own polytope
    rows, k = np.arange(X.shape[0]), moved[group]
    BBt = B @ B.T
    BX = X @ B.T
    BX[rows, k] = (X @ candidates.T)[rows, group]
    U = candidates @ B.T
    U[np.arange(moved.size), moved] = np.einsum("ij,ij->i", candidates, candidates)
    xx = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    d2 = np.diag(BBt) - 2.0 * BX + xx[:, None]
    d2[rows, k] = U[group, k] - 2.0 * BX[rows, k] + xx
    return BBt, BX, xx, _nearest_start(d2), np.maximum(1.0, d2.max(axis=1)), (group, moved, U)


@pytest.mark.parametrize(
    "K, V, G, per_group, seed",
    [(3, 20, 1, 30, 0), (6, 40, 4, 20, 1), (6, 40, 12, 5, 2), (20, 60, 8, 10, 3), (30, 40, 40, 4, 4)],
)
def test_grouped_solve_matches_a_fresh_solve_of_each_group(K, V, G, per_group, seed):
    # every group's weights and squared distances are those of a plain
    # solve on project_rows' inputs formed afresh for its own polytope
    B, moved, candidates, X, group = _grouped_case(K, V, G, per_group, seed)
    thetas, sq = geometry._solve(*_grouped_inputs(B, moved, candidates, X, group))
    for g in range(G):
        mine = group == g
        cand = B.copy()
        cand[moved[g]] = candidates[g]
        BBt, BX, xx, d2 = geometry._inputs(X[mine], cand)
        ref, ref_sq = geometry._solve(BBt, BX, xx, _nearest_start(d2), np.maximum(1.0, d2.max(axis=1)))
        assert np.abs(thetas[mine] - ref).max() <= 1e-9
        assert sq[mine] == pytest.approx(ref_sq, rel=1e-12, abs=0.0)


def test_grouped_solve_holds_no_gram_matrix_per_group():
    # at K = 100 and G = 100 groups the solve peaks below one G x K x K
    # stack of float64 Gram matrices, and still matches each fresh solve
    K, G = 100, 100
    B, moved, candidates, X, group = _grouped_case(K, 150, G, 3, 5)
    inputs = _grouped_inputs(B, moved, candidates, X, group)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        thetas, sq = geometry._solve(*inputs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < G * K * K * 8
    for g in range(0, G, 9):
        mine = group == g
        cand = B.copy()
        cand[moved[g]] = candidates[g]
        BBt, BX, xx, d2 = geometry._inputs(X[mine], cand)
        ref, ref_sq = geometry._solve(BBt, BX, xx, _nearest_start(d2), np.maximum(1.0, d2.max(axis=1)))
        assert np.abs(thetas[mine] - ref).max() <= 1e-9
        assert sq[mine] == pytest.approx(ref_sq, rel=1e-12, abs=0.0)


def test_padded_systems_are_solved_in_batches_of_the_same_weights(monkeypatch):
    # rows started on faces of 1 to 24 vertices: padding takes the first
    # minor round's systems to f >= 2 times their own values, so the round
    # solves them in floor(f) batches, each holding less than twice the
    # unpadded values; LU factors each system alone, so the weights are
    # those of one batch of all the round's rows
    rng = np.random.default_rng(7)
    K, V, M = 40, 60, 205
    B = _random_polytope(rng, K, V).vertices
    X = sp.csr_matrix(rng.dirichlet(np.full(V, 0.3), size=M))
    BBt, BX, xx, d2 = geometry._inputs(X, B)
    start = np.zeros((M, K))
    for row, width in zip(start, rng.integers(1, 25, size=M)):
        row[rng.choice(K, width, replace=False)] = rng.dirichlet(np.ones(width))
    n = np.count_nonzero(start, axis=1)
    minor, size = np.flatnonzero(n > 1), n[n > 1]
    w, own = size.max(), int(size @ size)
    count = minor.size * w * w // own
    real, calls = geometry._affine_minimizers, []

    def spy(BBt, BX, xx, minor, Sm, cells, slots, pad, groups):
        lam = real(BBt, BX, xx, minor, Sm, cells, slots, pad, groups)
        calls.append((minor.copy(), Sm.copy(), cells.copy(), slots.copy(), pad.copy(), lam))
        return lam

    monkeypatch.setattr(geometry, "_affine_minimizers", spy)
    geometry._solve(BBt, BX, xx, start, np.maximum(1.0, d2.max(axis=1)))
    first = calls[:count]  # the first minor round's batches
    assert count >= 2
    assert np.array_equal(np.concatenate([b[0] for b in first]), minor)
    assert [b[0].size for b in first] == [100, 99]
    assert all(b[0].size * w * w < 2 * own for b in first)
    Sm, cells, slots, pad = (np.vstack([b[i] for b in first]) for i in (1, 2, 3, 4))
    assert np.array_equal(np.vstack([b[5] for b in first]), real(BBt, BX, xx, minor, Sm, cells, slots, pad, None))
