"""Convex-polytope primitives: projection and the geometric objective.

Projection onto the convex hull of the topic rows uses a min-norm-point
active-set scheme (Wolfe-style) run in the K x K Gram geometry, so per-point
cost is independent of the vocabulary size once the Gram matrix is formed.
Every projected row, whether from ``project_point`` or ``project_rows``, is
certified in word space by the variational inequality
``(query - point) . (vertex_k - point) <= 10 * _TOL * scale`` for every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import NormalizedCorpus

_DROP_EPS = 1e-12
_TOL = 1e-10  # optimality tolerance of the min-norm-point solve


class ProjectionFailure(RuntimeError):
    """Raised when a projected row fails its optimality certificate."""


@dataclass(frozen=True)
class TopicPolytope:
    """K x V matrix whose rows are topic distributions on the vocabulary simplex."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a K x V matrix with K >= 1")
        if not np.allclose(v.sum(axis=1), 1.0, rtol=0.0, atol=1e-10):
            raise ValueError("vertex rows must sum to 1")
        if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
            raise ValueError("vertex entries must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def K(self) -> int:
        return self.vertices.shape[0]

    @property
    def V(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class ProjectionResult:
    """Euclidean projection of a query onto the polytope.

    ``theta`` holds the convex-combination weights over vertices and
    ``certificate_gap`` the worst violation of the optimality inequality.
    """

    point: np.ndarray
    theta: np.ndarray
    sq_distance: float
    certificate_gap: float


def _min_norm_weights(G, scale, max_iter):
    """Weights of the min-norm point of the hull of points with Gram matrix G."""
    K = G.shape[0]
    S = [int(np.argmin(np.diag(G)))]
    lam = np.array([1.0])
    for _ in range(max_iter):
        g = lam @ G[S]            # x . p_j for every candidate j
        xx = float(lam @ G[np.ix_(S, S)] @ lam)
        j = int(np.argmin(g))
        if g[j] >= xx - _TOL * scale or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        # minor cycle: move to the affine minimizer, dropping negative weights
        while True:
            n = len(S)
            Gs = G[np.ix_(S, S)]
            A = np.ones((n, n)) + Gs
            try:
                alpha = np.linalg.solve(A, np.ones(n))
            except np.linalg.LinAlgError:
                alpha = np.linalg.lstsq(A, np.ones(n), rcond=None)[0]
            s = alpha.sum()
            if s == 0:
                alpha = np.full(n, 1.0 / n)
            else:
                alpha = alpha / s
            if alpha.min() > _DROP_EPS:
                lam = alpha
                break
            neg = alpha <= _DROP_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = lam[neg] / (lam[neg] - alpha[neg])
            steps = steps[np.isfinite(steps)]
            t = float(min(steps.min(initial=1.0), 1.0)) if steps.size else 1.0
            lam = lam + t * (alpha - lam)
            lam[lam < _DROP_EPS] = 0.0
            keep = lam > 0
            if keep.all():  # numerical stall: force-drop the smallest weight
                keep[int(np.argmin(lam))] = False
            S = [S[i] for i in range(n) if keep[i]]
            lam = lam[keep]
            lam = lam / lam.sum()
            if len(S) == 1:
                break
    theta = np.zeros(K)
    theta[S] = lam
    return theta


def _project(X, B):
    """Project the rows of X onto conv(rows of B) and certify every row.

    Returns (thetas, points, squared distances, certificate gaps). Raises
    ProjectionFailure naming the first row whose gap is not within
    ``10 * _TOL * scale``, with scale = max(1, max_k ||b_k - x||^2).
    """
    K = B.shape[0]
    BBt = B @ B.T
    BX = X @ B.T                      # (M, K) cross terms
    xx = np.einsum("ij,ij->i", X, X)
    thetas = np.empty((X.shape[0], K))
    scales = np.empty(X.shape[0])
    for m in range(X.shape[0]):
        G = BBt - BX[m][:, None] - BX[m][None, :] + xx[m]
        scales[m] = scale = max(1.0, float(np.diag(G).max()))
        thetas[m] = _min_norm_weights(G, scale, max_iter=100 * K)
    points = thetas @ B
    diff = X - points
    sq = np.einsum("ij,ij->i", diff, diff)
    # word-space certificate: max_k (b_k - p) . (x - p)
    gaps = (diff @ B.T).max(axis=1) - np.einsum("ij,ij->i", points, diff)
    bound = 10.0 * _TOL * scales
    bad = np.flatnonzero(~(gaps <= bound))   # a NaN gap fails too
    if bad.size:
        m = int(bad[0])
        raise ProjectionFailure(
            f"row {m}: projection certificate gap {gaps[m]:.3e} exceeds tolerance {bound[m]:.3e}"
        )
    return thetas, points, sq, gaps


def project_point(query, polytope: TopicPolytope) -> ProjectionResult:
    """Euclidean projection of ``query`` onto the convex hull of the topic rows."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (polytope.V,):
        raise ValueError(f"query must have length {polytope.V}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite entries")
    thetas, points, sq, gaps = _project(q[None, :], polytope.vertices)
    return ProjectionResult(
        point=points[0], theta=thetas[0], sq_distance=float(sq[0]), certificate_gap=float(gaps[0])
    )


def project_rows(rows, polytope: TopicPolytope):
    """Project many rows at once; returns (theta matrix, squared distances).

    Shares the vertex Gram matrix across queries, so each projection costs
    O(K V) to form the cross terms plus the small active-set solve. Every
    row is certified; a failing row raises ProjectionFailure.
    """
    thetas, _, sq, _ = _project(np.asarray(rows, dtype=np.float64), polytope.vertices)
    return thetas, sq


def geometric_objective(data: NormalizedCorpus, polytope: TopicPolytope) -> float:
    """Weighted sum over documents of squared distance to the polytope."""
    if data.V != polytope.V:
        raise ValueError("vocabulary sizes disagree")
    _, sq = project_rows(data.rows, polytope)
    return float(np.sum(data.weights * sq))
