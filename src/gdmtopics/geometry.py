"""Convex-polytope primitives: projection and the geometric objective.

Projection onto the convex hull of the topic rows uses a min-norm-point
active-set scheme (Wolfe-style) run in the K x K Gram geometry, so per-point
cost is independent of the vocabulary size once the Gram matrix is formed.
Optimality is certified by the variational inequality
``(query - point) . (vertex_k - point) <= tol * scale`` for every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import NormalizedCorpus

_DROP_EPS = 1e-12


class ProjectionFailure(RuntimeError):
    """Raised when the active-set iteration hits its cap before certifying."""


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

    ``theta`` holds the convex-combination weights over vertices,
    ``certificate_gap`` the worst violation of the optimality inequality and
    ``theta_unique`` whether the active vertices are affinely independent.
    """

    point: np.ndarray
    theta: np.ndarray
    sq_distance: float
    certificate_gap: float
    theta_unique: bool


def _min_norm_weights(G, tol, scale, max_iter):
    """Weights of the min-norm point of the hull of points with Gram matrix G."""
    K = G.shape[0]
    S = [int(np.argmin(np.diag(G)))]
    lam = np.array([1.0])
    for _ in range(max_iter):
        g = lam @ G[S]            # x . p_j for every candidate j
        xx = float(lam @ G[np.ix_(S, S)] @ lam)
        j = int(np.argmin(g))
        if g[j] >= xx - tol * scale or j in S:
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


def _theta_unique(vertices, theta, atol=1e-9):
    active = np.flatnonzero(theta > atol)
    if active.size <= 1:
        return True
    diffs = vertices[active[1:]] - vertices[active[0]]
    rank = np.linalg.matrix_rank(diffs, tol=1e-9)
    return rank == active.size - 1


def project_point(query, polytope: TopicPolytope, tol: float = 1e-10) -> ProjectionResult:
    """Euclidean projection of ``query`` onto the convex hull of the topic rows."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (polytope.V,):
        raise ValueError(f"query must have length {polytope.V}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite entries")
    if not tol > 0:
        raise ValueError("tol must be positive")
    P = polytope.vertices - q
    G = P @ P.T
    scale = max(1.0, float(np.diag(G).max()))
    theta = _min_norm_weights(G, tol, scale, max_iter=100 * polytope.K)
    point = theta @ polytope.vertices
    r = q - point
    gaps = (polytope.vertices - point) @ r
    cert = float(gaps.max())
    if cert > 10.0 * tol * scale:
        raise ProjectionFailure(f"projection certificate gap {cert:.3e} exceeds tolerance")
    return ProjectionResult(
        point=point,
        theta=theta,
        sq_distance=float(r @ r),
        certificate_gap=cert,
        theta_unique=_theta_unique(polytope.vertices, theta),
    )


def project_rows(rows, polytope: TopicPolytope, tol: float = 1e-10):
    """Project many rows at once; returns (theta matrix, squared distances).

    Shares the vertex Gram matrix across queries, so each projection costs
    O(K V) to form the cross terms plus the small active-set solve.
    """
    X = np.asarray(rows, dtype=np.float64)
    B = polytope.vertices
    BBt = B @ B.T
    BX = X @ B.T                      # (M, K) cross terms
    xx = np.einsum("ij,ij->i", X, X)
    thetas = np.empty((X.shape[0], polytope.K))
    for m in range(X.shape[0]):
        G = BBt - BX[m][:, None] - BX[m][None, :] + xx[m]
        scale = max(1.0, float(np.diag(G).max()))
        thetas[m] = _min_norm_weights(G, tol, scale, max_iter=100 * polytope.K)
    points = thetas @ B
    diff = X - points
    sq = np.einsum("ij,ij->i", diff, diff)
    return thetas, sq


def geometric_objective(data: NormalizedCorpus, polytope: TopicPolytope) -> float:
    """Weighted sum over documents of squared distance to the polytope."""
    if data.V != polytope.V:
        raise ValueError("vocabulary sizes disagree")
    _, sq = project_rows(data.rows, polytope)
    return float(np.sum(data.weights * sq))
