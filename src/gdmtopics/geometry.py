"""Convex-polytope primitives: projection and the geometric objective.

``project_rows`` is the one projection onto the convex hull of the topic
rows; the geometric objective and held-out inference both call it. It works
in the K x K Gram geometry, so per-row cost is independent of the vocabulary
size once the cross terms are formed, and runs in two steps over all rows at
once:

1. solve: Wolfe's min-norm-point active set (Wolfe, "Finding the nearest
   point in a polytope", Math. Programming 11, 1976), every row started at
   its nearest vertex and all rows stepped in lockstep, their support solves
   batched by support size. It is exact at every K.
2. certificate: every row is checked in word space by the variational
   inequality ``(query - point) . (vertex_k - point) <= 10 * _TOL * scale``
   for every vertex, and its weights must lie on the simplex; the first row
   that fails raises ProjectionFailure.
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


def _active_set(BBt, BX, xx, nearest, scales):
    """Min-norm-point weights of every row, Wolfe's active set run in lockstep.

    Row m solves ``min_theta ||theta . B - x_m||^2`` over the simplex from its
    nearest vertex. Major step: with r = theta . BBt - BX_m, the row retires
    when ``min_j r_j >= theta . r - _TOL * scale`` or the argmin vertex is
    already in its support, and otherwise adds that vertex. Minor step: the
    affine minimizer on the support, ``(1 + G_S) a = 1`` normalized, with G
    the row's Gram matrix of the vertices shifted by x_m; where a weight
    falls to ``_DROP_EPS`` or below, Wolfe's line step toward it, dropping the
    zeroed vertices. Rows are batched by support size. A row still running
    after 100 K major steps keeps its current weights for the certificate.
    """
    M, K = BX.shape
    theta = np.zeros((M, K))
    theta[np.arange(M), nearest] = 1.0
    support = theta > 0.0
    active = np.arange(M)
    for _ in range(100 * K):
        # major step: the vertex of steepest descent joins the support
        r = theta[active] @ BBt
        r -= BX[active]
        j = np.argmin(r, axis=1)
        bound = np.einsum("ij,ij->i", theta[active], r) - _TOL * scales[active]
        going = (r[np.arange(active.size), j] < bound) & ~support[active, j]
        active = active[going]
        if active.size == 0:
            break
        support[active, j[going]] = True
        minor = active
        while minor.size:
            sizes = support[minor].sum(axis=1)
            unsettled = []
            for n in np.unique(sizes):
                rows = minor[sizes == n]
                S = np.nonzero(support[rows])[1].reshape(rows.size, n)
                c = BX[rows[:, None], S]
                A = 1.0 + BBt[S[:, :, None], S[:, None, :]] - c[:, :, None] - c[:, None, :]
                A += xx[rows, None, None]
                ones = np.ones((rows.size, n, 1))
                try:
                    alpha = np.linalg.solve(A, ones)[:, :, 0]
                except np.linalg.LinAlgError:
                    alpha = (np.linalg.pinv(A) @ ones)[:, :, 0]
                total = alpha.sum(axis=1, keepdims=True)
                alpha = np.divide(alpha, total, out=np.full_like(alpha, 1.0 / n), where=total != 0.0)
                # minor step: to the affine minimizer, or along the line toward it
                # as far as the weights stay nonnegative
                lam = theta[rows[:, None], S]
                drop = alpha <= _DROP_EPS
                with np.errstate(divide="ignore", invalid="ignore"):
                    steps = lam / (lam - alpha)
                t = np.where(drop & np.isfinite(steps), steps, 1.0).min(axis=1, initial=1.0)
                moved = drop.any(axis=1)
                lam = np.where(moved[:, None], lam + t[:, None] * (alpha - lam), alpha)
                lam[lam < _DROP_EPS] = 0.0
                keep = lam > 0.0
                stalled = moved & keep.all(axis=1)  # force-drop the smallest weight
                keep[stalled, np.argmin(lam[stalled], axis=1)] = False
                lam[~keep] = 0.0
                theta[rows[:, None], S] = lam / lam.sum(axis=1, keepdims=True)
                support[rows[:, None], S] = keep
                unsettled.append(rows[moved & (keep.sum(axis=1) > 1)])
            minor = np.concatenate(unsettled)
    return theta


def _certify(X, B, thetas, scales):
    """Word-space certificate of every row: (squared distances, gaps, pass flags).

    A row passes when ``max_k (b_k - p) . (x - p) <= 10 * _TOL * scale`` for
    p = theta . B, and theta lies on the simplex: no entry below -1e-12 and
    a sum within 1e-9 of 1. A NaN row fails.
    """
    points = thetas @ B
    diff = X - points
    sq = np.einsum("ij,ij->i", diff, diff)
    gaps = (diff @ B.T).max(axis=1) - np.einsum("ij,ij->i", points, diff)
    ok = (
        (gaps <= 10.0 * _TOL * scales)
        & (thetas.min(axis=1) >= -1e-12)
        & (np.abs(thetas.sum(axis=1) - 1.0) <= 1e-9)
    )
    return sq, gaps, ok


def project_rows(rows, polytope: TopicPolytope):
    """Project the rows onto the convex hull of the topic rows, certifying every row.

    Returns (theta matrix, squared distances). All rows are solved together
    by the min-norm-point active set in the K x K Gram geometry, and the
    word-space certificate runs once over all of them. Raises ValueError
    unless ``rows`` is an M x V matrix of finite numbers, and
    ProjectionFailure naming the first row that fails its certificate, with
    scale = max(1, max_k ||b_k - x||^2) in the bound.
    """
    X = np.asarray(rows, dtype=np.float64)
    B = polytope.vertices
    if X.ndim != 2 or X.shape[1] != polytope.V:
        raise ValueError(f"rows must be an M x V matrix with V = {polytope.V}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} is not finite")
    BBt = B @ B.T
    BX = X @ B.T                      # (M, K) cross terms
    xx = np.einsum("ij,ij->i", X, X)
    d2 = np.diag(BBt) - 2.0 * BX + xx[:, None]
    scales = np.maximum(1.0, d2.max(axis=1))
    nearest = np.argmin(d2, axis=1)
    del d2  # freed before theta is allocated, to keep the peak down at large K
    thetas = _active_set(BBt, BX, xx, nearest, scales)
    sq, gaps, ok = _certify(X, B, thetas, scales)
    if not ok.all():
        m = int(np.argmin(ok))
        bound = 10.0 * _TOL * scales[m]
        if not gaps[m] <= bound:
            raise ProjectionFailure(
                f"row {m}: projection certificate gap {gaps[m]:.3e} exceeds tolerance {bound:.3e}"
            )
        lo, total = thetas[m].min(), thetas[m].sum()
        raise ProjectionFailure(f"row {m}: weights leave the simplex (min {lo:.3e}, sum {total:.17g})")
    return thetas, sq


def geometric_objective(data: NormalizedCorpus, polytope: TopicPolytope) -> float:
    """Weighted sum over documents of squared distance to the polytope."""
    if data.V != polytope.V:
        raise ValueError("vocabulary sizes disagree")
    _, sq = project_rows(data.rows, polytope)
    return float(np.sum(data.weights * sq))
