"""Convex-polytope primitives: projection and the geometric objective.

``project_rows`` is the one projection onto the convex hull of the topic
rows; the geometric objective and held-out inference both call it. It works
in the K x K Gram geometry, so per-row cost is independent of the vocabulary
size once the cross terms are formed, and runs in three steps over all rows
at once:

1. candidate: every row gets weights from one vectorized solve. Up to
   ``_FISTA_MAX_K`` vertices that is ``_FISTA_STEPS`` steps of accelerated
   projected gradient (FISTA, Beck & Teboulle 2009) with the sort-based
   simplex projection, then an exact solve on each row's support; with more
   vertices it is the nearest vertex.
2. certificate: every row is checked in word space by the variational
   inequality ``(query - point) . (vertex_k - point) <= 10 * _TOL * scale``
   for every vertex, and its weights must lie on the simplex.
3. repair: only the rows the certificate rejects are solved again by a
   min-norm-point active set (Wolfe-style) and certified again; a row that
   still fails raises ProjectionFailure.

The two constants come from timing the projections of the benchmark
workloads (perfbench): the gradient candidate beat the nearest vertex at
K = 29 and 45 and lost at 72 and above, and 25 steps sent no row of the
K = 5 tuning calls to the repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import NormalizedCorpus

_DROP_EPS = 1e-12
_TOL = 1e-10  # optimality tolerance of the min-norm-point solve
# candidate solver; the module docstring gives the measurements behind them
_FISTA_MAX_K = 48       # above this K the candidate is the nearest vertex
_FISTA_STEPS = 25
_KKT_MAX_COND = 1e12    # a support solve past this condition is left to the repair


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


def _simplex_rows(Y):
    """Euclidean projection of every row of Y onto the probability simplex.

    The sort-based rule of Duchi, Shalev-Shwartz, Singer & Chandra (ICML 2008).
    """
    U = np.sort(Y, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    css -= 1.0
    rho = (U * np.arange(1, Y.shape[1] + 1) > css).sum(axis=1)
    tau = css[np.arange(Y.shape[0]), rho - 1] / rho
    return np.maximum(Y - tau[:, None], 0.0)


def _candidate(BBt, BX, nearest):
    """Candidate weights for every row; a row left without one is NaN.

    Up to ``_FISTA_MAX_K`` vertices: accelerated projected gradient (FISTA)
    on the Gram QP ``theta' BBt theta - 2 theta' BX_m`` over the simplex,
    started at the nearest vertex, then an exact equality-constrained solve
    on each row's support. A support whose KKT matrix is near-singular
    (duplicate or affinely dependent vertices), or whose solve puts a
    weight at or below zero, gives NaN. With more vertices the candidate is
    the nearest vertex.
    """
    M, K = BX.shape
    theta = np.zeros((M, K))
    theta[np.arange(M), nearest] = 1.0
    if K > _FISTA_MAX_K:
        return theta
    # on the simplex the objective only sees the centered vertices: their Gram
    # matrix Qc and the centered cross terms C give the same minimizer, and a
    # gradient orthogonal to the all-ones direction
    P = np.eye(K) - 1.0 / K
    Qc = P @ BBt @ P
    C = (BX - BBt.mean(axis=1)) @ P
    lip = float(np.linalg.eigvalsh(Qc)[-1])
    if lip > 0.0:
        y, t = theta, 1.0
        for _ in range(_FISTA_STEPS):
            nxt = _simplex_rows(y - (y @ Qc - C) / lip)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = nxt + ((t - 1.0) / t_next) * (nxt - theta)
            theta, t = nxt, t_next
    # polish: the exact minimizer on each row's support, rows batched by
    # support size and the KKT conditioning checked once per support pattern
    support = theta > 0.0             # a NaN row has no support and stays NaN
    sizes = support.sum(axis=1)
    bits = 1 << np.arange(K, dtype=np.int64)  # K <= _FISTA_MAX_K < 63: one int64 per support
    for n in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == n)
        S = np.nonzero(support[rows])[1].reshape(rows.size, n)
        _, first, which = np.unique(support[rows] @ bits, return_index=True, return_inverse=True)
        A = np.zeros((first.size, n + 1, n + 1))
        A[:, :n, :n] = Qc[S[first, :, None], S[first, None, :]]
        s = np.trace(A, axis1=1, axis2=2) / n
        s[s == 0.0] = 1.0             # scales the constraint row to the Gram block
        A[:, :n, n] = A[:, n, :n] = s[:, None]
        solvable = (np.linalg.cond(A) <= _KKT_MAX_COND)[which]
        theta[rows] = np.nan
        rows, S, which = rows[solvable], S[solvable], which[solvable]
        rhs = np.empty((rows.size, n + 1, 1))
        rhs[:, :n, 0] = C[rows[:, None], S]
        rhs[:, n, 0] = s[which]
        w = np.linalg.solve(A[which], rhs)[:, :n, 0]
        inside = w.min(axis=1) > 0.0
        rows, S = rows[inside], S[inside]
        theta[rows] = 0.0
        theta[rows[:, None], S] = w[inside]
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

    Returns (theta matrix, squared distances). Every row gets a vectorized
    candidate in the K x K Gram geometry, the word-space certificate runs
    once over all rows, and only the rows it rejects are solved again, one
    by one, by the min-norm-point active set and certified again. Raises
    ValueError unless ``rows`` is an M x V matrix, and ProjectionFailure
    naming the first repaired row that still fails (a non-finite row
    among them), with scale = max(1, max_k ||b_k - x||^2) in the bound.
    """
    X = np.asarray(rows, dtype=np.float64)
    B = polytope.vertices
    if X.ndim != 2 or X.shape[1] != polytope.V:
        raise ValueError(f"rows must be an M x V matrix with V = {polytope.V}")
    K = B.shape[0]
    BBt = B @ B.T
    BX = X @ B.T                      # (M, K) cross terms
    xx = np.einsum("ij,ij->i", X, X)
    d2 = np.diag(BBt) - 2.0 * BX + xx[:, None]
    scales = np.maximum(1.0, d2.max(axis=1))
    nearest = np.argmin(d2, axis=1)
    del d2  # freed before theta is allocated, to keep the peak down at large K
    thetas = _candidate(BBt, BX, nearest)
    sq, _, ok = _certify(X, B, thetas, scales)
    rejected = np.flatnonzero(~ok)
    if rejected.size == 0:
        return thetas, sq
    for m in rejected:
        G = BBt - BX[m][:, None] - BX[m][None, :] + xx[m]
        thetas[m] = _min_norm_weights(G, scales[m], max_iter=100 * K)
    s, g, ok = _certify(X[rejected], B, thetas[rejected], scales[rejected])
    sq[rejected] = s
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        m, bound = int(rejected[i]), 10.0 * _TOL * scales[rejected[i]]
        if not g[i] <= bound:
            raise ProjectionFailure(
                f"row {m}: projection certificate gap {g[i]:.3e} exceeds tolerance {bound:.3e}"
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
