"""Independent oracles used by the test suite.

These deliberately avoid the library's own solution paths: the projection
oracle is a coarse-to-fine grid search over barycentric weights, relying only
on convexity of the squared distance in theta, and the k-means oracle
enumerates every assignment instead of running Lloyd iterations. The
single-row projection helper recomputes the point, distance and certificate
gap from the weights the library returns, the per-row min-norm-point active
set is the reference the batched projection is compared with, and the
likelihood-sandwich check evaluates both bounds of the LDA log-likelihood for
a fixed (theta, beta).
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from gdmtopics.clustering import ClusteringResult, _weighted_means, _weighted_objective
from gdmtopics.corpus import Corpus, NormalizedCorpus
from gdmtopics.geometry import _DROP_EPS, _TOL, TopicPolytope, project_rows


def project_one(query, polytope: TopicPolytope):
    """Project one query with ``project_rows``; returns (theta, point, squared
    distance, gap).

    Only theta comes from the library. The point p = theta . B, the squared
    distance ||x - p||^2 and the word-space certificate gap
    max_k (b_k - p) . (x - p) are recomputed here.
    """
    x = np.asarray(query, dtype=np.float64)
    thetas, _ = project_rows(x[None, :], polytope)
    theta = thetas[0]
    B = polytope.vertices
    point = theta @ B
    r = x - point
    return theta, point, float(r @ r), float(((B - point) @ r).max())


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


def simplex_grid(K, resolution):
    """All compositions of ``resolution`` into K parts, scaled to the simplex."""
    pts = []
    for comp in itertools.combinations(range(resolution + K - 1), K - 1):
        bars = (-1,) + comp + (resolution + K - 1,)
        pts.append([bars[i + 1] - bars[i] - 1 for i in range(K)])
    return np.asarray(pts, dtype=np.float64) / resolution


def grid_project(query, vertices, final_step=1e-3, resolution=16):
    """Projection onto conv(rows of vertices) by recursive grid refinement.

    Searches the full theta simplex at a coarse resolution, then repeatedly
    shrinks the search region around the incumbent. Returns (theta, point,
    squared distance). The objective is convex in theta, so the refinement
    converges to the global minimum.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    K = vertices.shape[0]
    if K == 1:
        point = vertices[0]
        return np.ones(1), point, float(np.sum((query - point) ** 2))
    base = simplex_grid(K, resolution) - 1.0 / K  # zero-sum offsets spanning the simplex
    center = np.full(K, 1.0 / K)
    shrink = 1.0
    while True:
        # symmetric scaled-simplex neighborhood of the incumbent, clipped to
        # the feasible set (clipping keeps candidates valid mixtures)
        thetas = np.vstack([center[None, :], center[None, :] + shrink * base])
        np.clip(thetas, 0.0, None, out=thetas)
        thetas /= thetas.sum(axis=1, keepdims=True)
        pts = thetas @ vertices
        d2 = np.sum((pts - query[None, :]) ** 2, axis=1)
        best = int(np.argmin(d2))
        center = thetas[best]
        if shrink / resolution <= final_step:
            return center, pts[best], float(d2[best])
        shrink *= 4.0 / resolution  # new radius spans several old cells


def grid_tune_extension(center, centroid, other_vertices, rows, weights, m_max, n=2000):
    """Dense grid search over one extension scalar for the per-cluster objective."""
    from gdmtopics.gdm import extend_and_threshold
    from gdmtopics.geometry import TopicPolytope, geometric_objective
    from gdmtopics.corpus import NormalizedCorpus

    data = NormalizedCorpus(rows=rows, weights=weights)
    best = (np.inf, None)
    for m in np.linspace(1.0, m_max, n):
        v = extend_and_threshold(center, centroid, m)
        v = v / v.sum()
        cand = np.vstack([v[None, :], other_vertices])
        val = geometric_objective(data, TopicPolytope(cand))
        if val < best[0]:
            best = (val, m)
    return best


def brute_force_kmeans(data: NormalizedCorpus, K: int) -> ClusteringResult:
    """Exact weighted k-means by enumerating all K^M assignments.

    Only assignments using all K labels are considered. Instances with
    K^M > 10^7 are rejected.
    """
    rows, weights = data.rows, data.weights
    M = rows.shape[0]
    if K < 1 or K > M:
        raise ValueError(f"need 1 <= K <= M, got K={K}, M={M}")
    if K**M > 10**7:
        raise ValueError(f"instance too large: K^M = {K}^{M} > 1e7")
    # objective identity: sum_m N_m||x_m||^2 - sum_k ||S_k||^2 / W_k
    base = float(np.sum(weights * np.einsum("ij,ij->i", rows, rows)))
    wx = rows * weights[:, None]
    best_obj = np.inf
    best_assign = None
    chunk = 8192
    total = K**M
    codes = np.arange(M, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        # decode base-K digits -> assignment matrix (n, M)
        A = (idx[:, None] // K**codes[None, :]) % K
        onehot = A[:, :, None] == np.arange(K)[None, None, :]
        wsum = np.einsum("nmk,m->nk", onehot, weights)
        valid = (wsum > 0).all(axis=1)
        if not valid.any():
            continue
        S = np.einsum("nmk,mv->nkv", onehot.astype(np.float64), wx)
        with np.errstate(divide="ignore", invalid="ignore"):
            red = np.einsum("nkv,nkv->nk", S, S) / wsum
        obj = base - np.where(valid, red.sum(axis=1), -np.inf)
        obj[~valid] = np.inf
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj = float(obj[i])
            best_assign = A[i].copy()
    if best_assign is None:
        raise ValueError("no assignment uses all K clusters")
    centroids = _weighted_means(rows, weights, best_assign, K)
    obj = _weighted_objective(rows, weights, centroids, best_assign)
    return ClusteringResult(centroids=centroids, assignments=best_assign, objective=obj)


def spectral_span_check(data: NormalizedCorpus, K: int) -> float:
    """Largest principal angle between the optimal weighted-k-means centroid
    span and the span of the top-K right singular vectors of Q^{1/2} W.

    Exact (brute-force) clustering is used, so the instance must be tiny.
    """
    result = brute_force_kmeans(data, K)   # enforces the size cap
    weighted = np.sqrt(data.weights)[:, None] * data.rows
    _, _, vt = np.linalg.svd(weighted, full_matrices=False)
    v_top = vt[:K].T
    mu_span = result.centroids.T
    angles = scipy.linalg.subspace_angles(mu_span, v_top)
    return float(angles.max()) if angles.size else 0.0


@dataclass(frozen=True)
class BoundReport:
    """Slacks of the two likelihood sandwich inequalities (>= 0 when they hold)."""

    log_likelihood: float
    normalized_log_likelihood: float
    upper_slack: float
    lower_slack: float

    @property
    def ok(self) -> bool:
        return self.upper_slack >= -1e-9 and self.lower_slack >= -1e-9


def check_likelihood_bounds(theta, beta, corpus: Corpus) -> BoundReport:
    """Numerically verify the likelihood sandwich for fixed (theta, beta).

    Requires the mixture to give positive probability to every observed word;
    violations raise with the offending (document, word) pairs listed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    counts = corpus.counts.toarray().astype(np.float64)
    if theta.shape[0] != corpus.M or beta.shape[1] != corpus.V:
        raise ValueError("dimension mismatch between (theta, beta) and corpus")
    p = theta @ beta
    support = counts > 0
    bad = support & (p <= 0)
    if bad.any():
        pairs = list(zip(*np.nonzero(bad)))[:10]
        raise ValueError(f"mixture gives zero probability at observed words {pairs}")

    lengths = corpus.lengths.astype(np.float64)
    wbar = counts / lengths[:, None]
    log_p = np.where(support, np.log(np.where(support, p, 1.0)), 0.0)
    log_w = np.where(support, np.log(np.where(support, wbar, 1.0)), 0.0)
    L_tb = float(np.sum(counts * log_p))
    L_w = float(np.sum(counts * log_w))

    diff_sq = np.where(support, (wbar - p) ** 2, 0.0)
    half_term = 0.5 * float(np.sum(lengths[:, None] * diff_sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        chi_sq = np.where(support, diff_sq / np.where(support, p, 1.0), 0.0)
    chi_term = float(np.sum(lengths[:, None] * chi_sq))

    upper_slack = (L_w - half_term) - L_tb        # upper bound minus likelihood
    lower_slack = L_tb - (L_w - chi_term)         # likelihood minus lower bound
    return BoundReport(
        log_likelihood=L_tb,
        normalized_log_likelihood=L_w,
        upper_slack=upper_slack,
        lower_slack=lower_slack,
    )
