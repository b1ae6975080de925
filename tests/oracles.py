"""Independent oracles used by the test suite.

These deliberately avoid the library's own solution paths: the projection
oracle is a coarse-to-fine grid search over barycentric weights, relying only
on convexity of the squared distance in theta, and the k-means oracle
enumerates every assignment instead of running Lloyd iterations. The dense
k-means (seeding and Lloyd passes over the dense rows, ||x||^2 recomputed in
every distance call, means accumulated row by row with ``np.add.at``) is the
reference the sparse library k-means must match bit for bit; the
sequential k-means (one restart at a time, each on its own K centroids) is
the reference for the library's lockstep restarts, and the
sequential DP-means (one document at a time, a centroid appended at each
opening) is the reference for the library's batched passes. The
single-row projection helper recomputes the point, distance and certificate
gap from the weights the library returns, the per-row min-norm-point active
set is the reference the batched projection is compared with, and the
two-buffer certificate the reference for the library's row-block form. The
dense normalization is the reference the library's division of the stored
counts must match bit for bit, and ``in_canonical_order`` runs any clustering
on a dense copy sorted by ``bytes_key_order``, the order in which the library
clusters. The likelihood-sandwich check evaluates both bounds of the LDA
log-likelihood for a fixed (theta, beta). ``count_matrices`` draws the count
rows on which the corpus and fit tests compare the library with these
references, and ``same_corpus`` compares two corpora by shape and counts.
``blocked_gibbs`` is a likelihood-based reference estimator of the topics,
against which GDM's vertex recovery can be judged on the same corpora.
``model_field`` writes an array in the form model files store it, without
the library's encoder.
"""

import base64
import itertools
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from hypothesis import strategies as st

from gdmtopics.clustering import (
    _MONOTONE_SLACK,
    _REL_TOL,
    ClusteringResult,
    _sq_dists,
    kmeanspp_init,
    weighted_means,
)
from gdmtopics.corpus import Corpus, NormalizedCorpus, _sq_norms
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


def bytes_key_order(rows, weights):
    """Document order by (weight, bytes of the row), ties in input order: a
    Python sort on a bytes copy of every row, the reference for the
    library's canonical order."""
    keys = sorted(range(len(weights)), key=lambda m: (weights[m], rows[m].tobytes()))
    return np.asarray(keys, dtype=np.int64)


@st.composite
def count_matrices(draw):
    """Count rows mixing small counts, counts near 2**53 (where int64 to
    float64 conversion rounds) and counts up to 2**58, no row empty."""
    M, V = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    count = st.one_of(st.integers(0, 5), st.integers(2**53 - 3, 2**53 + 3), st.integers(0, 2**58))
    counts = np.array(draw(st.lists(count, min_size=M * V, max_size=M * V)), dtype=np.int64)
    counts = counts.reshape(M, V)
    counts[counts.sum(axis=1) == 0, 0] = 1
    return counts


def same_corpus(a: Corpus, b: Corpus) -> bool:
    """Whether two corpora have the same shape and counts."""
    return a.counts.shape == b.counts.shape and (a.counts != b.counts).nnz == 0


def dense_normalize(corpus: Corpus) -> NormalizedCorpus:
    """Row normalization through a dense int64 copy of the counts: the
    reference the library's division of the stored counts must match bit
    for bit."""
    rows = corpus.counts.toarray() / corpus.lengths[:, None]
    rows /= rows.sum(axis=1, keepdims=True)
    return NormalizedCorpus(rows=rows, weights=corpus.lengths.astype(np.float64))


def in_canonical_order(cluster, data: NormalizedCorpus, *args, **kwargs):
    """``cluster(copy, *args, **kwargs)`` on a dense copy of ``data`` whose
    rows are sorted by ``bytes_key_order``, the assignments of the
    ``ClusteringResult`` it returns (alone, or first in a tuple) moved back
    to the rows of ``data``."""
    order = bytes_key_order(data.rows, data.weights)
    ordered = NormalizedCorpus(rows=data.rows[order], weights=data.weights[order])
    out = cluster(ordered, *args, **kwargs)
    result = out[0] if isinstance(out, tuple) else out
    assignments = np.empty_like(result.assignments)
    assignments[order] = result.assignments
    moved = ClusteringResult(result.centroids, assignments, result.objective)
    return (moved, *out[1:]) if isinstance(out, tuple) else moved


def two_buffer_certify(X, B, thetas):
    """Squared distances and certificate gaps from separate point and
    difference arrays, the gap's second term taken in word space."""
    points = thetas @ B
    diff = X - points
    sq = np.einsum("ij,ij->i", diff, diff)
    gaps = (diff @ B.T).max(axis=1) - np.einsum("ij,ij->i", points, diff)
    return sq, gaps


def extended_vertex(center, centroid, m):
    """The ray C + m (mu - C), negative coordinates zeroed, renormalized."""
    v = center + m * (centroid - center)
    v = np.where(v > 0.0, v, 0.0)
    return v / v.sum()


def grid_tune_extension(center, centroid, other_vertices, rows, weights, m_max, n=2000):
    """Dense grid search over one extension scalar for the per-cluster objective."""
    from gdmtopics.geometry import geometric_objective

    data = NormalizedCorpus(rows=rows, weights=weights)
    best = (np.inf, None)
    for m in np.linspace(1.0, m_max, n):
        cand = np.vstack([extended_vertex(center, centroid, m)[None, :], other_vertices])
        val = geometric_objective(data, TopicPolytope(cand))
        if val < best[0]:
            best = (val, m)
    return best


def weighted_objective(rows, weights, centroids, assignments):
    """Weighted within-cluster sum of squares from the row differences."""
    diff = rows - centroids[assignments]
    return float(np.sum(weights * np.einsum("ij,ij->i", diff, diff)))


def dense_sq_dists(rows, centroids):
    """Squared Euclidean distances, rows x centroids, from dense rows."""
    d = (
        (rows * rows).sum(axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    np.maximum(d, 0.0, out=d)
    return d


def dense_weighted_means(rows, weights, assignments, k):
    """Weighted mean per cluster, accumulated row by row; clusters assumed nonempty."""
    wsum = np.bincount(assignments, weights=weights, minlength=k)
    acc = np.zeros((k, rows.shape[1]))
    np.add.at(acc, assignments, rows * weights[:, None])
    return acc / wsum[:, None]


def _dense_kmeanspp(rows, weights, K, rng):
    seeds = np.empty((K, rows.shape[1]))
    first = rng.choice(rows.shape[0], p=weights / weights.sum())
    seeds[0] = rows[first]
    d2 = dense_sq_dists(rows, seeds[:1]).ravel()
    for k in range(1, K):
        scores = weights * d2
        total = scores.sum()
        if total > 0:
            idx = rng.choice(rows.shape[0], p=scores / total)
        else:
            idx = int(np.flatnonzero(d2 > 0)[0])
        seeds[k] = rows[idx]
        d2 = np.minimum(d2, dense_sq_dists(rows, seeds[k : k + 1]).ravel())
    return seeds


def _dense_lloyd(rows, weights, seeds, max_iters):
    k = seeds.shape[0]
    centroids = seeds.copy()
    assignments = None
    prev_obj = np.inf
    for _ in range(max(1, max_iters)):
        d2 = dense_sq_dists(rows, centroids)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            contrib = weights * d2[np.arange(rows.shape[0]), new_assign]
            donor = int(np.argmax(contrib))
            new_assign[donor] = empty
            centroids[empty] = rows[donor]
            counts = np.bincount(new_assign, minlength=k)
            d2 = dense_sq_dists(rows, centroids)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centroids = dense_weighted_means(rows, weights, assignments, k)
        obj = weighted_objective(rows, weights, centroids, assignments)
        if not obj <= prev_obj + _MONOTONE_SLACK * max(1.0, prev_obj if np.isfinite(prev_obj) else 1.0):
            raise RuntimeError("weighted Lloyd objective increased")
        if np.isfinite(prev_obj) and prev_obj - obj <= _REL_TOL * max(prev_obj, 1e-300):
            break
        prev_obj = obj
    obj = weighted_objective(rows, weights, centroids, assignments)
    return ClusteringResult(centroids=centroids, assignments=assignments, objective=obj)


def dense_kmeans(data: NormalizedCorpus, K: int, restarts: int, max_iters: int, rng):
    """Best-of-restarts weighted k-means++ / Lloyd on the dense rows.

    Draws from ``rng`` as ``fit_kmeans`` does; the rows must hold at least K
    distinct rows.
    """
    best = None
    for _ in range(restarts):
        seeds = _dense_kmeanspp(data.rows, data.weights, K, rng)
        result = _dense_lloyd(data.rows, data.weights, seeds, max_iters)
        if best is None or result.objective < best.objective:
            best = result
    return best


def sequential_kmeans(data: NormalizedCorpus, K: int, restarts: int, max_iters: int, rng):
    """Best-of-restarts weighted k-means on ``data.csr``, one restart at a
    time, as ``fit_kmeans`` clusters its canonical order.

    Each restart is seeded by the library's ``kmeanspp_init`` and runs its
    own Lloyd loop over its K centroids alone, with the library's
    ``_sq_dists`` and ``weighted_means``, the same stops and the same
    empty-cluster repair; the best is the first of least objective.
    """
    X, weights = data.csr, data.weights
    xx = _sq_norms(X)
    every_row = np.arange(data.M)
    best = None
    for _ in range(restarts):
        centroids = kmeanspp_init(X, xx, weights, K, rng)
        d2 = _sq_dists(X, xx, centroids)
        assignments, prev_obj, sse = None, np.inf, None
        for _ in range(max_iters):
            labels = np.argmin(d2, axis=1)
            for empty in np.flatnonzero(np.bincount(labels, minlength=K) == 0):
                donor = int(np.argmax(weights * d2[every_row, labels]))
                labels[donor] = empty
                centroids[empty] = X[donor].toarray().ravel()
                d2 = _sq_dists(X, xx, centroids)
            if assignments is not None and np.array_equal(labels, assignments):
                break
            assignments = labels
            centroids = weighted_means(X, weights, assignments, K)
            d2 = _sq_dists(X, xx, centroids)
            sse = float(np.sum(weights * d2[every_row, assignments]))
            if not sse <= prev_obj + _MONOTONE_SLACK * max(1.0, sse):
                raise RuntimeError("weighted Lloyd objective increased")
            if np.isfinite(prev_obj) and prev_obj - sse <= _REL_TOL * max(prev_obj, 1e-300):
                break
            prev_obj = sse
        if best is None or sse < best.objective:
            best = ClusteringResult(centroids=centroids, assignments=assignments, objective=sse)
    return best


def sequential_dpmeans_pass(rows, weights, centroids, order, lam):
    """Visit the documents in ``order``: each joins its nearest centroid, or
    becomes a new centroid when N_m * d^2_min > lam. ||x||^2 and ||c||^2 are
    recomputed for every document and the centroids grow by ``np.vstack``.

    Returns (assignments, centroids, margin): the starting centroids followed
    by one row per opening, and the smallest relative gap seen in the pass,
    between a document's N_m * d^2_min and lam or between its two smallest
    squared distances, so that near-ties can be told from disagreements.
    """
    assignments = np.empty(rows.shape[0], dtype=np.int64)
    margin = np.inf
    for m in order:
        d2 = dense_sq_dists(rows[m : m + 1], centroids).ravel()
        best = int(np.argmin(d2))
        cost = weights[m] * d2[best]
        margin = min(margin, abs(cost - lam) / lam)
        if d2.size > 1:
            low, second = np.partition(d2, 1)[:2]
            margin = min(margin, (second - low) / second if second > 0 else 0.0)
        if cost > lam:
            centroids = np.vstack([centroids, rows[m]])
            best = centroids.shape[0] - 1
        assignments[m] = best
    return assignments, centroids, margin


def sequential_dpmeans(data: NormalizedCorpus, lam, max_iters, rng):
    """Weighted DP-means one document at a time; returns (result, passes, margin).

    Draws the visiting order from ``rng`` as ``fit_dpmeans`` does, starts
    from the weighted mean, and after each pass drops emptied clusters and
    moves every centroid to the weighted mean of its rows (accumulated row
    by row). Passes stop once the penalized objective falls by at most
    ``_REL_TOL`` relative from a finite previous value. ``margin`` is the
    smallest margin of ``sequential_dpmeans_pass`` over the passes.
    """
    rows, weights = data.rows, data.weights
    order = rng.permutation(data.M)
    centroids = np.average(rows, axis=0, weights=weights)[None, :]
    prev_pen = np.inf
    margin = np.inf
    for passes in range(1, max_iters + 1):
        labels, centroids, pass_margin = sequential_dpmeans_pass(rows, weights, centroids, order, lam)
        margin = min(margin, pass_margin)
        occupied = np.unique(labels)
        assignments = np.searchsorted(occupied, labels)
        centroids = dense_weighted_means(rows, weights, assignments, occupied.size)
        pen = weighted_objective(rows, weights, centroids, assignments) + lam * occupied.size
        if not pen <= prev_pen + _MONOTONE_SLACK * max(1.0, abs(pen)):
            raise RuntimeError("penalized DP-means objective increased")
        if np.isfinite(prev_pen) and prev_pen - pen <= _REL_TOL * max(abs(prev_pen), 1e-300):
            break
        prev_pen = pen
    obj = weighted_objective(rows, weights, centroids, assignments)
    result = ClusteringResult(centroids=centroids, assignments=assignments, objective=obj)
    return result, passes, margin


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
    centroids = dense_weighted_means(rows, weights, best_assign, K)
    obj = weighted_objective(rows, weights, centroids, best_assign)
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


def blocked_gibbs(counts, K, alpha, eta, sweeps, rng):
    """Uncollapsed blocked Gibbs sampler for LDA on the stored entries of the
    M x V ``counts``; returns beta averaged over the second half of the sweeps.

    From uniform theta and beta, each sweep draws the topic counts of every
    stored (document, word, count) entry as Multinomial(c, theta_d * beta_w
    normalized) in one vectorized call, then theta ~ Dir(n_dk + alpha) and
    beta ~ Dir(n_kw + eta), each as normalized gamma variates.
    """
    entries = sp.coo_matrix(counts)
    docs, words, c = entries.row, entries.col, entries.data.astype(np.int64)
    M, V = entries.shape
    entry = np.arange(c.size)
    by_doc = sp.csr_matrix((np.ones(c.size), (docs, entry)), shape=(M, c.size))
    by_word = sp.csr_matrix((np.ones(c.size), (words, entry)), shape=(V, c.size))
    theta = np.full((M, K), 1.0 / K)
    beta = np.full((K, V), 1.0 / V)
    burn_in = sweeps // 2
    beta_sum = np.zeros((K, V))
    for sweep in range(sweeps):
        p = theta[docs] * beta[:, words].T
        z = rng.multinomial(c, p / p.sum(axis=1, keepdims=True)).astype(np.float64)
        theta = rng.standard_gamma(by_doc @ z + alpha)
        theta /= theta.sum(axis=1, keepdims=True)
        beta = rng.standard_gamma((by_word @ z).T + eta)
        beta /= beta.sum(axis=1, keepdims=True)
        if sweep >= burn_in:
            beta_sum += beta
    return beta_sum / (sweeps - burn_in)


def model_field(values):
    """``values`` as a model-file array field: the base64 of their float64
    bytes, little-endian and in C order, with the shape."""
    values = np.asarray(values, dtype=np.float64)
    data = struct.pack(f"<{values.size}d", *values.ravel().tolist())
    return {"data": base64.b64encode(data).decode("ascii"), "shape": list(values.shape)}
