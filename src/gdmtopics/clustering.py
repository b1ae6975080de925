"""Weighted clustering: k-means (fixed K) and DP-means (penalized K).

Both routines minimize the weighted within-cluster sum of squares
``sum_k sum_{m in C_k} N_m ||w_m - mu_k||^2`` with centroids at the weighted
means of their clusters, DP-means plus a penalty lam per cluster. They share
one descent loop and differ only in how a step labels the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .corpus import NormalizedCorpus, _sq_norms, check_integer, check_positive

_REL_TOL = 1e-10  # relative objective decrease treated as converged
_MONOTONE_SLACK = 1e-8


@dataclass(frozen=True)
class ClusteringResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def _sq_dists(rows, row_sq_norms, centroids):
    """Squared Euclidean distances, rows x centroids, clamped at 0.

    ``rows`` is dense or sparse and ``row_sq_norms`` holds its squared row norms.
    """
    d = row_sq_norms[:, None] - 2.0 * (rows @ centroids.T) + (centroids * centroids).sum(axis=1)
    np.maximum(d, 0.0, out=d)
    return d


def _converged(prev, cur):
    """Whether an objective fell from a finite ``prev`` to ``cur`` by at most
    ``_REL_TOL`` relative; the first pass, with ``prev`` infinite, never is."""
    return bool(np.isfinite(prev) and prev - cur <= _REL_TOL * max(abs(prev), 1e-300))


def weighted_means(X, weights, assignments, k):
    """Weighted mean per cluster of the rows of ``X`` (dense or CSR), as a
    C-contiguous k x V array; clusters assumed nonempty. Every average a
    fit takes goes through here: the centroids, and with all rows in one
    cluster DP-means' start and the data center, without an M x V temporary.

    Each cluster sums N_m w_m over its rows in row order, so the sums are
    the ones a row-by-row accumulation gives, from either layout. CSR rows
    take one product ``X.T @ onehot`` with the dense M x k ``onehot[m,
    label_m] = N_m``; dense rows take a sparse one-hot times the rows, as a
    dense product would go to BLAS, whose sums run in another order.
    """
    if sp.issparse(X):
        onehot = np.zeros((X.shape[0], k))
        onehot[np.arange(X.shape[0]), assignments] = weights
        sums = np.ascontiguousarray((X.T @ onehot).T)
    else:
        order = np.argsort(assignments, kind="stable")
        indptr = np.searchsorted(assignments[order], np.arange(k + 1))
        sums = sp.csr_matrix((weights[order], order, indptr), shape=(k, X.shape[0])) @ X
    return sums / np.bincount(assignments, weights=weights, minlength=k)[:, None]


def _csr_row(X, m, out):
    """Write row ``m`` of the CSR matrix ``X`` into the dense vector ``out``."""
    lo, hi = X.indptr[m], X.indptr[m + 1]
    out[:] = 0.0
    out[X.indices[lo:hi]] = X.data[lo:hi]


def kmeanspp_init(X, sq_norms, weights, K: int, rng: np.random.Generator) -> np.ndarray:
    """Weighted k-means++ seeding of the CSR rows ``X``, which must have
    sorted indices and no stored zeros, as ``NormalizedCorpus.csr`` holds.

    ``sq_norms`` holds the squared row norms and ``weights`` the document
    weights N_m. The first seed is drawn with probability proportional to
    N_m; each subsequent seed with probability proportional to
    N_m * D(m)^2, D(m) being the distance to the nearest chosen seed c,
    taken as ``(|x_m|^2 - |c|^2) - 2 (x_m . c - c . c)`` with c's own terms
    read from the same arrays, so a row equal to a seed is at distance
    exactly 0. Returns K distinct rows, dense; raises ValueError once no row
    is left at a positive distance, as when K exceeds the distinct rows.
    """
    K = check_integer("K", K, 1)
    M = X.shape[0]
    seeds = np.empty((K, X.shape[1]))
    scores, d2 = weights, np.inf
    for k in range(K):
        total = scores.sum()
        if not total > 0:  # positive weights: every row sits at distance 0 from a seed
            raise ValueError(f"K={K} exceeds the number of rows at distinct positions")
        idx = rng.choice(M, p=scores / total)
        _csr_row(X, idx, seeds[k])
        cross = X @ seeds[k]
        d = (sq_norms - sq_norms[idx]) - 2.0 * (cross - cross[idx])
        np.maximum(d, 0.0, out=d)
        d2 = np.minimum(d2, d)
        scores = weights * d2
    return seeds


def _descend(X, sq_norms, weights, centroids, step, lam, max_iters):
    """Alternate labelling and weighted means from ``centroids``, on the rows
    ``X`` (dense or CSR) with squared norms ``sq_norms`` and weights N_m.

    ``step(d2, centroids)`` labels every row from its squared distances
    ``d2`` and returns ``(labels, k)``; it may update both arguments in
    place. The iterations stop once the labels repeat, once the objective
    sum_m N_m d^2 + lam * k falls by at most a relative ``_REL_TOL``, or
    after ``max_iters`` labellings. One distance matrix per iteration serves
    both the objective of the new centroids and the next labelling.
    """
    every_row = np.arange(X.shape[0])
    assignments = None
    prev_obj = np.inf
    d2 = _sq_dists(X, sq_norms, centroids)
    for _ in range(max_iters):
        labels, k = step(d2, centroids)
        if assignments is not None and np.array_equal(labels, assignments):
            break
        assignments = labels
        centroids = weighted_means(X, weights, assignments, k)
        d2 = _sq_dists(X, sq_norms, centroids)
        sse = float(np.sum(weights * d2[every_row, assignments]))
        obj = sse + lam * k
        if not obj <= prev_obj + _MONOTONE_SLACK * max(1.0, abs(obj)):
            raise RuntimeError("clustering objective increased")
        if _converged(prev_obj, obj):
            break
        prev_obj = obj
    return ClusteringResult(centroids=centroids, assignments=assignments, objective=sse)


def _canonical_order(data: NormalizedCorpus) -> np.ndarray:
    """Document ordering independent of input row order.

    Documents are sorted by weight, then by the bytes of their dense row
    (memcmp), ties kept in input order. Both clusterers consume the
    documents in this order, so that permuting the corpus (with matching
    weights) reproduces the same clustering for a fixed seed.

    The key is read from the CSR rows: per stored entry the big-endian
    uint32 of V - 1 - column, then the value's own bytes. Rows first differ
    either at one column's value, where both keys compare those bytes, or
    where only one row stores an entry; the dense row with the zero (all
    zero bytes) there sorts first, and so does the key with the higher
    column or the one that ended.
    """
    X = data.csr
    entries = np.empty(X.nnz, dtype=[("column", ">u4"), ("value", X.data.dtype)])
    entries["column"] = X.shape[1] - 1 - X.indices
    entries["value"] = X.data
    raw, size = entries.tobytes(), entries.itemsize
    del entries  # freed before the keys copy raw's bytes a row at a time
    bounds = [size * i for i in X.indptr.tolist()]
    keys = [raw[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    by_row = np.array(sorted(range(data.M), key=keys.__getitem__), dtype=np.intp)
    return by_row[np.argsort(data.weights[by_row], kind="stable")]


def fit_kmeans(
    data: NormalizedCorpus,
    K: int,
    restarts: int = 10,
    max_iters: int = 1500,
    rng: np.random.Generator | None = None,
) -> ClusteringResult:
    """Best-of-restarts weighted k-means with k-means++ seeding.

    The documents are clustered in canonical order, so the result does not
    depend on the order of the rows; the assignments are indexed like the
    rows. The arithmetic runs on a CSR copy of the rows gathered in that
    order, which is dropped on return.
    """
    K, restarts = check_integer("K", K, 1), check_integer("restarts", restarts, 1)
    check_integer("max_iters", max_iters, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    order = _canonical_order(data)
    X, weights = data.csr[order], data.weights[order]
    xx = _sq_norms(X)
    every_row = np.arange(data.M)

    def lloyd_step(d2, centroids):
        labels = np.argmin(d2, axis=1)  # ties resolved to lowest index
        # repair emptied clusters: reseed at the largest weighted contributor
        for empty in np.flatnonzero(np.bincount(labels, minlength=K) == 0):
            donor = int(np.argmax(weights * d2[every_row, labels]))
            labels[donor] = empty
            _csr_row(X, donor, centroids[empty])
            d2[...] = _sq_dists(X, xx, centroids)
        return labels, K

    best = None
    for _ in range(restarts):
        seeds = kmeanspp_init(X, xx, weights, K, rng)
        result = _descend(X, xx, weights, seeds, lloyd_step, 0.0, max_iters)
        if best is None or result.objective < best.objective:
            best = result
    return replace(best, assignments=best.assignments[np.argsort(order)])


def _dpmeans_pass(rows, xx, weights, d2, visit, lam):
    """One sequential DP-means pass over the dense ``rows``, with squared
    norms ``xx`` and weights N_m; ``d2`` holds the squared distances from
    every row to the centroids, which stay fixed during the pass.

    Documents are visited in the order ``visit``. Each joins its nearest
    cluster, or opens a cluster at itself when N_m * d^2_min > lam. An
    opening only lowers the nearest distances of the documents after it, so
    the pass steps from one opening to the next with one product over the
    rows per opening. Returns each row's cluster: a column of ``d2``, or
    ``d2.shape[1] + j`` for the j-th opening.
    """
    nearest = np.argmin(d2, axis=1)[visit]  # ties resolved to the lowest index
    dmin = d2[visit, nearest]
    w = weights[visit]
    k = d2.shape[1]
    i = 0
    while True:
        over = np.flatnonzero(w[i:] * dmin[i:] > lam)
        if over.size == 0:
            break
        i += int(over[0])
        nearest[i] = k
        x = rows[visit[i]]
        later = visit[i + 1 :]
        d = xx[later] - 2.0 * (rows @ x)[later] + x @ x
        np.maximum(d, 0.0, out=d)
        closer = np.flatnonzero(d < dmin[i + 1 :])  # strict: ties keep the lower index
        dmin[i + 1 + closer] = d[closer]
        nearest[i + 1 + closer] = k
        k += 1
        i += 1
    assignments = np.empty_like(nearest)
    assignments[visit] = nearest
    return assignments


def fit_dpmeans(
    data: NormalizedCorpus,
    lam: float,
    max_iters: int = 1500,
    rng: np.random.Generator | None = None,
) -> ClusteringResult:
    """Weighted DP-means (Kulis & Jordan, ICML 2012): a document opens a new
    cluster when its assignment cost exceeds the penalty.

    The opening test is ``N_m * d^2 > lam``, so lambda shares units with the
    penalized objective (within-cluster sum + lam * K'). A pass starts from
    the weighted mean of all documents, then from the previous pass's
    centroids, visits the documents in one random order drawn from ``rng``,
    and ends by dropping emptied clusters and moving each centroid to the
    weighted mean of its documents.

    The documents are clustered in canonical order, on a dense copy of the
    rows in that order that is dropped on return: the weighted means, the
    start and the objective then sum the rows in an order that does not
    depend on the order of the rows. The assignments are indexed like the
    rows.
    """
    lam, max_iters = check_positive("lam", lam), check_integer("max_iters", max_iters, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    order = _canonical_order(data)
    rows, weights = data.csr[order].toarray(), data.weights[order]
    xx = np.einsum("ij,ij->i", rows, rows)
    visit = rng.permutation(data.M)

    def dpmeans_step(d2, centroids):
        # renumber the clusters in order, dropping emptied ones
        labels = _dpmeans_pass(rows, xx, weights, d2, visit, lam)
        occupied, labels = np.unique(labels, return_inverse=True)
        return labels, occupied.size

    start = weighted_means(rows, weights, np.zeros(data.M, dtype=np.intp), 1)
    result = _descend(rows, xx, weights, start, dpmeans_step, lam, max_iters)
    return replace(result, assignments=result.assignments[np.argsort(order)])
