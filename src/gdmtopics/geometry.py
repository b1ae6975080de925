"""Convex-polytope primitives: projection and the geometric objective.

``project_rows`` is the one projection onto the convex hull of the topic
rows; the geometric objective and held-out inference call it. It forms
its inputs with ``_inputs``, then runs one solve-and-certify step,
``_solve``. Extension tuning calls ``_solve`` itself, with its rows in
groups: the rows of group g are projected onto the base vertices with one
vertex, k_g, replaced, which the solve reads from the base Gram matrix and
group g's Gram row, so the groups cost O(G K) memory and no G x K x K
stack. All of it works in the K x K Gram geometry, so per-row cost is
independent of the vocabulary size once the cross terms are formed, over
all rows at once:

1. solve: Wolfe's min-norm-point active set (Wolfe, "Finding the nearest
   point in a polytope", Math. Programming 11, 1976), every row started at
   its nearest vertex, or at given weights, from which the method resumes
   (each tuning evaluation starts from an earlier one's weights), and all
   rows stepped in lockstep. Each row's support is a list of vertex
   indices, and each minor round solves its rows in one form, every
   support padded to the round's widest, in batches of rows where the
   padding would more than double the systems' memory. It is exact at
   every K.
2. certificate: every row is checked by the variational inequality
   ``(query - point) . (vertex_k - point) <= 10 * _TOL * scale`` for every
   vertex, taken in the same Gram geometry from the cross terms and the
   Gram matrix, and its weights must lie on the simplex; the first row
   that fails raises ProjectionFailure.

The rows are taken as CSR. The one pass over them forms the cross terms
``X @ B.T`` and the squared row norms. Where fewer than ``_SPARSE_SHARE`` of
the M x V entries are stored, it is one CSR product and a sum over the stored
values, O(nnz); otherwise it goes through ``corpus._row_blocks``, one dense
block of rows at a time, where BLAS is faster. Neither holds an M x V array.

The weights multiply the Gram matrix, ``theta . BBt``, in every major step
and in the certificate. The major step takes one CSR product over the
running rows' supports where they hold fewer than ``_SPARSE_THETA`` of the
rows' entries, O(nnz K), and one dense BLAS product otherwise, O(M K^2); at
K <= 20 it is always dense. The certificate, run once per projection,
always multiplies densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import NormalizedCorpus, _row_blocks, _sq_norms

_DROP_EPS = 1e-12
_TOL = 1e-10  # optimality tolerance of the min-norm-point solve
# stored share of the rows' entries below which the cross terms are one CSR
# product: at 10 % it took 0.26-0.90 of the dense blocks' time (K from 10 to
# 438, one BLAS thread), at 20 % up to 1.56
_SPARSE_SHARE = 0.1
# share of the running rows' M x K weights held by their supports below
# which the major step's theta . BBt is one CSR product over the supports:
# at K = 437 it took 0.05-0.45 of the dense product's time up to a 5.7 %
# share (100 and 500 rows), at K = 100 and 100 rows 1.3-1.5 (one BLAS
# thread). Over the major steps of six ngdm_sweep ops a 5 % cut-off took
# 0.61 of the dense time, less than any other tried from 2 to 15 %. Every
# row holds a weight, so at K <= 1 / _SPARSE_THETA the product is always
# dense. The certificate's product is always dense
_SPARSE_THETA = 0.05


class ProjectionFailure(RuntimeError):
    """Raised when a projected row fails its optimality certificate."""


@dataclass(frozen=True)
class TopicPolytope:
    """K x V matrix whose rows are topic distributions on the vocabulary simplex."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64, order="C")  # a copy: the caller's stays writable
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


def _active_set(BBt, BX, xx, theta, scales, groups):
    """Min-norm-point weights of every row, Wolfe's active set run in lockstep.

    Row m solves ``min_theta ||theta . B - x_m||^2`` over the simplex from
    its row of ``theta``, a point of the simplex that the solve overwrites;
    the row's support starts as that point's nonzero entries. Each row runs
    minor rounds, then a major step, until it retires. Minor step: the
    affine minimizer on the support, ``(1 + G_S) a = 1`` normalized, with G
    the row's Gram matrix of the vertices shifted by x_m; where a weight
    falls to ``_DROP_EPS`` or below, Wolfe's line step toward it, dropping
    the zeroed vertices. A row's minor rounds end at a minimizer whose
    weights all exceed ``_DROP_EPS``, or at one vertex. Every solution a of
    the system sums to 1 / (1 + d^2) > 0, with d the distance from x_m to
    the support's affine hull, so a row whose LU solution sums to 0 is
    solved again by the pseudo-inverse, as are all the batch's rows where
    the LU solve raises. Both happen only on a singular system, as from a
    start whose support is not affinely independent. Major step: with
    r = theta . BBt - BX_m, the row retires when
    ``min_j r_j >= theta . r - _TOL * scale`` or the argmin vertex is
    already in its support, and otherwise adds that vertex. A row that
    starts at one vertex has no minor round before its first major step,
    so a start at each row's nearest vertex is the cold start. A row still
    running after 100 K major steps keeps its current weights for the
    certificate. The major step's ``theta . BBt`` is ``_theta_gram``'s.
    With ``groups``, ``(group, moved, U)``, row m's Gram matrix is ``BBt``
    with row and column k = ``moved[group[m]]`` replaced by
    ``U[group[m]]``: its minor systems gather from ``BBt`` and then take
    that row and column from U, and ``_theta_gram`` patches its product.

    Each row's support is its ``n`` sorted vertex indices at the front of its
    row of ``S``, padded with K; ``S`` widens when a support outgrows it. A
    minor round pads every row's system to w x w, w its widest support,
    and ``_affine_minimizers`` solves them as one batch; where the padded
    systems hold f >= 2 times the values of the unpadded ones, as after a
    warm start of wide and narrow supports, it solves floor(f) batches of
    rows, so that a batch holds less than twice the unpadded values. LU
    factors each system alone, so a row's weights do not depend on its
    batch. A row's slots past its own support get identity rows and
    columns, a zero right-hand side and zero weight, and are never read
    from or written to theta; a round whose supports all have width w has
    no such slots and runs the same steps.
    """
    M, K = BX.shape
    flat = theta.reshape(-1)  # a view: rows for the major step, cells for the minor
    stored = np.flatnonzero(flat)  # row by row, each row's vertices ascending
    rows = stored // K
    n = np.bincount(rows, minlength=M)
    S = np.full((M, n.max(initial=1)), K)
    S[rows, np.arange(stored.size) - (np.cumsum(n) - n)[rows]] = stored % K
    del stored, rows  # freed before the solve, to keep the peak down
    active = np.arange(M)
    minor = np.flatnonzero(n > 1)
    for _ in range(100 * K):
        while minor.size:
            size = n[minor]
            w = size.max()
            Sm = S[minor, :w]
            pad = Sm == K  # S holds K past each row's support
            real = ~pad
            Sm[pad] = 0  # gathers vertex 0 from BBt and BX; fixed up below
            cells = minor[:, None] * K + Sm  # flat indices into theta and BX
            batches = minor.size * w * w // int(size @ size)  # floor(f), as the docstring says
            step = -(-minor.size // batches)
            parts = [slice(i, i + step) for i in range(0, minor.size, step)]
            lam = [_affine_minimizers(BBt, BX, xx, minor[p], Sm[p], cells[p], real[p], pad[p], groups) for p in parts]
            lam = lam[0] if len(lam) == 1 else np.concatenate(lam)
            drop = real & (lam <= _DROP_EPS)
            moved = np.flatnonzero(drop.any(axis=1))
            if moved.size:
                # a weight of the affine minimizer falls to _DROP_EPS: step along
                # the line toward it as far as the weights stay nonnegative, and
                # drop the zeroed vertices (padded slots read no weight)
                old = np.where(real[moved], flat[cells[moved]], 0.0)
                alpha = lam[moved]
                with np.errstate(divide="ignore", invalid="ignore"):
                    steps = old / (old - alpha)
                t = np.where(drop[moved] & np.isfinite(steps), steps, 1.0).min(axis=1, initial=1.0)
                old += t[:, None] * (alpha - old)
                old[old < _DROP_EPS] = 0.0
                keep = old > 0.0
                kept = keep.sum(axis=1)
                stalled = kept == size[moved]  # force-drop the smallest weight
                if stalled.any():  # among its own slots, which are all kept
                    smallest = np.where(keep[stalled], old[stalled], np.inf)
                    keep[stalled, np.argmin(smallest, axis=1)] = False
                    kept[stalled] -= 1
                old[~keep] = 0.0
                lam[moved] = old
                shrunk = minor[moved]
                S[shrunk, :w] = np.sort(np.where(keep, Sm[moved], K), axis=1)
                n[shrunk] = kept
                moved = moved[kept > 1]
            lam /= lam.sum(axis=1, keepdims=True)
            flat[cells[real]] = lam[real]
            minor = minor[moved]
        # major step: the vertex of steepest descent joins the support
        r = _theta_gram(theta, active, S, n, BBt, groups)
        r -= BX[active]
        j = np.argmin(r, axis=1)
        bound = np.einsum("ij,ij->i", theta[active], r) - _TOL * scales[active]
        going = (r[np.arange(active.size), j] < bound) & (S[active] != j[:, None]).all(axis=1)
        del r  # freed before the next major step forms its own
        active, j = active[going], j[going]
        if active.size == 0:
            break
        size = n[active]
        if size.max() == S.shape[1]:
            S = np.hstack([S, np.full((M, min(S.shape[1], K - S.shape[1])), K)])
        grown = S[active]
        grown[np.arange(active.size), size] = j
        grown.sort(axis=1)
        S[active] = grown
        n[active] = size + 1
        minor = active
    return theta


def _affine_minimizers(BBt, BX, xx, minor, Sm, cells, real, pad, groups):
    """The affine minimizers of a minor round's rows ``minor`` on their
    supports ``Sm``, at the flat ``cells`` of BX, with ``real`` and ``pad``
    marking each row's own and padded slots: one batch of w x w systems,
    solved by LU, or by the pseudo-inverse for the rows whose LU solution
    sums to 0 and for every row where the LU solve raises. Its arrays are
    freed on return, before the round's line step forms its own."""
    K, w = BBt.shape[0], Sm.shape[1]
    c = BX.take(cells)
    A = BBt.take(Sm[:, :, None] * K + Sm[:, None, :])
    if groups is not None:  # the moved vertex's row and column from its group's U
        group, vertex, U = groups
        g = group[minor]
        hit = real & (Sm == vertex[g][:, None])  # the slot of a row's moved vertex
        holds = hit.any(axis=1)
        u = U[g[holds, None], Sm[holds]]
        A[hit] = u
        A.transpose(0, 2, 1)[hit] = u
    A += 1.0
    A -= c[:, :, None]
    A -= c[:, None, :]
    A += xx[minor, None, None]
    # padded slots: identity rows and columns, zero right-hand side and weight
    A[pad] = 0.0
    A.transpose(0, 2, 1)[pad] = 0.0
    A.reshape(minor.size, w * w)[:, :: w + 1][pad] = 1.0  # their diagonal; A is contiguous
    rhs = 1.0 * real[:, :, None]
    try:
        alpha = np.linalg.solve(A, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        alpha = np.zeros((minor.size, w))  # every row to the pseudo-inverse
    alpha[pad] = 0.0
    total = alpha.sum(axis=1)
    zero = np.flatnonzero(total == 0.0)
    if zero.size:  # no solution sums to 0: LU gone wrong on a singular A
        alpha[zero] = np.where(real[zero], (np.linalg.pinv(A[zero]) @ rhs[zero])[:, :, 0], 0.0)
        total[zero] = alpha[zero].sum(axis=1)
    return alpha / total[:, None]


def _theta_gram(theta, rows, S, n, BBt, groups):
    """``theta[rows] @ BBt``: dense, unless the rows' supports hold fewer than
    ``_SPARSE_THETA`` of their K entries; then one CSR product over each row's
    first n entries of ``S`` with weights from theta, its arrays freed before
    the major step gathers ``theta[rows]``. With ``groups``, each row's
    product is taken with its group's Gram matrix, by ``_regroup``. While
    every row runs, theta itself stands for ``theta[rows]``."""
    K = BBt.shape[0]
    every = rows.size == theta.shape[0]  # then theta itself, with no copy, is theta[rows]
    if K * _SPARSE_THETA <= 1 or n[rows].sum() >= _SPARSE_THETA * rows.size * K:
        product = (theta if every else theta[rows]) @ BBt
    else:
        size = n[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(size, out=indptr[1:])
        cols = S[rows][np.arange(S.shape[1]) < size[:, None]]
        weights = theta[rows.repeat(size), cols]
        product = sp.csr_matrix((weights, cols, indptr), shape=(rows.size, K)) @ BBt
        del size, indptr, cols, weights
    if groups is None:
        return product
    group, moved, U = groups
    return _regroup(product, theta if every else theta[rows], group[rows], moved, U, BBt)


def _regroup(product, theta, group, moved, U, BBt):
    """``product``, which holds ``theta @ BBt``, turned in place into each
    row's product with its group's Gram matrix: for row m of group g, with
    k = ``moved[g]`` and the change d = ``U[g] - BBt[k]`` of Gram row k,
    entry j != k gains ``theta_mk d_j`` and entry k becomes
    ``theta_m . U[g]``, which is entry k of ``theta_m @ BBt`` plus
    ``theta_m . d`` (``BBt`` is symmetric)."""
    rows = np.arange(group.size)
    k = moved[group]
    change = (U - BBt[moved])[group]
    at_k = product[rows, k] + np.einsum("ij,ij->i", theta, change)
    change *= theta[rows, k][:, None]
    product += change
    product[rows, k] = at_k
    return product


def _cross_terms(X, B):
    """The (M, K) cross terms ``X @ B.T`` and squared norms of the CSR rows:
    one CSR product below ``_SPARSE_SHARE`` stored entries, else from dense
    row blocks, whose buffer is freed on return, before the active set runs."""
    M, V = X.shape
    if X.nnz < _SPARSE_SHARE * M * V:
        return X @ B.T, _sq_norms(X)
    BX, xx = np.empty((M, B.shape[0])), np.empty(M)
    for block, x in _row_blocks(X):
        BX[block] = x @ B.T
        xx[block] = np.einsum("ij,ij->i", x, x)
    return BX, xx


def _certify(BBt, BX, xx, thetas, scales, groups=None):
    """Certificate of every row in the Gram geometry: (squared distances,
    gaps, pass flags), from the Gram matrix ``BBt``, the cross terms ``BX``
    and the squared norms ``xx``; with ``groups``, as ``_active_set`` takes
    them, each row's ``theta . BBt`` is with its group's Gram matrix.

    With p = theta . B, b_k . (x - p) is ``BX_k - (theta . BBt)_k``, and a
    row passes when ``max_k (b_k - p) . (x - p) <= 10 * _TOL * scale`` and
    theta lies on the simplex: no entry below -1e-12 and a sum within 1e-9
    of 1. A NaN row fails. The squared distance ||x - p||^2 is
    ``xx - 2 theta . BX + theta . BBt . theta``, clamped at 0. ``theta . BBt``
    is one dense product, run once per projection.
    """
    toward = thetas @ BBt
    if groups is not None:
        group, moved, U = groups
        _regroup(toward, thetas, group, moved, U, BBt)
    np.subtract(BX, toward, out=toward)  # b_k . (x - p) for every row and vertex
    along = np.einsum("ij,ij->i", thetas, toward)  # p . (x - p)
    gaps = toward.max(axis=1) - along
    sq = xx - np.einsum("ij,ij->i", thetas, BX) - along
    np.maximum(sq, 0.0, out=sq)
    ok = (
        (gaps <= 10.0 * _TOL * scales)
        & (thetas.min(axis=1) >= -1e-12)
        & (np.abs(thetas.sum(axis=1) - 1.0) <= 1e-9)
    )
    return sq, gaps, ok


def _solve(BBt, BX, xx, thetas, scales, groups=None):
    """(theta, squared distances) of every projection: ``_active_set`` from
    ``thetas``, which it overwrites, then ``_certify``; raises
    ProjectionFailure naming the first row that fails its certificate.

    ``groups`` is None, when every row is projected onto the vertices of
    the Gram matrix ``BBt``, or ``(group, moved, U)``: row m belongs to group
    ``group[m]``, whose vertices are those of ``BBt`` with vertex
    ``k = moved[g]`` replaced by a vertex b_g, and ``U[g]`` is b_g's Gram
    row, b_g against every vertex with ``b_g . b_g`` at k. Then ``BX``
    holds each row's cross terms with its own group's vertices, and the
    scales are the caller's.
    """
    thetas = _active_set(BBt, BX, xx, thetas, scales, groups)
    sq, gaps, ok = _certify(BBt, BX, xx, thetas, scales, groups)
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


def _inputs(X, B):
    """(Gram matrix ``B @ B.T``, cross terms, squared row norms, squared
    distances ``||x_m - b_k||^2``) of the CSR rows ``X`` and the vertices ``B``."""
    BBt = B @ B.T
    BX, xx = _cross_terms(X, B)
    return BBt, BX, xx, np.diag(BBt) - 2.0 * BX + xx[:, None]


def project_rows(rows, polytope: TopicPolytope):
    """Project the rows onto the convex hull of the topic rows, certifying every row.

    ``rows`` is a ``NormalizedCorpus`` or a dense M x V matrix, which is
    taken as CSR. Returns (theta matrix, squared distances). All rows are
    solved together by the min-norm-point active set in the K x K Gram
    geometry, each from its nearest vertex, and the certificate checks all
    of them in that geometry.
    A row's weights can depend in their last bits on the other rows
    projected with it: a minor round solves its rows' systems as one batch
    padded to the widest support, and the LU solve (OpenBLAS 0.3.31) of a
    padded system can round differently from the unpadded one where a
    support holds 4 vertices or more. Compare theta bit for bit only for
    the same rows in the same call.
    Raises ValueError unless the rows are an M x V matrix of finite
    numbers, and ProjectionFailure naming the first row that fails its
    certificate, with scale = max(1, max_k ||b_k - x||^2) in the bound.
    """
    X = rows.csr if isinstance(rows, NormalizedCorpus) else np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != polytope.V:
        raise ValueError(f"rows must be an M x V matrix with V = {polytope.V}, got shape {X.shape}")
    if isinstance(X, np.ndarray):  # a NormalizedCorpus holds finite rows
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise ValueError(f"row {int(np.argmin(finite))} is not finite")
        X = sp.csr_matrix(X)
    BBt, BX, xx, d2 = _inputs(X, polytope.vertices)
    scales = np.maximum(1.0, d2.max(axis=1))
    nearest = np.argmin(d2, axis=1)
    del d2  # freed before theta is allocated, to keep the peak down at large K
    thetas = np.zeros(BX.shape)
    thetas[np.arange(X.shape[0]), nearest] = 1.0
    return _solve(BBt, BX, xx, thetas, scales)


def geometric_objective(data: NormalizedCorpus, polytope: TopicPolytope) -> float:
    """Weighted sum over documents of squared distance to the polytope."""
    _, sq = project_rows(data, polytope)
    return float(np.sum(data.weights * sq))
