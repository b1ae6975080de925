"""Output checks recomputed from outside the library.

A failed check marks its operation failed; ``failed / attempted`` is the
benchmark's error rate.
"""

from __future__ import annotations

import numpy as np
from gdmtopics.geometry import TopicPolytope

PROJECTION_TOL = 1e-10  # the default ``tol`` of project_rows / infer_theta


def certificate_gaps(rows, vertices, theta, tol: float = PROJECTION_TOL):
    """Projection certificate of every theta row, recomputed in word space.

    For p = theta . B the gap is max_k (b_k - p) . (x - p); ``project_point``
    accepts a projection when the gap is at most 10 * tol * scale with
    scale = max(1, max_k ||b_k - x||^2). Returns (gaps, per-row pass flags).
    """
    X = np.asarray(rows, dtype=np.float64)
    B = np.asarray(vertices, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    P = theta @ B
    R = X - P
    gaps = (R @ B.T).max(axis=1) - np.einsum("ij,ij->i", P, R)
    sq = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * X @ B.T
        + np.einsum("ij,ij->i", B, B)[None, :]
    )
    scale = np.maximum(1.0, sq.max(axis=1))
    simplex = (theta.min(axis=1) >= -1e-12) & (np.abs(theta.sum(axis=1) - 1.0) <= 1e-9)
    ok = np.isfinite(gaps) & (gaps <= 10.0 * tol * scale) & simplex
    return gaps, ok


def check_theta(rows, vertices, theta) -> tuple[float, list[str]]:
    """Worst certificate gap and the list of problems (empty when all pass)."""
    gaps, ok = certificate_gaps(rows, vertices, theta)
    problems = []
    if not ok.all():
        problems.append(f"{int((~ok).sum())} of {ok.size} theta rows fail the projection certificate")
    worst = float(gaps.max()) if gaps.size else 0.0
    return worst, problems


def check_model(model, K=None) -> list[str]:
    """A fit must give a valid polytope and a finite objective."""
    problems = []
    if not isinstance(model.polytope, TopicPolytope):
        problems.append("fit did not return a TopicPolytope")
    elif not np.isfinite(model.polytope.vertices).all():
        problems.append("topic vertices are not finite")
    if not np.isfinite(model.objective):
        problems.append(f"objective {model.objective} is not finite")
    if K is not None and model.K != K:
        problems.append(f"expected {K} topics, got {model.K}")
    return problems


def check_perplexity(value) -> list[str]:
    if not (np.isfinite(value) and value >= 1.0):
        return [f"perplexity {value} is not finite and >= 1"]
    return []
