"""Evaluation metrics and model diagnostics.

Held-out perplexity with projection-based topic proportions, the symmetric
max-min distance between topic vertex sets, and a numerical check of the
likelihood sandwich bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, normalize
from .geometry import TopicPolytope, project_rows

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PerplexityReport:
    perplexity: float
    total_log_likelihood: float
    total_tokens: int
    floored_entries: int


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


def infer_theta(polytope: TopicPolytope, heldout: Corpus) -> np.ndarray:
    """Topic proportions of held-out documents by projection onto the polytope."""
    if heldout.V != polytope.V:
        raise ValueError("vocabulary sizes disagree")
    data = normalize(heldout)
    thetas, _ = project_rows(data.rows, polytope)
    return thetas


def perplexity(polytope: TopicPolytope, theta: np.ndarray, heldout: Corpus) -> PerplexityReport:
    """Held-out perplexity of the mixture model theta . beta.

    Corpus-level: exp(-total log-likelihood / total tokens).
    Zero word probabilities at observed words are floored at PROB_FLOOR (with
    the row renormalized); interventions are counted in ``floored_entries``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (heldout.M, polytope.K):
        raise ValueError(f"theta must be {heldout.M} x {polytope.K}")
    counts = heldout.dense().astype(np.float64)
    p_hat = theta @ polytope.vertices
    needed = counts > 0
    floored = int(np.count_nonzero(needed & (p_hat < PROB_FLOOR)))
    p_hat = np.maximum(p_hat, PROB_FLOOR)
    p_hat /= p_hat.sum(axis=1, keepdims=True)
    doc_ll = np.sum(np.where(needed, counts * np.log(p_hat), 0.0), axis=1)
    total_ll = float(doc_ll.sum())
    total_tokens = int(heldout.lengths.sum())
    return PerplexityReport(
        perplexity=float(np.exp(-total_ll / total_tokens)),
        total_log_likelihood=total_ll,
        total_tokens=total_tokens,
        floored_entries=floored,
    )


def min_matching_distance(estimated: TopicPolytope, truth: TopicPolytope) -> float:
    """Symmetric max-min Euclidean distance between two topic vertex sets.

    Topic counts may differ.
    """
    if estimated.V != truth.V:
        raise ValueError("vocabulary sizes disagree")
    from scipy.spatial.distance import cdist

    d = cdist(estimated.vertices, truth.vertices)
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


def check_likelihood_bounds(theta, beta, corpus: Corpus) -> BoundReport:
    """Numerically verify the likelihood sandwich for fixed (theta, beta).

    Requires the mixture to give positive probability to every observed word;
    violations raise with the offending (document, word) pairs listed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    counts = corpus.dense().astype(np.float64)
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

