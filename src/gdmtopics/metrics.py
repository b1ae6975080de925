"""Evaluation metrics and model diagnostics.

Held-out topic proportions by projection onto the topic polytope, held-out
perplexity of the resulting mixture, and the symmetric max-min distance
between topic vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, normalize
from .geometry import TopicPolytope, project_rows

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PerplexityReport:
    """Held-out perplexity over ``total_tokens`` tokens, with the number of
    observed-word probabilities floored at PROB_FLOOR; the total
    log-likelihood is ``-total_tokens * log(perplexity)``."""

    perplexity: float
    total_tokens: int
    floored_entries: int


def infer_theta(polytope: TopicPolytope, heldout: Corpus) -> np.ndarray:
    """Topic proportions of held-out documents by projection onto the polytope;
    raises ValueError when the polytope and the held-out corpus differ in V."""
    if heldout.V != polytope.V:
        raise ValueError(f"polytope has V={polytope.V} but held-out corpus has V={heldout.V}")
    thetas, _ = project_rows(normalize(heldout), polytope)
    return thetas


def perplexity(polytope: TopicPolytope, theta: np.ndarray, heldout: Corpus) -> PerplexityReport:
    """Held-out perplexity of the mixture model theta . beta.

    Corpus-level: exp(-total log-likelihood / total tokens).
    Zero word probabilities at observed words are floored at PROB_FLOOR (with
    the row renormalized); interventions are counted in ``floored_entries``.
    Raises ValueError when the polytope and the held-out corpus differ in V,
    or when theta is not a finite M x K array.
    """
    if heldout.V != polytope.V:
        raise ValueError(f"polytope has V={polytope.V} but held-out corpus has V={heldout.V}")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (heldout.M, polytope.K):
        raise ValueError(f"theta must be {heldout.M} x {polytope.K}")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    counts = heldout.counts
    docs = np.repeat(np.arange(heldout.M), np.diff(counts.indptr))
    p_hat = theta @ polytope.vertices
    p = p_hat[docs, counts.indices]   # log p-hat is needed only where a word occurs
    floored = int(np.count_nonzero(p < PROB_FLOOR))
    np.maximum(p_hat, PROB_FLOOR, out=p_hat)
    p = np.maximum(p, PROB_FLOOR) / p_hat.sum(axis=1)[docs]
    total_ll = float(counts.data @ np.log(p))
    total_tokens = int(heldout.lengths.sum())
    return PerplexityReport(
        perplexity=float(np.exp(-total_ll / total_tokens)),
        total_tokens=total_tokens,
        floored_entries=floored,
    )


def min_matching_distance(estimated: TopicPolytope, truth: TopicPolytope) -> float:
    """Symmetric max-min Euclidean distance between two topic vertex sets.

    Topic counts may differ; raises ValueError naming both vocabulary sizes
    when they differ.
    """
    if estimated.V != truth.V:
        raise ValueError(f"estimated polytope has V={estimated.V} but the truth has V={truth.V}")
    from scipy.spatial.distance import cdist

    d = cdist(estimated.vertices, truth.vertices)
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))

