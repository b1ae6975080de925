"""Synthetic corpora from the LDA generative model with known ground truth.

Documents are drawn by the marginalized route: topic rows beta ~ Dir_V(eta),
per-document proportions theta ~ Dir_K(alpha), word probabilities
p_m = theta_m . beta, and counts w_m ~ Multinomial(p_m, N_m). Every document
uses an independent RNG substream derived from (seed, m), so generation is
reproducible regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, check_integer, check_positive

# substream tags keeping beta / theta / lengths / documents independent
_BETA_STREAM = 0
_THETA_STREAM = 1
_LENGTH_STREAM = 2
_DOC_STREAM = 3


@dataclass(frozen=True)
class LdaParams:
    """Hyperparameters of the symmetric-Dirichlet LDA generator.

    ``doc_lengths`` holds the pair ``(lo, hi)`` of ints, lengths being drawn
    i.i.d. uniform on lo..hi; a single int n is stored as (n, n), a constant
    length. Every field holds a plain Python value.
    """

    K: int
    V: int
    M: int
    doc_lengths: tuple[int, int]
    alpha: float
    eta: float
    seed: int

    def __post_init__(self):
        for name, low in (("K", 1), ("V", 2), ("M", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        for name in ("alpha", "eta"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        lengths = self.doc_lengths
        bounds = lengths if isinstance(lengths, tuple) else (lengths, lengths)
        if len(bounds) != 2:
            raise ValueError(f"doc_lengths must be an int or a (lo, hi) pair, got {lengths}")
        lo, hi = (check_integer("doc_lengths", bound) for bound in bounds)
        if not 1 <= lo <= hi <= np.iinfo(np.int64).max:
            raise ValueError(f"document length must be >= 1 and lo <= hi < 2**63, got {lengths}")
        object.__setattr__(self, "doc_lengths", (lo, hi))

    def resolve_lengths(self) -> np.ndarray:
        rng = np.random.default_rng([self.seed, _LENGTH_STREAM])
        return rng.integers(*self.doc_lengths, size=self.M, dtype=np.int64, endpoint=True)


@dataclass(frozen=True)
class GroundTruth:
    """Generating parameters of a synthetic corpus: the K x V topics ``beta``
    and the M x K proportions ``theta``; the word probabilities of document m
    are ``theta[m] @ beta``."""

    beta: np.ndarray
    theta: np.ndarray


def _dirichlet(dim, concentration, rng):
    """One draw from a symmetric Dirichlet via normalized Gamma variates, on
    arguments that ``LdaParams`` has checked.

    Small concentrations are sampled in log space (Gamma(a+1) boost plus a
    log-uniform factor) so that draws do not underflow to an all-zero vector.
    """
    if dim == 1:
        return np.ones(1)
    if concentration >= 0.05:
        g = rng.standard_gamma(concentration, size=dim)
        s = g.sum()
        if s > 0:
            return g / s
    # log-space route: X = G(a+1) * U^{1/a}
    boost = rng.standard_gamma(concentration + 1.0, size=dim)
    u = rng.random(size=dim)
    logx = np.log(boost) + np.log1p(-u) / concentration
    logx -= logx.max()
    x = np.exp(logx)
    return x / x.sum()


def _sample_stochastic_matrix(n_rows, dim, concentration, rng):
    return np.stack([_dirichlet(dim, concentration, rng) for _ in range(n_rows)])


def generate_corpus(params: LdaParams):
    """Draw a corpus and its ground truth from the LDA model.

    Returns (Corpus, GroundTruth).
    """
    beta = _sample_stochastic_matrix(
        params.K, params.V, params.eta, np.random.default_rng([params.seed, _BETA_STREAM])
    )
    theta = _sample_stochastic_matrix(
        params.M, params.K, params.alpha, np.random.default_rng([params.seed, _THETA_STREAM])
    )
    p = theta @ beta
    lengths = params.resolve_lengths()
    counts = np.empty((params.M, params.V), dtype=np.int64)
    for m in range(params.M):
        doc_rng = np.random.default_rng([params.seed, _DOC_STREAM, m])
        pm = p[m] / p[m].sum()
        counts[m] = doc_rng.multinomial(lengths[m], pm)
    return Corpus(counts), GroundTruth(beta=beta, theta=theta)
