import numpy as np
import pytest

from gdmtopics import synth
from gdmtopics.corpus import normalize
from gdmtopics.geometry import TopicPolytope
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import project_one, same_corpus


def test_dirichlet_dim_one():
    rng = np.random.default_rng(0)
    assert synth._dirichlet(1, 0.7, rng).tolist() == [1.0]


def test_dirichlet_determinism():
    a = synth._dirichlet(6, 0.3, np.random.default_rng(42))
    b = synth._dirichlet(6, 0.3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_dirichlet_simplex_and_positive():
    rng = np.random.default_rng(1)
    for conc in (0.1, 1.0, 10.0):
        for _ in range(50):
            x = synth._dirichlet(5, conc, rng)
            assert abs(x.sum() - 1.0) < 1e-12
            assert (x > 0).all()


def test_dirichlet_mean_symmetry():
    # Monte-Carlo oracle: symmetric Dirichlet has mean 1/dim per coordinate
    rng = np.random.default_rng(7)
    draws = np.stack([synth._dirichlet(5, 0.1, rng) for _ in range(100_000)])
    assert np.abs(draws.mean(axis=0) - 0.2).max() < 0.01


def test_dirichlet_tiny_concentration_no_underflow():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = synth._dirichlet(4, 0.001, rng)
        assert abs(x.sum() - 1.0) < 1e-12
        assert np.isfinite(x).all()


def test_generate_mixing_arithmetic_with_injection(monkeypatch):
    # inject known beta and theta through the sampler: the counts fall only on
    # the words of theta . beta
    K, V, M = 2, 4, 3
    beta = np.zeros((K, V))
    beta[0, 0] = beta[1, 1] = 1.0
    theta = np.full((M, K), 0.5)
    monkeypatch.setattr(
        synth, "_sample_stochastic_matrix",
        lambda n_rows, dim, concentration, rng: beta if n_rows == K else theta,
    )
    params = LdaParams(K=K, V=V, M=M, doc_lengths=8, alpha=1.0, eta=1.0, seed=0)
    corpus, truth = generate_corpus(params)
    assert np.allclose(truth.theta @ truth.beta, [[0.5, 0.5, 0, 0]] * M)
    assert corpus.counts.toarray()[:, 2:].sum() == 0


def test_generate_row_totals_match_lengths():
    params = LdaParams(K=3, V=7, M=25, doc_lengths=(2, 9), alpha=0.5, eta=0.5, seed=4)
    corpus, _ = generate_corpus(params)
    assert np.array_equal(
        np.asarray(corpus.counts.sum(axis=1)).ravel(), corpus.lengths
    )
    assert ((corpus.lengths >= 2) & (corpus.lengths <= 9)).all()


def test_generate_deterministic():
    params = LdaParams(K=2, V=5, M=10, doc_lengths=6, alpha=0.2, eta=0.2, seed=9)
    c1, t1 = generate_corpus(params)
    c2, t2 = generate_corpus(params)
    assert same_corpus(c1, c2)
    assert np.array_equal(t1.beta, t2.beta)
    assert np.array_equal(t1.theta, t2.theta)


def test_generate_law_of_large_numbers():
    # Monte-Carlo oracle: empirical frequencies converge to theta . beta
    params = LdaParams(K=3, V=6, M=1, doc_lengths=100_000, alpha=0.5, eta=0.5, seed=12)
    corpus, truth = generate_corpus(params)
    wbar = normalize(corpus).rows[0]
    assert np.abs(wbar - truth.theta[0] @ truth.beta).max() < 0.01


def test_ground_truth_rows_inside_polytope():
    params = LdaParams(K=4, V=8, M=30, doc_lengths=5, alpha=0.3, eta=0.3, seed=21)
    _, truth = generate_corpus(params)
    polytope = TopicPolytope(truth.beta)
    for p in truth.theta @ truth.beta:
        assert project_one(p, polytope)[2] < 1e-9


def test_alpha_to_zero_weak_limit():
    # draws concentrate on the vertices, near-uniformly across topics
    params = LdaParams(K=4, V=6, M=2000, doc_lengths=3, alpha=1e-3, eta=0.5, seed=33)
    _, truth = generate_corpus(params)
    peak = truth.theta.max(axis=1)
    assert np.mean(peak > 0.99) > 0.95
    counts = np.bincount(np.argmax(truth.theta, axis=1), minlength=4)
    assert counts.min() > 400 and counts.max() < 600  # near-uniform over the 4 topics


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=0, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=1, M=1, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=0, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=0, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=0, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=1, eta=-2, seed=0),
        dict(K=1, V=3, M=2, doc_lengths=[1, 2, 3], alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=float("inf"), eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=1, eta=float("nan"), seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=True, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha="0.1", eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=2.5, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=(1, 2.5), alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=(1.0, 2), alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=True, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=(3, 2), alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=(1, 2, 3), alpha=1, eta=1, seed=0),
        dict(K=True, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=2.5, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=3.0, M=1, doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=np.float64(2.0), doc_lengths=1, alpha=1, eta=1, seed=0),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed=-1),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed=1.5),
        dict(K=1, V=3, M=1, doc_lengths=1, alpha=1, eta=1, seed="0"),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        LdaParams(**kwargs)


@pytest.mark.parametrize("n", [1, 200, 2**63 - 1])
def test_a_constant_length_is_the_pair_n_n(n):
    def lengths(doc_lengths):
        params = LdaParams(K=1, V=2, M=4, doc_lengths=doc_lengths, alpha=1, eta=1, seed=5)
        return params.resolve_lengths()

    assert lengths(n).dtype == np.int64
    assert lengths(n).tolist() == lengths((n, n)).tolist() == [n] * 4
    params = dict(K=1, V=2, M=4, alpha=1, eta=1, seed=5)
    assert LdaParams(doc_lengths=n, **params) == LdaParams(doc_lengths=(n, n), **params)


def test_params_hold_plain_python_values():
    params = LdaParams(
        K=np.int64(2),
        V=np.int32(3),
        M=np.uint8(4),
        doc_lengths=np.int64(5),
        alpha=np.float32(0.5),
        eta=1,
        seed=np.int64(0),
    )
    assert (params.K, params.V, params.M, params.seed) == (2, 3, 4, 0)
    assert {type(v) for v in (params.K, params.V, params.M, params.seed, *params.doc_lengths)} == {int}
    assert params.doc_lengths == (5, 5)
    assert (params.alpha, params.eta) == (0.5, 1.0)
    assert type(params.alpha) is type(params.eta) is float
