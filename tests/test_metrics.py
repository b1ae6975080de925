import numpy as np
import pytest

from gdmtopics.corpus import Corpus, NormalizedCorpus, normalize
from gdmtopics.geometry import TopicPolytope, geometric_objective
from gdmtopics.metrics import infer_theta, min_matching_distance, perplexity
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import blocked_gibbs, check_likelihood_bounds, spectral_span_check


def test_perplexity_uniform_model_equals_vocab_size():
    V = 7
    poly = TopicPolytope(np.full((1, V), 1.0 / V))
    heldout = Corpus(np.array([[3, 1, 0, 2, 0, 0, 1], [0, 0, 5, 0, 1, 1, 0]]))
    theta = np.ones((2, 1))
    rep = perplexity(poly, theta, heldout)
    assert np.isclose(rep.perplexity, V, rtol=1e-12)
    assert rep.total_tokens == 14
    assert rep.floored_entries == 0


def test_perplexity_perfect_model_is_one():
    poly = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    heldout = Corpus(np.array([[5, 0], [0, 3]]))
    theta = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = perplexity(poly, theta, heldout)
    assert np.isclose(rep.perplexity, 1.0, atol=1e-9)


def test_perplexity_two_doc_arithmetic():
    # doc 1 sees a word with probability 1/2, doc 2 a word with 1/4:
    # corpus-level exp(-(ln .5 + ln .25)/2) = sqrt(8)
    poly = TopicPolytope(np.array([[0.5, 0.25, 0.25]]))
    heldout = Corpus(np.array([[1, 0, 0], [0, 1, 0]]))
    theta = np.ones((2, 1))
    rep = perplexity(poly, theta, heldout)
    assert np.isclose(rep.perplexity, np.sqrt(8.0), rtol=1e-12)
    total_ll = -rep.total_tokens * np.log(rep.perplexity)
    assert np.isclose(total_ll, np.log(0.5) + np.log(0.25))


def test_perplexity_floors_only_observed_zeros():
    poly = TopicPolytope(np.array([[1.0, 0.0]]))
    theta = np.ones((1, 1))
    rep = perplexity(poly, theta, Corpus(np.array([[4, 0]])))
    assert rep.floored_entries == 0
    assert np.isclose(rep.perplexity, 1.0, atol=1e-9)
    rep = perplexity(poly, theta, Corpus(np.array([[0, 1]])))
    assert rep.floored_entries == 1
    assert rep.perplexity > 1e9


def test_perplexity_rejects_bad_theta_shape():
    poly = TopicPolytope(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="theta"):
        perplexity(poly, np.ones((3, 1)), Corpus(np.array([[1, 1]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_perplexity_rejects_a_non_finite_theta(bad):
    poly = TopicPolytope(np.array([[0.5, 0.5], [0.9, 0.1]]))
    theta = np.array([[0.5, 0.5], [bad, 0.0]])
    with pytest.raises(ValueError, match="theta must be finite"):
        perplexity(poly, theta, Corpus(np.array([[1, 1], [2, 0]])))


@pytest.mark.parametrize("counts", [[[1, 1, 1]], [[1, 1, 1, 1, 1]]], ids=["smaller", "larger"])
def test_perplexity_rejects_heldout_vocabulary_mismatch(counts):
    poly = TopicPolytope(np.full((1, 4), 0.25))
    V = len(counts[0])
    message = f"polytope has V=4 but held-out corpus has V={V}"
    with pytest.raises(ValueError, match=message):
        perplexity(poly, np.ones((1, 1)), Corpus(np.array(counts)))
    with pytest.raises(ValueError, match=message):
        infer_theta(poly, Corpus(np.array(counts)))


def test_mm_distance_identical_and_permuted():
    rng = np.random.default_rng(2)
    g = rng.gamma(1.0, size=(4, 6))
    poly = TopicPolytope(g / g.sum(axis=1, keepdims=True))
    permuted = TopicPolytope(poly.vertices[[3, 1, 0, 2]])
    assert min_matching_distance(poly, poly) == 0.0
    assert min_matching_distance(poly, permuted) == 0.0


def test_mm_distance_single_pair_arithmetic():
    est = TopicPolytope(np.array([[0.95, 0.05]]))
    truth = TopicPolytope(np.array([[0.05, 0.95]]))
    d = min_matching_distance(est, truth)
    assert np.isclose(d, 0.9 * np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(d, 1.2727922061357857)


def test_mm_distance_extra_topic_penalized_by_bottleneck():
    truth = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    est = TopicPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    # every truth vertex is matched, but the spurious midpoint is not
    assert np.isclose(min_matching_distance(est, truth), np.sqrt(0.5))


def test_mm_distance_symmetric():
    rng = np.random.default_rng(5)
    a = rng.gamma(1.0, size=(3, 5))
    b = rng.gamma(1.0, size=(4, 5))
    pa = TopicPolytope(a / a.sum(axis=1, keepdims=True))
    pb = TopicPolytope(b / b.sum(axis=1, keepdims=True))
    assert min_matching_distance(pa, pb) == min_matching_distance(pb, pa)


def test_mm_distance_validates():
    pa = TopicPolytope(np.array([[0.5, 0.5]]))
    pb = TopicPolytope(np.array([[0.5, 0.25, 0.25]]))
    with pytest.raises(ValueError, match="^estimated polytope has V=2 but the truth has V=3$"):
        min_matching_distance(pa, pb)


def test_infer_theta_recovers_exact_mixture():
    poly = TopicPolytope(np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]))
    heldout = Corpus(np.array([[2, 2, 4, 4]]))  # 1/3 topic 1 + 2/3 topic 2
    theta = infer_theta(poly, heldout)
    assert np.allclose(theta, [[1 / 3, 2 / 3]], atol=1e-8)


def test_infer_theta_vocab_mismatch():
    # infer_theta checks V with perplexity's message; geometric_objective
    # leaves the check to project_rows, whose message names both sizes
    poly = TopicPolytope(np.array([[0.5, 0.5]]))
    corpus = Corpus(np.array([[1, 1, 1]]))
    with pytest.raises(ValueError, match="polytope has V=2 but held-out corpus has V=3"):
        infer_theta(poly, corpus)
    with pytest.raises(ValueError, match=r"V = 2, got shape \(1, 3\)"):
        geometric_objective(normalize(corpus), poly)


def test_bounds_single_doc_arithmetic():
    # one document, counts (3, 1), model p = (1/2, 1/2):
    #   upper slack = 3 ln 1.5 + ln 0.5 - 1/4
    #   lower slack = -3 ln 1.5 - ln 0.5 + 1
    corpus = Corpus(np.array([[3, 1]]))
    rep = check_likelihood_bounds(np.array([[1.0]]), np.array([[0.5, 0.5]]), corpus)
    assert np.isclose(rep.log_likelihood, 4 * np.log(0.5), rtol=1e-12)
    assert np.isclose(rep.normalized_log_likelihood, 3 * np.log(0.75) + np.log(0.25))
    expected_upper = 3 * np.log(1.5) + np.log(0.5) - 0.25
    expected_lower = -3 * np.log(1.5) - np.log(0.5) + 1.0
    assert np.isclose(rep.upper_slack, expected_upper, rtol=1e-12)
    assert np.isclose(rep.lower_slack, expected_lower, rtol=1e-12)
    assert rep.ok


def test_bounds_hold_on_random_instances():
    ok = 0
    for seed in range(25):
        params = LdaParams(
            K=3, V=12, M=8, doc_lengths=(30, 200), alpha=0.5, eta=0.5, seed=seed
        )
        corpus, truth = generate_corpus(params)
        rep = check_likelihood_bounds(truth.theta, truth.beta, corpus)
        ok += rep.ok
    assert ok == 25


def test_bounds_reject_zero_probability_support():
    corpus = Corpus(np.array([[1, 1]]))
    with pytest.raises(ValueError, match="zero probability"):
        check_likelihood_bounds(np.array([[1.0]]), np.array([[1.0, 0.0]]), corpus)


def test_bounds_reject_dimension_mismatch():
    corpus = Corpus(np.array([[1, 1]]))
    with pytest.raises(ValueError, match="mismatch"):
        check_likelihood_bounds(np.ones((3, 1)), np.array([[0.5, 0.5]]), corpus)


def test_spectral_span_zero_for_rank_k_mixtures():
    # documents that are exact two-topic mixtures span a plane, so optimal
    # centroids stay in that plane and the largest principal angle vanishes
    rng = np.random.default_rng(11)
    beta = np.array([[0.5, 0.3, 0.1, 0.1, 0.0], [0.0, 0.1, 0.1, 0.3, 0.5]])
    g = rng.gamma(0.3, size=(9, 2))
    theta = g / g.sum(axis=1, keepdims=True)
    rows = theta @ beta
    data = NormalizedCorpus(rows=rows, weights=rng.integers(1, 5, size=9).astype(float))
    assert spectral_span_check(data, 2) < 1e-8


def test_spectral_span_positive_for_full_rank_noise():
    rng = np.random.default_rng(13)
    g = rng.gamma(1.0, size=(9, 5))
    rows = g / g.sum(axis=1, keepdims=True)
    data = NormalizedCorpus(rows=rows, weights=np.ones(9))
    angle = spectral_span_check(data, 2)
    assert 0.0 < angle <= np.pi / 2


def test_perplexity_matches_counts_weighted_normalization():
    # scaling all counts of a document multiplies its log-likelihood share
    poly = TopicPolytope(np.array([[0.6, 0.4]]))
    theta = np.ones((1, 1))
    r1 = perplexity(poly, theta, Corpus(np.array([[1, 1]])))
    r2 = perplexity(poly, theta, Corpus(np.array([[3, 3]])))
    assert np.isclose(r1.perplexity, r2.perplexity, rtol=1e-12)
    assert r2.total_tokens == 3 * r1.total_tokens
    total_ll = [-r.total_tokens * np.log(r.perplexity) for r in (r1, r2)]
    assert np.isclose(total_ll[1], 3 * total_ll[0])


def test_normalize_then_infer_consistency():
    # inferred theta applied to the vertices reproduces the projected rows
    rng = np.random.default_rng(17)
    g = rng.gamma(0.5, size=(3, 4))
    poly = TopicPolytope(g / g.sum(axis=1, keepdims=True))
    heldout = Corpus(rng.integers(1, 6, size=(5, 4)))
    theta = infer_theta(poly, heldout)
    assert theta.shape == (5, 3)
    assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-8)
    rows = normalize(heldout).rows
    # projections are no farther than any vertex
    proj = theta @ poly.vertices
    d_proj = np.linalg.norm(rows - proj, axis=1)
    for k in range(3):
        d_vert = np.linalg.norm(rows - poly.vertices[k], axis=1)
        assert (d_proj <= d_vert + 1e-9).all()


def test_blocked_gibbs_recovers_separated_topics():
    # three topics, each spreading 0.9 of its mass on its own three words and
    # 0.1 on all nine; the largest MM measured over 5 corpora x 5 chains of
    # 200 sweeps was 0.0126, and beta left at its uniform start is 0.42 away
    beta = np.kron(np.eye(3), np.full(3, 0.3)) + 0.1 / 9
    rng = np.random.default_rng(0)
    theta = rng.dirichlet(np.full(3, 0.1), size=1000)
    corpus = Corpus(np.stack([rng.multinomial(50, p / p.sum()) for p in theta @ beta]))
    for chain in range(3):
        estimate = blocked_gibbs(corpus.counts, 3, 0.1, 0.1, 200, np.random.default_rng(chain))
        assert min_matching_distance(TopicPolytope(estimate), TopicPolytope(beta)) < 0.02
