"""Property-based tests: model serialization, document-order invariance,
projection certificates and UCI parsing."""

import io
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmtopics.corpus import NormalizedCorpus, load_uci_bag_of_words, normalize
from gdmtopics.gdm import GdmConfig, GdmModel, fit_gdm, fit_ngdm, load_model, save_model
from gdmtopics.geometry import TopicPolytope, project_rows
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import _min_norm_weights

_common = dict(
    restarts=st.integers(1, 1000),
    max_iters=st.integers(1, 10**6),
    weighted_center=st.booleans(),
    tune=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
)
configs = st.one_of(
    st.builds(GdmConfig, K=st.integers(1, 10**4), **_common),
    st.builds(
        GdmConfig,
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
        **_common,
    ),
)


@settings(max_examples=25, deadline=None)
@given(config=configs)
def test_model_file_roundtrips_config(config):
    vertices = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]])
    model = GdmModel(
        polytope=TopicPolytope(vertices),
        extensions=np.ones(2),
        radii=np.zeros(2),
        objective=0.0,
        config=config,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        assert load_model(path).config == config


@settings(max_examples=6, deadline=None)
@given(
    corpus_seed=st.integers(0, 10**6),
    perm_seed=st.integers(0, 10**6),
    lam=st.sampled_from([0.5, 2.0, 8.0]),
)
def test_ngdm_invariant_to_document_order(corpus_seed, perm_seed, lam):
    params = LdaParams(K=3, V=10, M=40, doc_lengths=(20, 60), alpha=0.3, eta=0.3, seed=corpus_seed)
    data = normalize(generate_corpus(params)[0])
    perm = np.random.default_rng(perm_seed).permutation(data.M)
    shuffled = NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])
    m1 = fit_ngdm(data, GdmConfig(lam=lam, seed=3))
    m2 = fit_ngdm(shuffled, GdmConfig(lam=lam, seed=3))
    assert m1.K == m2.K
    assert np.allclose(
        sorted(map(tuple, m1.polytope.vertices)),
        sorted(map(tuple, m2.polytope.vertices)),
        atol=1e-12,
    )


@settings(max_examples=6, deadline=None)
@given(corpus_seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6), K=st.integers(1, 4))
def test_gdm_invariant_to_document_order(corpus_seed, perm_seed, K):
    params = LdaParams(K=3, V=10, M=40, doc_lengths=(20, 60), alpha=0.3, eta=0.3, seed=corpus_seed)
    data = normalize(generate_corpus(params)[0])
    perm = np.random.default_rng(perm_seed).permutation(data.M)
    shuffled = NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])
    m1 = fit_gdm(data, GdmConfig(K=K, restarts=2, seed=3))
    m2 = fit_gdm(shuffled, GdmConfig(K=K, restarts=2, seed=3))
    assert np.allclose(
        sorted(map(tuple, m1.polytope.vertices)),
        sorted(map(tuple, m2.polytope.vertices)),
        atol=1e-12,
    )
    assert np.isclose(m1.objective, m2.objective, rtol=1e-12)


@st.composite
def polytopes_and_rows(draw):
    """A random polytope, optionally made degenerate, and query rows.

    K is small (1-5), near 48 (46-51) or between 100 and 140, the ranges
    where earlier versions switched solvers or left most rows to a per-row
    solve; V exceeds K half of the time, so both full-dimensional and flat
    hulls occur.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    K = draw(st.one_of(st.integers(1, 5), st.integers(46, 51), st.integers(100, 140)))
    V = draw(st.integers(2, 8)) + (K if draw(st.booleans()) else 0)
    M = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    g = rng.gamma(0.5, size=(K, V)) + 1e-12
    B = g / g.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["random", "duplicate", "midpoint"]))
    if kind == "duplicate":
        B = np.vstack([B, B[-1]])
    elif kind == "midpoint" and K >= 2:
        B = np.vstack([B, 0.5 * (B[0] + B[1])])
    # queries on and off the vocabulary simplex, and queries at a vertex
    X = np.vstack(
        [
            rng.dirichlet(np.full(V, 0.5), size=M),
            rng.random((M, V)) * 2.0 - 0.5,
            B[rng.integers(B.shape[0], size=2)],
        ]
    )
    return TopicPolytope(B), X


@settings(max_examples=60, deadline=None)
@given(case=polytopes_and_rows())
def test_projection_certified_on_random_and_degenerate_polytopes(case):
    poly, X = case
    B = poly.vertices
    thetas, sq = project_rows(X, poly)
    assert (thetas >= 0).all()
    assert np.allclose(thetas.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # word-space certificate recomputed here: max_k (b_k - p) . (x - p)
    P = thetas @ B
    gaps = ((B[None, :, :] - P[:, None, :]) * (X - P)[:, None, :]).sum(axis=2).max(axis=1)
    scale = np.maximum(1.0, ((B[None, :, :] - X[:, None, :]) ** 2).sum(axis=2).max(axis=1))
    assert (gaps <= 10 * 1e-10 * scale).all()
    for m, x in enumerate(X):
        # one row alone agrees with its row of the batch to rounding only,
        # since BLAS takes a different kernel for a single row (and a
        # duplicated vertex may swap weight)
        theta1, sq1 = project_rows(x[None, :], poly)
        assert np.isclose(sq1[0], sq[m], rtol=0.0, atol=1e-10)
        assert np.allclose(theta1[0] @ B, P[m], rtol=0.0, atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(case=polytopes_and_rows())
def test_batched_projection_matches_per_row_exact_solve(case):
    poly, X = case
    B = poly.vertices
    K = B.shape[0]
    thetas, sq = project_rows(X, poly)
    affine_rank = np.linalg.matrix_rank(B[1:] - B[0], tol=1e-9) if K > 1 else 0
    for m, x in enumerate(X):
        # the min-norm-point active set on this row alone is the reference
        G = (B - x) @ (B - x).T
        ref = _min_norm_weights(G, max(1.0, float(np.diag(G).max())), max_iter=100 * K)
        ref_sq = float(np.sum((x - ref @ B) ** 2))
        assert abs(sq[m] - ref_sq) <= 1e-12
        if affine_rank == K - 1:  # a simplex: the weights are unique
            assert np.allclose(thetas[m], ref, rtol=0.0, atol=1e-7)
        # the returned active set is affinely independent
        active = np.flatnonzero(thetas[m] > 1e-9)
        diffs = B[active[1:]] - B[active[0]]
        assert np.linalg.matrix_rank(diffs, tol=1e-9) == active.size - 1


_uci_ints = st.one_of(st.integers(-2, 6), st.integers(-2, 10**22))
_uci_lines = st.one_of(
    st.lists(_uci_ints, min_size=3, max_size=3).map(lambda v: " ".join(map(str, v))),
    _uci_ints.map(str),
    st.text(max_size=12),
)


@st.composite
def uci_texts(draw):
    """A valid UCI file with up to three lines replaced by arbitrary ones."""
    D, W = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(1, D), st.integers(1, W), st.integers(1, 9))
    triples = draw(st.lists(cell, max_size=6))
    lines = [str(D), str(W), str(len(triples))] + [f"{d} {w} {c}" for d, w, c in triples]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines[i : i + 1] = [draw(_uci_lines)]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=uci_texts())
def test_uci_parser_loads_or_raises_value_error(text):
    # CorpusError is a ValueError, and cli.main maps both to exit 1; anything
    # else (MemoryError, IndexError, OverflowError) fails here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            corpus = load_uci_bag_of_words(io.StringIO(text))
        except ValueError:
            return
    assert corpus.M >= 1 and (corpus.lengths >= 1).all()
