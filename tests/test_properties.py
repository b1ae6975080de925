"""Property-based tests: model serialization, document-order invariance,
the canonical document order, projection certificates and UCI parsing."""

import io
import os
import tempfile
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gdmtopics import geometry
from gdmtopics.clustering import _canonical_order
from gdmtopics.corpus import Corpus, NormalizedCorpus, load_uci_bag_of_words, normalize
from gdmtopics.gdm import (
    GdmConfig,
    GdmModel,
    fit_gdm,
    fit_ngdm,
    load_model,
    save_model,
)
from gdmtopics.geometry import TopicPolytope, project_rows
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import _min_norm_weights, bytes_key_order, count_matrices, same_corpus, two_buffer_certify

_common = dict(
    max_iters=st.integers(1, 10**6),
    weighted_center=st.booleans(),
    tune=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
)
configs = st.one_of(
    st.builds(GdmConfig, K=st.integers(1, 10**4), restarts=st.integers(1, 1000), **_common),
    st.builds(
        GdmConfig,
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
        **_common,
    ),
)


@settings(max_examples=25, deadline=None)
@given(config=configs)
def test_model_file_roundtrips_config(config):
    K = 2 if config.K is None else config.K  # a file must have config.K topics
    vertices = np.tile([0.0, 0.25, 0.75], (K, 1))
    model = GdmModel(
        polytope=TopicPolytope(vertices),
        extensions=np.ones(K),
        radii=np.zeros(K),
        objective=0.0,
        config=config,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        assert load_model(path).config == config


def _model(beta, extensions, radii):
    K = beta.shape[0]
    return GdmModel(
        polytope=TopicPolytope(beta),
        extensions=extensions,
        radii=radii,
        objective=1.0,
        config=GdmConfig(K=K),
    )


@st.composite
def models(draw):
    """Models of K = 1..4 topics whose arrays hold -0.0, subnormals and any finite float."""
    K, V = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    special = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-308, np.nextafter(0.0, 1.0) * 3])
    entries = st.one_of(special, st.floats(0.0, 1.0 / V))
    head = draw(hnp.arrays(np.float64, (K, V - 1), elements=entries))
    beta = np.column_stack([head, 1.0 - head.sum(axis=1)])  # rows on the simplex
    finite = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
    extensions, radii = (draw(hnp.arrays(np.float64, K, elements=finite)) for _ in range(2))
    return _model(beta, extensions, radii)


@settings(max_examples=60, deadline=None)
@given(model=models())
@example(model=_model(np.array([[-0.0, 5e-324, 1.0]]), np.array([-0.0]), np.array([5e-324])))
def test_model_file_roundtrips_arrays_bitwise(model):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")]
        for path in paths:
            save_model(model, path)
        first, second = (open(path, "rb").read() for path in paths)
        # two saves of one model give the same bytes, which a byte-identical rerun rests on
        assert first == second
        loaded = load_model(paths[0])
    for a, b in [
        (loaded.polytope.vertices, model.polytope.vertices),
        (loaded.extensions, model.extensions),
        (loaded.radii, model.radii),
    ]:
        assert a.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert loaded.extensions.flags.writeable and loaded.radii.flags.writeable


def _assert_same_vertices(a, b, atol=1e-12):
    """Every vertex of each set is close to its nearest vertex in the other.
    Sorting the rows would not do: sets equal to 1 ulp can sort apart."""
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(a, b[sq.argmin(axis=1)], atol=atol)
    assert np.allclose(b, a[sq.argmin(axis=0)], atol=atol)


def _two_orders(corpus_seed, perm_seed):
    """A small LDA corpus and the same documents in a shuffled order."""
    params = LdaParams(K=3, V=10, M=40, doc_lengths=(20, 60), alpha=0.3, eta=0.3, seed=corpus_seed)
    data = normalize(generate_corpus(params)[0])
    perm = np.random.default_rng(perm_seed).permutation(data.M)
    return data, NormalizedCorpus(rows=data.rows[perm], weights=data.weights[perm])


@settings(max_examples=6, deadline=None)
@given(
    corpus_seed=st.integers(0, 10**6),
    perm_seed=st.integers(0, 10**6),
    lam=st.sampled_from([0.5, 2.0, 8.0]),
)
@example(corpus_seed=100, perm_seed=0, lam=0.5)
def test_ngdm_invariant_to_document_order(corpus_seed, perm_seed, lam):
    m1, m2 = (fit_ngdm(data, GdmConfig(lam=lam, seed=3)) for data in _two_orders(corpus_seed, perm_seed))
    assert m1.K == m2.K
    _assert_same_vertices(m1.polytope.vertices, m2.polytope.vertices)


@settings(max_examples=6, deadline=None)
@given(corpus_seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6), K=st.integers(1, 4))
def test_gdm_invariant_to_document_order(corpus_seed, perm_seed, K):
    config = GdmConfig(K=K, restarts=2, seed=3)
    m1, m2 = (fit_gdm(data, config) for data in _two_orders(corpus_seed, perm_seed))
    _assert_same_vertices(m1.polytope.vertices, m2.polytope.vertices)
    assert np.isclose(m1.objective, m2.objective, rtol=1e-12)


@pytest.mark.parametrize("corpus_seed", range(12))
def test_tuned_gdm_invariant_to_document_order(corpus_seed):
    # fixed seeds, so that no draw can fail tier-1 at random; each cluster's
    # tuned objective sums over its members in row order, so the two orders
    # agree to rounding only (at most 1.2e-11 apart on these 36 fits)
    for K in (2, 3, 4):
        config = GdmConfig(K=K, restarts=2, seed=3, tune=True)
        m1, m2 = (fit_gdm(data, config) for data in _two_orders(corpus_seed, corpus_seed + 1))
        _assert_same_vertices(m1.polytope.vertices, m2.polytope.vertices, atol=1e-9)
        assert np.isclose(m1.objective, m2.objective, rtol=1e-9)


_row_entries = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 0.1, 0.25, 0.5, 1.0, 2.0, np.nan, -np.nan])


@st.composite
def rows_and_weights(draw):
    """Rows picked from a small pool, so that duplicates are common, with
    signed zeros, subnormals and NaNs, and weights that often tie."""
    V = draw(st.integers(1, 5))
    row = st.lists(_row_entries, min_size=V, max_size=V)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = st.tuples(st.integers(0, len(pool) - 1), st.sampled_from([1.0, 2.0, 2.5, 40.0]))
    drawn = draw(st.lists(picks, max_size=30))
    rows = np.array([pool[i] for i, _ in drawn], dtype=np.float64).reshape(len(drawn), V)
    return rows, np.array([w for _, w in drawn], dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(case=rows_and_weights())
def test_canonical_order_matches_a_sort_on_row_bytes(case):
    # the CSR rows store every entry whose bytes are not all zero, so the
    # signed zeros and NaNs of the dense rows are keyed too
    rows, weights = case
    stored = rows.view(np.uint64) != 0
    indptr = np.r_[0, np.cumsum(stored.sum(axis=1))]
    csr = sp.csr_matrix((rows[stored], np.nonzero(stored)[1], indptr), shape=rows.shape)
    data = SimpleNamespace(csr=csr, weights=weights, M=rows.shape[0])
    assert np.array_equal(_canonical_order(data), bytes_key_order(rows, weights))


@settings(max_examples=300, deadline=None)
@given(counts=count_matrices(), draw=st.data())
def test_canonical_order_of_normalized_rows_matches_a_sort_on_row_bytes(counts, draw):
    # the key read from the CSR rows orders documents as memcmp orders their
    # dense rows; rows are drawn with repeats and weights from two values,
    # so that ties of rows, of weights and of both occur
    data = normalize(Corpus(counts))
    picks = draw.draw(st.lists(st.integers(0, data.M - 1), min_size=1, max_size=3 * data.M))
    tied = st.sampled_from([1.0, 2.0])
    weights = draw.draw(st.lists(tied, min_size=len(picks), max_size=len(picks)))
    data = NormalizedCorpus(rows=data.csr[picks], weights=weights)
    assert np.array_equal(_canonical_order(data), bytes_key_order(data.rows, data.weights))


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
    # the Gram-form gaps the projection certified agree with the word-space oracle
    xx = np.einsum("ij,ij->i", X, X)
    _, gram_gaps, _ = geometry._certify(B @ B.T, X @ B.T, xx, thetas, scale)
    assert (np.abs(gram_gaps - two_buffer_certify(X, B, thetas)[1]) <= 1e-14 * scale).all()
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


@settings(max_examples=60, deadline=None)
@given(
    case=polytopes_and_rows(),
    kind=st.sampled_from(["dirichlet", "one-hot", "cold"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_started_projection_matches_the_cold_one(case, kind, seed):
    # the active set resumes from any weights on the simplex: from full
    # supports (affinely dependent wherever K > V + 1 or the polytope is
    # degenerate), from single vertices other than the nearest, and from the
    # cold answer itself, which it must return; the solve and certificate
    # run on project_rows' own inputs
    poly, X = case
    B = poly.vertices
    cold, cold_sq = project_rows(X, poly)
    rng = np.random.default_rng(seed)
    start = {
        "dirichlet": lambda: rng.dirichlet(np.full(poly.K, 0.5), size=X.shape[0]),
        "one-hot": lambda: np.eye(poly.K)[rng.integers(poly.K, size=X.shape[0])],
        "cold": lambda: cold,
    }[kind]()
    BBt, BX, xx, d2 = geometry._inputs(sp.csr_matrix(X), B)
    start = start / start.sum(axis=1, keepdims=True)  # a new array: the solve overwrites it
    thetas, sq = geometry._solve(BBt, BX, xx, start, np.maximum(1.0, d2.max(axis=1)))
    if kind == "cold":
        # a row at one vertex is kept as it is; a wider support is solved
        # again, and LAPACK's LU of the padded system can differ in the last
        # bits with the batch's width from 4 vertices up
        single = (cold > 0).sum(axis=1) == 1
        assert thetas[single].tobytes() == cold[single].tobytes()
        assert np.allclose(thetas, cold, rtol=0.0, atol=1e-10)
    # word-space certificate of every row, as in the cold test above
    P = thetas @ B
    gaps = ((B[None, :, :] - P[:, None, :]) * (X - P)[:, None, :]).sum(axis=2).max(axis=1)
    scale = np.maximum(1.0, ((B[None, :, :] - X[:, None, :]) ** 2).sum(axis=2).max(axis=1))
    assert (gaps <= 10 * 1e-10 * scale).all()
    assert (thetas >= 0).all() and np.allclose(thetas.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert (np.abs(sq - cold_sq) <= 10 * 1e-10 * scale).all()


@st.composite
def large_simplices_and_face_rows(draw):
    """A simplex of K = 40 or 150 vertices and rows on its faces.

    Each row is drawn on a random face of 1 to 40 vertices and is pushed off
    the hull half of the time, so rows settle at different support sizes:
    the active set's minor rounds mix them, and supports outgrow the first
    width of its index array.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    K = draw(st.sampled_from([40, 150]))
    V = K + draw(st.integers(0, 20))
    M = draw(st.integers(2, 12))
    rng = np.random.default_rng(seed)
    g = rng.gamma(0.5, size=(K, V)) + 1e-12
    B = g / g.sum(axis=1, keepdims=True)
    X = np.empty((M, V))
    for m in range(M):
        face = rng.choice(K, rng.integers(1, 41), replace=False)
        X[m] = rng.dirichlet(np.ones(face.size)) @ B[face]
        if rng.random() < 0.5:
            X[m] += rng.normal(scale=0.02, size=V)
    return TopicPolytope(B), X


@settings(max_examples=30, deadline=None)
@given(case=large_simplices_and_face_rows())
def test_large_k_projection_matches_per_row_exact_solve(case):
    poly, X = case
    B = poly.vertices
    K = B.shape[0]
    thetas, sq = project_rows(X, poly)
    assert np.linalg.matrix_rank(B[1:] - B[0], tol=1e-9) == K - 1  # the weights are unique
    for m, x in enumerate(X):
        G = (B - x) @ (B - x).T
        ref = _min_norm_weights(G, max(1.0, float(np.diag(G).max())), max_iter=100 * K)
        assert abs(sq[m] - float(np.sum((x - ref @ B) ** 2))) <= 1e-12
        assert np.abs(thetas[m] - ref).max() <= 1e-7


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


_number_forms = st.sampled_from(["{}", "+{}", "0{}", "{:_}", "{}.0", "\uff11{}"])
_separators = st.sampled_from([" ", "  ", "\t", "\x0b", "\xa0"])


@st.composite
def formatted_uci_texts(draw):
    """A UCI file with varied number forms, separators and line ends, up to
    two lines replaced by arbitrary ones."""
    D, W = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(1, D), st.integers(1, W), st.integers(1, 2000))
    triples = draw(st.lists(cell, max_size=6))
    lines = [str(D), str(W), str(len(triples))]
    for triple in triples:
        fields = [draw(_number_forms).format(v) for v in triple]
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + "".join(f + draw(_separators) for f in fields[:2]) + fields[2])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        lines[i : i + 1] = [draw(_uci_lines)]
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines)


def _load_outcome(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load_uci_bag_of_words(io.StringIO(text))
        except ValueError as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(uci_texts(), formatted_uci_texts()))
def test_bulk_uci_parse_agrees_with_the_line_parser(text):
    # the bulk parse takes only what the line parser reads the same way: the
    # same corpus, or the same error, and no warning of its own
    bulk, bulk_warnings = _load_outcome(text)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        lines, line_warnings = _load_outcome(text)
    assert bulk_warnings == line_warnings
    if isinstance(bulk, Corpus) and isinstance(lines, Corpus):
        assert same_corpus(bulk, lines)
    else:
        assert bulk == lines
