"""Property-based tests: model serialization and document-order invariance."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdmtopics.corpus import NormalizedCorpus, normalize
from gdmtopics.gdm import GdmConfig, GdmModel, fit_ngdm, load_model, save_model
from gdmtopics.geometry import TopicPolytope
from gdmtopics.synth import LdaParams, generate_corpus

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
        center=vertices.mean(axis=0),
        centroids=vertices.copy(),
        extensions=np.ones(2),
        radii=np.zeros(2),
        objective=0.0,
        config=config,
        assignments=np.zeros(0, dtype=np.int64),
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
