"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the stated tolerance. Criterion 9 needs the UCI NIPS bag-of-words
corpus on disk and is skipped when it is absent; see the README.
"""

import os
import time

import numpy as np
import pytest

from gdmtopics.cli import main
from gdmtopics.corpus import (
    NormalizedCorpus,
    load_uci_bag_of_words,
    normalize,
    split_holdout,
)
from gdmtopics.gdm import GdmConfig, fit_gdm, fit_ngdm
from gdmtopics.geometry import TopicPolytope
from gdmtopics.metrics import infer_theta, min_matching_distance, perplexity
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import check_likelihood_bounds, grid_project, project_one, spectral_span_check


def _report(n, label, ok):
    print(f"criterion {n:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n:02d} {label} failed"


def test_criterion_01_vertex_recovery_median():
    dists = []
    for seed in range(10):
        params = LdaParams(K=4, V=5, M=5000, doc_lengths=100, alpha=0.1, eta=0.1, seed=seed)
        corpus, truth = generate_corpus(params)
        started = time.perf_counter()
        model = fit_gdm(normalize(corpus), GdmConfig(K=4, seed=seed))
        assert time.perf_counter() - started < 5.0
        dists.append(min_matching_distance(model.polytope, TopicPolytope(truth.beta)))
    med = float(np.median(dists))
    _report(1, f"vertex recovery (median MM {med:.4f} < 0.05)", med < 0.05)


def test_criterion_02_vanishing_alpha_trend():
    started = time.perf_counter()
    medians = []
    for alpha in (1.0, 0.1, 0.01, 0.001):
        dists = []
        for seed in range(10):
            params = LdaParams(
                K=3, V=10, M=500, doc_lengths=100, alpha=alpha, eta=0.1, seed=seed
            )
            _, truth = generate_corpus(params)
            # noiseless regime: the document-level mixture probabilities are the data
            data = NormalizedCorpus(rows=truth.theta @ truth.beta, weights=np.ones(500))
            model = fit_gdm(data, GdmConfig(K=3, seed=seed))
            dists.append(min_matching_distance(model.polytope, TopicPolytope(truth.beta)))
        medians.append(float(np.median(dists)))
    nonincreasing = all(a >= b for a, b in zip(medians, medians[1:]))
    ok = nonincreasing and medians[-1] < 0.02 and time.perf_counter() - started < 120
    _report(2, f"vanishing-alpha trend (medians {np.round(medians, 4).tolist()})", ok)


def test_criterion_03_growing_corpus_trend():
    started = time.perf_counter()
    medians = []
    # Consistency needs both more documents and less noise per document: the
    # covering radius is a maximum over a cluster's documents, so at a fixed
    # document length it reaches farther past the true vertex as M grows.
    # Document length therefore grows with M; see the README's Tests section.
    schedule = ((500, 200), (2000, 800), (8000, 3200))
    for M, N in schedule:
        dists = []
        for seed in range(10):
            params = LdaParams(
                K=5, V=100, M=M, doc_lengths=N, alpha=0.1, eta=0.1, seed=seed
            )
            corpus, truth = generate_corpus(params)
            model = fit_gdm(normalize(corpus), GdmConfig(K=5, seed=seed))
            dists.append(min_matching_distance(model.polytope, TopicPolytope(truth.beta)))
        medians.append(float(np.median(dists)))
    strictly_decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = strictly_decreasing and time.perf_counter() - started < 300
    points = ", ".join(
        f"(M={M}, N={N}): {med:.4f}" for (M, N), med in zip(schedule, medians)
    )
    _report(3, f"growing-corpus trend (medians {points})", ok)


def test_criterion_04_tuned_extension_dominance():
    for seed in range(20):
        params = LdaParams(K=3, V=8, M=60, doc_lengths=40, alpha=0.2, eta=0.3, seed=seed)
        corpus, _ = generate_corpus(params)
        data = normalize(corpus)
        base = fit_gdm(data, GdmConfig(K=3, seed=seed))
        tuned = fit_gdm(data, GdmConfig(K=3, seed=seed, tune=True))
        assert tuned.objective <= base.objective + 1e-9

    # one off-ray outlier inflates the covering radius; pulling the vertex
    # back must strictly improve topic recovery
    rows = np.array(
        [[0.6, 0.2, 0.1, 0.1]] * 3
        + [[0.25, 0.45, 0.2, 0.1]] * 8
        + [[0.2, 0.35, 0.05, 0.4]]
    )
    data = NormalizedCorpus(rows=rows, weights=np.ones(len(rows)))
    truth = TopicPolytope(np.array([[0.6, 0.2, 0.1, 0.1], [0.25, 0.45, 0.2, 0.1]]))
    mm_base = min_matching_distance(
        fit_gdm(data, GdmConfig(K=2, seed=0)).polytope, truth
    )
    mm_tuned = min_matching_distance(
        fit_gdm(data, GdmConfig(K=2, seed=0, tune=True)).polytope, truth
    )
    ok = mm_tuned < mm_base
    _report(4, f"tuned dominance (outlier MM {mm_base:.4f} -> {mm_tuned:.4f})", ok)


def test_criterion_05_likelihood_sandwich():
    started = time.perf_counter()
    holds = 0
    for seed in range(1000):
        params = LdaParams(
            K=3, V=12, M=5, doc_lengths=(100, 300), alpha=1.0, eta=1.0, seed=seed
        )
        corpus, truth = generate_corpus(params)
        rep = check_likelihood_bounds(truth.theta, truth.beta, corpus)
        holds += rep.upper_slack >= -1e-9 and rep.lower_slack >= -1e-9
    ok = holds == 1000 and time.perf_counter() - started < 30
    _report(5, f"likelihood sandwich ({holds}/1000 instances)", ok)


def test_criterion_06_centroid_span_equality():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        M = int(rng.integers(4, 9))
        V = int(rng.integers(3, 6))
        g = rng.gamma(0.4, size=(2, V)) + 1e-12
        beta = g / g.sum(axis=1, keepdims=True)
        g = rng.gamma(0.4, size=(M, 2)) + 1e-12
        theta = g / g.sum(axis=1, keepdims=True)
        data = NormalizedCorpus(
            rows=theta @ beta, weights=rng.integers(1, 6, size=M).astype(float)
        )
        worst = max(worst, spectral_span_check(data, 2))
    ok = worst < 1e-8 and time.perf_counter() - started < 60
    _report(6, f"centroid span equality (max angle {worst:.2e})", ok)


def test_criterion_07_projection_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_gap, worst_dist = 0.0, 0.0
    for _ in range(500):
        K = int(rng.integers(2, 5))
        V = int(rng.integers(3, 7))
        g = rng.gamma(0.5, size=(K, V)) + 1e-12
        poly = TopicPolytope(g / g.sum(axis=1, keepdims=True))
        q = rng.random(V)
        _, point, _, gap = project_one(q, poly)
        _, pt, _ = grid_project(q, poly.vertices, final_step=5e-4)
        worst_gap = max(worst_gap, gap)
        worst_dist = max(worst_dist, float(np.linalg.norm(point - pt)))
    ok = worst_gap < 1e-8 and worst_dist < 2e-3
    _report(
        7,
        f"projection oracle (max gap {worst_gap:.2e}, max deviation {worst_dist:.2e})",
        ok,
    )


def test_criterion_08_nonparametric_model_selection():
    # lam fixed from the sweep documented in the README (gdmtopics lambda-sweep)
    lam = 10.2
    recovered = []
    for seed in range(5):
        params = LdaParams(
            K=15, V=300, M=1000, doc_lengths=500, alpha=0.1, eta=0.1, seed=seed
        )
        corpus, _ = generate_corpus(params)
        model = fit_ngdm(normalize(corpus), GdmConfig(lam=lam, seed=seed))
        recovered.append(model.K)
    hits = sum(k == 15 for k in recovered)
    _report(8, f"model selection (K'={recovered}, {hits}/5 exact)", hits >= 3)


def _nips_path():
    for candidate in (
        os.environ.get("GDMTOPICS_NIPS_DOCWORD", ""),
        os.path.join(os.path.dirname(__file__), "..", "data", "nips", "docword.nips.txt"),
        os.path.join(os.path.dirname(__file__), "..", "data", "nips", "docword.txt"),
    ):
        if candidate and os.path.exists(candidate):
            return candidate
    return None


def test_criterion_09_nips_perplexity():
    path = _nips_path()
    if path is None:
        pytest.skip(
            "UCI NIPS corpus not found; set GDMTOPICS_NIPS_DOCWORD or place "
            "docword.nips.txt under data/nips/ (see README)"
        )
    corpus = load_uci_bag_of_words(path)
    train, heldout = split_holdout(corpus, max(1, corpus.M // 10), seed=0)
    data = normalize(train)
    perps = {}
    for K in (5, 10, 15, 20):
        started = time.perf_counter()
        model = fit_gdm(data, GdmConfig(K=K, restarts=5, seed=0))
        elapsed = time.perf_counter() - started
        if K == 10:
            assert elapsed <= 60.0
        theta = infer_theta(model.polytope, heldout)
        perps[K] = perplexity(model.polytope, theta, heldout).perplexity
    decreasing = all(perps[a] > perps[b] for a, b in ((5, 10), (10, 15), (15, 20)))
    within = abs(perps[10] - 1061.0) / 1061.0 <= 0.15
    _report(9, f"held-out perplexity ({ {k: round(v, 1) for k, v in perps.items()} })",
            decreasing and within)


def test_criterion_10_manifest_determinism(tmp_path, capsys):
    os.environ["OMP_NUM_THREADS"] = "1"
    sim_dir = str(tmp_path / "sim")
    rc = main(
        [
            "simulate", "--K", "3", "--V", "10", "--M", "50", "--Nm", "80",
            "--alpha", "0.1", "--eta", "0.1", "--seed", "4", "--out", sim_dir,
        ]
    )
    assert rc == 0
    model_path = str(tmp_path / "model.json")
    rc = main(["fit", "--algo", "gdm", "--K", "3", "--in", sim_dir, "--out", model_path])
    assert rc == 0
    docword = open(os.path.join(sim_dir, "docword.txt"), "rb").read()
    model = open(model_path, "rb").read()

    os.environ["OMP_NUM_THREADS"] = "4"
    os.remove(model_path)
    assert main(["rerun", model_path + ".manifest.json"]) == 0
    same_model = open(model_path, "rb").read() == model
    os.remove(os.path.join(sim_dir, "docword.txt"))
    assert main(["rerun", os.path.join(sim_dir, "manifest.json")]) == 0
    same_docword = open(os.path.join(sim_dir, "docword.txt"), "rb").read() == docword
    os.environ.pop("OMP_NUM_THREADS", None)
    _report(10, "manifest determinism across thread counts", same_model and same_docword)
