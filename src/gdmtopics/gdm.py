"""Topic polytope estimators: GDM, tuned GDM, and the nonparametric variant.

The common recipe: cluster the normalized documents (weighted k-means with K
fixed, or weighted DP-means when K is unknown), then push each cluster
centroid outward along the ray from the data center until it reaches the
cluster's covering radius, thresholding and renormalizing whenever the
extended vertex leaves the vocabulary simplex.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .clustering import fit_dpmeans, fit_kmeans
from .corpus import NormalizedCorpus
from .geometry import TopicPolytope, geometric_objective

_DEGENERATE_EPS = 1e-12


class DegenerateClusterError(ValueError):
    """A cluster centroid coincides with the data center; no extension ray exists."""


@dataclass(frozen=True)
class GdmConfig:
    """Estimator configuration; give K for GDM/tGDM or lam for nGDM, not both."""

    K: int | None = None
    restarts: int = 10
    max_iters: int = 1500
    weighted_center: bool = True
    tune: bool = False
    lam: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.K is None) == (self.lam is None):
            raise ValueError("exactly one of K and lam must be given")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be >= 1")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class GdmModel:
    """A fitted topic polytope: exactly what a model file stores."""

    polytope: TopicPolytope
    extensions: np.ndarray
    radii: np.ndarray
    objective: float
    config: GdmConfig

    @property
    def K(self) -> int:
        return self.polytope.K


def default_extensions(center, centroids, radii) -> np.ndarray:
    """Per-cluster extension scalars m_k = R_k / ||C - mu_k||."""
    center = np.asarray(center, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    dists = np.linalg.norm(centroids - center, axis=1)
    bad = np.flatnonzero(dists <= _DEGENERATE_EPS)
    if bad.size:
        raise DegenerateClusterError(
            f"cluster {int(bad[0])} has centroid equal to the data center; "
            "reduce the number of topics"
        )
    return radii / dists


def extend_and_threshold(center, centroid, m: float) -> np.ndarray:
    """Extend the ray C + m (mu - C) and clip back onto the simplex.

    When the raw extension has negative coordinates, those are zeroed and the
    remaining mass renormalized; otherwise the raw extension is returned.
    """
    center = np.asarray(center, dtype=np.float64)
    centroid = np.asarray(centroid, dtype=np.float64)
    raw = center + m * (centroid - center)
    if raw.min() >= 0.0:
        return raw
    clipped = np.where(raw > 0.0, raw, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("extended vertex lost all mass; inputs were not on the simplex")
    return clipped / total


def _canonical_order(data: NormalizedCorpus) -> np.ndarray:
    """Document ordering independent of input row order.

    Clustering consumes documents in this order so that permuting the corpus
    (with matching weights) reproduces the same model for a fixed seed.
    """
    keys = sorted(
        range(data.M),
        key=lambda m: (data.weights[m], data.rows[m].tobytes()),
    )
    return np.asarray(keys, dtype=np.int64)


def _data_center(data: NormalizedCorpus, weighted: bool) -> np.ndarray:
    if weighted:
        return np.average(data.rows, axis=0, weights=data.weights)
    return data.rows.mean(axis=0)


def _cluster_radii(data: NormalizedCorpus, center, assignments, k) -> np.ndarray:
    d = np.linalg.norm(data.rows - center, axis=1)
    radii = np.zeros(k)             # an empty cluster keeps radius 0
    np.maximum.at(radii, assignments, d)
    return radii


def _fit(data: NormalizedCorpus, config: GdmConfig, cluster) -> GdmModel:
    """Cluster in canonical order, extend each centroid to its covering radius, then tune.

    ``cluster(ordered_data, rng)`` returns the ClusteringResult of the
    reordered documents. The data center, centroids and assignments are
    working state of this fit and are not kept on the model. The reported
    objective is G plus the nGDM penalty lam * K' (zero for GDM).
    """
    order = _canonical_order(data)
    # the reordered copy is not bound, so it is freed once clustering returns
    clustering = cluster(
        NormalizedCorpus(rows=data.rows[order], weights=data.weights[order]),
        np.random.default_rng(config.seed),
    )
    assignments = np.empty(data.M, dtype=np.int64)
    assignments[order] = clustering.assignments
    k = clustering.n_clusters
    center = _data_center(data, config.weighted_center)
    radii = _cluster_radii(data, center, assignments, k)
    if k == 1:
        # a single topic minimizing G is the weighted mean, whatever the center
        extensions = np.ones(1)
        vertices = _data_center(data, True)[None, :]
    else:
        extensions = default_extensions(center, clustering.centroids, radii)
        vertices = np.stack(
            [extend_and_threshold(center, c, m) for c, m in zip(clustering.centroids, extensions)]
        )
    polytope = TopicPolytope(vertices / vertices.sum(axis=1, keepdims=True))
    objective = geometric_objective(data, polytope)
    if config.tune and k > 1:
        tuned, tuned_extensions, tuned_objective = tune_extensions(
            data, center, clustering.centroids, assignments, polytope, extensions
        )
        # keep the default extensions if the line searches somehow made G worse
        if tuned_objective <= objective + 1e-9:
            polytope, extensions, objective = tuned, tuned_extensions, tuned_objective
    return GdmModel(
        polytope=polytope,
        extensions=extensions,
        radii=radii,
        objective=objective + (0.0 if config.lam is None else config.lam * k),
        config=config,
    )


def fit_gdm(data: NormalizedCorpus, config: GdmConfig) -> GdmModel:
    """Geometric Dirichlet Means: weighted k-means plus vertex extension."""
    if config.K is None:
        raise ValueError("fit_gdm needs config.K; use fit_ngdm for the penalized variant")
    if config.K > data.M:
        raise ValueError(f"K={config.K} exceeds the number of documents M={data.M}")
    return _fit(
        data,
        config,
        lambda ordered, rng: fit_kmeans(ordered, config.K, config.restarts, config.max_iters, rng),
    )


def fit_ngdm(data: NormalizedCorpus, config: GdmConfig) -> GdmModel:
    """Nonparametric GDM: DP-means picks the topic count, correction as in GDM.

    The reported objective includes the lam * K' penalty.
    """
    if config.lam is None:
        raise ValueError("fit_ngdm needs config.lam")
    return _fit(
        data, config, lambda ordered, rng: fit_dpmeans(ordered, config.lam, config.max_iters, rng)
    )


def tune_extensions(
    data: NormalizedCorpus, center, centroids, assignments, polytope: TopicPolytope, extensions
):
    """Line-search each extension scalar over [1, default m_k].

    Clusters are visited in ascending index order; cluster k's per-cluster
    geometric objective is minimized by bounded scalar search while the other
    topics stay at their current vertices. Returns the tuned polytope, its
    extensions and its objective G over all of ``data``.
    """
    vertices = polytope.vertices.copy()
    extensions = extensions.copy()
    for k in range(polytope.K):
        members = np.flatnonzero(assignments == k)
        if members.size == 0:
            continue
        sub = NormalizedCorpus(rows=data.rows[members], weights=data.weights[members])

        def g_k(m, _k=k, _sub=sub):
            cand = vertices.copy()
            v = extend_and_threshold(center, centroids[_k], m)
            cand[_k] = v / v.sum()
            return geometric_objective(_sub, TopicPolytope(cand))

        hi = float(extensions[k])
        if hi <= 1.0 + 1e-12:
            continue
        res = minimize_scalar(g_k, bounds=(1.0, hi), method="bounded", options={"xatol": 1e-4})
        candidates = [(g_k(hi), hi), (float(res.fun), float(res.x)), (g_k(1.0), 1.0)]
        best_m = min(candidates, key=lambda t: t[0])[1]
        extensions[k] = best_m
        v = extend_and_threshold(center, centroids[k], best_m)
        vertices[k] = v / v.sum()
    tuned = TopicPolytope(vertices)
    return tuned, extensions, geometric_objective(data, tuned)


def model_to_dict(model: GdmModel) -> dict:
    return {
        "beta": model.polytope.vertices.tolist(),
        "extensions": model.extensions.tolist(),
        "radii": model.radii.tolist(),
        "objective": model.objective,
        "config": asdict(model.config),
    }


def save_model(model: GdmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=1, sort_keys=True)
        f.write("\n")


def load_model(path) -> GdmModel:
    """Read a model file; keys of older files that are not GdmModel fields are ignored."""
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    try:
        config = GdmConfig(**d["config"])
    except TypeError as exc:
        raise ValueError(f"model config does not match GdmConfig ({exc}); refit the model") from exc
    beta = np.asarray(d["beta"], dtype=np.float64)
    return GdmModel(
        polytope=TopicPolytope(beta),
        extensions=np.asarray(d["extensions"]),
        radii=np.asarray(d["radii"]),
        objective=float(d["objective"]),
        config=config,
    )
