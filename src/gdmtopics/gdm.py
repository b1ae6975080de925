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
from numbers import Real

import numpy as np
from scipy.optimize import minimize_scalar

from .clustering import _sq_dists, fit_dpmeans, fit_kmeans, weighted_means
from .corpus import NormalizedCorpus, _sq_norms, check_integer
from .geometry import TopicPolytope, geometric_objective

_DEGENERATE_EPS = 1e-12


class DegenerateClusterError(ValueError):
    """A cluster centroid coincides with the data center; no extension ray exists."""


@dataclass(frozen=True)
class GdmConfig:
    """Estimator configuration; give K for GDM/tGDM or lam for nGDM, not both.

    ``restarts`` counts k-means restarts; with ``lam`` it keeps its default.
    """

    K: int | None = None
    restarts: int = 10
    max_iters: int = 1500
    weighted_center: bool = True
    tune: bool = False
    lam: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("K", "restarts", "max_iters", "seed"):
            if name != "K" or self.K is not None:
                check_integer(name, getattr(self, name))
        for name in ("weighted_center", "tune"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if (self.K is None) == (self.lam is None):
            raise ValueError("exactly one of K and lam must be given")
        if isinstance(self.lam, bool) or not isinstance(self.lam, (Real, type(None))):
            raise ValueError(f"lam must be a real number, got {self.lam!r}")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be >= 1")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.lam is not None and self.restarts != GdmConfig.restarts:
            raise ValueError("restarts applies to k-means only; DP-means (lam) has no restarts")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def default_extensions(data: NormalizedCorpus, center, centroids, assignments):
    """Covering radii R_k and extension scalars m_k = R_k / ||C - mu_k||.

    R_k is the largest distance from the center C to a document of cluster k
    (0 for an empty cluster), each distance sqrt(||x||^2 - 2 x . C + ||C||^2)
    taken from the stored entries of the rows. A single cluster keeps
    m = 1: the topic minimizing G is the weighted mean, which is its centroid.
    """
    center = np.asarray(center, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    to_center = np.sqrt(_sq_dists(data.csr, _sq_norms(data.csr), center[None, :]).ravel())
    radii = np.zeros(centroids.shape[0])
    np.maximum.at(radii, assignments, to_center)
    if centroids.shape[0] == 1:
        return radii, np.ones(1)
    dists = np.linalg.norm(centroids - center, axis=1)
    bad = np.flatnonzero(dists <= _DEGENERATE_EPS)
    if bad.size:
        raise DegenerateClusterError(
            f"cluster {int(bad[0])} has centroid equal to the data center; "
            "reduce the number of topics"
        )
    return radii, radii / dists


def extend(center, centroids, m) -> np.ndarray:
    """Vertices C + m_k (mu_k - C), thresholded back onto the simplex.

    Negative coordinates are zeroed and every row is divided by its sum.
    """
    center = np.asarray(center, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    raw = center + m[:, None] * (centroids - center)
    np.maximum(raw, 0.0, out=raw)
    total = raw.sum(axis=1, keepdims=True)
    if not (total > 0.0).all():
        raise ValueError("extended vertex lost all mass; inputs were not on the simplex")
    return raw / total


def _fit(data: NormalizedCorpus, config: GdmConfig) -> GdmModel:
    """Cluster, extend each centroid to its covering radius, then tune.

    Weighted k-means clusters when ``config.K`` is set, DP-means when
    ``config.lam`` is; both take the documents in an order of their own, so
    the model does not depend on the order of the rows. The data
    center, centroids and assignments are working state of this fit and are
    not kept on the model. The reported objective is G plus the nGDM
    penalty lam * K' (zero for GDM).
    """
    rng = np.random.default_rng(config.seed)
    if config.K is not None:
        clustering = fit_kmeans(data, config.K, config.restarts, config.max_iters, rng)
    else:
        clustering = fit_dpmeans(data, config.lam, config.max_iters, rng)
    assignments = clustering.assignments
    k = clustering.n_clusters
    weights = data.weights if config.weighted_center else np.ones(data.M)
    center = weighted_means(data.csr, weights, np.zeros(data.M, dtype=np.intp), 1)[0]
    radii, extensions = default_extensions(data, center, clustering.centroids, assignments)
    polytope = TopicPolytope(extend(center, clustering.centroids, extensions))
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
    return _fit(data, config)


def fit_ngdm(data: NormalizedCorpus, config: GdmConfig) -> GdmModel:
    """Nonparametric GDM: DP-means picks the topic count, correction as in GDM.

    The reported objective includes the lam * K' penalty.
    """
    if config.lam is None:
        raise ValueError("fit_ngdm needs config.lam")
    return _fit(data, config)


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
        hi = float(extensions[k])
        if hi <= 1.0 + 1e-12:
            continue
        members = np.flatnonzero(assignments == k)
        sub = NormalizedCorpus(rows=data.csr[members], weights=data.weights[members])

        def g_k(m, _k=k, _sub=sub):
            cand = vertices.copy()
            cand[_k] = extend(center, centroids[_k, None], [m])
            return geometric_objective(_sub, TopicPolytope(cand))

        res = minimize_scalar(g_k, bounds=(1.0, hi), method="bounded", options={"xatol": 1e-4})
        candidates = [(g_k(hi), hi), (float(res.fun), float(res.x)), (g_k(1.0), 1.0)]
        best_m = min(candidates, key=lambda t: t[0])[1]
        extensions[k] = best_m
        vertices[k] = extend(center, centroids[k, None], [best_m])
        del sub, g_k  # free the row subset before the next one and the final objective
    tuned = TopicPolytope(vertices)
    return tuned, extensions, geometric_objective(data, tuned)


def save_model(model: GdmModel, path) -> None:
    """Write the model as one line of JSON with sorted keys."""
    d = {
        "beta": model.polytope.vertices.tolist(),
        "extensions": model.extensions.tolist(),
        "radii": model.radii.tolist(),
        "objective": model.objective,
        "config": asdict(model.config),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(d, sort_keys=True) + "\n")


def _read_json_fields(path, kind, fields):
    """The JSON object in the file at ``path``; raises ValueError naming the
    ``kind`` of file, its path and the first missing field unless the file
    holds an object with all of ``fields``."""
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"{kind} file {path} does not hold a JSON object")
    for key in fields:
        if key not in d:
            raise ValueError(f"{kind} file {path} has no {key!r} field")
    return d


def _holds_str_or_bool(value):
    """Whether a value parsed from JSON is, or nests in its lists, a string or
    a boolean: values numpy would convert to float although they are not numbers."""
    if isinstance(value, list):
        kinds = set(map(type, value))
        return bool(kinds & {str, bool}) or (list in kinds and any(map(_holds_str_or_bool, value)))
    return isinstance(value, (str, bool))


def _float_field(d, key, kind, path):
    """Field ``key`` of the JSON object ``d`` read from the ``kind`` file at
    ``path``, as a float64 array; raises ValueError naming the file and the
    field unless it is a number or a rectangular array of numbers."""
    try:
        if _holds_str_or_bool(d[key]):
            raise TypeError("a string or boolean is not a number")
        return np.asarray(d[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "a number or a rectangular array of numbers"
        raise ValueError(f"{kind} file {path} field {key!r} is not {expected}") from exc


def load_model(path) -> GdmModel:
    """Read a model file; keys of older files that are not GdmModel fields are ignored.

    Raises ValueError, naming the file or field, for a file that is not a
    JSON object with the five fields, for a field of the wrong type, or for
    fields that disagree: extensions or radii not one finite value per
    topic, an objective that is not one finite number, or a config K other
    than the number of topics.
    """
    d = _read_json_fields(path, "model", ("beta", "extensions", "radii", "objective", "config"))
    try:
        config = GdmConfig(**d["config"])
    except (TypeError, ValueError) as exc:
        message = f"model file {path} field 'config' is not a GdmConfig ({exc}); refit the model"
        raise ValueError(message) from exc
    polytope = TopicPolytope(_float_field(d, "beta", "model", path))
    if config.K is not None and config.K != polytope.K:
        raise ValueError(f"model config K={config.K} but beta has {polytope.K} topics")
    per_topic = {key: _float_field(d, key, "model", path) for key in ("extensions", "radii")}
    for key, values in per_topic.items():
        if values.shape != (polytope.K,):
            raise ValueError(f"model {key} has shape {values.shape}, expected ({polytope.K},)")
        if not np.isfinite(values).all():
            raise ValueError(f"model file {path} field {key!r} holds a value that is not finite")
    objective = _float_field(d, "objective", "model", path)
    if objective.shape != () or not np.isfinite(objective):
        raise ValueError(f"model file {path} field 'objective' is not one finite number")
    return GdmModel(polytope=polytope, objective=float(objective), config=config, **per_topic)
