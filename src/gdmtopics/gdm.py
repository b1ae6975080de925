"""Topic polytope estimators: GDM, tuned GDM, and the nonparametric variant.

The common recipe: cluster the normalized documents (weighted k-means with K
fixed, or weighted DP-means when K is unknown), then push each cluster
centroid outward along the ray from the data center until it reaches the
cluster's covering radius, thresholding and renormalizing whenever the
extended vertex leaves the vocabulary simplex.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .clustering import _sq_dists, fit_dpmeans, fit_kmeans, weighted_means
from .corpus import NormalizedCorpus, _sq_norms, check_integer, check_positive
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
        # the fields hold plain Python values, which model files write as JSON
        for name, low in (("K", 1), ("restarts", 1), ("max_iters", 1), ("seed", 0)):
            if name != "K" or self.K is not None:
                object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        for name in ("weighted_center", "tune"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))
        if (self.K is None) == (self.lam is None):
            raise ValueError("exactly one of K and lam must be given")
        if self.lam is not None:
            object.__setattr__(self, "lam", check_positive("lam", self.lam))
            if self.restarts != GdmConfig.restarts:
                raise ValueError("restarts applies to k-means only; DP-means (lam) has no restarts")


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
        tuned_m = tune_extensions(data, center, clustering.centroids, assignments, extensions)
        tuned = TopicPolytope(extend(center, clustering.centroids, tuned_m))
        tuned_objective = geometric_objective(data, tuned)
        # keep the default extensions if the line searches somehow made G worse
        if tuned_objective <= objective + 1e-9:
            polytope, extensions, objective = tuned, tuned_m, tuned_objective
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


def tune_extensions(data: NormalizedCorpus, center, centroids, assignments, extensions):
    """Line-search each extension scalar m_k > 1 over [1, m_k]; returns the tuned m.

    From the vertices ``extend(center, centroids, extensions)``, clusters go in
    ascending index order; cluster k's geometric objective is minimized by
    bounded scalar search while the other topics stay at their current vertices.
    """
    vertices = extend(center, centroids, extensions)
    extensions = extensions.copy()
    for k in np.flatnonzero(extensions > 1.0 + 1e-12):
        hi = float(extensions[k])
        members = np.flatnonzero(assignments == k)
        sub = NormalizedCorpus(rows=data.csr[members], weights=data.weights[members])

        def g_k(m):
            cand = vertices.copy()
            cand[k] = extend(center, centroids[k, None], [m])
            return geometric_objective(sub, TopicPolytope(cand))

        res = minimize_scalar(g_k, bounds=(1.0, hi), method="bounded", options={"xatol": 1e-4})
        candidates = [(g_k(hi), hi), (float(res.fun), float(res.x)), (g_k(1.0), 1.0)]
        best_m = min(candidates, key=lambda t: t[0])[1]
        extensions[k] = best_m
        vertices[k] = extend(center, centroids[k, None], [best_m])
    return extensions


def _encode(array):
    """``array`` as a model-file field: {"data": base64 of its little-endian
    float64 bytes in C order, "shape": its shape}."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"data": base64.b64encode(array).decode("ascii"), "shape": list(array.shape)}


def save_model(model: GdmModel, path) -> None:
    """Write the model as one line of JSON with sorted keys; each array as ``_encode`` gives it."""
    d = {
        "beta": _encode(model.polytope.vertices),
        "extensions": _encode(model.extensions),
        "radii": _encode(model.radii),
        "objective": model.objective,
        "config": asdict(model.config),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(d, sort_keys=True))
        f.write("\n")


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


def _array_field(d, key, path):
    """Field ``key`` of the model file at ``path`` as a new float64 array,
    decoded from the form ``_encode`` writes; raises ValueError naming the
    file and the field unless the field is an object of exactly a base64
    string ``data`` and a list ``shape`` of integers >= 0, the data being
    8 x prod(shape) bytes of finite values."""
    field, where = d[key], f"model file {path} field {key!r}"
    if isinstance(field, list):
        raise ValueError(f"{where} is a list, the old model format; refit the model")
    if not (
        isinstance(field, dict)
        and sorted(field) == ["data", "shape"]
        and isinstance(field["data"], str)
        and isinstance(field["shape"], list)
    ):
        raise ValueError(f"{where} is not an object of a base64 'data' string and a 'shape' list")
    shape = [check_integer(f"{where} shape entry", n, 0) for n in field["shape"]]
    try:
        raw = base64.b64decode(field["data"], validate=True)
    except ValueError as exc:
        raise ValueError(f"{where} data is not base64 ({exc})") from exc
    size = math.prod(shape)
    if len(raw) != 8 * size:
        raise ValueError(f"{where} data holds {len(raw)} bytes, expected 8 x {size}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{where} holds a value that is not finite")
    return values


def _beta_polytope(values, kind, path):
    """The ``beta`` field of the ``kind`` file at ``path``, decoded to
    ``values``, as a TopicPolytope; its ValueError names the file, the field
    and the array's shape."""
    try:
        return TopicPolytope(values)
    except ValueError as exc:
        raise ValueError(f"{exc} ({kind} file {path} field 'beta', shape {values.shape})") from exc


def load_model(path) -> GdmModel:
    """Read a model file that ``save_model`` wrote; keys that are not GdmModel fields are ignored.

    Raises ValueError, naming the file and any field at fault, for a file
    that is not a JSON object with the five fields, for a field of the
    wrong type (an array field as ``_array_field`` rejects it, a list-form
    array of older files included, or a ``beta`` that is not a matrix of
    topics), or for fields that disagree: extensions or radii not one value
    per topic, an objective that is not one finite number, or a config K
    other than the number of topics.
    """
    d = _read_json_fields(path, "model", ("beta", "extensions", "radii", "objective", "config"))
    try:
        config = GdmConfig(**d["config"])
    except (TypeError, ValueError) as exc:
        message = f"model file {path} field 'config' is not a GdmConfig ({exc}); refit the model"
        raise ValueError(message) from exc
    polytope = _beta_polytope(_array_field(d, "beta", path), "model", path)
    if config.K is not None and config.K != polytope.K:
        message = f"model file {path} field 'config' has K={config.K} but 'beta' has {polytope.K} topics"
        raise ValueError(message)
    per_topic = {key: _array_field(d, key, path) for key in ("extensions", "radii")}
    for key, values in per_topic.items():
        if values.shape != (polytope.K,):
            raise ValueError(
                f"model file {path} field {key!r} has shape {values.shape}, expected ({polytope.K},)"
            )
    objective = _float_field(d, "objective", "model", path)
    if objective.shape != () or not np.isfinite(objective):
        raise ValueError(f"model file {path} field 'objective' is not one finite number")
    return GdmModel(polytope=polytope, objective=float(objective), config=config, **per_topic)
