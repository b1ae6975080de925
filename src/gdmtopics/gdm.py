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

from . import geometry
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
    penalty lam * K' (zero for GDM). The default polytope's projection
    gives G, and its weights and squared distances are tuning's first
    round of evaluations.
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
    theta, sq = geometry.project_rows(data, polytope)
    objective = float(np.sum(data.weights * sq))  # geometric_objective's sum
    if config.tune and k > 1:
        del polytope  # freed while tuning runs; the default polytope is formed again if kept
        tuned_m = tune_extensions(data, center, clustering.centroids, assignments, extensions, theta, sq)
        del theta, sq  # freed before the tuned polytope is scored, from a cold start
        tuned = TopicPolytope(extend(center, clustering.centroids, tuned_m))
        tuned_objective = geometric_objective(data, tuned)
        # keep the default extensions if the line searches somehow made G worse
        if tuned_objective <= objective + 1e-9:
            polytope, extensions, objective = tuned, tuned_m, tuned_objective
        else:
            polytope = TopicPolytope(extend(center, clustering.centroids, extensions))
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


def tune_extensions(data: NormalizedCorpus, center, centroids, assignments, extensions, theta, sq):
    """Line-search each extension scalar m_k > 1 over [1, m_k]; returns the tuned m.

    Cluster k's geometric objective g_k over its own rows is minimized by
    a ``_slope_search`` with every other topic at its vertex of
    ``extend(center, centroids, extensions)``: no search sees another's
    result (the Jacobi order), so the tuned m do not depend on the clusters'
    labels. The searches run in lockstep, and each retires on its own.
    Every search starts at its hi, the starting vertices themselves, so the
    first round takes its values and weights from ``theta`` and ``sq``, the
    rows' projection onto those vertices, and solves nothing. Each later
    round is one grouped ``geometry._solve`` over the rows of the clusters
    still searching, the group of cluster k holding its rows and vertex k
    at its search's next m, every row started from its weights of the
    round before, its own search's last evaluation. The starting
    vertices' Gram matrix, the rows' cross terms (one CSR product) and
    each row's largest squared distance to a vertex other than its own,
    floored at 1, are formed once; a round forms only the moved vertices'
    Gram rows, and their cross terms and velocity terms, each one CSR
    product over all the rows.

    By Danskin's theorem the weights may be held fixed for the slope,
    dg_k = sum_m 2 N_m theta_mk (theta_m . (B v') - x_m . v'), where the
    vertex moves with v' = (r' - v sum r') / sum r on the coordinates where
    the ray r = C + m (mu_k - C) is positive, r' = mu_k - C and the sums
    over those coordinates, and not at all where r is clipped.
    """
    tuned = extensions.copy()
    searches = {k: _slope_search(1.0, float(extensions[k])) for k in np.flatnonzero(extensions > 1.0 + 1e-12)}
    if not searches:
        return tuned
    at = {k: next(search) for k, search in searches.items()}  # each search's next m
    X = data.csr
    vertices = extend(center, centroids, extensions)
    BBt = vertices @ vertices.T
    # the rows of the searching clusters, cluster by cluster, and their inputs
    rows = np.concatenate([np.flatnonzero(assignments == k) for k in searches])
    own = assignments[rows]
    BX = (X @ vertices.T)[rows]  # each round overwrites the entries of the rows' own vertices
    xx = _sq_norms(X)[rows]
    d2 = np.diag(BBt) - 2.0 * BX + xx[:, None]
    d2[np.arange(rows.size), own] = 1.0  # the scales are at least 1; a row's own vertex moves
    farthest = d2.max(axis=1)
    del d2, vertices  # each round forms the vertices again, so they are not held through its solve
    solved, sq = theta[rows], sq[rows]  # the first round's evaluations, every search at its hi
    while at:
        ks = np.fromiter(at, dtype=np.intp, count=len(at))  # ascending, as ``own`` runs
        running = np.isin(own, ks)
        if not running.all():  # drop the rows of the searches that retired
            rows, own, BX, xx, farthest, solved = (a[running] for a in (rows, own, BX, xx, farthest, solved))
        group = np.searchsorted(ks, own)
        k = ks[group]  # each row's moved vertex
        m = np.fromiter(at.values(), dtype=np.float64, count=ks.size)
        moved = extend(center, centroids[ks], m)
        velocity = centroids[ks] - center
        raw = center + m[:, None] * velocity
        velocity[raw <= 0.0] = 0.0  # a clipped coordinate does not move
        total = np.maximum(raw, 0.0, out=raw).sum(axis=1, keepdims=True)
        del raw
        velocity -= moved * velocity.sum(axis=1, keepdims=True)
        velocity /= total
        toward = (X @ velocity.T)[rows, group]  # each row's velocity term with its own group's vertex
        vertices = extend(center, centroids, extensions)
        Bv = velocity @ vertices.T  # each group's vertices times its velocity
        Bv[np.arange(ks.size), ks] = np.einsum("ij,ij->i", moved, velocity)
        if sq is None:  # a later round solves, each row from its weights of the round before
            cross = (X @ moved.T)[rows, group]
            BX[np.arange(rows.size), k] = cross
            U = moved @ vertices.T
            U[np.arange(ks.size), ks] = np.einsum("ij,ij->i", moved, moved)
            scales = np.maximum(farthest, U[group, k] - 2.0 * cross + xx)
        del moved, velocity, vertices  # freed before the solve, and before the next round forms its own
        if sq is None:
            solved, sq = geometry._solve(BBt, BX, xx, solved, scales, (group, ks, U))
        along = np.einsum("ij,ij->i", solved, Bv[group]) - toward
        weights = data.weights[rows]
        values = np.bincount(group, weights * sq, ks.size)
        slopes = 2.0 * np.bincount(group, weights * solved[np.arange(rows.size), k] * along, ks.size)
        sq = None  # every later round solves for its own
        for g, kg in enumerate(ks):
            try:
                at[kg] = searches[kg].send((float(values[g]), float(slopes[g])))
            except StopIteration as done:
                tuned[kg] = done.value
                del at[kg]
    return tuned


def _slope_search(lo, hi):
    """A search for the minimum over [lo, hi] of a function f, as a
    generator: it yields each x at which f is wanted, is sent f(x) as
    (value, slope), and returns the evaluated point of least f.

    Both ends are evaluated, hi first. Values that differ by at most
    ``tie``, 1e-12 of the larger end value, are equal, and slopes within
    ``tie`` of 0 are 0. While the slope is negative at lo and not at hi, a
    step goes to the minimizer of the Hermite cubic on the bracket (Nocedal
    & Wright, Numerical Optimization, 2nd ed., eq. 3.59), kept 5 % of the
    bracket inside it, and replaces lo where the slope is negative, else
    hi. The search stops when the bracket is 1e-4 wide or a step lands
    within 1e-4 of an end, which ends the cubic's creep toward a kink of f.
    f need not be unimodal, so the least value evaluated wins, and of equal
    values the least x: where f is flat to rounding, the search closes in
    on the flat stretch's lower end.
    """
    b, (fb, db) = hi, (yield hi)
    a, (fa, da) = lo, (yield lo)
    tie = 1e-12 * max(abs(fa), abs(fb))
    da, db = (0.0 if abs(d) <= tie else d for d in (da, db))
    best_f, best_x = (fa, a) if fa <= fb + tie else (fb, b)
    while da < 0.0 <= db and b - a > 1e-4:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        d2 = math.sqrt(d1 * d1 - da * db)  # da * db <= 0
        x = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
        x = min(max(x, a + 0.05 * (b - a)), b - 0.05 * (b - a))
        fx, dx = yield x
        dx = 0.0 if abs(dx) <= tie else dx
        if fx < best_f - tie or (fx <= best_f + tie and x < best_x):
            best_f, best_x = fx, x
        if min(x - a, b - x) <= 1e-4:
            break
        if dx < 0.0:
            a, fa, da = x, fx, dx
        else:
            b, fb, db = x, fx, dx
    return best_x


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
    _write_json_line(d, path)


def _write_json_line(d, path):
    """Write ``d`` to ``path`` as one line of JSON with sorted keys: the form
    of model and truth files."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(d, sort_keys=True))
        f.write("\n")


def read_json_object(path, kind, fields):
    """The JSON object in the file at ``path``; raises ValueError naming the
    ``kind`` of file, its path and the first missing field unless the file
    holds an object with all of ``fields``. Model, truth and manifest files
    are all read through here."""
    with open(path, "r", encoding="utf-8") as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"{kind} file {path} does not hold a JSON object")
    for key in fields:
        if key not in d:
            raise ValueError(f"{kind} file {path} has no {key!r} field")
    return d


def _float_field(d, key, kind, path):
    """Field ``key`` of the JSON object ``d`` read from the ``kind`` file at
    ``path``, as a float64 array; raises ValueError naming the file and the
    field unless it is a number or a rectangular array of numbers. JSON
    ``null`` reads as NaN; strings and booleans, which numpy would convert
    to float, are rejected."""
    try:
        values = np.asarray(d[key], dtype=object)
        if not set(map(type, values.flat)) <= {int, float, type(None)}:
            raise TypeError("not every entry is a number")
        return values.astype(np.float64)
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


def save_truth(truth, path) -> None:
    """Write the ``GroundTruth`` as a truth file: one line of JSON with sorted
    keys, the generating ``beta`` (K x V) and ``theta`` (M x K) as lists of lists."""
    _write_json_line({"beta": truth.beta.tolist(), "theta": truth.theta.tolist()}, path)


def load_truth(path) -> TopicPolytope:
    """The topics in the ``beta`` field of a truth file, a K x V list of lists as
    ``save_truth`` writes it; raises ValueError naming the file and the field
    unless the file is a JSON object whose ``beta`` is a matrix of topics."""
    d = read_json_object(path, "truth", ("beta",))
    return _beta_polytope(_float_field(d, "beta", "truth", path), "truth", path)


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
    d = read_json_object(path, "model", ("beta", "extensions", "radii", "objective", "config"))
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
