"""Per-layer metrics of one traced operation, computed from its span tree.

Each operation is one ``bench.op`` root span (fit + eval on one corpus). Every
value below is per operation; the run reports the median over its traced
operations. Times named ``*_s`` are inclusive unless they say ``self``.
``<layer>.self_s`` over all layers sums to ``trace.op_s``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from spans import children_of, has_ancestor, self_time, subtree
from workloads import LAMBDA_GRID

OP_LAYERS = ("bench", "cli", "corpus", "clustering", "geometry", "gdm", "metrics")


def lambda_key(lam: float) -> str:
    return f"clustering.dpmeans_clusters_lam{lam:g}"


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "synth.generate_s": "s",
    "corpus.load_s": "s",
    "corpus.normalize_s": "s",
    "corpus.rows_bytes": "B",
    "corpus.nnz": "count",
    "clustering.kmeans_s": "s",
    "clustering.seed_s": "s",
    "clustering.seed_calls": "count",
    "clustering.lloyd_s": "s",
    "clustering.best_objective": "1",
    "clustering.dpmeans_s": "s",
    **{lambda_key(lam): "count" for lam in LAMBDA_GRID},
    "geometry.project_s": "s",
    "geometry.project_calls": "count",
    "geometry.rows_projected": "count",
    "geometry.rows_per_s": "1/s",
    "geometry.objective_calls": "count",
    "geometry.max_certificate_gap": "1",
    "gdm.fit_self_s": "s",
    "gdm.tune_s": "s",
    "gdm.tune_objective_calls": "count",
    "gdm.save_s": "s",
    "gdm.load_s": "s",
    "metrics.infer_s": "s",
    "metrics.perplexity_s": "s",
    "metrics.floored_entries": "count",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in OP_LAYERS if layer != "cli"},
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def op_values(root, spans) -> dict:
    """Per-layer values of the operation under ``root`` (a ``bench.op`` span)."""
    kids = children_of(spans)
    by_id = {s.span_id: s for s in spans}
    tree = subtree(root, kids)
    incl = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    count = Counter()
    for s in tree:
        st = self_time(s, kids.get(s.span_id, []))
        incl[s.name] += s.duration
        own[s.name] += st
        layer_self[s.layer] += st
        count[s.name] += 1

    def attrs(name, key):
        return [s.attrs[key] for s in tree if s.name == name and key in s.attrs]

    project_s = incl["geometry.project"]
    rows = sum(attrs("geometry.project", "rows"))
    values = {
        "corpus.load_s": incl["corpus.load"],
        "corpus.normalize_s": incl["corpus.normalize"],
        "corpus.rows_bytes": max(attrs("corpus.normalize", "rows_bytes"), default=0),
        "corpus.nnz": max(attrs("corpus.normalize", "nnz"), default=0),
        "clustering.kmeans_s": incl["clustering.kmeans"],
        "clustering.seed_s": incl["clustering.seed"],
        "clustering.seed_calls": count["clustering.seed"],
        "clustering.lloyd_s": own["clustering.kmeans"],
        "clustering.best_objective": min(attrs("clustering.kmeans", "best_objective"), default=0.0),
        "clustering.dpmeans_s": incl["clustering.dpmeans"],
        "geometry.project_s": project_s,
        "geometry.project_calls": count["geometry.project"],
        "geometry.rows_projected": rows,
        "geometry.rows_per_s": rows / project_s if project_s > 0 else 0.0,
        "geometry.objective_calls": count["geometry.objective"],
        "gdm.fit_self_s": own["gdm.fit"],
        "gdm.tune_s": incl["gdm.tune"],
        "gdm.tune_objective_calls": sum(
            1 for s in tree if s.name == "geometry.objective" and has_ancestor(s, "gdm.tune", by_id)
        ),
        "gdm.save_s": incl["gdm.save"],
        "gdm.load_s": incl["gdm.load"],
        "metrics.infer_s": incl["metrics.infer"],
        "metrics.perplexity_s": incl["metrics.perplexity"],
        "metrics.floored_entries": sum(attrs("metrics.perplexity", "floored")),
        "trace.op_s": root.duration,
    }
    clusters = {
        s.attrs["lam"]: s.attrs["clusters"] for s in tree if s.name == "clustering.dpmeans"
    }
    for lam in LAMBDA_GRID:
        values[lambda_key(lam)] = clusters.get(lam, 0)
    for layer in OP_LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return values
