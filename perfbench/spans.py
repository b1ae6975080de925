"""In-memory spans recorded around calls into the gdmtopics modules.

A span is (name, start, end, parent, attrs). The tracer wraps library
functions at the module attribute their caller looks up: ``from .x import y``
copies ``y`` into the importing module, so ``gdm.fit_kmeans`` and
``clustering.fit_kmeans`` are two names for one function and only the first
is on the path ``fit_gdm`` takes. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _record_kmeans(span, args, kwargs, result):
    span.attrs["best_objective"] = float(result.objective)


def _record_dpmeans(span, args, kwargs, result):
    span.attrs["lam"] = float(args[1] if len(args) > 1 else kwargs["lam"])
    span.attrs["clusters"] = int(result.n_clusters)


def _record_project(span, args, kwargs, result):
    span.attrs["rows"] = int(len(args[0]))


def _record_normalize(span, args, kwargs, result):
    span.attrs["nnz"] = int(args[0].counts.nnz)
    span.attrs["rows_bytes"] = int(result.rows.nbytes + result.weights.nbytes)


def _record_perplexity(span, args, kwargs, result):
    span.attrs["floored"] = int(result.floored_entries)


# (module, attribute, span name, recorder): every public function on the
# paths the workloads take, at each name a caller looks it up by.
TARGETS = (
    ("synth", "generate_corpus", "synth.generate", None),
    ("corpus", "split_holdout", "corpus.split", None),
    ("corpus", "save_uci_bag_of_words", "corpus.save", None),
    ("corpus", "normalize", "corpus.normalize", _record_normalize),
    ("cli", "load_uci_bag_of_words", "corpus.load", None),
    ("cli", "normalize", "corpus.normalize", _record_normalize),
    ("metrics", "normalize", "corpus.normalize", _record_normalize),
    ("gdm", "fit_kmeans", "clustering.kmeans", _record_kmeans),
    ("clustering", "kmeanspp_init", "clustering.seed", None),
    ("gdm", "fit_dpmeans", "clustering.dpmeans", _record_dpmeans),
    ("geometry", "project_rows", "geometry.project", _record_project),
    ("metrics", "project_rows", "geometry.project", _record_project),
    ("gdm", "geometric_objective", "geometry.objective", None),
    ("gdm", "fit_gdm", "gdm.fit", None),
    ("gdm", "fit_ngdm", "gdm.fit", None),
    ("gdm", "tune_extensions", "gdm.tune", None),
    ("cli", "fit_gdm", "gdm.fit", None),
    ("cli", "fit_ngdm", "gdm.fit", None),
    ("cli", "save_model", "gdm.save", None),
    ("cli", "load_model", "gdm.load", None),
    ("metrics", "infer_theta", "metrics.infer", None),
    ("metrics", "perplexity", "metrics.perplexity", _record_perplexity),
    ("metrics", "min_matching_distance", "metrics.mm_distance", None),
    ("cli", "infer_theta", "metrics.infer", None),
    ("cli", "perplexity", "metrics.perplexity", _record_perplexity),
    ("cli", "min_matching_distance", "metrics.mm_distance", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans for one benchmark run (one workload, one seed)."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent, attrs=dict(attrs))
        self.spans.append(s)
        self._stack.append(s.span_id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, recorder=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if recorder is not None:
                    recorder(s, args, kwargs, result)
                return result

        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Replace every TARGETS attribute with a tracing wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, recorder in TARGETS:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, recorder))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "workload": self.workload,
                            "run_id": self.run_id,
                            "span_id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "attrs": s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def children_of(spans) -> dict:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: list[Span]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    covered = 0.0
    cursor = span.start
    for c in sorted(kids, key=lambda c: c.start):
        lo = max(c.start, cursor)
        hi = min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def subtree(root: Span, kids: dict) -> list[Span]:
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.span_id, ()))
    return out


def has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False
