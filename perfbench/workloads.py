"""The three benchmark workloads: shapes, set-up, the timed fit/eval pair, checks.

Every timed library call goes through a module attribute (``gdm.fit_gdm``,
not a name imported here) so that a traced run sees it. The checks use the
``_check_*`` functions bound at import time, before any tracing patch, and
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from gdmtopics import cli, clustering, corpus, gdm, geometry, metrics, synth
from gdmtopics.corpus import normalize as _check_normalize
from gdmtopics.gdm import load_model as _check_load_model
from gdmtopics.geometry import TopicPolytope
from gdmtopics.metrics import infer_theta as _check_infer_theta
from gdmtopics.metrics import min_matching_distance as _check_mm_distance

import checks

MODULES = {
    "cli": cli,
    "clustering": clustering,
    "corpus": corpus,
    "gdm": gdm,
    "geometry": geometry,
    "metrics": metrics,
    "synth": synth,
}

LAMBDA_GRID = (2.0, 4.0, 8.0, 10.2, 16.0, 32.0)
REPORTED_LAMBDA = 10.2  # the README's calibrated penalty


@dataclass(frozen=True)
class Shape:
    K: int
    V: int
    M: int
    heldout: int
    lengths: object  # int, or (lo, hi) for uniform lengths
    alpha: float
    eta: float


@dataclass
class Prepared:
    """One generated corpus, split, with its files when the workload uses the CLI."""

    train: object  # gdmtopics Corpus
    heldout: object
    beta: np.ndarray
    dir: str


@dataclass
class Outcome:
    """Result of one timed fit + eval on one prepared corpus."""

    fit_s: float = float("nan")
    eval_s: list = field(default_factory=list)  # one sample per eval repeat
    mm_distance: float = float("nan")
    perplexity: float = float("nan")
    max_gap: float = 0.0
    problems: list = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    shape: Shape
    tiny: Shape  # seconds-long shape for the harness tests and the warm-up op
    corpora: int  # corpora set up per run; ops cycle through them

    def __init__(self, tiny: bool = False):
        self.active = self.tiny if tiny else self.shape

    def setup(self, seed: int, workdir: str) -> Prepared:
        s = self.active
        params = synth.LdaParams(
            K=s.K, V=s.V, M=s.M, doc_lengths=s.lengths, alpha=s.alpha, eta=s.eta, seed=seed
        )
        full, truth = synth.generate_corpus(params)
        train, heldout = corpus.split_holdout(full, s.heldout, seed)
        os.makedirs(workdir, exist_ok=True)
        return Prepared(train=train, heldout=heldout, beta=truth.beta, dir=workdir)

    def fit(self, prep: Prepared, fit_seed: int):
        raise NotImplementedError

    def evaluate(self, prep: Prepared, fitted):
        raise NotImplementedError

    def check(self, prep: Prepared, fitted, evaluated, out: Outcome) -> None:
        raise NotImplementedError

    def run_op(self, prep: Prepared, fit_seed: int, evals: int = 1, span=None):
        """Time one fit and ``evals`` evals of its model; returns
        (outcome, fitted, evaluated) with the last eval's output.

        ``span`` is a Tracer.span factory in traced runs, so the fit and eval
        calls hang under ``bench.fit`` / ``bench.eval``. An exception is
        recorded as a problem of the operation, not raised.
        """
        out = Outcome()
        region = span or (lambda name: contextlib.nullcontext())
        fitted = evaluated = None
        try:
            with region("bench.fit"):
                t0 = time.perf_counter()
                fitted = self.fit(prep, fit_seed)
                out.fit_s = time.perf_counter() - t0
            for _ in range(evals):
                with region("bench.eval"):
                    t0 = time.perf_counter()
                    evaluated = self.evaluate(prep, fitted)
                    out.eval_s.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.problems.append(f"{type(exc).__name__}: {exc}")
        return out, fitted, evaluated

    def verify(self, prep: Prepared, fitted, evaluated, out: Outcome) -> None:
        """Run the output checks of one operation, untimed and untraced."""
        if out.problems:
            return
        try:
            self.check(prep, fitted, evaluated, out)
        except Exception as exc:
            out.problems.append(f"check raised {type(exc).__name__}: {exc}")

    def _check_eval(self, model, heldout, theta, perplexity, out: Outcome, K=None) -> None:
        out.problems += checks.check_model(model, K)
        gap, problems = checks.check_theta(
            _check_normalize(heldout).rows, model.polytope.vertices, theta
        )
        out.max_gap = max(out.max_gap, gap)
        out.problems += problems
        out.problems += checks.check_perplexity(perplexity)


class NipsCli(Workload):
    name = "nips_cli"
    why = (
        "NIPS-shaped vocabulary (V=12419) through the CLI fit/eval: dense M x V "
        "k-means and its seeding dominate; UCI parsing, normalize and model JSON also run"
    )
    shape = Shape(K=10, V=12419, M=320, heldout=32, lengths=(200, 1800), alpha=0.1, eta=0.05)
    tiny = Shape(K=3, V=60, M=40, heldout=8, lengths=(20, 60), alpha=0.5, eta=0.5)
    corpora = 4
    restarts = 2

    def setup(self, seed, workdir):
        prep = super().setup(seed, workdir)
        for part in ("train", "heldout"):
            os.makedirs(os.path.join(workdir, part), exist_ok=True)
            corpus.save_uci_bag_of_words(
                getattr(prep, part), os.path.join(workdir, part, "docword.txt")
            )
        with open(os.path.join(workdir, "truth.json"), "w", encoding="utf-8") as f:
            json.dump({"beta": prep.beta.tolist()}, f)
        return prep

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gdmtopics {argv[0]} exited {code}: {sink.getvalue().strip()}")

    def fit(self, prep, fit_seed):
        model_path = os.path.join(prep.dir, "model.json")
        self._cli(
            [
                "fit", "--algo", "gdm", "--K", str(self.active.K),
                "--restarts", str(self.restarts), "--seed", str(fit_seed),
                "--in", os.path.join(prep.dir, "train"), "--out", model_path,
            ]
        )
        return model_path

    def evaluate(self, prep, model_path):
        report_path = os.path.join(prep.dir, "report.json")
        self._cli(
            [
                "eval", "--model", model_path,
                "--heldout", os.path.join(prep.dir, "heldout"),
                "--truth", os.path.join(prep.dir, "truth.json"),
                "--out", report_path,
            ]
        )
        return report_path

    def check(self, prep, model_path, report_path, out):
        model = _check_load_model(model_path)  # the saved model must load again
        with open(report_path, "r", encoding="utf-8") as f:
            report = json.load(f)
        out.mm_distance = float(report["mm_distance"])
        out.perplexity = float(report["perplexity"])
        theta = _check_infer_theta(model.polytope, prep.heldout)
        self._check_eval(model, prep.heldout, theta, out.perplexity, out, K=self.active.K)


class TunedLargeM(Workload):
    name = "tgdm_large_m"
    why = (
        "tuned GDM on many short documents: projection (project_rows) inside "
        "extension tuning dominates and k-means is cheap"
    )
    shape = Shape(K=5, V=100, M=1500, heldout=500, lengths=200, alpha=0.1, eta=0.1)
    tiny = Shape(K=3, V=20, M=60, heldout=12, lengths=40, alpha=0.3, eta=0.3)
    corpora = 6

    def fit(self, prep, fit_seed):
        data = corpus.normalize(prep.train)
        return gdm.fit_gdm(data, gdm.GdmConfig(K=self.active.K, tune=True, seed=fit_seed))

    def evaluate(self, prep, model):
        theta = metrics.infer_theta(model.polytope, prep.heldout)
        return theta, metrics.perplexity(model.polytope, theta, prep.heldout)

    def check(self, prep, model, evaluated, out):
        theta, report = evaluated
        out.perplexity = report.perplexity
        out.mm_distance = _check_mm_distance(model.polytope, TopicPolytope(prep.beta))
        self._check_eval(model, prep.heldout, theta, report.perplexity, out, K=self.active.K)


class NgdmSweep(Workload):
    name = "ngdm_sweep"
    why = (
        "nGDM over the README lambda grid: the only DP-means path, with topic "
        "counts from 1 to several hundred, so projection runs at large K"
    )
    shape = Shape(K=15, V=300, M=600, heldout=100, lengths=500, alpha=0.1, eta=0.1)
    tiny = Shape(K=3, V=20, M=40, heldout=8, lengths=60, alpha=0.3, eta=0.3)
    corpora = 6

    def fit(self, prep, fit_seed):
        data = corpus.normalize(prep.train)
        return [gdm.fit_ngdm(data, gdm.GdmConfig(lam=lam, seed=fit_seed)) for lam in LAMBDA_GRID]

    def evaluate(self, prep, models):
        out = []
        for model in models:
            theta = metrics.infer_theta(model.polytope, prep.heldout)
            out.append((theta, metrics.perplexity(model.polytope, theta, prep.heldout)))
        return out

    def check(self, prep, models, evaluated, out):
        for lam, model, (theta, report) in zip(LAMBDA_GRID, models, evaluated):
            self._check_eval(model, prep.heldout, theta, report.perplexity, out)
            if lam == REPORTED_LAMBDA:
                out.perplexity = report.perplexity
                out.mm_distance = _check_mm_distance(model.polytope, TopicPolytope(prep.beta))


WORKLOADS = {w.name: w for w in (NipsCli, TunedLargeM, NgdmSweep)}
