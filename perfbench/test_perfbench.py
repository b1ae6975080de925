"""Tests of the benchmark harness itself, on tiny shapes that run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from layers import op_values
from spans import TARGETS, Span, Tracer, children_of, self_time

BENCH = json.loads((run.bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result = run.run(name, seed=3, seconds=0, trace=trace, workdir=str(tmp_path), tiny=True)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= workloads.WORKLOADS[name].corpora
    line = run.result_line(result)
    assert line["correct"] and line["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] is not None, m["name"]


def test_layer_self_times_account_for_the_op(tmp_path):
    result = run.run("tgdm_large_m", seed=5, seconds=0, trace=True, workdir=str(tmp_path), tiny=True)
    tracer = result["spans"]
    for root in (s for s in tracer.spans if s.name == "bench.op"):
        values = op_values(root, tracer.spans)
        layer_sum = sum(v for k, v in values.items() if k.endswith(".self_s") and k != "gdm.fit_self_s")
        assert layer_sum == pytest.approx(values["trace.op_s"], rel=1e-9)
        assert values["gdm.tune_objective_calls"] <= values["geometry.objective_calls"]
        assert values["geometry.rows_projected"] > 0


def test_corrupted_theta_fails_the_certificate_and_counts_as_an_error(tmp_path, monkeypatch):
    honest = workloads.TunedLargeM.evaluate

    def corrupted(self, prep, model):
        theta, report = honest(self, prep, model)
        return np.roll(theta, 1, axis=1), report

    monkeypatch.setattr(workloads.TunedLargeM, "evaluate", corrupted)
    result = run.run("tgdm_large_m", seed=2, seconds=0, trace=False, workdir=str(tmp_path), tiny=True)
    assert result["attempted"] >= workloads.TunedLargeM.corpora
    assert result["failed"] == result["attempted"]
    assert result["error_rate"] == 1.0
    assert any("projection certificate" in p for p in result["problems"])


def test_self_time_subtracts_the_union_of_child_intervals():
    root = Span(0, "bench.op", 0.0, None, end=10.0)
    a = Span(1, "gdm.fit", 1.0, 0, end=4.0)
    b = Span(2, "metrics.infer", 3.0, 0, end=6.0)  # overlaps a
    c = Span(3, "clustering.kmeans", 2.0, 1, end=3.0)
    d = Span(4, "geometry.project", 9.0, 0, end=12.0)  # runs past the root
    kids = children_of([root, a, b, c, d])
    assert self_time(root, kids[0]) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(a, kids[1]) == pytest.approx(2.0)
    assert self_time(c, []) == pytest.approx(1.0)


def test_tracer_restores_every_patched_name():
    before = {(m, a): getattr(workloads.MODULES[m], a) for m, a, _, _ in TARGETS}
    tracer = Tracer("t", "r")
    with tracer.patched(workloads.MODULES):
        assert workloads.gdm.fit_kmeans is not before[("gdm", "fit_kmeans")]
    assert {k: getattr(workloads.MODULES[k[0]], k[1]) for k in before} == before


def test_summary_gives_a_tail_percentile_only_with_ten_samples_beyond_it():
    assert "p90" not in run.summarize(range(50)) and "p99" not in run.summarize(range(50))
    assert "p90" in run.summarize(range(100))
    assert "p99" in run.summarize(range(1000))


def test_exits_nonzero_without_printing_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nips_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
