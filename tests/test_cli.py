import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gdmtopics
from gdmtopics import geometry, metrics
from gdmtopics.cli import main
from gdmtopics.corpus import NormalizedCorpus, load_uci_bag_of_words, normalize
from gdmtopics.gdm import GdmConfig, GdmModel, fit_gdm, load_model, save_model
from gdmtopics.geometry import ProjectionFailure, TopicPolytope
from oracles import model_field


def _simulate(tmp_path, name="corpus", seed=0, K=3, V=8, M=40, Nm="60"):
    out = str(tmp_path / name)
    rc = main(
        [
            "simulate",
            "--K", str(K), "--V", str(V), "--M", str(M), "--Nm", Nm,
            "--alpha", "0.5", "--eta", "0.5", "--seed", str(seed),
            "--out", out,
        ]
    )
    assert rc == 0
    return out


def test_simulate_outputs(tmp_path, capsys):
    out = _simulate(tmp_path)
    assert os.path.exists(os.path.join(out, "docword.txt"))
    assert os.path.exists(os.path.join(out, "truth.json"))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "simulate"
    assert "--seed" in manifest["argv"]
    corpus = load_uci_bag_of_words(os.path.join(out, "docword.txt"))
    assert corpus.M == 40 and corpus.V == 8
    assert (corpus.lengths == 60).all()
    # the generator's parameters are the manifest's argv, not repeated here,
    # and rerunning it draws the same truth
    truth_path = os.path.join(out, "truth.json")
    truth = json.load(open(truth_path))
    assert sorted(truth) == ["beta", "theta"]
    assert np.asarray(truth["beta"]).shape == (3, 8)
    assert np.asarray(truth["theta"]).shape == (40, 3)
    written = open(truth_path, "rb").read()
    os.remove(truth_path)
    assert main(["rerun", os.path.join(out, "manifest.json")]) == 0
    assert open(truth_path, "rb").read() == written


def test_fit_and_eval_roundtrip(tmp_path, capsys):
    out = _simulate(tmp_path)
    model_path = str(tmp_path / "model.json")
    rc = main(["fit", "--algo", "gdm", "--K", "3", "--in", out, "--out", model_path])
    assert rc == 0
    assert "algo=gdm K=3" in capsys.readouterr().out
    model = load_model(model_path)
    assert model.K == 3

    heldout = _simulate(tmp_path, name="heldout", seed=1)
    report_path = str(tmp_path / "report.json")
    rc = main(
        [
            "eval", "--model", model_path, "--heldout", heldout,
            "--truth", os.path.join(out, "truth.json"), "--out", report_path,
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = json.load(open(report_path))
    assert printed == saved
    assert printed["perplexity"] > 1.0
    assert printed["mm_distance"] >= 0.0
    assert printed["total_tokens"] == 40 * 60


def test_fit_and_eval_read_no_dense_rows(tmp_path, monkeypatch, capsys):
    # with the dense ``rows`` accessor raising, fit (with tuning) and eval run
    out = _simulate(tmp_path)
    heldout = _simulate(tmp_path, name="heldout", seed=1)

    def dense_rows(self):
        raise AssertionError("dense rows read")

    monkeypatch.setattr(NormalizedCorpus, "rows", property(dense_rows))
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "tgdm", "--K", "3", "--in", out, "--out", model_path]) == 0
    truth = os.path.join(out, "truth.json")
    assert main(["eval", "--model", model_path, "--heldout", heldout, "--truth", truth]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["perplexity"] > 1.0


def test_tgdm_objective_no_worse_than_gdm(tmp_path, capsys):
    out = _simulate(tmp_path, seed=3)
    base_path = str(tmp_path / "gdm.json")
    tuned_path = str(tmp_path / "tgdm.json")
    assert main(["fit", "--algo", "gdm", "--K", "3", "--in", out, "--out", base_path]) == 0
    assert main(["fit", "--algo", "tgdm", "--K", "3", "--in", out, "--out", tuned_path]) == 0
    assert load_model(tuned_path).objective <= load_model(base_path).objective + 1e-9


def test_fit_ngdm_and_lambda_sweep(tmp_path, capsys):
    out = _simulate(tmp_path, seed=5, M=30)
    model_path = str(tmp_path / "ngdm.json")
    rc = main(["fit", "--algo", "ngdm", "--lambda", "0.5", "--in", out, "--out", model_path])
    assert rc == 0
    assert load_model(model_path).config.lam == 0.5

    csv_path = str(tmp_path / "sweep.csv")
    rc = main(
        ["lambda-sweep", "--in", out, "--lambdas", "0.001,1e6", "--out", csv_path]
    )
    assert rc == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "lambda,seed,n_topics,objective"
    k_small = int(lines[1].split(",")[2])
    k_large = int(lines[2].split(",")[2])
    assert k_small >= k_large
    assert k_large == 1


def test_fit_ngdm_max_iters_stops_dpmeans_early(tmp_path, capsys):
    # on this corpus DP-means moves documents after its first pass at lambda 2
    out = _simulate(tmp_path)
    paths = [str(tmp_path / "full.json"), str(tmp_path / "one.json")]
    fit = ["fit", "--algo", "ngdm", "--lambda", "2", "--in", out, "--out"]
    assert main(fit + [paths[0]]) == 0
    assert main(fit + [paths[1], "--max-iters", "1"]) == 0
    full, one = (load_model(path) for path in paths)
    assert one.config.max_iters == 1
    assert one.K != full.K or not np.array_equal(one.polytope.vertices, full.polytope.vertices)


def test_fit_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "none")
    for argv in (
        ["fit", "--algo", "gdm", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "gdm", "--K", "2", "--lambda", "1", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "ngdm", "--K", "2", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "ngdm", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "nope", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "gdm", "--K", "2", "--tune", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "tgdm", "--K", "2", "--tune", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "ngdm", "--lambda", "1", "--restarts", "3", "--in", out, "--out", "m.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _simulate_argv(out, Nm):
    return [
        "simulate", "--K", "2", "--V", "5", "--M", "3", "--Nm", Nm,
        "--alpha", "0.5", "--eta", "0.5", "--seed", "0", "--out", out,
    ]


def test_malformed_numbers_exit_2(tmp_path, capsys):
    # argparse rejects them before any file is read or written
    out = str(tmp_path / "none")
    for argv, flag in (
        (_simulate_argv(out, "abc"), "--Nm"),
        (_simulate_argv(out, "5:"), "--Nm"),
        (["lambda-sweep", "--in", out, "--lambdas", "2,x"], "--lambdas"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_out_of_range_numbers_exit_1(tmp_path, capsys):
    # values that parse but that the model rejects are data errors
    for Nm in ("0", str(2**70), f"1:{2**70}"):
        assert main(_simulate_argv(str(tmp_path / "out"), Nm)) == 1
        assert "document length" in capsys.readouterr().err
    corpus = _simulate(tmp_path)
    assert main(["lambda-sweep", "--in", corpus, "--lambdas", "-1"]) == 1
    assert "must be positive" in capsys.readouterr().err
    model_path = str(tmp_path / "m.json")
    infinite = []
    for flag in ("--alpha", "--eta"):
        argv = _simulate_argv(str(tmp_path / "inf"), "5")
        argv[argv.index(flag) + 1] = "inf"
        infinite.append(argv)
    infinite.append(["fit", "--algo", "ngdm", "--lambda", "inf", "--in", corpus, "--out", model_path])
    infinite.append(["lambda-sweep", "--in", corpus, "--lambdas", "1,inf"])
    for argv in infinite:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "must be positive and finite" in err
        assert out == ""
    for max_iters in ("0", "-7"):
        args = ["fit", "--algo", "gdm", "--K", "2", "--max-iters", max_iters, "--in", corpus]
        assert main(args + ["--out", model_path]) == 1
        assert "max_iters must be >= 1" in capsys.readouterr().err
        sweep = ["lambda-sweep", "--in", corpus, "--lambdas", "1", "--max-iters", max_iters]
        assert main(sweep) == 1
        assert "max_iters must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(model_path)


def test_missing_corpus_exits_1(tmp_path, capsys):
    rc = main(
        ["fit", "--algo", "gdm", "--K", "2", "--in", str(tmp_path / "nowhere"),
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_fit_on_a_non_ascii_line_exits_1_naming_it(tmp_path):
    # in a child process, where a crash of numpy's text parser fails the test
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "docword.txt").write_text("2\n3\n3\n1 1 2\n\U0010373c 1 1\n2 2 4\n", encoding="utf-8")
    model_path = tmp_path / "m.json"
    src = os.path.dirname(os.path.dirname(gdmtopics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["fit", "--algo", "gdm", "--K", "2", "--in", str(corpus), "--out", str(model_path)]
    child = subprocess.run(
        [sys.executable, "-m", "gdmtopics.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 1, child.stderr
    assert "error: line 5: non-integer triple" in child.stderr
    assert not model_path.exists()


def test_eval_vocab_mismatch_exits_1(tmp_path, capsys):
    out = _simulate(tmp_path, V=8)
    other = _simulate(tmp_path, name="other", V=5, seed=2)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    capsys.readouterr()
    report = str(tmp_path / "report.json")
    rc = main(["eval", "--model", model_path, "--heldout", other, "--out", report])
    assert rc == 1
    assert capsys.readouterr().err == "error: polytope has V=8 but held-out corpus has V=5\n"
    assert not os.path.exists(report) and not os.path.exists(report + ".manifest.json")


def test_eval_manifest_lists_the_truth_file(tmp_path, capsys):
    out = _simulate(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    truth, report = os.path.join(out, "truth.json"), str(tmp_path / "report.json")
    argv = ["eval", "--model", model_path, "--heldout", out, "--truth", truth, "--out", report]
    assert main(argv) == 0
    manifest = json.load(open(report + ".manifest.json"))
    assert manifest["inputs"] == sorted([model_path, out, truth])
    assert manifest["outputs"] == [report]


def test_eval_truth_with_one_dimensional_beta_exits_1(tmp_path, capsys):
    out = _simulate(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    truth_path = str(tmp_path / "truth.json")
    with open(truth_path, "w") as f:
        json.dump({"beta": [0.125] * 8}, f)
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--heldout", out, "--truth", truth_path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: vertices must be a K x V matrix" in err
    where = f"truth file {truth_path} field 'beta', shape (8,)"
    assert err == f"error: vertices must be a K x V matrix with K >= 1 ({where})\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ([1, 2], "does not hold a JSON object"),
        ("beta", "does not hold a JSON object"),
        ({"theta": [[1.0]]}, "has no 'beta' field"),
        ({"beta": {"a": 1}}, "field 'beta' is not a number or a rectangular array of numbers"),
        (
            {"beta": [["0.5", 0.5] + [0] * 6]},
            "field 'beta' is not a number or a rectangular array of numbers",
        ),
        (
            {"beta": [[True, 0.0] + [0] * 6]},
            "field 'beta' is not a number or a rectangular array of numbers",
        ),
    ],
    ids=["list", "string", "no-beta", "beta-object", "beta-string", "beta-boolean"],
)
def test_eval_truth_that_is_not_an_object_with_beta_exits_1(tmp_path, capsys, content, message):
    out = _simulate(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    truth_path = str(tmp_path / "truth.json")
    with open(truth_path, "w") as f:
        json.dump(content, f)
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--heldout", out, "--truth", truth_path])
    assert rc == 1
    assert capsys.readouterr().err == f"error: truth file {truth_path} {message}\n"


@pytest.mark.parametrize("field", ["config", "beta", "extensions", "radii", "objective"])
def test_eval_model_without_a_field_exits_1(tmp_path, capsys, field):
    heldout = _simulate(tmp_path, name="held", V=6, K=2, seed=7)
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, np.full((1, 6), 1.0 / 6))
    with open(model_path) as f:
        d = json.load(f)
    del d[field]
    with open(model_path, "w") as f:
        json.dump(d, f)
    capsys.readouterr()
    assert main(["eval", "--model", model_path, "--heldout", heldout]) == 1
    assert capsys.readouterr().err == f"error: model file {model_path} has no {field!r} field\n"


_NOT_AN_ARRAY_FIELD = "is not an object of a base64 'data' string and a 'shape' list"


@pytest.mark.parametrize("command", ["eval", "topics"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("objective", [1], "field 'objective' is not one finite number"),
        ("objective", None, "field 'objective' is not one finite number"),
        ("objective", "x", "field 'objective' is not a number or a rectangular array"),
        ("objective", "1.5", "field 'objective' is not a number or a rectangular array"),
        ("objective", True, "field 'objective' is not a number or a rectangular array"),
        ("beta", {"a": 1}, f"field 'beta' {_NOT_AN_ARRAY_FIELD}"),
        (
            "beta",
            {**model_field(np.full(6, 1.0 / 6)), "shape": [2, 6]},
            "field 'beta' data holds 48 bytes, expected 8 x 12",
        ),
        (
            "beta",
            {**model_field(np.full((1, 6), 1.0 / 6)), "shape": ["1", 6]},
            "field 'beta' shape entry must be an integer, got '1'",
        ),
        (
            "beta",
            {**model_field(np.full((1, 6), 1.0 / 6)), "shape": [True, 6]},
            "field 'beta' shape entry must be an integer, got True",
        ),
        ("beta", [[1.0 / 6] * 6], "field 'beta' is a list, the old model format; refit the model"),
        ("beta", model_field([[np.nan] * 6]), "field 'beta' holds a value that is not finite"),
        ("extensions", {"a": 1}, f"field 'extensions' {_NOT_AN_ARRAY_FIELD}"),
        ("extensions", {"data": True, "shape": [1]}, f"field 'extensions' {_NOT_AN_ARRAY_FIELD}"),
        ("radii", [{"a": 1}], "field 'radii' is a list, the old model format; refit the model"),
        ("radii", {"data": "0.0", "shape": [1]}, "field 'radii' data is not base64"),
        ("extensions", {"data": None, "shape": [1]}, f"field 'extensions' {_NOT_AN_ARRAY_FIELD}"),
        ("extensions", model_field([np.inf]), "field 'extensions' holds a value that is not finite"),
        ("radii", {**model_field([0.0]), "shape": None}, f"field 'radii' {_NOT_AN_ARRAY_FIELD}"),
        ("radii", model_field([np.nan]), "field 'radii' holds a value that is not finite"),
        ("config", 5, "field 'config' is not a GdmConfig"),
        ("config", {"K": 1, "weighted_center": "false"}, "field 'config' is not a GdmConfig"),
        ("config", {"K": 1, "tune": 0}, "field 'config' is not a GdmConfig (tune must be a bool"),
    ],
    ids=[
        "objective-list", "objective-null", "objective-string", "objective-numeric-string",
        "objective-boolean", "beta-object", "beta-ragged", "beta-numeric-string", "beta-boolean",
        "beta-list", "beta-nan", "extensions-object", "extensions-boolean", "radii-objects",
        "radii-numeric-string", "extensions-null", "extensions-infinity", "radii-null",
        "radii-nan", "config-int", "config-string-flag", "config-int-flag",
    ],
)
def test_model_with_a_wrong_typed_field_exits_1(tmp_path, capsys, command, field, value, message):
    heldout = _simulate(tmp_path, name="held", V=6, K=2, seed=7)
    vocab_path = str(tmp_path / "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("".join(f"w{i}\n" for i in range(6)))
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, np.full((1, 6), 1.0 / 6))
    with open(model_path) as f:
        d = json.load(f)
    d[field] = value
    with open(model_path, "w") as f:
        json.dump(d, f)
    capsys.readouterr()
    if command == "eval":
        rc = main(["eval", "--model", model_path, "--heldout", heldout])
    else:
        rc = main(["topics", "--model", model_path, "--vocab", vocab_path])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: model file {model_path} {message}")


def test_eval_model_that_is_not_an_object_exits_1(tmp_path, capsys):
    heldout = _simulate(tmp_path, name="held", V=6, K=2, seed=7)
    model_path = str(tmp_path / "m.json")
    with open(model_path, "w") as f:
        json.dump([[1.0 / 6] * 6], f)
    capsys.readouterr()
    assert main(["eval", "--model", model_path, "--heldout", heldout]) == 1
    expected = f"error: model file {model_path} does not hold a JSON object\n"
    assert capsys.readouterr().err == expected


def test_eval_checks_truth_before_projecting(tmp_path, monkeypatch, capsys):
    out = _simulate(tmp_path, V=8)
    other = _simulate(tmp_path, name="other", V=5, seed=2)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    projected = []
    project_rows = metrics.project_rows

    def spy(*args, **kwargs):
        projected.append(1)
        return project_rows(*args, **kwargs)

    monkeypatch.setattr(metrics, "project_rows", spy)
    capsys.readouterr()
    truth = os.path.join(other, "truth.json")
    assert main(["eval", "--model", model_path, "--heldout", out, "--truth", truth]) == 1
    message = f"truth file {truth} field 'beta' has V=5 but the model has V=8"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert projected == []
    assert main(["eval", "--model", model_path, "--heldout", out]) == 0
    assert projected == [1]


def test_projection_failure_exits_1(tmp_path, monkeypatch, capsys):
    out = _simulate(tmp_path)

    def failing_fit(data, config):
        raise ProjectionFailure("projection certificate gap 1e-3 exceeds tolerance")

    args = ["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", str(tmp_path / "m.json")]
    with monkeypatch.context() as m:
        m.setattr("gdmtopics.cli.fit_gdm", failing_fit)
        assert main(args) == 1
    assert "error: projection certificate gap" in capsys.readouterr().err

    # the real path: weights at the farthest vertex fail the certificate
    def farthest_vertex(BBt, BX, xx, nearest, scales):
        theta = np.zeros(BX.shape)
        theta[np.arange(BX.shape[0]), np.argmax(np.diag(BBt) - 2.0 * BX, axis=1)] = 1.0
        return theta

    monkeypatch.setattr("gdmtopics.geometry._active_set", farthest_vertex)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error: row " in err and "projection certificate gap" in err


def test_an_uncertified_tuning_row_fails_the_fit_and_exits_1(tmp_path, monkeypatch, capsys):
    # extension tuning solves on projection inputs it keeps per cluster,
    # through the same certified step as project_rows: a wrong weight row in
    # a tuning evaluation raises ProjectionFailure, and `fit` exits 1
    out = _simulate(tmp_path)
    data = normalize(load_uci_bag_of_words(os.path.join(out, "docword.txt")))
    solve, rows = geometry._active_set, []

    def wrong_in_tuning(BBt, BX, xx, theta, scales):
        theta = solve(BBt, BX, xx, theta, scales)
        rows.append(BX.shape[0])
        if len(rows) > 1:  # the fit's projection of all the rows stays correct
            theta[0] = np.roll(theta[0], 1)
        return theta

    monkeypatch.setattr(geometry, "_active_set", wrong_in_tuning)
    with pytest.raises(ProjectionFailure, match="row 0: projection certificate gap"):
        fit_gdm(data, GdmConfig(K=3, tune=True))
    assert len(rows) == 2 and rows[1] < rows[0]  # the first evaluation, on one cluster's rows
    rows.clear()
    args = ["fit", "--algo", "tgdm", "--K", "3", "--in", out, "--out", str(tmp_path / "m.json")]
    assert main(args) == 1
    assert "error: row 0: projection certificate gap" in capsys.readouterr().err
    assert len(rows) == 2 and not os.path.exists(tmp_path / "m.json")


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    # a header may declare a vocabulary whose dense copy cannot be allocated;
    # normalize is replaced so that no such allocation is attempted here
    corpus = tmp_path / "huge"
    corpus.mkdir()
    (corpus / "docword.txt").write_text("2\n1000000000000\n2\n1 1 2\n2 5 3\n")

    def out_of_memory(corpus):
        raise MemoryError(f"Unable to allocate a {corpus.M} x {corpus.V} array")

    monkeypatch.setattr("gdmtopics.cli.normalize", out_of_memory)
    args = ["fit", "--algo", "gdm", "--K", "1", "--in", str(corpus), "--out", str(tmp_path / "m.json")]
    assert main(args) == 1
    assert "error: Unable to allocate a 2 x 1000000000000 array" in capsys.readouterr().err


def test_eval_rejects_old_config_key(tmp_path, capsys):
    # model files written before the config was stored by field name used "lambda"
    heldout = _simulate(tmp_path, name="held", V=6, K=2, seed=7)
    model_path = str(tmp_path / "old.json")
    _write_model(model_path, np.full((1, 6), 1.0 / 6))
    with open(model_path) as f:
        d = json.load(f)
    d["config"]["lambda"] = d["config"].pop("lam")
    with open(model_path, "w") as f:
        json.dump(d, f)
    rc = main(["eval", "--model", model_path, "--heldout", heldout])
    assert rc == 1
    assert "refit" in capsys.readouterr().err


def test_eval_and_topics_on_an_inconsistent_model_exit_1(tmp_path, capsys):
    heldout = _simulate(tmp_path, name="held", V=3, K=2, seed=7)
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, [[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]])
    with open(model_path) as f:
        d = json.load(f)
    d["radii"] = model_field([0.0])
    with open(model_path, "w") as f:
        json.dump(d, f)
    vocab_path = str(tmp_path / "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("alpha\nbravo\ncharlie\n")
    capsys.readouterr()
    for argv in (["eval", "--heldout", heldout], ["topics", "--vocab", vocab_path]):
        assert main(argv + ["--model", model_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radii" in captured.err


def _write_model(path, vertices):
    vertices = np.asarray(vertices, dtype=np.float64)
    K = vertices.shape[0]
    model = GdmModel(
        polytope=TopicPolytope(vertices),
        extensions=np.ones(K),
        radii=np.zeros(K),
        objective=0.0,
        config=GdmConfig(K=K),
    )
    save_model(model, path)


def test_eval_uniform_model_perplexity_is_vocab_size(tmp_path, capsys):
    heldout = _simulate(tmp_path, name="held", V=6, K=2, seed=7)
    model_path = str(tmp_path / "uniform.json")
    _write_model(model_path, np.full((1, 6), 1.0 / 6))
    rc = main(["eval", "--model", model_path, "--heldout", heldout])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert np.isclose(report["perplexity"], 6.0, rtol=1e-9)


def test_topics_output_and_tie_break(tmp_path, capsys):
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, [[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]])
    vocab_path = str(tmp_path / "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("alpha\nbravo\ncharlie\n")
    rc = main(["topics", "--model", model_path, "--vocab", vocab_path, "--top", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # equal probabilities resolve toward the lower word index
    assert lines[0] == "topic 0: alpha bravo"
    assert lines[1] == "topic 1: charlie bravo"


def test_topics_top_below_one_exits_1(tmp_path, capsys):
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, [[0.4, 0.4, 0.2]])
    vocab_path = str(tmp_path / "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("alpha\nbravo\ncharlie\n")
    for top in ("0", "-2"):
        assert main(["topics", "--model", model_path, "--vocab", vocab_path, "--top", top]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --top must be >= 1, got {top}" in captured.err


def test_corpus_commands_read_only_docword(tmp_path, capsys):
    # a vocab.txt beside the counts is not read: words come from topics --vocab
    out = _simulate(tmp_path, K=2, V=5)
    vocab_path = os.path.join(out, "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("alpha\nbravo\n")
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    assert main(["eval", "--model", model_path, "--heldout", out]) == 0
    assert main(["lambda-sweep", "--in", out, "--lambdas", "2,8"]) == 0
    capsys.readouterr()
    assert main(["topics", "--model", model_path, "--vocab", vocab_path]) == 1
    assert capsys.readouterr().err == "error: vocabulary has 2 words, model expects 5\n"


def test_topics_vocab_length_mismatch(tmp_path, capsys):
    model_path = str(tmp_path / "m.json")
    _write_model(model_path, [[0.5, 0.5]])
    vocab_path = str(tmp_path / "vocab.txt")
    with open(vocab_path, "w") as f:
        f.write("only\n")
    rc = main(["topics", "--model", model_path, "--vocab", vocab_path])
    assert rc == 1


def test_rerun_reproduces_fit_bit_identically(tmp_path, capsys):
    out = _simulate(tmp_path, seed=9)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "3", "--in", out, "--out", model_path]) == 0
    original = open(model_path, "rb").read()
    os.remove(model_path)
    rc = main(["rerun", model_path + ".manifest.json"])
    assert rc == 0
    assert open(model_path, "rb").read() == original


def test_rerun_missing_manifest_exits_1(tmp_path, capsys):
    rc = main(["rerun", str(tmp_path / "absent.json")])
    assert rc == 1


@pytest.mark.parametrize(
    "content, message",
    [
        ([1, 2], "does not hold a JSON object"),
        ({"command": "fit"}, "has no 'argv' field"),
        ({"argv": 5}, "field 'argv' is not a list of strings"),
        ({"argv": ["fit", 3]}, "field 'argv' is not a list of strings"),
        # rerun writes no manifest; a hand-made one naming itself would recurse
        ({"argv": ["rerun", "manifest.json"]}, "field 'argv' is itself a rerun command"),
    ],
    ids=["list", "no-argv", "int-argv", "int-in-argv", "rerun-argv"],
)
def test_rerun_malformed_manifest_exits_1(tmp_path, capsys, content, message):
    path = str(tmp_path / "manifest.json")
    with open(path, "w") as f:
        json.dump(content, f)
    assert main(["rerun", path]) == 1
    assert capsys.readouterr().err == f"error: manifest file {path} {message}\n"
