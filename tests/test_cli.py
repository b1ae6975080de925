import json
import os

import numpy as np
import pytest

from gdmtopics.cli import main
from gdmtopics.corpus import load_uci_bag_of_words
from gdmtopics.gdm import GdmConfig, GdmModel, load_model, save_model
from gdmtopics.geometry import ProjectionFailure, TopicPolytope


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
    truth = json.load(open(os.path.join(out, "truth.json")))
    assert np.asarray(truth["beta"]).shape == (3, 8)


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


def test_fit_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "none")
    for argv in (
        ["fit", "--algo", "gdm", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "gdm", "--K", "2", "--lambda", "1", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "ngdm", "--K", "2", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "ngdm", "--in", out, "--out", "m.json"],
        ["fit", "--algo", "nope", "--in", out, "--out", "m.json"],
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
    assert main(_simulate_argv(str(tmp_path / "zero"), "0")) == 1
    assert "document length" in capsys.readouterr().err
    corpus = _simulate(tmp_path)
    assert main(["lambda-sweep", "--in", corpus, "--lambdas", "-1"]) == 1
    assert "must be positive" in capsys.readouterr().err


def test_missing_corpus_exits_1(tmp_path, capsys):
    rc = main(
        ["fit", "--algo", "gdm", "--K", "2", "--in", str(tmp_path / "nowhere"),
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_eval_vocab_mismatch_exits_1(tmp_path, capsys):
    out = _simulate(tmp_path, V=8)
    other = _simulate(tmp_path, name="other", V=5, seed=2)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--algo", "gdm", "--K", "2", "--in", out, "--out", model_path]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--heldout", other])
    assert rc == 1
    assert "V=" in capsys.readouterr().err


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
