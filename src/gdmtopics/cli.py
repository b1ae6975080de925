"""Command-line front end: simulate, fit, eval, topics, lambda-sweep, rerun.

Every command writes a JSON manifest next to its outputs with the exact
argument vector, so any run can be reproduced with ``gdmtopics rerun``.
Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, gdm
from .corpus import (
    CorpusError,
    load_uci_bag_of_words,
    load_vocab,
    normalize,
    save_uci_bag_of_words,
)
from .gdm import GdmConfig, fit_gdm, fit_ngdm, load_model, save_model
from .metrics import infer_theta, min_matching_distance, perplexity
from .synth import LdaParams, generate_corpus


def _doc_lengths(text):
    """``--Nm``: one document length or a 'min:max' range; a bad value is a usage error."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'min:max', got {text!r}")


def _float_list(text):
    """``--lambdas``: comma-separated numbers; a bad value is a usage error."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


class _UsageError(Exception):
    """A combination of options that argparse cannot reject by itself (exit 2)."""


def _write_manifest(path, args, argv, inputs, outputs):
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "duration_sec": time.time() - args.started,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def _load_corpus_dir(path):
    docword = os.path.join(path, "docword.txt")
    if not os.path.exists(docword):
        raise CorpusError(f"no docword.txt under {path}")
    return load_uci_bag_of_words(docword)


def _cmd_simulate(args, argv):
    params = LdaParams(
        K=args.K,
        V=args.V,
        M=args.M,
        doc_lengths=args.Nm,
        alpha=args.alpha,
        eta=args.eta,
        seed=args.seed,
    )
    corpus, truth = generate_corpus(params)
    os.makedirs(args.out, exist_ok=True)
    docword = os.path.join(args.out, "docword.txt")
    truth_path = os.path.join(args.out, "truth.json")
    save_uci_bag_of_words(corpus, docword)
    # the generator's parameters are the argv of the manifest written beside it
    gdm.save_truth(truth, truth_path)
    _write_manifest(os.path.join(args.out, "manifest.json"), args, argv, [], [docword, truth_path])
    print(f"wrote {corpus.M} documents (V={corpus.V}) to {args.out}")
    return 0


def _fit_config(args):
    if args.algo == "ngdm":
        if args.K is not None:
            raise _UsageError("--algo ngdm does not accept --K")
        if args.lam is None:
            raise _UsageError("--algo ngdm requires --lambda")
        if args.restarts is not None:
            raise _UsageError("--algo ngdm does not accept --restarts; DP-means has no restarts")
    elif args.K is None:
        raise _UsageError(f"--algo {args.algo} requires --K")
    elif args.lam is not None:
        raise _UsageError(f"--algo {args.algo} does not accept --lambda")
    elif args.tune:
        raise _UsageError("--tune applies only to --algo ngdm; tgdm always tunes")
    return GdmConfig(
        K=args.K,
        lam=args.lam,
        restarts=GdmConfig.restarts if args.restarts is None else args.restarts,
        max_iters=args.max_iters,
        weighted_center=not args.unweighted_center,
        tune=args.algo == "tgdm" or args.tune,
        seed=args.seed,
    )


def _cmd_fit(args, argv):
    config = _fit_config(args)
    data = normalize(_load_corpus_dir(args.inp))
    if config.K is not None:
        model = fit_gdm(data, config)
    else:
        model = fit_ngdm(data, config)
    save_model(model, args.out)
    _write_manifest(args.out + ".manifest.json", args, argv, [args.inp], [args.out])
    print(
        f"algo={args.algo} K={model.K} objective={model.objective:.6g} "
        f"elapsed={time.time() - args.started:.2f}s"
    )
    return 0


def _cmd_eval(args, argv):
    model = load_model(args.model)
    V = model.polytope.V
    heldout = _load_corpus_dir(args.heldout)
    truth = gdm.load_truth(args.truth) if args.truth else None
    if truth is not None and truth.V != V:
        raise ValueError(f"truth file {args.truth} field 'beta' has V={truth.V} but the model has V={V}")
    theta = infer_theta(model.polytope, heldout)
    report = perplexity(model.polytope, theta, heldout)
    out = {
        "perplexity": report.perplexity,
        "floored_entries": report.floored_entries,
        "total_tokens": report.total_tokens,
    }
    if truth is not None:
        out["mm_distance"] = min_matching_distance(model.polytope, truth)
    text = json.dumps(out, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        inputs = [args.model, args.heldout] + ([args.truth] if args.truth else [])
        _write_manifest(args.out + ".manifest.json", args, argv, inputs, [args.out])
    return 0


def _cmd_topics(args, argv):
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    model = load_model(args.model)
    vocab = load_vocab(args.vocab)
    if len(vocab) != model.polytope.V:
        raise ValueError(f"vocabulary has {len(vocab)} words, model expects {model.polytope.V}")
    beta = model.polytope.vertices
    for k in range(model.K):
        # stable sort on index breaks probability ties toward lower indices
        order = np.argsort(-beta[k], kind="stable")[: args.top]
        words = " ".join(vocab[i] for i in order)
        print(f"topic {k}: {words}")
    return 0


def _cmd_lambda_sweep(args, argv):
    configs = [GdmConfig(lam=lam, max_iters=args.max_iters, seed=args.seed) for lam in args.lambdas]
    data = normalize(_load_corpus_dir(args.inp))
    rows = ["lambda,seed,n_topics,objective"]
    for config in configs:
        model = fit_ngdm(data, config)
        rows.append(f"{config.lam},{args.seed},{model.K},{model.objective:.8g}")
        print(rows[-1])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(rows) + "\n")
        _write_manifest(args.out + ".manifest.json", args, argv, [args.inp], [args.out])
    return 0


def _cmd_rerun(args, argv):
    where = f"manifest file {args.manifest}"
    rerun_argv = gdm.read_json_object(args.manifest, "manifest", ("argv",))["argv"]
    if not isinstance(rerun_argv, list) or not all(isinstance(a, str) for a in rerun_argv):
        raise ValueError(f"{where} field 'argv' is not a list of strings")
    if rerun_argv[:1] == ["rerun"]:
        raise ValueError(f"{where} field 'argv' is itself a rerun command")
    return main(rerun_argv)


def _build_parser():
    parser = argparse.ArgumentParser(prog="gdmtopics", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus with ground truth")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--Nm", type=_doc_lengths, required=True, help="document length: int or 'min:max'")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("fit", help="fit a topic polytope")
    p.set_defaults(run=_cmd_fit)
    p.add_argument("--algo", choices=("gdm", "tgdm", "ngdm"), required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--restarts", type=int, help=f"gdm/tgdm only (default {GdmConfig.restarts})")
    p.add_argument("--max-iters", type=int, default=GdmConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unweighted-center", action="store_true")
    p.add_argument("--tune", action="store_true", help="tune extensions after ngdm")
    p.add_argument("--in", dest="inp", required=True, help="corpus directory holding docword.txt")
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("eval", help="evaluate a fitted model on held-out documents")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--heldout", required=True, help="held-out corpus directory")
    p.add_argument("--truth", default=None, help="truth.json enabling MM distance")
    p.add_argument("--out", default=None, help="optional report JSON path")

    p = sub.add_parser("topics", help="print top words per topic")
    p.set_defaults(run=_cmd_topics)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top", type=int, default=10)

    p = sub.add_parser("lambda-sweep", help="fit ngdm across a lambda grid, emit CSV")
    p.set_defaults(run=_cmd_lambda_sweep)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--lambdas", type=_float_list, required=True, help="comma-separated lambda values")
    p.add_argument("--max-iters", type=int, default=GdmConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV path")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.set_defaults(run=_cmd_rerun)
    p.add_argument("manifest")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.started = time.time()
    try:
        return args.run(args, argv)
    except _UsageError as exc:
        parser.error(str(exc))
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
