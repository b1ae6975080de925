"""gdmtopics benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload nips_cli --seed 1 --seconds 20 --trace 0

A run sets up ``corpora`` seeded corpora, warms up on a tiny corpus, then
repeats fit + eval (closed loop, one caller) cycling through the corpora
until ``--seconds`` have passed, checking every output. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, with timings scaled by the
host's speed (``HostSpeed``); ``--trace 1`` alternates traced and untraced
operations and reports the per-layer metrics in raw seconds. The last
stdout line is the JSON result; a fuller record (environment, samples,
quartiles) goes to ``.perfbench_out/``, and traced runs also write their spans
there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc

import bootstrap

OUT_DIR = bootstrap.ROOT / ".perfbench_out"
# Printed and kept in the run record, but left out of the result line:
# mm_distance spreads across seeds wider than any bound BENCHMARK.json may
# set, and the raw timings are kept next to the host-speed-scaled ones (README).
RECORDED_ONLY = ("mm_distance", "setup_raw_s", "fit_raw_s", "eval_raw_s", "host.reference_s")
# Evals per op in end-to-end runs: an eval is short, and more samples steady
# its median. Traced runs eval once, so per-layer values match one eval.
EVAL_REPEATS = 3


class HostSpeed:
    """A fixed numpy + interpreter kernel, timed next to each timed step.

    The tuning host's speed drifts by up to 1.5x for minutes at a time, for
    every kind of work alike. Timings are reported as raw seconds scaled by
    NOMINAL_S / (kernel seconds measured beside them): seconds at the speed
    at which the kernel takes NOMINAL_S. A change to gdmtopics moves the raw
    time and not the kernel, so it moves the scaled time by the same factor.
    """

    NOMINAL_S = 0.05  # the kernel's time on the tuning host in a fast phase

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.random((300, 400))
        self.b = rng.random((400, 60))
        self.g = rng.random((6, 6))
        self.argmin = np.argmin

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(50):
            self.a @ self.b
        acc = 0.0
        for i in range(8000):
            v = self.g[i % 6] * 2.0
            acc += float(v.min()) + float(self.argmin(v))
        return time.perf_counter() - t0


def data_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def fit_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def summarize(samples) -> dict:
    """Median, quartiles and sample count; a tail percentile only when at
    least ten samples lie beyond it."""
    xs = sorted(float(x) for x in samples)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90):
        if len(xs) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(xs, n=100)[pct - 1]
            break
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = bootstrap.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = bootstrap.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (bootstrap.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": bootstrap.nproc(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_fit_mb(wl, prep, seed: int) -> float:
    """Peak traced allocation of one untimed fit, in MiB above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wl.fit(prep, fit_seed(seed, 0))
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, tiny: bool = False) -> dict:
    """Set up, warm up, run the timed loop and collect metrics for one workload."""
    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](tiny=tiny)
    tracer = spans.Tracer(name, f"{name}-seed{seed}")

    def patched():
        return tracer.patched(workloads.MODULES)

    # warm-up: first-call imports and caches, on a tiny corpus, untimed
    warm = workloads.WORKLOADS[name](tiny=True)
    warm_prep = warm.setup(data_seed(seed, 999), os.path.join(workdir, "warm"))
    warm.run_op(warm_prep, 0)

    speed = HostSpeed()
    setup_times, setup_refs, preps = [], [], []
    for j in range(wl.corpora):
        setup_refs.append(speed.measure())
        with patched() if trace else contextlib.nullcontext():
            with tracer.span("bench.setup") if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                preps.append(wl.setup(data_seed(seed, j), os.path.join(workdir, f"corpus{j}")))
                setup_times.append(time.perf_counter() - t0)

    # refs[i] is timed right before op i's fit and refs[i + 1] right after its
    # evals; the fit is scaled by the first and the evals by the second
    outcomes, traced_roots, overheads = [], [], []
    refs = [] if trace else [speed.measure()]
    started = time.perf_counter()
    i = 0
    while i < wl.corpora or time.perf_counter() - started < seconds:
        prep = preps[i % wl.corpora]
        if not trace:
            out, fitted, evaluated = wl.run_op(prep, fit_seed(seed, i), evals=EVAL_REPEATS)
            refs.append(speed.measure())
            wl.verify(prep, fitted, evaluated, out)
            outcomes.append(out)
        else:
            # a traced and an untraced op on the same corpus and fit seed;
            # which goes first alternates between pairs
            pair = {}
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    with patched(), tracer.span("bench.op") as root:
                        result = wl.run_op(prep, fit_seed(seed, i), span=tracer.span)
                    traced_roots.append(root)
                else:
                    result = wl.run_op(prep, fit_seed(seed, i))
                wl.verify(prep, result[1], result[2], result[0])
                outcomes.append(result[0])
                pair[traced] = result[0]
            overheads.append(pair[True].fit_s - pair[False].fit_s)
        i += 1

    ok = [o for o in outcomes if not o.problems]
    failed = len(outcomes) - len(ok)
    scale = HostSpeed.NOMINAL_S
    ok_refs = [(before, after) for o, before, after in zip(outcomes, refs, refs[1:]) if not o.problems]
    samples = {
        "setup_s": [t * scale / r for t, r in zip(setup_times, setup_refs)],
        "fit_s": [o.fit_s * scale / before for o, (before, _) in zip(ok, ok_refs)],
        "eval_s": [t * scale / after for o, (_, after) in zip(ok, ok_refs) for t in o.eval_s],
        "mm_distance": [o.mm_distance for o in ok],
        "heldout_perplexity": [o.perplexity for o in ok],
        "setup_raw_s": setup_times,
        "fit_raw_s": [o.fit_s for o in ok],
        "eval_raw_s": [t for o in ok for t in o.eval_s],
        "host.reference_s": setup_refs + refs,
    }
    units = {
        "setup_s": "s", "fit_s": "s", "eval_s": "s", "fit_peak_mb": "MiB",
        "mm_distance": "1", "heldout_perplexity": "1",
        "setup_raw_s": "s", "fit_raw_s": "s", "eval_raw_s": "s", "host.reference_s": "s",
    }
    if trace:
        per_op = [layers.op_values(root, tracer.spans) for root in traced_roots]
        samples = {key: [v[key] for v in per_op] for key in per_op[0]} if per_op else {}
        samples["synth.generate_s"] = [s.duration for s in tracer.spans if s.name == "synth.generate"]
        samples["geometry.max_certificate_gap"] = [max((o.max_gap for o in outcomes), default=0.0)]
        samples["trace.overhead_s"] = overheads
        units = layers.UNITS
    else:
        try:
            samples["fit_peak_mb"] = [peak_fit_mb(wl, preps[0], seed)]
        except Exception as exc:  # counted like a failed operation
            failed += 1
            outcomes.append(workloads.Outcome(problems=[f"peak pass: {exc}"]))
    summary = {key: summarize(samples.get(key, [])) for key in units}
    problems = [p for o in outcomes for p in o.problems]
    return {
        "workload": name,
        "trace": int(trace),
        "attempted": len(outcomes),
        "failed": failed,
        "error_rate": failed / len(outcomes),
        "problems": problems[:20],
        "units": units,
        "summary": summary,
        "samples": samples,
        "spans": tracer,
    }


def result_path(workload: str, seed: int, trace: int):
    return OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"


def result_line(result: dict) -> dict:
    """The JSON object printed as the last stdout line."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": s["median"], "unit": result["units"][key]}
            for key, s in result["summary"].items()
            if key not in RECORDED_ONLY
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = result.pop("spans")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    result["env"] = environment(args.seed)
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for key, s in result["summary"].items():
        print(f"{key:40s} {s['median']!s:>24} {result['units'][key]:6s} n={s['n']}"
              f" q1={s.get('q1')} q3={s.get('q3')}")
    print(f"error_rate {result['error_rate']:.4f} ({result['failed']}/{result['attempted']})")
    for p in result["problems"]:
        print(f"problem: {p}")
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
