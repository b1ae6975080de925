"""Steadiness self-check: repeat workloads over seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads nips_cli,tgdm_large_m --seeds 1-10

Runs ``run.py`` once per (workload, seed), one run at a time, then prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
relative spread (q3 - q1) / median. With ``--trace 0`` each spread is compared
with the metric's bound in BENCHMARK.json: ``steady`` below a third of it,
``within`` below it, ``UNSTEADY`` otherwise (``setup_s`` is exempt from the
spread test and only reported, as are the metrics the run records but leaves
out of its result line). The report is also written to
``.perfbench_out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from bootstrap import ROOT

RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def spread_report(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'lo-hi' or a comma list")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    unsteady = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in seeds:
            cmd = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            values.setdefault("run_wall_s", []).append(wall)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            record = json.loads(run.result_path(workload, seed, args.trace).read_text())
            for key in run.RECORDED_ONLY:
                if key in record["summary"]:
                    values.setdefault(key, []).append(record["summary"][key]["median"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall, correct={result['correct']}", flush=True)
        rows = {}
        for key, vals in values.items():
            if any(v is None for v in vals):
                rows[key] = {"status": "MISSING"}
                unsteady = True
                continue
            row = spread_report(vals)
            bound = bounds.get(key)
            if bound is not None and key != "setup_s":
                row["bound"] = bound
                row["status"] = (
                    "steady" if row["spread"] <= bound / 3
                    else "within" if row["spread"] <= bound
                    else "UNSTEADY"
                )
                unsteady |= row["status"] == "UNSTEADY"
            rows[key] = row
            print(
                f"  {key:36s} median={row['median']:<12.6g} q1={row['q1']:<12.6g} "
                f"q3={row['q3']:<12.6g} spread={row['spread']:.4f} {row.get('status', '')}"
            )
        print(f"  error_rate {failed}/{attempted}")
        report[workload] = {"metrics": rows, "attempted": attempted, "failed": failed}
    out = run.OUT_DIR / f"steady-trace{args.trace}-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 1 if unsteady else 0


if __name__ == "__main__":
    raise SystemExit(main())
