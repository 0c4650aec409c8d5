#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 benchmarks/steady.py                      # 10 runs of each listed workload
    python3 benchmarks/steady.py --runs 5 --workload validate

Each run is ``run.py`` in a fresh process with its own seed (first seed,
first seed + 1, ...) and the run length of ``BENCHMARK.json``.  For every
end-to-end metric the table gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
(Q3 - Q1) / median against the metric's bound.  The set-up time is
reported but not held to its bound, since it is a single short figure per
run.  The share of failed operations must be the same in every run.  The
summary is also written to ``benchmarks/out/steady.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], spec: dict) -> dict:
    rows = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        gated = metric["name"] != "setup_s"
        rows[metric["name"]] = {
            "values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"],
            "within_bound": spread <= metric["bound"] or not gated,
            "within_third": spread < metric["bound"] / 3 or not gated}
    shares = {r["failed"] / r["attempted"] for r in results}
    return {"metrics": rows, "failed_shares": sorted(shares),
            "all_correct": all(r["correct"] for r in results)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload listed in "
                             "BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    summary, ok = {}, True
    for workload in args.workload or names:
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        s = summarize(results, spec)
        summary[workload] = s
        ok &= s["all_correct"] and len(s["failed_shares"]) == 1
        print(f"{workload}: {args.runs} runs, all correct "
              f"{s['all_correct']}, failed shares {s['failed_shares']}")
        for name, m in s["metrics"].items():
            ok &= m["within_bound"]
            flag = ("ok" if m["within_third"] else
                    "within bound" if m["within_bound"] else "OVER BOUND")
            print(f"  {name:<14} median {m['median']:12.6g}  "
                  f"Q1 {m['q1']:12.6g}  Q3 {m['q3']:12.6g}  "
                  f"spread {100 * m['spread']:6.2f}% (bound "
                  f"{100 * m['bound']:.0f}%)  {flag}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "steady.json", "w") as fh:
        json.dump({"runs": args.runs, "first_seed": args.first_seed,
                   "seconds": args.seconds, "workloads": summary}, fh,
                  indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
