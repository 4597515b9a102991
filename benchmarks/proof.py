"""Steadiness proof: many seeds per workload, then spreads and overhead.

    python3 benchmarks/proof.py [--runs 10] [--seconds 30] [--first-seed 100]
                                [--workloads desk-pretrain,...]

Runs the benchmark once per seed on each workload with tracing off, then
once more with tracing on, one process at a time. For every end-to-end
metric it prints the median of the runs and the spread (distance between
first and third quartile, as a share of the median), and for the traced
run the tracing overhead: how far each rate falls below the untraced
median. A JSON summary lands in ``bench_out/proof-<time>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def invoke(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = next(line.split(": ", 1)[1] for line in proc.stderr.splitlines()
                if line.startswith("results: "))
    with open(os.path.join(run.ROOT, path), encoding="utf-8") as fh:
        doc = json.load(fh)
    return proc.returncode, result, doc


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()

    summary = {"runs": args.runs, "seconds": args.seconds, "first_seed": args.first_seed,
               "git_sha": run.git_sha(), "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            code, result, _ = invoke(workload, args.first_seed + k, args.seconds, 0)
            if code != 0 or not result["correct"]:
                raise SystemExit(f"{workload} seed {args.first_seed + k}: exit {code}, {result}")
            results.append(result)
            print(f"{workload} seed {args.first_seed + k}: "
                  f"{ {m: round(v['value'], 4) for m, v in result['metrics'].items()} }", flush=True)
        _, traced, traced_doc = invoke(workload, args.first_seed, args.seconds, 1)
        doc = {"metrics": {}, "failed_share": [r["failed"] / r["attempted"] for r in results],
               "per_layer": traced["metrics"], "tracing_overhead": {}}
        for name in run.END_TO_END_UNITS:
            values = [r["metrics"][name]["value"] for r in results]
            doc["metrics"][name] = {
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
        for name in run.RATES:
            with_trace = traced_doc["end_to_end"][name]["median"]
            doc["tracing_overhead"][name] = 1.0 - with_trace / doc["metrics"][name]["median"]
        summary["workloads"][workload] = doc
        print(f"\n{workload}: correct in every run, failed share {set(doc['failed_share'])}")
        for name, m in doc["metrics"].items():
            print(f"  {name:24s} median {m['median']:12.4f}  spread {m['spread']:.3f}")
        for name, v in doc["tracing_overhead"].items():
            print(f"  tracing slows {name} by {100 * v:.1f}%")
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, f"proof-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary: {os.path.relpath(path, run.ROOT)}")


if __name__ == "__main__":
    main()
