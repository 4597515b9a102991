"""Interleaved parent/change runs of the benchmark, summarized as BENCH_<tag>.json.

    python3 tools/ab.py --parent HEAD --workload paper-pretrain --seeds 1-10 \
        --seconds 30 --out BENCH_<tag>.json --change "what the change does"

``--workload`` may be given more than once; each workload runs every seed.
``--claim eval_samples_per_s@desk-pretrain`` names the end-to-end metric a
gain is claimed on and the one workload it is claimed for.
``--trace-seeds 1,2`` adds, per workload, a pair of ``--trace 1`` runs for
each of those seeds, so a claim can show which layer its saving sits in.

Runs ``benchmarks/run.py`` unchanged, once per seed on each side: on a
``git archive`` of the parent revision and on a copy of the working tree
(the files git tracks or would add; ignored files stay out). Both sides
run from fresh directories under ``--workdir``, which are removed at the
end. The side that runs first alternates from pair to pair, so drift of
the machine falls on both sides alike.

The output holds, per workload, every run's value of every end-to-end
metric, the median and quartiles of each side, the ratio of the medians,
the operations attempted and failed, and under ``regression`` whether
each end-to-end metric's change median is worse than the parent's by
more than its ``BENCHMARK.json`` bound ("worse", else "within"), or
"unresolved" where the parent's interquartile spread is wider than the
bound and not every change run reads better than every parent run. With
``--claim``, the output records the claim as ``{"metric", "workload"}``,
and the claimed workload's entry alone counts the pairs the change won on
that metric (in the direction ``BENCHMARK.json`` gives) and rules on the
claim under ``claim_verdict``: "met" when the change won at least 9 of
every 10 pairs and its median beats the parent's by more than the
parent's interquartile spread, else "not met". For information beside
the verdict, which it does not enter, ``<metric>_pair_ratios`` gives the
min, quartiles and max of the change/parent ratio within each pair.
With ``--trace-seeds``, the same figures of every per-layer metric go
under ``per_layer``. It names the parent commit and the git tree of
``src/`` on both sides, and under ``arithmetic_fingerprint`` each side's
``protonorm.arithmetic_fingerprint()`` at one BLAS thread, as the
benchmark runs (null for a side whose package lacks the function): a
same-bits claim holds only where the two match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
METHOD = (
    "interleaved parent/change runs on one machine, alternating which side ran "
    "first; each run's value is the median over its measured rounds "
    "(host-normalized, see benchmarks/README.md), and peak_rss_mb is the "
    "process's ru_maxrss; median and quartiles (statistics.quantiles, n=4) are "
    "over runs; on the claimed workload, <claim>_pairs_won counts the seed pairs "
    "in which the change's value of the claimed metric was better, and "
    "<claim>_pair_ratios the min, quartiles and max of its change/parent ratio per "
    "pair (informational, not part of the verdict); claim_verdict "
    "is met when the change won at least 9/10 of the pairs and its median beats "
    "the parent's by more than the parent's interquartile spread; regression sets each end-to-end "
    "metric's change of median against its BENCHMARK.json bound"
)
CHANGE_SHA = "the parent plus this change, measured from the working tree; identified by src_tree"


def git(*args, env=None, text=True):
    proc = subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=text
    )
    return proc.stdout.strip() if text else proc.stdout


def parse_seeds(text):
    """``1-10``, ``1,4,7`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def quartiles(values):
    if not values:  # every run of this side failed before measuring
        return {"median": None, "q1": None, "q3": None, "n": 0}
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def working_tree_files():
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    return [p for p in listed.split("\0") if p and os.path.isfile(os.path.join(ROOT, p))]


def working_tree_src_tree():
    """The git tree of ``src/`` as the working tree holds it, staged into a
    throwaway index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "-A", "--", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def export_parent(sha, dest):
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", sha, text=False), check=True)


def export_working_tree(dest):
    for rel in working_tree_files():
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), target)


def checkout_fingerprint(checkout):
    """``arithmetic_fingerprint()`` of the package under ``checkout``'s
    ``src/``, computed in a fresh process at one BLAS thread, or None when
    that package has no such function."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    code = ("import protonorm\n"
            "f = getattr(protonorm, 'arithmetic_fingerprint', None)\n"
            "print(f() if f else '')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() or None


def run_benchmark(checkout, side, workload, seed, seconds, trace=0):
    """The result line and the results file of one ``benchmarks/run.py``."""
    cmd = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 600
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"ab: {side} seed {seed} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-4000:]}"
        )
    doc = None
    for line in proc.stderr.splitlines():
        if line.startswith("results: "):
            with open(os.path.join(checkout, line[len("results: "):]), encoding="utf-8") as fh:
                doc = json.load(fh)
    return json.loads(lines[-1]), doc


def summarize_metrics(pairs):
    """Each metric's runs, median and quartiles per side and the ratio of the
    medians, from ``pairs``: (seed, first side, {side: result}). A run that
    read no value (a traced layer whose entry point is absent) is left out."""
    names = sorted({m for _, _, res in pairs for side in SIDES for m in res[side]["metrics"]})
    metrics = {}
    for name in names:
        entry = {}
        for side in SIDES:
            runs = [res[side]["metrics"][name]["value"] for _, _, res in pairs
                    if res[side]["metrics"].get(name, {}).get("value") is not None]
            entry[side] = dict(quartiles(runs), runs=runs)
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent"] = c / p if p and c is not None else None
        metrics[name] = entry
    return metrics


def summarize_traced(pairs):
    """The ``per_layer`` entry of a workload, from its ``--trace 1`` pairs."""
    return {
        "all_correct": all(res[side]["correct"] for _, _, res in pairs for side in SIDES),
        "first": [first for _, first, _ in pairs],
        "metrics": summarize_metrics(pairs),
        "seeds": [seed for seed, _, _ in pairs],
    }


def summarize(pairs, claim=None, better=None):
    """One workload's entry, from ``pairs``: (seed, first side, {side: result});
    with a ``claim``, the pairs the change won on it in the ``better`` direction."""
    seeds = [seed for seed, _, _ in pairs]
    entry = {
        "all_correct": all(res[side]["correct"] for _, _, res in pairs for side in SIDES),
        "attempted_ops": {s: sum(res[s]["attempted"] for _, _, res in pairs) for s in SIDES},
        "failed_ops": {s: sum(res[s]["failed"] for _, _, res in pairs) for s in SIDES},
        "first": [first for _, first, _ in pairs],
        "metrics": summarize_metrics(pairs),
        "seeds": {s: seeds for s in SIDES},
    }
    if claim is not None:
        both = [(res["parent"]["metrics"][claim]["value"],
                 res["change"]["metrics"][claim]["value"])
                for _, _, res in pairs
                if claim in res["parent"]["metrics"] and claim in res["change"]["metrics"]]
        won = sum(c < p if better == "lower" else c > p for p, c in both)
        entry[f"{claim}_pairs_won"] = {"change": won, "pairs": len(both)}
        ratios = [c / p for p, c in both if p]
        entry[f"{claim}_pair_ratios"] = dict(
            quartiles(ratios), min=min(ratios, default=None), max=max(ratios, default=None)
        )
        entry["claim_verdict"] = claim_verdict(
            entry["metrics"].get(claim), won, len(both), better
        )
    return entry


def claim_verdict(m, won, pairs, better):
    """"met" when the change won at least 9 of every 10 ``pairs`` and its
    median of the claimed metric ``m`` beats the parent's, in the ``better``
    direction, by more than the parent's interquartile spread; else "not
    met" (so also when a side has no median)."""
    if not pairs or m is None or None in (m["parent"]["median"], m["change"]["median"]):
        return "not met"
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (m["parent"]["median"] - m["change"]["median"])
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    return "met" if 10 * won >= 9 * pairs and gain > spread else "not met"


def regression(metrics, declared):
    """Per end-to-end metric of ``declared`` ({name: {"better", "bound"}}):
    how much worse the change's median is than the parent's, as a fraction
    of the parent's (negative when better), the parent's interquartile
    spread as a fraction of its median, and the verdict: "unresolved" when
    that spread exceeds the bound, unless every change run reads better
    than every parent run; else "worse" beyond the bound, else "within".
    A metric with no median on a side, or a parent median of 0, is
    "unmeasured"."""
    out = {}
    for name, decl in sorted(declared.items()):
        m = metrics.get(name)
        p = m and m["parent"]["median"]
        if not p or m["change"]["median"] is None:
            out[name] = {"bound": decl["bound"], "verdict": "unmeasured"}
            continue
        sign = 1.0 if decl["better"] == "lower" else -1.0
        worse_by = sign * (m["change"]["median"] - p) / abs(p)
        spread = (m["parent"]["q3"] - m["parent"]["q1"]) / abs(p)
        all_better = all(sign * (c - q) < 0 for c in m["change"]["runs"]
                         for q in m["parent"]["runs"])
        if spread > decl["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse_by > decl["bound"] else "within"
        out[name] = {"bound": decl["bound"], "parent_spread": spread,
                     "verdict": verdict, "worse_by": worse_by}
    return out


def host_info(doc):
    """The host fields of one run's results file."""
    host = {k: doc[k] for k in ("blas", "blas_threads", "cpu_count", "host_reference_s",
                                "numpy", "python")}
    host["machine"] = (
        f"{doc['cpu_count']}-core {platform.machine()} host, benchmark process pinned to one CPU"
    )
    return host


def declared_metrics():
    """{name: {"better", "bound"}} of every end-to-end metric of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: {"better": m["better"], "bound": m["bound"]}
                for m in json.load(fh)["end_to_end"]}


def parse_claim(text, declared, workloads):
    """``{"metric", "workload"}`` of a ``METRIC@WORKLOAD`` claim, whose metric
    must be an end-to-end metric of ``declared`` and whose workload one of
    the ``workloads`` run."""
    metric, sep, workload = text.partition("@")
    if not sep or not workload:
        raise SystemExit(f"ab: --claim {text!r}: give it as METRIC@WORKLOAD")
    if metric not in declared:
        raise SystemExit(f"ab: --claim {text!r}: {metric!r} is not an end-to-end metric "
                         f"of BENCHMARK.json")
    if workload not in workloads:
        raise SystemExit(f"ab: --claim {text!r}: workload {workload!r} is not run "
                         f"(--workload {' '.join(workloads)})")
    return {"metric": metric, "workload": workload}


def run_pairs(checkouts, workload, seeds, seconds, trace, claim, doc):
    """(seed, first side, {side: result}) of one run per side and seed, the
    side that runs first alternating from seed to seed."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side], run_doc = run_benchmark(
                checkouts[side], side, workload, seed, seconds, trace
            )
            if doc["host"] is None and run_doc is not None:
                doc["host"] = host_info(run_doc)
            value = results[side]["metrics"].get(claim, {}).get("value")
            shown = "traced" if trace else f"{claim}={value}" if claim else "measured"
            print(f"{workload} seed {seed} {side}: {shown} correct={results[side]['correct']}",
                  file=sys.stderr, flush=True)
        pairs.append((seed, order[0], results))
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="the BENCH_<tag>.json to write")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        help="the end-to-end metric a gain is claimed on and the workload "
                             "it is claimed for (default: none, no gain claimed)")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--workdir", help="where the two checkouts go (default: the temp dir)")
    parser.add_argument("--trace-seeds", type=parse_seeds, default=[],
                        help="seeds to run once more per side with --trace 1 (e.g. 1,2)")
    args = parser.parse_args(argv)

    declared = declared_metrics()
    claim = parse_claim(args.claim, declared, args.workload) if args.claim else None
    sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    doc = {
        "benchmark": f"python3 benchmarks/run.py --workload <name> --seed <seed> "
                     f"--seconds {args.seconds:g} --trace 0",
        "change": args.change,
        "claim": claim,
        "git_sha": {"parent": sha, "change": CHANGE_SHA},
        "host": None,
        "method": METHOD,
        "src_tree": {"parent": git("rev-parse", f"{sha}:src"),
                     "change": working_tree_src_tree()},
        "workloads": {},
    }
    if args.trace_seeds:
        doc["traced_benchmark"] = doc["benchmark"].replace("--trace 0", "--trace 1")
    work = tempfile.mkdtemp(prefix="ab-", dir=args.workdir)
    try:
        checkouts = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
        export_parent(sha, checkouts["parent"])
        export_working_tree(checkouts["change"])
        doc["arithmetic_fingerprint"] = {s: checkout_fingerprint(checkouts[s]) for s in SIDES}
        for workload in args.workload:
            metric = claim["metric"] if claim and claim["workload"] == workload else None
            pairs = run_pairs(checkouts, workload, args.seeds, args.seconds, 0, metric, doc)
            better = declared[metric]["better"] if metric else None
            entry = doc["workloads"][workload] = summarize(pairs, metric, better)
            entry["regression"] = regression(entry["metrics"], declared)
            if args.trace_seeds:
                traced = run_pairs(checkouts, workload, args.trace_seeds, args.seconds, 1,
                                   metric, doc)
                entry["per_layer"] = summarize_traced(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)

    for workload, entry in doc["workloads"].items():
        print(f"{workload}: all correct {entry['all_correct']}")
        if claim and claim["workload"] == workload:
            won = entry[f"{claim['metric']}_pairs_won"]
            print(f"  {claim['metric']} better in {won['change']} of {won['pairs']} pairs: "
                  f"claim {entry['claim_verdict']}")
            r = entry[f"{claim['metric']}_pair_ratios"]
            if r["n"]:
                print(f"  change/parent per pair: min x{r['min']:.4f}, quartiles "
                      f"x{r['q1']:.4f} x{r['median']:.4f} x{r['q3']:.4f}, max x{r['max']:.4f}")
        for name, r in entry["regression"].items():
            if r["verdict"] == "unmeasured":
                print(f"  {name}: unmeasured")
                continue
            print(f"  {name}: {r['verdict']} (worse by {r['worse_by']:+.2%}, bound "
                  f"{r['bound']:.0%}, parent spread {r['parent_spread']:.2%})")
        for name, m in {**entry["metrics"], **entry.get("per_layer", {}).get("metrics", {})}.items():
            ratio = m["change_over_parent"]
            p, c = (f"{v:.6g}" if v is not None else "none"
                    for v in (m["parent"]["median"], m["change"]["median"]))
            print(f"  {name}: parent {p} -> change {c}"
                  + (f" (x{ratio:.4f})" if ratio is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
