"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the ``protonorm`` package in ``src/`` of the
checkout this file sits in, for ``--seconds`` seconds of whole rounds,
checks every output, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. A results file per invocation lands in ``bench_out/``.

Exits 2 without a result when the checkout holds no ``src/protonorm``,
and 1 when an output fails its check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")

WORKLOADS = ("desk-pretrain", "paper-pretrain", "shift-pipeline")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pretrain_samples_per_s": "samples/s",
    "finetune_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "pipeline_s": "s",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
}
RATES = ("pretrain_samples_per_s", "finetune_samples_per_s", "eval_samples_per_s")
SETUP_REPEATS = 7
MIN_ROUNDS = 2  # the first round warms caches and is left out of the medians
# One BLAS thread: at desk scale it is faster than two, at paper scale
# as fast, and it leaves the second core to the rest of the machine.
BLAS_THREADS = "1"

clock = time.perf_counter


def pin():
    """Pin BLAS and OpenMP pools to one thread before numpy loads, and this
    process to one CPU, so host probes and timed phases run on the same
    core (children inherit both)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def require_program():
    if not os.path.isfile(os.path.join(SRC, "protonorm", "__init__.py")):
        print(f"benchmark: no protonorm package under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_program():
    """Import ``protonorm`` from this checkout's ``src/`` and nowhere else."""
    require_program()
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import protonorm

    if os.path.dirname(os.path.abspath(protonorm.__file__)) != os.path.join(SRC, "protonorm"):
        raise SystemExit(f"benchmark: imported protonorm from {protonorm.__file__}, not {SRC}")
    return protonorm


def quartiles(values):
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_sha():
    """The commit of the checkout, read from ``.git`` without running git;
    None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy: no dict mode
        return {"name": None, "version": None}


# -- set-up probes ---------------------------------------------------------------


def probe_setup(args):
    """Child process: import the package, build the inputs, construct the
    encoder, and print the elapsed time."""
    start = clock()
    pn = import_program()
    import workloads

    workdir = os.path.join(OUT, "work", f"probe-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, workdir, args.size)
    wl.setup(pn)
    elapsed = clock() - start
    wl.cleanup()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args):
    """(raw seconds, host slowdown) of ``SETUP_REPEATS`` fresh set-ups, each
    in its own process, with the host probed before and after each."""
    import hostspeed

    phase_clock = hostspeed.PhaseClock()
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc, _, slowdown = phase_clock.time(
            subprocess.run, cmd, capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append((raw, slowdown))
    return samples


# -- one invocation -------------------------------------------------------------------


def run(args):
    require_program()
    setup_samples = measure_setup(args)
    t0 = clock()
    pn = import_program()
    import numpy as np

    import checks
    import hostspeed
    import workloads
    from tracer import Tracer

    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, workdir, args.size)
    wl.setup(pn)
    main_setup_s = clock() - t0

    tracer = None
    if args.trace:
        tracer = Tracer(args.entry_points) if args.entry_points else Tracer()
        tracer.install()

    rounds, errors = [], []  # rounds: (index, Round)
    attempted = failed = 0
    correct = True
    first = None
    phase_clock = hostspeed.PhaseClock()
    deadline = clock() + args.seconds
    index = 0
    try:
        while index < MIN_ROUNDS or clock() < deadline:
            attempted += wl.ops_per_round
            if tracer:
                tracer.round = index
                tracer.enabled = True
            try:
                r = wl.run_round(index, phase_clock)
            except Exception:
                failed += wl.ops_per_round
                errors.append(traceback.format_exc())
                index += 1
                continue
            finally:
                if tracer:
                    tracer.enabled = False
            try:
                if first is None:
                    wl.check_first(r)
                    first = r
                else:
                    wl.check_repeat(first, r)
            except checks.CheckFailed as e:
                correct = False
                errors.append(f"round {index}: check failed: {e}")
                break
            rounds.append((index, r))
            index += 1
    finally:
        if tracer:
            tracer.uninstall()
        wl.cleanup()

    if not rounds:
        correct = False
    measured = rounds[1:] if len(rounds) > 1 else rounds
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "setup_s": quartiles(raw / sd for raw, sd in setup_samples),
        "peak_rss_mb": quartiles([rss]),
    }
    raw_summary = {"setup_s": quartiles(raw for raw, _ in setup_samples)}
    if measured:
        for name in END_TO_END_UNITS:
            if name not in summary:
                summary[name] = quartiles(r.metrics()[name] for _, r in measured)
                raw_summary[name] = quartiles(r.metrics(normalize=False)[name] for _, r in measured)

    scale = {i: 1.0 / r.slowdown for i, r in measured}
    if tracer:
        metrics = tracer.metrics([i for i, _ in measured], scale)
    else:
        metrics = {
            name: {"value": summary[name]["median"], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if name in summary
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    macs = pn.count_forward_macs(wl.encoder_config)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(np),
        "host_reference_s": hostspeed.REFERENCE_S,
        "setup_samples": [{"raw_s": raw, "slowdown": sd} for raw, sd in setup_samples],
        "main_setup_s": main_setup_s,
        "warmup_rounds": len(rounds) - len(measured),
        "rounds": [
            {"round": i, "phases": r.phases, "raw": r.metrics(normalize=False),
             "normalized": r.metrics()}
            for i, r in rounds
        ],
        "end_to_end": summary,
        "end_to_end_raw": raw_summary,
        "macs_per_sample": {"core": macs.core, "gating": macs.gating},
        "errors": errors,
        "result": result,
    }
    if tracer:
        doc["per_layer_rounds"] = tracer.per_round([i for i, _ in measured], scale)
        doc["absent_entry_points"] = tracer.absent
        spans_path = os.path.join(OUT, "results", f"{tag}.spans.json")
        tracer.dump(spans_path)
        doc["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"results: {os.path.relpath(os.path.join(OUT, 'results', tag + '.json'), ROOT)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # the traced entry points; the self-check swaps in a list with a missing one
    parser.set_defaults(entry_points=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    pin()
    if args.setup_probe:
        probe_setup(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
