"""Fast self-check of the benchmark.

    python3 benchmarks/selfcheck.py

0. Requires ``BENCHMARK.json`` to name exactly the workloads and metrics
   the command prints, with the same units.
1. Runs every workload at toy size, untraced and traced, through the
   benchmark's command, and requires a correct result with no failed
   operation and every metric present.
2. Feeds each correctness check a corrupted copy of a real toy output
   (an altered accuracy, a flipped checkpoint byte, ...) and requires the
   check to reject it.
3. Traces with an entry point that does not exist and requires the
   workload to succeed with that layer metric reported absent.

Exits 0 when everything holds; prints one line per item.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin()
pn = run.import_program()

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(run.OUT, "work", f"selfcheck-{os.getpid()}")
failures = []


def report(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def expect_reject(what, fn):
    try:
        fn()
    except checks.CheckFailed as e:
        report(True, f"rejects {what}: {e}")
        return
    report(False, f"accepted {what}")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- 0. BENCHMARK.json names what the command prints --------------------------------


def manifest_matches():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    names = [w["name"] for w in manifest["workloads"]]
    report(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end-to-end metrics and units match run.py")
    report(layers == tracer.PER_LAYER_UNITS, "BENCHMARK.json per-layer metrics and units match tracer.py")
    report(names == list(run.WORKLOADS), "BENCHMARK.json workloads match run.py")


# -- 1. toy runs through the command ------------------------------------------------


def toy_runs():
    for name in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            result = last_json(proc.stdout)
            expected = tracer.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            ok = (
                proc.returncode == 0
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 2
                and set(result["metrics"]) == set(expected)
                and all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            )
            report(ok, f"{name} toy run, trace {trace}: exit {proc.returncode}, "
                       f"attempted {result['attempted']}, failed {result['failed']}")


# -- 2. corrupted outputs ---------------------------------------------------------------


def corrupt_in_memory():
    wl = workloads.make("desk-pretrain", 3, WORK, "toy")
    wl.setup(pn)
    r = wl.run_round(0, hostspeed.PhaseClock())
    x = wl.heldout.series[: wl.scale.routing_batch]
    import numpy as np

    sites = workloads.routing_sites(r.encoder, np.stack(x), pn)
    wl.check_first(r)
    report(True, "desk-pretrain toy outputs pass every check")
    rows = r.rows
    lam = pn.NtXentConfig().lambda_orth

    bad = copy.deepcopy(rows)
    step, lr, nt, orth, total = bad[-1]
    bad[-1] = (step, lr, nt, orth, total * (1 + 1e-9))
    expect_reject("a loss_total off by 1e-9", lambda: checks.loss_identity(bad, lam))

    bad = copy.deepcopy(rows)
    step, lr, *rest = bad[0]
    bad[0] = (step, lr * (1 + 1e-9), *rest)
    opt = pn.OptimConfig(lr_peak=wl.scale.lr, warmup_steps=wl.scale.warmup)
    expect_reject(
        "an lr off by 1e-9",
        lambda: checks.lr_schedule(bad, opt.lr_peak, opt.lr_floor, opt.warmup_steps, wl.total_steps),
    )

    bad = copy.deepcopy(rows)
    step, lr, nt, orth, total = bad[-1]
    bad[-1] = (step, lr, math.log(2 * wl.scale.batch_size - 1), orth, total)
    expect_reject("a final NT-Xent at log(2B-1)",
                  lambda: checks.nt_xent_learned(bad, wl.scale.batch_size))

    bad = copy.deepcopy(rows)
    step, lr, nt, orth, total = bad[1]
    bad[1] = (step, lr, math.nextafter(nt, math.inf), orth, total)
    expect_reject("a repeat one ulp away", lambda: checks.same_trace(rows, bad))

    feats, protos, assigned = sites[0]
    flipped = assigned.copy()
    flipped[0] = (flipped[0] + 1) % len(protos)
    expect_reject("a sample routed to the wrong prototype",
                  lambda: checks.routing([(feats, protos, flipped)]))

    doc = copy.deepcopy(r.metrics_doc)
    doc["accuracy"] = doc["accuracy"] + 1.0 / len(wl.heldout)
    expect_reject("an altered accuracy",
                  lambda: checks.classification_metrics(doc, len(wl.heldout)))
    doc = copy.deepcopy(r.metrics_doc)
    doc["macro_f1"] = doc["macro_f1"] * 0.99
    expect_reject("an altered macro-F1",
                  lambda: checks.classification_metrics(doc, len(wl.heldout)))
    expect_reject("a confusion total short of the test set",
                  lambda: checks.classification_metrics(r.metrics_doc, len(wl.heldout) + 1))
    labels = wl.heldout.labels
    majority = np.bincount(labels).max() / len(labels)
    expect_reject("an accuracy at the majority share",
                  lambda: checks.above_chance(majority, labels))


def corrupt_pipeline():
    import numpy as np

    wl = workloads.make("shift-pipeline", 3, WORK, "toy")
    wl.setup(pn)
    r = wl.run_round(0, hostspeed.PhaseClock())
    wl.check_first(r)
    report(True, "shift-pipeline toy outputs pass every check")

    gen = r.dirs["generate"]
    _, src = workloads._read_label_file(os.path.join(gen, "source.tsv"))
    _, twin = workloads._read_label_file(os.path.join(gen, "source-n1.tsv"))
    sigma = wl.scale.sigma
    expect_reject("a twin with 10% more noise",
                  lambda: checks.noise_level(src, src + 1.1 * (twin - src), sigma))

    ckpt = os.path.join(r.dirs["finetune"], "model.ckpt")
    flipped = os.path.join(WORK, "flipped.ckpt")
    with open(ckpt, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    with open(flipped, "wb") as fh:
        fh.write(blob)
    copy_path = os.path.join(WORK, "copy.ckpt")
    expect_reject("a flipped checkpoint byte",
                  lambda: checks.resave_identical(flipped, pn.load_checkpoint, pn.save_checkpoint, copy_path))

    def lossy_save(path, *args):
        pn.save_checkpoint(path, *args)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0x01]))

    expect_reject("a saver that changes one byte",
                  lambda: checks.resave_identical(ckpt, pn.load_checkpoint, lossy_save, copy_path))

    eval_dir = r.dirs["eval"]
    expect_reject("a non-zero exit code", lambda: checks.command_ok(1, eval_dir, "eval"))
    status = os.path.join(eval_dir, "status.json")
    with open(status, "w", encoding="utf-8") as fh:
        json.dump({"status": "failed"}, fh)
    expect_reject("a failed status.json", lambda: checks.command_ok(0, eval_dir, "eval"))

    doc = copy.deepcopy(r.metrics_doc)
    conf = np.asarray(doc["confusion"])
    conf[0, 0] += 1
    doc["confusion"] = conf.tolist()
    expect_reject("a confusion matrix with an extra sample",
                  lambda: checks.classification_metrics(doc, wl.scale.n_test))
    wl.cleanup()


# -- 3. an entry point that no longer exists ------------------------------------------------


def absent_entry_point():
    points = [p for p in tracer.ENTRY_POINTS if p[0] != "norm.gate"]
    points.append(("norm.gate", "protonorm.norm", "ProtoNormLayer.no_such_method"))
    args = run.build_parser().parse_args(
        ["--workload", "desk-pretrain", "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "toy"]
    )
    args.entry_points = tuple(points)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(args)
    result = last_json(out.getvalue())
    gate = result["metrics"]["norm.gate_s"]["value"]
    others = result["metrics"]["norm.forward_s"]["value"]
    report(
        code == 0 and result["correct"] and gate is None and others is not None and others > 0,
        f"missing ProtoNormLayer.no_such_method: norm.gate_s reads {gate}, "
        f"norm.forward_s {others}, correct {result['correct']}",
    )


def main():
    os.makedirs(WORK, exist_ok=True)
    try:
        manifest_matches()
        toy_runs()
        corrupt_in_memory()
        corrupt_pipeline()
        absent_entry_point()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
