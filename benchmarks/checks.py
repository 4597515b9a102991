"""Correctness checks on workload outputs.

Every check compares an output against an independent computation or a
property of the method, never against a stored copy of earlier output.
Each raises ``CheckFailed`` with a reason; the self-check feeds them
corrupted outputs to show that they do.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


class CheckFailed(Exception):
    pass


def _close(a, b, rel=1e-12, abs_tol=1e-15):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def warmup_cosine(step, peak, floor, warmup, total):
    """Linear warmup to ``peak``, then half-cosine decay to ``floor`` at
    ``total``, written out from the schedule's definition."""
    if warmup > 0 and step < warmup:
        return peak * step / warmup
    if total == warmup:
        return peak if step <= warmup else floor
    progress = min((step - warmup) / (total - warmup), 1.0)
    return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * progress))


def loss_identity(rows, lambda_orth):
    """Every trace row satisfies loss_total = loss_nt + lambda * loss_orth."""
    for step, _, nt, orth, total in rows:
        if not _close(total, nt + lambda_orth * orth):
            raise CheckFailed(
                f"step {step}: loss_total {total!r} != {nt!r} + {lambda_orth} * {orth!r}"
            )


def lr_schedule(rows, peak, floor, warmup, total_steps):
    """Steps count 1, 2, ... and each lr is the warmup-cosine value."""
    if len(rows) != total_steps:
        raise CheckFailed(f"{len(rows)} trace rows for {total_steps} scheduled steps")
    for i, (step, lr, *_rest) in enumerate(rows, start=1):
        if step != i:
            raise CheckFailed(f"trace row {i} has step {step}")
        expect = warmup_cosine(step, peak, floor, warmup, total_steps)
        if not _close(lr, expect):
            raise CheckFailed(f"step {step}: lr {lr!r}, closed form gives {expect!r}")


def nt_xent_learned(rows, last_batch):
    """The final contrastive term lies below log(2B - 1), its value when
    every embedding is alike."""
    nt = rows[-1][2]
    chance = math.log(2 * last_batch - 1)
    if not nt < chance:
        raise CheckFailed(f"final NT-Xent {nt!r} not below log(2B-1) = {chance!r}")


def same_trace(reference, rows):
    """A repeat reproduces the loss trace bit for bit."""
    if len(reference) != len(rows):
        raise CheckFailed(f"repeat has {len(rows)} trace rows, first run {len(reference)}")
    for a, b in zip(reference, rows):
        if [repr(v) for v in a] != [repr(v) for v in b]:
            raise CheckFailed(f"repeat differs at step {a[0]}: {a} vs {b}")


def routing(sites):
    """Each site's routing equals a brute-force argmin over squared
    prototype distances (ties to the lowest index). ``sites`` holds
    (features [B, d], prototypes [n, d], assignments [B]) per site."""
    for s, (features, prototypes, assigned) in enumerate(sites):
        for i, f in enumerate(features):
            best, best_d = 0, None
            for k, p in enumerate(prototypes):
                d = float(sum((float(a) - float(b)) ** 2 for a, b in zip(f, p)))
                if best_d is None or d < best_d:
                    best, best_d = k, d
            if int(assigned[i]) != best:
                raise CheckFailed(
                    f"site {s}, sample {i}: routed to {int(assigned[i])}, nearest prototype is {best}"
                )


def noise_level(source, twin, sigma):
    """The twin minus its source has sample std within five standard
    errors of sigma (SE of a std estimate: sigma / sqrt(2 (n - 1)))."""
    diff = np.asarray(twin, dtype=np.float64) - np.asarray(source, dtype=np.float64)
    n = diff.size
    s = float(diff.std(ddof=1))
    se = sigma / math.sqrt(2.0 * (n - 1))
    if abs(s - sigma) > 5.0 * se:
        raise CheckFailed(f"twin - source std {s!r}, expected {sigma} +- {5.0 * se:.2g}")


def classification_metrics(doc, n_samples):
    """Accuracy, macro-F1 and per-class F1 agree with the confusion
    matrix, whose total is the number of evaluated samples."""
    conf = np.asarray(doc["confusion"], dtype=np.int64)
    total = int(conf.sum())
    if total != n_samples:
        raise CheckFailed(f"confusion matrix counts {total} samples, test set has {n_samples}")
    k = conf.shape[0]
    accuracy = sum(int(conf[i, i]) for i in range(k)) / total
    if not _close(doc["accuracy"], accuracy):
        raise CheckFailed(f"accuracy {doc['accuracy']!r}, confusion gives {accuracy!r}")
    f1 = []
    for c in range(k):
        tp = int(conf[c, c])
        support = sum(int(conf[c, j]) for j in range(k))
        predicted = sum(int(conf[j, c]) for j in range(k))
        f1.append(2.0 * tp / (support + predicted) if support + predicted else 0.0)
    for c, (got, want) in enumerate(zip(doc["per_class_f1"], f1)):
        if not _close(got, want):
            raise CheckFailed(f"class {c} F1 {got!r}, confusion gives {want!r}")
    macro = sum(f1) / k
    if not _close(doc["macro_f1"], macro):
        raise CheckFailed(f"macro-F1 {doc['macro_f1']!r}, confusion gives {macro!r}")


def above_chance(accuracy, labels):
    """Accuracy beats always guessing the most frequent class."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64))
    majority = counts.max() / counts.sum()
    if not accuracy > majority:
        raise CheckFailed(f"accuracy {accuracy!r} not above the majority share {majority!r}")


def resave_identical(path, load, save, copy_path):
    """Loading a checkpoint and saving it again gives identical bytes."""
    try:
        encoder, state, config, meta = load(path)
    except Exception as e:  # any refusal to load fails the check, with its reason
        raise CheckFailed(f"{os.path.basename(path)} does not load: {type(e).__name__}: {e}") from e
    save(copy_path, encoder, state, config, meta)
    with open(path, "rb") as fh:
        original = fh.read()
    with open(copy_path, "rb") as fh:
        again = fh.read()
    os.remove(copy_path)
    if original != again:
        first = next((i for i, (a, b) in enumerate(zip(original, again)) if a != b), None)
        raise CheckFailed(
            f"{os.path.basename(path)}: re-saved copy differs "
            f"({len(original)} vs {len(again)} bytes, first difference at {first})"
        )


def command_ok(exit_code, run_dir, command):
    """A command exits 0 and leaves ``status.json`` set to ok."""
    if exit_code != 0:
        raise CheckFailed(f"{command} exited {exit_code}")
    with open(os.path.join(run_dir, "status.json"), encoding="utf-8") as fh:
        status = json.load(fh).get("status")
    if status != "ok":
        raise CheckFailed(f"{command} status is {status!r}")
