"""Span tracing around the public entry points of each protonorm module.

The program has no tracing of its own, so the traced run wraps its entry
points from outside: every call records a span (name, start, end, parent)
in memory, and the spans are written out once the run ends. Backward time
cannot be split per layer from outside the tape, so ``Tensor.backward``
is one span.

A wrapped entry point that no longer exists is recorded as absent; its
layer metric then reads ``None`` and the workload still runs.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time

# (span name, module, attribute path). ``Encoder.encode`` is split into
# ``encoder.forward`` and ``encoder.forward_nograd`` by the grad mode at
# call time.
ENTRY_POINTS = (
    ("data.load", "protonorm.data", "load_ucr_tsv"),
    ("contrastive.augment", "protonorm.contrastive", "augment_pair"),
    ("contrastive.nt_xent", "protonorm.contrastive", "nt_xent"),
    ("encoder.forward", "protonorm.encoder", "Encoder.encode"),
    ("encoder.attn", "protonorm.encoder", "MultiHeadAttention.__call__"),
    ("encoder.ffn", "protonorm.encoder", "FeedForward.__call__"),
    ("norm.forward", "protonorm.norm", "ProtoNormLayer.forward"),
    ("norm.gate", "protonorm.norm", "ProtoNormLayer.select_indices"),
    ("tensor.backward", "protonorm.tensor", "Tensor.backward"),
    ("training.adamw", "protonorm.training", "adamw_step"),
    ("training.ema", "protonorm.encoder", "Encoder.apply_ema_updates"),
    ("training.evaluate", "protonorm.training", "evaluate"),
    ("training.pretrain", "protonorm.training", "pretrain"),
    ("training.finetune", "protonorm.training", "finetune"),
    ("checkpoint.save", "protonorm.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "protonorm.checkpoint", "load_checkpoint"),
    ("cli.main", "protonorm.cli", "main"),
)

# Per-layer metrics: name -> (unit, span names whose time it sums). Times
# are seconds per round; ``cli.self_s`` is the time inside ``cli.main``
# not covered by a wrapped call.
TIME_METRICS = {
    "data.load_s": ("data.load",),
    "contrastive.augment_s": ("contrastive.augment",),
    "contrastive.nt_xent_s": ("contrastive.nt_xent",),
    "encoder.forward_s": ("encoder.forward",),
    "encoder.forward_nograd_s": ("encoder.forward_nograd",),
    "encoder.attn_s": ("encoder.attn",),
    "encoder.ffn_s": ("encoder.ffn",),
    "norm.forward_s": ("norm.forward",),
    "norm.gate_s": ("norm.gate",),
    "tensor.backward_s": ("tensor.backward",),
    "training.adamw_s": ("training.adamw",),
    "training.ema_s": ("training.ema",),
    "training.evaluate_s": ("training.evaluate",),
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    "tensor.tape_nodes": "count",
    "checkpoint.bytes": "bytes",
    "cli.self_s": "s",
}
# the spans each metric is read from; it reads None when one is absent
SOURCES = {
    **TIME_METRICS,
    "encoder.forward_nograd_s": ("encoder.forward",),
    "tensor.tape_nodes": ("tensor.backward",),
    "checkpoint.bytes": ("checkpoint.save",),
    "cli.self_s": ("cli.main",),
}


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the entry point is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    # a class must define the method itself, not inherit it from ``type``
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    if not present:
        return None
    return owner, attr, getattr(owner, attr)


def count_tape_nodes(loss):
    """Recorded graph nodes reachable from ``loss`` (tensors holding a
    backward closure), counted before backward consumes them."""
    seen = set()
    stack = [loss]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        ctx = getattr(t, "_ctx", None)
        parents = getattr(ctx, "parents", None)
        if parents is None:
            continue
        nodes += 1
        stack.extend(parents)
    return nodes


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, entry_points=ENTRY_POINTS, clock=time.perf_counter):
        self.entry_points = entry_points
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, round]
        self.stack = []
        self.round = -1
        self.enabled = False
        self.absent = []
        self.tape_nodes = []  # (round, nodes) per backward inside pretrain
        self.ckpt_bytes = []  # (round, bytes) per save_checkpoint call
        self._patched = []  # (owner, attr, original)

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.round])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = self.clock()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def _wrap(self, name, fn):
        tracer = self

        if name == "encoder.forward":
            tensor_mod = sys.modules["protonorm.tensor"]

            def wrapped(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer._open(
                    "encoder.forward" if tensor_mod._grad_enabled else "encoder.forward_nograd"
                )
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()

        elif name == "tensor.backward":

            def wrapped(loss):
                if not tracer.enabled:
                    return fn(loss)
                if tracer._inside("training.pretrain"):
                    tracer.tape_nodes.append((tracer.round, count_tape_nodes(loss)))
                tracer._open(name)
                try:
                    return fn(loss)
                finally:
                    tracer._close()

        elif name == "checkpoint.save":

            def wrapped(path, *args, **kwargs):
                if not tracer.enabled:
                    return fn(path, *args, **kwargs)
                tracer._open(name)
                try:
                    out = fn(path, *args, **kwargs)
                finally:
                    tracer._close()
                tracer.ckpt_bytes.append((tracer.round, os.path.getsize(path)))
                return out

        else:

            def wrapped(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()

        wrapped.__wrapped__ = fn
        return wrapped

    # -- install / remove -----------------------------------------------

    def install(self):
        """Wrap every entry point. Module-level functions are replaced in
        every loaded protonorm module that bound them by name, so calls
        through ``from .x import f`` imports are seen too."""
        modules = [m for k, m in sys.modules.items() if k == "protonorm" or k.startswith("protonorm.")]
        for name, module_name, path in self.entry_points:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attr, original = found
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- aggregation ------------------------------------------------------

    def per_round(self, rounds, scale):
        """{metric: [value per round]} for the given round indices; times
        are multiplied by ``scale[round]``."""
        totals = {r: {} for r in rounds}
        children = {}
        for name, start, end, parent, rnd in self.spans:
            if rnd not in totals or end is None:
                continue
            # a span nested inside one of its own name is counted once
            p, nested = parent, False
            while p != -1:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                totals[rnd][name] = totals[rnd].get(name, 0.0) + (end - start)
            if parent != -1:
                children[parent] = children.get(parent, 0.0) + (end - start)
        cli_self = {r: 0.0 for r in rounds}
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if name == "cli.main" and rnd in cli_self and end is not None:
                cli_self[rnd] += (end - start) - children.get(i, 0.0)
        out = {}
        for metric, span_names in TIME_METRICS.items():
            out[metric] = [
                scale[r] * sum(totals[r].get(s, 0.0) for s in span_names) for r in rounds
            ]
        out["cli.self_s"] = [scale[r] * cli_self[r] for r in rounds]
        out["checkpoint.bytes"] = [
            float(sum(b for rr, b in self.ckpt_bytes if rr == r)) for r in rounds
        ]
        return out

    def metrics(self, rounds, scale):
        """Per-layer metrics: the median over ``rounds`` of each per-round
        total; tape nodes as the median count per pretraining step."""
        gone = {name for name, module, path in self.entry_points
                if f"{module}:{path}" in self.absent}
        values = self.per_round(rounds, scale)
        values["tensor.tape_nodes"] = [float(n) for r, n in self.tape_nodes if r in rounds]
        out = {}
        for metric, unit in PER_LAYER_UNITS.items():
            if gone.intersection(SOURCES[metric]):
                value = None
            else:
                value = statistics.median(values[metric]) if values[metric] else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "round"],
                    "absent": self.absent,
                    "spans": self.spans,
                    "tape_nodes": self.tape_nodes,
                    "checkpoint_bytes": self.ckpt_bytes,
                },
                fh,
            )
