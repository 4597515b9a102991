"""The benchmark's workloads.

Each workload builds its inputs once (``setup``), then runs whole rounds
of the same operations until its time is up. A round runs one
pretrain -> fine-tune -> eval pass from a freshly built encoder, so every
round repeats the same arithmetic and must reproduce the first round's
loss trace bit for bit.

* ``desk-pretrain``: in memory, desk-scale encoder with 32 prototypes per
  site, over a pool of offset clusters.
* ``paper-pretrain``: in memory, the paper-scale encoder.
* ``shift-pipeline``: the ``protonorm`` command's entry point, from
  ``generate`` through ``eval``, on a clean source plus its noisy twin.

Only the calls into the program are timed, one phase per call (one per
command in the pipeline); building the encoder, probing the host and
checking outputs fall outside every phase.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import shutil

import numpy as np

import checks
import inputs

@dataclasses.dataclass(frozen=True)
class InMemoryScale:
    encoder: dict
    k_datasets: int
    n_per: int  # pretraining series per dataset
    batch_size: int
    lr: float
    warmup: int
    ft_per: int  # labeled series per dataset
    val_per: int
    eval_per: int
    ft_epochs: int
    ft_batch: int
    ft_lr: float
    routing_batch: int


@dataclasses.dataclass(frozen=True)
class ShiftScale:
    encoder: dict
    n_source: int
    n_test: int
    sigma: float
    pretrain_epochs: int
    pretrain_batch: int
    warmup: int
    ft_epochs: int
    ft_batch: int
    n_labeled: int
    routing_batch: int


DESK_ENCODER = dict(input_len=128, patch_size=16, d_model=64, n_layers=3)
PAPER_ENCODER = dict(input_len=512, patch_size=50, d_model=256, n_layers=12)
TOY_ENCODER = dict(input_len=32, patch_size=8, d_model=16, n_heads=2, n_layers=1)

SCALES = {
    "desk-pretrain": {
        "full": InMemoryScale(
            encoder={**DESK_ENCODER, "n_prototypes": 32},
            k_datasets=4, n_per=64, batch_size=32, lr=1e-3, warmup=2,
            ft_per=16, val_per=8, eval_per=128, ft_epochs=2, ft_batch=16,
            ft_lr=3e-3, routing_batch=16,
        ),
        "toy": InMemoryScale(
            encoder={**TOY_ENCODER, "n_prototypes": 8},
            k_datasets=4, n_per=8, batch_size=16, lr=1e-3, warmup=1,
            ft_per=4, val_per=2, eval_per=16, ft_epochs=2, ft_batch=8,
            ft_lr=3e-3, routing_batch=8,
        ),
    },
    "paper-pretrain": {
        "full": InMemoryScale(
            encoder={**PAPER_ENCODER, "n_prototypes": 4},
            k_datasets=4, n_per=8, batch_size=32, lr=1e-4, warmup=1,
            ft_per=4, val_per=2, eval_per=16, ft_epochs=2, ft_batch=4,
            ft_lr=1e-4, routing_batch=8,
        ),
        "toy": InMemoryScale(
            encoder={**TOY_ENCODER, "n_prototypes": 4},
            k_datasets=4, n_per=4, batch_size=16, lr=1e-3, warmup=1,
            ft_per=4, val_per=2, eval_per=16, ft_epochs=2, ft_batch=8,
            ft_lr=3e-3, routing_batch=8,
        ),
    },
    "shift-pipeline": {
        "full": ShiftScale(
            encoder={"n_prototypes": 4},
            n_source=200, n_test=2000, sigma=0.3, pretrain_epochs=2,
            pretrain_batch=32, warmup=10, ft_epochs=4, ft_batch=16,
            n_labeled=100, routing_batch=16,
        ),
        "toy": ShiftScale(
            encoder={"n_prototypes": 2},
            n_source=64, n_test=100, sigma=0.3, pretrain_epochs=2,
            pretrain_batch=16, warmup=2, ft_epochs=3, ft_batch=8,
            n_labeled=40, routing_batch=8,
        ),
    },
}


@dataclasses.dataclass
class Round:
    """Phase timings and the outputs the checks read."""

    pretrain_samples: int = 0
    finetune_samples: int = 0
    eval_samples: int = 0
    accuracy: float = 0.0
    phases: dict = dataclasses.field(default_factory=dict)  # name -> (raw s, slowdown)
    rows: list = dataclasses.field(default_factory=list)
    metrics_doc: dict | None = None
    encoder: object = None  # in-memory: the trained encoder, until checked
    commands: list = dataclasses.field(default_factory=list)  # (command, exit code, run dir)
    dirs: dict = dataclasses.field(default_factory=dict)
    out: str | None = None

    def timed(self, name, phase_clock, fn, *args, **kwargs):
        out, elapsed, slowdown = phase_clock.time(fn, *args, **kwargs)
        self.phases[name] = (elapsed, slowdown)
        return out

    @property
    def slowdown(self):
        return sum(sd for _, sd in self.phases.values()) / len(self.phases)

    def metrics(self, normalize=True):
        """End-to-end figures of this round; with ``normalize`` each phase
        time is divided by the host slowdown measured around it."""
        t = {name: raw / sd if normalize else raw for name, (raw, sd) in self.phases.items()}
        return {
            "pretrain_samples_per_s": self.pretrain_samples / t["pretrain"],
            "finetune_samples_per_s": self.finetune_samples / t["finetune"],
            "eval_samples_per_s": self.eval_samples / t["eval"],
            "pipeline_s": sum(t.values()),
            "test_accuracy": self.accuracy,
        }


def routing_sites(encoder, x, pn):
    """(features, prototypes, assignments) of every gated site after one
    no-grad forward of ``x`` through a fine-tuned encoder."""
    with pn.no_grad():
        encoder.encode(x, "eval")
    return [
        (layer.last_features.copy(), layer.bank.P.data.copy(), layer.last_assignments.copy())
        for layer in encoder.protonorm_layers()
        if layer.bank is not None
    ]


# -- in-memory workloads -------------------------------------------------------


class InMemoryPretrain:
    """``pretrain`` -> ``finetune`` -> ``evaluate`` on arrays the benchmark
    built, with no files or checkpoints."""

    ops_per_round = 3

    def __init__(self, scale, seed, workdir):
        self.scale = scale
        self.seed = seed

    def setup(self, pn):
        s = self.scale
        self.pn = pn
        self.encoder_config = pn.EncoderConfig(**s.encoder)
        length = self.encoder_config.input_len
        self.pool = [
            pn.Dataset(f"cluster{j}", list(x), y, dataset_id=j)
            for j, (x, y) in enumerate(inputs.level_pool(self.seed, 1, s.k_datasets, s.n_per, length))
        ]
        self.labeled = self._merged(2, s.ft_per, "train", length)
        self.val = self._merged(3, s.val_per, "val", length)
        self.heldout = self._merged(4, s.eval_per, "test", length)
        self.encoder = self._encoder()

    def _merged(self, tag, n_per, split, length):
        parts = inputs.level_pool(self.seed, tag, self.scale.k_datasets, n_per, length)
        x = np.concatenate([p[0] for p in parts])
        y = np.concatenate([p[1] for p in parts])
        return self.pn.Dataset(split, list(x), y, split=split)

    def _encoder(self):
        streams = self.pn.RngStreams.from_seed(self.seed)
        return self.pn.Encoder(self.encoder_config, streams.params, streams.protos), streams

    @property
    def n_pool(self):
        return self.scale.k_datasets * self.scale.n_per

    @property
    def total_steps(self):
        return math.ceil(self.n_pool / self.scale.batch_size)

    def run_round(self, index, phase_clock):
        pn, s = self.pn, self.scale
        r = Round()
        encoder, streams = self.encoder if index == 0 else self._encoder()
        result = r.timed(
            "pretrain", phase_clock, pn.pretrain,
            self.pool, encoder, pn.AugmentConfig(), pn.NtXentConfig(),
            pn.OptimConfig(lr_peak=s.lr, warmup_steps=s.warmup),
            epochs=1, batch_size=s.batch_size, seed=self.seed,
            state=pn.TrainState(streams=streams),
        )
        r.timed(
            "finetune", phase_clock, pn.finetune,
            (self.labeled, self.val, self.val), encoder,
            pn.OptimConfig(warmup_steps=1, lr_peak=s.ft_lr),
            epochs=s.ft_epochs, batch_size=s.ft_batch, n_labeled="all", seed=self.seed,
        )
        metrics = r.timed("eval", phase_clock, pn.evaluate, encoder, self.heldout, 64)
        r.pretrain_samples = self.n_pool
        r.finetune_samples = len(self.labeled) * s.ft_epochs
        r.eval_samples = len(self.heldout)
        r.accuracy = metrics.accuracy
        r.rows = list(result.rows)
        r.metrics_doc = metrics.to_dict()
        r.encoder = encoder
        return r

    def check_first(self, r):
        """Checks on the first round's outputs."""
        nt = self.pn.NtXentConfig()
        checks.loss_identity(r.rows, nt.lambda_orth)
        opt = self.pn.OptimConfig(lr_peak=self.scale.lr, warmup_steps=self.scale.warmup)
        checks.lr_schedule(r.rows, opt.lr_peak, opt.lr_floor, opt.warmup_steps, self.total_steps)
        last = self.n_pool - (self.total_steps - 1) * self.scale.batch_size
        checks.nt_xent_learned(r.rows, last)
        checks.classification_metrics(r.metrics_doc, len(self.heldout))
        checks.above_chance(r.accuracy, self.heldout.labels)
        x = np.stack(self.heldout.series[: self.scale.routing_batch])
        checks.routing(routing_sites(r.encoder, x, self.pn))
        r.encoder = None

    def check_repeat(self, first, r):
        checks.same_trace(first.rows, r.rows)
        if repr(r.accuracy) != repr(first.accuracy):
            raise checks.CheckFailed(f"repeat accuracy {r.accuracy!r} != {first.accuracy!r}")
        r.encoder = None

    def cleanup(self):
        pass


# -- command-line workload ---------------------------------------------------------


def _read_label_file(path):
    labels, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                fields = line.split("\t")
                labels.append(int(fields[0]))
                rows.append([float(v) for v in fields[1:]])
    return np.asarray(labels), np.asarray(rows)


def _read_trace(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        step, *values = line.split(",")
        rows.append((int(step), *(float(v) for v in values)))
    return rows


class ShiftPipeline:
    """``generate -> pretrain -> finetune -> eval`` through ``cli.main``,
    each command writing its own run directory."""

    ops_per_round = 4

    def __init__(self, scale, seed, workdir):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir

    def setup(self, pn):
        import protonorm.cli as cli
        from protonorm.config import load_run_config

        s = self.scale
        self.pn, self.cli = pn, cli
        os.makedirs(self.workdir, exist_ok=True)
        length = pn.EncoderConfig(**s.encoder).input_len
        self.source_path = os.path.join(self.workdir, "source.tsv")
        self.test_path = os.path.join(self.workdir, "test.tsv")
        rng = inputs.rng_for(self.seed, 5)
        x, y = inputs.frequency_series(rng, s.n_source, length)
        inputs.write_label_file(self.source_path, x, y)
        x, y = inputs.frequency_series(rng, s.n_test, length)
        inputs.write_label_file(self.test_path, x, y)
        self.test_labels = y
        self.config = {
            "seed": self.seed,
            "encoder": dict(s.encoder),
            "optim": {"warmup_steps": s.warmup},
            "pretrain": {"epochs": s.pretrain_epochs, "batch_size": s.pretrain_batch},
            "finetune": {"epochs": s.ft_epochs, "batch_size": s.ft_batch, "n_labeled": s.n_labeled},
            "data": {"source_path": os.path.abspath(self.source_path), "sigmas": [s.sigma]},
        }
        self.generate_config = os.path.join(self.workdir, "generate.json")
        with open(self.generate_config, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.resolved = load_run_config(self.generate_config, env={})
        self.encoder_config = self.resolved.encoder
        # the commands build their own encoders; this one makes set-up cover
        # encoder construction on every workload
        streams = pn.RngStreams.from_seed(self.seed)
        pn.Encoder(self.encoder_config, streams.params, streams.protos)

    def _command(self, argv, r, phase_clock):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = r.timed(argv[0], phase_clock, self.cli.main, argv)
        run_dir = out.getvalue().strip().splitlines()[-1] if code == 0 else None
        r.commands.append((argv[0], code, run_dir))
        if code != 0:
            raise RuntimeError(f"protonorm {argv[0]} exited {code}")
        return run_dir

    def run_round(self, index, phase_clock):
        s = self.scale
        r = Round()
        out = os.path.join(self.workdir, f"round{index}")
        shutil.rmtree(out, ignore_errors=True)
        r.out = out
        gen_dir = self._command(
            ["generate", "--config", self.generate_config, "--out", out], r, phase_clock
        )
        config = copy.deepcopy(self.config)
        config["data"]["pretrain_paths"] = [
            os.path.join(gen_dir, "source.tsv"),
            os.path.join(gen_dir, "source-n1.tsv"),
        ]
        config["data"]["finetune_train_path"] = os.path.join(gen_dir, "source.tsv")
        config["data"]["finetune_test_path"] = os.path.abspath(self.test_path)
        run_config = os.path.join(out, "run.json")
        with open(run_config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        pre_dir = self._command(
            ["pretrain", "--config", run_config, "--out", out], r, phase_clock
        )
        ft_dir = self._command(
            ["finetune", os.path.join(pre_dir, "final.ckpt"), "--config", run_config, "--out", out],
            r, phase_clock,
        )
        eval_dir = self._command(
            ["eval", os.path.join(ft_dir, "model.ckpt"), "--config", run_config, "--out", out],
            r, phase_clock,
        )
        n_val = int(round(s.n_source * self.resolved.data.val_fraction))
        r.pretrain_samples = 2 * (s.n_source - n_val) * s.pretrain_epochs
        r.finetune_samples = s.n_labeled * s.ft_epochs
        r.eval_samples = s.n_test
        with open(os.path.join(eval_dir, "metrics.json"), encoding="utf-8") as fh:
            r.metrics_doc = json.load(fh)
        r.accuracy = r.metrics_doc["accuracy"]
        r.rows = _read_trace(os.path.join(pre_dir, "trace.csv"))
        r.dirs = {"generate": gen_dir, "pretrain": pre_dir, "finetune": ft_dir, "eval": eval_dir}
        return r

    def _status(self, r):
        for command, code, run_dir in r.commands:
            checks.command_ok(code, run_dir, command)

    def check_first(self, r):
        pn, s = self.pn, self.scale
        self._status(r)
        nt = pn.NtXentConfig()
        checks.loss_identity(r.rows, nt.lambda_orth)
        steps_per_epoch = math.ceil(r.pretrain_samples / s.pretrain_epochs / s.pretrain_batch)
        opt = self.resolved.optim
        checks.lr_schedule(
            r.rows, opt.lr_peak, opt.lr_floor, opt.warmup_steps, steps_per_epoch * s.pretrain_epochs
        )
        per_epoch = r.pretrain_samples // s.pretrain_epochs
        last = per_epoch - (steps_per_epoch - 1) * s.pretrain_batch
        checks.nt_xent_learned(r.rows, last)
        src_labels, src = _read_label_file(os.path.join(r.dirs["generate"], "source.tsv"))
        twin_labels, twin = _read_label_file(os.path.join(r.dirs["generate"], "source-n1.tsv"))
        if not np.array_equal(src_labels, twin_labels):
            raise checks.CheckFailed("noisy twin labels differ from the source")
        checks.noise_level(src, twin, s.sigma)
        with open(self.test_path, encoding="utf-8") as fh:
            n_lines = sum(1 for line in fh if line.strip())
        checks.classification_metrics(r.metrics_doc, n_lines)
        checks.above_chance(r.accuracy, self.test_labels)
        copy_path = os.path.join(self.workdir, "resaved.ckpt")
        for path in (
            os.path.join(r.dirs["pretrain"], "final.ckpt"),
            os.path.join(r.dirs["finetune"], "model.ckpt"),
        ):
            checks.resave_identical(path, pn.load_checkpoint, pn.save_checkpoint, copy_path)
        encoder = pn.load_checkpoint(os.path.join(r.dirs["finetune"], "model.ckpt"))[0]
        _, raw = _read_label_file(self.test_path)
        raw = raw[: s.routing_batch]
        z = (raw - raw.mean(axis=1, keepdims=True)) / (raw.std(axis=1, keepdims=True) + 1e-8)
        checks.routing(routing_sites(encoder, z[:, None, :], pn))

    def check_repeat(self, first, r):
        self._status(r)
        checks.same_trace(first.rows, r.rows)
        if repr(r.accuracy) != repr(first.accuracy):
            raise checks.CheckFailed(f"repeat accuracy {r.accuracy!r} != {first.accuracy!r}")
        shutil.rmtree(r.out, ignore_errors=True)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "desk-pretrain": InMemoryPretrain,
    "paper-pretrain": InMemoryPretrain,
    "shift-pipeline": ShiftPipeline,
}


def make(name, seed, workdir, size="full"):
    return WORKLOADS[name](SCALES[name][size], seed, workdir)
