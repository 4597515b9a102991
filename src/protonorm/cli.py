"""Command-line entry point.

Subcommands: generate, pretrain, finetune, eval, sweep. Every command
resolves one RunConfig (file + env + flags), works inside a run directory
named by the config digest and seed, writes the exact resolved config
next to its outputs, and keeps a status file (running / ok / failed /
interrupted) so a run that did not finish is visibly flagged; Ctrl-C ends
any command with one ``interrupted`` line and exit status 130. Re-running
a command with the same config and seed reproduces its deterministic
outputs byte for byte (the sweep's runtime column is the one timed, hence
non-deterministic, field).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace

from .checkpoint import load_checkpoint, save_checkpoint
from .config import OVERRIDES, _merge, _overrides, build_run_config, load_run_config
from .data import (
    load_ucr_tsv,
    make_shifted_variant,
    make_synthetic_clusters,
    save_ucr_tsv,
    standardize_dataset,
    train_val_split,
    write_atomic,
)
from .encoder import Encoder, count_parameters
from .errors import ConfigError, InputError, ProtoNormError
from .training import (
    RngStreams,
    TrainState,
    _derived_rng,
    evaluate,
    finetune,
    pretrain,
)

TRACE_HEADER = ("step", "lr", "loss_nt", "loss_orth", "loss_total")
SWEEP_HEADER = ("axis", "value", "accuracy", "macro_f1", "param_count", "runtime_s", "status")

# The override flag that sets each sweep axis but sigma, whose leg sets
# data.sigmas to its one noise level.
SWEEP_AXES = {"n_prototypes": "prototypes", "lambda": "lambda_orth"}


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


def _write_status(run_dir, status, error=None):
    doc = {"status": status}
    if error is not None:
        doc["error"] = error
    _write_json(os.path.join(run_dir, "status.json"), doc)


@contextmanager
def _run(out, command, cfg):
    """The run directory of one command, named by the config digest and
    seed: it is created with status ``running`` and the resolved config,
    then marked ``failed`` with the error or ``interrupted`` by Ctrl-C,
    either re-raised, or ``ok``."""
    run_dir = os.path.join(out, f"{command}-{cfg.digest()[:12]}-seed{cfg.seed}")
    os.makedirs(run_dir, exist_ok=True)
    _write_status(run_dir, "running")
    _write_json(os.path.join(run_dir, "resolved_config.json"), cfg.resolved)
    try:
        yield run_dir
    except Exception as e:
        _write_status(run_dir, "failed", error=f"{type(e).__name__}: {e}")
        raise
    except KeyboardInterrupt:
        _write_status(run_dir, "interrupted")
        raise
    _write_status(run_dir, "ok")


def _write_csv(path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))


def _pretrain(cfg, pool, val_pool, **outputs):
    """Pretrain a fresh encoder on the pool; ``outputs`` (``out_dir``,
    ``config_dict``) are passed on to make it write checkpoints."""
    streams = RngStreams.from_seed(cfg.seed)
    encoder = Encoder(cfg.encoder, streams.params, streams.protos)
    if cfg.freeze_prototypes:
        encoder.set_banks_frozen(True)
    return pretrain(
        pool,
        encoder,
        cfg.augment,
        cfg.ntxent,
        cfg.optim,
        epochs=cfg.pretrain.epochs,
        batch_size=cfg.pretrain.batch_size,
        seed=cfg.seed,
        state=TrainState(streams=streams),
        val_pool=val_pool,
        **outputs,
    )


def _finetune(cfg, encoder, splits):
    return finetune(
        splits,
        encoder,
        cfg.optim,
        epochs=cfg.finetune.epochs,
        batch_size=cfg.finetune.batch_size,
        n_labeled=cfg.finetune.n_labeled,
        seed=cfg.seed,
    )


def shift_protocol(cfg, source, sigma):
    """The distribution-shift protocol on one source dataset, returning
    the test Metrics. The source is brought to ``encoder.input_len`` and
    ``data.test_fraction`` of it is cut as the test split first; an
    encoder is pretrained on the rest plus a copy of it with Gaussian
    noise of std ``sigma`` (dataset id 1), and fine-tuned on the rest,
    with ``data.val_fraction`` of it held out for validation. No test
    series reaches pretraining. The split and the noise draw from the
    seed's streams 2 and 12."""
    source = standardize_dataset(source, cfg.encoder.input_len)
    split_rng = _derived_rng(cfg.seed, 2)
    train, test = train_val_split(source, cfg.data.test_fraction, split_rng)
    twin = make_shifted_variant(train, sigma, _derived_rng(cfg.seed, 12), dataset_id=1)
    ft_train, ft_val = train_val_split(train, cfg.data.val_fraction, split_rng)
    encoder = _pretrain(cfg, [train, twin], None).encoder
    return _finetune(cfg, encoder, (ft_train, ft_val, replace(test, split="test"))).metrics


def _load_pretrain_pool(cfg):
    if not cfg.data.pretrain_paths:
        raise ConfigError("data.pretrain_paths is empty; nothing to pretrain on")
    split_rng = _derived_rng(cfg.seed, 2)
    train_pool, val_pool = [], []
    for i, path in enumerate(cfg.data.pretrain_paths):
        ds = standardize_dataset(load_ucr_tsv(path, dataset_id=i), cfg.encoder.input_len)
        tr, va = train_val_split(ds, cfg.data.val_fraction, split_rng)
        train_pool.append(tr)
        if len(va):
            val_pool.append(va)
    return train_pool, (val_pool or None)


def _load_finetune_test(cfg, classes):
    """The fine-tuning test file, its labels mapped through the training
    file's ``classes`` and standardized alone, so ``finetune`` and ``eval``
    read it alike without the train file."""
    test = load_ucr_tsv(cfg.data.finetune_test_path, split="test", classes=classes)
    return standardize_dataset(test, cfg.encoder.input_len)


def _load_finetune_splits(cfg, classes=None):
    """(train, val, test) for fine-tuning; with ``classes`` (a model's
    recorded label values) the train file's labels map through them too."""
    if cfg.data.finetune_train_path is None:
        raise ConfigError("data.finetune_train_path is required for this command")
    split_rng = _derived_rng(cfg.seed, 4)
    train = load_ucr_tsv(cfg.data.finetune_train_path, classes=classes)
    train = standardize_dataset(train, cfg.encoder.input_len)
    if cfg.data.finetune_test_path is not None:
        test = _load_finetune_test(cfg, train.classes)
    else:
        train, test = train_val_split(train, cfg.data.test_fraction, split_rng)
        test = replace(test, split="test")
    train, val = train_val_split(train, cfg.data.val_fraction, split_rng)
    return train, val, test


# -- commands ---------------------------------------------------------------


def cmd_generate(cfg, out):
    with _run(out, "generate", cfg) as run_dir:
        generated = []  # (dataset, sigma)
        if cfg.data.synthetic is not None:
            syn = cfg.data.synthetic
            clusters = make_synthetic_clusters(
                syn.k_datasets,
                syn.n_per,
                cfg.encoder.input_len,
                _derived_rng(cfg.seed, 10),
                noise_std=syn.noise_std,
                freq_band=(syn.freq_lo, syn.freq_hi),
            )
            generated += [(ds, None) for ds in clusters]
        if cfg.data.source_path is not None:
            source = load_ucr_tsv(cfg.data.source_path, name="source")
            generated.append((source, 0.0))
            for j, sigma in enumerate(cfg.data.sigmas):
                rng = _derived_rng(cfg.seed, 11, j)
                variant = make_shifted_variant(source, sigma, rng, name=f"source-n{j + 1}")
                generated.append((variant, sigma))
        if not generated:
            raise ConfigError(
                "generate needs data.synthetic and/or data.source_path in the config"
            )
        entries = []
        for i, (ds, sigma) in enumerate(generated):
            fname = f"{ds.name}.tsv"
            save_ucr_tsv(ds, os.path.join(run_dir, fname))
            entries.append({"name": ds.name, "file": fname, "dataset_id": i, "sigma": sigma})
        _write_json(
            os.path.join(run_dir, "manifest.json"),
            {"seed": cfg.seed, "datasets": entries},
        )
    return run_dir


def _in_run_dir(path, run_dir):
    """``path`` relative to the run directory, so the file naming it does
    not depend on ``--out``; None stays None."""
    return None if path is None else os.path.relpath(path, run_dir)


def cmd_pretrain(cfg, out):
    with _run(out, "pretrain", cfg) as run_dir:
        train_pool, val_pool = _load_pretrain_pool(cfg)
        result = _pretrain(
            cfg, train_pool, val_pool, out_dir=run_dir, config_dict=cfg.resolved
        )
        _write_csv(
            os.path.join(run_dir, "trace.csv"),
            TRACE_HEADER,
            [
                [step, repr(lr), repr(nt), repr(orth), repr(total)]
                for step, lr, nt, orth, total in result.rows
            ],
        )
        _write_json(
            os.path.join(run_dir, "pretrain_summary.json"),
            {
                "steps": result.state.step,
                "final_loss": result.rows[-1][4] if result.rows else None,
                "assignment_histograms": result.assignment_histograms,
                "best_checkpoint": _in_run_dir(result.best_checkpoint, run_dir),
                "final_checkpoint": _in_run_dir(result.final_checkpoint, run_dir),
            },
        )
    return run_dir


def cmd_finetune(cfg, checkpoint_path, out):
    with _run(out, "finetune", cfg) as run_dir:
        encoder, _, _, _ = load_checkpoint(checkpoint_path)
        splits = _load_finetune_splits(cfg)
        result = _finetune(cfg, encoder, splits)
        save_checkpoint(
            os.path.join(run_dir, "model.ckpt"),
            result.encoder,
            TrainState(streams=RngStreams.from_seed(cfg.seed)),
            cfg.resolved,
            meta={"classes": list(splits[0].classes)},
        )
        doc = {**result.metrics.to_dict(), "best_epoch": result.best_epoch}
        _write_json(os.path.join(run_dir, "metrics.json"), doc)
    return run_dir


def cmd_eval(cfg, model_path, out):
    with _run(out, "eval", cfg) as run_dir:
        encoder, _, _, meta = load_checkpoint(model_path)
        if "classes" not in meta:
            raise InputError(
                f"{model_path}: the checkpoint records no label classes to map test "
                f"labels through; fine-tune it again with this version"
            )
        if cfg.data.finetune_test_path is not None:
            test = _load_finetune_test(cfg, meta["classes"])
        else:
            _, _, test = _load_finetune_splits(cfg, meta["classes"])
        metrics = evaluate(encoder, test)
        _write_json(os.path.join(run_dir, "metrics.json"), metrics.to_dict())
    return run_dir


def _leg_config(cfg, axis, value):
    if axis == "sigma":
        override = {"data": {"sigmas": [value]}}
    else:
        override = _overrides({}, {SWEEP_AXES[axis]: value})
    return build_run_config(_merge(cfg.resolved, override))


def _run_leg(leg_cfg, axis):
    """One pretrain -> finetune -> eval pipeline, in memory. A sigma leg
    runs ``shift_protocol`` on the source at its one data.sigmas value."""
    if axis == "sigma":
        if leg_cfg.data.source_path is None:
            raise ConfigError("sigma sweep needs data.source_path")
        source = load_ucr_tsv(leg_cfg.data.source_path, name="source", dataset_id=0)
        (sigma,) = leg_cfg.data.sigmas
        return shift_protocol(leg_cfg, source, sigma)
    train_pool, val_pool = _load_pretrain_pool(leg_cfg)
    encoder = _pretrain(leg_cfg, train_pool, val_pool).encoder
    return _finetune(leg_cfg, encoder, _load_finetune_splits(leg_cfg)).metrics


def _leg_configs(cfg, axis):
    """(value, config) of every leg, so that an empty axis or a value out
    of range is a ConfigError naming ``sweep.<axis>`` before any leg runs."""
    if not cfg.sweep[axis]:
        raise ConfigError(f"sweep.{axis}: empty; a sweep needs at least one value")
    legs = []
    for i, value in enumerate(cfg.sweep[axis]):
        try:
            legs.append((value, _leg_config(cfg, axis, value)))
        except ConfigError as e:
            raise ConfigError(f"sweep.{axis}[{i}]: {e}") from e
    return legs


def cmd_sweep(cfg, axis, out):
    legs = _leg_configs(cfg, axis)
    with _run(out, f"sweep-{axis}", cfg) as run_dir:
        path = os.path.join(run_dir, "sweep.csv")
        rows = []
        _write_csv(path, SWEEP_HEADER, rows)
        for value, leg_cfg in legs:
            started = time.monotonic()
            try:
                metrics = _run_leg(leg_cfg, axis)
                scores, status = [repr(metrics.accuracy), repr(metrics.macro_f1)], "ok"
            except Exception as e:  # a failed leg must not kill the sweep
                scores, status = ["", ""], f"failed: {type(e).__name__}: {e}"
            params = count_parameters(leg_cfg.encoder)
            runtime = f"{time.monotonic() - started:.3f}"
            rows.append([axis, value, *scores, params, runtime, status])
            _write_csv(path, SWEEP_HEADER, rows)  # an interrupt keeps the legs done
    return run_dir


# -- argument parsing ---------------------------------------------------------


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output root (default: $PROTONORM_OUT or ./runs)",
    )
    parser.add_argument(
        "--norm-mode",
        choices=["dataset", "plain", "proto"],
        help="normalization mechanism",
    )
    parser.add_argument("--prototypes", type=int, metavar="N")
    parser.add_argument("--lambda", dest="lambda_orth", type=float, metavar="F")
    parser.add_argument(
        "--freeze-prototypes", metavar="BOOL", help="true/false: freeze banks"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="protonorm",
        description="Prototype-gated normalization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit synthetic datasets and noise variants")
    _add_common_flags(p)

    p = sub.add_parser("pretrain", help="contrastive pretraining on a dataset pool")
    _add_common_flags(p)

    p = sub.add_parser("finetune", help="supervised fine-tuning from a checkpoint")
    p.add_argument("checkpoint", help="pretraining checkpoint path")
    _add_common_flags(p)

    p = sub.add_parser("eval", help="evaluate a fine-tuned model")
    p.add_argument("model", help="fine-tuned model checkpoint path")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="run a pipeline per axis value")
    p.add_argument("axis", choices=["n_prototypes", "sigma", "lambda"])
    _add_common_flags(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = {flag: getattr(args, flag) for flag, *_ in OVERRIDES}
    out = args.out or os.environ.get("PROTONORM_OUT") or "runs"
    try:
        cfg = load_run_config(args.config, flags=flags)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "generate":
            run_dir = cmd_generate(cfg, out)
        elif args.command == "pretrain":
            run_dir = cmd_pretrain(cfg, out)
        elif args.command == "finetune":
            run_dir = cmd_finetune(cfg, args.checkpoint, out)
        elif args.command == "eval":
            run_dir = cmd_eval(cfg, args.model, out)
        else:
            run_dir = cmd_sweep(cfg, args.axis, out)
        print(run_dir)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ProtoNormError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
