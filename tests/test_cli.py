"""CLI: command wiring, run-directory outputs, overrides, replayability."""

import json
import os
import shutil

import numpy as np
import pytest

from protonorm import (
    evaluate,
    load_checkpoint,
    load_ucr_tsv,
    make_synthetic_clusters,
    save_checkpoint,
    save_ucr_tsv,
)
from protonorm.cli import main
from protonorm.config import load_run_config
from protonorm.encoder import count_parameters
from protonorm.errors import ConfigError, TrainingDiverged


def desk_config(tmp_path, **data):
    doc = {
        "seed": 11,
        "encoder": {
            "input_len": 32,
            "patch_size": 8,
            "d_model": 16,
            "n_heads": 2,
            "n_layers": 1,
            "n_prototypes": 2,
            "dropout": 0.1,
        },
        "optim": {"warmup_steps": 2},
        "pretrain": {"epochs": 1, "batch_size": 8},
        "finetune": {"epochs": 2, "batch_size": 8, "n_labeled": "all"},
        "data": {
            "synthetic": {"k_datasets": 2, "n_per": 16},
            **data,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(argv):
    return main([str(a) for a in argv])


def only_run_dir(out, prefix):
    hits = [d for d in os.listdir(out) if d.startswith(prefix)]
    assert len(hits) == 1, hits
    return os.path.join(out, hits[0])


def test_generate_writes_files_and_manifest(tmp_path):
    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    assert run(["generate", "--config", cfg, "--out", out]) == 0
    run_dir = only_run_dir(out, "generate-")
    manifest = json.loads((tmp_path / "runs" / os.path.basename(run_dir) / "manifest.json").read_text())
    assert len(manifest["datasets"]) == 2
    for entry in manifest["datasets"]:
        assert os.path.exists(os.path.join(run_dir, entry["file"]))
    status = json.loads(open(os.path.join(run_dir, "status.json")).read())
    assert status["status"] == "ok"
    assert os.path.exists(os.path.join(run_dir, "resolved_config.json"))


def test_generate_sigma_variants(tmp_path):
    src_cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", src_cfg, "--out", out])
    gen_dir = only_run_dir(out, "generate-")
    source_file = os.path.join(gen_dir, "cluster0.tsv")

    doc = json.loads((tmp_path / "config.json").read_text())
    doc["data"]["synthetic"] = None
    doc["data"]["source_path"] = source_file
    doc["data"]["sigmas"] = [0.0, 0.1, 0.2, 0.3]
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(doc))
    out2 = tmp_path / "runs2"
    assert run(["generate", "--config", cfg2, "--out", out2]) == 0
    var_dir = only_run_dir(out2, "generate-")
    manifest = json.loads(open(os.path.join(var_dir, "manifest.json")).read())
    assert len(manifest["datasets"]) == 5  # source + four variants
    # sigma zero variant equals the source up to float formatting
    src = load_ucr_tsv(os.path.join(var_dir, "source.tsv"))
    zero = load_ucr_tsv(os.path.join(var_dir, "source-n1.tsv"))
    for a, b in zip(src.series, zero.series):
        assert np.allclose(a, b, atol=1e-6)


def test_generate_regeneration_is_byte_identical(tmp_path):
    cfg = desk_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    run(["generate", "--config", cfg, "--out", out1])
    run(["generate", "--config", cfg, "--out", out2])
    d1 = only_run_dir(out1, "generate-")
    d2 = only_run_dir(out2, "generate-")
    for name in ("cluster0.tsv", "cluster1.tsv", "manifest.json"):
        assert open(os.path.join(d1, name), "rb").read() == open(
            os.path.join(d2, name), "rb"
        ).read()


def test_failed_generate_write_leaves_the_previous_source(tmp_path, monkeypatch):
    import protonorm.cli as cli

    cfg = desk_config(tmp_path)
    run(["generate", "--config", cfg, "--out", tmp_path / "clusters"])
    clusters = only_run_dir(tmp_path / "clusters", "generate-")
    doc = json.loads(cfg.read_text())
    doc["data"]["synthetic"] = None
    doc["data"]["source_path"] = os.path.join(clusters, "cluster0.tsv")
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    assert run(["generate", "--config", cfg, "--out", out]) == 0
    source = os.path.join(only_run_dir(out, "generate-"), "source.tsv")
    previous = b"0\t1.0\t2.0\n"  # an earlier, shorter source
    with open(source, "wb") as fh:
        fh.write(previous)
    real_load = cli.load_ucr_tsv

    def fail(fd):
        raise OSError("simulated fsync failure")

    def load_then_fail_fsync(*args, **kwargs):
        ds = real_load(*args, **kwargs)
        monkeypatch.setattr(os, "fsync", fail)  # the status file is written by now
        return ds

    monkeypatch.setattr(cli, "load_ucr_tsv", load_then_fail_fsync)
    assert run(["generate", "--config", cfg, "--out", out]) == 1
    assert open(source, "rb").read() == previous
    assert not [f for f in os.listdir(os.path.dirname(source)) if f.endswith(".tmp")]


def _generate_then_pretrain(tmp_path, extra_flags=()):
    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", cfg, "--out", out])
    gen_dir = only_run_dir(out, "generate-")
    doc = json.loads((tmp_path / "config.json").read_text())
    doc["data"]["pretrain_paths"] = [
        os.path.join(gen_dir, "cluster0.tsv"),
        os.path.join(gen_dir, "cluster1.tsv"),
    ]
    doc["data"]["finetune_train_path"] = os.path.join(gen_dir, "cluster0.tsv")
    cfg_path = tmp_path / "config_pt.json"
    cfg_path.write_text(json.dumps(doc))
    code = run(["pretrain", "--config", cfg_path, "--out", out, *extra_flags])
    assert code == 0
    return cfg_path, out


def test_pretrain_pool_of_three_lengths_is_brought_to_input_len(tmp_path):
    """Files of 24, 32 and 48 samples pool for an encoder of input_len 32:
    the short one zero-padded, the conforming one as loaded, the long one
    interpolated row by row."""
    from protonorm.cli import _load_pretrain_pool

    paths = []
    for k, length in enumerate((24, 32, 48)):
        (ds,) = make_synthetic_clusters(1, 16, length, np.random.default_rng(30 + k))
        paths.append(str(tmp_path / f"len{length}.tsv"))
        save_ucr_tsv(ds, paths[-1])
    doc = json.loads(desk_config(tmp_path, pretrain_paths=paths, val_fraction=0.0).read_text())
    doc["data"]["synthetic"] = None
    cfg_path = tmp_path / "pool.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    assert run(["pretrain", "--config", cfg_path, "--out", out]) == 0
    run_dir = only_run_dir(out, "pretrain-")
    assert json.loads(open(os.path.join(run_dir, "status.json")).read()) == {"status": "ok"}

    pool, val_pool = _load_pretrain_pool(load_run_config(cfg_path, env={}))
    assert val_pool is None
    short, same, long = (load_ucr_tsv(p).series for p in paths)
    grid = np.linspace(0.0, 47.0, 32)
    expected = [
        np.concatenate([short, np.zeros((16, 1, 8))], axis=2),
        same,
        np.array([np.interp(grid, np.arange(48), row[0]) for row in long])[:, None, :],
    ]
    for ds, want in zip(pool, expected):
        assert ds.series.shape == (16, 1, 32)
        assert sorted(r.tobytes() for r in ds.series) == sorted(r.tobytes() for r in want)


def test_ctrl_c_marks_the_run_interrupted_without_a_traceback(tmp_path, capsys, monkeypatch):
    import protonorm.training as training

    real_step = training._step
    steps = []

    def step_then_interrupt(*args, **kwargs):
        steps.append(None)
        if len(steps) == 3:
            raise KeyboardInterrupt
        return real_step(*args, **kwargs)

    cfg_path, out = _generate_then_pretrain(tmp_path)
    run_dir = only_run_dir(out, "pretrain-")
    capsys.readouterr()
    monkeypatch.setattr(training, "_step", step_then_interrupt)
    assert run(["pretrain", "--config", cfg_path, "--out", out]) == 130
    assert len(steps) == 3
    assert capsys.readouterr().err == "interrupted\n"
    status = json.loads(open(os.path.join(run_dir, "status.json")).read())
    assert status == {"status": "interrupted"}


@pytest.mark.parametrize("source", ["missing.tsv", "directory", "latin1.tsv"])
def test_unreadable_source_is_a_named_error(tmp_path, capsys, source):
    path = tmp_path / source
    if source == "directory":
        path.mkdir()
    elif source == "latin1.tsv":
        path.write_bytes(b"1\t0.5\t1.0\n2\t1.5\t\xff\n")
    cfg = desk_config(tmp_path, synthetic=None, source_path=str(path))
    out = tmp_path / "runs"
    assert run(["generate", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    expected = (
        f"error: ParseError: {path}: line 2: not UTF-8 text"
        if source == "latin1.tsv"
        else f"error: InputError: {path}: cannot read the file"
    )
    assert err.startswith(expected), err
    assert "Traceback" not in err
    status = json.loads(open(os.path.join(only_run_dir(out, "generate-"), "status.json")).read())
    assert status["status"] == "failed"
    assert status["error"] == err[len("error: "):].rstrip("\n")


@pytest.mark.parametrize("command", ["finetune", "eval"])
@pytest.mark.parametrize("target", ["missing.ckpt", "directory"])
def test_unreadable_checkpoint_is_a_named_error(tmp_path, capsys, command, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    out = tmp_path / "runs"
    assert run([command, path, "--config", desk_config(tmp_path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: {path}: cannot read the checkpoint ("), err
    assert "Traceback" not in err
    status = json.loads(open(os.path.join(only_run_dir(out, f"{command}-"), "status.json")).read())
    assert status["status"] == "failed"
    assert status["error"] == err[len("error: "):].rstrip("\n")


@pytest.mark.parametrize("target", ["directory", "latin1.json"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"seed": 3, "data": {"source_path": "caf\xe9.tsv"}}')
    with pytest.raises(ConfigError, match=str(path)):
        load_run_config(path, env={})
    out = tmp_path / "runs"
    assert run(["generate", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_pretrain_outputs_and_determinism(tmp_path):
    import time

    started = time.monotonic()
    cfg_path, out = _generate_then_pretrain(tmp_path)
    assert time.monotonic() - started < 300.0  # desk-scale pretrain stays fast
    run_dir = only_run_dir(out, "pretrain-")
    trace = open(os.path.join(run_dir, "trace.csv"), "rb").read()
    assert trace.startswith(b"step,lr,loss_nt,loss_orth,loss_total")
    first = trace
    summary = json.loads(open(os.path.join(run_dir, "pretrain_summary.json")).read())
    assert "assignment_histograms" in summary
    assert os.path.exists(os.path.join(run_dir, "final.ckpt"))

    # replay: identical bytes
    shutil.copy(os.path.join(run_dir, "trace.csv"), tmp_path / "first.csv")
    assert run(["pretrain", "--config", cfg_path, "--out", out]) == 0
    second = open(os.path.join(run_dir, "trace.csv"), "rb").read()
    assert first == second


def test_pretrain_summary_does_not_depend_on_the_out_directory(tmp_path):
    """The summary names its checkpoints relative to the run directory, so
    the same run under two ``--out`` roots writes the same bytes."""
    summaries = []
    for root in ("A", "B"):
        (tmp_path / root).mkdir()
        _, out = _generate_then_pretrain(tmp_path / root)
        run_dir = only_run_dir(out, "pretrain-")
        summaries.append(open(os.path.join(run_dir, "pretrain_summary.json"), "rb").read())
        doc = json.loads(summaries[-1])
        assert doc["final_checkpoint"] == "final.ckpt" and doc["best_checkpoint"] == "best.ckpt"
        load_checkpoint(os.path.join(run_dir, doc["final_checkpoint"]))
    assert summaries[0] == summaries[1]


def test_finetune_and_eval_metrics_passthrough(tmp_path):
    cfg_path, out = _generate_then_pretrain(tmp_path)
    pre_dir = only_run_dir(out, "pretrain-")
    ckpt = os.path.join(pre_dir, "final.ckpt")
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    ft_dir = only_run_dir(out, "finetune-")
    metrics_bytes = open(os.path.join(ft_dir, "metrics.json"), "rb").read()
    metrics = json.loads(metrics_bytes)
    for key in ("accuracy", "macro_f1", "per_class_f1", "confusion", "assignment_histograms"):
        assert key in metrics
    # fine-tune reports the routing of its test pass alone
    n_test = sum(sum(row) for row in metrics["confusion"])
    assert len(metrics["assignment_histograms"]) == 2
    for layer, counts in metrics["assignment_histograms"].items():
        assert sum(counts) == n_test, layer
    # replaying the command reproduces the metrics file byte for byte
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    assert open(os.path.join(ft_dir, "metrics.json"), "rb").read() == metrics_bytes

    model = os.path.join(ft_dir, "model.ckpt")
    assert run(["eval", model, "--config", cfg_path, "--out", out]) == 0
    ev_dir = only_run_dir(out, "eval-")
    ev_metrics = json.loads(open(os.path.join(ev_dir, "metrics.json")).read())

    # pass-through contract: the JSON equals evaluate() on the same split
    from protonorm.cli import _load_finetune_splits

    cfg = load_run_config(cfg_path)
    encoder, _, _, _ = load_checkpoint(model)
    _, _, test = _load_finetune_splits(cfg)
    direct = evaluate(encoder, test, cfg.finetune.batch_size)
    assert ev_metrics["accuracy"] == direct.accuracy
    assert ev_metrics["macro_f1"] == direct.macro_f1
    # eval reports the routing of its own pass, not the model's history
    histograms = ev_metrics["assignment_histograms"]
    assert len(histograms) == 2 * cfg.encoder.n_layers
    for layer, counts in histograms.items():
        assert sum(counts) == len(test), layer


def test_eval_with_a_test_file_loads_only_that_file(tmp_path, monkeypatch):
    """With data.finetune_test_path set, eval parses the test file alone
    and scores it as fine-tuning standardized it."""
    from protonorm import cli
    from protonorm.cli import _load_finetune_splits

    cfg_path, out = _generate_then_pretrain(tmp_path)
    doc = json.loads(cfg_path.read_text())
    test_path = doc["data"]["pretrain_paths"][1]
    doc["data"]["finetune_test_path"] = test_path
    cfg_path.write_text(json.dumps(doc))
    ckpt = os.path.join(only_run_dir(out, "pretrain-"), "final.ckpt")
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    model = os.path.join(only_run_dir(out, "finetune-"), "model.ckpt")

    loaded = []
    real_load = cli.load_ucr_tsv

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_ucr_tsv", counting_load)
    assert run(["eval", model, "--config", cfg_path, "--out", out]) == 0
    assert loaded == [test_path]

    ev_metrics = json.loads(open(os.path.join(only_run_dir(out, "eval-"), "metrics.json")).read())
    _, _, test = _load_finetune_splits(load_run_config(cfg_path))
    direct = evaluate(load_checkpoint(model)[0], test, 8)
    assert ev_metrics == json.loads(json.dumps(direct.to_dict()))


def _relabelled(src, dest, keep=None):
    """``src`` with labels 0/1 written as 1/2, keeping only the rows whose
    original label is ``keep`` when given."""
    ds = load_ucr_tsv(src)
    rows = np.arange(len(ds)) if keep is None else np.nonzero(ds.labels == keep)[0]
    ds.series, ds.labels = ds.series[rows], ds.labels[rows] + 1
    save_ucr_tsv(ds, dest)
    return len(rows)


def test_a_test_file_missing_a_class_is_scored_against_the_training_classes(tmp_path):
    """A test file holding only training class 2 of classes 1 and 2: both
    finetune and eval score it as class index 1, and model.ckpt records
    the training classes."""
    cfg_path, out = _generate_then_pretrain(tmp_path)
    doc = json.loads(cfg_path.read_text())
    gen_dir = os.path.dirname(doc["data"]["finetune_train_path"])
    doc["data"]["finetune_train_path"] = str(tmp_path / "train.tsv")
    doc["data"]["finetune_test_path"] = str(tmp_path / "test.tsv")
    _relabelled(os.path.join(gen_dir, "cluster0.tsv"), tmp_path / "train.tsv")
    n_test = _relabelled(os.path.join(gen_dir, "cluster1.tsv"), tmp_path / "test.tsv", keep=1)
    cfg_path.write_text(json.dumps(doc))
    ckpt = os.path.join(only_run_dir(out, "pretrain-"), "final.ckpt")
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    ft_dir = only_run_dir(out, "finetune-")
    model = os.path.join(ft_dir, "model.ckpt")
    assert load_checkpoint(model)[3]["classes"] == [1, 2]
    assert run(["eval", model, "--config", cfg_path, "--out", out]) == 0
    for run_dir in (ft_dir, only_run_dir(out, "eval-")):
        confusion = json.loads(open(os.path.join(run_dir, "metrics.json")).read())["confusion"]
        assert [sum(row) for row in confusion] == [0, n_test], run_dir


def test_eval_refuses_a_model_that_records_no_classes(tmp_path, capsys):
    """A model.ckpt written before the classes were recorded is refused
    by name, never scored against the test file's own classes."""
    cfg_path, out = _generate_then_pretrain(tmp_path)
    ckpt = os.path.join(only_run_dir(out, "pretrain-"), "final.ckpt")
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    encoder, state, config, meta = load_checkpoint(
        os.path.join(only_run_dir(out, "finetune-"), "model.ckpt")
    )
    assert meta.pop("classes") == [0, 1]
    old = tmp_path / "old_model.ckpt"
    save_checkpoint(old, encoder, state, config, meta)
    capsys.readouterr()
    assert run(["eval", old, "--config", cfg_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: {old}: the checkpoint records no label classes")
    ev_dir = only_run_dir(out, "eval-")
    assert json.loads(open(os.path.join(ev_dir, "status.json")).read())["status"] == "failed"
    assert not os.path.exists(os.path.join(ev_dir, "metrics.json"))


def test_eval_scores_in_its_own_chunk_whatever_the_finetune_batch(tmp_path, monkeypatch):
    """eval calls evaluate with its default chunk, not finetune.batch_size,
    and one model.ckpt gives the same metrics.json under batch sizes 4 and 16."""
    from protonorm import cli

    cfg_path, out = _generate_then_pretrain(tmp_path)
    ckpt = os.path.join(only_run_dir(out, "pretrain-"), "final.ckpt")
    assert run(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    model = os.path.join(only_run_dir(out, "finetune-"), "model.ckpt")

    calls = []
    real_evaluate = cli.evaluate

    def recording_evaluate(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    written = []
    for batch_size in (4, 16):
        doc = json.loads(cfg_path.read_text())
        doc["finetune"]["batch_size"] = batch_size
        path = tmp_path / f"config_b{batch_size}.json"
        path.write_text(json.dumps(doc))
        ev_out = tmp_path / f"eval_b{batch_size}"
        assert run(["eval", model, "--config", path, "--out", ev_out]) == 0
        written.append(open(os.path.join(only_run_dir(ev_out, "eval-"), "metrics.json"), "rb").read())
    assert calls == [(2, {}), (2, {})]
    assert written[0] == written[1]


def test_norm_mode_flag_flips_only_that_field(tmp_path):
    cfg_path = desk_config(tmp_path)
    a = load_run_config(cfg_path, flags={"norm_mode": "plain"})
    b = load_run_config(cfg_path, flags={"norm_mode": "proto"})
    ra = json.loads(json.dumps(a.resolved))
    rb = json.loads(json.dumps(b.resolved))
    assert ra["encoder"].pop("norm_mode") == "plain-LN"
    assert rb["encoder"].pop("norm_mode") == "proto-gated"
    assert ra == rb  # nothing else differs


def test_env_and_flag_precedence(tmp_path):
    cfg_path = desk_config(tmp_path)
    env = {"PROTONORM_SEED": "99", "PROTONORM_LAMBDA": "0.5"}
    only_env = load_run_config(cfg_path, env=env)
    assert only_env.seed == 99
    assert only_env.ntxent.lambda_orth == 0.5
    flag_wins = load_run_config(cfg_path, flags={"seed": 7}, env=env)
    assert flag_wins.seed == 7
    assert flag_wins.ntxent.lambda_orth == 0.5  # env still applies where no flag


@pytest.mark.parametrize(
    "var, value",
    [
        ("PROTONORM_SEED", "abc"),
        ("PROTONORM_PROTOTYPES", "2.5"),
        ("PROTONORM_LAMBDA", "lots"),
        ("PROTONORM_NORM_MODE", "batch"),
        ("PROTONORM_FREEZE_PROTOTYPES", "maybe"),
    ],
)
def test_unparsable_env_override_names_the_variable(tmp_path, monkeypatch, capsys, var, value):
    cfg_path = desk_config(tmp_path)
    with pytest.raises(ConfigError, match=var):
        load_run_config(cfg_path, env={var: value})
    monkeypatch.setenv(var, value)
    assert run(["generate", "--config", cfg_path, "--out", tmp_path / "r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and var in err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("optim", "lr_peak", float("nan")),
        ("optim", "weight_decay", float("nan")),
        ("optim", "weight_decay", -1.0),
        ("optim", "eps", float("nan")),
        ("optim", "lr_floor", float("nan")),
        ("optim", "betas", [float("nan"), 0.999]),
        ("ntxent", "temperature", float("nan")),
        ("ntxent", "lambda_orth", float("nan")),
        ("ntxent", "lambda_orth", float("inf")),
        ("augment", "jitter_std", float("nan")),
        ("data", "sigmas", [0.1, float("nan")]),
    ],
)
def test_non_finite_or_out_of_range_config_rejected(tmp_path, section, key, value):
    doc = json.loads(desk_config(tmp_path).read_text())
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity are valid input JSON
    with pytest.raises(ConfigError, match=key):
        load_run_config(path, env={})


def test_negative_seed_rejected_before_any_run_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("PROTONORM_SEED", "-1")
    assert run(["generate", "--config", desk_config(tmp_path), "--out", tmp_path / "r"]) == 2
    assert not (tmp_path / "r").exists()


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sneaky": 1}))
    with pytest.raises(ConfigError, match="sneaky"):
        load_run_config(bad)
    assert run(["pretrain", "--config", bad, "--out", tmp_path / "r"]) == 2


def test_freeze_prototypes_flag_parses(tmp_path):
    cfg_path = desk_config(tmp_path)
    cfg = load_run_config(cfg_path, flags={"freeze_prototypes": "true"})
    assert cfg.freeze_prototypes is True
    with pytest.raises(ConfigError):
        load_run_config(cfg_path, flags={"freeze_prototypes": "maybe"})


def test_sweep_rows_and_failed_leg(tmp_path, monkeypatch):
    import protonorm.cli as cli

    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", cfg, "--out", out])
    gen_dir = only_run_dir(out, "generate-")
    doc = json.loads((tmp_path / "config.json").read_text())
    doc["data"]["pretrain_paths"] = [os.path.join(gen_dir, "cluster0.tsv")]
    doc["data"]["finetune_train_path"] = os.path.join(gen_dir, "cluster0.tsv")
    doc["sweep"] = {"n_prototypes": [1, 2, 3], "sigma": [], "lambda": [0.0, 0.001]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    real_run_leg = cli._run_leg

    def run_leg_failing_at_three(leg_cfg, axis):
        if leg_cfg.encoder.n_prototypes == 3:
            raise TrainingDiverged("pretraining loss became non-finite at step 1")
        return real_run_leg(leg_cfg, axis)

    monkeypatch.setattr(cli, "_run_leg", run_leg_failing_at_three)
    assert run(["sweep", "n_prototypes", "--config", cfg_path, "--out", out]) == 0
    sweep_dir = only_run_dir(out, "sweep-n_prototypes-")
    lines = open(os.path.join(sweep_dir, "sweep.csv")).read().strip().splitlines()
    assert lines[0] == "axis,value,accuracy,macro_f1,param_count,runtime_s,status"
    assert len(lines) == 4
    cfg_obj = load_run_config(cfg_path)
    for line, n in zip(lines[1:], (1, 2, 3)):
        fields = line.split(",")
        leg_resolved = json.loads(json.dumps(cfg_obj.resolved))
        leg_resolved["encoder"]["n_prototypes"] = n
        from protonorm.config import build_run_config

        expected = count_parameters(build_run_config(leg_resolved).encoder)
        assert fields[0] == "n_prototypes"
        assert int(fields[4]) == expected
    # a leg that fails is marked so, and does not stop the sweep
    assert lines[3].endswith(",failed: TrainingDiverged: pretraining loss became non-finite at step 1")
    assert "ok" in lines[1] and "ok" in lines[2]


def test_interrupted_sweep_keeps_the_legs_it_finished(tmp_path, capsys, monkeypatch):
    """Ctrl-C in the third of three legs exits 130 with status
    ``interrupted``, and sweep.csv holds the rows of the first two."""
    import protonorm.cli as cli

    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", cfg, "--out", out])
    gen_dir = only_run_dir(out, "generate-")
    doc = json.loads((tmp_path / "config.json").read_text())
    doc["data"]["pretrain_paths"] = [os.path.join(gen_dir, "cluster0.tsv")]
    doc["data"]["finetune_train_path"] = os.path.join(gen_dir, "cluster0.tsv")
    doc["sweep"] = {"n_prototypes": [1, 2, 3]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    real_run_leg = cli._run_leg
    legs = []

    def run_leg_then_interrupt(leg_cfg, axis):
        legs.append(leg_cfg.encoder.n_prototypes)
        if len(legs) == 3:
            raise KeyboardInterrupt
        return real_run_leg(leg_cfg, axis)

    monkeypatch.setattr(cli, "_run_leg", run_leg_then_interrupt)
    capsys.readouterr()
    assert run(["sweep", "n_prototypes", "--config", cfg_path, "--out", out]) == 130
    assert legs == [1, 2, 3] and capsys.readouterr().err == "interrupted\n"
    sweep_dir = only_run_dir(out, "sweep-n_prototypes-")
    status = json.loads(open(os.path.join(sweep_dir, "status.json")).read())
    assert status == {"status": "interrupted"}
    lines = open(os.path.join(sweep_dir, "sweep.csv")).read().splitlines()
    assert lines[0] == "axis,value,accuracy,macro_f1,param_count,runtime_s,status"
    assert [line.split(",")[:2] for line in lines[1:]] == [["n_prototypes", "1"],
                                                           ["n_prototypes", "2"]]
    assert all(line.endswith(",ok") for line in lines[1:])


def test_lambda_zero_leg_reproduces_no_ortho_mode(tmp_path):
    cfg_path = desk_config(tmp_path)
    cfg = load_run_config(cfg_path)
    from protonorm.cli import _leg_config

    leg = _leg_config(cfg, "lambda", 0.0)
    assert leg.ntxent.lambda_orth == 0.0
    explicit = load_run_config(cfg_path, flags={"lambda_orth": 0.0})
    assert leg.resolved == explicit.resolved


def test_sigma_sweep_keeps_the_test_split_out_of_pretraining(tmp_path, monkeypatch):
    import protonorm.cli as cli

    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", cfg, "--out", out])
    doc = json.loads(cfg.read_text())
    doc["data"]["source_path"] = os.path.join(only_run_dir(out, "generate-"), "cluster0.tsv")
    doc["sweep"] = {"n_prototypes": [], "sigma": [0.0], "lambda": []}
    cfg_path = tmp_path / "sigma.json"
    cfg_path.write_text(json.dumps(doc))
    seen = {}
    real_pretrain, real_finetune = cli.pretrain, cli.finetune

    def pretrain(pool, *args, **kwargs):
        seen["pool"] = pool
        return real_pretrain(pool, *args, **kwargs)

    def finetune(splits, *args, **kwargs):
        seen["test"] = splits[2]
        return real_finetune(splits, *args, **kwargs)

    monkeypatch.setattr(cli, "pretrain", pretrain)
    monkeypatch.setattr(cli, "finetune", finetune)
    assert run(["sweep", "sigma", "--config", cfg_path, "--out", out]) == 0
    # at sigma 0 the noisy twin holds exact copies of the series it was made from
    pretrained = {s.tobytes() for ds in seen["pool"] for s in ds.series}
    assert len(seen["test"]) > 0
    assert not any(s.tobytes() in pretrained for s in seen["test"].series)


def test_sigma_sweep_runs_the_shift_protocol(tmp_path):
    """Each ``sweep sigma`` row holds the repr of the accuracy and macro-F1
    that ``shift_protocol`` gives on the config's loaded source at that
    sigma: the sweep runs the one protocol."""
    from protonorm.cli import shift_protocol

    cfg = desk_config(tmp_path)
    out = tmp_path / "runs"
    run(["generate", "--config", cfg, "--out", out])
    doc = json.loads(cfg.read_text())
    doc["data"]["source_path"] = os.path.join(only_run_dir(out, "generate-"), "cluster0.tsv")
    doc["sweep"] = {"n_prototypes": [], "sigma": [0.0, 0.3], "lambda": []}
    cfg_path = tmp_path / "sigma.json"
    cfg_path.write_text(json.dumps(doc))
    assert run(["sweep", "sigma", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(only_run_dir(out, "sweep-sigma-"), "sweep.csv")).read()
    rows = [line.split(",") for line in lines.strip().splitlines()[1:]]
    run_cfg = load_run_config(cfg_path)
    source = load_ucr_tsv(run_cfg.data.source_path)
    for row, sigma in zip(rows, (0.0, 0.3), strict=True):
        metrics = shift_protocol(run_cfg, source, sigma)
        assert row[:4] == ["sigma", str(sigma), repr(metrics.accuracy), repr(metrics.macro_f1)]
        assert row[-1] == "ok"


def test_failed_trace_write_leaves_the_previous_trace(tmp_path, monkeypatch):
    import protonorm.cli as cli

    cfg_path, out = _generate_then_pretrain(tmp_path)
    trace = os.path.join(only_run_dir(out, "pretrain-"), "trace.csv")
    previous = b"step,lr,loss_nt,loss_orth,loss_total\r\n"  # an earlier, shorter trace
    with open(trace, "wb") as fh:
        fh.write(previous)
    real_pretrain = cli.pretrain

    def fail(fd):
        raise OSError("simulated fsync failure")

    def pretrain_then_fail_fsync(*args, **kwargs):
        result = real_pretrain(*args, **kwargs)
        monkeypatch.setattr(os, "fsync", fail)  # checkpoints are written by now
        return result

    monkeypatch.setattr(cli, "pretrain", pretrain_then_fail_fsync)
    assert run(["pretrain", "--config", cfg_path, "--out", out]) == 1
    assert open(trace, "rb").read() == previous
    assert not [f for f in os.listdir(os.path.dirname(trace)) if f.endswith(".tmp")]
