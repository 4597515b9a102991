"""Run configuration: pinned digests of resolved documents, and wrongly
typed values rejected as config errors before any run directory exists."""

import json
import re

import pytest

from protonorm.cli import main
from protonorm.config import load_run_config
from protonorm.errors import ConfigError
from test_cli import desk_config

# The benchmark's shift-pipeline document at seed 1, with a fixed source path.
SHIFT_PIPELINE = {
    "seed": 1,
    "encoder": {"n_prototypes": 4},
    "optim": {"warmup_steps": 10},
    "pretrain": {"epochs": 2, "batch_size": 32},
    "finetune": {"epochs": 4, "batch_size": 16, "n_labeled": 100},
    "data": {"source_path": "source.tsv", "sigmas": [0.3]},
}

PLAIN_WITH_LISTS = {
    "encoder": {"norm_mode": "plain"},
    "optim": {"betas": [0.8, 0.99]},
    "augment": {"scale_range": [0.7, 1.3]},
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _desk_doc(tmp_path):
    return json.loads(desk_config(tmp_path).read_text())


# A drifted default renames every run directory, so each digest is pinned.
@pytest.mark.parametrize(
    "doc, digest",
    [
        ({}, "999a5e873dece800c5a36bb8fc3f370a1ed087d38ad0e734cae9440399809bd1"),
        (SHIFT_PIPELINE, "7ca619b4fcc379d7eca1a97e0ad3fd667c5c78900ce930087eff49558713baa9"),
        ("desk", "bb526b0c084d421c429cc7660532f700fb38187927fa289dc9dfd7164389e45d"),
        (PLAIN_WITH_LISTS, "a151d678ae40f40932ba1be8815070daa3690405f574e9e72ceebcaecd3a5b7f"),
    ],
    ids=["empty", "shift-pipeline", "desk", "plain-with-lists"],
)
def test_resolved_config_digest_is_pinned(tmp_path, doc, digest):
    if doc == "desk":
        doc = _desk_doc(tmp_path)
    assert load_run_config(_write(tmp_path, doc), env={}).digest() == digest


BAD_TYPES = [
    ({"pretrain": {"epochs": "2"}}, "pretrain.epochs"),
    ({"pretrain": {"epochs": 2.0}}, "pretrain.epochs"),
    ({"encoder": {"n_layers": 1.0}}, "encoder.n_layers"),
    ({"encoder": {"n_heads": True}}, "encoder.n_heads"),
    ({"encoder": {"norm_mode": ["plain"]}}, "encoder.norm_mode"),
    ({"optim": {"lr_peak": True}}, "optim.lr_peak"),
    ({"optim": {"betas": 0.9}}, "optim.betas"),
    ({"finetune": {"n_labeled": 100.0}}, "finetune.n_labeled"),
    ({"data": {"finetune_train_path": 3}}, "data.finetune_train_path"),
    ({"standardize": {"target_len": 32.0}}, "standardize.target_len"),
    ({"seed": 1.5}, "seed"),
    ({"freeze_prototypes": "false"}, "freeze_prototypes"),
    ({"optim": 1e-3}, "optim"),
    ({"data": {"synthetic": 5}}, "data.synthetic"),
    ({"data": {"synthetic": {"k_datasets": "2"}}}, "data.synthetic.k_datasets"),
    ({"data": {"sigmas": ["a"]}}, "data.sigmas[0]"),
    ({"optim": {"betas": ["a", 0.9]}}, "optim.betas[0]"),
    ({"augment": {"scale_range": [0.8, "1.2"]}}, "augment.scale_range[1]"),
    ({"data": {"pretrain_paths": [3]}}, "data.pretrain_paths[0]"),
]


def _with(doc, bad):
    out = dict(doc)
    for key, value in bad.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


@pytest.mark.parametrize("bad, key", BAD_TYPES, ids=[key for _, key in BAD_TYPES])
def test_wrongly_typed_value_is_a_config_error(tmp_path, capsys, bad, key):
    path = _write(tmp_path, _with(_desk_doc(tmp_path), bad), "bad.json")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be"):
        load_run_config(path, env={})
    out = tmp_path / "runs"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "good",
    [
        {"optim": {"lr_peak": 1}},
        {"finetune": {"n_labeled": 8}},
        {"data": {"finetune_test_path": None}},
        {"standardize": {"target_len": 32}},
        {"freeze_prototypes": True},
    ],
)
def test_well_typed_values_stay_valid(tmp_path, good):
    cfg = load_run_config(_write(tmp_path, _with(_desk_doc(tmp_path), good)), env={})
    section, fields = next(iter(good.items()))
    if isinstance(fields, dict):
        for key, value in fields.items():
            assert getattr(getattr(cfg, section), key) == value
    else:
        assert getattr(cfg, section) == fields


BAD_RANGES = [
    ({"k_datasets": 0}, "data.synthetic.k_datasets"),
    ({"n_per": -3}, "data.synthetic.n_per"),
    ({"length": 0}, "data.synthetic.length"),
    ({"noise_std": -0.1}, "data.synthetic.noise_std"),
    ({"freq_lo": 9.0, "freq_hi": 8.0}, "data.synthetic.freq_lo"),
    ({"k_datasets": 3, "offsets": [0.0, 1.0]}, "data.synthetic.offsets"),
]


@pytest.mark.parametrize("bad, key", BAD_RANGES, ids=[key for _, key in BAD_RANGES])
def test_out_of_range_synthetic_value_is_a_config_error(tmp_path, capsys, bad, key):
    doc = _with(_desk_doc(tmp_path), {"data": {"synthetic": bad}})
    path = _write(tmp_path, doc, "bad.json")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} "):
        load_run_config(path, env={})
    out = tmp_path / "runs"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} "), key
    assert not out.exists()


BAD_SWEEPS = [
    ("lambda", 5, "sweep.lambda"),
    ("n_prototypes", ["x"], "sweep.n_prototypes[0]"),
    ("n_prototypes", [4, 8.0], "sweep.n_prototypes[1]"),
    ("sigma", [0.1, True], "sweep.sigma[1]"),
]


@pytest.mark.parametrize("axis, values, key", BAD_SWEEPS, ids=[key for *_, key in BAD_SWEEPS])
def test_wrongly_typed_sweep_axis_is_a_config_error(tmp_path, capsys, axis, values, key):
    path = _write(tmp_path, _with(_desk_doc(tmp_path), {"sweep": {axis: values}}), "bad.json")
    out = tmp_path / "runs"
    assert main(["sweep", axis, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be"), key
    assert not out.exists()
