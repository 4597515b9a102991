"""Run configuration: file + environment + flag resolution.

A run is described by one JSON document; unknown keys anywhere in it are
rejected. A handful of frequently swept fields can be overridden by
environment variables (``PROTONORM_*``) and command-line flags, with
precedence flag > env > file > defaults. The fully resolved document is
what gets digested into run-directory names and persisted next to every
run's outputs, so any run can be replayed exactly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .contrastive import AugmentConfig, NtXentConfig
from .data import StandardizeSpec
from .encoder import EncoderConfig
from .errors import ConfigError
from .training import OptimConfig

__all__ = [
    "RunConfig",
    "build_run_config",
    "config_digest",
    "load_run_config",
    "resolve_norm_mode",
]

ENV_PREFIX = "PROTONORM_"

DEFAULTS = {
    "seed": 0,
    "encoder": {
        "input_len": 128,
        "channels": 1,
        "patch_size": 16,
        "d_model": 64,
        "n_heads": 4,
        "n_layers": 3,
        "n_prototypes": 4,
        "dropout": 0.15,
        "norm_mode": "proto-gated",
        "ema_alpha": 0.05,
        "epsilon": 1e-8,
    },
    "augment": {
        "max_shift_fraction": 0.2,
        "scale_range": [0.8, 1.2],
        "jitter_std": 0.05,
    },
    "ntxent": {"temperature": 0.2, "lambda_orth": 0.001},
    "optim": {
        "lr_peak": 1e-3,
        "weight_decay": 1e-5,
        "betas": [0.9, 0.999],
        "eps": 1e-8,
        "warmup_steps": 2000,
        "total_steps": None,
        "lr_floor": 0.0,
    },
    "standardize": {
        "target_len": None,  # falls back to encoder.input_len
        "target_channels": None,  # falls back to encoder.channels
        "replication_noise_std": 0.01,
    },
    "data": {
        "pretrain_paths": [],
        "finetune_train_path": None,
        "finetune_test_path": None,
        "val_fraction": 0.2,
        "test_fraction": 0.2,
        "source_path": None,
        "sigmas": [0.1, 0.2, 0.3],
        "synthetic": None,
    },
    "pretrain": {"epochs": 5, "batch_size": 32},
    "finetune": {"epochs": 10, "batch_size": 16, "n_labeled": "all"},
    "freeze_prototypes": False,
    "sweep": {
        "n_prototypes": [4, 8, 16, 32, 64],
        "sigma": [0.1, 0.2, 0.3],
        "lambda": [0.001, 0.01, 0.1, 1.0],
    },
}

SYNTHETIC_DEFAULTS = {
    "k_datasets": 2,
    "n_per": 200,
    "length": None,  # falls back to encoder.input_len
    "offsets": None,
    "noise_std": 0.1,
    "freq_lo": 2.0,
    "freq_hi": 8.0,
}

NORM_MODE_ALIASES = {
    "proto": "proto-gated",
    "dataset": "dataset-indexed",
    "plain": "plain-LN",
    "proto-gated": "proto-gated",
    "dataset-indexed": "dataset-indexed",
    "plain-LN": "plain-LN",
}


def resolve_norm_mode(value):
    if value not in NORM_MODE_ALIASES:
        raise ConfigError(
            f"unknown norm mode {value!r}; expected one of "
            f"{sorted(set(NORM_MODE_ALIASES))}"
        )
    return NORM_MODE_ALIASES[value]


def _merge(base, override, path=""):
    """Overlay override onto base, rejecting keys base does not know."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


# The fields that flags and PROTONORM_* variables may override:
# (flag key, environment variable, config path, parser).
OVERRIDES = (
    ("seed", f"{ENV_PREFIX}SEED", ("seed",), int),
    ("norm_mode", f"{ENV_PREFIX}NORM_MODE", ("encoder", "norm_mode"), resolve_norm_mode),
    ("prototypes", f"{ENV_PREFIX}PROTOTYPES", ("encoder", "n_prototypes"), int),
    ("lambda_orth", f"{ENV_PREFIX}LAMBDA", ("ntxent", "lambda_orth"), float),
    ("freeze_prototypes", f"{ENV_PREFIX}FREEZE_PROTOTYPES", ("freeze_prototypes",), _parse_bool),
)


def _overrides(env, flags):
    """Flag and environment overrides as one config document, a flag
    beating its variable. A value that does not parse raises ConfigError
    naming the flag or variable it came from."""
    out = {}
    for flag, var, path, parse in OVERRIDES:
        if flags.get(flag) is not None:
            name, raw = f"flag {flag}", flags[flag]
        elif var in env:
            name, raw = var, env[var]
        else:
            continue
        try:
            value = parse(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{name}={raw!r}: {e}") from e
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


@dataclass
class DataConfig:
    pretrain_paths: list
    finetune_train_path: str | None
    finetune_test_path: str | None
    val_fraction: float
    test_fraction: float
    source_path: str | None
    sigmas: list
    synthetic: dict | None

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in [0, 1), got {self.test_fraction}"
            )
        if not all(0.0 <= s < math.inf for s in self.sigmas):
            raise ConfigError(f"sigmas must be finite and >= 0, got {self.sigmas}")


@dataclass
class PhaseConfig:
    epochs: int
    batch_size: int

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass
class FinetunePhaseConfig(PhaseConfig):
    n_labeled: object  # int or "all"

    def __post_init__(self):
        super().__post_init__()
        if self.n_labeled != "all" and (
            not isinstance(self.n_labeled, int) or self.n_labeled < 1
        ):
            raise ConfigError(
                f"n_labeled must be a positive int or 'all', got {self.n_labeled!r}"
            )


@dataclass
class RunConfig:
    seed: int
    encoder: EncoderConfig
    augment: AugmentConfig
    ntxent: NtXentConfig
    optim: OptimConfig
    standardize: StandardizeSpec
    data: DataConfig
    pretrain: PhaseConfig
    finetune: FinetunePhaseConfig
    freeze_prototypes: bool
    sweep: dict
    resolved: dict  # the canonical document the above was built from

    def digest(self):
        return config_digest(self.resolved)


def config_digest(resolved):
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_run_config(resolved):
    """Construct a validated RunConfig from an already-merged document."""
    enc = EncoderConfig(**{**resolved["encoder"], "norm_mode": resolve_norm_mode(resolved["encoder"]["norm_mode"])})
    std_doc = resolved["standardize"]
    standardize = StandardizeSpec(
        target_len=std_doc["target_len"] or enc.input_len,
        target_channels=std_doc["target_channels"] or enc.channels,
        replication_noise_std=std_doc["replication_noise_std"],
    )
    aug_doc = dict(resolved["augment"])
    aug_doc["scale_range"] = tuple(aug_doc["scale_range"])
    optim_doc = dict(resolved["optim"])
    optim_doc["betas"] = tuple(optim_doc["betas"])
    synthetic = resolved["data"]["synthetic"]
    if synthetic is not None:
        synthetic = _merge(SYNTHETIC_DEFAULTS, synthetic, "data.synthetic")
        if synthetic["length"] is None:
            synthetic["length"] = enc.input_len
    data_doc = dict(resolved["data"])
    data_doc["synthetic"] = synthetic
    seed = int(resolved["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return RunConfig(
        seed=seed,
        encoder=enc,
        augment=AugmentConfig(**aug_doc),
        ntxent=NtXentConfig(**resolved["ntxent"]),
        optim=OptimConfig(**optim_doc),
        standardize=standardize,
        data=DataConfig(**data_doc),
        pretrain=PhaseConfig(**resolved["pretrain"]),
        finetune=FinetunePhaseConfig(**resolved["finetune"]),
        freeze_prototypes=bool(resolved["freeze_prototypes"]),
        sweep=resolved["sweep"],
        resolved=resolved,
    )


def load_run_config(path=None, flags=None, env=None):
    """Resolve defaults, the optional JSON file, environment variables,
    and flag overrides (in that precedence order) into a validated
    RunConfig. Every value is checked before any computation starts."""
    env = os.environ if env is None else env
    flags = flags or {}
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    resolved = _merge(_merge(DEFAULTS, doc), _overrides(env, flags))
    resolved["encoder"]["norm_mode"] = resolve_norm_mode(
        resolved["encoder"]["norm_mode"]
    )
    return build_run_config(resolved)
