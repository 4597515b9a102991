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
import types
import typing
from dataclasses import asdict, dataclass

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
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
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
class SyntheticConfig:
    k_datasets: int = 2
    n_per: int = 200
    length: int | None = None  # falls back to encoder.input_len
    offsets: tuple[float, ...] | None = None
    noise_std: float = 0.1
    freq_lo: float = 2.0
    freq_hi: float = 8.0

    def __post_init__(self):
        for key in ("k_datasets", "n_per", "length"):
            value = getattr(self, key)
            if value is not None and value < 1:  # length None follows the encoder
                raise ConfigError(f"data.synthetic.{key} must be >= 1, got {value}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ConfigError(
                f"data.synthetic.noise_std must be finite and >= 0, got {self.noise_std}"
            )
        if not self.freq_lo <= self.freq_hi:
            raise ConfigError(
                f"data.synthetic.freq_lo {self.freq_lo} exceeds freq_hi {self.freq_hi}"
            )
        if self.offsets is not None and len(self.offsets) != self.k_datasets:
            raise ConfigError(
                f"data.synthetic.offsets has {len(self.offsets)} entries for "
                f"k_datasets={self.k_datasets}"
            )


@dataclass
class DataConfig:
    pretrain_paths: tuple[str, ...] = ()
    finetune_train_path: str | None = None
    finetune_test_path: str | None = None
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    source_path: str | None = None
    sigmas: tuple[float, ...] = (0.1, 0.2, 0.3)
    synthetic: SyntheticConfig | None = None

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
    epochs: int = 5
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass
class FinetunePhaseConfig(PhaseConfig):
    epochs: int = 10
    batch_size: int = 16
    n_labeled: int | str = "all"

    def __post_init__(self):
        super().__post_init__()
        if self.n_labeled != "all" and (
            not isinstance(self.n_labeled, int) or self.n_labeled < 1
        ):
            raise ConfigError(
                f"n_labeled must be a positive int or 'all', got {self.n_labeled!r}"
            )


# Each section of the run document and the dataclass that declares its
# fields, their types and their defaults.
SECTIONS = {
    "encoder": EncoderConfig,
    "augment": AugmentConfig,
    "ntxent": NtXentConfig,
    "optim": OptimConfig,
    "standardize": StandardizeSpec,
    "data": DataConfig,
    "pretrain": PhaseConfig,
    "finetune": FinetunePhaseConfig,
}

DEFAULTS = {
    "seed": 0,
    **{name: asdict(cls()) for name, cls in SECTIONS.items() if cls is not StandardizeSpec},
    "standardize": {
        "target_len": None,  # falls back to encoder.input_len
        "target_channels": None,  # falls back to encoder.channels
        "replication_noise_std": StandardizeSpec.replication_noise_std,
    },
    "freeze_prototypes": False,
    "sweep": {
        "n_prototypes": [4, 8, 16, 32, 64],
        "sigma": [0.1, 0.2, 0.3],
        "lambda": [0.001, 0.01, 0.1, 1.0],
    },
}


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


# The value types a float or tuple field takes: a JSON document may write
# a float as an int, and it has lists where the dataclasses hold tuples.
_ACCEPTED = {float: (int, float), tuple: (list, tuple)}


def _check_type(where, value, hint):
    """Raise ConfigError unless ``value`` fits the annotation ``hint``: an
    int field takes no bool or float, a float field also takes an int, a
    ``tuple[X, ...]`` field takes a JSON list whose every element fits X
    (named ``where[i]``), and ``X | None`` also takes None."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    for kind in (typing.get_args(hint) if union else (hint,)):
        base = typing.get_origin(kind) or kind
        accepted = _ACCEPTED.get(base, base)
        if isinstance(value, accepted) and isinstance(value, bool) == (base is bool):
            for i, item in enumerate(value if base is tuple else ()):
                _check_type(f"{where}[{i}]", item, typing.get_args(kind)[0])
            return
    raise ConfigError(f"{where} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def _section(name, cls, doc):
    """The dataclass of one section, each value checked against its
    field's annotation first; a tuple field gets its list as a tuple."""
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        _check_type(f"{name}.{key}", value, hints[key])
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def build_run_config(resolved):
    """Construct a validated RunConfig from an already-merged document,
    whose norm mode it makes canonical. A wrongly typed value is a
    ConfigError naming its ``section.key``; each sweep axis is a list of
    numbers (ints for ``n_prototypes``)."""
    resolved = copy.deepcopy(resolved)
    _check_type("seed", resolved["seed"], int)
    _check_type("freeze_prototypes", resolved["freeze_prototypes"], bool)
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    for axis, values in resolved["sweep"].items():
        kind = int if axis == "n_prototypes" else float
        _check_type(f"sweep.{axis}", values, tuple[kind, ...])
    enc = resolved["encoder"]
    _check_type("encoder.norm_mode", enc["norm_mode"], str)
    enc["norm_mode"] = resolve_norm_mode(enc["norm_mode"])
    docs = {name: dict(resolved[name]) for name in SECTIONS}
    std, data = docs["standardize"], docs["data"]
    for key, fallback in (("target_len", "input_len"), ("target_channels", "channels")):
        if std[key] is None:
            std[key] = enc[fallback]
    if data["synthetic"] is not None:
        _check_type("data.synthetic", data["synthetic"], dict)
        syn = _merge(asdict(SyntheticConfig()), data["synthetic"], "data.synthetic")
        if syn["length"] is None:
            syn["length"] = enc["input_len"]
        data["synthetic"] = _section("data.synthetic", SyntheticConfig, syn)
    return RunConfig(
        seed=resolved["seed"],
        **{name: _section(name, cls, docs[name]) for name, cls in SECTIONS.items()},
        freeze_prototypes=resolved["freeze_prototypes"],
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
    return build_run_config(_merge(_merge(DEFAULTS, doc), _overrides(env, flags)))
