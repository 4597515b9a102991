"""Distribution-shift experiment in miniature: pretrain on a clean source
plus its noise-corrupted twin, fine-tune on 100 clean samples, and compare
prototype-gated normalization against the plain-LN baseline. The protocol
is ``protonorm.cli.shift_protocol``, the one a ``sweep sigma`` leg runs;
the run settings are one config file, loaded per seed and norm mode."""

import json
import os
import tempfile

import numpy as np

from protonorm import make_synthetic_clusters
from protonorm.cli import shift_protocol
from protonorm.config import load_run_config

SIGMA = 0.3
CONFIG = {  # desk-scale encoder defaults
    "optim": {"warmup_steps": 20},
    "pretrain": {"epochs": 4, "batch_size": 32},
    "finetune": {"epochs": 10, "batch_size": 16, "n_labeled": 100},
    "data": {"test_fraction": 0.25, "val_fraction": 0.2},
}

seeds = (41, 42, 43)
proto, plain = [], []
with tempfile.TemporaryDirectory(prefix="protonorm-demo-") as workdir:
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(CONFIG, fh)
    for seed in seeds:
        source = make_synthetic_clusters(
            1, 240, 128, np.random.default_rng(seed), noise_std=0.02, scales=[0.2]
        )[0]
        acc = {}
        for mode in ("proto-gated", "plain-LN"):
            cfg = load_run_config(path, flags={"seed": seed, "norm_mode": mode}, env={})
            acc[mode] = shift_protocol(cfg, source, SIGMA).accuracy
        proto.append(acc["proto-gated"])
        plain.append(acc["plain-LN"])
        print(f"seed {seed}: proto-gated {proto[-1]:.3f} | plain-LN {plain[-1]:.3f}")

print(f"\nmean over {len(seeds)} seeds: proto-gated {np.mean(proto):.4f}, "
      f"plain-LN {np.mean(plain):.4f} (sigma={SIGMA} twin in the pool)")
