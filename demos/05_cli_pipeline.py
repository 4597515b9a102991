"""End-to-end command-line pipeline: generate a synthetic pool, pretrain,
fine-tune from the checkpoint, evaluate, and sweep the prototype count.
Every output lands in a temporary directory, keyed by config digest and
seed, and the directory is removed when the demo ends."""

import json
import os
import tempfile

from protonorm.cli import main

with tempfile.TemporaryDirectory(prefix="protonorm-demo-") as workdir:
    out = os.path.join(workdir, "runs")

    config = {
        "seed": 5,
        "encoder": {
            "input_len": 64,
            "patch_size": 16,
            "d_model": 32,
            "n_heads": 4,
            "n_layers": 2,
            "n_prototypes": 2,
            "dropout": 0.1,
        },
        "optim": {"warmup_steps": 4},
        "pretrain": {"epochs": 2, "batch_size": 8},
        "finetune": {"epochs": 4, "batch_size": 8, "n_labeled": "all"},
        "data": {"synthetic": {"k_datasets": 2, "n_per": 24}},
        "sweep": {"n_prototypes": [1, 2, 4], "sigma": [], "lambda": []},
    }
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=2)

    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    gen_dir = next(os.path.join(out, d) for d in os.listdir(out) if d.startswith("generate-"))
    manifest = json.load(open(os.path.join(gen_dir, "manifest.json")))
    print("generated:", [e["file"] for e in manifest["datasets"]])

    config["data"]["pretrain_paths"] = [
        os.path.join(gen_dir, "cluster0.tsv"),
        os.path.join(gen_dir, "cluster1.tsv"),
    ]
    config["data"]["finetune_train_path"] = os.path.join(gen_dir, "cluster0.tsv")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=2)

    assert main(["pretrain", "--config", cfg_path, "--out", out]) == 0
    pre_dir = next(os.path.join(out, d) for d in os.listdir(out) if d.startswith("pretrain-"))
    print("trace head:", open(os.path.join(pre_dir, "trace.csv")).readline().strip())

    ckpt = os.path.join(pre_dir, "final.ckpt")
    assert main(["finetune", ckpt, "--config", cfg_path, "--out", out]) == 0
    ft_dir = next(os.path.join(out, d) for d in os.listdir(out) if d.startswith("finetune-"))
    metrics = json.load(open(os.path.join(ft_dir, "metrics.json")))
    print(f"fine-tuned accuracy {metrics['accuracy']:.3f}, macro-F1 {metrics['macro_f1']:.3f}")

    model = os.path.join(ft_dir, "model.ckpt")
    assert main(["eval", model, "--config", cfg_path, "--out", out]) == 0

    assert main(["sweep", "n_prototypes", "--config", cfg_path, "--out", out]) == 0
    sweep_dir = next(os.path.join(out, d) for d in os.listdir(out) if d.startswith("sweep-"))
    print("sweep table:")
    print(open(os.path.join(sweep_dir, "sweep.csv")).read())
    print("all outputs under", out, "(removed when the demo ends)")
