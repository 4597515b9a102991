"""Contrastive pretraining on a two-dataset pool with offset clusters,
then an audit of which prototype each sample routes to. Every layer ends
up splitting the pool cleanly by dataset of origin."""

import numpy as np

from protonorm import (
    AugmentConfig,
    Encoder,
    EncoderConfig,
    NtXentConfig,
    OptimConfig,
    RngStreams,
    TrainState,
    batches,
    make_synthetic_clusters,
    no_grad,
    pretrain,
)

pool = make_synthetic_clusters(2, 48, 128, np.random.default_rng(100))  # offsets -5, +5
cfg = EncoderConfig()  # desk defaults: d_model=64, 3 layers, 4 prototypes
streams = RngStreams.from_seed(101)
encoder = Encoder(cfg, streams.params, streams.protos)

result = pretrain(
    pool,
    encoder,
    AugmentConfig(),
    NtXentConfig(),
    OptimConfig(warmup_steps=10),
    epochs=3,
    batch_size=16,
    seed=101,
    state=TrainState(streams=streams),
)
first, last = result.rows[0], result.rows[-1]
print(f"steps: {len(result.rows)}, contrastive loss {first[2]:.3f} -> {last[2]:.3f}")

# Audit assignments per layer on a clean pass.
hits = None
with no_grad():
    for b in batches(pool, 16):
        encoder.encode(b.x, "pretrain", train=False, dataset_ids=b.dataset_ids)
        layers = encoder.protonorm_layers()
        if hits is None:
            hits = [np.zeros((cfg.n_prototypes, 2), dtype=int) for _ in layers]
        for li, layer in enumerate(layers):
            np.add.at(hits[li], (layer.last_assignments, b.dataset_ids), 1)

for li, h in enumerate(hits):
    purity = sum(row.max() for row in h) / h.sum()
    print(f"layer {li}: purity {purity:.3f}, prototype x dataset counts {h.tolist()}")
