"""Acceptance criteria.

Each test enforces one gate criterion at its stated tolerance and prints
one [PASS] line (pytest -s shows them; failures raise with detail).

Criteria: full-objective gradient integrity against an independent
finite-difference oracle; contrastive-loss equality with brute force;
orthogonality mechanics; gating purity on separated clusters; the EMA
contraction law; the distribution-shift accuracy direction; complexity
closed forms; bitwise determinism and checkpoint resume; and the ablation
degeneracies.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np

from protonorm import (
    AugmentConfig,
    Encoder,
    EncoderConfig,
    NtXentConfig,
    OptimConfig,
    PrototypeBank,
    RngStreams,
    Tensor,
    TrainState,
    adamw_step,
    augment_pair,
    batches,
    concat,
    count_forward_macs,
    count_parameters,
    finetune,
    init_orthogonal,
    load_checkpoint,
    make_shifted_variant,
    make_synthetic_clusters,
    no_grad,
    nt_xent,
    orthogonality_loss,
    pretrain,
    save_checkpoint,
    total_loss,
    train_val_split,
)
from protonorm.cli import main as cli_main
from protonorm.encoder import patchify


def report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def _fd_rel_error(analytic, numeric):
    """Normwise relative error with an absolute floor.

    Some parameters have mathematically zero gradient (an attention key
    bias shifts every score in a row equally, which softmax ignores);
    there both sides are pure rounding noise around 1e-11 and a pure
    ratio is meaningless. The floor is far below any real gradient norm
    in this model (~1e-2 and up) and far above the FD noise floor.
    """
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-5)
    return np.linalg.norm(analytic - numeric) / denom


# ---------------------------------------------------------------------------
# 1. Gradient integrity: full combined objective, every trainable
#    parameter, central finite differences, rel err < 1e-4, < 10 min.
# ---------------------------------------------------------------------------

GRAD_CFG = EncoderConfig(
    input_len=16,
    patch_size=16,
    d_model=64,
    n_heads=4,
    n_layers=3,
    n_prototypes=4,
    dropout=0.15,
)
GRAD_TAU = 0.2
GRAD_LAMBDA = 0.001
DROP_SEED = 777


def _oracle_refs(p, cfg):
    """Arrange the parameter arrays ``p`` (name -> array) as the oracles
    read them. Given the encoder's live arrays, a perturbation made in
    place is seen by the scalar oracle without re-resolving names; given
    one probe stack in place of an array, the batched oracle sees every
    probe in it."""
    blocks = []
    for i in range(cfg.n_layers):
        pre = f"block{i}"
        blocks.append(
            {
                "wq": (p[f"{pre}.attn.wq.w"], p[f"{pre}.attn.wq.b"]),
                "wk": (p[f"{pre}.attn.wk.w"], p[f"{pre}.attn.wk.b"]),
                "wv": (p[f"{pre}.attn.wv.w"], p[f"{pre}.attn.wv.b"]),
                "wo": (p[f"{pre}.attn.wo.w"], p[f"{pre}.attn.wo.b"]),
                "fc1": (p[f"{pre}.ffn.fc1.w"], p[f"{pre}.ffn.fc1.b"]),
                "fc2": (p[f"{pre}.ffn.fc2.w"], p[f"{pre}.ffn.fc2.b"]),
                "norm1": (
                    p[f"{pre}.norm1.gamma"],
                    p[f"{pre}.norm1.beta"],
                    p[f"{pre}.norm1.prototypes"],
                ),
                "norm2": (
                    p[f"{pre}.norm2.gamma"],
                    p[f"{pre}.norm2.beta"],
                    p[f"{pre}.norm2.prototypes"],
                ),
            }
        )
    heads = {
        "embed": (p["patch_embed.w"], p["patch_embed.b"]),
        "pos": p["pos_embed"],
        "fc1": (p["proj.fc1.w"], p["proj.fc1.b"]),
        "fc2": (p["proj.fc2.w"], p["proj.fc2.b"]),
    }
    return blocks, heads


def _oracle_loss(refs, cfg, tokens1, tokens2):
    """Independent plain-numpy evaluation of the full pretraining
    objective (encoder forward, contrastive term, orthogonality penalty).
    Dropout masks are redrawn from a fixed seed, matching the graph path
    draw for draw."""
    blocks, heads = refs
    drop = np.random.default_rng(DROP_SEED)
    d, nheads = cfg.d_model, cfg.n_heads
    dh = d // nheads
    eye_p = np.eye(cfg.n_prototypes)
    keep = 1.0 - cfg.dropout

    def ln_site(h, site):
        gammas, betas, bank = site
        feats = h.mean(axis=1)
        d2 = ((feats[:, None, :] - bank[None]) ** 2).sum(axis=2)
        idx = np.argmin(d2, axis=1)
        mu = h.mean(-1, keepdims=True)
        var = ((h - mu) ** 2).mean(-1, keepdims=True)
        xhat = (h - mu) / np.sqrt(var + cfg.epsilon)
        g = gammas[idx][:, None, :]
        s = betas[idx][:, None, :]
        return g * xhat + s

    def encode(tokens):
        h = tokens @ heads["embed"][0] + heads["embed"][1] + heads["pos"]
        b, t, _ = h.shape
        for blk in blocks:
            q = (h @ blk["wq"][0] + blk["wq"][1]).reshape(b, t, nheads, dh).transpose(0, 2, 1, 3)
            k = (h @ blk["wk"][0] + blk["wk"][1]).reshape(b, t, nheads, dh).transpose(0, 2, 1, 3)
            v = (h @ blk["wv"][0] + blk["wv"][1]).reshape(b, t, nheads, dh).transpose(0, 2, 1, 3)
            scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(dh))
            m = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - m)
            attn = e / e.sum(-1, keepdims=True)
            ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
            a = ctx @ blk["wo"][0] + blk["wo"][1]
            mask = (drop.random(a.shape) >= cfg.dropout) / keep
            h = ln_site(h + a * mask, blk["norm1"])
            f = np.maximum(h @ blk["fc1"][0] + blk["fc1"][1], 0.0)
            f = f @ blk["fc2"][0] + blk["fc2"][1]
            mask = (drop.random(f.shape) >= cfg.dropout) / keep
            h = ln_site(h + f * mask, blk["norm2"])
        pooled = h.mean(axis=1)
        z = np.maximum(pooled @ heads["fc1"][0] + heads["fc1"][1], 0.0)
        return z @ heads["fc2"][0] + heads["fc2"][1]

    z = np.concatenate([encode(tokens1), encode(tokens2)])
    rows = z.shape[0]
    half = rows // 2
    zn = z / np.sqrt((z * z).sum(axis=1, keepdims=True))
    sims = zn @ zn.T
    logits = sims / GRAD_TAU + np.where(np.eye(rows, dtype=bool), -1e9, 0.0)
    m = logits.max(axis=1, keepdims=True)
    lse = (np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m)[:, 0]
    pos = logits[np.arange(rows), (np.arange(rows) + half) % rows]
    nt = (lse - pos).mean()
    orth = 0.0
    for blk in blocks:
        for tag in ("norm1", "norm2"):
            bank = blk[tag][2]
            g = bank @ bank.T - eye_p
            orth += (g * g).sum()
    return nt + GRAD_LAMBDA * orth


GRAD_PROBES = 64  # entries of one array moved per batched oracle call, up and down


def _probe_rank(name):
    """The rank of a probe stack of the named array: a leading probe axis,
    then singleton axes that line it up with the oracle's leading axis.
    Block and embedding arrays meet [B, T, d] activations, head arrays
    [B, d] ones; a norm site's rows are looked up per probe."""
    if name.startswith("proj.") or name.endswith((".gamma", ".beta", ".prototypes")):
        return 3
    return 4


def _probe_stack(name, array, entries, eps):
    """2 k copies of ``array`` for its k flat ``entries``: copy i holds
    entry i moved up by eps, copy k + i the same entry moved down, the
    values the scalar gate writes in place."""
    k = len(entries)
    flat = np.repeat(array.reshape(1, -1), 2 * k, axis=0)
    orig = array.reshape(-1)[entries]
    flat[np.arange(k), entries] = orig + eps
    flat[k + np.arange(k), entries] = orig - eps
    lead = (2 * k,) + (1,) * (_probe_rank(name) - 1 - array.ndim)
    return flat.reshape(lead + array.shape)


def _oracle_losses(refs, cfg, tokens1, tokens2):
    """``_oracle_loss`` at every probe of a stack, as one array: one array
    of ``refs`` may be a probe stack (``_probe_stack``), whose leading axis
    every activation it reaches takes on, and all others broadcast. Each
    site's dropout mask is drawn once at [B, T, d], in the scalar oracle's
    order, and broadcast over the probes."""
    blocks, heads = refs
    drop = np.random.default_rng(DROP_SEED)
    d, nheads = cfg.d_model, cfg.n_heads
    dh = d // nheads
    eye_p = np.eye(cfg.n_prototypes)
    keep = 1.0 - cfg.dropout

    def rows(table, idx):
        """Row idx of a [n, d] table, or of probe k's rows of a [K, n, d]
        stack, for idx [..., B]: [..., B, 1, d]."""
        if table.ndim == 2:
            return table[idx][..., None, :]
        idx = np.broadcast_to(idx, table.shape[:1] + idx.shape[-1:])
        return np.take_along_axis(table, idx[..., None], axis=1)[..., None, :]

    def ln_site(h, site):
        gammas, betas, bank = site
        feats = h.mean(axis=-2)
        d2 = ((feats[..., :, None, :] - bank[..., None, :, :]) ** 2).sum(axis=-1)
        idx = np.argmin(d2, axis=-1)
        mu = h.mean(-1, keepdims=True)
        var = ((h - mu) ** 2).mean(-1, keepdims=True)
        xhat = (h - mu) / np.sqrt(var + cfg.epsilon)
        return rows(gammas, idx) * xhat + rows(betas, idx)

    def split(x):  # [..., B, T, d] -> [..., B, heads, T, dh]
        return x.reshape(x.shape[:-1] + (nheads, dh)).swapaxes(-2, -3)

    def encode(tokens):
        h = tokens @ heads["embed"][0] + heads["embed"][1] + heads["pos"]
        for blk in blocks:
            q = split(h @ blk["wq"][0] + blk["wq"][1])
            k = split(h @ blk["wk"][0] + blk["wk"][1])
            v = split(h @ blk["wv"][0] + blk["wv"][1])
            scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(dh))
            m = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - m)
            attn = e / e.sum(-1, keepdims=True)
            ctx = (attn @ v).swapaxes(-2, -3)
            ctx = ctx.reshape(ctx.shape[:-2] + (d,))
            a = ctx @ blk["wo"][0] + blk["wo"][1]
            mask = (drop.random(a.shape[-3:]) >= cfg.dropout) / keep
            h = ln_site(h + a * mask, blk["norm1"])
            f = np.maximum(h @ blk["fc1"][0] + blk["fc1"][1], 0.0)
            f = f @ blk["fc2"][0] + blk["fc2"][1]
            mask = (drop.random(f.shape[-3:]) >= cfg.dropout) / keep
            h = ln_site(h + f * mask, blk["norm2"])
        pooled = h.mean(axis=-2)
        z = np.maximum(pooled @ heads["fc1"][0] + heads["fc1"][1], 0.0)
        return z @ heads["fc2"][0] + heads["fc2"][1]

    z = np.concatenate([encode(tokens1), encode(tokens2)], axis=-2)
    n = z.shape[-2]
    half = n // 2
    zn = z / np.sqrt((z * z).sum(axis=-1, keepdims=True))
    sims = zn @ zn.swapaxes(-1, -2)
    logits = sims / GRAD_TAU + np.where(np.eye(n, dtype=bool), -1e9, 0.0)
    m = logits.max(axis=-1, keepdims=True)
    lse = (np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m)[..., 0]
    pos = logits[..., np.arange(n), (np.arange(n) + half) % n]
    nt = (lse - pos).mean(axis=-1)
    orth = 0.0
    for blk in blocks:
        for tag in ("norm1", "norm2"):
            bank = blk[tag][2]
            g = bank @ bank.swapaxes(-1, -2) - eye_p
            orth = orth + (g * g).sum(axis=(-2, -1))
    return nt + GRAD_LAMBDA * orth


def _gradient_check_setup():
    """The gate's encoder and its two augmented views of two series."""
    cfg = GRAD_CFG
    streams = RngStreams.from_seed(0)
    enc = Encoder(cfg, streams.params, streams.protos)
    data_rng = np.random.default_rng(5)
    x = data_rng.normal(size=(2, 1, cfg.input_len))
    aug_rng = np.random.default_rng(6)
    views = [augment_pair(s, AugmentConfig(), aug_rng) for s in x]
    v1 = np.stack([a for a, _ in views])
    v2 = np.stack([b for _, b in views])
    return enc, v1, v2


def test_batched_oracle_equals_the_scalar_oracle():
    """At random probes of every parameter array, moved up and down by the
    gate's eps, the batched oracle gives the scalar oracle's loss within
    1e-12 relative, so batching the gate's probes cannot hide an oracle
    bug."""
    cfg = GRAD_CFG
    enc, v1, v2 = _gradient_check_setup()
    tokens1 = patchify(v1, cfg.patch_size)
    tokens2 = patchify(v2, cfg.patch_size)
    params = {k: t.data for k, t in enc.parameters().items()}
    refs = _oracle_refs(params, cfg)
    rng = np.random.default_rng(9)
    eps = 1e-5
    worst = 0.0
    for name, array in params.items():
        entries = rng.choice(array.size, size=min(4, array.size), replace=False)
        stack = _probe_stack(name, array, entries, eps)
        batched = _oracle_losses(_oracle_refs({**params, name: stack}, cfg), cfg, tokens1, tokens2)
        assert batched.shape == (2 * len(entries),), name
        flat = array.reshape(-1)
        for i, j in enumerate(entries):
            orig = flat[j]
            for row, value in ((i, orig + eps), (len(entries) + i, orig - eps)):
                flat[j] = value
                scalar = _oracle_loss(refs, cfg, tokens1, tokens2)
                gap = abs(batched[row] - scalar) / abs(scalar)
                assert gap <= 1e-12, f"{name}[{j}]: batched {batched[row]!r}, scalar {scalar!r}"
                worst = max(worst, gap)
            flat[j] = orig
    report(
        "batched oracle",
        f"{len(params)} parameter arrays, 4 probes each up and down: worst "
        f"relative gap to the scalar oracle {worst:.1e}",
    )


def test_acceptance_gradient_integrity():
    started = time.monotonic()
    cfg = GRAD_CFG
    enc, v1, v2 = _gradient_check_setup()

    def graph_loss():
        drop = np.random.default_rng(DROP_SEED)
        z1 = enc.encode(v1, "pretrain", train=True, rng=drop)
        z2 = enc.encode(v2, "pretrain", train=True, rng=drop)
        nt = nt_xent(concat([z1, z2]), GRAD_TAU)
        orth = [orthogonality_loss(b.P) for b in enc.banks()]
        return total_loss(nt, orth, GRAD_LAMBDA)

    params = enc.parameters()
    arrays = {k: t.data for k, t in params.items()}
    refs = _oracle_refs(arrays, cfg)
    tokens1 = patchify(v1, cfg.patch_size)
    tokens2 = patchify(v2, cfg.patch_size)

    # the two routes must agree at the base point before FD means anything,
    # through the scalar oracle and through the batched one the probes use
    with no_grad():
        base_graph = graph_loss().item()
    for base_oracle in (
        _oracle_loss(refs, cfg, tokens1, tokens2),
        float(_oracle_losses(refs, cfg, tokens1, tokens2)),
    ):
        assert abs(base_graph - base_oracle) <= 1e-12 * max(1.0, abs(base_graph))

    loss = graph_loss()
    loss.backward()

    eps = 1e-5
    checked = 0
    worst = ("", 0.0)
    for name, t in params.items():
        analytic = t.grad
        assert analytic is not None, name
        numeric = np.zeros(t.size)
        for start in range(0, t.size, GRAD_PROBES):
            entries = np.arange(start, min(start + GRAD_PROBES, t.size))
            stack = _probe_stack(name, t.data, entries, eps)
            losses = _oracle_losses(
                _oracle_refs({**arrays, name: stack}, cfg), cfg, tokens1, tokens2
            )
            up, down = losses[: len(entries)], losses[len(entries) :]
            numeric[entries] = (up - down) / (2 * eps)
        err = _fd_rel_error(analytic, numeric.reshape(t.shape))
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
        if err > worst[1]:
            worst = (name, err)
        checked += t.size
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"gradient check took {elapsed:.0f}s (budget 600s)"
    report(
        "gradient integrity",
        f"{checked} parameters checked against central differences, "
        f"worst rel err {worst[1]:.2e} ({worst[0]}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. NT-Xent oracle: N <= 4 brute force within 1e-10, N=1 exactly zero.
# ---------------------------------------------------------------------------


def _brute_force_nt_xent(z, tau):
    z = np.asarray(z, dtype=np.float64)
    rows = z.shape[0]
    half = rows // 2
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    total = 0.0
    for i in range(rows):
        num = math.exp(float(zn[i] @ zn[(i + half) % rows]) / tau)
        den = sum(
            math.exp(float(zn[i] @ zn[j]) / tau) for j in range(rows) if j != i
        )
        total += -math.log(num / den)
    return total / rows


def test_acceptance_nt_xent_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    cases = 0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            z = rng.normal(size=(2 * n, dim))
            tau = float(rng.uniform(0.05, 2.0))
            ours = nt_xent(Tensor(z), tau).item()
            ref = _brute_force_nt_xent(z, tau)
            worst = max(worst, abs(ours - ref))
            assert abs(ours - ref) < 1e-10
            cases += 1
    for _ in range(10):
        z = rng.normal(size=(2, 5))
        assert nt_xent(Tensor(z), 0.2).item() == 0.0
    report(
        "nt-xent oracle",
        f"{cases} randomized batches (N<=4) match brute force, worst gap "
        f"{worst:.2e}; N=1 returns exactly 0",
    )


# ---------------------------------------------------------------------------
# 3. Orthogonality mechanics: orthonormal init, monotone descent to 1e-6.
# ---------------------------------------------------------------------------


def test_acceptance_orthogonality_mechanics():
    rng = np.random.default_rng(2)
    init = init_orthogonal(4, 16, rng)
    init_loss = orthogonality_loss(Tensor(init)).item()
    assert init_loss < 1e-10

    P = Tensor(rng.normal(size=(4, 16)) / 4.0, requires_grad=True)
    lr = 0.02
    losses = [orthogonality_loss(P).item()]
    steps = 0
    for step in range(500):
        P.grad = None
        loss = orthogonality_loss(P)
        loss.backward()
        P.data = P.data - lr * P.grad
        losses.append(orthogonality_loss(P).item())
        assert losses[-1] < losses[-2], f"not monotone at step {step}"
        steps = step + 1
        if losses[-1] < 1e-6:
            break
    assert losses[-1] < 1e-6, f"loss {losses[-1]:.2e} after {steps} steps"
    report(
        "orthogonality mechanics",
        f"orthonormal init loss {init_loss:.1e}; gradient descent reached "
        f"{losses[-1]:.1e} after {steps} monotone steps",
    )


# ---------------------------------------------------------------------------
# 4. Gating purity on +-5 offset clusters, brute-force audited, >= 95%.
# ---------------------------------------------------------------------------


def test_acceptance_gating_purity():
    pool = make_synthetic_clusters(2, 64, 128, np.random.default_rng(100))
    cfg = EncoderConfig(
        input_len=128,
        patch_size=16,
        d_model=64,
        n_heads=4,
        n_layers=3,
        n_prototypes=4,
        dropout=0.15,
    )
    streams = RngStreams.from_seed(101)
    enc = Encoder(cfg, streams.params, streams.protos)
    pretrain(
        pool,
        enc,
        AugmentConfig(),
        NtXentConfig(),
        OptimConfig(warmup_steps=10),
        epochs=3,
        batch_size=16,
        seed=101,
        state=TrainState(streams=streams),
    )
    hits = None
    total = 0
    with no_grad():
        for b in batches(pool, 16):
            enc.encode(b.x, "pretrain", train=False, dataset_ids=b.dataset_ids)
            layers = enc.protonorm_layers()
            if hits is None:
                hits = [np.zeros((cfg.n_prototypes, 2), dtype=int) for _ in layers]
            for li, layer in enumerate(layers):
                feats = layer.last_features
                for i in range(len(b)):
                    d2 = ((layer.bank.P.data - feats[i]) ** 2).sum(axis=1)
                    assert layer.last_assignments[i] == int(np.argmin(d2))
                np.add.at(hits[li], (layer.last_assignments, b.dataset_ids), 1)
            total += len(b)
    purities = []
    for li, h in enumerate(hits):
        purity = sum(row.max() for row in h) / total
        assert purity >= 0.95, f"layer {li}: purity {purity:.3f}"
        purities.append(purity)
    report(
        "gating purity",
        f"per-layer majority-dataset purity {['%.3f' % p for p in purities]} "
        f"(brute-force audited, {total} samples)",
    )


# ---------------------------------------------------------------------------
# 5. EMA law: gap shrinks exactly geometrically for t <= 50.
# ---------------------------------------------------------------------------


def test_acceptance_ema_law():
    rng = np.random.default_rng(3)
    alpha = 0.05
    target = rng.normal(size=16)
    bank = PrototypeBank(1, 16, rng, ema_alpha=alpha)
    gap0 = np.linalg.norm(bank.P.data[0] - target)
    worst = 0.0
    for t in range(1, 51):
        bank.stage(target[None], np.array([0]))
        bank.apply_ema()
        gap = np.linalg.norm(bank.P.data[0] - target)
        expected = (1.0 - alpha) ** t * gap0
        err = abs(gap - expected) / expected
        worst = max(worst, err)
        assert err <= 1e-12
    report("ema law", f"geometric contraction holds for t<=50, worst rel dev {worst:.1e}")


# ---------------------------------------------------------------------------
# 6. Distribution-shift direction: proto-gated mean accuracy >= plain-LN
#    over 5 seeds on the clean/noisy pretraining pair; < 30 min total.
# ---------------------------------------------------------------------------

SHIFT_SEEDS = (41, 42, 43, 44, 45)
SHIFT_SIGMA = 0.3


def _shift_protocol_run(seed, norm_mode):
    source = make_synthetic_clusters(
        1, 240, 128, np.random.default_rng(seed), noise_std=0.02, scales=[0.2]
    )[0]
    src_train, src_test = train_val_split(source, 0.25, np.random.default_rng(seed + 1))
    src_test = dataclasses.replace(src_test, split="test")
    variant = make_shifted_variant(
        src_train, SHIFT_SIGMA, np.random.default_rng(seed + 2), dataset_id=1
    )
    cfg = EncoderConfig(
        input_len=128,
        patch_size=16,
        d_model=64,
        n_heads=4,
        n_layers=3,
        n_prototypes=4,
        dropout=0.15,
        norm_mode=norm_mode,
    )
    streams = RngStreams.from_seed(seed)
    enc = Encoder(cfg, streams.params, streams.protos)
    pretrain(
        [src_train, variant],
        enc,
        AugmentConfig(),
        NtXentConfig(),
        OptimConfig(warmup_steps=20),
        epochs=4,
        batch_size=32,
        seed=seed,
        state=TrainState(streams=streams),
    )
    ft_train, ft_val = train_val_split(src_train, 0.2, np.random.default_rng(seed + 3))
    result = finetune(
        (ft_train, ft_val, src_test),
        enc,
        OptimConfig(warmup_steps=10),
        epochs=10,
        batch_size=16,
        n_labeled=100,
        seed=seed,
    )
    return result.metrics.accuracy


def test_acceptance_distribution_shift_direction():
    started = time.monotonic()
    protos, plains = [], []
    for seed in SHIFT_SEEDS:
        protos.append(_shift_protocol_run(seed, "proto-gated"))
        plains.append(_shift_protocol_run(seed, "plain-LN"))
    mean_p = float(np.mean(protos))
    mean_l = float(np.mean(plains))
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"shift experiment took {elapsed:.0f}s (budget 1800s)"
    assert mean_p >= mean_l, (
        f"proto-gated mean {mean_p:.4f} < plain-LN mean {mean_l:.4f} "
        f"(per-seed proto {protos}, plain {plains})"
    )
    report(
        "distribution-shift direction",
        f"mean accuracy proto-gated {mean_p:.4f} >= plain-LN {mean_l:.4f} "
        f"(margin {mean_p - mean_l:.4f}) over {len(SHIFT_SEEDS)} seeds "
        f"(sigma={SHIFT_SIGMA}), per seed proto {[round(a, 4) for a in protos]}, "
        f"plain {[round(a, 4) for a in plains]}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Complexity properties: closed forms, MAC invariance, <10% overhead.
# ---------------------------------------------------------------------------


def test_acceptance_complexity_properties():
    desk = dict(
        input_len=128,
        patch_size=16,
        d_model=64,
        n_heads=4,
        n_layers=3,
        dropout=0.15,
    )
    core_macs = set()
    for n in (4, 8, 16, 32, 64):
        cfg = EncoderConfig(n_prototypes=n, **desk)
        streams = RngStreams.from_seed(0)
        enc = Encoder(cfg, streams.params, streams.protos)
        walked = sum(t.size for t in enc.parameters().values())
        assert count_parameters(cfg) == walked, f"n={n}"
        macs = count_forward_macs(cfg)
        core_macs.add(macs.core)
        assert macs.gating == 2 * cfg.n_layers * n * cfg.d_model
    assert len(core_macs) == 1  # identical across all prototype counts

    paper = dict(
        input_len=512,
        patch_size=50,
        d_model=256,
        n_heads=8,
        n_layers=12,
        dropout=0.15,
    )
    p4 = count_parameters(EncoderConfig(n_prototypes=4, **paper))
    p32 = count_parameters(EncoderConfig(n_prototypes=32, **paper))
    overhead = (p32 - p4) / p4
    assert p4 > 7_000_000
    assert overhead < 0.10
    report(
        "complexity properties",
        f"closed form matches walks for n in {{4,8,16,32,64}}; core MACs "
        f"invariant; paper-config overhead n=32 vs n=4 is {overhead:.2%} "
        f"of {p4 / 1e6:.2f}M params",
    )


# ---------------------------------------------------------------------------
# 8. Determinism and resume: bit-identical CSVs; mid-epoch resume bitwise.
# ---------------------------------------------------------------------------


def _write_cli_config(tmp_path, gen_dir=None):
    doc = {
        "seed": 17,
        "encoder": {
            "input_len": 64,
            "patch_size": 16,
            "d_model": 32,
            "n_heads": 4,
            "n_layers": 2,
            "n_prototypes": 2,
            "dropout": 0.15,
        },
        "optim": {"warmup_steps": 3},
        "pretrain": {"epochs": 2, "batch_size": 8},
        "finetune": {"epochs": 2, "batch_size": 8, "n_labeled": "all"},
        "data": {"synthetic": {"k_datasets": 2, "n_per": 12}},
    }
    if gen_dir is not None:
        doc["data"]["pretrain_paths"] = [
            os.path.join(gen_dir, "cluster0.tsv"),
            os.path.join(gen_dir, "cluster1.tsv"),
        ]
    path = tmp_path / ("cfg_pool.json" if gen_dir else "cfg_gen.json")
    path.write_text(json.dumps(doc))
    return path


def test_acceptance_determinism_and_resume(tmp_path):
    # CLI determinism: identical config + seed => identical trace bytes
    gen_cfg = _write_cli_config(tmp_path)
    out = tmp_path / "runs"
    assert cli_main(["generate", "--config", str(gen_cfg), "--out", str(out)]) == 0
    gen_dir = next(
        os.path.join(out, d) for d in os.listdir(out) if d.startswith("generate-")
    )
    cfg_path = _write_cli_config(tmp_path, gen_dir)
    assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    run_dir = next(
        os.path.join(out, d) for d in os.listdir(out) if d.startswith("pretrain-")
    )
    first = open(os.path.join(run_dir, "trace.csv"), "rb").read()
    assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    second = open(os.path.join(run_dir, "trace.csv"), "rb").read()
    assert first == second

    # mid-epoch resume equals the uninterrupted run bitwise
    pool = make_synthetic_clusters(2, 20, 64, np.random.default_rng(55))
    cfg = EncoderConfig(
        input_len=64, patch_size=16, d_model=32, n_heads=4,
        n_layers=2, n_prototypes=2, dropout=0.15,
    )

    def fresh():
        streams = RngStreams.from_seed(56)
        enc = Encoder(cfg, streams.params, streams.protos)
        return enc, TrainState(streams=streams)

    opt = OptimConfig(warmup_steps=3)
    steps_per_epoch = math.ceil(40 / 8)
    enc_ref, state_ref = fresh()
    ref = pretrain(
        pool, enc_ref, AugmentConfig(), NtXentConfig(), opt,
        epochs=3, batch_size=8, seed=56, state=state_ref,
    )

    enc_a, state_a = fresh()
    mid = steps_per_epoch + 2  # strictly inside epoch 2
    part = pretrain(
        pool, enc_a, AugmentConfig(), NtXentConfig(), opt,
        epochs=3, batch_size=8, seed=56, state=state_a,
        out_dir=str(tmp_path), stop_after_steps=mid,
    )
    assert part.interrupted
    enc_b, state_b, _, _ = load_checkpoint(part.final_checkpoint)
    resumed = pretrain(
        pool, enc_b, AugmentConfig(), NtXentConfig(), opt,
        epochs=3, batch_size=8, seed=56, state=state_b,
    )
    assert part.rows + resumed.rows == ref.rows
    for (k, a), (_, b) in zip(enc_ref.parameters().items(), enc_b.parameters().items()):
        assert np.array_equal(a.data, b.data), k
    report(
        "determinism & resume",
        f"replayed trace bytes identical ({len(first)} bytes); mid-epoch "
        f"resume at step {mid} matches the uninterrupted run bitwise",
    )


# ---------------------------------------------------------------------------
# 9. Ablation degeneracies.
# ---------------------------------------------------------------------------


def test_acceptance_ablation_degeneracies(tmp_path):
    pool = make_synthetic_clusters(2, 16, 64, np.random.default_rng(70))
    cfg_kw = dict(
        input_len=64, patch_size=16, d_model=32, n_heads=4,
        n_layers=2, dropout=0.15,
    )
    opt = OptimConfig(warmup_steps=3)

    def run(norm_mode, n_protos, lam, freeze, out_dir=None):
        cfg = EncoderConfig(norm_mode=norm_mode, n_prototypes=n_protos, **cfg_kw)
        streams = RngStreams.from_seed(71)
        enc = Encoder(cfg, streams.params, streams.protos)
        if freeze:
            enc.set_banks_frozen(True)
        result = pretrain(
            pool, enc, AugmentConfig(), NtXentConfig(lambda_orth=lam), opt,
            epochs=2, batch_size=8, seed=71,
            state=TrainState(streams=streams), out_dir=out_dir,
        )
        return enc, result

    # (a) n=1 proto-gated with frozen bank and lambda=0 is bitwise the
    # plain-LN baseline
    enc_p, res_p = run("proto-gated", 1, 0.0, freeze=True)
    enc_l, res_l = run("plain-LN", 1, 0.0, freeze=False)
    assert res_p.rows == res_l.rows
    shared = set(enc_p.parameters()) & set(enc_l.parameters())
    for name in sorted(shared):
        assert np.array_equal(
            enc_p.parameters()[name].data, enc_l.parameters()[name].data
        ), name

    # (b) lambda=0 is the no-orthogonality ablation: the penalty column is
    # zero, the total equals the contrastive term, and prototypes receive
    # no optimizer updates
    enc_z, res_z = run("proto-gated", 2, 0.0, freeze=False, out_dir=tmp_path)
    for step, lr, nt, orth, tot in res_z.rows:
        assert orth == 0.0 and tot == nt
    _, state_z, _, _ = load_checkpoint(res_z.final_checkpoint)
    assert state_z.moments
    assert not any("prototypes" in k for k in state_z.moments)

    # (c) dataset-indexed mode routes strictly by dataset id
    cfg = EncoderConfig(norm_mode="dataset-indexed", n_prototypes=2, **cfg_kw)
    streams = RngStreams.from_seed(72)
    enc_d = Encoder(cfg, streams.params, streams.protos)
    with no_grad():
        for b in batches(pool, 8):
            enc_d.encode(b.x, "pretrain", train=False, dataset_ids=b.dataset_ids)
            for layer in enc_d.protonorm_layers():
                assert np.array_equal(layer.last_assignments, b.dataset_ids)
    report(
        "ablation degeneracies",
        "n=1 frozen proto-gated == plain-LN bitwise; lambda=0 reduces to "
        "the contrastive loss with untouched prototypes; dataset-indexed "
        "routing follows dataset ids exactly",
    )
