"""Optimizer, schedule, loops: hand-checked updates, determinism, and
mechanism-isolation equivalences."""

import math

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    AugmentConfig,
    ConfigError,
    Encoder,
    EncoderConfig,
    InputError,
    Metrics,
    NtXentConfig,
    OptimConfig,
    RngStreams,
    ShapeError,
    Tensor,
    TrainState,
    TrainingDiverged,
    adamw_step,
    cosine_warmup_lr,
    cross_entropy,
    evaluate,
    finetune,
    load_checkpoint,
    make_synthetic_clusters,
    orthogonality_loss,
    pretrain,
    stratified_subset,
    train_val_split,
)


# -- schedule -----------------------------------------------------------


def sched(total=100, warmup=10, peak=1e-3, floor=0.0):
    return OptimConfig(lr_peak=peak, warmup_steps=warmup, total_steps=total, lr_floor=floor)


def test_schedule_warmup_endpoint_exact():
    cfg = sched()
    assert cosine_warmup_lr(10, cfg) == cfg.lr_peak


def test_schedule_final_step_hits_floor_exactly():
    cfg = sched(floor=0.0)
    assert cosine_warmup_lr(100, cfg) == 0.0
    cfg2 = sched(floor=1e-5)
    assert cosine_warmup_lr(100, cfg2) == 1e-5


def test_schedule_midpoint():
    cfg = sched(total=110, warmup=10, peak=2e-3, floor=4e-4)
    mid = cosine_warmup_lr(60, cfg)  # warmup + half the remaining span
    assert abs(mid - (2e-3 + 4e-4) / 2) < 1e-15


def test_schedule_ramp_is_linear():
    cfg = sched()
    assert cosine_warmup_lr(0, cfg) == 0.0
    assert abs(cosine_warmup_lr(5, cfg) - cfg.lr_peak / 2) < 1e-18


def test_schedule_rejects_warmup_beyond_total():
    with pytest.raises(ConfigError):
        OptimConfig(warmup_steps=200, total_steps=100)


# -- AdamW ----------------------------------------------------------------


def test_adamw_moves_against_constant_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    cfg = OptimConfig(weight_decay=0.0, warmup_steps=0, total_steps=1)
    state = TrainState(streams=RngStreams.from_seed(0))
    values = [p.data[0]]
    for _ in range(50):
        p.grad = np.array([2.5])  # constant positive gradient
        adamw_step({"p": p}, state, 1e-2, cfg)
        values.append(p.data[0])
    diffs = np.diff(values)
    assert np.all(diffs < 0)  # monotone in the -sign(g) direction


def test_adamw_pure_decay_with_zero_gradient():
    p = Tensor(np.array([4.0]), requires_grad=True)
    cfg = OptimConfig(weight_decay=0.1, warmup_steps=0, total_steps=1)
    state = TrainState(streams=RngStreams.from_seed(0))
    lr = 1e-2
    for t in range(1, 11):
        p.grad = np.array([0.0])
        adamw_step({"p": p}, state, lr, cfg)
        assert abs(p.data[0] - 4.0 * (1 - lr * 0.1) ** t) < 1e-15


def test_adamw_skips_parameters_without_gradient():
    p = Tensor(np.array([4.0]), requires_grad=True)
    cfg = OptimConfig(weight_decay=0.5, warmup_steps=0, total_steps=1)
    state = TrainState(streams=RngStreams.from_seed(0))
    p.grad = None
    adamw_step({"p": p}, state, 1e-2, cfg)
    assert p.data[0] == 4.0  # no decay without a gradient


def test_adamw_single_step_hand_formula():
    g = 0.37
    lr = 1e-3
    wd = 1e-5
    cfg = OptimConfig(weight_decay=wd, warmup_steps=0, total_steps=1)
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([g])
    state = TrainState(streams=RngStreams.from_seed(0))
    adamw_step({"p": p}, state, lr, cfg)
    b1, b2 = cfg.betas
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expected = 2.0 * (1 - lr * wd) - lr * mhat / (math.sqrt(vhat) + cfg.eps)
    assert abs(p.data[0] - expected) < 1e-12


def test_adamw_aborts_on_nan_gradient_naming_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    state = TrainState(streams=RngStreams.from_seed(0))
    cfg = OptimConfig(warmup_steps=0, total_steps=1)
    with pytest.raises(TrainingDiverged, match="'weird.w'"):
        adamw_step({"weird.w": p}, state, 1e-3, cfg)


# -- cross entropy and metrics ---------------------------------------------


def test_cross_entropy_value_and_gradient():
    rng = np.random.default_rng(0)
    logits0 = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    logits = Tensor(logits0.copy(), requires_grad=True)
    loss = cross_entropy(logits, labels)
    # reference value
    ref = 0.0
    for i, l in enumerate(labels):
        row = logits0[i]
        ref += math.log(np.exp(row).sum()) - row[l]
    ref /= 4
    assert abs(loss.item() - ref) < 1e-12
    loss.backward()

    def f(arr):
        out = 0.0
        for i, l in enumerate(labels):
            out += math.log(np.exp(arr[i]).sum()) - arr[i, l]
        return out / 4

    assert rel_error(logits.grad, numerical_gradient(f, logits0.copy())) < 1e-6


def test_metrics_perfect_case():
    m = Metrics.from_predictions([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert m.accuracy == 1.0 and m.macro_f1 == 1.0


def test_metrics_binary_hand_case():
    # labels [0, 1], predictions [0, 0]: class 0 has TP=1, FP=1, FN=0
    m = Metrics.from_predictions([0, 1], [0, 0], 2)
    assert abs(m.per_class_f1[0] - 2.0 / 3.0) < 1e-15
    assert m.per_class_f1[1] == 0.0
    assert abs(m.macro_f1 - 1.0 / 3.0) < 1e-15
    assert m.accuracy == 0.5


def test_metrics_confusion_row_sums_are_support():
    y = np.array([0, 0, 1, 2, 2, 2])
    p = np.array([0, 1, 1, 2, 0, 2])
    m = Metrics.from_predictions(y, p, 3)
    assert m.confusion.sum(axis=1).tolist() == [2, 1, 3]
    assert m.accuracy == np.trace(m.confusion) / 6


def test_metrics_zero_support_class_contributes_zero():
    m = Metrics.from_predictions([0, 0], [0, 0], 3)
    assert m.per_class_f1.tolist() == [1.0, 0.0, 0.0]
    assert abs(m.macro_f1 - 1.0 / 3.0) < 1e-15


# -- subset sampling ----------------------------------------------------------


def _labeled_dataset(n=60, n_classes=3, seed=0):
    ds = make_synthetic_clusters(1, n, 16, np.random.default_rng(seed))[0]
    ds.labels = np.arange(n) % n_classes
    return ds


def test_stratified_subset_keeps_floor_per_class():
    ds = _labeled_dataset()
    sub = stratified_subset(ds, 20, np.random.default_rng(1), min_per_class=5)
    assert len(sub) == 20
    counts = np.bincount(sub.labels, minlength=3)
    assert np.all(counts >= 5)


def test_stratified_subset_all_passthrough():
    ds = _labeled_dataset()
    assert stratified_subset(ds, "all", np.random.default_rng(1)) is ds


def test_stratified_subset_rejects_impossible_budget():
    ds = _labeled_dataset()
    with pytest.raises(ConfigError):
        stratified_subset(ds, 10, np.random.default_rng(1), min_per_class=5)


def test_stratified_subset_rejects_thin_class():
    ds = _labeled_dataset(n=20, n_classes=2)
    ds.labels = np.array([0] * 16 + [1] * 4)  # class 1 below the floor
    with pytest.raises(InputError, match="class 1"):
        stratified_subset(ds, 15, np.random.default_rng(1), min_per_class=5)


# -- loops ----------------------------------------------------------------


def desk_encoder(seed=0, **kw):
    base = dict(
        input_len=32,
        channels=1,
        patch_size=8,
        d_model=16,
        n_heads=2,
        n_layers=2,
        n_prototypes=2,
        dropout=0.1,
    )
    base.update(kw)
    cfg = EncoderConfig(**base)
    streams = RngStreams.from_seed(seed)
    return cfg, Encoder(cfg, streams.params, streams.protos), streams


def tiny_pool(seed=0, n=24, length=32):
    return make_synthetic_clusters(2, n, length, np.random.default_rng(seed))


def run_pretrain(encoder, streams, pool, seed=0, epochs=2, lam=0.001, batch=8, **kw):
    return pretrain(
        pool,
        encoder,
        AugmentConfig(),
        NtXentConfig(lambda_orth=lam),
        OptimConfig(warmup_steps=5),
        epochs=epochs,
        batch_size=batch,
        seed=seed,
        state=TrainState(streams=streams),
        **kw,
    )


def test_pretrain_smoke_runs_and_logs():
    cfg, enc, streams = desk_encoder()
    result = run_pretrain(enc, streams, tiny_pool())
    assert len(result.rows) == 2 * math.ceil(48 / 8)
    steps = [r[0] for r in result.rows]
    assert steps == list(range(1, len(steps) + 1))
    assert all(math.isfinite(r[4]) for r in result.rows)
    counts = result.assignment_histograms["layer0"]
    assert sum(counts) == 2 * 48 * 2  # two views per sample per epoch


def test_pretrain_histograms_count_its_training_steps_alone():
    cfg, enc, streams = desk_encoder(seed=12)
    result = run_pretrain(enc, streams, tiny_pool(), seed=12, val_pool=tiny_pool(seed=1, n=8))
    histograms = result.assignment_histograms
    assert list(histograms) == [f"layer{i}" for i in range(2 * cfg.n_layers)]
    for counts in histograms.values():
        assert len(counts) == cfg.n_prototypes
        assert sum(counts) == 2 * 48 * 2  # both views, two epochs, no validation pass


def test_resumed_histograms_add_up_to_the_uninterrupted_run(tmp_path):
    pool = tiny_pool()
    _, enc, streams = desk_encoder(seed=13)
    whole = run_pretrain(enc, streams, pool, seed=13).assignment_histograms
    _, enc, streams = desk_encoder(seed=13)
    first = run_pretrain(enc, streams, pool, seed=13, stop_after_steps=7, out_dir=tmp_path)
    enc, state, _, _ = load_checkpoint(first.final_checkpoint)
    rest = pretrain(
        pool, enc, AugmentConfig(), NtXentConfig(lambda_orth=0.001), OptimConfig(warmup_steps=5),
        epochs=2, batch_size=8, seed=13, state=state,
    )
    assert len(first.rows) == 7 and len(rest.rows) == 5
    for key, counts in whole.items():
        resumed = [a + b for a, b in zip(first.assignment_histograms[key],
                                         rest.assignment_histograms[key])]
        assert resumed == counts, key


def test_dataset_indexed_pretraining_has_no_orthogonality_term():
    _, enc, streams = desk_encoder(seed=14, norm_mode="dataset-indexed")
    result = run_pretrain(enc, streams, tiny_pool(), seed=14, lam=0.01)
    for _, _, nt, orth, total in result.rows:
        assert orth == 0.0 and total == nt
    for counts in result.assignment_histograms.values():
        assert counts == [2 * 24 * 2, 2 * 24 * 2]  # routed by dataset id


def test_pretrain_determinism_bitwise():
    pool = tiny_pool()
    _, enc1, s1 = desk_encoder(seed=7)
    r1 = run_pretrain(enc1, s1, pool, seed=7)
    _, enc2, s2 = desk_encoder(seed=7)
    r2 = run_pretrain(enc2, s2, pool, seed=7)
    assert r1.rows == r2.rows  # float-exact equality
    for (k, a), (_, b) in zip(enc1.parameters().items(), enc2.parameters().items()):
        assert np.array_equal(a.data, b.data), k


def test_pretrain_mechanism_off_equals_plain_ln():
    """lambda=0, frozen singleton banks, n=1: bit-identical trace to the
    plain-LN baseline under the same seed."""
    pool = tiny_pool()
    _, enc_p, s_p = desk_encoder(seed=3, n_prototypes=1, dropout=0.15)
    enc_p.set_banks_frozen(True)
    r_p = run_pretrain(enc_p, s_p, pool, seed=3, lam=0.0)

    _, enc_l, s_l = desk_encoder(seed=3, norm_mode="plain-LN", dropout=0.15)
    r_l = run_pretrain(enc_l, s_l, pool, seed=3, lam=0.0)

    assert r_p.rows == r_l.rows
    shared = set(enc_p.parameters()) & set(enc_l.parameters())
    assert shared  # gamma/beta/attention/ffn names coincide
    for name in shared:
        assert np.array_equal(
            enc_p.parameters()[name].data, enc_l.parameters()[name].data
        ), name


def _graph_nodes(loss):
    """Recorded nodes (tensors holding a backward closure) reachable from
    ``loss``, counted before backward consumes them."""
    seen, stack, nodes = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._ctx is None:
            continue
        nodes += 1
        stack.extend(t._ctx.parents)
    return nodes


def test_pretrain_step_graph_size_independent_of_prototype_count():
    """Exactly one affine pair is applied per sample, so a desk-scale
    pretraining step records the same graph at every bank size."""
    from protonorm import batches
    from protonorm.training import pretrain_losses

    batch = next(batches(make_synthetic_clusters(2, 4, 128, np.random.default_rng(0)), 8))
    counts = {}
    for n in (1, 4, 32):
        streams = RngStreams.from_seed(0)
        enc = Encoder(EncoderConfig(n_prototypes=n), streams.params, streams.protos)
        _, _, loss = pretrain_losses(
            enc, batch, AugmentConfig(), NtXentConfig(), streams.augment, streams.dropout
        )
        counts[n] = _graph_nodes(loss)
    assert counts[1] == counts[4] == counts[32], counts


def test_pretrain_orth_penalty_descends_without_ema():
    cfg, enc, streams = desk_encoder(seed=5, n_prototypes=4, d_model=16, dropout=0.0)
    scramble = np.random.default_rng(9)
    for bank in enc.banks():
        bank.P.data = scramble.normal(size=bank.P.shape) / math.sqrt(bank.dim)
    enc.apply_ema_updates = lambda: None  # prototypes move by gradient alone
    pool = tiny_pool(n=60)
    result = run_pretrain(enc, streams, pool, seed=5, epochs=7, lam=0.01, batch=8)
    orth = [r[3] for r in result.rows[:100]]
    assert len(orth) >= 100
    assert all(a > b for a, b in zip(orth, orth[1:]))


def test_pretrain_frozen_banks_take_no_gradient():
    """Banks frozen from the start stay out of the gradient altogether,
    orthogonality penalty included, and do not move."""
    cfg, enc, streams = desk_encoder(seed=8, n_prototypes=4, d_model=16)
    scramble = np.random.default_rng(10)
    for bank in enc.banks():
        bank.P.data = scramble.normal(size=bank.P.shape)  # penalty well above 0
    enc.set_banks_frozen(True)
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    result = run_pretrain(enc, streams, tiny_pool(), seed=8, lam=0.01, stop_after_steps=1)
    assert len(result.rows) == 1 and result.rows[0][3] > 1.0
    params = enc.parameters()
    protos = [k for k in params if k.endswith(".prototypes")]
    assert len(protos) == 2 * cfg.n_layers
    for k in protos:
        assert params[k].grad is None, k
        assert np.array_equal(params[k].data, before[k]), k
    assert params["block0.norm1.gamma"].grad is not None
    assert not any(k.endswith(".prototypes") for k in result.state.moments)


def test_validation_loss_leaves_out_the_orthogonality_penalty():
    """``best.ckpt`` is ranked by validation NT-Xent alone: on one encoder
    whose penalty is far from zero, the validation loss at lambda=0.01
    equals the loss at lambda=0."""
    from protonorm.training import _validation_loss

    cfg, enc, streams = desk_encoder(seed=12, n_prototypes=4)
    scramble = np.random.default_rng(13)
    for bank in enc.banks():
        bank.P.data = scramble.normal(size=bank.P.shape)
    assert sum(orthogonality_loss(b.P).item() for b in enc.banks()) > 1.0
    val = tiny_pool(seed=14, n=8)
    losses = [
        _validation_loss(enc, val, AugmentConfig(), NtXentConfig(lambda_orth=lam), 12, 0, 8)
        for lam in (0.0, 0.01)
    ]
    assert losses[0] == losses[1]


def test_pretrain_divergence_aborts(tmp_path):
    cfg, enc, streams = desk_encoder(seed=6)
    enc.proj[1].b.data[:] = np.nan  # poisons the loss, not the gating
    with pytest.raises(TrainingDiverged, match="non-finite"):
        run_pretrain(enc, streams, tiny_pool(), seed=6)


def test_pretrain_rejects_a_pool_of_mixed_lengths():
    _, enc, streams = desk_encoder()
    short = tiny_pool()[0]
    long = tiny_pool(length=48)[1]
    long.name = "long48"
    with pytest.raises(ShapeError, match="long48"):
        run_pretrain(enc, streams, [short, long])


def test_pretrain_two_cluster_gating_purity():
    pool = make_synthetic_clusters(
        2, 40, 32, np.random.default_rng(20), offsets=[-5.0, 5.0]
    )
    cfg, enc, streams = desk_encoder(seed=21, n_prototypes=4, dropout=0.0)
    run_pretrain(enc, streams, pool, seed=21, epochs=3)
    # audit: full eval pass, brute-force distance recomputation per sample
    from protonorm import batches

    per_layer_hits = None
    total = 0
    for b in batches(pool, 16):
        enc.encode(b.x, "pretrain", train=False, dataset_ids=b.dataset_ids)
        layers = enc.protonorm_layers()
        if per_layer_hits is None:
            per_layer_hits = [dict() for _ in layers]
        for li, layer in enumerate(layers):
            feats = layer.last_features
            assigns = layer.last_assignments
            for i in range(len(b)):
                d2 = ((layer.bank.P.data - feats[i]) ** 2).sum(axis=1)
                assert assigns[i] == int(np.argmin(d2))
                key = int(assigns[i])
                hits = per_layer_hits[li].setdefault(key, [0, 0])
                hits[int(b.dataset_ids[i])] += 1
        total += len(b)
    for li, proto_hits in enumerate(per_layer_hits):
        majority = sum(max(v) for v in proto_hits.values())
        purity = majority / total
        assert purity >= 0.95, f"layer {li} purity {purity:.3f}"


# -- fine-tuning ----------------------------------------------------------


def separable_task(seed=30):
    """Two classes separated by a large constant level: trivially
    learnable, the fine-tune sanity ceiling."""
    rng = np.random.default_rng(seed)
    n = 80
    series = []
    labels = np.arange(n) % 2
    for lab in labels:
        level = -3.0 if lab == 0 else 3.0
        series.append((level + rng.normal(0.0, 0.3, 32))[None, :])
    from protonorm.data import Dataset

    ds = Dataset("separable", series, labels)
    rest, test = train_val_split(ds, 0.25, np.random.default_rng(seed + 1))
    train, val = train_val_split(rest, 0.2, np.random.default_rng(seed + 2))
    import dataclasses

    return train, val, dataclasses.replace(test, split="test")


def test_finetune_freezes_prototypes_and_learns_separable_task():
    cfg, enc, streams = desk_encoder(seed=31, dropout=0.0)
    splits = separable_task()
    run_pretrain(enc, streams, [splits[0]], seed=31, epochs=2)
    protos_before = [b.P.data.copy() for b in enc.banks()]
    result = finetune(
        splits,
        enc,
        OptimConfig(warmup_steps=5),
        epochs=30,
        batch_size=16,
        n_labeled="all",
        seed=31,
    )
    for bank, before in zip(result.encoder.banks(), protos_before):
        assert np.array_equal(bank.P.data, before)
        assert bank.frozen
    assert result.encoder.proj is None
    assert result.metrics.accuracy == 1.0


def test_evaluate_batch_size_invariance():
    cfg, enc, streams = desk_encoder(seed=32, dropout=0.0)
    splits = separable_task(seed=33)
    result = finetune(
        splits,
        enc,
        OptimConfig(warmup_steps=2),
        epochs=2,
        batch_size=16,
        n_labeled="all",
        seed=32,
    )
    m1 = evaluate(result.encoder, splits[2], batch_size=1)
    m64 = evaluate(result.encoder, splits[2], batch_size=64)
    assert m1.accuracy == m64.accuracy
    assert m1.macro_f1 == m64.macro_f1
    assert np.array_equal(m1.confusion, m64.confusion)


def test_evaluate_rejects_empty_and_mismatched():
    cfg, enc, streams = desk_encoder(seed=34)
    splits = separable_task(seed=35)
    result = finetune(
        splits, enc, OptimConfig(warmup_steps=2),
        epochs=1, batch_size=16, n_labeled="all", seed=34,
    )
    from protonorm.data import Dataset

    with pytest.raises(InputError):
        evaluate(result.encoder, Dataset("e", [], np.array([], dtype=np.int64)))
    bad = splits[2]
    bad = Dataset(bad.name, bad.series, bad.labels + 5, bad.dataset_id, "test")
    with pytest.raises(InputError):
        evaluate(result.encoder, bad)
