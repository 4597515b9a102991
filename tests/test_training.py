"""Optimizer, schedule, loops: hand-checked updates, determinism, and
mechanism-isolation equivalences."""

import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    AugmentConfig,
    ConfigError,
    ContractError,
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
from protonorm.data import batches, flatten_pool
from protonorm.training import ADAMW_CHUNK


# -- schedule -----------------------------------------------------------


def sched(warmup=10, peak=1e-3, floor=0.0):
    return OptimConfig(lr_peak=peak, warmup_steps=warmup, lr_floor=floor)


def test_schedule_warmup_endpoint_exact():
    cfg = sched()
    assert cosine_warmup_lr(10, cfg, 100) == cfg.lr_peak


def test_schedule_final_step_hits_floor_exactly():
    cfg = sched(floor=0.0)
    assert cosine_warmup_lr(100, cfg, 100) == 0.0
    cfg2 = sched(floor=1e-5)
    assert cosine_warmup_lr(100, cfg2, 100) == 1e-5


def test_schedule_midpoint():
    cfg = sched(warmup=10, peak=2e-3, floor=4e-4)
    mid = cosine_warmup_lr(60, cfg, 110)  # warmup + half the remaining span
    assert abs(mid - (2e-3 + 4e-4) / 2) < 1e-15


def test_schedule_ramp_is_linear():
    cfg = sched()
    assert cosine_warmup_lr(0, cfg, 100) == 0.0
    assert abs(cosine_warmup_lr(5, cfg, 100) - cfg.lr_peak / 2) < 1e-18


def test_schedule_rejects_warmup_beyond_total(tmp_path):
    """The run works out its step count (here 1 epoch of 48 samples in
    batches of 8: 6 steps), and both loops refuse a longer warmup before
    any step, checkpoint or change to the encoder."""
    cfg, enc, streams = desk_encoder()
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    message = "^warmup_steps 7 exceeds total_steps 6; override warmup for short runs$"
    with pytest.raises(ConfigError, match=message):
        pretrain(
            tiny_pool(), enc, AugmentConfig(), NtXentConfig(), OptimConfig(warmup_steps=7),
            epochs=1, batch_size=8, seed=0, state=TrainState(streams=streams),
            out_dir=str(tmp_path),
        )
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError, match=message):  # 48 training series too
        finetune(
            separable_task(), enc, OptimConfig(warmup_steps=7),
            epochs=1, batch_size=8, n_labeled="all", seed=0,
        )
    after = enc.parameters()
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[k].data, v) for k, v in before.items())


# -- AdamW ----------------------------------------------------------------


def test_adamw_moves_against_constant_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    cfg = OptimConfig(weight_decay=0.0, warmup_steps=0)
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
    cfg = OptimConfig(weight_decay=0.1, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    lr = 1e-2
    for t in range(1, 11):
        p.grad = np.array([0.0])
        adamw_step({"p": p}, state, lr, cfg)
        assert abs(p.data[0] - 4.0 * (1 - lr * 0.1) ** t) < 1e-15


def test_adamw_skips_parameters_without_gradient():
    p = Tensor(np.array([4.0]), requires_grad=True)
    cfg = OptimConfig(weight_decay=0.5, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    p.grad = None
    adamw_step({"p": p}, state, 1e-2, cfg)
    assert p.data[0] == 4.0  # no decay without a gradient


def test_adamw_single_step_hand_formula():
    g = 0.37
    lr = 1e-3
    wd = 1e-5
    cfg = OptimConfig(weight_decay=wd, warmup_steps=0)
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
    cfg = OptimConfig(warmup_steps=0)
    with pytest.raises(TrainingDiverged, match="'weird.w'"):
        adamw_step({"weird.w": p}, state, 1e-3, cfg)


def test_adamw_nan_gradient_leaves_everything_untouched():
    """A non-finite gradient in the second of three parameters raises
    before the first is stepped: parameters, moments and the step count
    keep their bits."""
    rng = np.random.default_rng(4)
    params = {n: Tensor(rng.normal(size=(3, 2)), requires_grad=True) for n in "abc"}
    cfg = OptimConfig(weight_decay=0.1, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    adamw_step(params, state, 1e-2, cfg)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    params["b"].grad[1, 0] = np.inf
    data = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [m.copy(), v.copy()] for n, (m, v) in state.moments.items()}
    with pytest.raises(TrainingDiverged, match="'b'"):
        adamw_step(params, state, 1e-2, cfg)
    assert state.step == 1
    for n, p in params.items():
        assert np.array_equal(p.data, data[n])
        assert all(np.array_equal(a, b) for a, b in zip(state.moments[n], moments[n]))


def _out_of_place_adamw(ref, moments, params, lr, t, cfg):
    """The folded AdamW step on copies: `ref` and `moments` (name ->
    [m, v]) are advanced for every parameter of `params` with a grad, in
    the operation order `adamw_step` runs, with the bias corrections
    folded into alpha and eps_hat (Kingma & Ba, 2015, section 2)."""
    b1, b2 = cfg.betas
    c1 = 1.0 - b1**t
    root_c2 = math.sqrt(1.0 - b2**t)
    alpha, eps_hat = lr * root_c2 / c1, cfg.eps * root_c2
    for n, p in params.items():
        if p.grad is None:
            continue
        m, v = moments[n]
        m = b1 * m + (1.0 - b1) * p.grad
        v = b2 * v + (1.0 - b2) * (p.grad * p.grad)
        moments[n] = [m, v]
        if cfg.weight_decay:
            ref[n] = ref[n] * (1.0 - lr * cfg.weight_decay)
        ref[n] = ref[n] - alpha * (m / (np.sqrt(v) + eps_hat))


def _assert_adamw_matches(params, state, ref, moments):
    for n, p in params.items():
        assert np.array_equal(p.data, ref[n]), n
        if n in moments:
            assert all(np.array_equal(a, b) for a, b in zip(state.moments[n], moments[n])), n


@pytest.mark.parametrize("wd", [0.0, 0.05])
def test_adamw_in_place_update_equals_the_out_of_place_formula(wd):
    """Several steps over parameters of several shapes (one without a
    gradient) give the bits of the textbook out-of-place update."""
    rng = np.random.default_rng(5)
    shapes = {"w": (4, 6), "b": (6,), "gamma": (2, 3, 5), "frozen": (3,)}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    ref = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [0.0, 0.0] for n in shapes if n != "frozen"}
    cfg = OptimConfig(weight_decay=wd, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for t in range(1, 5):
        lr = 1e-2 / t
        for n, p in params.items():
            p.grad = None if n == "frozen" else rng.normal(size=p.shape)
        adamw_step(params, state, lr, cfg)
        _out_of_place_adamw(ref, moments, params, lr, t, cfg)
    assert state.step == 4 and "frozen" not in state.moments
    _assert_adamw_matches(params, state, ref, moments)


@pytest.mark.parametrize("wd", [0.0, 0.05])
def test_adamw_blocks_equal_the_out_of_place_formula(wd):
    """Parameters of several blocks, whose size is not a multiple of the
    block, step to the bits of the whole-array formula."""
    rng = np.random.default_rng(6)
    shapes = {"big": (300, 300), "ragged": (3, 7001), "one": (1, ADAMW_CHUNK), "small": (5,)}
    assert (300 * 300) % ADAMW_CHUNK and (3 * 7001) % ADAMW_CHUNK and 3 * 7001 > ADAMW_CHUNK
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    ref = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [0.0, 0.0] for n in shapes}
    cfg = OptimConfig(weight_decay=wd, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for t in range(1, 4):
        lr = 1e-2 / t
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        adamw_step(params, state, lr, cfg)
        _out_of_place_adamw(ref, moments, params, lr, t, cfg)
    _assert_adamw_matches(params, state, ref, moments)


def test_adamw_inf_in_the_last_block_leaves_everything_untouched():
    """A non-finite entry in the last block of the second parameter's
    gradient, C-ordered or transposed, raises before the first parameter,
    any moment or the step count changes."""
    for transposed in (False, True):
        rng = np.random.default_rng(7)
        params = {n: Tensor(rng.normal(size=(3, 7001)), requires_grad=True) for n in "ab"}
        cfg = OptimConfig(weight_decay=0.1, warmup_steps=0)
        state = TrainState(streams=RngStreams.from_seed(0))
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        adamw_step(params, state, 1e-2, cfg)
        for p in params.values():
            p.grad = rng.normal(size=(7001, 3)).T if transposed else rng.normal(size=p.shape)
        params["b"].grad[2, -1] = np.inf
        assert params["b"].grad.flags.c_contiguous is not transposed
        assert ADAMW_CHUNK < params["b"].grad.size <= 2 * ADAMW_CHUNK  # the second, last block
        data = {n: p.data.copy() for n, p in params.items()}
        moments = {n: [m.copy(), v.copy()] for n, (m, v) in state.moments.items()}
        with pytest.raises(TrainingDiverged, match="'b'"):
            adamw_step(params, state, 1e-2, cfg)
        assert state.step == 1
        for n, p in params.items():
            assert np.array_equal(p.data, data[n])
            assert all(np.array_equal(a, b) for a, b in zip(state.moments[n], moments[n]))


def test_adamw_steps_arrays_that_are_not_c_contiguous_in_place():
    """A transposed parameter, or moment, and a Fortran-order gradient are
    stepped in blocks that the iterator buffers where a block cannot view
    the array; the step still lands in the array itself."""
    rng = np.random.default_rng(8)
    params = {
        "wide_t": Tensor(rng.normal(size=(300, 200)).T, requires_grad=True),
        "small_t": Tensor(rng.normal(size=(6, 4)).T, requires_grad=True),
        "fortran_grad": Tensor(rng.normal(size=(150, 250)), requires_grad=True),
    }
    arrays = {n: p.data for n, p in params.items()}
    assert not any(a.flags.c_contiguous for n, a in arrays.items() if n != "fortran_grad")
    ref = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [0.0, 0.0] for n in params}
    cfg = OptimConfig(weight_decay=0.05, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for t in range(1, 4):
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        params["fortran_grad"].grad = np.asfortranarray(params["fortran_grad"].grad)
        assert not params["fortran_grad"].grad.flags.c_contiguous
        adamw_step(params, state, 1e-2, cfg)
        _out_of_place_adamw(ref, moments, params, 1e-2, t, cfg)
        if t == 1:
            state.moments = {
                n: [np.asfortranarray(a) for a in mv] for n, mv in state.moments.items()
            }
    _assert_adamw_matches(params, state, ref, moments)
    assert all(params[n].data is a for n, a in arrays.items())
    assert not state.moments["wide_t"][0].flags.c_contiguous


@pytest.mark.parametrize("t", [1, 2, 10, 1000])
def test_adamw_step_is_within_8_ulp_of_the_textbook_step(t):
    """From equal states, the moments keep the textbook bits, and the step
    lr*(m/c1) / (sqrt(v/c2) + eps) is taken within 8 ulp of its own size.
    Each parameter starts at zero, so its new value is minus the step,
    exactly; v spans sqrt(v) far below and far above eps."""
    rng = np.random.default_rng(10)
    n = 3 * ADAMW_CHUNK + 11
    cfg = OptimConfig(weight_decay=0.05, warmup_steps=0)
    b1, b2 = cfg.betas
    g = rng.normal(size=n) * np.exp(rng.uniform(-20.0, 5.0, size=n))
    m0 = rng.normal(size=n) * np.exp(rng.uniform(-20.0, 5.0, size=n))
    v0 = np.exp(rng.uniform(-60.0, 10.0, size=n))
    p = Tensor(np.zeros(n), requires_grad=True)
    p.grad = g
    state = TrainState(streams=RngStreams.from_seed(0), step=t - 1)
    state.moments = {"p": [m0.copy(), v0.copy()]}
    lr = 3e-4
    adamw_step({"p": p}, state, lr, cfg)
    m = b1 * m0 + (1.0 - b1) * g
    v = b2 * v0 + (1.0 - b2) * (g * g)
    assert np.array_equal(state.moments["p"][0], m)
    assert np.array_equal(state.moments["p"][1], v)
    step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + cfg.eps)
    assert np.all(step != 0.0)
    ulps = np.abs(-p.data - step) / np.spacing(np.abs(step))
    assert ulps.max() <= 8.0, ulps.max()


@pytest.mark.parametrize("case", ["overflowing norm", "nan in a Fortran-order gradient"])
def test_adamw_squared_norm_check_leaves_everything_untouched(case):
    """A gradient whose squared norm is not finite raises naming its
    parameter before any parameter, moment or the step count changes:
    a finite entry of 1e200 overflows g . g, and a NaN in a Fortran-order
    gradient is caught through its flattened copy."""
    rng = np.random.default_rng(11)
    params = {n: Tensor(rng.normal(size=(40, 30)), requires_grad=True) for n in "abc"}
    cfg = OptimConfig(weight_decay=0.1, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    adamw_step(params, state, 1e-2, cfg)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    if case == "overflowing norm":
        params["b"].grad[17, 3] = 1e200
        assert np.isfinite(params["b"].grad).all()
    else:
        params["b"].grad = np.asfortranarray(params["b"].grad)
        params["b"].grad[17, 3] = np.nan
        assert not params["b"].grad.flags.c_contiguous
    data = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [m.copy(), v.copy()] for n, (m, v) in state.moments.items()}
    with pytest.raises(TrainingDiverged, match="non-finite gradient in parameter 'b'"):
        adamw_step(params, state, 1e-2, cfg)
    assert state.step == 1
    for n, p in params.items():
        assert np.array_equal(p.data, data[n])
        assert all(np.array_equal(a, b) for a, b in zip(state.moments[n], moments[n]))


@pytest.mark.parametrize("where", ["grad", "same-size grad", "m", "v"])
def test_adamw_shape_mismatch_raises_before_anything_changes(where):
    rng = np.random.default_rng(9)
    params = {n: Tensor(rng.normal(size=(2, 3)), requires_grad=True) for n in ("a", "odd")}
    cfg = OptimConfig(weight_decay=0.1, warmup_steps=0)
    state = TrainState(streams=RngStreams.from_seed(0))
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    adamw_step(params, state, 1e-2, cfg)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    odd = params["odd"]
    if where == "grad":
        odd.grad = rng.normal(size=(3,))
    elif where == "same-size grad":
        odd.grad = rng.normal(size=(3, 2))
    else:
        state.moments["odd"]["mv".index(where)] = np.zeros((3, 2))
    data = {n: p.data.copy() for n, p in params.items()}
    moments = {n: [m.copy(), v.copy()] for n, (m, v) in state.moments.items()}
    with pytest.raises(ShapeError, match=r"'odd' has shape \(2, 3\)"):
        adamw_step(params, state, 1e-2, cfg)
    assert state.step == 1
    for n, p in params.items():
        assert np.array_equal(p.data, data[n])
        assert all(np.array_equal(a, b) for a, b in zip(state.moments[n], moments[n]))


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


def test_labels_outside_the_classes_are_rejected():
    with pytest.raises(InputError, match=r"label -1 is outside \[0, 2\)"):
        Metrics.from_predictions([0, 1, -1], [0, 1, 1], 2)
    with pytest.raises(InputError, match=r"label 2 is outside \[0, 2\)"):
        Metrics.from_predictions([0, 2], [0, 1], 2)
    with pytest.raises(InputError, match=r"prediction 3 is outside \[0, 3\)"):
        Metrics.from_predictions([0, 1], [0, 3], 3)
    logits = Tensor(np.zeros((3, 2)), requires_grad=True)
    for bad in (-1, 2):
        with pytest.raises(InputError, match=rf"label {bad} is outside \[0, 2\)"):
            cross_entropy(logits, np.array([0, bad, 1]))


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


def test_loops_reject_batch_size_below_one(tmp_path):
    cfg, enc, streams = desk_encoder()
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    with pytest.raises(ConfigError, match="batch_size must be >= 1"):
        run_pretrain(enc, streams, tiny_pool(), batch=0, out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="batch_size must be >= 1"):
        finetune(
            separable_task(), enc, OptimConfig(warmup_steps=2),
            epochs=1, batch_size=0, n_labeled="all", seed=0,
        )
    assert list(tmp_path.iterdir()) == []
    after = enc.parameters()
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[k].data, v) for k, v in before.items())


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


def test_resume_on_a_pool_of_another_size_rejected():
    _, enc, streams = desk_encoder(seed=13)
    first = run_pretrain(enc, streams, tiny_pool(n=8), seed=13, batch=4, stop_after_steps=1)
    with pytest.raises(InputError, match="orders 16 samples but the pool holds 48"):
        pretrain(
            tiny_pool(), first.encoder, AugmentConfig(), NtXentConfig(),
            OptimConfig(warmup_steps=5),
            epochs=2, batch_size=4, seed=13, state=first.state,
        )


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


def test_pretrain_graph_holds_only_what_backward_reads():
    """The graph of one desk pretraining loss (B=32, n=32, both views)
    holds at most 16 MiB before backward; a tape that kept every op output
    alive held 25.9 MiB."""
    from protonorm import batches
    from protonorm.training import pretrain_losses

    batch = next(batches(make_synthetic_clusters(4, 8, 128, np.random.default_rng(0)), 32))
    streams = RngStreams.from_seed(0)
    enc = Encoder(EncoderConfig(n_prototypes=32), streams.params, streams.protos)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, _, loss = pretrain_losses(
            enc, batch, AugmentConfig(), NtXentConfig(), streams.augment, streams.dropout
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(batch) == 32 and loss._ctx is not None
    assert held <= 16 * 2**20, f"{held / 2**20:.1f} MiB"


def test_pretrain_orth_penalty_descends_without_ema():
    cfg, enc, streams = desk_encoder(seed=5, n_prototypes=4, d_model=16, dropout=0.0)
    scramble = np.random.default_rng(9)
    for bank in enc.banks():
        bank.P.data = scramble.normal(size=bank.P.shape) / math.sqrt(bank.P.shape[1])
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


def test_completed_pretrain_hands_its_optimizer_state_to_final_ckpt(tmp_path):
    """A completed run keeps no moments and no gradients in memory, and
    its final.ckpt holds an m and a v for every parameter it stepped:
    with frozen banks, every parameter but the prototypes."""
    cfg, enc, streams = desk_encoder(seed=15)
    enc.set_banks_frozen(True)
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    result = run_pretrain(enc, streams, tiny_pool(), seed=15, out_dir=str(tmp_path))
    params = enc.parameters()
    assert not result.interrupted and result.state.step == 12
    assert result.state.moments == {}
    assert all(p.grad is None for p in params.values())
    stepped = {k for k, p in params.items() if not np.array_equal(p.data, before[k])}
    assert stepped == {k for k in params if not k.endswith(".prototypes")}
    _, state, _, _ = load_checkpoint(result.final_checkpoint)
    assert state.step == 12 and set(state.moments) == stepped
    for k in stepped:
        m, v = state.moments[k]
        assert m.shape == v.shape == params[k].shape, k
        assert v.any(), k


def test_completed_pretrain_links_final_ckpt_to_its_last_ckpt(tmp_path):
    """A completed run writes its last state once: ``final.ckpt`` is a hard
    link to the ``last.ckpt`` it just wrote, and loads. A re-run into the
    same directory links again; a call that runs no epoch saves
    ``final.ckpt`` itself, with the same bytes."""
    for _ in range(2):
        _, enc, streams = desk_encoder(seed=19)
        result = run_pretrain(enc, streams, tiny_pool(), seed=19, out_dir=str(tmp_path))
        final, last = tmp_path / "final.ckpt", tmp_path / "last.ckpt"
        assert result.final_checkpoint == str(final)
        assert os.path.samefile(final, last)
        assert not list(tmp_path.glob("*.tmp"))
        _, state, _, _ = load_checkpoint(final)
        assert state.step == 12 and state.epoch == 2
    enc, state, _, _ = load_checkpoint(final)
    again = tmp_path / "again"
    again.mkdir()
    rest = pretrain(
        tiny_pool(), enc, AugmentConfig(), NtXentConfig(lambda_orth=0.001),
        OptimConfig(warmup_steps=5), epochs=2, batch_size=8, seed=19, state=state,
        out_dir=str(again),
    )
    assert rest.rows == [] and sorted(os.listdir(again)) == ["final.ckpt"]
    assert (again / "final.ckpt").read_bytes() == final.read_bytes()


@pytest.mark.parametrize("val_losses", [(3.0, 2.0), (2.0, 3.0)])
def test_best_ckpt_is_a_link_to_the_last_ckpt_of_its_epoch(tmp_path, monkeypatch, val_losses):
    """An epoch whose validation improves writes its state once and names
    it ``best.ckpt`` and ``last.ckpt``: when the last epoch improves the
    two are one file, and when it does not ``best.ckpt`` keeps the bytes
    the first epoch's ``last.ckpt`` had."""
    from protonorm import training

    scripted = iter(val_losses)
    first_last = []

    def scripted_validation_loss(*args):
        if first_last == [] and (tmp_path / "last.ckpt").exists():
            first_last.append((tmp_path / "last.ckpt").read_bytes())
        return next(scripted)

    monkeypatch.setattr(training, "_validation_loss", scripted_validation_loss)
    _, enc, streams = desk_encoder(seed=21)
    result = run_pretrain(
        enc, streams, tiny_pool(), seed=21, out_dir=str(tmp_path), val_pool=tiny_pool(seed=22)
    )
    best, last = tmp_path / "best.ckpt", tmp_path / "last.ckpt"
    assert result.best_checkpoint == str(best)
    assert not list(tmp_path.glob("*.tmp"))
    _, state, _, _ = load_checkpoint(best)
    if val_losses[1] < val_losses[0]:
        assert os.path.samefile(best, last)
        assert state.epoch == 2 and state.best_val == 2.0
    else:
        assert not os.path.samefile(best, last)
        assert best.read_bytes() == first_last[0]
        assert state.epoch == 1 and state.best_val == 2.0


def test_interrupted_pretrain_keeps_moments_and_gradients():
    _, enc, streams = desk_encoder(seed=16)
    result = run_pretrain(enc, streams, tiny_pool(), seed=16, stop_after_steps=3)
    params = enc.parameters()
    assert result.interrupted and set(result.state.moments) == set(params)
    assert all(p.grad is not None for p in params.values())


def test_completed_pretrain_leaves_less_than_a_parameter_set_allocated():
    """Moments (two parameter sets) and the last gradients (one) held
    after the run returns were 3.6 parameter sets here; now 0.2."""
    _, enc, streams = desk_encoder(seed=17)
    pool = tiny_pool(seed=17)
    param_bytes = sum(p.data.nbytes for p in enc.parameters().values())
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_pretrain(enc, streams, pool, seed=17)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert not result.interrupted and len(result.rows) == 12
    assert held < param_bytes, f"{held} B held against {param_bytes} B of parameters"


def test_pretrain_refuses_to_continue_a_state_without_moments(tmp_path):
    """A completed run's state would restart Adam from zero moments with a
    late-step bias correction; it is refused before any step, and its
    final.ckpt continues."""
    _, enc, streams = desk_encoder(seed=18)
    first = run_pretrain(enc, streams, tiny_pool(), seed=18, epochs=1, out_dir=str(tmp_path))
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    resume = tmp_path / "resume"
    resume.mkdir()
    with pytest.raises(ContractError, match="6 steps .* final.ckpt"):
        pretrain(
            tiny_pool(), enc, AugmentConfig(), NtXentConfig(lambda_orth=0.001),
            OptimConfig(warmup_steps=5),
            epochs=2, batch_size=8, seed=18, state=first.state, out_dir=str(resume),
        )
    assert first.state.step == 6 and list(resume.iterdir()) == []
    assert all(np.array_equal(t.data, before[k]) for k, t in enc.parameters().items())
    enc, state, _, _ = load_checkpoint(first.final_checkpoint)
    rest = pretrain(
        tiny_pool(), enc, AugmentConfig(), NtXentConfig(lambda_orth=0.001),
        OptimConfig(warmup_steps=5), epochs=2, batch_size=8, seed=18, state=state,
    )
    assert [r[0] for r in rest.rows] == list(range(7, 13))


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


def test_pretrain_divergence_aborts(tmp_path, monkeypatch):
    from protonorm import training

    cfg, enc, streams = desk_encoder(seed=6)
    enc.proj[1].b.data[:] = np.nan  # poisons the loss, not the gating
    with pytest.raises(TrainingDiverged, match="non-finite"):
        run_pretrain(enc, streams, tiny_pool(), seed=6)

    # past the first epoch, the message names the last good checkpoint
    cfg, enc, streams = desk_encoder(seed=7)
    calls = []
    real_losses = training.pretrain_losses

    def poisoned_losses(*args, **kwargs):
        nt, orth_terms, loss = real_losses(*args, **kwargs)
        calls.append(1)
        return nt, orth_terms, loss * np.nan if len(calls) == 8 else loss

    monkeypatch.setattr(training, "pretrain_losses", poisoned_losses)
    last = f"{tmp_path}/last.ckpt"
    with pytest.raises(TrainingDiverged) as raised:
        run_pretrain(enc, streams, tiny_pool(), seed=7, out_dir=str(tmp_path))
    assert str(raised.value) == (
        f"pretraining loss became non-finite at step 8; last good checkpoint: {last}"
    )


def test_pretrain_rejects_a_pool_of_mixed_lengths():
    _, enc, streams = desk_encoder()
    short = tiny_pool()[0]
    long = tiny_pool(length=48)[1]
    long.name = "long48"
    with pytest.raises(ShapeError, match="long48"):
        run_pretrain(enc, streams, [short, long])


def test_pretrain_two_cluster_gating_purity():
    pool = make_synthetic_clusters(2, 40, 32, np.random.default_rng(20))
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


def test_finetune_returns_without_gradients():
    cfg, enc, streams = desk_encoder(seed=38)
    result = finetune(
        separable_task(seed=39), enc, OptimConfig(warmup_steps=2),
        epochs=2, batch_size=16, n_labeled="all", seed=38,
    )
    assert len(result.rows) == 6
    assert all(p.grad is None for p in result.encoder.parameters().values())


def test_finetune_restores_a_best_epoch_that_is_not_the_first(monkeypatch):
    """Validation accuracy is scripted so that epochs 0-2 improve and epoch
    3 does not: the restored parameters, and those the test pass sees, are
    the ones epoch 2 validated."""
    from protonorm import training

    cfg, enc, streams = desk_encoder(seed=36)
    splits = separable_task(seed=37)
    accuracies = [0.2, 0.5, 0.9, 0.4]
    scripted = iter(accuracies)
    snapshots = []
    real_evaluate = training.evaluate

    def scripted_evaluate(encoder, ds, batch_size=64):
        metrics = real_evaluate(encoder, ds, batch_size)
        snapshots.append({k: t.data.copy() for k, t in encoder.parameters().items()})
        if ds is splits[1]:
            return dataclasses.replace(metrics, accuracy=next(scripted))
        return metrics

    monkeypatch.setattr(training, "evaluate", scripted_evaluate)
    result = finetune(
        splits, enc, OptimConfig(warmup_steps=2),
        epochs=4, batch_size=16, n_labeled="all", seed=36,
    )
    assert result.best_epoch == 2
    assert [acc for _, acc in result.val_history] == accuracies
    assert len(snapshots) == 5  # four validation passes, then the test pass
    params = result.encoder.parameters()
    for k, t in params.items():
        assert np.array_equal(t.data, snapshots[2][k]), k
        assert np.array_equal(snapshots[4][k], snapshots[2][k]), k
    assert any(not np.array_equal(snapshots[3][k], snapshots[2][k]) for k in params)
    assert all(t.grad is None for t in params.values())


def test_finetune_divergence_names_the_step_and_changes_nothing(monkeypatch):
    """A non-finite fine-tuning loss at step 3 raises before that step
    touches any parameter or moment: they are those step 2 left."""
    from protonorm import training

    cfg, enc, streams = desk_encoder(seed=42)
    calls = []
    snapshots = []
    real_cross_entropy, real_adamw_step = training.cross_entropy, training.adamw_step

    def poisoned_cross_entropy(logits, labels):
        calls.append(1)
        loss = real_cross_entropy(logits, labels)
        return loss * np.nan if len(calls) == 3 else loss

    def recording_adamw_step(params, state, lr, cfg):
        real_adamw_step(params, state, lr, cfg)
        snapshots.append((
            state,
            {k: p.data.copy() for k, p in params.items()},
            {k: [a.copy() for a in mv] for k, mv in state.moments.items()},
        ))

    monkeypatch.setattr(training, "cross_entropy", poisoned_cross_entropy)
    monkeypatch.setattr(training, "adamw_step", recording_adamw_step)
    with pytest.raises(TrainingDiverged) as raised:
        finetune(
            separable_task(seed=43), enc, OptimConfig(warmup_steps=2),
            epochs=2, batch_size=16, n_labeled="all", seed=42,
        )
    assert str(raised.value) == "fine-tuning loss became non-finite at step 3"
    assert len(snapshots) == 2
    state, params, moments = snapshots[-1]
    assert state.step == 2
    assert enc.parameters().keys() == params.keys()
    for k, p in enc.parameters().items():
        assert np.array_equal(p.data, params[k]), k
    assert state.moments.keys() == moments.keys()
    for k, (m, v) in state.moments.items():
        assert np.array_equal(m, moments[k][0]) and np.array_equal(v, moments[k][1]), k


def test_finetune_visits_its_subset_in_the_order_batches_draws():
    """Each epoch takes the labeled subset in the order that a copy of the
    same shuffle stream draws, in batches of 8, final partial batch
    included."""
    cfg, enc, streams = desk_encoder(seed=40)
    splits = separable_task(seed=41)
    seen = []
    encode = enc.encode

    def recording_encode(x, mode, **kwargs):
        if mode == "finetune":
            seen.append(x.copy())
        return encode(x, mode, **kwargs)

    enc.encode = recording_encode
    finetune(
        splits, enc, OptimConfig(warmup_steps=2),
        epochs=3, batch_size=8, n_labeled=19, seed=40,
    )
    copy = RngStreams.from_seed(40)
    subset = stratified_subset(splits[0], 19, copy.subset)
    union = flatten_pool(subset).x
    expected = []
    for _ in range(3):
        order = copy.shuffle.permutation(19)
        expected += [union[order[i : i + 8]] for i in range(0, 19, 8)]
    assert [len(x) for x in seen] == [8, 8, 3] * 3
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


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
    test = splits[2]
    ref = evaluate(result.encoder, test)
    assert sum(ref.assignment_histograms["layer0"]) == len(test)
    for chunk in (1, 7, 16, 64, len(test)):
        m = evaluate(result.encoder, test, batch_size=chunk)
        assert m.accuracy == ref.accuracy, chunk
        assert m.macro_f1 == ref.macro_f1, chunk
        assert np.array_equal(m.per_class_f1, ref.per_class_f1), chunk
        assert np.array_equal(m.confusion, ref.confusion), chunk
        assert m.assignment_histograms == ref.assignment_histograms, chunk


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


def test_a_non_finite_series_is_refused_naming_its_dataset_and_sample():
    """pretrain refuses a pool with a NaN before any step, and plain-LN
    evaluate, which no routing check guards, a test set with an infinity
    before scoring it; each error names the dataset and the sample's index
    in it."""
    pool = tiny_pool(seed=15)
    pool[1].series[5, 0, 3] = np.nan
    cfg, enc, streams = desk_encoder(seed=15)
    before = {k: t.data.copy() for k, t in enc.parameters().items()}
    with pytest.raises(InputError, match=r"^cluster1: sample 5 holds a non-finite value$"):
        run_pretrain(enc, streams, pool, seed=15)
    assert all(np.array_equal(t.data, before[k]) for k, t in enc.parameters().items())

    cfg, enc, streams = desk_encoder(seed=36, norm_mode="plain-LN")
    splits = separable_task(seed=37)
    result = finetune(
        splits, enc, OptimConfig(warmup_steps=2),
        epochs=1, batch_size=16, n_labeled="all", seed=36,
    )
    test = dataclasses.replace(splits[2], series=splits[2].series.copy())
    test.series[3, 0, 0] = np.inf
    with pytest.raises(InputError, match=r"^separable: sample 3 holds a non-finite value$"):
        evaluate(result.encoder, test)
