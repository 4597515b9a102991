"""Prototype-gated normalization: routing, EMA law, orthogonality."""

import re

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    ConfigError,
    ContractError,
    InputError,
    PrototypeBank,
    ProtoNormLayer,
    ShapeError,
    Tensor,
    init_orthogonal,
    orthogonality_loss,
)


def _ln_ref(x, gamma, beta, eps=1e-8):
    """Plain-numpy LayerNorm over the last axis: the reference the layer's
    normalization is checked against."""
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def _plain(gamma, beta):
    """A plain-LN site with the given single affine pair."""
    layer = ProtoNormLayer(len(gamma), 1, "plain-LN")
    layer.gamma.data = np.asarray(gamma, dtype=np.float64)[None]
    layer.beta.data = np.asarray(beta, dtype=np.float64)[None]
    return layer


# -- normalization arithmetic -----------------------------------------------


def test_layer_norm_constant_input_is_zero():
    x = np.full((2, 1, 3), 7.0)
    out = _plain(np.ones(3), np.zeros(3)).forward(Tensor(x))
    assert np.array_equal(out.data, np.zeros((2, 1, 3)))
    assert np.array_equal(_ln_ref(x, np.ones(3), np.zeros(3)), np.zeros((2, 1, 3)))


def test_layer_norm_hand_value():
    x = np.array([[[1.0, 2.0, 3.0]]])
    out = _plain(np.ones(3), np.zeros(3)).forward(Tensor(x))
    assert np.allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)
    assert np.allclose(_ln_ref(x, np.ones(3), np.zeros(3)), [-1.2247, 0.0, 1.2247], atol=1e-3)


def test_layer_norm_zero_scale():
    x = np.array([[[1.0, 2.0, 3.0]]])
    out = _plain(np.zeros(3), np.full(3, 5.0)).forward(Tensor(x))
    assert np.array_equal(out.data[0, 0], [5.0, 5.0, 5.0])


def test_layer_norm_dim_mismatch():
    layer = _plain(np.ones(4), np.zeros(4))
    with pytest.raises(ShapeError):
        layer.forward(Tensor(np.zeros((2, 1, 3))))
    with pytest.raises(ShapeError):  # one [B, T, d] activation, not [B, d]
        layer.forward(Tensor(np.zeros((2, 4))))
    gated = ProtoNormLayer(4, 3, "proto-gated", rng=np.random.default_rng(15))
    assert gated.gamma.shape == gated.beta.shape == gated.bank.P.shape == (3, 4)


def test_layer_norm_gradients():
    """x, gamma and beta gradients against finite differences of
    ``_ln_ref``: on a plain site with one token per sample, and on a
    proto-gated site with several tokens per sample where samples 0-2
    share row 0 and samples 3-4 share row 1."""
    rng = np.random.default_rng(0)
    d = 5
    P = np.stack([np.full(d, 3.0), np.full(d, -3.0)])
    plain = (rng.normal(size=(2, 1, d)), np.array([0, 0]), None)
    shared = (np.concatenate([3.0 + rng.normal(size=(3, 4, d)),
                              -3.0 + rng.normal(size=(2, 4, d))]),
              np.array([0, 0, 0, 1, 1]), P)
    for x0, idx, protos in (plain, shared):
        n = len(set(idx))
        g0 = rng.normal(size=(n, d))
        b0 = rng.normal(size=(n, d))
        w = rng.normal(size=x0.shape)
        layer = _plain(g0[0], b0[0]) if protos is None else _gated(protos)
        layer.gamma.data, layer.beta.data = g0.copy(), b0.copy()

        def f(xa, ga, ba):
            return (_ln_ref(xa, ga[idx][:, None, :], ba[idx][:, None, :]) * w).sum()

        x = Tensor(x0.copy(), requires_grad=True)
        loss = (layer.forward(x) * Tensor(w)).sum()
        assert np.array_equal(layer.last_assignments, idx)
        assert np.allclose(loss.item(), f(x0, g0, b0), rtol=1e-12)
        loss.backward()
        nx = numerical_gradient(lambda a: f(a, g0, b0), x0.copy())
        ng = numerical_gradient(lambda a: f(x0, a, b0), g0.copy())
        nb = numerical_gradient(lambda a: f(x0, g0, a), b0.copy())
        assert rel_error(x.grad, nx) < 1e-6
        assert rel_error(layer.gamma.grad, ng) < 1e-6
        assert rel_error(layer.beta.grad, nb) < 1e-6


# -- gate ---------------------------------------------------------------


def _bank(P, ema_alpha=0.05):
    """A bank whose drawn prototype rows are replaced by ``P``."""
    P = np.asarray(P, dtype=np.float64)
    bank = PrototypeBank(*P.shape, np.random.default_rng(0), ema_alpha)
    bank.P.data = P
    return bank


def _gated(P):
    """A proto-gated site over the given prototype rows."""
    P = np.asarray(P, dtype=np.float64)
    layer = ProtoNormLayer(P.shape[1], P.shape[0], "proto-gated", rng=np.random.default_rng(0))
    layer.bank.P.data = P
    return layer


def _route(layer, features):
    """Route one sample whose token mean is ``features`` (one token)."""
    idx, _ = layer.select_indices(np.asarray(features, dtype=np.float64)[None, None, :])
    return int(idx[0])


def test_gate_singleton_bank():
    assert _route(_gated([[0.0, 0.0]]), [100.0, -3.0]) == 0


def test_gate_nearest_by_inspection():
    assert _route(_gated([[1.0, 0.0], [0.0, 1.0]]), [0.9, 0.1]) == 0


def test_gate_tie_breaks_low_index():
    assert _route(_gated([[1.0, 0.0], [-1.0, 0.0]]), [0.0, 5.0]) == 0


def test_gate_rejects_non_finite():
    layer = _gated([[0.0, 0.0]])
    with pytest.raises(InputError):
        _route(layer, [np.nan, 1.0])
    with pytest.raises(InputError):
        layer.forward(Tensor(np.array([[[np.inf, 1.0]]])))


def test_gate_invariant_to_monotone_distance_transforms():
    rng = np.random.default_rng(1)
    layer = _gated(rng.normal(size=(5, 8)))
    f = rng.normal(size=(50, 8))
    picked, _ = layer.select_indices(f[:, None, :])
    for i in range(50):
        d2 = ((layer.bank.P.data - f[i]) ** 2).sum(axis=1)
        for transform in (lambda d: 3.0 * d, lambda d: np.sqrt(d), lambda d: d**2 + 1.0):
            assert picked[i] == int(np.argmin(transform(d2)))


def _direct_argmin(features, P):
    """The nearest prototype of each row by distances written out: the
    reference the one-GEMM routing must agree with decision for decision."""
    diff = features[:, None, :] - P[None, :, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


def _expanded_argmin(features, P):
    """The bare one-GEMM argmin, ||p||^2 - 2 f.p, with no fallback."""
    return np.argmin((P * P).sum(axis=1) - 2.0 * features @ P.T, axis=1)


def _bisector_bank(rng):
    """Features on the perpendicular bisector of two prototypes of unequal
    norm, each a tie in exact arithmetic that rounding may break."""
    a, b = rng.normal(size=8), 3.0 * rng.normal(size=8)
    v = rng.normal(size=(32, 8))
    v -= np.outer(v @ (a - b), a - b) / ((a - b) @ (a - b))
    return 0.5 * (a + b) + v, np.stack([a, b])


def _offset_bank(rng):
    """A common offset of 1e8 on features and prototypes: the expanded
    scores cancel about 1e17 down to distances near 1."""
    P = 1e8 + rng.normal(size=(8, 16))
    return 1e8 + rng.normal(size=(64, 16)), P


def _near_ulp_bank(rng):
    """Row 2 duplicates row 0 and row 3 lies 1 ulp from row 1; the
    features sit at those rows, where the decision is a tie or nearly."""
    P = rng.normal(size=(6, 8))
    P[2] = P[0]
    P[3] = np.nextafter(P[1], np.inf)
    f = np.concatenate([P[[0, 1, 2, 3]], P[[0, 1]] + 1e-9, rng.normal(size=(10, 8))])
    return f, P


ROUTING_BANKS = {
    "random-64x32x64": lambda rng: (rng.normal(size=(64, 64)), rng.normal(size=(32, 64))),
    "random-4x4x256": lambda rng: (rng.normal(size=(4, 256)), rng.normal(size=(4, 256))),
    "single-prototype": lambda rng: (rng.normal(size=(16, 8)), rng.normal(size=(1, 8))),
    "duplicate-and-1-ulp-rows": _near_ulp_bank,
    "bisector-unequal-norms": _bisector_bank,
    "offset-1e8": _offset_bank,
    "features-near-1e200": lambda rng: (1e200 * rng.normal(size=(8, 8)), rng.normal(size=(4, 8))),
    "scores-overflow": lambda rng: (
        1e200 * rng.normal(size=(8, 8)), 1e110 * rng.normal(size=(4, 8))
    ),
    "empty-batch": lambda rng: (np.empty((0, 8)), rng.normal(size=(4, 8))),
}


OVERFLOWING_BANKS = ("features-near-1e200", "scores-overflow")


@pytest.mark.parametrize("case", sorted(ROUTING_BANKS))
def test_gemm_routing_decides_as_the_direct_distances(case):
    """Each row's routing equals the direct-distance argmin, ties to the
    lowest index, on banks where the expanded scores are close to a tie or
    cancel badly; a bank whose scores could overflow is an InputError that
    states the largest feature, not a route to prototype 0."""
    features, P = ROUTING_BANKS[case](np.random.default_rng(20))
    if case in OVERFLOWING_BANKS:
        message = f"too large to route: max |f| = {np.abs(features).max():.6g} with"
        with pytest.raises(InputError, match=re.escape(message)):
            _gated(P).select_indices(features[:, None, :])
        return
    idx, feats = _gated(P).select_indices(features[:, None, :])
    assert np.array_equal(feats, features)
    assert idx.shape == (len(features),)
    assert idx.tolist() == _direct_argmin(features, P).tolist()


def test_the_fallback_is_what_keeps_the_offset_bank_right():
    """Without the rounding-bound fallback the expanded scores route some
    rows of the offset bank elsewhere than the direct distances do."""
    features, P = _offset_bank(np.random.default_rng(20))
    assert (_expanded_argmin(features, P) != _direct_argmin(features, P)).any()


# -- forward routing ------------------------------------------------------


def test_plain_mode_ignores_bank_contents():
    """A plain site builds one affine row and no bank, whatever prototype
    count it is given, and routes every sample to that row."""
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 4, 6)))
    layer = ProtoNormLayer(6, 5, "plain-LN", rng=rng)
    assert layer.bank is None and set(layer.parameters()) == {"gamma", "beta"}
    assert layer.gamma.shape == (1, 6)
    ref = layer.forward(x)
    assert np.array_equal(layer.last_assignments, [0, 0, 0])
    assert np.array_equal(ref.data, layer.forward(x, dataset_ids=[2, 1, 0]).data)
    assert np.allclose(ref.data, _ln_ref(x.data, np.ones(6), np.zeros(6)), rtol=0, atol=1e-12)


def test_singleton_proto_gated_equals_plain_bitwise():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5, 8)))
    gated = ProtoNormLayer(8, 1, "proto-gated", rng=rng)
    gated.gamma.data = rng.normal(size=(1, 8))
    gated.beta.data = rng.normal(size=(1, 8))
    plain = _plain(gated.gamma.data[0], gated.beta.data[0])
    a = gated.forward(x)
    b = plain.forward(x)
    assert np.array_equal(a.data, b.data)


def test_two_cluster_routing_brute_force():
    rng = np.random.default_rng(4)
    d = 6
    a_mean = np.full(d, 5.0)
    b_mean = np.full(d, -5.0)
    xa = a_mean + 0.1 * rng.normal(size=(8, 3, d))
    xb = b_mean + 0.1 * rng.normal(size=(8, 3, d))
    x = np.concatenate([xa, xb])
    P = np.stack([a_mean + 0.05 * rng.normal(size=d), b_mean + 0.05 * rng.normal(size=d)])
    layer = _gated(P)
    layer.forward(Tensor(x))
    # brute force audit: per-sample loop over prototypes
    for i in range(16):
        feats = x[i].mean(axis=0)
        dists = [float(((feats - P[j]) ** 2).sum()) for j in range(2)]
        assert layer.last_assignments[i] == int(np.argmin(dists))
    assert np.all(layer.last_assignments[:8] == 0)
    assert np.all(layer.last_assignments[8:] == 1)


def test_routing_consistency_whole_sample_one_param_set():
    rng = np.random.default_rng(5)
    d = 6
    layer = ProtoNormLayer(d, 3, "proto-gated", rng=rng)
    layer.gamma.data = rng.normal(size=(3, d))
    layer.beta.data = rng.normal(size=(3, d))
    x = Tensor(rng.normal(size=(5, 4, d)))
    out = layer.forward(x)
    for i, sel in enumerate(layer.last_assignments):
        per_sample = _ln_ref(x.data[i], layer.gamma.data[sel], layer.beta.data[sel])
        assert np.allclose(out.data[i], per_sample, rtol=0, atol=1e-12)
        # every token of the sample used the same row
        single = _plain(layer.gamma.data[sel], layer.beta.data[sel])
        assert np.array_equal(out.data[i], single.forward(Tensor(x.data[i : i + 1])).data[0])


def test_dataset_indexed_routes_strictly_by_id():
    rng = np.random.default_rng(6)
    layer = ProtoNormLayer(4, 3, "dataset-indexed", rng=rng)
    x = Tensor(rng.normal(size=(6, 2, 4)))
    ids = np.array([0, 1, 2, 0, 1, 2])
    layer.forward(x, dataset_ids=ids)
    assert np.array_equal(layer.last_assignments, ids)

    with pytest.raises(ContractError):
        layer.forward(x)  # ids required
    with pytest.raises(ContractError):
        layer.forward(x, dataset_ids=np.array([0, 1, 3, 0, 1, 2]))  # id >= n


def test_forward_gradients_through_selected_affine():
    rng = np.random.default_rng(7)
    d = 4
    x0 = rng.normal(size=(3, 2, d))
    layer = ProtoNormLayer(d, 2, "proto-gated", rng=rng)
    w = rng.normal(size=(3, 2, d))

    def loss_fn():
        return (layer.forward(Tensor(x0)) * Tensor(w)).sum()

    loss = loss_fn()
    loss.backward()
    analytic = layer.gamma.grad

    def probe(arr):
        old = layer.gamma.data
        layer.gamma.data = arr
        val = loss_fn().item()
        layer.gamma.data = old
        return val

    numeric = numerical_gradient(probe, layer.gamma.data.copy())
    for j in range(2):  # per row, so an unrouted row must read exactly zero
        assert rel_error(analytic[j], numeric[j]) < 1e-6


# -- EMA ----------------------------------------------------------------


def _ema_step(bank, means):
    """One EMA step toward ``means[i]`` for each prototype i named, each
    staged as a single feature row."""
    idx = np.array(list(means), dtype=np.int64)
    bank.stage(np.stack([np.asarray(m, dtype=np.float64) for m in means.values()]), idx)
    bank.apply_ema()


def test_ema_full_replacement():
    bank = _bank([[0.0, 0.0]], ema_alpha=1.0)
    _ema_step(bank, {0: [1.0, 1.0]})
    assert np.array_equal(bank.P.data[0], [1.0, 1.0])


def test_ema_halfway():
    bank = _bank([[0.0, 0.0]], ema_alpha=0.5)
    _ema_step(bank, {0: [1.0, 1.0]})
    assert np.array_equal(bank.P.data[0], [0.5, 0.5])


def test_ema_unselected_prototype_untouched():
    rng = np.random.default_rng(8)
    bank = PrototypeBank(3, 4, rng, ema_alpha=0.2)
    before = bank.P.data[2].copy()
    for _ in range(100):
        _ema_step(bank, {0: rng.normal(size=4), 1: rng.normal(size=4)})
    assert np.array_equal(bank.P.data[2], before)


def test_ema_frozen_is_counted_noop():
    bank = _bank([[0.0, 0.0]], ema_alpha=0.5)
    bank.frozen = True
    before = bank.P.data.copy()
    _ema_step(bank, {0: [1.0, 1.0]})
    assert np.array_equal(bank.P.data, before)
    bank.frozen = False  # the frozen step cleared its stage
    bank.apply_ema()
    assert np.array_equal(bank.P.data, before)


def test_ema_contraction_law():
    rng = np.random.default_rng(9)
    alpha = 0.13
    target = rng.normal(size=6)
    bank = PrototypeBank(1, 6, rng, ema_alpha=alpha)
    initial_gap = np.linalg.norm(bank.P.data[0] - target)
    for t in range(1, 51):
        _ema_step(bank, {0: target})
        gap = np.linalg.norm(bank.P.data[0] - target)
        expected = (1.0 - alpha) ** t * initial_gap
        assert abs(gap - expected) <= 1e-12 * max(1.0, expected)


def test_forward_stages_then_apply_ema_uses_batch_means():
    """The step is p <- (1 - a) * p + a * mean bit for bit, the mean being
    the routed features summed in batch order over their count."""
    rng = np.random.default_rng(10)
    d, a = 4, 0.5
    layer = ProtoNormLayer(d, 2, "proto-gated", rng=rng, ema_alpha=a)
    p_before = layer.bank.P.data.copy()
    x = rng.normal(size=(6, 3, d))
    layer.forward(Tensor(x), train=True)
    assert np.array_equal(layer.bank.P.data, p_before)  # staged, not applied
    feats = x.mean(axis=1)
    sel = layer.last_assignments
    layer.bank.apply_ema()
    for j in range(2):
        assigned = feats[sel == j]
        if len(assigned):
            total = np.zeros(d)
            for row in assigned:
                total = total + row
            expect = (1.0 - a) * p_before[j] + a * (total / len(assigned))
            assert np.array_equal(layer.bank.P.data[j], expect)
        else:
            assert np.array_equal(layer.bank.P.data[j], p_before[j])


def test_frozen_bank_bit_stable_across_train_steps():
    rng = np.random.default_rng(11)
    layer = ProtoNormLayer(4, 2, "proto-gated", rng=rng)
    layer.bank.frozen = True
    before = layer.bank.P.data.copy()
    for _ in range(25):
        layer.forward(Tensor(rng.normal(size=(3, 2, 4))), train=True)
        layer.bank.apply_ema()
    assert np.array_equal(layer.bank.P.data, before)


# -- orthogonality ---------------------------------------------------------


def test_orthogonality_loss_zero_for_orthonormal_rows():
    P = Tensor(np.eye(4)[:3])
    assert orthogonality_loss(P).item() == 0.0


def test_orthogonality_loss_hand_value():
    P = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert orthogonality_loss(P).item() == 2.0


def test_orthogonality_loss_gradient():
    rng = np.random.default_rng(12)
    p0 = rng.normal(size=(4, 8))
    P = Tensor(p0.copy(), requires_grad=True)
    orthogonality_loss(P).backward()

    def f(arr):
        g = arr @ arr.T - np.eye(4)
        return float((g * g).sum())

    assert rel_error(P.grad, numerical_gradient(f, p0.copy())) < 1e-6


def test_orthogonality_loss_nonnegative_and_zero_iff_orthonormal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        P = rng.normal(size=(3, 6))
        val = orthogonality_loss(Tensor(P)).item()
        assert val >= 0.0
    Q = init_orthogonal(3, 6, rng)
    assert orthogonality_loss(Tensor(Q)).item() < 1e-10
    # perturbing any orthonormal set must leave zero
    Q[0, 0] += 0.1
    assert orthogonality_loss(Tensor(Q)).item() > 0.0


def test_init_orthogonal_contracts():
    rng = np.random.default_rng(14)
    P = init_orthogonal(5, 5, rng)
    assert np.abs(P @ P.T - np.eye(5)).max() < 1e-6
    assert orthogonality_loss(Tensor(P)).item() < 1e-10
    a = init_orthogonal(3, 10, np.random.default_rng(42))
    b = init_orthogonal(3, 10, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_init_orthogonal_rejects_n_above_d():
    with pytest.raises(ConfigError, match="raise d_model or lower n_prototypes"):
        init_orthogonal(5, 3, np.random.default_rng(0))


def test_bank_validation():
    for bad in ({"ema_alpha": 0.0}, {"ema_alpha": 1.5}, {"epsilon": 0.0}, {"epsilon": np.inf}):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be"):
            ProtoNormLayer(4, 2, "proto-gated", rng=np.random.default_rng(0), **bad)
    with pytest.raises(ContractError):
        ProtoNormLayer(4, 2, "proto-gated")  # prototypes are drawn from an rng
    bank = _bank([[0.0, 0.0], [1.0, 0.0]])
    bank.stage(np.array([[1.0, 1.0], [np.inf, 0.0]]), np.array([0, 1]))
    with pytest.raises(InputError, match="prototype 1 is non-finite"):
        bank.apply_ema()
