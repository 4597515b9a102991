"""Prototype-gated normalization: routing, EMA law, orthogonality."""

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
    ema_update,
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
    return ProtoNormLayer(np.asarray(gamma)[None], np.asarray(beta)[None], "plain-LN")


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
    with pytest.raises(ShapeError):  # gamma and beta must share one [n, d] shape
        ProtoNormLayer(np.ones((1, 4)), np.zeros((1, 3)), "plain-LN")
    with pytest.raises(ShapeError):
        ProtoNormLayer(np.ones(4), np.zeros(4), "plain-LN")
    with pytest.raises(ConfigError):
        ProtoNormLayer(np.ones((1, 4)), np.zeros((1, 4)), "plain-LN", epsilon=0.0)
    rng = np.random.default_rng(15)
    with pytest.raises(ContractError):  # one prototype per gamma/beta row
        ProtoNormLayer(
            np.ones((2, 4)), np.zeros((2, 4)), "proto-gated",
            bank=PrototypeBank.create(3, 4, rng),
        )
    with pytest.raises(ShapeError):
        ProtoNormLayer(
            np.ones((2, 4)), np.zeros((2, 4)), "proto-gated",
            bank=PrototypeBank.create(2, 5, rng),
        )


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


def _bank(P, **kw):
    return PrototypeBank(Tensor(np.asarray(P, dtype=np.float64), requires_grad=True), **kw)


def _gated(P):
    """A proto-gated site over the given prototype rows."""
    bank = _bank(P)
    return ProtoNormLayer(np.ones((bank.n, bank.dim)), np.zeros((bank.n, bank.dim)),
                          "proto-gated", bank=bank)


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


# -- forward routing ------------------------------------------------------


def test_plain_mode_ignores_bank_contents():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 4, 6)))
    gamma, beta = Tensor(np.ones((1, 6))), Tensor(np.zeros((1, 6)))
    bank = PrototypeBank.create(1, 6, rng)
    layer = ProtoNormLayer(gamma, beta, "plain-LN", bank=None)
    with_bank = ProtoNormLayer(gamma, beta, "plain-LN", bank=bank)
    ref = layer.forward(x)
    out1 = with_bank.forward(x)
    bank.P.data[:] = 1e6  # scrambling the bank must change nothing
    out2 = with_bank.forward(x)
    assert np.array_equal(ref.data, out1.data)
    assert np.array_equal(ref.data, out2.data)
    assert np.allclose(ref.data, _ln_ref(x.data, gamma.data[0], beta.data[0]), rtol=0, atol=1e-12)


def test_singleton_proto_gated_equals_plain_bitwise():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5, 8)))
    gated = ProtoNormLayer.create(8, 1, "proto-gated", rng=rng)
    plain = ProtoNormLayer(gated.gamma, gated.beta, "plain-LN")
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
    layer = ProtoNormLayer.create(d, 3, "proto-gated", rng=rng)
    layer.gamma.data = rng.normal(size=(3, d))
    layer.beta.data = rng.normal(size=(3, d))
    x = Tensor(rng.normal(size=(5, 4, d)))
    out = layer.forward(x)
    for i, sel in enumerate(layer.last_assignments):
        per_sample = _ln_ref(x.data[i], layer.gamma.data[sel], layer.beta.data[sel])
        assert np.allclose(out.data[i], per_sample, rtol=0, atol=1e-12)
        # every token of the sample used the same row
        single = ProtoNormLayer(layer.gamma.data[sel][None], layer.beta.data[sel][None],
                                "plain-LN")
        assert np.array_equal(out.data[i], single.forward(Tensor(x.data[i : i + 1])).data[0])


def test_dataset_indexed_routes_strictly_by_id():
    rng = np.random.default_rng(6)
    layer = ProtoNormLayer.create(4, 3, "dataset-indexed", rng=rng)
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
    layer = ProtoNormLayer.create(d, 2, "proto-gated", rng=rng)
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


def test_ema_full_replacement():
    bank = _bank([[0.0, 0.0]], ema_alpha=1.0)
    ema_update(bank, {0: np.array([1.0, 1.0])})
    assert np.array_equal(bank.P.data[0], [1.0, 1.0])


def test_ema_halfway():
    bank = _bank([[0.0, 0.0]], ema_alpha=0.5)
    ema_update(bank, {0: np.array([1.0, 1.0])})
    assert np.array_equal(bank.P.data[0], [0.5, 0.5])


def test_ema_unselected_prototype_untouched():
    rng = np.random.default_rng(8)
    bank = PrototypeBank.create(3, 4, rng, ema_alpha=0.2)
    before = bank.P.data[2].copy()
    for _ in range(100):
        ema_update(bank, {0: rng.normal(size=4), 1: rng.normal(size=4)})
    assert np.array_equal(bank.P.data[2], before)


def test_ema_frozen_is_counted_noop():
    bank = _bank([[0.0, 0.0]], ema_alpha=0.5, frozen=True)
    before = bank.P.data.copy()
    ema_update(bank, {0: np.array([1.0, 1.0])})
    assert np.array_equal(bank.P.data, before)


def test_ema_contraction_law():
    rng = np.random.default_rng(9)
    alpha = 0.13
    target = rng.normal(size=6)
    bank = PrototypeBank.create(1, 6, rng, ema_alpha=alpha)
    initial_gap = np.linalg.norm(bank.P.data[0] - target)
    for t in range(1, 51):
        ema_update(bank, {0: target})
        gap = np.linalg.norm(bank.P.data[0] - target)
        expected = (1.0 - alpha) ** t * initial_gap
        assert abs(gap - expected) <= 1e-12 * max(1.0, expected)


def test_forward_stages_then_apply_ema_uses_batch_means():
    rng = np.random.default_rng(10)
    d = 4
    layer = ProtoNormLayer.create(d, 2, "proto-gated", rng=rng, ema_alpha=0.5)
    p_before = layer.bank.P.data.copy()
    x = rng.normal(size=(6, 3, d))
    layer.forward(Tensor(x), train=True)
    assert np.array_equal(layer.bank.P.data, p_before)  # staged, not applied
    feats = x.mean(axis=1)
    sel = layer.last_assignments
    layer.apply_ema()
    for j in range(2):
        assigned = feats[sel == j]
        if len(assigned):
            expect = 0.5 * p_before[j] + 0.5 * assigned.mean(axis=0)
            assert np.allclose(layer.bank.P.data[j], expect, atol=1e-14)
        else:
            assert np.array_equal(layer.bank.P.data[j], p_before[j])


def test_frozen_bank_bit_stable_across_train_steps():
    rng = np.random.default_rng(11)
    layer = ProtoNormLayer.create(4, 2, "proto-gated", rng=rng)
    layer.bank.frozen = True
    before = layer.bank.P.data.copy()
    for _ in range(25):
        layer.forward(Tensor(rng.normal(size=(3, 2, 4))), train=True)
        layer.apply_ema()
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
    with pytest.raises(ConfigError):
        _bank([[1.0, 0.0]], ema_alpha=0.0)
    with pytest.raises(InputError):
        _bank([[np.inf, 0.0]])
