"""Encoder: patching, forward invariants, gradients, complexity counts."""

import numpy as np
import pytest

from helpers import numerical_gradient, rel_error
from protonorm import (
    ConfigError,
    ContractError,
    Encoder,
    EncoderConfig,
    RngStreams,
    Tensor,
    count_forward_macs,
    count_parameters,
    patchify,
)
from protonorm.norm import MODES


def small_cfg(**kw):
    base = dict(
        input_len=32,
        patch_size=8,
        d_model=16,
        n_heads=2,
        n_layers=2,
        n_prototypes=2,
        dropout=0.0,
    )
    base.update(kw)
    return EncoderConfig(**base)


def build(cfg, seed=0):
    streams = RngStreams.from_seed(seed)
    return Encoder(cfg, streams.params, streams.protos), streams


# -- patchify ----------------------------------------------------------


def test_patchify_pads_tail():
    x = np.arange(512.0).reshape(1, 512)
    tokens = patchify(x, 50)
    assert tokens.shape == (11, 50)  # ceil(512 / 50)
    assert np.array_equal(tokens[-1, :12], x[0, 500:512])
    assert np.array_equal(tokens[-1, 12:], np.zeros(38))  # 11*50 - 512 pad steps


def test_patchify_single_patch():
    tokens = patchify(np.ones((1, 100)), 100)
    assert tokens.shape == (1, 100)


def test_patchify_roundtrip_partition():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 70))
    tokens = patchify(x, 16)
    assert tokens.shape == (5, 3 * 16)
    padded = np.concatenate([x, np.zeros((3, 80 - 70))], axis=1)
    # token t is the row-major flattening of window t of every channel
    for t in range(5):
        for c in range(3):
            assert np.array_equal(tokens[t, c * 16 : (c + 1) * 16], padded[c, t * 16 : (t + 1) * 16])


def test_patchify_rejects_oversize_patch():
    with pytest.raises(ConfigError):
        patchify(np.ones((1, 10)), 11)


# -- config ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(d_model=10, n_heads=4)
    with pytest.raises(ConfigError):
        small_cfg(patch_size=64)
    with pytest.raises(ConfigError):
        small_cfg(dropout=1.0)
    with pytest.raises(ConfigError):
        small_cfg(norm_mode="other")
    with pytest.raises(ConfigError, match="^n_prototypes 17 exceeds d_model 16"):
        small_cfg(n_prototypes=17)
    small_cfg(n_prototypes=17, norm_mode="plain-LN")  # no bank to orthonormalize


# -- forward -----------------------------------------------------------


def test_identical_samples_identical_rows():
    cfg = small_cfg()
    enc, _ = build(cfg)
    rng = np.random.default_rng(1)
    one = rng.normal(size=(1, 1, cfg.input_len))
    batch = np.repeat(one, 5, axis=0)
    out = enc.encode(batch, "pretrain", train=False)
    for i in range(1, 5):
        assert np.array_equal(out.data[0], out.data[i])


def test_dropout_zero_train_equals_eval():
    cfg = small_cfg(dropout=0.0)
    enc, streams = build(cfg)
    x = np.random.default_rng(2).normal(size=(3, 1, 32))
    a = enc.encode(x, "pretrain", train=True, rng=streams.dropout)
    b = enc.encode(x, "pretrain", train=False)
    assert np.array_equal(a.data, b.data)


def test_dataset_indexed_requires_ids():
    cfg = small_cfg(norm_mode="dataset-indexed")
    enc, _ = build(cfg)
    x = np.zeros((2, 1, 32))
    with pytest.raises(ContractError):
        enc.encode(x, "pretrain", train=False)
    ids = np.array([0, 1])
    out = enc.encode(x, "pretrain", train=False, dataset_ids=ids)
    assert out.shape == (2, cfg.proj_dim)


def test_patch_embed_gradient_matches_finite_differences():
    cfg = EncoderConfig(
        input_len=16,
        patch_size=8,
        d_model=8,
        n_heads=2,
        n_layers=1,
        n_prototypes=2,
        dropout=0.0,
    )
    enc, _ = build(cfg, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 16))
    w = rng.normal(size=(2, cfg.proj_dim))

    def loss_fn():
        return (enc.encode(x, "pretrain", train=False) * Tensor(w)).sum()

    loss = loss_fn()
    loss.backward()
    target = enc.patch_embed.w
    analytic = target.grad.copy()

    def probe(arr):
        target.data = arr
        return loss_fn().item()

    numeric = numerical_gradient(probe, target.data.copy())
    assert rel_error(analytic, numeric) < 1e-4


def test_post_norm_sites_emit_unit_statistics():
    # at init gamma=1, beta=0, so block outputs are the pre-affine
    # normalized activations; check per-token mean 0, variance 1
    cfg = small_cfg()
    enc, _ = build(cfg, seed=5)
    x = np.random.default_rng(6).normal(size=(4, 1, 32))
    tokens = Tensor(patchify(x, cfg.patch_size))
    h = enc.patch_embed(tokens) + enc.pos_embed
    for block in enc.blocks:
        h = block(h, False, None, None)
        mean = h.data.mean(axis=-1)
        var = h.data.var(axis=-1)
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-5


def test_norm_site_and_linear_each_record_one_node():
    """A layer is one tape node: its parents are its input and its own
    parameter arrays, none of which holds a node."""
    enc, _ = build(small_cfg())
    rng = np.random.default_rng(7)
    tokens = Tensor(rng.normal(size=(3, 4, 8)), requires_grad=True)
    h = Tensor(rng.normal(size=(3, 4, 16)), requires_grad=True)
    lin, norm = enc.patch_embed, enc.blocks[0].norm1
    for out, parents in (
        (lin(tokens), (tokens, lin.w, lin.b)),
        (norm.forward(h), (h, norm.gamma, norm.beta)),
    ):
        assert out._ctx.parents == parents
        assert all(p._ctx is None for p in parents)


def test_eval_mode_requires_classifier():
    enc, _ = build(small_cfg())
    with pytest.raises(ContractError):
        enc.encode(np.zeros((1, 1, 32)), "eval")


def test_pretrain_after_head_drop_rejected():
    enc, streams = build(small_cfg())
    enc.drop_projection_head()
    with pytest.raises(ContractError):
        enc.encode(np.zeros((1, 1, 32)), "pretrain")


# -- complexity --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 8, 16, 32, 64])
def test_parameter_count_matches_exhaustive_walk(n):
    cfg = small_cfg(d_model=64, n_heads=4, n_prototypes=n)
    enc, _ = build(cfg)
    walked = sum(t.size for t in enc.parameters().values())
    assert count_parameters(cfg) == walked


@pytest.mark.parametrize("mode", MODES)
def test_parameter_count_walk_in_every_mode(mode):
    cfg = small_cfg(norm_mode=mode)
    enc, _ = build(cfg)
    assert count_parameters(cfg) == sum(t.size for t in enc.parameters().values())
    # only nearest-prototype routing has a bank, prototypes and gating work
    gated = mode == "proto-gated"
    assert len(enc.banks()) == (2 * cfg.n_layers if gated else 0)
    assert any(k.endswith(".prototypes") for k in enc.parameters()) == gated
    assert (count_forward_macs(cfg).gating > 0) == gated


def test_parameter_delta_formulas():
    # d_model 32: a proto-gated config takes at most d_model prototypes
    plain = small_cfg(norm_mode="plain-LN", d_model=32)
    for n in (1, 4, 32):
        gated = small_cfg(n_prototypes=n, d_model=32)
        delta = count_parameters(gated) - count_parameters(plain)
        sites = 2 * gated.n_layers
        expected = sites * (n - 1) * 2 * gated.d_model + sites * n * gated.d_model
        assert delta == expected
    # n=1: prototype vectors only
    one = small_cfg(n_prototypes=1, d_model=32)
    assert count_parameters(one) - count_parameters(plain) == 2 * one.n_layers * one.d_model


def test_core_macs_independent_of_prototype_count():
    macs = {n: count_forward_macs(small_cfg(n_prototypes=n, d_model=64)) for n in (4, 64)}
    assert macs[4].core == macs[64].core
    assert macs[64].gating == 16 * macs[4].gating / 1  # scales linearly: 64/4
    cfg = small_cfg(n_prototypes=8)
    assert count_forward_macs(cfg).gating == 2 * cfg.n_layers * 8 * cfg.d_model


def test_paper_scale_overhead_under_ten_percent():
    base = dict(
        input_len=512,
        patch_size=50,
        d_model=256,
        n_heads=8,
        n_layers=12,
        dropout=0.15,
    )
    p4 = count_parameters(EncoderConfig(n_prototypes=4, **base))
    p32 = count_parameters(EncoderConfig(n_prototypes=32, **base))
    assert p4 > 7_000_000  # the ~8M regime
    assert (p32 - p4) / p4 < 0.10
