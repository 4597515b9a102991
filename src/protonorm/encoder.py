"""Patch-based transformer encoder with prototype-gated normalization.

Every normalization site is a ProtoNormLayer (or its plain/dataset-indexed
ablation), placed post-norm: normalize after adding the residual. The
sample representation is the mean over patch tokens; a 2-layer MLP
projection head serves contrastive pretraining and a linear classifier
(attached at fine-tune time, once the class count is known) serves
classification.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .norm import MODES, ProtoNormLayer, check_site_settings
from .tensor import Tensor, dropout, linear, relu, softmax

__all__ = [
    "Encoder",
    "EncoderConfig",
    "MacCount",
    "count_forward_macs",
    "count_parameters",
    "patchify",
]


@dataclass
class EncoderConfig:
    """Desk-scale defaults: small enough that double-precision gradient
    checks over every parameter run in minutes."""

    input_len: int = 128
    patch_size: int = 16
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 3
    n_prototypes: int = 4
    dropout: float = 0.15
    norm_mode: str = "proto-gated"
    ema_alpha: float = 0.05
    epsilon: float = 1e-8

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.norm_mode not in MODES:
            raise ConfigError(
                f"norm_mode must be one of {MODES}, got {self.norm_mode!r}"
            )
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.patch_size > self.input_len:
            raise ConfigError(
                f"patch_size {self.patch_size} exceeds input_len {self.input_len}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.n_prototypes < 1:
            raise ConfigError(f"n_prototypes must be >= 1, got {self.n_prototypes}")
        if self.norm_mode == "proto-gated" and self.n_prototypes > self.d_model:
            raise ConfigError(
                f"n_prototypes {self.n_prototypes} exceeds d_model {self.d_model}: "
                "a proto-gated bank needs orthonormal rows"
            )
        for field in ("input_len", "patch_size", "d_model", "n_heads", "n_layers"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")
        check_site_settings(self.ema_alpha, self.epsilon)

    @property
    def n_tokens(self):
        return math.ceil(self.input_len / self.patch_size)

    @property
    def proj_dim(self):
        return self.d_model // 2


def patchify(x, patch_size):
    """Cut the time axis into non-overlapping windows of ``patch_size``,
    zero-padding the tail to a whole patch. Accepts [C, L] or [B, C, L]
    and returns [T, C*patch_size] or [B, T, C*patch_size]; each token is
    the row-major flattening of its [C, patch_size] window."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.ndim != 3:
        raise ShapeError(f"patchify expects [C, L] or [B, C, L], got {x.shape}")
    b, c, length = x.shape
    if patch_size > length:
        raise ConfigError(f"patch_size {patch_size} exceeds series length {length}")
    t = math.ceil(length / patch_size)
    pad = t * patch_size - length
    if pad:
        x = np.concatenate([x, np.zeros((b, c, pad))], axis=2)
    # [B, C, T, P] -> [B, T, C, P] -> [B, T, C*P]
    tokens = x.reshape(b, c, t, patch_size).transpose(0, 2, 1, 3).reshape(b, t, c * patch_size)
    return tokens[0] if squeeze else tokens


class Linear:
    def __init__(self, d_in, d_out, rng, prefix):
        self.w = Tensor(rng.standard_normal((d_in, d_out)) / math.sqrt(d_in), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)
        self.prefix = prefix

    def __call__(self, x):
        return linear(x, self.w, self.b)

    def parameters(self):
        return {f"{self.prefix}.w": self.w, f"{self.prefix}.b": self.b}


class MultiHeadAttention:
    def __init__(self, d_model, n_heads, rng, prefix):
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(d_model, d_model, rng, f"{prefix}.wq")
        self.wk = Linear(d_model, d_model, rng, f"{prefix}.wk")
        self.wv = Linear(d_model, d_model, rng, f"{prefix}.wv")
        self.wo = Linear(d_model, d_model, rng, f"{prefix}.wo")

    def _split(self, x, b, t):
        # [B, T, d] -> [B, H, T, d_head]
        return x.reshape(b, t, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def __call__(self, x):
        b, t, _ = x.shape
        q = self._split(self.wq(x), b, t)
        k = self._split(self.wk(x), b, t)
        v = self._split(self.wv(x), b, t)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.d_head))
        attn = softmax(scores, axis=-1)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, self.d_model)
        return self.wo(ctx)

    def parameters(self):
        out = {}
        for lin in (self.wq, self.wk, self.wv, self.wo):
            out.update(lin.parameters())
        return out


class FeedForward:
    """Position-wise MLP, d_model -> 4*d_model -> d_model with relu."""

    def __init__(self, d_model, rng, prefix):
        self.fc1 = Linear(d_model, 4 * d_model, rng, f"{prefix}.fc1")
        self.fc2 = Linear(4 * d_model, d_model, rng, f"{prefix}.fc2")

    def __call__(self, x):
        return self.fc2(relu(self.fc1(x)))

    def parameters(self):
        out = {}
        out.update(self.fc1.parameters())
        out.update(self.fc2.parameters())
        return out


class EncoderBlock:
    def __init__(self, cfg, rng_params, rng_protos, prefix):
        d = cfg.d_model
        self.attn = MultiHeadAttention(d, cfg.n_heads, rng_params, f"{prefix}.attn")
        self.ffn = FeedForward(d, rng_params, f"{prefix}.ffn")
        self.norm1 = self._make_norm(cfg, rng_protos)
        self.norm2 = self._make_norm(cfg, rng_protos)
        self.prefix = prefix
        self.p_drop = cfg.dropout

    @staticmethod
    def _make_norm(cfg, rng_protos):
        return ProtoNormLayer(
            cfg.d_model,
            cfg.n_prototypes,
            cfg.norm_mode,
            rng=rng_protos,
            ema_alpha=cfg.ema_alpha,
            epsilon=cfg.epsilon,
        )

    def __call__(self, h, train, rng, dataset_ids):
        a = dropout(self.attn(h), self.p_drop, rng, train)
        h = self.norm1.forward(h + a, train=train, dataset_ids=dataset_ids)
        f = dropout(self.ffn(h), self.p_drop, rng, train)
        return self.norm2.forward(h + f, train=train, dataset_ids=dataset_ids)

    def parameters(self):
        out = {}
        out.update(self.attn.parameters())
        out.update(self.ffn.parameters())
        for tag, norm in (("norm1", self.norm1), ("norm2", self.norm2)):
            for name, t in norm.parameters().items():
                out[f"{self.prefix}.{tag}.{name}"] = t
        return out


class Encoder:
    """Patch embedding + learned positions + transformer blocks + heads.

    Parameter init draws from ``rng_params``; prototype banks draw from a
    separate ``rng_protos`` stream so switching norm modes leaves every
    other random draw untouched (plain-LN and proto-gated runs stay
    comparable step for step).
    """

    def __init__(self, cfg, rng_params, rng_protos=None):
        cfg.validate()
        if cfg.norm_mode == "proto-gated" and rng_protos is None:
            raise ContractError("proto-gated encoder needs rng_protos")
        self.cfg = cfg
        d = cfg.d_model
        self.patch_embed = Linear(cfg.patch_size, d, rng_params, "patch_embed")
        self.pos_embed = Tensor(
            0.02 * rng_params.standard_normal((cfg.n_tokens, d)), requires_grad=True
        )
        self.blocks = [
            EncoderBlock(cfg, rng_params, rng_protos, f"block{i}")
            for i in range(cfg.n_layers)
        ]
        self.proj = (
            Linear(d, d, rng_params, "proj.fc1"),
            Linear(d, cfg.proj_dim, rng_params, "proj.fc2"),
        )
        self.classifier = None

    @property
    def n_classes(self):
        """The classifier's output width, or None before one is attached."""
        return None if self.classifier is None else self.classifier.w.shape[1]

    def attach_classifier(self, n_classes, rng):
        self.classifier = Linear(self.cfg.d_model, n_classes, rng, "classifier")

    def drop_projection_head(self):
        self.proj = None

    # -- forward -------------------------------------------------------

    def encode(self, x, mode, train=False, rng=None, dataset_ids=None):
        """The phase head on the mean-pooled token representation
        [B, d_model]: projection for pretraining, classifier logits for
        fine-tune/eval."""
        if mode not in ("pretrain", "finetune", "eval"):
            raise ContractError(f"unknown encode mode {mode!r}")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (1, self.cfg.input_len):
            raise ShapeError(f"expected [B, 1, {self.cfg.input_len}] batch, got {x.shape}")
        if train and self.cfg.dropout > 0 and rng is None:
            raise ContractError("train-mode forward with dropout needs an rng")
        tokens = Tensor(patchify(x, self.cfg.patch_size))
        h = self.patch_embed(tokens) + self.pos_embed
        for block in self.blocks:
            h = block(h, train, rng, dataset_ids)
        pooled = h.mean(axis=1)
        if mode == "pretrain":
            if self.proj is None:
                raise ContractError("projection head was dropped; cannot pretrain")
            fc1, fc2 = self.proj
            return fc2(relu(fc1(pooled)))
        if self.classifier is None:
            raise ContractError("no classifier attached; call attach_classifier first")
        return self.classifier(pooled)

    # -- parameter bookkeeping ---------------------------------------------

    def parameters(self):
        out = {}
        out.update(self.patch_embed.parameters())
        out["pos_embed"] = self.pos_embed
        for block in self.blocks:
            out.update(block.parameters())
        if self.proj is not None:
            out.update(self.proj[0].parameters())
            out.update(self.proj[1].parameters())
        if self.classifier is not None:
            out.update(self.classifier.parameters())
        return out

    def protonorm_layers(self):
        out = []
        for block in self.blocks:
            out.extend([block.norm1, block.norm2])
        return out

    def banks(self):
        return [l.bank for l in self.protonorm_layers() if l.bank is not None]

    def set_banks_frozen(self, frozen):
        for bank in self.banks():
            bank.frozen = bool(frozen)

    def apply_ema_updates(self):
        for bank in self.banks():
            bank.apply_ema()


MacCount = namedtuple("MacCount", ["core", "gating"])


def count_parameters(cfg):
    """Closed-form scalar parameter count of ``Encoder(cfg)`` (classifier
    excluded: it does not exist until a class count is known).

    Versus plain-LN, n routes add, across the 2*n_layers sites,
    2*n_layers*(n-1)*2*d extra affine entries; prototype gating adds
    2*n_layers*n*d prototype entries on top.
    """
    d, t = cfg.d_model, cfg.n_tokens
    embed = cfg.patch_size * d + d
    pos = t * d
    attn = 4 * (d * d + d)
    ffn = d * 4 * d + 4 * d + 4 * d * d + d
    n = 1 if cfg.norm_mode == "plain-LN" else cfg.n_prototypes
    site = n * 2 * d
    if cfg.norm_mode == "proto-gated":
        site += n * d
    block = attn + ffn + 2 * site
    proj = d * d + d + d * cfg.proj_dim + cfg.proj_dim
    return embed + pos + cfg.n_layers * block + proj


def count_forward_macs(cfg):
    """Multiply-accumulate count of one sample's forward pass through the
    matmuls (embedding, attention, feed-forward, projection head).

    The core term is independent of the prototype count: exactly one
    LayerNorm is applied per sample regardless of n. The only n-dependent
    work is proto-gated routing, reported separately: each of the
    2*n_layers sites scores a sample against its n prototypes in the
    routing GEMM, features @ P^T, n*d MACs per site. The bank's row norms
    (n*d per site per batch) and the direct distances of rows within
    rounding of a tie are not counted.
    """
    d, t = cfg.d_model, cfg.n_tokens
    core = t * cfg.patch_size * d
    core += cfg.n_layers * (12 * t * d * d + 2 * t * t * d)
    core += d * d + d * cfg.proj_dim
    gating = 2 * cfg.n_layers * cfg.n_prototypes * d if cfg.norm_mode == "proto-gated" else 0
    return MacCount(core=core, gating=gating)
