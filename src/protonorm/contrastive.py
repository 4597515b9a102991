"""Augmentations and losses for contrastive pretraining.

Two views per sample: a circular time shift, and a per-sample scale with
additive Gaussian jitter. The views are pulled together by a normalized
temperature-scaled cross-entropy over cosine similarities, combined with
the prototype orthogonality penalty. That loss is ``cross_entropy``, the
one that also scores the fine-tuning classifier, against each view's twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor, logsumexp, sqrt

__all__ = [
    "AugmentConfig",
    "NtXentConfig",
    "augment_pair",
    "cross_entropy",
    "nt_xent",
    "total_loss",
]


@dataclass
class AugmentConfig:
    max_shift_fraction: float = 0.2
    scale_range: tuple[float, ...] = (0.8, 1.2)
    jitter_std: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.max_shift_fraction <= 0.5:
            raise ConfigError(
                f"max_shift_fraction must be in [0, 0.5], got {self.max_shift_fraction}"
            )
        lo, hi = self.scale_range
        if not 0.0 < lo <= hi < math.inf:
            raise ConfigError(
                f"scale_range must satisfy 0 < lo <= hi < inf, got {self.scale_range}"
            )
        if not 0.0 <= self.jitter_std < math.inf:
            raise ConfigError(f"jitter_std must be finite and >= 0, got {self.jitter_std}")


@dataclass
class NtXentConfig:
    temperature: float = 0.2
    lambda_orth: float = 0.001

    def __post_init__(self):
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if not 0.0 <= self.lambda_orth < math.inf:
            raise ConfigError(
                f"lambda_orth must be finite and >= 0, got {self.lambda_orth}"
            )


def augment_pair(x, cfg, rng):
    """Two views of a [C, L] series.

    View 1 shifts the series circularly by a uniform integer within
    +-max_shift_fraction * L, so no signal energy is lost at the edges.
    View 2 multiplies by one uniform scale from scale_range and adds
    i.i.d. Gaussian jitter. Draw order is fixed (shift, scale, jitter)
    so a seeded generator reproduces the pair exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InputError("augment_pair input contains non-finite values")
    length = x.shape[-1]
    span = int(cfg.max_shift_fraction * length)
    shift = int(rng.integers(-span, span + 1))
    view1 = np.roll(x, shift, axis=-1)
    scale = rng.uniform(cfg.scale_range[0], cfg.scale_range[1])
    view2 = x * scale
    if cfg.jitter_std > 0.0:
        view2 = view2 + rng.normal(0.0, cfg.jitter_std, x.shape)
    return view1, view2


def _check_labels(labels, n_classes, what="label"):
    """Reject an integer class label outside ``[0, n_classes)``."""
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise InputError(f"{what} {labels[np.argmax(bad)]} is outside [0, {n_classes})")


def cross_entropy(logits, labels):
    """Mean cross-entropy of [B, K] logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} != batch {b}")
    _check_labels(labels, k)
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    lse = logsumexp(logits, axis=1)
    picked = (logits * onehot).sum(axis=1)
    return (lse - picked).mean()


def nt_xent(z, temperature):
    """Contrastive loss over 2N stacked view embeddings.

    Row i pairs with row (i + N) mod 2N: the first N rows are one view of
    each sample, the last N rows the other. Rows are L2-normalized, so
    similarities are cosines; each anchor's scaled similarities to all
    other rows (self excluded) are its logits, and the loss is their
    cross-entropy against the positive, averaged over all 2N anchors.
    """
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    z = z if isinstance(z, Tensor) else Tensor(z)
    rows = z.shape[0]
    if z.ndim != 2 or rows < 2 or rows % 2 != 0:
        raise InputError(f"nt_xent needs a [2N, D] embedding matrix, got {tuple(z.shape)}")
    if np.any((z.data * z.data).sum(axis=1) == 0.0):
        raise InputError("nt_xent embeddings contain a zero-norm row")
    n = rows // 2

    norms = sqrt((z * z).sum(axis=1, keepdims=True))
    zn = z / norms
    sims = zn @ zn.transpose()
    # Self-similarities are pushed far below any cosine so they underflow
    # out of the log-sum-exp exactly.
    mask = np.where(np.eye(rows, dtype=bool), -1e9, 0.0)
    logits = sims * (1.0 / temperature) + mask
    return cross_entropy(logits, (np.arange(rows) + n) % rows)


def total_loss(nt, orth_losses, lambda_orth):
    """Pretraining objective: contrastive term plus lambda times the sum
    of per-layer orthogonality penalties. lambda == 0 (or no penalties)
    returns the contrastive term untouched."""
    if lambda_orth < 0.0:
        raise ConfigError(f"lambda_orth must be >= 0, got {lambda_orth}")
    orth_losses = list(orth_losses)
    if lambda_orth == 0.0 or not orth_losses:
        return nt
    penalty = orth_losses[0]
    for term in orth_losses[1:]:
        penalty = penalty + term
    return nt + lambda_orth * penalty
