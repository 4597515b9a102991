"""Prototype-gated dynamic layer normalization.

A ProtoNormLayer owns one [n, d] gamma array, one [n, d] beta array, one
variance epsilon and a bank of n prototype vectors: row i of gamma and
beta is the affine pair of prototype i. Each sample's pooled features
pick the nearest prototype (hard argmin over squared Euclidean distance,
gradient-free) and the whole sample is normalized, then scaled and
shifted by that prototype's rows. Prototypes drift toward the features
routed to them via an exponential moving average and are kept mutually
distinct by an orthogonality penalty on the prototype matrix.

Routing modes:
  ``proto-gated``      nearest-prototype selection (the mechanism itself)
  ``dataset-indexed``  route by dataset of origin; no prototype bank
  ``plain-LN``         one shared LayerNorm (n = 1); no prototype bank
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, InputError, ShapeError
from .tensor import Tensor, layer_norm

MODES = ("proto-gated", "dataset-indexed", "plain-LN")

__all__ = [
    "MODES",
    "PrototypeBank",
    "ProtoNormLayer",
    "ema_update",
    "init_orthogonal",
    "orthogonality_loss",
]


def init_orthogonal(n, d, rng):
    """n mutually orthonormal rows in d dims via Gram-Schmidt on seeded
    Gaussian draws. Deterministic given the generator state."""
    if n > d:
        raise ConfigError(
            f"cannot orthonormalize {n} prototypes in {d} dimensions; "
            f"raise d_model or lower n_prototypes"
        )
    rows = np.empty((n, d))
    i = 0
    while i < n:
        v = rng.standard_normal(d)
        for j in range(i):
            v = v - (rows[j] @ v) * rows[j]
        nrm = np.linalg.norm(v)
        if nrm < 1e-8:  # essentially in the span of earlier rows; redraw
            continue
        rows[i] = v / nrm
        i += 1
    return rows


class PrototypeBank:
    """n prototype rows with their EMA refinement state. The bank is
    frozen exactly when its prototype tensor takes no gradient."""

    def __init__(self, P, ema_alpha=0.05, frozen=False):
        self.P = P if isinstance(P, Tensor) else Tensor(P)
        if self.P.ndim != 2 or self.P.shape[0] < 1:
            raise ShapeError(f"prototype matrix must be [n, d], got {self.P.shape}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ConfigError(f"ema_alpha must lie in (0, 1], got {ema_alpha}")
        if not np.isfinite(self.P.data).all():
            raise InputError("prototype matrix contains non-finite entries")
        self.ema_alpha = float(ema_alpha)
        self.frozen = frozen
        self._pending_sum = np.zeros_like(self.P.data)
        self._pending_count = np.zeros(self.n, dtype=np.int64)

    @classmethod
    def create(cls, n, d, rng, ema_alpha=0.05):
        return cls(init_orthogonal(n, d, rng), ema_alpha=ema_alpha)

    @property
    def frozen(self):
        """A frozen bank's prototypes get neither a gradient (not even
        from the orthogonality penalty) nor an EMA step."""
        return not self.P.requires_grad

    @frozen.setter
    def frozen(self, value):
        self.P.requires_grad = not value

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def dim(self):
        return self.P.shape[1]

    def stage(self, features, indices):
        """Accumulate this batch's gating features per selected prototype;
        consumed later by ``ProtoNormLayer.apply_ema``."""
        np.add.at(self._pending_sum, indices, features)
        self._pending_count += np.bincount(indices, minlength=self.n)

    def take_pending_means(self):
        sel = np.nonzero(self._pending_count)[0]
        means = {
            int(i): self._pending_sum[i] / self._pending_count[i] for i in sel
        }
        self._pending_sum[:] = 0.0
        self._pending_count[:] = 0
        return means


def ema_update(bank, assigned_means):
    """Pull each selected prototype toward the mean of its assigned batch
    features: p <- (1 - alpha) * p + alpha * mean. Runs outside the
    differentiation graph, so call it only after backward/optimizer work
    on any graph that references the bank.

    A frozen bank makes this a no-op rather than an error.
    """
    if bank.frozen:
        return
    a = bank.ema_alpha
    for i, mean in assigned_means.items():
        mean = np.asarray(mean, dtype=np.float64)
        if not np.isfinite(mean).all():
            raise InputError(f"EMA feature mean for prototype {i} is non-finite")
        bank.P.data[i] = (1.0 - a) * bank.P.data[i] + a * mean


def orthogonality_loss(P):
    """Squared Frobenius distance of P P^T from the identity.

    Zero exactly when the rows are orthonormal, which is only reachable
    for n <= d; for n > d the loss is still defined but stays positive.
    Differentiable with respect to P.
    """
    P = P if isinstance(P, Tensor) else Tensor(P)
    n = P.shape[0]
    gram = P @ P.transpose()
    diff = gram - np.eye(n)
    return (diff * diff).sum()


class ProtoNormLayer:
    """Drop-in replacement for one LayerNorm site.

    Per forward pass each sample is routed, as a whole, to exactly one row
    of the layer's gamma and beta arrays. The routing feature is the mean
    of the sample's tokens, taken outside the graph so no gradient flows
    through the gate. In train mode the routed features are staged for an
    EMA prototype update, applied by ``apply_ema`` (the training loop calls
    it after the optimizer step so in-flight graphs never see mutated
    prototypes).
    """

    def __init__(self, gamma, beta, mode, bank=None, epsilon=1e-8):
        if mode not in MODES:
            raise ConfigError(f"unknown norm mode {mode!r}; expected one of {MODES}")
        if not 0.0 < epsilon < np.inf:
            raise ConfigError(f"layer norm epsilon must be finite and > 0, got {epsilon}")
        self.gamma = gamma if isinstance(gamma, Tensor) else Tensor(gamma, requires_grad=True)
        self.beta = beta if isinstance(beta, Tensor) else Tensor(beta, requires_grad=True)
        if (
            self.gamma.shape != self.beta.shape
            or self.gamma.ndim != 2
            or self.gamma.shape[0] < 1
        ):
            raise ShapeError(
                f"gamma/beta must be equal [n, d] arrays with n >= 1, got "
                f"{self.gamma.shape} and {self.beta.shape}"
            )
        if mode == "proto-gated":
            if bank is None:
                raise ContractError("proto-gated mode requires a prototype bank")
            if bank.n != self.n:
                raise ContractError(
                    f"bank size {bank.n} != number of gamma/beta rows {self.n}"
                )
            if bank.dim != self.dim:
                raise ShapeError(
                    f"prototype dim {bank.dim} != feature dim {self.dim}"
                )
        self.mode = mode
        self.bank = bank
        self.epsilon = float(epsilon)
        self.last_assignments = None  # diagnostics, refreshed each forward
        self.last_features = None

    @classmethod
    def create(cls, d, n, mode, rng=None, ema_alpha=0.05, epsilon=1e-8):
        bank = None
        if mode == "plain-LN":
            n = 1
        elif mode == "proto-gated":
            if rng is None:
                raise ContractError("proto-gated mode needs an rng for prototype init")
            bank = PrototypeBank.create(n, d, rng, ema_alpha=ema_alpha)
        return cls(np.ones((n, d)), np.zeros((n, d)), mode, bank, epsilon)

    @property
    def n(self):
        return self.gamma.shape[0]

    @property
    def dim(self):
        return self.gamma.shape[1]

    def select_indices(self, x_data, dataset_ids=None):
        """Routing decision per sample for an [B, T, d] activation array:
        the nearest prototype by squared Euclidean distance to the token
        mean, ties to the lowest index. Pure numpy; reused by audits to
        cross-check forward()."""
        features = x_data.mean(axis=1)
        if self.mode == "plain-LN":
            idx = np.zeros(x_data.shape[0], dtype=np.int64)
        elif self.mode == "dataset-indexed":
            if dataset_ids is None:
                raise ContractError("dataset-indexed mode requires dataset_ids")
            idx = np.asarray(dataset_ids, dtype=np.int64)
            if idx.shape != (x_data.shape[0],):
                raise ContractError(
                    f"dataset_ids shape {idx.shape} != batch size {x_data.shape[0]}"
                )
            if idx.min() < 0 or idx.max() >= self.n:
                raise ContractError(
                    f"dataset_ids must lie in [0, {self.n}), got "
                    f"[{idx.min()}, {idx.max()}]"
                )
        else:
            if not np.isfinite(features).all():
                raise InputError("gate features contain non-finite values")
            diff = features[:, None, :] - self.bank.P.data[None, :, :]
            idx = np.argmin((diff * diff).sum(axis=2), axis=1)
        return idx, features

    def forward(self, x, train=False, dataset_ids=None):
        """Normalize [B, T, d]; every token of a sample goes through the
        same selected gamma/beta row.

        All three modes share one arithmetic path (plain mode simply
        routes every sample to row 0), so ablation runs that should
        coincide, like a singleton frozen bank versus plain LN, coincide
        bit for bit through both the forward and the backward pass.
        """
        if x.shape[-1] != self.dim or x.ndim != 3:
            raise ShapeError(
                f"expected [B, T, {self.dim}] input, got {tuple(x.shape)}"
            )
        idx, features = self.select_indices(x.data, dataset_ids)
        self.last_assignments = idx.copy()
        self.last_features = features.copy()
        if train and self.mode == "proto-gated" and not self.bank.frozen:
            self.bank.stage(features, idx)
        return layer_norm(x, idx, self.gamma, self.beta, self.epsilon)

    def apply_ema(self):
        """Consume staged features and refresh the prototypes."""
        if self.bank is None:
            return
        means = self.bank.take_pending_means()
        if means:
            ema_update(self.bank, means)

    def parameters(self):
        out = {"gamma": self.gamma, "beta": self.beta}
        if self.bank is not None:
            out["prototypes"] = self.bank.P
        return out
