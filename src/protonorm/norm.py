"""Prototype-gated dynamic layer normalization.

A ProtoNormLayer owns one [n, d] gamma array, one [n, d] beta array, one
variance epsilon and a bank of n prototype vectors: row i of gamma and
beta is the affine pair of prototype i. Each sample's pooled features
pick the nearest prototype (hard argmin over squared Euclidean distance,
gradient-free) and the whole sample is normalized, then scaled and
shifted by that prototype's rows. A batch is routed by one GEMM, scoring
every pair as ||p||^2 - 2 f.p; a row whose best two scores lie within a
rounding bound of each other is decided again by the distances written
out, so every decision, ties to the lowest index included, is the one
those distances make (see ``_nearest``). Prototypes drift toward the
features routed to them via an exponential moving average and are kept
mutually distinct by an orthogonality penalty on the prototype matrix.

Routing modes:
  ``proto-gated``      nearest-prototype selection (the mechanism itself)
  ``dataset-indexed``  route by dataset of origin; no prototype bank
  ``plain-LN``         one shared LayerNorm (n = 1); no prototype bank
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, InputError, ShapeError
from .tensor import Tensor, layer_norm

MODES = ("proto-gated", "dataset-indexed", "plain-LN")
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny

__all__ = [
    "MODES",
    "PrototypeBank",
    "ProtoNormLayer",
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


def _direct_nearest(features, P):
    """Row-wise argmin of sum_k (f_k - p_k)^2 over the prototypes, written
    out as distances: one [B, n, d] difference, squared in place and
    summed over d."""
    diff = features[:, None, :] - P[None, :, :]
    np.multiply(diff, diff, out=diff)
    return np.argmin(diff.sum(axis=2), axis=1)


def _nearest(features, P):
    """The index of the prototype row of P [n, d] nearest each row of
    ``features`` [B, d], with the decisions of ``_direct_nearest``.

    One GEMM scores every pair as ||p||^2 - 2 f.p, which is ||f - p||^2
    less the row constant ||f||^2, so the argmin is the same in exact
    arithmetic. In floating point the computed score is within
    gamma_{d+1} R^2 of the exact one, and the computed direct distance
    within gamma_{d+3} R^2 of its own, where R = max||f|| + max||p|| and
    gamma_k ~ k eps / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1). Rounding can so move the difference of two scores
    by at most (2d + 4) eps R^2 under both formulas together, so a row
    whose best score beats every other by more than tol = 4 (d + 3) eps
    R^2, over twice that, has the same strict winner under both. Every
    other row is decided by ``_direct_nearest``, so ties still go to the
    lowest index. A batch where 2 R^2, the bound on every score and
    partial sum, overflows is an InputError: its distances could overflow
    too, and no decision made on them would mean anything. R is taken as
    sqrt(d) max|f| + max||p||, the latter from the row norms the scores
    use; tol's margin covers their rounding, and its absolute term at the
    smallest normal number covers results that underflow."""
    d = P.shape[1]
    pp = (P * P).sum(axis=1)
    max_f = float(np.abs(features).max(initial=0.0))
    max_p = math.sqrt(float(pp.max(initial=0.0)))
    R = math.sqrt(d) * max_f + max_p
    if not math.isfinite(2.0 * R * R):
        raise InputError(
            f"gate features too large to route: max |f| = {max_f:.6g} with "
            f"max ||p|| = {max_p:.6g}, so the routing scores could overflow"
        )
    scores = features @ P.T
    scores *= -2.0
    scores += pp
    tol = 4.0 * (d + 3) * (_EPS * R * R + _TINY)
    idx = np.argmin(scores, axis=1)
    near = scores <= (scores[np.arange(len(idx)), idx] + tol)[:, None]
    if np.count_nonzero(near) > len(idx):  # some row has a second score within tol
        close = np.count_nonzero(near, axis=1) > 1
        idx[close] = _direct_nearest(features[close], P)
    return idx


def check_site_settings(ema_alpha, epsilon):
    """Raise ConfigError unless ``ema_alpha`` lies in (0, 1] and the
    variance ``epsilon`` is finite and > 0. The encoder configuration and
    a norm site built on its own both check through here."""
    if not 0.0 < ema_alpha <= 1.0:
        raise ConfigError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
    if not 0.0 < epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")


class PrototypeBank:
    """n orthonormal prototype rows in d dims and the batch features
    staged for their EMA step. The bank is frozen exactly when its
    prototype tensor takes no gradient."""

    def __init__(self, n, d, rng, ema_alpha=0.05):
        self.P = Tensor(init_orthogonal(n, d, rng), requires_grad=True)
        self.ema_alpha = float(ema_alpha)
        self._sum = np.zeros((n, d))
        self._count = np.zeros(n, dtype=np.int64)

    @property
    def frozen(self):
        """A frozen bank's prototypes get neither a gradient (not even
        from the orthogonality penalty) nor an EMA step."""
        return not self.P.requires_grad

    @frozen.setter
    def frozen(self, value):
        self.P.requires_grad = not value

    def stage(self, features, indices):
        """Accumulate this batch's gating features per selected prototype;
        consumed by ``apply_ema``."""
        np.add.at(self._sum, indices, features)
        self._count += np.bincount(indices, minlength=len(self._count))

    def apply_ema(self):
        """Pull each prototype with staged features toward their mean,
        p <- (1 - alpha) * p + alpha * mean, and clear the stage. Runs
        outside the differentiation graph, so call it only after
        backward/optimizer work on any graph that references the bank.
        A frozen bank only clears its stage."""
        sel = np.nonzero(self._count)[0]
        means = self._sum[sel] / self._count[sel, None]
        self._sum[:] = 0.0
        self._count[:] = 0
        if self.frozen:
            return
        bad = ~np.isfinite(means).all(axis=1)
        if bad.any():
            raise InputError(f"EMA feature mean for prototype {sel[bad][0]} is non-finite")
        a = self.ema_alpha
        self.P.data[sel] = (1.0 - a) * self.P.data[sel] + a * means


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
    EMA prototype update, applied by ``bank.apply_ema`` (the training loop
    calls it after the optimizer step so in-flight graphs never see mutated
    prototypes).
    """

    def __init__(self, d, n, mode, rng=None, ema_alpha=0.05, epsilon=1e-8):
        if mode not in MODES:
            raise ConfigError(f"unknown norm mode {mode!r}; expected one of {MODES}")
        check_site_settings(ema_alpha, epsilon)
        if mode == "plain-LN":
            n = 1
        self.bank = None
        if mode == "proto-gated":
            if rng is None:
                raise ContractError("proto-gated mode needs an rng for prototype init")
            self.bank = PrototypeBank(n, d, rng, ema_alpha)
        self.gamma = Tensor(np.ones((n, d)), requires_grad=True)
        self.beta = Tensor(np.zeros((n, d)), requires_grad=True)
        self.mode = mode
        self.epsilon = float(epsilon)
        self.last_assignments = None  # diagnostics: each forward's own arrays, read only
        self.last_features = None

    @property
    def n(self):
        return self.gamma.shape[0]

    @property
    def dim(self):
        return self.gamma.shape[1]

    def select_indices(self, x_data, dataset_ids=None):
        """Routing decision per sample for an [B, T, d] activation array,
        and the token means it was taken on. In proto-gated mode that is
        the prototype nearest the token mean by squared Euclidean distance,
        ties to the lowest index: one GEMM scores the batch as
        ||p||^2 - 2 f.p, and a sample whose best two scores lie within
        tol = 4 (d + 3) eps R^2 (R bounding ||f|| + ||p||) is decided by
        the distances written out. Outside tol both formulas have the same
        strict winner despite rounding, so every decision is the one the
        distances make (``_nearest`` gives the bound). A batch whose scores
        could overflow is an InputError. Pure numpy; reused by audits to
        cross-check forward()."""
        features = x_data.mean(axis=1)
        if self.mode == "plain-LN":
            idx = np.zeros(x_data.shape[0], dtype=np.int64)
        elif self.mode == "dataset-indexed":
            if dataset_ids is None:
                raise ContractError("dataset-indexed mode requires dataset_ids")
            idx = np.array(dataset_ids, dtype=np.int64)  # never the caller's array
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
            idx = _nearest(features, self.bank.P.data)
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
        self.last_assignments, self.last_features = idx, features
        if train and self.mode == "proto-gated" and not self.bank.frozen:
            self.bank.stage(features, idx)
        return layer_norm(x, idx, self.gamma, self.beta, self.epsilon)

    def parameters(self):
        out = {"gamma": self.gamma, "beta": self.beta}
        if self.bank is not None:
            out["prototypes"] = self.bank.P
        return out
