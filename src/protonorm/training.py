"""Optimizer, schedule, pretrain/fine-tune loops, and metrics.

Everything here is engineered for bit-reproducible runs: randomness lives
in named generator streams (parameter init, prototype init, augmentation,
dropout, shuffling, subset sampling, classifier init), the loop position
(epoch, in-epoch batch order and index) is part of the serialized state,
and resuming from a checkpoint continues the exact arithmetic of an
uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .contrastive import augment_pair, nt_xent, total_loss
from .data import Dataset, batches, batches_from_order, flatten_pool
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    TrainingDiverged,
)
from .norm import orthogonality_loss
from .tensor import concat, logsumexp, no_grad

__all__ = [
    "FinetuneResult",
    "Metrics",
    "OptimConfig",
    "PretrainResult",
    "RngStreams",
    "TrainState",
    "adamw_step",
    "cosine_warmup_lr",
    "cross_entropy",
    "evaluate",
    "finetune",
    "pretrain",
    "stratified_subset",
]


class RngStreams:
    """Independent named generators spawned from one master seed.

    Keeping concerns on separate streams means, e.g., that initializing
    prototype banks does not perturb the dropout or shuffle sequences, so
    runs that differ only in norm mode stay comparable draw for draw.
    """

    NAMES = ("params", "protos", "augment", "dropout", "shuffle", "subset", "head")

    def __init__(self, generators):
        for name in self.NAMES:
            if name not in generators:
                raise ConfigError(f"missing rng stream {name!r}")
        self._gens = dict(generators)

    @classmethod
    def from_seed(cls, seed):
        children = np.random.SeedSequence(seed).spawn(len(cls.NAMES))
        return cls(
            {name: np.random.Generator(np.random.PCG64(child))
             for name, child in zip(cls.NAMES, children)}
        )

    def __getattr__(self, name):
        if name in RngStreams.NAMES:
            return self._gens[name]
        raise AttributeError(name)

    def state(self):
        return {name: self._gens[name].bit_generator.state for name in self.NAMES}

    @classmethod
    def from_state(cls, states):
        gens = {}
        for name in cls.NAMES:
            gen = np.random.Generator(np.random.PCG64())
            gen.bit_generator.state = states[name]
            gens[name] = gen
        return cls(gens)


@dataclass
class OptimConfig:
    lr_peak: float = 1e-3
    weight_decay: float = 1e-5
    betas: tuple[float, ...] = (0.9, 0.999)
    eps: float = 1e-8
    warmup_steps: int = 2000
    total_steps: int | None = None
    lr_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lr_peak < math.inf:
            raise ConfigError(f"lr_peak must be finite and > 0, got {self.lr_peak}")
        if not 0.0 <= self.lr_floor <= self.lr_peak:
            raise ConfigError(
                f"lr_floor must lie in [0, lr_peak], got {self.lr_floor}"
            )
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError(f"betas must be two values in [0, 1), got {self.betas}")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.total_steps is not None and self.warmup_steps > self.total_steps:
            raise ConfigError(
                f"warmup_steps {self.warmup_steps} exceeds total_steps "
                f"{self.total_steps}; override warmup for short runs"
            )

    def resolved(self, total_steps):
        if self.total_steps is not None:
            return self
        return replace(self, total_steps=total_steps)


@dataclass
class TrainState:
    """Everything a checkpoint must carry to resume mid-run bitwise."""

    streams: RngStreams
    step: int = 0
    epoch: int = 0
    batch_idx: int = 0
    batch_order: np.ndarray | None = None
    moments: dict = field(default_factory=dict)  # name -> [m, v]
    best_val: float = math.inf


def cosine_warmup_lr(step, cfg):
    """Linear ramp to lr_peak over the warmup, then half-cosine decay to
    lr_floor at total_steps (clamped beyond)."""
    if cfg.total_steps is None:
        raise ContractError("total_steps must be resolved before scheduling")
    if step < 0:
        raise InputError(f"schedule step must be >= 0, got {step}")
    w = cfg.warmup_steps
    if w > cfg.total_steps:
        raise ConfigError(
            f"warmup_steps {w} exceeds total_steps {cfg.total_steps}"
        )
    if w > 0 and step < w:
        return cfg.lr_peak * step / w
    span = cfg.total_steps - w
    if span == 0:
        return cfg.lr_peak if step <= w else cfg.lr_floor
    progress = min((step - w) / span, 1.0)
    return cfg.lr_floor + (cfg.lr_peak - cfg.lr_floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(params, state, lr, cfg):
    """One decoupled-weight-decay Adam update over named parameters.

    Weight decay shrinks the parameter multiplicatively before the
    adaptive step. Parameters whose grad is None are skipped entirely, so
    e.g. prototypes receive no decay when the orthogonality penalty is
    off, and a frozen bank (whose prototypes take no gradient) is never
    touched. A non-finite gradient aborts, naming the parameter.
    """
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
        if name not in state.moments:
            state.moments[name] = [np.zeros_like(p.data), np.zeros_like(p.data)]
        m, v = state.moments[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.moments[name] = [m, v]
        if cfg.weight_decay:
            p.data = p.data * (1.0 - lr * cfg.weight_decay)
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)


# -- metrics ---------------------------------------------------------------


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    per_class_f1: np.ndarray
    confusion: np.ndarray
    assignment_histograms: dict = field(default_factory=dict)

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes):
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.size == 0:
            raise InputError("cannot compute metrics on an empty evaluation set")
        conf = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(conf, (y_true, y_pred), 1)
        accuracy = np.trace(conf) / conf.sum()
        f1 = np.zeros(n_classes)
        for k in range(n_classes):
            tp = conf[k, k]
            support = conf[k].sum()
            predicted = conf[:, k].sum()
            # zero-support (and zero-prediction) classes contribute F1 = 0
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            f1[k] = (
                2.0 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
        return cls(
            accuracy=float(accuracy),
            macro_f1=float(f1.mean()),
            per_class_f1=f1,
            confusion=conf,
        )

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class_f1": [float(v) for v in self.per_class_f1],
            "confusion": self.confusion.tolist(),
            "assignment_histograms": self.assignment_histograms,
        }


def cross_entropy(logits, labels):
    """Mean cross-entropy of [B, K] logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} != batch {b}")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    lse = logsumexp(logits, axis=1)
    picked = (logits * onehot).sum(axis=1)
    return (lse - picked).mean()


def _count_assignments(histograms, encoder):
    """Add the routing of the encoder's last forward pass to ``histograms``."""
    for i, layer in enumerate(encoder.protonorm_layers()):
        counts = np.bincount(layer.last_assignments, minlength=layer.n)
        histograms[f"layer{i}"] = (counts + histograms.get(f"layer{i}", 0)).tolist()


def evaluate(encoder, ds, batch_size=64):
    """Accuracy, macro-F1 and routing histograms of the classifier head on a
    dataset, from this pass alone. The result is independent of batching."""
    if len(ds) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    if encoder.classifier is None:
        raise ContractError("encoder has no classifier head")
    if int(ds.labels.max()) >= encoder.n_classes:
        raise InputError(
            f"dataset has label {int(ds.labels.max())} but the model head "
            f"covers {encoder.n_classes} classes"
        )
    preds = []
    trues = []
    histograms = {}
    with no_grad():
        for batch in batches(ds, batch_size):
            logits = encoder.encode(
                batch.x, "eval", train=False, dataset_ids=batch.dataset_ids
            )
            _count_assignments(histograms, encoder)
            preds.append(np.argmax(logits.data, axis=1))
            trues.append(batch.labels)
    metrics = Metrics.from_predictions(
        np.concatenate(trues), np.concatenate(preds), encoder.n_classes
    )
    return replace(metrics, assignment_histograms=histograms)


# -- pretraining -----------------------------------------------------------


@dataclass
class PretrainResult:
    encoder: object
    state: TrainState
    rows: list  # (step, lr, loss_nt, loss_orth, loss_total)
    assignment_histograms: dict  # routing of both views of each step in rows
    interrupted: bool = False
    best_checkpoint: str | None = None
    final_checkpoint: str | None = None


def _derived_rng(seed, *tags):
    """A generator of its own for one purpose, keyed by the seed and tags."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def pretrain_losses(
    encoder, batch, aug_cfg, nt_cfg, aug_rng, dropout_rng, train=True, histograms=None
):
    """(nt, orth_terms, total) for one batch. The orthogonality penalty is
    only computed when its weight is nonzero, so a lambda = 0 run is
    arithmetically identical to one with no banks at all. The routing of
    both views is added to ``histograms`` when it is given."""
    v1 = np.empty_like(batch.x)
    v2 = np.empty_like(batch.x)
    for i in range(len(batch)):
        v1[i], v2[i] = augment_pair(batch.x[i], aug_cfg, aug_rng)
    z = []
    for view in (v1, v2):
        z.append(encoder.encode(
            view, "pretrain", train=train, rng=dropout_rng, dataset_ids=batch.dataset_ids
        ))
        if histograms is not None:
            _count_assignments(histograms, encoder)
    nt = nt_xent(concat(z, axis=0), nt_cfg.temperature)
    if nt_cfg.lambda_orth > 0.0:
        orth_terms = [orthogonality_loss(b.P) for b in encoder.banks()]
    else:
        orth_terms = []
    return nt, orth_terms, total_loss(nt, orth_terms, nt_cfg.lambda_orth)


def _validation_loss(encoder, val_pool, aug_cfg, nt_cfg, seed, epoch, batch_size):
    """Mean NT-Xent over the validation pool; the orthogonality penalty
    measures the prototypes, not contrastive quality, so it is left out."""
    rng = _derived_rng(seed, epoch, 0x56414C)
    losses = []
    with no_grad():
        for batch in batches(val_pool, batch_size):
            nt, _, _ = pretrain_losses(
                encoder, batch, aug_cfg, nt_cfg, rng, None, train=False
            )
            losses.append(nt.item())
    return float(np.mean(losses))


def pretrain(
    pool,
    encoder,
    aug_cfg,
    nt_cfg,
    optim_cfg,
    *,
    epochs,
    batch_size,
    seed,
    state=None,
    val_pool=None,
    out_dir=None,
    config_dict=None,
    stop_after_steps=None,
):
    """Contrastive pretraining over a (possibly multi-dataset) pool.

    Per step: augment a pair of views, encode both, combine the
    contrastive loss with the weighted orthogonality penalty, backprop,
    AdamW, then apply the staged EMA prototype updates. With ``out_dir``
    set, checkpoints land there (last good epoch, best validation, final)
    and divergence aborts with the last good checkpoint retained. The best
    epoch is the one with the lowest validation NT-Xent: the orthogonality
    penalty does not take part in choosing ``best.ckpt``.
    ``stop_after_steps`` interrupts mid-run for checkpoint-resume tests.
    """
    from .checkpoint import save_checkpoint

    if state is None:
        state = TrainState(streams=RngStreams.from_seed(seed))
    streams = state.streams
    series, labels, ids = flatten_pool(pool)
    n = len(series)
    steps_per_epoch = math.ceil(n / batch_size)
    optim = optim_cfg.resolved(epochs * steps_per_epoch)
    all_params = encoder.parameters()
    rows = []
    histograms = {}
    paths = {"best": None, "final": None, "last": None}

    def checkpoint_to(tag):
        if out_dir is None:
            return None
        path = f"{out_dir}/{tag}.ckpt"
        save_checkpoint(path, encoder, state, config_dict or {})
        paths[tag] = path
        return path

    for epoch in range(state.epoch, epochs):
        if state.batch_order is None:
            state.batch_order = streams.shuffle.permutation(n)
            state.batch_idx = 0
        batch_list = list(
            batches_from_order(series, labels, ids, state.batch_order, batch_size)
        )
        while state.batch_idx < len(batch_list):
            if stop_after_steps is not None and state.step >= stop_after_steps:
                checkpoint_to("interrupt")
                return PretrainResult(
                    encoder,
                    state,
                    rows,
                    histograms,
                    interrupted=True,
                    final_checkpoint=paths.get("interrupt"),
                )
            batch = batch_list[state.batch_idx]
            nt, orth_terms, loss = pretrain_losses(
                encoder, batch, aug_cfg, nt_cfg, streams.augment, streams.dropout,
                histograms=histograms,
            )
            nt_val = nt.item()
            orth_val = float(sum(t.item() for t in orth_terms))
            total_val = loss.item()
            if not math.isfinite(total_val):
                raise TrainingDiverged(
                    f"pretraining loss became non-finite at step {state.step + 1}"
                    + (
                        f"; last good checkpoint: {paths['last']}"
                        if paths["last"]
                        else ""
                    )
                )
            for p in all_params.values():
                p.grad = None
            loss.backward()
            lr = cosine_warmup_lr(state.step + 1, optim)
            adamw_step(all_params, state, lr, optim)
            encoder.apply_ema_updates()
            state.batch_idx += 1
            rows.append((state.step, lr, nt_val, orth_val, total_val))
        state.batch_order = None
        state.batch_idx = 0
        state.epoch = epoch + 1
        if val_pool is not None:
            val_loss = _validation_loss(
                encoder, val_pool, aug_cfg, nt_cfg, seed, epoch, batch_size
            )
            if val_loss < state.best_val:
                state.best_val = val_loss
                checkpoint_to("best")
        checkpoint_to("last")

    final = checkpoint_to("final")
    return PretrainResult(
        encoder,
        state,
        rows,
        histograms,
        best_checkpoint=paths["best"],
        final_checkpoint=final,
    )


# -- fine-tuning -------------------------------------------------------------


def stratified_subset(ds, n_labeled, rng, min_per_class=5):
    """Random labeled subset that keeps at least ``min_per_class`` samples
    of every class (so no class can be absent by construction). Pass
    ``"all"`` (or None) to use the full set."""
    if n_labeled in (None, "all") or n_labeled >= len(ds):
        return ds
    classes = np.unique(ds.labels)
    floor = min_per_class * len(classes)
    if n_labeled < floor:
        raise ConfigError(
            f"n_labeled {n_labeled} cannot honor {min_per_class} samples per "
            f"class over {len(classes)} classes (needs >= {floor})"
        )
    chosen = []
    leftover = []
    for c in classes:
        idx = np.nonzero(ds.labels == c)[0]
        if len(idx) < min_per_class:
            raise InputError(
                f"class {int(c)} has only {len(idx)} samples; cannot keep "
                f"{min_per_class} per class"
            )
        picked = rng.choice(idx, size=min_per_class, replace=False)
        chosen.append(picked)
        leftover.append(np.setdiff1d(idx, picked))
    chosen = np.concatenate(chosen)
    leftover = np.concatenate(leftover)
    remaining = n_labeled - len(chosen)
    if remaining > 0:
        chosen = np.concatenate(
            [chosen, rng.choice(leftover, size=remaining, replace=False)]
        )
    chosen = np.sort(chosen)
    return Dataset(
        name=ds.name,
        series=[ds.series[i] for i in chosen],
        labels=ds.labels[chosen],
        dataset_id=ds.dataset_id,
        split=ds.split,
    )


@dataclass
class FinetuneResult:
    encoder: object
    metrics: Metrics
    rows: list  # (step, lr, train_loss)
    val_history: list  # (epoch, val_accuracy)
    best_epoch: int


def finetune(
    splits,
    encoder,
    optim_cfg,
    *,
    epochs,
    batch_size,
    n_labeled,
    seed,
):
    """Supervised fine-tuning with frozen prototype banks.

    The projection head is dropped, a fresh linear classifier attached,
    and every prototype bank frozen (gating stays active; EMA and
    gradient updates stop). Trains on a stratified labeled subset with
    cross-entropy, keeps the best validation-accuracy parameters, and
    reports held-out test metrics. Prototype bit-stability is asserted
    every epoch.
    """
    train_ds, val_ds, test_ds = splits
    state = TrainState(streams=RngStreams.from_seed(seed))
    streams = state.streams
    n_classes = int(
        max(
            train_ds.labels.max(),
            val_ds.labels.max() if len(val_ds) else 0,
            test_ds.labels.max() if len(test_ds) else 0,
        )
    ) + 1

    encoder.drop_projection_head()
    encoder.set_banks_frozen(True)
    encoder.attach_classifier(n_classes, streams.head)

    subset = stratified_subset(train_ds, n_labeled, streams.subset)
    proto_snapshot = {
        f"bank{i}": bank.P.data.copy() for i, bank in enumerate(encoder.banks())
    }

    steps_per_epoch = math.ceil(len(subset) / batch_size)
    optim = optim_cfg.resolved(epochs * steps_per_epoch)
    all_params = encoder.parameters()
    rows = []
    val_history = []
    best_acc = -1.0
    best_epoch = -1
    best_params = None

    for epoch in range(epochs):
        for batch in batches(subset, batch_size, shuffle_rng=streams.shuffle):
            logits = encoder.encode(
                batch.x,
                "finetune",
                train=True,
                rng=streams.dropout,
                dataset_ids=batch.dataset_ids,
            )
            loss = cross_entropy(logits, batch.labels)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(
                    f"fine-tuning loss became non-finite at step {state.step + 1}"
                )
            for p in all_params.values():
                p.grad = None
            loss.backward()
            lr = cosine_warmup_lr(state.step + 1, optim)
            adamw_step(all_params, state, lr, optim)
            rows.append((state.step, lr, loss_val))
        for i, bank in enumerate(encoder.banks()):
            if not np.array_equal(bank.P.data, proto_snapshot[f"bank{i}"]):
                raise ContractError(
                    f"frozen prototype bank {i} mutated during fine-tuning"
                )
        if len(val_ds):
            acc = evaluate(encoder, val_ds, batch_size).accuracy
            val_history.append((epoch, acc))
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                best_params = {
                    k: t.data.copy() for k, t in encoder.parameters().items()
                }

    if best_params is not None:
        for k, t in encoder.parameters().items():
            t.data = best_params[k].copy()
    metrics = evaluate(encoder, test_ds, batch_size)
    return FinetuneResult(encoder, metrics, rows, val_history, best_epoch)
