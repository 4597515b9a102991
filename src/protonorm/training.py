"""Optimizer, schedule, pretrain/fine-tune loops, and metrics.

Both loops take each epoch's batches from one generator, ``_epoch_batches``,
and every step through one ``_step`` (loss check, backward, lr, AdamW).
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

from .contrastive import _check_labels, augment_pair, cross_entropy, nt_xent, total_loss
from .data import _check_finite, batches, flatten_pool, link_atomic
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    ShapeError,
    TrainingDiverged,
)
from .norm import orthogonality_loss
from .tensor import concat, no_grad

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


def cosine_warmup_lr(step, cfg, total_steps):
    """Linear ramp to lr_peak over the warmup, then half-cosine decay to
    lr_floor at ``total_steps``, the run's step count that ``_schedule``
    works out (clamped beyond)."""
    if step < 0:
        raise InputError(f"schedule step must be >= 0, got {step}")
    w = cfg.warmup_steps
    if w > 0 and step < w:
        return cfg.lr_peak * step / w
    span = total_steps - w
    if span == 0:
        return cfg.lr_peak if step <= w else cfg.lr_floor
    progress = min((step - w) / span, 1.0)
    return cfg.lr_floor + (cfg.lr_peak - cfg.lr_floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


# Entries per block of `adamw_step`: a block of the gradient, both
# moments, the parameter and the two scratch buffers (6 x 128 KiB of
# float64) stay in a core's L2 through all of its passes.
ADAMW_CHUNK = 16384
# nditer flags of those blocks: 1-D blocks of up to ADAMW_CHUNK entries;
# an operand whose layout does not allow a view is copied into a buffer,
# which is written back when the iterator moves on or closes.
_BLOCKS = ["external_loop", "buffered", "zerosize_ok"]


def adamw_step(params, state, lr, cfg):
    """One decoupled-weight-decay Adam update over named parameters.

    Weight decay shrinks the parameter multiplicatively before the
    adaptive step. Parameters whose grad is None are skipped entirely, so
    e.g. prototypes receive no decay when the orthogonality penalty is
    off, and a frozen bank (whose prototypes take no gradient) is never
    touched. A gradient or moment whose shape differs from its parameter's
    raises ``ShapeError``, and a non-finite gradient ``TrainingDiverged``,
    naming the parameter, before any parameter, moment or ``state.step``
    changes. A gradient is finite when its squared norm ``g . g`` is, one
    ``np.dot`` per parameter; that sum also overflows when some |g| passes
    about 1e154, which counts as a divergence too.

    The step is Adam's efficient form (Kingma & Ba, 2015, section 2), with
    the bias corrections c1 = 1 - b1**t and c2 = 1 - b2**t folded into the
    step size alpha = lr*sqrt(c2)/c1 and eps_hat = eps*sqrt(c2), both taken
    once per step: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p = p*(1 - lr*wd) - alpha*m / (sqrt(v) + eps_hat). In exact arithmetic
    that is p*(1 - lr*wd) - lr*(m/c1) / (sqrt(v/c2) + eps); in floats the
    step differs from it by rounding only. Every operation is elementwise,
    so one ``np.nditer`` walks the gradient, both moments and the
    parameter together in blocks of up to ``ADAMW_CHUNK`` entries, and a
    block runs all of its 13 in-place passes (12 without weight decay),
    through two scratch buffers of one block, while it is in cache: a
    paper-scale parameter set is read from memory about once per step
    instead of once per pass. A block of an array in any layout is a view
    of it or a buffer that the iterator writes back, so every array is
    stepped in place.
    """
    stepped = {name: p for name, p in params.items() if p.grad is not None}
    for name, p in stepped.items():
        shapes = [a.shape for a in (p.grad, *state.moments.get(name, ()))]
        if set(shapes) != {p.data.shape}:
            raise ShapeError(
                f"parameter {name!r} has shape {p.data.shape}, but its "
                f"gradient and moments have shapes {shapes}"
            )
        g = p.grad.reshape(-1)
        with np.errstate(over="ignore"):  # an overflow is reported as divergence
            squared_norm = np.dot(g, g)
        if not math.isfinite(squared_norm):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    root_c2 = math.sqrt(1.0 - b2**t)
    alpha, eps_hat = lr * root_c2 / c1, cfg.eps * root_c2
    a1, a2 = 1.0 - b1, 1.0 - b2
    decay = 1.0 - lr * cfg.weight_decay if cfg.weight_decay else None
    scratch1, scratch2 = np.empty(ADAMW_CHUNK), np.empty(ADAMW_CHUNK)
    for name, p in stepped.items():
        if name not in state.moments:
            state.moments[name] = [np.zeros(p.data.shape), np.zeros(p.data.shape)]
        m, v = state.moments[name]
        rw = [["readonly"]] + [["readwrite"]] * 3
        with np.nditer([p.grad, m, v, p.data], _BLOCKS, rw, buffersize=ADAMW_CHUNK) as it:
            for gi, mi, vi, pi in it:
                s1, s2 = scratch1[: gi.size], scratch2[: gi.size]
                mi *= b1
                mi += np.multiply(a1, gi, out=s1)
                vi *= b2
                np.multiply(gi, gi, out=s2)
                vi += np.multiply(a2, s2, out=s2)
                if decay is not None:
                    pi *= decay
                np.sqrt(vi, out=s2)
                s2 += eps_hat
                np.divide(mi, s2, out=s1)
                s1 *= alpha
                pi -= s1


def _step(loss, params, state, optim, total_steps, phase):
    """The one optimizer step of both loops: reject a non-finite ``loss``,
    clear the gradients, backprop, then AdamW at the lr the schedule of
    ``total_steps`` gives the step taken, which it returns. A diverged
    loss changes nothing."""
    if not math.isfinite(loss.item()):
        raise TrainingDiverged(f"{phase} loss became non-finite at step {state.step + 1}")
    for p in params.values():
        p.grad = None
    loss.backward()
    lr = cosine_warmup_lr(state.step + 1, optim, total_steps)
    adamw_step(params, state, lr, optim)
    return lr


def _schedule(optim_cfg, epochs, n, batch_size):
    """The step count of ``epochs`` epochs of ``n`` samples in batches, the
    one length of a run's schedule; a warmup longer than it is refused."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    total_steps = epochs * math.ceil(n / batch_size)
    if optim_cfg.warmup_steps > total_steps:
        raise ConfigError(
            f"warmup_steps {optim_cfg.warmup_steps} exceeds total_steps "
            f"{total_steps}; override warmup for short runs"
        )
    return total_steps


def _epoch_batches(union, state, batch_size):
    """The batches of ``union`` left in the epoch ``state`` is in; a fresh
    epoch draws its order from the shuffle stream. ``state.batch_idx``
    advances once the caller's step on a batch is done, so an interrupt
    keeps that batch; the order and index reset when the epoch ends."""
    n = len(union)
    if state.batch_order is None:
        state.batch_order = state.streams.shuffle.permutation(n)
        state.batch_idx = 0
    elif len(state.batch_order) != n:
        raise InputError(
            f"the resumed epoch orders {len(state.batch_order)} samples "
            f"but the pool holds {n}"
        )
    for start in range(state.batch_idx * batch_size, n, batch_size):
        yield union[state.batch_order[start : start + batch_size]]
        state.batch_idx += 1
    state.batch_order = None
    state.batch_idx = 0


def _release_optimizer_state(state, params):
    """Drop the moments and the last gradients of a phase that has taken
    its last step: nothing reads them again."""
    state.moments = {}
    for p in params.values():
        p.grad = None


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
        _check_labels(y_true, n_classes)
        _check_labels(y_pred, n_classes, "prediction")
        conf = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(conf, (y_true, y_pred), 1)
        accuracy = np.trace(conf) / conf.sum()
        tp, predicted, support = np.diag(conf), conf.sum(axis=0), conf.sum(axis=1)
        # zero-support (and zero-prediction) classes contribute F1 = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            precision = np.where(predicted > 0, tp / predicted, 0.0)
            recall = np.where(support > 0, tp / support, 0.0)
            both = precision + recall
            f1 = np.where(both > 0, 2.0 * precision * recall / both, 0.0)
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


def _count_assignments(histograms, encoder):
    """Add the routing of the encoder's last forward pass to ``histograms``."""
    for i, layer in enumerate(encoder.protonorm_layers()):
        counts = np.bincount(layer.last_assignments, minlength=layer.n)
        histograms[f"layer{i}"] = (counts + histograms.get(f"layer{i}", 0)).tolist()


def evaluate(encoder, ds, batch_size=128):
    """Accuracy, macro-F1 and routing histograms of the classifier head on a
    dataset, from this pass alone. ``batch_size`` is a throughput chunk
    only: each series is scored and routed on its own, so the result does
    not depend on it, and callers keep the default rather than pass a
    training batch size."""
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
    """What ``pretrain`` returns. A completed run's ``state`` carries no
    optimizer moments (its ``final.ckpt``, when written, does), so it
    cannot be continued in memory; an interrupted run's state keeps them
    for a bitwise resume."""

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
    penalty does not take part in choosing ``best.ckpt``. An epoch that
    improves on it names its ``last.ckpt`` ``best.ckpt`` too, and a
    completed run names its last ``last.ckpt`` ``final.ckpt`` too, by hard
    links, so those bytes are written once; a later epoch's ``last.ckpt``
    replaces the file and leaves the links as they were. A call that ran
    no epoch saves ``final.ckpt`` itself. ``stop_after_steps`` interrupts
    mid-run for checkpoint-resume tests.

    A completed run hands its optimizer state to ``final.ckpt`` and keeps
    none in memory: the returned state has no moments and no parameter
    has a ``.grad``. An interrupted run keeps both, so it resumes bitwise.
    A state that has taken steps but holds no moments, such as a
    completed run's, raises ``ContractError`` before any step. So does a
    series holding a non-finite value in ``pool`` or ``val_pool``, as an
    ``InputError`` naming its dataset and index.
    """
    from .checkpoint import save_checkpoint

    if state is None:
        state = TrainState(streams=RngStreams.from_seed(seed))
    if state.step > 0 and not state.moments:
        raise ContractError(
            f"the state has taken {state.step} steps but holds no optimizer "
            "moments, as a completed pretrain returns it; continue from that "
            "run's final.ckpt instead"
        )
    streams = state.streams
    union = flatten_pool(pool)
    if val_pool is not None:
        _check_finite(val_pool)
    total_steps = _schedule(optim_cfg, epochs, len(union), batch_size)
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
        for batch in _epoch_batches(union, state, batch_size):
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
            nt, orth_terms, loss = pretrain_losses(
                encoder, batch, aug_cfg, nt_cfg, streams.augment, streams.dropout,
                histograms=histograms,
            )
            try:
                lr = _step(loss, all_params, state, optim_cfg, total_steps, "pretraining")
            except TrainingDiverged as e:
                if paths["last"] is None:
                    raise
                raise TrainingDiverged(f"{e}; last good checkpoint: {paths['last']}") from e
            encoder.apply_ema_updates()
            orth = float(sum(t.item() for t in orth_terms))
            rows.append((state.step, lr, nt.item(), orth, loss.item()))
        state.epoch = epoch + 1
        improved = False
        if val_pool is not None:
            val_loss = _validation_loss(
                encoder, val_pool, aug_cfg, nt_cfg, seed, epoch, batch_size
            )
            improved = val_loss < state.best_val
            if improved:
                state.best_val = val_loss
        checkpoint_to("last")
        if improved and out_dir is not None:  # the same bytes: written once, named twice
            paths["best"] = f"{out_dir}/best.ckpt"
            link_atomic(paths["last"], paths["best"])

    if paths["last"] is not None:  # the same bytes: written once, named twice
        final = paths["final"] = f"{out_dir}/final.ckpt"
        link_atomic(paths["last"], final)
    else:
        final = checkpoint_to("final")
    _release_optimizer_state(state, all_params)
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
    return replace(ds, series=ds.series[chosen], labels=ds.labels[chosen])


@dataclass
class FinetuneResult:
    encoder: object
    metrics: Metrics
    rows: list  # (step, lr, train_loss)
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
    cross-entropy, keeps the best validation-accuracy parameters (copied
    into one set of buffers), and reports held-out test metrics. Prototype
    bit-stability is asserted every epoch. It returns with no parameter
    holding a ``.grad``. A series holding a non-finite value in the
    labeled subset or the validation or test split raises ``InputError``,
    naming its dataset and index, before the encoder changes.
    """
    train_ds, val_ds, test_ds = splits
    _check_finite([val_ds, test_ds])
    state = TrainState(streams=RngStreams.from_seed(seed))
    streams = state.streams
    n_classes = int(max((ds.labels.max() for ds in splits if len(ds)), default=0)) + 1
    subset = stratified_subset(train_ds, n_labeled, streams.subset)
    union = flatten_pool(subset)
    total_steps = _schedule(optim_cfg, epochs, len(union), batch_size)

    encoder.drop_projection_head()
    encoder.set_banks_frozen(True)
    encoder.attach_classifier(n_classes, streams.head)
    proto_snapshot = [bank.P.data.copy() for bank in encoder.banks()]

    all_params = encoder.parameters()
    rows = []
    best_acc = -1.0
    best_epoch = -1
    best_params = None

    for epoch in range(epochs):
        for batch in _epoch_batches(union, state, batch_size):
            logits = encoder.encode(
                batch.x,
                "finetune",
                train=True,
                rng=streams.dropout,
                dataset_ids=batch.dataset_ids,
            )
            loss = cross_entropy(logits, batch.labels)
            lr = _step(loss, all_params, state, optim_cfg, total_steps, "fine-tuning")
            rows.append((state.step, lr, loss.item()))
        for i, (bank, before) in enumerate(zip(encoder.banks(), proto_snapshot)):
            if not np.array_equal(bank.P.data, before):
                raise ContractError(f"frozen prototype bank {i} mutated during fine-tuning")
        if len(val_ds):
            acc = evaluate(encoder, val_ds).accuracy
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                if best_params is None:
                    best_params = {k: np.empty_like(t.data) for k, t in all_params.items()}
                for k, t in all_params.items():
                    np.copyto(best_params[k], t.data)

    _release_optimizer_state(state, all_params)
    if best_params is not None:
        for k, t in all_params.items():
            t.data = best_params[k]
    metrics = evaluate(encoder, test_ds)
    return FinetuneResult(encoder, metrics, rows, best_epoch)
