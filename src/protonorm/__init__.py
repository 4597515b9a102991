"""Prototype-gated dynamic layer normalization for time-series transformers.

A small numpy-only research library: a tape-based autodiff engine, a
patch transformer encoder whose every normalization site routes samples
to one of n gamma/beta rows by nearest-prototype gating, contrastive
pretraining with an orthogonality penalty on the prototypes, and the
training/evaluation/checkpoint machinery to run distribution-shift
experiments deterministically.
"""

from .contrastive import AugmentConfig, NtXentConfig, augment_pair, nt_xent, total_loss
from .data import (
    Batch,
    Dataset,
    StandardizeSpec,
    batches,
    load_ucr_tsv,
    make_shifted_variant,
    make_synthetic_clusters,
    save_ucr_tsv,
    standardize,
    standardize_dataset,
    train_val_split,
)
from .encoder import (
    Encoder,
    EncoderConfig,
    MacCount,
    count_forward_macs,
    count_parameters,
    patchify,
)
from .errors import (
    ConfigError,
    ContractError,
    GraphError,
    InputError,
    IntegrityError,
    ParseError,
    ProtoNormError,
    ShapeError,
    TrainingDiverged,
    VersionError,
)
from .norm import (
    PrototypeBank,
    ProtoNormLayer,
    ema_update,
    init_orthogonal,
    orthogonality_loss,
)
from .tensor import (
    Tensor,
    concat,
    dropout,
    exp,
    layer_norm,
    linear,
    log,
    logsumexp,
    matmul,
    no_grad,
    relu,
    softmax,
    sqrt,
)
from .training import (
    FinetuneResult,
    Metrics,
    OptimConfig,
    PretrainResult,
    RngStreams,
    TrainState,
    adamw_step,
    cosine_warmup_lr,
    cross_entropy,
    evaluate,
    finetune,
    pretrain,
    stratified_subset,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
