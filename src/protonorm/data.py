"""Dataset ingestion, length standardization, synthetic generation, and
batching.

The on-disk format is one sample per line: an integer class label followed
by the flattened series values, separated by tabs or commas (auto-detected
per line, whitespace tolerated). An ASCII, tab-separated file is read
whole by one ``np.loadtxt``, whose table the row checks then pass or
refuse as array operations. Any other file, and any file that read or
those checks refuse, goes to the line parser: it turns each line's fields
into a float64 row with one ``np.array`` call, which converts every
string with Python's ``float()``, drops blank fields only on a line where
that call fails, and checks each row as it is parsed, so the first bad
line is the one named. loadtxt converts a field with the function
``float()`` uses, so both give one table, bit for bit. The dense 0-based
relabelling (into the file's own sorted label values, or into the classes
of the file a model was trained on) and the per-series z-score then run
as array operations over the whole ``[N, 1+L]`` table, and a row whose
mean or standard deviation overflows is refused by its line. A file holds
univariate series, and ``standardize_dataset`` brings a whole dataset to
the length the encoder's config fixes. In memory a dataset's series are
one float64 ``[N, C, L]`` array, a pool is one ``Batch`` of its samples,
and a batch is that ``Batch`` indexed.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, ParseError, ShapeError

__all__ = [
    "Batch",
    "Dataset",
    "batches",
    "load_ucr_tsv",
    "make_shifted_variant",
    "make_synthetic_clusters",
    "save_ucr_tsv",
    "standardize_dataset",
    "train_val_split",
    "write_atomic",
]

_ZSCORE_EPS = 1e-8
_FIELD_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")  # see _read_tab_separated


@dataclass
class Dataset:
    """N labeled series of one shape, held as a float64 ``[N, C, L]`` array;
    a sequence of ``[C, L]`` arrays is stacked."""

    name: str
    series: np.ndarray  # float64 [N, C, L]
    labels: np.ndarray  # int64 [N]
    dataset_id: int = 0
    split: str = "train"
    classes: tuple | None = None  # a loaded file's label values; label i is classes[i]

    def __post_init__(self):
        if not isinstance(self.series, np.ndarray):
            shapes = {np.shape(s) for s in self.series}
            if len(shapes) > 1:
                raise ShapeError(f"{self.name}: series differ in shape: {sorted(shapes)}")
        self.series = np.asarray(self.series, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.series) != len(self.labels):
            raise InputError(
                f"{self.name}: {len(self.series)} series but {len(self.labels)} labels"
            )
        if len(self.labels) and self.labels.min() < 0:
            i = int(np.argmax(self.labels < 0))
            raise InputError(f"{self.name}: negative class label {self.labels[i]} at sample {i}")

    def __len__(self):
        return len(self.series)

    @property
    def shape(self):
        return self.series.shape[1:] if len(self) else None


@dataclass
class Batch:
    x: np.ndarray  # [B, C, L]
    labels: np.ndarray  # int64 [B]
    dataset_ids: np.ndarray  # int64 [B]

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, sel):
        """The batch of the samples at positions ``sel`` of this one."""
        return Batch(self.x[sel], self.labels[sel], self.dataset_ids[sel])


def _parse_line(path, lineno, ln, width):
    """The label and values of one non-blank line as a float64 row."""
    if not ln.isascii():  # the file is read with undecodable bytes escaped
        try:
            ln.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: line {lineno}: not UTF-8 text ({e})") from None
    ln = ln.rstrip("\n")
    fields = ln.split("\t" if "\t" in ln else "," if "," in ln else None)
    try:
        row = np.array(fields, dtype=np.float64)
    except ValueError:  # a blank field, or a non-numeric one
        try:
            row = np.array([f for f in fields if f.strip()], dtype=np.float64)
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: non-numeric field ({e})") from e
    if row.size < 2:
        raise ParseError(f"{path}: line {lineno}: need a label plus at least one value")
    if width is not None and row.size != width:
        raise ParseError(f"{path}: line {lineno}: expected {width} fields, got {row.size}")
    if not row[0].is_integer():  # False for nan and inf too
        raise ParseError(f"{path}: line {lineno}: non-integer label {float(row[0])}")
    finite = np.isfinite(row)
    if not finite.all():  # the label is finite, so a value is not
        k = int(np.argmin(finite))
        raise ParseError(f"{path}: line {lineno}: non-finite value {row[k]} in field {k + 1}")
    return row


def _parse_lines(path):
    """The file's table, built a line at a time by ``_parse_line``."""
    rows = []
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, ln in enumerate(fh, start=1):
                if ln.strip():
                    rows.append(_parse_line(path, lineno, ln, rows[0].size if rows else None))
    except OSError as e:
        raise InputError(f"{path}: cannot read the file ({e.strerror or e})") from e
    if not rows:
        raise InputError(f"{path}: empty dataset file")
    return np.stack(rows)


def _read_tab_separated(path):
    """The file's table read by one ``np.loadtxt``, or None when the line
    parser must read it: the file is not ASCII, holds no row, is not
    tab-separated throughout, or a row fails a check of ``_parse_line``.

    loadtxt converts a field with ``PyOS_string_to_double``, the function
    ``float()`` converts an ASCII field with, and skips only empty lines,
    so a table it returns is the one the line parser builds, bit for bit.
    What the two would read otherwise, loadtxt refuses, and the line
    parser reads it: a blank field, a line of spaces, an underscore in a
    number, other separators. The bytes 0x1c-0x1f, which loadtxt strips
    from a field as whitespace and ``float()`` does not, send the file
    there before loadtxt runs, and so does a file of blank lines, for
    which loadtxt warns and the line parser raises."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:  # the line parser names the fault
        return None
    if not raw or raw.isspace() or not raw.isascii() or any(c in raw for c in _FIELD_SPACES):
        return None
    try:
        table = np.loadtxt(
            io.TextIOWrapper(io.BytesIO(raw), encoding="ascii"),
            delimiter="\t", comments=None, dtype=np.float64, ndmin=2,
        )
    except ValueError:
        return None
    labels = table[:, 0]
    if table.shape[1] < 2 or not np.isfinite(table).all() or (np.floor(labels) != labels).any():
        return None
    return table


def _line_of_row(path, k):
    """The physical line of the table's row k, the file's k-th non-blank
    line: a row is read from each non-blank line and from no other."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        nonblank = (lineno for lineno, ln in enumerate(fh, start=1) if ln.strip())
        return next(itertools.islice(nonblank, k, None))


def _class_indices(path, values, classes):
    """The index of each label value in the sorted ``classes``, the file's
    own label values or those of the file a model was trained on; a value
    that is not one of them is a ParseError naming its line."""
    known = np.asarray(classes, dtype=np.float64)
    idx = np.searchsorted(known, values)
    unknown = known[np.minimum(idx, len(known) - 1)] != values
    if unknown.any():
        k = int(np.argmax(unknown))
        raise ParseError(
            f"{path}: line {_line_of_row(path, k)}: label {int(values[k])} is not one "
            f"of the classes {list(classes)}"
        )
    return idx


def _check_statistics(path, mean, std):
    """Raise a ParseError naming the line of the first row whose mean or
    standard deviation overflowed, and which of the two did: z-scored,
    such a row would come out as NaN or as zeros."""
    finite_mean = np.isfinite(mean[:, 0])
    bad = ~(finite_mean & np.isfinite(std[:, 0]))
    if bad.any():
        k = int(np.argmax(bad))
        stat = "mean" if not finite_mean[k] else "standard deviation"
        raise ParseError(
            f"{path}: line {_line_of_row(path, k)}: the {stat} of the values overflows"
        )


def load_ucr_tsv(path, name=None, dataset_id=0, split="train", classes=None):
    """Parse a label-plus-values text file into a univariate Dataset.

    Labels are remapped to a dense 0-based index into ``classes``, the
    sorted original label values, which the Dataset records; by default
    they are the values this file holds. A test file is loaded with its
    training file's classes, so both map a label alike, and a label that
    is not one of them is a ``ParseError``. Every series is z-scored; an
    all-constant series comes out as all zeros thanks to the epsilon
    guard. Blank lines are skipped; errors name the file and the physical
    line, and the first bad line is the one named. A non-finite label or
    value (``nan``, ``inf``) is rejected, since z-scoring would spread it
    over the series, and so is a row of finite values whose mean or
    standard deviation overflows. A file that cannot be read is an
    ``InputError``, and bytes that are not UTF-8 a ``ParseError``.
    """
    table = _read_tab_separated(path)
    if table is None:
        table = _parse_lines(path)
    if classes is None:
        classes = tuple(int(v) for v in np.unique(table[:, 0]))
    labels = _class_indices(path, table[:, 0], classes)
    x = table[:, 1:]  # row-wise mean and std: the bits of a per-row z-score
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
    _check_statistics(path, mean, std)
    series = x - mean
    series /= std + _ZSCORE_EPS
    return Dataset(
        name=name or str(path),
        series=series[:, None, :],
        labels=labels,
        dataset_id=dataset_id,
        split=split,
        classes=tuple(classes),
    )


def write_atomic(path, data):
    """Replace the file at ``path`` with the bytes ``data`` such that an
    interrupt at any point leaves either the old file or the new one: the
    bytes go to a temporary file next to the target, are synced to disk
    and renamed over the target."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def link_atomic(source, path):
    """Make ``path`` a hard link to the file ``source``, replacing whatever
    ``path`` held in one rename. ``write_atomic`` always replaces a file
    and never writes into one, so a later write to either name leaves the
    other as it is."""
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp):
        os.remove(tmp)
    os.link(source, tmp)
    os.replace(tmp, path)


def save_ucr_tsv(ds, path):
    """Write a dataset back out in the same text format, tab-separated
    (full float precision via repr, so regeneration is byte-deterministic),
    whole or not at all."""
    lines = []
    for s, label in zip(ds.series, ds.labels):
        flat = s.ravel()
        lines.append("\t".join([str(int(label))] + [repr(float(v)) for v in flat]) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


def standardize_dataset(ds, target_len):
    """The dataset with every series brought to ``target_len`` samples, the
    encoder's ``input_len``. A longer series is linearly interpolated down
    (position k maps to k*(L-1)/(target_len-1); a target of 1 keeps the
    first sample), and a shorter one is zero-padded at the tail. A dataset
    already ``target_len`` long is returned as it is."""
    n, c, length = ds.series.shape
    if length == target_len:
        return ds
    if length < target_len:
        series = np.concatenate([ds.series, np.zeros((n, c, target_len - length))], axis=2)
    elif target_len == 1:
        series = ds.series[:, :, :1]
    else:
        grid = np.linspace(0.0, length - 1.0, target_len)
        rows = ds.series.reshape(-1, length)
        series = np.array([np.interp(grid, np.arange(length), row) for row in rows])
        series = series.reshape(n, c, target_len)
    return replace(ds, series=series)


def make_shifted_variant(ds, noise_std, rng=None, name=None, dataset_id=None):
    """Copy of a dataset with i.i.d. Gaussian noise of the given std added
    to every series. Labels are preserved; a new dataset id marks the
    variant as a distinct member of a pretraining pool."""
    if not 0.0 <= noise_std < np.inf:
        raise ConfigError(f"noise_std must be finite and >= 0, got {noise_std}")
    if noise_std > 0.0 and rng is None:
        raise InputError("make_shifted_variant with noise_std > 0 needs an rng")
    if noise_std == 0.0:
        series = ds.series.copy()
    else:
        series = ds.series + rng.normal(0.0, noise_std, ds.series.shape)
    return replace(
        ds,
        name=name or f"{ds.name}-noise{noise_std:g}",
        series=series,
        labels=ds.labels.copy(),
        dataset_id=ds.dataset_id + 1 if dataset_id is None else dataset_id,
    )


def make_synthetic_clusters(
    k_datasets,
    n_per,
    length,
    rng,
    scales=None,
    freq_band=(2.0, 8.0),
    noise_std=0.1,
):
    """Sinusoid-plus-noise datasets with per-dataset offset and scale. The
    offsets are evenly spaced over [-5, 5] (0 for a single dataset).

    Class rule: label 0 draws its frequency from the lower half of
    freq_band, label 1 from the upper half; labels alternate per sample so
    each dataset is balanced by construction. Deterministic under the
    generator's seed.
    """
    if k_datasets < 1:
        raise ConfigError(f"k_datasets must be >= 1, got {k_datasets}")
    offsets = [0.0] if k_datasets == 1 else list(np.linspace(-5.0, 5.0, k_datasets))
    if scales is None:
        scales = [1.0] * k_datasets
    if len(scales) != k_datasets:
        raise ConfigError("scales length must equal k_datasets")
    lo, hi = freq_band
    mid = 0.5 * (lo + hi)
    t = np.arange(length) / length
    out = []
    for k in range(k_datasets):
        series = np.empty((n_per, 1, length))
        labels = np.arange(n_per, dtype=np.int64) % 2
        for i, label in enumerate(labels):
            f = rng.uniform(lo, mid) if label == 0 else rng.uniform(mid, hi)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * f * t + phase)
            noise = rng.normal(0.0, noise_std, length)
            series[i, 0] = offsets[k] + scales[k] * wave + noise
        out.append(
            Dataset(name=f"cluster{k}", series=series, labels=labels, dataset_id=k)
        )
    return out


def batches(pool, batch_size):
    """Iterate batches of ``batch_size`` over the union of all samples in
    the pool, in pool order; the final partial batch is emitted. Batches
    carry each sample's dataset id (for dataset-indexed routing). Training
    draws its shuffled epochs from ``training._epoch_batches`` instead.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    union = flatten_pool(pool)
    for start in range(0, len(union), batch_size):
        yield union[start : start + batch_size]


def flatten_pool(pool):
    """The union of a pool as one Batch, in pool order; the pool's datasets
    must all hold series of one shape and finite values only. A series
    with a NaN or an infinity is an ``InputError`` naming its dataset and
    its index there, before any model sees it."""
    datasets = [ds for ds in ([pool] if isinstance(pool, Dataset) else pool) if len(ds)]
    if not datasets:
        raise InputError("empty pool: no samples to batch")
    for ds in datasets[1:]:
        if ds.shape != datasets[0].shape:
            raise ShapeError(
                f"pool is not homogeneous: {ds.name} has shape {ds.shape}, "
                f"expected {datasets[0].shape}"
            )
    x = np.concatenate([ds.series for ds in datasets])
    if not np.isfinite(x).all():
        for ds in datasets:
            finite = np.isfinite(ds.series).reshape(len(ds), -1).all(axis=1)
            if not finite.all():
                raise InputError(
                    f"{ds.name}: sample {int(np.argmin(finite))} holds a non-finite value"
                )
    labels = np.concatenate([ds.labels for ds in datasets])
    ids = np.repeat([ds.dataset_id for ds in datasets], [len(ds) for ds in datasets])
    return Batch(x, labels, ids.astype(np.int64))


def train_val_split(ds, val_fraction=0.2, rng=None):
    """Random split into train/val datasets; val gets round(N * fraction)
    samples (the 80/20 convention within integer rounding)."""
    n = len(ds)
    n_val = int(round(n * val_fraction))
    order = rng.permutation(n) if rng is not None else np.arange(n)

    def take(idx, split):
        return replace(ds, series=ds.series[idx], labels=ds.labels[idx], split=split)

    return take(order[n_val:], "train"), take(order[:n_val], "val")
