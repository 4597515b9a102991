"""Data pipeline: parsing, length standardization, synthetic generation, batching."""

import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from protonorm import (
    ConfigError,
    InputError,
    ParseError,
    RngStreams,
    ShapeError,
    TrainState,
    batches,
    load_ucr_tsv,
    make_shifted_variant,
    make_synthetic_clusters,
    save_ucr_tsv,
    standardize_dataset,
    train_val_split,
)
from protonorm.data import Dataset, _read_tab_separated, flatten_pool
from protonorm.training import _epoch_batches


# -- loading ------------------------------------------------------------


def test_load_minimal_two_line_file(tmp_path):
    path = tmp_path / "tiny.tsv"
    path.write_text("1\t0.0\t1.0\n2\t1.0\t0.0\n")
    ds = load_ucr_tsv(path)
    assert len(ds) == 2
    assert ds.series[0].shape == (1, 2)
    assert set(ds.labels.tolist()) == {0, 1}


def test_load_remaps_labels_densely(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("7\t1.0\t2.0\n3\t0.0\t1.0\n7\t2.0\t3.0\n")
    ds = load_ucr_tsv(path)
    assert ds.labels.tolist() == [1, 0, 1]  # sorted original order 3 -> 0, 7 -> 1


def test_load_zscore_guards_constant_series(tmp_path):
    path = tmp_path / "const.tsv"
    path.write_text("1\t5.0\t5.0\t5.0\n")
    ds = load_ucr_tsv(path)
    assert np.array_equal(ds.series[0], np.zeros((1, 3)))


def test_a_test_file_maps_its_labels_through_the_training_classes(tmp_path):
    """A test file lacking a training class keeps the training indices:
    training labels 1 2 1 load as [0 1 0], and test label 2 as [1], not [0]."""
    train_path, test_path = tmp_path / "train.tsv", tmp_path / "test.tsv"
    train_path.write_text("1\t0.0\t1.0\n2\t1.0\t0.0\n1\t2.0\t3.0\n")
    test_path.write_text("2\t1.0\t0.0\n")
    train = load_ucr_tsv(train_path)
    assert train.labels.tolist() == [0, 1, 0] and train.classes == (1, 2)
    test = load_ucr_tsv(test_path, classes=train.classes)
    assert test.labels.tolist() == [1] and test.classes == (1, 2)
    assert load_ucr_tsv(test_path).labels.tolist() == [0]  # its own classes: (2,)


def test_a_label_outside_the_given_classes_names_the_file_and_line(tmp_path):
    path = tmp_path / "test.tsv"
    path.write_text("2\t1.0\t0.0\n\n5\t0.0\t1.0\n0\t0.0\t1.0\n")
    message = f"{path}: line 3: label 5 is not one of the classes [1, 2]"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_ucr_tsv(path, classes=(1, 2))
    path.write_text("0\t1.0\t0.0\n")  # below every class
    with pytest.raises(ParseError, match="line 1: label 0 is not one"):
        load_ucr_tsv(path, classes=[1, 2])


def test_load_comma_and_space_delimiters(tmp_path):
    p1 = tmp_path / "c.txt"
    p1.write_text("1,0.5,1.5\n2,1.5,0.5\n")
    p2 = tmp_path / "s.txt"
    p2.write_text("1 0.5 1.5\n2 1.5 0.5\n")
    a = load_ucr_tsv(p1)
    b = load_ucr_tsv(p2)
    assert np.array_equal(a.series[0], b.series[0])


def test_load_ragged_rows_name_the_line(tmp_path):
    path = tmp_path / "ragged.tsv"
    path.write_text("1\t0.0\t1.0\n2\t1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_ucr_tsv(path)


def test_load_non_finite_value_names_the_line(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"{bad}.txt"
        path.write_text(f"1 1.0 2.0 3.0 4.0\n0 1.0 2.0 {bad} 4.0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 2: non-finite value")):
            load_ucr_tsv(path)


def test_load_non_finite_label_rejected(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"label-{bad}.tsv"
        path.write_text(f"1\t0.0\t1.0\n{bad}\t1.0\t0.0\n")
        with pytest.raises(ParseError, match="line 2: non-integer label"):
            load_ucr_tsv(path)


def test_load_reports_physical_line_after_blank_lines(tmp_path):
    path = tmp_path / "gaps.tsv"
    path.write_text("1\t0.0\t1.0\n\n\n2\t1.0\tx\n")
    with pytest.raises(ParseError, match="line 4: non-numeric"):
        load_ucr_tsv(path)
    path.write_text("1\t0.0\t1.0\n\n2\t1.0\t0.0\n")
    assert len(load_ucr_tsv(path)) == 2


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("\n\n")
    with pytest.raises(InputError):
        load_ucr_tsv(path)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    series = [rng.normal(size=(1, 16)) for _ in range(5)]
    ds = Dataset("orig", series, np.array([0, 1, 0, 1, 1]))
    out = tmp_path / "round.tsv"
    save_ucr_tsv(ds, out)
    loaded = load_ucr_tsv(out)
    # loading z-scores; z-scoring the raw series gives the reference
    for mine, orig in zip(loaded.series, series):
        m, s = orig.mean(), orig.std()
        assert np.allclose(mine, (orig - m) / (s + 1e-8), atol=1e-6)
    reout = tmp_path / "round2.tsv"
    save_ucr_tsv(loaded, reout)
    reloaded = load_ucr_tsv(reout)
    for a, b in zip(loaded.series, reloaded.series):
        assert np.allclose(a, b, atol=1e-6)


def test_save_writes_label_values_not_class_indices(tmp_path):
    """A file labelled {1, 2} saves as {1, 2}, not as the dense indices
    {0, 1}: it reloads to the same classes and labels, and the original
    file loads with the saved file's classes."""
    source = tmp_path / "source.tsv"
    source.write_text("2\t0.5\t1.0\t3.0\n1\t2.0\t0.0\t1.0\n2\t1.0\t4.0\t0.0\n")
    ds = load_ucr_tsv(source)
    assert ds.classes == (1, 2) and ds.labels.tolist() == [1, 0, 1]
    out = tmp_path / "saved.tsv"
    save_ucr_tsv(ds, out)
    assert [ln.split("\t")[0] for ln in out.read_text().splitlines()] == ["2", "1", "2"]
    saved = load_ucr_tsv(out)
    assert saved.classes == ds.classes
    assert np.array_equal(saved.labels, ds.labels)
    assert np.array_equal(load_ucr_tsv(source, classes=saved.classes).labels, ds.labels)


def test_load_unreadable_file_names_the_path(tmp_path):
    for path in (tmp_path / "missing.tsv", tmp_path):
        with pytest.raises(InputError, match=re.escape(f"{path}: cannot read the file")):
            load_ucr_tsv(path)


def test_load_non_utf8_bytes_name_the_path_and_line(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"1\t0.5\t1.0\n\n2\t1.5\t0.5\xff\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: not UTF-8 text")) as e:
        load_ucr_tsv(path)
    assert "byte 0xff in position 9" in str(e.value)
    path.write_bytes(b"1\t0.5\t1.0\n2\t1.5\t0.5\xc3")  # cut off inside a character
    with pytest.raises(ParseError, match="line 2: not UTF-8 text"):
        load_ucr_tsv(path)
    path.write_bytes(b"1\tx\t1.0\n2\t1.5\t0.5\xff\n")  # the first bad line wins
    with pytest.raises(ParseError, match="line 1: non-numeric"):
        load_ucr_tsv(path)


def test_dataset_rejects_a_negative_label_by_name():
    with pytest.raises(InputError, match="signed: negative class label -1 at sample 2"):
        Dataset("signed", np.zeros((3, 1, 4)), np.array([0, 1, -1]))


def _reference_zscore(path, lineno, series):
    with np.errstate(over="ignore", invalid="ignore"):
        m = series.mean()
        s = series.std()
    for name, stat in (("mean", m), ("standard deviation", s)):
        if not np.isfinite(stat):
            raise ParseError(f"{path}: line {lineno}: the {name} of the values overflows")
    return (series - m) / (s + 1e-8)


def _reference_load(path):
    """The per-line loader ``load_ucr_tsv`` replaced: every field through
    ``float()`` one at a time, each series z-scored on its own, and a row
    whose mean or standard deviation overflows refused by name."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (lineno, ln.rstrip("\n"))
            for lineno, ln in enumerate(fh, start=1)
            if ln.strip()
        ]
    if not lines:
        raise InputError(f"{path}: empty dataset file")

    raw_labels = []
    rows = []
    width = None
    for lineno, ln in lines:
        if "\t" in ln:
            fields = ln.split("\t")
        elif "," in ln:
            fields = ln.split(",")
        else:
            fields = ln.split()
        fields = [f for f in fields if f.strip()]
        try:
            values = [float(f) for f in fields]
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: non-numeric field ({e})") from e
        if len(values) < 2:
            raise ParseError(f"{path}: line {lineno}: need a label plus at least one value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
            )
        label = values[0]
        if not np.isfinite(label) or label != int(label):
            raise ParseError(f"{path}: line {lineno}: non-integer label {label}")
        row = np.asarray(values[1:], dtype=np.float64)
        finite = np.isfinite(row)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ParseError(
                f"{path}: line {lineno}: non-finite value {row[k]} in field {k + 2}"
            )
        raw_labels.append(int(label))
        rows.append((lineno, row))

    uniq = sorted(set(raw_labels))
    remap = {orig: i for i, orig in enumerate(uniq)}
    labels = np.asarray([remap[l] for l in raw_labels], dtype=np.int64)
    series = np.stack([_reference_zscore(path, n, r) for n, r in rows])[:, None, :]
    return series, labels


def _full_precision_file(seed, n, length):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, length)) * rng.uniform(0.01, 100.0) + rng.uniform(-50.0, 50.0)
    x[n // 2] = 3.0  # a constant series
    labels = rng.integers(-3, 9, n)
    return "".join(
        "\t".join([str(label)] + [repr(float(v)) for v in row]) + "\n"
        for row, label in zip(x, labels)
    )


def _hard_decimals_file(seed, n_rows, length):
    """Decimals that are hard to round, one kind and one scale to a row:
    17-25-digit mantissas, exact midpoints between neighbouring doubles
    written out in decimal, those midpoints a last digit above or below,
    and subnormals, as long mantissas and as exact midpoints."""
    rng = np.random.default_rng(seed)

    def long_mantissa(exponent):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(17, 26)))))
        return f"{digits[0]}.{digits[1:]}e{exponent}"

    lines = []
    with localcontext() as ctx:
        ctx.prec = 800  # every midpoint below is exact
        for r in range(n_rows):
            scale, kind = int(rng.integers(-150, 150)), r % 4
            fields = [str(r % 3)]
            for _ in range(length):
                if kind == 0:
                    fields.append(long_mantissa(scale))
                elif kind in (1, 2):
                    x = float(rng.uniform(1.0, 10.0)) * 10.0**scale
                    mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
                    if kind == 2:
                        mid = mid.next_plus(ctx) if rng.random() < 0.5 else mid.next_minus(ctx)
                    fields.append(str(mid))
                elif rng.random() < 0.5:
                    fields.append(long_mantissa(-int(rng.integers(309, 324))))
                else:  # halfway between two subnormals
                    fields.append(str(Decimal(2) ** -1075 * (2 * int(rng.integers(0, 2**40)) + 1)))
            lines.append("\t".join(fields) + "\n")
    return "".join(lines)


DIFFERENTIAL_FILES = {
    "mixed-separators": "1\t0.5\t1.5\n2,1.5,0.5\n3 0.1 0.2\n2  0.3   0.4 \n",
    "trailing-and-doubled": "1\t0.5\t\t1.5\t\n2,,1.5,0.5,\n,3,,0.25,0.75\n",
    "whitespace-fields": "1\t 0.5 \t \t1.5\n   \n\t\t\n2\t1.5\t0.5\t \n",
    "unicode-whitespace": "1 0.5 1.5\n2\t 0.5 \t1\n",
    "crlf": "1\t0.5\t1.5\r\n\r\n2\t1.5\t0.5\r\n",
    "lone-cr": "1 2 3\r2 3 4\r\r0 1 1\n",
    "blank-lines": "\n\n1\t0.5\t1.5\n\n2\t1.5\t0.5\n\n",
    "labels-float-spellings": "1.0\t1\t2\n-0\t2\t3\n1e20\t3\t4\n0\t1\t1\n-7\t0\t5\n",
    "label-2.5": "1\t1\t2\n2.5\t2\t3\n",
    "label-nan": "1\t1\t2\nnan\t2\t3\n",
    "label-inf": "1\t1\t2\n-inf\t2\t3\n",
    "value-inf": "1\t1\t2\t3\n0\t1\tinf\t3\n",
    "value-1e400": "1\t1\t2\t3\n0\t1\t2\t-1e400\n",
    "value-nan": "1\t1\tNaN\t3\n",
    "underscores": "1_0\t1_000.5\t2\n2\t0.5\t1_2\n",
    "bad-underscore": "1\t1__0\t2\n",
    "unicode-digits": "١\t٢.5\t3\n2\t1\t٣\n",
    "ragged": "1\t0.5\t1.5\n2\t1.5\n",
    "ragged-longer": "1\t0.5\t1.5\n2\t1.5\t0.5\t2.5\n",
    "single-field": "1\t0.5\n7\n",
    "single-field-first": "7\n1\t0.5\n",
    "only-separators": "1\t0.5\n\t,\t\n",
    "only-commas": "1,0.5\n,,\n",
    "non-numeric": "1\t0.5\t1.0\n2\tx\t0.5\n",
    "non-numeric-after-blank": "1\t0.5\t1.0\n2\t\tx\t0.5\n",
    "empty": "\n \n\t\n",
    "one-line-one-value": "3\t2.5\n",
    "label-then-width": "1\t1\t2\n2.5\t2\t3\n1\t2\n",
    "width-then-label": "1\t1\t2\n1\t2\n2.5\t2\t3\n",
    "value-then-non-numeric": "1\t1\t2\n1\tinf\t3\n\n1\tx\t2\n",
    "non-numeric-then-value": "1\t1\t2\n1\tx\t2\n1\tinf\t3\n",
    "label-then-single-field": "1\t1\t2\nnan\t2\t3\n4\n",
    "value-then-label": "1\t1\t2\n1\t2\tinf\n2.5\t2\t3\n",
    "label-then-value": "1\t1\t2\n0.5\t2\t3\n1\t2\tinf\n",
    "in-line-non-numeric-before-few-fields": "1\t1\t2\nx\n",
    "in-line-non-numeric-before-width": "1\t1\t2\n2\tx\n",
    "in-line-width-before-label": "1\t1\t2\n2.5\t1\n",
    "in-line-label-before-value": "1\t1\t2\n2.5\tinf\t1\n",
    "full-precision-7x16": _full_precision_file(1, 7, 16),
    "full-precision-33x129": _full_precision_file(2, 33, 129),
    "full-precision-100x3": _full_precision_file(3, 100, 3),
    "full-precision-5x1": _full_precision_file(4, 5, 1),
    "full-precision-2000x128": _full_precision_file(5, 2000, 128),  # a benchmark test file
    "full-precision-50x1000": _full_precision_file(6, 50, 1000),  # a long UCR series
    "finite-values-whose-mean-overflows": "1\t1e308\t1e308\t-1e308\n0\t1\t2\t3\n",
    "spread-overflows-before-a-mean": "0\t1\t2\t3\n1\t1e308\t-1e308\t0\n0\t1e308\t1e308\t1\n",
    "mean-overflows-after-blank-lines": "\n0\t1\t2\t3\r\n\n1\t1e308\t1e308\t-1e308\n",
    "hard-decimals": _hard_decimals_file(7, 40, 6),
    "subnormal-spellings": "1\t5e-324\t2.4703282292062328e-324\t2.2250738585072011e-308\n"
    "0\t2.2250738585072012e-308\t4.9406564584124654e-324\t1e-320\n",
    "crlf-tab-separated": _full_precision_file(8, 9, 12).replace("\n", "\r\n"),
    "trailing-tab": "1\t0.5\t1.5\t\n2\t1.5\t0.5\t\n",
    "whitespace-only-line-between-rows": "1\t0.5\t1.5\n \t \n2\t1.5\t0.5\n",
    "comma-separated": _full_precision_file(9, 6, 5).replace("\t", ","),
    "space-separated": _full_precision_file(10, 6, 5).replace("\t", " "),
    "tab-and-comma-lines": "1\t0.5\t1.5\n2,1.5,0.5\n1\t0.25\t0.75\n",
    "non-ascii-space": "1\t0.5\u00a0\t1.5\n2\t1.5\t0.5\n",
    "non-ascii-letter": "1\t0.5\t1.5\n2\t1.5\u00e9\t0.5\n",
    "hash-inside-a-field": "1\t0.5\t1.5\n2\t1.5#2\t0.5\n",
    "hash-line": "# label, values\n1\t0.5\t1.5\n",
    "file-separator-byte": "1\t0.5\t1.5\n2\t1.5\x1c\t0.5\n",  # whitespace to loadtxt alone
}


def _outcome(load, path):
    try:
        return load(path)
    except Exception as e:  # the type and message are what is compared
        return (type(e), str(e))


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_FILES))
def test_load_matches_the_per_line_reference(tmp_path, case):
    path = tmp_path / f"{case}.txt"
    path.write_bytes(DIFFERENTIAL_FILES[case].encode("utf-8"))
    expected = _outcome(_reference_load, path)
    got = _outcome(load_ucr_tsv, path)
    if isinstance(expected[0], type):
        assert got == expected
        return
    assert isinstance(got, Dataset), got
    series, labels = expected
    assert got.series.shape == series.shape
    assert got.series.tobytes() == series.tobytes()
    assert got.labels.dtype == labels.dtype and np.array_equal(got.labels, labels)


@pytest.mark.parametrize(
    "case, whole",
    [
        ("full-precision-2000x128", True),
        ("hard-decimals", True),
        ("crlf-tab-separated", True),
        ("blank-lines", True),
        ("comma-separated", False),
        ("space-separated", False),
        ("tab-and-comma-lines", False),
        ("trailing-tab", False),
        ("whitespace-only-line-between-rows", False),
        ("non-ascii-space", False),
        ("file-separator-byte", False),
        ("underscores", False),
        ("empty", False),
    ],
)
def test_a_tab_separated_ascii_file_is_read_whole(tmp_path, case, whole):
    """``load_ucr_tsv`` reads an ASCII tab-separated file with one loadtxt
    call and gives any other file to the line parser."""
    path = tmp_path / f"{case}.txt"
    path.write_bytes(DIFFERENTIAL_FILES[case].encode("utf-8"))
    assert (_read_tab_separated(path) is not None) == whole


# -- standardize ---------------------------------------------------------


def _dataset(series):
    return Dataset(name="d", series=series, labels=np.zeros(len(series), dtype=np.int64))


def test_standardize_identity_case():
    ds = _dataset(np.arange(24.0).reshape(3, 1, 8))
    assert standardize_dataset(ds, 8) is ds


def test_standardize_pads_with_exact_zeros():
    out = standardize_dataset(_dataset(np.ones((2, 1, 4))), 8).series
    assert out.shape == (2, 1, 8)
    assert np.array_equal(out[:, 0, 4:], np.zeros((2, 4)))
    assert np.array_equal(out[:, 0, :4], np.ones((2, 4)))


def test_standardize_downsample_matches_independent_interpolation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1, 1024))
    out = standardize_dataset(_dataset(x), 512).series
    assert out.shape == (1, 1, 512)
    # independent oracle: evaluate the piecewise-linear interpolant by hand
    for k in range(0, 512, 37):
        pos = k * (1023.0 / 511.0)
        lo = int(np.floor(pos))
        hi = min(lo + 1, 1023)
        frac = pos - lo
        expected = (1.0 - frac) * x[0, 0, lo] + frac * x[0, 0, hi]
        assert abs(out[0, 0, k] - expected) < 1e-12


def test_standardize_downsample_is_per_row_interp_bit_for_bit():
    x = np.random.default_rng(4).normal(size=(5, 1, 77))
    out = standardize_dataset(_dataset(x), 32).series
    grid = np.linspace(0.0, 76.0, 32)
    for i in range(5):
        assert out[i, 0].tobytes() == np.interp(grid, np.arange(77), x[i, 0]).tobytes()
    assert np.array_equal(standardize_dataset(_dataset(x), 1).series, x[:, :, :1])


def test_standardize_idempotent_on_conforming():
    x = np.random.default_rng(3).normal(size=(2, 1, 13))
    once = standardize_dataset(_dataset(x), 10)
    twice = standardize_dataset(once, 10)
    assert twice is once


# -- shifted variants -------------------------------------------------------


def test_shift_variant_zero_noise_bit_equal():
    ds = make_synthetic_clusters(1, 10, 32, np.random.default_rng(4))[0]
    variant = make_shifted_variant(ds, 0.0)
    for a, b in zip(variant.series, ds.series):
        assert np.array_equal(a, b)
    assert np.array_equal(variant.labels, ds.labels)
    assert variant.dataset_id == ds.dataset_id + 1


def test_shift_variant_noise_variance():
    rng = np.random.default_rng(5)
    ds = make_synthetic_clusters(1, 20, 1000, rng)[0]
    sigma = 0.2
    variant = make_shifted_variant(ds, sigma, np.random.default_rng(6))
    diffs = np.concatenate(
        [(a - b).ravel() for a, b in zip(variant.series, ds.series)]
    )
    assert diffs.size >= 10_000
    assert abs(diffs.var() - sigma**2) / sigma**2 < 0.05


def test_shift_variant_rejects_non_finite_noise():
    ds = make_synthetic_clusters(1, 4, 16, np.random.default_rng(7))[0]
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise_std must be finite"):
            make_shifted_variant(ds, bad, np.random.default_rng(8))


def test_shift_variant_sigma_set():
    ds = make_synthetic_clusters(1, 4, 16, np.random.default_rng(7))[0]
    rng = np.random.default_rng(8)
    variants = [make_shifted_variant(ds, s, rng, dataset_id=i + 1) for i, s in enumerate([0.1, 0.2, 0.3])]
    assert [v.dataset_id for v in variants] == [1, 2, 3]
    assert len({v.name for v in variants}) == 3


# -- synthetic clusters ------------------------------------------------------


def test_synthetic_single_dataset_balanced():
    ds = make_synthetic_clusters(1, 200, 64, np.random.default_rng(9))[0]
    frac = ds.labels.mean()
    assert abs(frac - 0.5) <= 0.10


def test_synthetic_offsets_separate_series_means():
    a, b = make_synthetic_clusters(2, 50, 64, np.random.default_rng(10))
    mean_a = np.mean([s.mean() for s in a.series])
    mean_b = np.mean([s.mean() for s in b.series])
    assert mean_b - mean_a >= 5.0


def test_synthetic_deterministic_under_seed():
    x = make_synthetic_clusters(2, 10, 32, np.random.default_rng(11))
    y = make_synthetic_clusters(2, 10, 32, np.random.default_rng(11))
    for dx, dy in zip(x, y):
        assert np.array_equal(dx.labels, dy.labels)
        for sx, sy in zip(dx.series, dy.series):
            assert np.array_equal(sx, sy)


# -- batching -----------------------------------------------------------------


def _pool():
    return make_synthetic_clusters(2, 5, 16, np.random.default_rng(12))


def test_batches_partition_sizes():
    ds = make_synthetic_clusters(1, 10, 16, np.random.default_rng(13))[0]
    sizes = [len(b) for b in batches(ds, 3)]
    assert sizes == [3, 3, 3, 1]


def _epoch(pool, batch_size, seed):
    """The batches of one shuffled training epoch over ``pool``."""
    state = TrainState(streams=RngStreams.from_seed(seed))
    return list(_epoch_batches(flatten_pool(pool), state, batch_size))


def _positions(x, series):
    """The row of ``series`` that holds each sample of ``x``; the rows of
    ``series`` must all differ."""
    where = {s.tobytes(): i for i, s in enumerate(series)}
    assert len(where) == len(series)
    return [where[s.tobytes()] for s in x]


def test_batches_yield_the_union_in_order():
    pool = make_synthetic_clusters(3, 7, 16, np.random.default_rng(22))
    got = list(batches(pool, 4))
    assert [len(b) for b in got] == [4, 4, 4, 4, 4, 1]
    for field, whole in (
        ("x", np.concatenate([ds.series for ds in pool])),
        ("labels", np.concatenate([ds.labels for ds in pool])),
        ("dataset_ids", np.repeat([0, 1, 2], 7)),
    ):
        assert np.array_equal(np.concatenate([getattr(b, field) for b in got]), whole), field


def test_batches_shuffle_deterministic():
    """A training epoch takes the pool in the order that a copy of the
    shuffle stream draws, final partial batch included."""
    pool = _pool()
    union = flatten_pool(pool)
    order = RngStreams.from_seed(14).shuffle.permutation(10)
    got = [_positions(b.x, union.x) for b in _epoch(pool, 4, seed=14)]
    assert got == [order[i : i + 4].tolist() for i in range(0, 10, 4)]


def test_batches_cover_pool_exactly_once():
    pool = _pool()
    union = flatten_pool(pool)
    seen = []
    for b in _epoch(pool, 3, seed=15):
        seen.extend(_positions(b.x, union.x))
    assert sorted(seen) == list(range(10))


def test_batches_carry_dataset_ids():
    pool = _pool()
    ids = np.concatenate([b.dataset_ids for b in batches(pool, 4)])
    assert sorted(ids.tolist()) == [0] * 5 + [1] * 5


def test_batches_empty_pool_rejected():
    with pytest.raises(InputError):
        list(batches(Dataset("none", [], np.array([], dtype=np.int64)), 4))


def test_batches_heterogeneous_pool_rejected():
    a = make_synthetic_clusters(1, 3, 16, np.random.default_rng(16))[0]
    b = make_synthetic_clusters(1, 3, 32, np.random.default_rng(17))[0]
    with pytest.raises(ShapeError):
        list(batches([a, b], 2))


def test_dataset_of_unequal_series_rejected_by_name():
    series = [np.zeros((1, 16)), np.zeros((1, 16)), np.zeros((1, 12))]
    with pytest.raises(ShapeError, match="ragged"):
        Dataset("ragged", series, np.array([0, 1, 0]))


def test_batches_hold_the_pool_samples_at_their_indices():
    pool = make_synthetic_clusters(3, 7, 16, np.random.default_rng(20))
    series = np.concatenate([np.stack(list(ds.series)) for ds in pool])
    labels = np.concatenate([ds.labels for ds in pool])
    ids = np.repeat([ds.dataset_id for ds in pool], [len(ds) for ds in pool])
    seen = []
    for b in _epoch(pool, 4, seed=21):
        idx = _positions(b.x, series)
        assert np.array_equal(b.x, series[idx])
        assert np.array_equal(b.labels, labels[idx])
        assert np.array_equal(b.dataset_ids, ids[idx])
        seen.extend(idx)
    assert sorted(seen) == list(range(21)) and seen != list(range(21))


def test_train_val_split_sizes():
    ds = make_synthetic_clusters(1, 10, 16, np.random.default_rng(18))[0]
    train, val = train_val_split(ds, 0.2, np.random.default_rng(19))
    assert len(train) == 8 and len(val) == 2
    assert train.split == "train" and val.split == "val"
    both = sorted([s.tobytes() for s in train.series] + [s.tobytes() for s in val.series])
    orig = sorted(s.tobytes() for s in ds.series)
    assert both == orig
