"""Data pipeline: parsing, standardization, synthetic generation, batching."""

import re

import numpy as np
import pytest

from protonorm import (
    ConfigError,
    InputError,
    ParseError,
    ShapeError,
    StandardizeSpec,
    batches,
    load_ucr_tsv,
    make_shifted_variant,
    make_synthetic_clusters,
    save_ucr_tsv,
    standardize,
    train_val_split,
)
from protonorm.data import Dataset


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


# -- standardize ---------------------------------------------------------


def test_standardize_identity_case():
    spec = StandardizeSpec(target_len=8, target_channels=2, replication_noise_std=0.0)
    x = np.arange(16.0).reshape(2, 8)
    assert np.array_equal(standardize(x, spec), x)


def test_standardize_pads_with_exact_zeros():
    spec = StandardizeSpec(target_len=8, target_channels=1)
    out = standardize(np.ones((1, 4)), spec)
    assert np.array_equal(out[0, 4:], np.zeros(4))
    assert np.array_equal(out[0, :4], np.ones(4))


def test_standardize_downsample_matches_independent_interpolation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1024))
    spec = StandardizeSpec(target_len=512, target_channels=1)
    out = standardize(x, spec)
    # independent oracle: evaluate the piecewise-linear interpolant by hand
    for k in range(0, 512, 37):
        pos = k * (1023.0 / 511.0)
        lo = int(np.floor(pos))
        hi = min(lo + 1, 1023)
        frac = pos - lo
        expected = (1.0 - frac) * x[0, lo] + frac * x[0, hi]
        assert abs(out[0, k] - expected) < 1e-12


def test_standardize_channel_replication_noise_on_copies_only():
    rng = np.random.default_rng(2)
    spec = StandardizeSpec(target_len=6, target_channels=3, replication_noise_std=0.5)
    x = np.arange(12.0).reshape(2, 6)
    out = standardize(x, spec, rng)
    assert out.shape == (3, 6)
    assert np.array_equal(out[:2], x)  # originals untouched
    assert not np.array_equal(out[2], x[0])  # replica got noise
    assert np.abs(out[2] - x[0]).max() < 5.0  # noise, not garbage


def test_standardize_rejects_too_many_channels():
    spec = StandardizeSpec(target_len=4, target_channels=1)
    with pytest.raises(ConfigError):
        standardize(np.ones((2, 4)), spec)


def test_standardize_idempotent_on_conforming():
    spec = StandardizeSpec(target_len=10, target_channels=1, replication_noise_std=0.0)
    x = np.random.default_rng(3).normal(size=(1, 13))
    once = standardize(x, spec)
    twice = standardize(once, spec)
    assert np.array_equal(once, twice)


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
    a, b = make_synthetic_clusters(
        2, 50, 64, np.random.default_rng(10), offsets=[-5.0, 5.0]
    )
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


def test_batches_shuffle_deterministic():
    pool = _pool()
    a = [b.indices.tolist() for b in batches(pool, 4, np.random.default_rng(14))]
    b = [b.indices.tolist() for b in batches(pool, 4, np.random.default_rng(14))]
    assert a == b


def test_batches_cover_pool_exactly_once():
    pool = _pool()
    seen = []
    for b in batches(pool, 3, np.random.default_rng(15)):
        seen.extend(b.indices.tolist())
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
    for b in batches(pool, 4, np.random.default_rng(21)):
        assert np.array_equal(b.x, series[b.indices])
        assert np.array_equal(b.labels, labels[b.indices])
        assert np.array_equal(b.dataset_ids, ids[b.indices])
        seen.extend(b.indices.tolist())
    assert sorted(seen) == list(range(21)) and seen != list(range(21))


def test_train_val_split_sizes():
    ds = make_synthetic_clusters(1, 10, 16, np.random.default_rng(18))[0]
    train, val = train_val_split(ds, 0.2, np.random.default_rng(19))
    assert len(train) == 8 and len(val) == 2
    assert train.split == "train" and val.split == "val"
    both = sorted([s.tobytes() for s in train.series] + [s.tobytes() for s in val.series])
    orig = sorted(s.tobytes() for s in ds.series)
    assert both == orig
