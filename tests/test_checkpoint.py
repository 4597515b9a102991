"""Checkpoint format: byte-exact round trips, integrity, resume equality."""

import os

import numpy as np
import pytest

from protonorm import (
    AugmentConfig,
    Encoder,
    EncoderConfig,
    IntegrityError,
    NtXentConfig,
    OptimConfig,
    RngStreams,
    TrainState,
    VersionError,
    evaluate,
    load_checkpoint,
    make_synthetic_clusters,
    pretrain,
    save_checkpoint,
)
from protonorm import checkpoint
from protonorm.checkpoint import MAGIC
from protonorm.training import _count_assignments


CONFIG = {
    "encoder": dict(
        input_len=32,
        patch_size=8,
        d_model=16,
        n_heads=2,
        n_layers=2,
        n_prototypes=2,
        dropout=0.1,
        norm_mode="proto-gated",
        ema_alpha=0.05,
        epsilon=1e-8,
    ),
    "note": "unit-test checkpoint",
}


EPOCHS = 3  # of 3 steps each


def trained_encoder(seed=0, steps=4):
    """An encoder and the state of a run interrupted after ``steps`` of
    its 9 steps: a completed run keeps no moments in memory."""
    cfg = EncoderConfig(**CONFIG["encoder"])
    streams = RngStreams.from_seed(seed)
    enc = Encoder(cfg, streams.params, streams.protos)
    pool = make_synthetic_clusters(2, 12, 32, np.random.default_rng(seed + 100))
    result = pretrain(
        pool,
        enc,
        AugmentConfig(),
        NtXentConfig(),
        OptimConfig(warmup_steps=2),
        epochs=EPOCHS,
        batch_size=8,
        seed=seed,
        state=TrainState(streams=streams),
        stop_after_steps=steps,
    )
    assert result.interrupted and result.state.moments
    return enc, result.state, pool


def test_save_load_save_is_byte_identical(tmp_path):
    enc, state, _ = trained_encoder()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, enc, state, CONFIG)
    enc2, state2, config2, meta2 = load_checkpoint(p1)
    save_checkpoint(p2, enc2, state2, config2, meta2)
    assert p1.read_bytes() == p2.read_bytes()
    assert config2 == CONFIG


def test_load_restores_everything(tmp_path):
    enc, state, pool = trained_encoder(seed=1)
    enc.banks()[0].frozen = True
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    enc2, state2, _, _ = load_checkpoint(path)
    for (ka, a), (kb, b) in zip(enc.parameters().items(), enc2.parameters().items()):
        assert ka == kb
        assert np.array_equal(a.data, b.data)
    assert enc2.banks()[0].frozen is True
    x = np.stack(pool[0].series[:8])
    assert _routing(enc, x) == _routing(enc2, x)
    assert state2.step == state.step
    assert set(state2.moments) == set(state.moments)
    for name in state.moments:
        assert np.array_equal(state.moments[name][0], state2.moments[name][0])
        assert np.array_equal(state.moments[name][1], state2.moments[name][1])
    assert state2.streams.state() == state.streams.state()


def _routing(encoder, x):
    histograms = {}
    encoder.encode(x, "pretrain")
    _count_assignments(histograms, encoder)
    return histograms


def test_evaluate_leaves_the_checkpoint_bytes_unchanged(tmp_path):
    enc, state, pool = trained_encoder(seed=7)
    enc.drop_projection_head()
    enc.attach_classifier(2, np.random.default_rng(1))
    before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
    save_checkpoint(before, enc, state, CONFIG)
    metrics = evaluate(enc, pool[0])
    save_checkpoint(after, enc, state, CONFIG)
    assert before.read_bytes() == after.read_bytes()
    for counts in metrics.assignment_histograms.values():
        assert sum(counts) == len(pool[0])


def test_resume_one_step_matches_uninterrupted(tmp_path):
    # uninterrupted reference: 6 steps
    enc_ref, _, pool = trained_encoder(seed=2, steps=6)

    # interrupted twin:5 steps, checkpoint, reload, 1 more step
    enc, state, _ = trained_encoder(seed=2, steps=5)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    enc2, state2, _, _ = load_checkpoint(path)
    pretrain(
        pool,
        enc2,
        AugmentConfig(),
        NtXentConfig(),
        OptimConfig(warmup_steps=2),
        epochs=EPOCHS,
        batch_size=8,
        seed=2,
        state=state2,
        stop_after_steps=6,
    )
    for (k, a), (_, b) in zip(enc_ref.parameters().items(), enc2.parameters().items()):
        assert np.array_equal(a.data, b.data), k


def test_flipped_byte_raises_integrity_error(tmp_path):
    enc, state, _ = trained_encoder(seed=3)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    blob = bytearray(path.read_bytes())
    for offset in (len(blob) // 2, len(blob) - 3, 200):
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0xFF
        bad = tmp_path / f"bad{offset}.ckpt"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(IntegrityError):
            load_checkpoint(bad)


def test_truncated_file_raises_integrity_error(tmp_path):
    enc, state, _ = trained_encoder(seed=4)
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(IntegrityError):
        load_checkpoint(trunc)


def test_version_mismatch_rejected(tmp_path):
    enc, state, _ = trained_encoder(seed=5)
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    # version 1 stored one parameter pair per LayerNorm (normJ.lnI.gamma);
    # version 2 stored each bank as {"frozen", "ema_alpha"}, which would
    # read as a truthy frozen flag here; version 3 stored routing counts;
    # version 4 embedded an encoder config with a ``channels`` field
    for version in (99, 1, 2, 3, 4):
        blob = bytearray(path.read_bytes())
        blob[8] = version  # schema version field follows the magic
        versioned = tmp_path / "v.ckpt"
        versioned.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match=f"version {version} unsupported"):
            load_checkpoint(versioned)


def test_interrupted_save_keeps_previous_file(tmp_path, monkeypatch):
    enc, state, _ = trained_encoder(seed=6)
    path = tmp_path / "last.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    before = path.read_bytes()
    enc.pos_embed.data = enc.pos_embed.data + 1.0  # the rewrite would differ

    def fail(fd):
        raise OSError("disk gone mid-write")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="mid-write"):
        save_checkpoint(path, enc, state, CONFIG)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]
    enc2, _, _, _ = load_checkpoint(path)
    assert not np.array_equal(enc2.pos_embed.data, enc.pos_embed.data)


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "g.ckpt"
    path.write_bytes(b"definitely not " + MAGIC)
    with pytest.raises(IntegrityError, match="magic"):
        load_checkpoint(path)


def test_classifier_and_dropped_head_roundtrip(tmp_path):
    enc, state, _ = trained_encoder(seed=6)
    enc.drop_projection_head()
    enc.attach_classifier(4, np.random.default_rng(1))
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    enc2, _, _, meta = load_checkpoint(path)
    assert enc2.proj is None
    assert enc2.n_classes == 4
    assert meta["n_classes"] == 4 and meta["has_projection"] is False
    assert np.array_equal(enc.classifier.w.data, enc2.classifier.w.data)


def _stray_moment(arrays):
    arrays["optim.m.nowhere"] = arrays["optim.v.nowhere"] = np.zeros(3)


def _lone_moment(arrays):
    del arrays[next(k for k in arrays if k.startswith("optim.v."))]


@pytest.mark.parametrize(
    "edit, message",
    [(_stray_moment, "'optim.m.nowhere' names no parameter"), (_lone_moment, "only one")],
)
def test_optimizer_arrays_without_their_parameter_are_rejected(
    tmp_path, monkeypatch, edit, message
):
    """A moment array that names no parameter, or an m without its v, is
    a file `save_checkpoint` cannot write, so loading it raises."""
    enc, state, _ = trained_encoder(seed=8)
    gather = checkpoint._gather

    def edited_gather(*args):
        arrays, state_doc = gather(*args)
        edit(arrays)
        return arrays, state_doc

    monkeypatch.setattr(checkpoint, "_gather", edited_gather)
    path = tmp_path / "stray.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("which", [0, 1])
def test_optimizer_moment_of_the_wrong_shape_is_rejected(tmp_path, which):
    enc, state, _ = trained_encoder(seed=9)
    name = "pos_embed"
    state.moments[name][which] = np.zeros(state.moments[name][which].shape[1:])
    path = tmp_path / "shape.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    key = f"optim.{'mv'[which]}.{name}"
    with pytest.raises(IntegrityError, match=rf"'{key}' shape \("):
        load_checkpoint(path)


def test_moments_of_a_dropped_head_are_not_saved(tmp_path):
    enc, state, _ = trained_encoder(seed=10)
    assert any(name.startswith("proj.") for name in state.moments)
    enc.drop_projection_head()
    path = tmp_path / "dropped.ckpt"
    save_checkpoint(path, enc, state, CONFIG)
    _, state2, _, _ = load_checkpoint(path)
    assert set(state2.moments) == set(state.moments) & set(enc.parameters())
    assert not any(name.startswith("proj.") for name in state2.moments)
