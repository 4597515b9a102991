"""Checkpoint format: byte-exact round trips, integrity, resume equality,
and the codec's bytes and memory."""

import hashlib
import os
import struct
import tracemalloc

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
    """``n_classes`` reads the classifier's width: None without a
    classifier and the attached width with one, each also after a round
    trip."""
    enc, state, _ = trained_encoder(seed=6)
    enc.drop_projection_head()
    assert enc.n_classes is None
    save_checkpoint(tmp_path / "g.ckpt", enc, state, CONFIG)
    assert load_checkpoint(tmp_path / "g.ckpt")[0].n_classes is None
    enc.attach_classifier(4, np.random.default_rng(1))
    assert enc.n_classes == enc.classifier.w.shape[1] == 4
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


# The sha256 of ``fixed_checkpoint``: a change to the file format changes it.
FIXED_SHA256 = "fdc70db56d93e9a016d6eb0ceb10ad0abad554c322aace188b1327a57ed827ad"


def fixed_checkpoint(path):
    """A checkpoint whose every byte is fixed whatever the arithmetic: a
    small proto-gated encoder with a classifier, every parameter and moment
    an exact multiple of 1/64, a reversed batch order and fixed loop state."""
    cfg = EncoderConfig(**CONFIG["encoder"])
    streams = RngStreams.from_seed(0)
    enc = Encoder(cfg, streams.params, streams.protos)
    enc.attach_classifier(3, np.random.default_rng(1))
    moments = {}
    for k, (name, t) in enumerate(enc.parameters().items()):
        t.data[...] = (np.arange(t.data.size).reshape(t.data.shape) % 17 - 8 + k) / 8
        moments[name] = [t.data / 2, t.data * t.data]
    state = TrainState(streams=streams, step=5, epoch=1, batch_idx=2,
                       batch_order=np.arange(12)[::-1], moments=moments, best_val=0.5)
    save_checkpoint(path, enc, state, CONFIG, meta={"classes": [1, 2, 3]})
    return enc, state


def test_the_file_format_is_pinned(tmp_path):
    path = tmp_path / "fixed.ckpt"
    fixed_checkpoint(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXED_SHA256


def test_every_loaded_array_owns_its_memory(tmp_path):
    """No parameter, moment or batch order is a view of the file's bytes,
    which would pin the whole buffer and be read-only."""
    path = tmp_path / "fixed.ckpt"
    enc, state = fixed_checkpoint(path)
    enc2, state2, _, meta = load_checkpoint(path)
    assert meta["classes"] == [1, 2, 3]
    arrays = [t.data for t in enc2.parameters().values()]
    arrays += [a for pair in state2.moments.values() for a in pair] + [state2.batch_order]
    assert len(arrays) == 3 * len(enc.parameters()) + 1
    for arr in arrays:
        assert arr.flags.owndata and arr.flags.writeable and arr.base is None
    assert np.array_equal(state2.batch_order, state.batch_order)
    for name, t in enc.parameters().items():
        assert np.array_equal(enc2.parameters()[name].data, t.data)
        assert all(np.array_equal(a, b) for a, b in zip(state2.moments[name], state.moments[name]))


def _traced_peak(fn):
    """The peak of memory traced while ``fn`` runs, above what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_save_writes_the_arrays_own_memory_and_load_copies_each_once(tmp_path):
    """A desk-size encoder with a moment pair per parameter: a save
    allocates under a tenth of the file's size, and a load at most 2.1
    times it, the file read once plus one copy of every array."""
    cfg = EncoderConfig()
    streams = RngStreams.from_seed(0)
    enc = Encoder(cfg, streams.params, streams.protos)
    rng = np.random.default_rng(1)
    moments = {name: [rng.standard_normal(t.data.shape), rng.standard_normal(t.data.shape)]
               for name, t in enc.parameters().items()}
    state = TrainState(streams=streams, batch_order=np.arange(256), moments=moments)
    path = tmp_path / "desk.ckpt"
    save_peak, _ = _traced_peak(lambda: save_checkpoint(path, enc, state))
    size = path.stat().st_size
    assert size > 3e6
    assert save_peak < 0.1 * size
    load_peak, (enc2, _, _, _) = _traced_peak(lambda: load_checkpoint(path))
    assert load_peak <= 2.1 * size
    assert np.array_equal(enc2.pos_embed.data, enc.pos_embed.data)


@pytest.mark.parametrize(
    "arr",
    [
        np.zeros((0, 3)),
        np.array(2.5),
        np.arange(6.0).reshape(2, 3).T,
        np.arange(5, dtype=np.int64),
    ],
    ids=["zero-size", "0-d", "transposed", "int64"],
)
def test_an_array_packs_as_its_header_and_tobytes(arr):
    """Each record is its header, then the bytes ``tobytes`` gives, also
    where a byte view of the array cannot be cast (shape (0, 3)), and it
    unpacks to the same shape, dtype and values, a 0-d array's included."""
    parts = checkpoint._pack_arrays({"a": arr})
    dtype = arr.dtype.str.encode("ascii")
    header = struct.pack(f"<IH1sH{len(dtype)}sB{arr.ndim}Q", 1, 1, b"a", len(dtype), dtype,
                         arr.ndim, *arr.shape)
    payload = b"".join(bytes(part) for part in parts)
    assert payload == header + arr.tobytes()
    (out,) = checkpoint._unpack_arrays(memoryview(payload)).values()
    assert out.shape == arr.shape and out.dtype == arr.dtype and np.array_equal(out, arr)
