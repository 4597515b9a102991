"""Binary checkpoints with byte-exact round trips.

Layout (all integers little-endian):

    magic           8 bytes  b"PNORMCK1"
    schema version  u32
    config digest   32 bytes (sha256 of the config section payload)
    section count   u32
    per section:    name length u16, name utf-8, payload length u64, crc32 u32
    payloads        concatenated in table order

Sections: ``config`` (canonical JSON), ``arrays`` (every parameter, the
optimizer moments of those parameters, and the in-flight batch order, as
named raw float64/int64 blocks), ``state`` (loop position, best
validation loss, rng stream states, one frozen flag per norm site, null
where the site has no bank, and metadata, as canonical JSON). The EMA
coefficient is not stored per bank: the embedded config's
``encoder.ema_alpha`` fixes it.
Every section is CRC checked on load; a flipped byte raises rather than
loading silently.

Schema version 5 stores each norm site as its arrays:
``param.blockK.normJ.gamma`` and ``.beta`` of shape [n, d] (row i is the
affine pair of route i) and, in proto-gated mode alone, ``.prototypes``
[n, d]. It holds no routing counts, and its embedded encoder config has
no ``channels`` field. Files of any other version raise ``VersionError``.

A save writes each array from its own memory through ``data.write_atomic``,
whole or not at all, so an interrupted save leaves the previous file
intact; a load reads the file once and copies each array out of it once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import zlib

import numpy as np

from .data import write_atomic
from .encoder import Encoder, EncoderConfig
from .errors import InputError, IntegrityError, VersionError
from .training import RngStreams, TrainState

__all__ = ["SCHEMA_VERSION", "load_checkpoint", "save_checkpoint"]

MAGIC = b"PNORMCK1"
SCHEMA_VERSION = 5
HEADER = struct.Struct("<8sI32sI")  # magic, schema version, config digest, section count


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _pack_arrays(arrays):
    """The arrays section as buffers: each record's header, then its array's own bytes."""
    parts = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")  # ascontiguousarray would make a 0-d array 1-d
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        fmt = f"<H{len(name_b)}sH{len(dtype_b)}sB{arr.ndim}Q"
        fields = (len(name_b), name_b, len(dtype_b), dtype_b, arr.ndim, *arr.shape)
        parts.append(struct.pack(fmt, *fields))
        parts.append(arr.reshape(-1).view(np.uint8))
    return parts


def _unpack_arrays(payload):
    """Each array of the arrays section as a read-only view of ``payload``."""
    off = 0

    def take(n):
        nonlocal off
        off += n
        if off > len(payload):
            raise IntegrityError("arrays section truncated")
        return payload[off - n : off]

    (count,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (dtype_len,) = struct.unpack("<H", take(2))
        dtype = np.dtype(bytes(take(dtype_len)).decode("ascii"))
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        arrays[name] = np.frombuffer(take(dtype.itemsize * math.prod(shape)), dtype).reshape(shape)
    if off != len(payload):
        raise IntegrityError("arrays section has trailing bytes")
    return arrays


def _gather(encoder, state, meta):
    arrays = {}
    params = encoder.parameters()
    for name, t in params.items():
        arrays[f"param.{name}"] = t.data
    # Moments of a parameter the encoder no longer has (a dropped
    # projection head) have nothing to step, so they are not kept.
    for name in sorted(state.moments.keys() & params.keys()):
        m, v = state.moments[name]
        arrays[f"optim.m.{name}"] = m
        arrays[f"optim.v.{name}"] = v
    if state.batch_order is not None:
        arrays["loop.batch_order"] = np.asarray(state.batch_order, dtype=np.int64)

    state_doc = {
        "step": state.step,
        "epoch": state.epoch,
        "batch_idx": state.batch_idx,
        "best_val": state.best_val if math.isfinite(state.best_val) else None,
        "rng": state.streams.state(),
        "banks": [
            None if layer.bank is None else layer.bank.frozen
            for layer in encoder.protonorm_layers()
        ],
        "meta": meta,
    }
    return arrays, state_doc


def save_checkpoint(path, encoder, state, config_dict=None, meta=None):
    """Serialize encoder + training state; see the module docstring for
    the format. The stored config always embeds the encoder architecture
    so any checkpoint can rebuild its model. Returns the path."""
    config_dict = dict(config_dict or {})
    config_dict.setdefault("encoder", dataclasses.asdict(encoder.cfg))
    meta = dict(meta or {})
    meta.setdefault("n_classes", encoder.n_classes)
    meta.setdefault("has_projection", encoder.proj is not None)
    arrays, state_doc = _gather(encoder, state, meta)

    config_payload = _canonical_json(config_dict)
    sections = [
        ("config", [config_payload]),
        ("arrays", _pack_arrays(arrays)),
        ("state", [_canonical_json(state_doc)]),
    ]
    digest = hashlib.sha256(config_payload).digest()
    header = [HEADER.pack(MAGIC, SCHEMA_VERSION, digest, len(sections))]
    for name, parts in sections:
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        name_b = name.encode("ascii")
        length = sum(len(part) for part in parts)
        header.append(struct.pack(f"<H{len(name_b)}sQI", len(name_b), name_b, length, crc))
    write_atomic(path, header + [part for _, parts in sections for part in parts])
    return path


def _read_sections(blob):
    if len(blob) < HEADER.size or blob[:8] != MAGIC:
        raise IntegrityError("not a checkpoint file (bad magic)")
    _, version, digest, count = HEADER.unpack_from(blob)
    if version != SCHEMA_VERSION:
        raise VersionError(
            f"checkpoint schema version {version} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    off = HEADER.size
    table = []
    for _ in range(count):
        if off + 2 > len(blob):
            raise IntegrityError("checkpoint header truncated")
        (name_len,) = struct.unpack("<H", blob[off : off + 2])
        off += 2
        name = bytes(blob[off : off + name_len]).decode("ascii")
        off += name_len
        length, crc = struct.unpack("<QI", blob[off : off + 12])
        off += 12
        table.append((name, length, crc))
    sections = {}
    for name, length, crc in table:
        payload = blob[off : off + length]
        if len(payload) != length:
            raise IntegrityError(f"section {name!r} truncated")
        if zlib.crc32(payload) != crc:
            raise IntegrityError(f"checksum mismatch in section {name!r}")
        sections[name] = payload
        off += length
    if off != len(blob):
        raise IntegrityError("checkpoint has trailing bytes")
    if "config" not in sections or "arrays" not in sections or "state" not in sections:
        raise IntegrityError("checkpoint is missing required sections")
    if hashlib.sha256(sections["config"]).digest() != digest:
        raise IntegrityError("config digest does not match header")
    return sections


class _ZeroDraws:
    """The parameter generator of an encoder whose every parameter the file
    then replaces: a normal draw is zeros, so building it draws nothing.
    Prototype banks still take a real generator, as their Gram-Schmidt
    needs independent rows."""

    @staticmethod
    def standard_normal(size):
        return np.zeros(size)


def load_checkpoint(path):
    """Rebuild (encoder, state, config_dict, meta) from a checkpoint.

    Verifies magic, schema version, per-section CRCs, and the config
    digest before touching any payload; corrupt files never load
    partially. Every parameter array, and each optimizer moment pair,
    must name a parameter of the config-built encoder and have its shape;
    that encoder draws no weights (``_ZeroDraws``), and each parameter is
    copied from the file into the array it allocated.
    A file that cannot be read is an ``InputError`` naming the path.
    """
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as e:
        raise InputError(f"{path}: cannot read the checkpoint ({e.strerror or e})") from e
    try:
        sections = _read_sections(blob)
    except (IntegrityError, VersionError):
        raise
    except Exception as e:  # corrupted header fields parse as garbage
        raise IntegrityError(f"malformed checkpoint header: {e}") from e
    config_dict = json.loads(bytes(sections["config"]))
    arrays = _unpack_arrays(sections["arrays"])
    state_doc = json.loads(bytes(sections["state"]))
    meta = state_doc["meta"]

    enc_cfg = EncoderConfig(**config_dict["encoder"])
    zeros = _ZeroDraws()
    encoder = Encoder(enc_cfg, zeros, np.random.default_rng(0))
    if not meta.get("has_projection", True):
        encoder.drop_projection_head()
    if meta.get("n_classes") is not None:
        encoder.attach_classifier(int(meta["n_classes"]), zeros)

    params = encoder.parameters()
    saved = {k[len("param.") :] for k in arrays if k.startswith("param.")}
    if saved != set(params):
        missing = sorted(set(params) - saved)
        extra = sorted(saved - set(params))
        raise IntegrityError(
            f"parameter names disagree with the config-built encoder "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, t in params.items():
        arr = arrays[f"param.{name}"]
        if arr.shape != t.data.shape:
            raise IntegrityError(
                f"parameter {name!r} shape {arr.shape} != expected {t.data.shape}"
            )
        t.data[...] = arr

    for i, layer in enumerate(encoder.protonorm_layers()):
        if layer.bank is not None:
            layer.bank.frozen = bool(state_doc["banks"][i])

    moments = {}
    for key, arr in arrays.items():
        if not key.startswith("optim."):
            continue
        kind, _, name = key[len("optim.") :].partition(".")
        if kind not in ("m", "v") or name not in params:
            raise IntegrityError(f"optimizer array {key!r} names no parameter")
        if arr.shape != params[name].data.shape:
            raise IntegrityError(
                f"optimizer array {key!r} shape {arr.shape} != parameter shape "
                f"{params[name].data.shape}"
            )
        moments.setdefault(name, [None, None])["mv".index(kind)] = arr.copy()
    for name, pair in moments.items():
        if any(a is None for a in pair):
            raise IntegrityError(f"parameter {name!r} has only one optimizer moment")
    order = arrays.get("loop.batch_order")
    state = TrainState(
        streams=RngStreams.from_state(state_doc["rng"]),
        step=state_doc["step"],
        epoch=state_doc["epoch"],
        batch_idx=state_doc["batch_idx"],
        batch_order=None if order is None else order.copy(),
        moments=moments,
        best_val=(
            math.inf if state_doc["best_val"] is None else state_doc["best_val"]
        ),
    )
    return encoder, state, config_dict, meta
