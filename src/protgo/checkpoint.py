"""Binary model checkpoints: magic "PGO1", a JSON header describing every
array (name, dtype, shape, byte offset), then the raw little-endian arrays.

The save -> load round trip is bit-exact for parameters, optimizer moments,
the freeze mask, and the training RNG bookkeeping.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .manifest import atomic_open
from .model import FreezeMask, ModelConfig, ModelError, ProteinEncoder, check_params

MAGIC = b"PGO1"
FORMAT_VERSION = 1
DTYPE = "<f8"  # the one dtype the format writes and reads
HEADER_KEYS = {"format_version", "config", "freeze_mask", "optimizer", "rng_state", "arrays", "payload_bytes"}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict  # name -> np.ndarray
    freeze_mask: FreezeMask
    optimizer_state: dict | None = None  # {"step": int, "m": {...}, "v": {...}}
    rng_state: dict = field(default_factory=dict)  # seed / epochs_completed bookkeeping

    def to_model(self) -> ProteinEncoder:
        model = ProteinEncoder(self.config, params=self.params)
        model.apply_freeze(self.freeze_mask, mode="load")
        return model


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = {f"param.{k}": np.ascontiguousarray(v, dtype=DTYPE) for k, v in ckpt.params.items()}
    opt_meta = None
    if ckpt.optimizer_state is not None:
        opt_meta = {"step": int(ckpt.optimizer_state["step"])}
        for moment in ("m", "v"):
            for k, arr in ckpt.optimizer_state[moment].items():
                arrays[f"adam.{moment}.{k}"] = np.ascontiguousarray(arr, dtype=DTYPE)

    entries = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        entries.append({"name": name, "dtype": DTYPE, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes

    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "freeze_mask": ckpt.freeze_mask.frozen,
        "optimizer": opt_meta,
        "rng_state": ckpt.rng_state,
        "arrays": entries,
        "payload_bytes": offset,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes)
        for name in sorted(arrays):
            fh.write(arrays[name].tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic): {path}")
    header_len = struct.unpack("<I", blob[4:8])[0]
    if len(blob) < 8 + header_len:
        raise CheckpointError(f"truncated checkpoint (header incomplete): {path}")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    missing = sorted(HEADER_KEYS - set(header)) if isinstance(header, dict) else sorted(HEADER_KEYS)
    if missing:
        raise CheckpointError(f"checkpoint header lacks {missing}: {path}")
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"unrecognized checkpoint format_version {header['format_version']}")
    payload = blob[8 + header_len :]
    if len(payload) != header["payload_bytes"]:
        raise CheckpointError(
            f"truncated checkpoint: expected {header['payload_bytes']} payload bytes, found {len(payload)}"
        )

    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"checkpoint header's arrays is not a list: {path}")
    arrays = {}
    for entry in header["arrays"]:
        try:
            name, dtype, shape, start = entry["name"], entry["dtype"], entry["shape"], int(entry["offset"])
        except (KeyError, TypeError, ValueError):
            raise CheckpointError(f"corrupt checkpoint array entry {entry!r}: {path}") from None
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"corrupt checkpoint array entry {entry!r}: {path}")
        if dtype != DTYPE:
            raise CheckpointError(f"array '{name}' has dtype {dtype!r}, not {DTYPE!r}: {path}")
        count = math.prod(shape)
        if start < 0 or start + count * np.dtype(DTYPE).itemsize > len(payload):
            raise CheckpointError(f"array '{name}' runs past the end of the checkpoint payload: {path}")
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=start).reshape(shape).copy()

    try:
        config = ModelConfig.from_dict(header["config"])
        freeze_mask = FreezeMask(dict(header["freeze_mask"]))
        rng_state = dict(header["rng_state"])
        step = None if header["optimizer"] is None else header["optimizer"]["step"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint header ({exc!r}): {path}") from None
    # resuming seeds generators with these and counts Adam's steps on
    counts = {f"rng_state {k}": rng_state[k] for k in ("seed", "epochs_completed") if k in rng_state}
    if step is not None:
        counts["optimizer step"] = step
    for what, value in counts.items():
        if not (type(value) is int and value >= 0):
            raise CheckpointError(f"checkpoint {what} {value!r} is not an integer >= 0: {path}")
    params = {k[len("param."):]: v for k, v in arrays.items() if k.startswith("param.")}
    check_params(config, params)
    optimizer_state = None
    if step is not None:
        optimizer_state = {"step": step}
        for moment in ("m", "v"):
            prefix = f"adam.{moment}."
            optimizer_state[moment] = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
            try:  # a resume is exact only with every moment in place
                check_params(config, optimizer_state[moment])
            except ModelError as exc:
                raise CheckpointError(f"checkpoint Adam moments '{moment}' do not fit the model ({exc}): {path}") from None
    return Checkpoint(config=config, params=params, freeze_mask=freeze_mask,
                      optimizer_state=optimizer_state, rng_state=rng_state)


def checkpoint_from_model(model: ProteinEncoder, freeze_mask: FreezeMask,
                          optimizer_state=None, rng_state=None) -> Checkpoint:
    return Checkpoint(
        config=model.config,
        params={k: v.data.copy() for k, v in model.params.items()},
        freeze_mask=freeze_mask,
        optimizer_state=optimizer_state,
        rng_state=rng_state or {},
    )
