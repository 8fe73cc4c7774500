"""Versioned binary checkpoint container.

Layout: magic "DKWS", a uint32 format version, a uint64 header length, a
UTF-8 JSON header, then the raw little-endian bytes of every array in
header order. Arrays are written exactly as stored in memory, so a
save/load round trip is bit-exact for model parameters, running stats, and
buffer contents (including the reservoir's generator state).
"""

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .buffer import ReservoirBuffer
from .errors import CheckpointError
from .model import TcResNet8, TcResNet8Config, state_shapes

MAGIC = b"DKWS"
VERSION = 1
BUFFER_ARRAYS = ("buffer.features", "buffer.labels", "buffer.logits")


@dataclass
class LoadedCheckpoint:
    model: TcResNet8
    experiment_config: dict
    buffer: ReservoirBuffer | None


def _array_records(arrays: dict) -> tuple[list, bytes]:
    meta = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        meta.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        blobs.append(little.tobytes())
    return meta, b"".join(blobs)


def save_checkpoint(path, model: TcResNet8, experiment_config: dict | None = None,
                    buffer: ReservoirBuffer | None = None) -> None:
    arrays = dict(model.state_arrays())
    buffer_meta = None
    if buffer is not None:
        n = len(buffer)
        version, internal, gauss = buffer.rng.getstate()
        buffer_meta = {
            "capacity": buffer.capacity,
            "num_classes": buffer.num_classes,
            "num_seen": buffer.num_seen,
            "rng_state": [version, list(internal), gauss],
            "num_entries": n,
        }
        if n:
            columns = (buffer.features, buffer.labels, buffer.logits)
            arrays.update((name, column[:n]) for name, column in zip(BUFFER_ARRAYS, columns))
    meta, payload = _array_records(arrays)
    header = {
        "model_config": {**dataclasses.asdict(model.cfg), "dtype": str(model.dtype)},
        "experiment_config": experiment_config or {},
        "arrays": meta,
        "buffer": buffer_meta,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # Written beside the target and renamed over it, so a save that fails
    # partway leaves the previous file whole.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> LoadedCheckpoint:
    try:
        with open(path, "rb") as fh:
            header, arrays = _read_arrays(path, fh)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from exc
    try:
        model, buf = _restore(header, arrays)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise CheckpointError(f"{path}: header does not fit its arrays ({exc})") from exc
    return LoadedCheckpoint(model, header.get("experiment_config", {}), buf)


def _read_arrays(path, fh) -> tuple[dict, dict]:
    """Header and arrays of the checkpoint file open as fh; each array is
    read straight into its own array once its size fits the bytes left."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(16)
    if len(prefix) < 16 or prefix[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (magic)")
    version, header_len = struct.unpack_from("<IQ", prefix, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if header_len > size - 16:
        raise CheckpointError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("model_config", "arrays"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: header 'arrays' is not a list")

    arrays = {}
    offset = 16 + header_len
    for meta in header["arrays"]:
        try:
            name = meta["name"]
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(d) for d in meta["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed array record {meta!r}") from exc
        if dtype.kind not in "biuf":
            raise CheckpointError(f"{path}: array {name!r} has unsupported dtype {dtype}")
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: array {name!r} has negative shape {shape}")
        nbytes = dtype.itemsize * math.prod(shape)
        if offset + nbytes > size:
            raise CheckpointError(f"{path}: truncated array payload ({name})")
        try:
            arr = np.empty(shape, dtype=dtype.newbyteorder("<"))
        except ValueError as exc:  # more dimensions, or a dimension larger, than numpy takes
            raise CheckpointError(f"{path}: malformed array record {meta!r}") from exc
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise CheckpointError(f"{path}: truncated array payload ({name})")
        arrays[name] = arr.astype(dtype, copy=False)
        offset += nbytes
    if offset != size:
        raise CheckpointError(f"{path}: {size - offset} bytes follow the last declared array")
    return header, arrays


def _restore(header: dict, arrays: dict) -> tuple[TcResNet8, ReservoirBuffer | None]:
    """Model and buffer described by a parsed header and its arrays.

    A header value of the wrong type, a missing or unknown model_config
    key, a missing array, an array whose shape differs from the one
    model_config gives (checked before the model is built), a num_entries
    other than min(num_seen, capacity), or a buffer that
    ReservoirBuffer.from_arrays rejects raises KeyError, IndexError,
    TypeError, ValueError or OverflowError, as does a model dtype other
    than float32 or float64; a model too large to allocate raises
    MemoryError.
    """
    mc = header["model_config"]
    names = [f.name for f in dataclasses.fields(TcResNet8Config)]
    if not isinstance(mc, dict) or sorted(mc) != sorted([*names, "dtype"]):
        raise ValueError(f"model_config must be an object with keys {names} and dtype")
    cfg = TcResNet8Config(**{name: mc[name] for name in names})
    cfg = dataclasses.replace(cfg, channels=tuple(cfg.channels))
    shapes = state_shapes(cfg)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name}: model_config gives shape {shape}, "
                             f"the array has {arrays[name].shape}")
    model = TcResNet8(cfg, seed=0, dtype=np.dtype(mc["dtype"]))
    model.load_state_arrays({name: arrays[name] for name in shapes})

    bmeta = header.get("buffer")
    if bmeta is None:
        return model, None
    n = bmeta["num_entries"]
    if n != min(bmeta["num_seen"], bmeta["capacity"]):
        raise ValueError(f"buffer header declares {n} entries, not min(num_seen, capacity)")
    buf = ReservoirBuffer.from_arrays(
        bmeta["capacity"], bmeta["num_classes"], bmeta["num_seen"], bmeta["rng_state"],
        *(arrays.get(name) for name in BUFFER_ARRAYS),
    )
    return model, buf
