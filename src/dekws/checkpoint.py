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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .buffer import ReservoirBuffer
from .errors import CheckpointError
from .model import TcResNet8, TcResNet8Config

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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path) -> LoadedCheckpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from exc
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
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
        n_elem = math.prod(shape)
        nbytes = dtype.itemsize * n_elem
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated array payload ({name})")
        if n_elem:
            arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<"), count=n_elem, offset=offset)
            arr = arr.reshape(shape).astype(dtype)
        else:
            arr = np.empty(shape, dtype=dtype)
        arrays[name] = arr
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(
            f"{path}: {len(raw) - offset} bytes follow the last declared array"
        )

    try:
        model, buf = _restore(header, arrays)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise CheckpointError(f"{path}: header does not fit its arrays ({exc})") from exc
    return LoadedCheckpoint(model, header.get("experiment_config", {}), buf)


def _restore(header: dict, arrays: dict) -> tuple[TcResNet8, ReservoirBuffer | None]:
    """Model and buffer described by a parsed header and its arrays.

    A header value of the wrong type, a missing or unknown model_config
    key, a missing array, an array that does not fit the model, or a buffer
    that breaks the reservoir invariant (min(num_seen, capacity) rows of
    num_classes logits, as many as num_entries) raises KeyError,
    IndexError, TypeError, ValueError or OverflowError; a buffer capacity
    too large to allocate raises MemoryError.
    """
    mc = header["model_config"]
    names = [f.name for f in dataclasses.fields(TcResNet8Config)]
    if not isinstance(mc, dict) or sorted(mc) != sorted([*names, "dtype"]):
        raise ValueError(f"model_config must be an object with keys {names} and dtype")
    cfg = TcResNet8Config(**{name: mc[name] for name in names})
    cfg = dataclasses.replace(cfg, channels=tuple(cfg.channels))
    model = TcResNet8(cfg, seed=0, dtype=np.dtype(mc["dtype"]))
    model_keys = set(model.state_arrays())
    model.load_state_arrays({k: v for k, v in arrays.items() if k in model_keys})

    bmeta = header.get("buffer")
    if bmeta is None:
        return model, None
    n = bmeta["num_entries"]
    columns = [arrays[name] for name in BUFFER_ARRAYS if name in arrays]
    if len(columns) != (len(BUFFER_ARRAYS) if n else 0) or any(len(c) != n for c in columns):
        raise CheckpointError(
            f"buffer header declares {n} entries, buffer arrays have shapes "
            f"{[c.shape for c in columns]}"
        )
    buf = ReservoirBuffer.from_arrays(
        bmeta["capacity"], bmeta["num_classes"], bmeta["num_seen"], bmeta["rng_state"],
        *columns,
    )
    return model, buf
