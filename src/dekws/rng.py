"""Seed fan-out.

All randomness in an experiment flows from one root seed. Each consumer gets
its own named sub-stream so a component can be reproduced in isolation (the
model init draws the same numbers whether or not the shuffler ran first).

Stream names in use: "init", "shuffle", "reservoir", "sampler", "synth",
"schedule". Splits draw from no stream: deterministic_split ranks records by
SHA-256 of "seed:record_id".
"""

import hashlib
import random

import numpy as np


def substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the named sub-stream.

    Uses SHA-256 rather than hash() so the value is identical across
    processes and platforms.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def numpy_stream(root_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(substream_seed(root_seed, name))


def python_stream(root_seed: int, name: str) -> random.Random:
    return random.Random(substream_seed(root_seed, name))
