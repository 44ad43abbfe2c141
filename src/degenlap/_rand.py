"""Deterministic, splittable random streams.

Every sampling operation in the package derives its generator from a user
seed plus a structured key (operation tag, ball index, ...), so that
any task can be replayed in isolation.  A stream is a PCG64DXSM generator
seeded by a SeedSequence whose spawn key is the hashed key.  Streams of
distinct keys are independent with overwhelming probability; they are not
counter-based, so nothing guarantees that two never overlap.  No result
depends on the order in which streams are made.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_rng", "subseed"]


def _key_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(str(key).encode("utf-8"))


def child_rng(seed: int, *keys) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *keys).

    A PCG64DXSM bit generator seeded by SeedSequence(seed, spawn_key), one
    spawn word per key (an integer modulo 2**32, else the CRC-32 of its
    str).  Streams of distinct spawn keys are independent with overwhelming
    probability; the keys, not the order of construction, fix the draws.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(_key_int(k) for k in keys))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def subseed(seed: int, key: tuple) -> int:
    """Integer seed in [0, 2**62) drawn from the sub-stream (seed, *key), for
    functions that take a plain integer seed."""
    return int(child_rng(seed, *key).integers(0, 2 ** 62))
