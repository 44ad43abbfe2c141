"""Deterministic, splittable random streams.

Every sampling operation in the package derives its generator from a user
seed plus a structured key (operation tag, ball index, stage, ...), so that
independent sub-tasks get independent counter-based streams and any task can
be replayed in isolation.
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

    Uses a Philox counter-based bit generator keyed through a SeedSequence
    spawn key, so streams for distinct keys never overlap and results do not
    depend on evaluation order.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(_key_int(k) for k in keys))
    return np.random.Generator(np.random.Philox(ss))


def subseed(seed: int, key: tuple) -> int:
    """Integer seed in [0, 2**62) drawn from the sub-stream (seed, *key), for
    functions that take a plain integer seed."""
    return int(child_rng(seed, *key).integers(0, 2 ** 62))
