"""Seed plumbing: every random quantity in the package flows through here.

Trial-level reproducibility works by deriving an independent stream from
``(master_seed, stream_tag, *indices)`` with :class:`numpy.random.SeedSequence`,
so any single network or trial can be regenerated in isolation, in any order,
on any number of workers.

The key reaches the ``SeedSequence`` as a ``uint32`` word array: each
coordinate becomes its little-endian 32-bit words (0 becomes one zero word),
concatenated in order. That is numpy's own rule for turning a tuple of
non-negative ints into entropy, so the streams are bit-identical to
``SeedSequence((master_seed, stream_tag, *indices))`` and have not changed
since v0; building the array directly only skips numpy's slower coercion.
"""
from __future__ import annotations

import numpy as np

# Stream tags keep draws for different purposes statistically independent
# even when they share (master_seed, z, network, trial) coordinates.
STREAM_NETWORK = 1
STREAM_THETA = 2
STREAM_SHOCKS = 3
STREAM_THRESHOLDS = 4

_WORD_MASK = 0xFFFFFFFF


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise ValueError(f"cannot build a random generator from {seed!r}")


def stream_seed(master_seed: int, stream: int, *indices: int) -> np.random.SeedSequence:
    """Seed for one purpose-specific stream, keyed by non-negative integer
    coordinates."""
    words = []
    for value in (master_seed, stream, *indices):
        value = int(value)
        if value < 0:
            raise ValueError(f"stream key coordinates must be non-negative, got {value}")
        words.append(value & _WORD_MASK)
        value >>= 32
        while value:
            words.append(value & _WORD_MASK)
            value >>= 32
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream_rng(master_seed: int, stream: int, *indices: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, stream, *indices)))


def normal_from_standard(z: np.ndarray, loc, scale) -> np.ndarray:
    """Turn standard normal draws ``z`` into Normal(loc, scale) draws in place.

    Computes ``loc + scale * z``, the formula ``Generator.normal`` applies to
    each standard normal it draws, so the result is bit-identical to
    ``rng.normal(loc, scale)`` on the same stream, down to the sign of zero.
    ``loc`` and ``scale`` broadcast against ``z``, one row per trial. Like
    ``Generator.normal``, it rejects a negative scale.
    """
    if np.less(scale, 0).any():
        raise ValueError("scale < 0")
    np.multiply(z, scale, out=z)
    np.add(z, loc, out=z)
    return z
